"""End-to-end command-line tests: byte-stable dumps, verdicts, exit codes,
catalog resolution."""
import collections
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curvkit.cli import main

from conftest import CATALOG, expr

DEGENERATE = """\
metric degenerate
dim 2
coords x y

g[1][1] = 1
g[1][2] = y
g[2][2] = y^2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_scalar(self, capsys):
        code, out, err = run(capsys, "compute", "vaidya", "kappa")
        assert code == 0 and err == ""
        assert out == "kappa = 0\n"

    def test_ricci_text(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "S")
        assert code == 0
        assert out == "S[1][1] = 2*m'(u)/r^2\n"

    def test_ricci_json(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "S",
                           "--dump-format", "json-lines")
        assert code == 0
        assert out == '{"tensor":"S","index":[1,1],"value":"2*m\'(u)/r^2"}\n'

    def test_metric_dump(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "g")
        assert code == 0
        assert out == ("g[1][1] = -(r - 2*m(u))/r\n"
                       "g[1][2] = -1\n"
                       "g[3][3] = r^2\n"
                       "g[4][4] = r^2*sin(theta)^2\n")

    def test_inverse_metric_dump(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "ginv")
        assert code == 0
        assert out == ("ginv[1][2] = -1\n"
                       "ginv[2][2] = (r - 2*m(u))/r\n"
                       "ginv[3][3] = 1/r^2\n"
                       "ginv[4][4] = 1/(r^2*sin(theta)^2)\n")

    def test_connection_dump(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "gamma")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[0] == "gamma[1][1][1] = -m(u)/r^2"
        assert lines[3] == ("gamma[2][1][1] = "
                            "-(r^2*m'(u) - r*m(u) + 2*m(u)^2)/r^3")
        assert lines[10] == "gamma[4][3][4] = cos(theta)/sin(theta)"

    def test_energy_momentum(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "T")
        assert code == 0
        assert out == "T[1][1] = c^4*m'(u)/(4*G*pi*r^2)\n"

    def test_covariant_derivative(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "nabla:S")
        assert code == 0
        assert out == (
            "nabla S[1][1][1] = (2*r^2*m''(u) + 4*m(u)*m'(u))/r^4\n"
            "nabla S[1][1][2] = -4*m'(u)/r^3\n"
            "nabla S[1][3][3] = -2*m'(u)/r\n"
            "nabla S[1][4][4] = -2*sin(theta)^2*m'(u)/r\n")

    def test_flat_dump_is_empty(self, capsys):
        code, out, err = run(capsys, "compute", "minkowski", "R")
        assert code == 0 and out == "" and err == ""

    def test_dot_json_round_trip(self, capsys, vaidya):
        import vaidya_reference as ref
        code, out, _ = run(capsys, "compute", "vaidya", "dot:R.R",
                           "--dump-format", "json-lines")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(set(r) == {"tensor", "index", "value"} for r in rows)
        assert all(r["tensor"] == "R.R" and len(r["index"]) == 6 for r in rows)
        got = {"".join(map(str, r["index"])): r["value"] for r in rows}
        assert sorted(got) == sorted(ref.RR)
        for key, text in got.items():
            assert expr(text, vaidya) == expr(ref.RR[key], vaidya)

    def test_endomorphism_dump(self, capsys):
        code, out, _ = run(capsys, "compute", "vaidya", "Q:g.C")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "Q(g,C)[1][2][1][3][2][3] = 3*m(u)/r"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "ricci.txt"
        code, out, _ = run(capsys, "compute", "vaidya", "S",
                           "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "S[1][1] = 2*m'(u)/r^2\n"

    def test_output_file_empty_dump(self, capsys, tmp_path):
        target = tmp_path / "flat.txt"
        code, out, _ = run(capsys, "compute", "minkowski", "R",
                           "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == ""

    def test_metric_by_path(self, capsys):
        code, out, _ = run(capsys, "compute",
                           str(CATALOG / "vaidya.metric"), "kappa")
        assert code == 0 and out == "kappa = 0\n"


class TestCheck:
    def test_holds_with_unique_coefficient(self, capsys):
        code, out, _ = run(capsys, "check", "vaidya", "C.C = L*Q(g,C)")
        assert code == 0
        assert out == ("identity: C.C = L*Q(g,C)\n"
                       "verdict: holds\n"
                       "L = m(u)/r^3\n")

    def test_fails_with_ratio_witness(self, capsys):
        code, out, _ = run(capsys, "check", "vaidya", "R.R = L*Q(g,R)")
        assert code == 1
        assert out == (
            "identity: R.R = L*Q(g,R)\n"
            "verdict: fails\n"
            "witness: component [1][2][1][3][1][3] requires L = -2*m(u)/r^3\n"
            "witness: component [1][2][1][3][2][3] requires L = m(u)/r^3\n")

    def test_fails_with_component_witness(self, capsys):
        code, out, _ = run(capsys, "check", "vaidya", "R.R = 0")
        assert code == 1
        assert out == (
            "identity: R.R = 0\n"
            "verdict: fails\n"
            "witness: component [1][2][1][3][1][3] = -2*m(u)*m'(u)/r^3\n")

    def test_free_unknown_reported(self, capsys):
        code, out, _ = run(capsys, "check", "minkowski", "R.R = L*Q(g,R)")
        assert code == 0
        assert out == ("identity: R.R = L*Q(g,R)\n"
                       "verdict: holds\n"
                       "L = 0\n"
                       "free: L\n")


class TestClassifyCompare:
    def test_classify_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "classify", "vaidya")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# structure report: vaidya"
        assert lines[1] == ("# assumption: declared functions and constants"
                            " are generic (no special vanishing)")
        assert len(lines) == 49
        assert "scalar-flat: holds" in lines
        assert ("pseudosymmetric-weyl: holds; witness L = m(u)/r^3"
                in lines)
        assert lines[-1] == "venzi-projective-space: not-evaluated"

    def test_compare_shape(self, capsys):
        code, out, _ = run(capsys, "compare", "vaidya", "schwarzschild")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# comparison: vaidya | schwarzschild"
        assert len(lines) == 48
        assert "ricci-flat: fails | holds | differ" in lines
        assert "semisymmetric: fails | fails | agree" in lines
        assert ("super-generalized-recurrent: not-evaluated |"
                " not-evaluated | not-evaluated") in lines


class TestCatalogResolution:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert out.splitlines() == [
            "ludwig-edgar", "minkowski", "schwarzschild", "sphere2", "vaidya"]

    def test_env_override(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "roundball.metric").write_text(
            (CATALOG / "sphere2.metric").read_text())
        monkeypatch.setenv("CURVKIT_CATALOG_DIR", str(tmp_path))
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and out == "roundball\n"
        code, out, _ = run(capsys, "compute", "roundball", "kappa")
        assert code == 0 and out == "kappa = -2/a^2\n"

    def test_cwd_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CURVKIT_CATALOG_DIR", raising=False)
        local = tmp_path / "catalog"
        local.mkdir()
        (local / "here.metric").write_text(
            (CATALOG / "minkowski.metric").read_text())
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and out == "here\n"


class TestErrors:
    def test_unknown_metric(self, capsys):
        code, out, err = run(capsys, "compute", "nosuch", "S")
        assert code == 2 and out == ""
        assert err == "error: metric not found: nosuch\n"

    def test_unknown_tensor(self, capsys):
        code, _, err = run(capsys, "compute", "vaidya", "bogus")
        assert code == 2
        assert err == "error: unknown tensor name 'bogus'\n"

    def test_dimension_guard(self, capsys):
        code, _, err = run(capsys, "compute", "sphere2", "C")
        assert code == 2
        assert err == "error: conformal tensor needs dimension >= 3\n"

    def test_malformed_identity(self, capsys):
        code, _, err = run(capsys, "check", "vaidya", "R.R")
        assert code == 2
        assert err == "error: line 1, column 1: an identity needs exactly one '='\n"

    def test_empty_identity(self, capsys):
        code, _, err = run(capsys, "check", "vaidya", "0 = 0")
        assert code == 2
        assert err == "error: line 1, column 1: identity 0 = 0 has no content\n"

    def test_degenerate_metric(self, capsys, tmp_path):
        path = tmp_path / "degenerate.metric"
        path.write_text(DEGENERATE)
        code, _, err = run(capsys, "compute", str(path), "S")
        assert code == 3
        assert err.startswith("error:")
        assert "degenerate" in err

    def test_undecodable_metric_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.metric"
        path.write_bytes(b"metric caf\xe9\ncoords x y\n")
        code, out, err = run(capsys, "compute", str(path), "g")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "ricci.txt"
        code, out, err = run(capsys, "compute", "vaidya", "S",
                             "-o", str(target))
        assert code == 2 and out == ""
        assert err == (f"error: cannot write {target}: "
                       "No such file or directory\n")

    def test_non_decimal_digit_in_metric_file(self, capsys, tmp_path):
        path = tmp_path / "sup.metric"
        path.write_text("dim \u00b2\ncoords x y\ng[1][1] = 1\ng[2][2] = 1\n")
        code, out, err = run(capsys, "compute", str(path), "g")
        assert code == 2 and out == ""
        assert err == f"error: {path}: line 1, column 1: dim needs an integer\n"

    def test_non_decimal_digit_in_identity(self, capsys):
        code, out, err = run(capsys, "check", "vaidya", "R.R = \u00b2*Q(g,R)")
        assert code == 2 and out == ""
        assert err == ("error: line 1, column 7: unknown identifier "
                       "'\u00b2'\n")

    @pytest.mark.parametrize("text,column", [
        ("(x+1)^3^3^3", 7), ("x^65", 3), ("x^-65", 3), ("2^2^2^2^2", 3)])
    def test_exponent_out_of_range(self, capsys, tmp_path, text, column):
        path = tmp_path / "tower.metric"
        path.write_text(f"dim 2\ncoords x y\ng[1][1] = {text}\n"
                        "g[2][2] = 1\n")
        code, out, err = run(capsys, "compute", str(path), "g")
        assert code == 2 and out == ""
        assert err == (f"error: {path}: line 3, column {10 + column}: "
                       "exponent must be from -64 to 64\n")

    def test_exponent_in_range(self, capsys, tmp_path):
        path = tmp_path / "power.metric"
        path.write_text("dim 2\ncoords x y\ng[1][1] = x^64\n"
                        "g[2][2] = x^-64*2^2^2^2\n")
        code, out, err = run(capsys, "compute", str(path), "g")
        assert code == 0 and err == ""
        assert out == "g[1][1] = x^64\ng[2][2] = 65536/x^64\n"

    def test_identity_exponent_out_of_range(self, capsys):
        code, out, err = run(capsys, "check", "vaidya", "R.R = r^99*Q(g,R)")
        assert code == 2 and out == ""
        assert err == "error: line 1, column 9: exponent must be from -64 to 64\n"

    @pytest.mark.parametrize("identity,column,message", [
        ("R.R = L*Q(g,R) S", 16, "unexpected trailing input 'S'"),
        ("R R = S", 3, "unexpected trailing input 'R'"),
        ("= R", 1, "expected an expression, found '='"),
        ("R.R = 2*(r + 1", 15, "expected ')', found 'end of input'"),
    ])
    def test_identity_error_column(self, capsys, identity, column, message):
        """Columns count from the start of the identity on both sides of
        its '='."""
        code, out, err = run(capsys, "check", "vaidya", identity)
        assert code == 2 and out == ""
        assert err == f"error: line 1, column {column}: {message}\n"


def test_closed_stdout_exits_quietly():
    """A reader that stops early (`| head`) ends the run with status 141
    and an empty stderr; the read end here is closed before any write."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, CURVKIT_CATALOG_DIR=str(CATALOG),
               PYTHONPATH=str(CATALOG.parent / "src"))
    try:
        p = subprocess.run(
            [sys.executable, "-m", "curvkit.cli", "compute", "vaidya",
             "dot:R.S"], stdout=write, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert p.returncode == 141
    assert p.stderr == b""


def _traced(tmp_path, *argvs):
    """Run each argv through cli.main under bench/tracing.py, in a process
    of its own since the tracer rebinds module globals; returns the
    stdout, the spans and the counters."""
    root = CATALOG.parent
    trace = tmp_path / "trace.jsonl"
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'bench')!r}, {str(root / 'src')!r}]\n"
        "import tracing\n"
        "from curvkit import cli\n"
        f"tr = tracing.Tracer({str(trace)!r})\n"
        "tracing.install(tr)\n"
        f"codes = [cli.main(argv) for argv in {list(argvs)!r}]\n"
        "tr.flush()\n"
        "print('codes', *codes)\n")
    env = dict(os.environ, CURVKIT_CATALOG_DIR=str(CATALOG))
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, cwd=tmp_path, timeout=120)
    assert p.returncode == 0, p.stderr
    *spans, last = map(json.loads, trace.read_text().splitlines())
    return p.stdout, spans, last["counts"]


def test_benchmark_tracer_still_wraps_every_name(tmp_path):
    """bench/tracing.py wraps curvkit functions by name for the per-layer
    benchmark; a renamed or deleted one makes install raise, and a call
    that bypasses the wrapped module global drops out of the trace."""
    out, spans, counts = _traced(
        tmp_path, ["compute", "vaidya", "R"], ["compute", "vaidya", "dot:R.R"],
        ["check", "vaidya", "R.R = L*Q(g,R)"])
    assert out.startswith("R[1][2][1][2] = ")
    assert out.endswith("\ncodes 0 0 1\n")
    assert counts["compute_calls"] > 0 and counts["entries_evaluated"] > 0
    assert counts["eval_lookups"] > 0
    assert {"operators.dot_action", "operators.tachibana",
            "operators.check_identity"} <= {s["name"] for s in spans}


def test_benchmark_tracer_sees_each_classify_product_once(tmp_path):
    """The bundle's memo calls the wrapped module globals, so a traced
    classify shows one span per distinct product: on Ricci-flat
    Schwarzschild C is R, and its five dot rows need R.R and R.S only."""
    out, spans, _ = _traced(tmp_path, ["classify", "schwarzschild"])
    assert out.endswith("\ncodes 0\n")
    names = collections.Counter(s["name"] for s in spans)
    assert names["operators.dot_action"] == 2
    assert names["operators.tachibana"] == 3
    assert names["operators.compatible_space"] == 2


# -- each verb loads only the modules it runs ---------------------------------

SRC = CATALOG.parent / "src"
ALL_MODULES = {"curvkit"} | {f"curvkit.{p.stem}" for p in
                             (SRC / "curvkit").glob("*.py")
                             if p.stem != "__init__"}


def _fresh(code: str, *argv: str) -> str:
    """Run code in a new interpreter with curvkit on its path and return
    its stdout."""
    env = dict(os.environ, CURVKIT_CATALOG_DIR=str(CATALOG),
               PYTHONPATH=str(SRC))
    p = subprocess.run([sys.executable, "-c", code, *argv],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


_LOADED = (
    "import contextlib, io, sys\n"
    "import curvkit.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        code = curvkit.cli.main(sys.argv[2:])\n"
    "    except SystemExit as e:\n"
    "        code = e.code\n"
    "tops = sys.argv[1].split(',')\n"
    "print(code, *sorted(m for m in sys.modules\n"
    "                    if m.split('.')[0] in tops))\n")


def _loaded(*argv: str, tops=("curvkit",)) -> tuple[int, set]:
    """Run the CLI on argv in a new interpreter; its exit code and the
    loaded modules whose top-level package is in tops."""
    code, *modules = _fresh(_LOADED, ",".join(tops), *argv).split()
    return int(code), set(modules)


@pytest.mark.parametrize("name", ["R", "nabla:S", "dot:R.R", "Q:g.R",
                                  "kappa", "ginv", "gamma"])
def test_compute_loads_no_decision_module(name):
    """Nor the dataclass machinery: curvkit's records are expr.Record."""
    code, modules = _loaded("compute", "vaidya", name,
                            tops=("curvkit", "dataclasses", "inspect"))
    assert code == 0
    assert "curvkit.tensor" in modules
    assert not modules & {"curvkit.operators", "curvkit.classify",
                          "dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [("catalog", "list"), ("compute", "vaidya"),
                                  ("frobnicate",)])
def test_catalog_and_usage_errors_load_only_the_cli(argv):
    code, modules = _loaded(*argv)
    assert code == (0 if argv[0] == "catalog" else 2)
    assert modules == {"curvkit", "curvkit.cli"}


def test_check_loads_no_classify():
    code, modules = _loaded("check", "vaidya", "C.C = L*Q(g,C)")
    assert code == 0
    assert "curvkit.operators" in modules
    assert "curvkit.classify" not in modules


@pytest.mark.parametrize("argv", [("classify", "sphere2"),
                                  ("compare", "sphere2", "minkowski")])
def test_classify_loads_every_module(argv):
    code, modules = _loaded(*argv)
    assert code == 0
    assert modules == ALL_MODULES | {"curvkit.cli"}


def test_package_names_resolve_to_their_defining_modules():
    """Every public name is the object of the module that defines it; a
    name outside __all__ raises at once and loads nothing."""
    out = _fresh(
        "import sys, types\n"
        "import curvkit\n"
        "try:\n"
        "    curvkit.operators\n"
        "except AttributeError:\n"
        "    print('no operators')\n"
        "print(*sorted(m for m in sys.modules if m.startswith('curvkit.')))\n"
        "home = {'ZERO': 'expr', 'ONE': 'expr', 'CONDITION_NAMES': 'classify'}\n"
        "names = [n for n in curvkit.__all__ if n != '__version__']\n"
        "for name in names:\n"
        "    obj = getattr(curvkit, name)\n"
        "    module = (obj.__module__\n"
        "              if isinstance(obj, (type, types.FunctionType))\n"
        "              else 'curvkit.' + home[name])\n"
        "    assert getattr(sys.modules[module], name) is obj, name\n"
        "print('checked', len(names))\n")
    assert out.splitlines() == ["no operators", "", "checked 40"]


@pytest.mark.parametrize("argv", [("classify", "sphere2"),
                                  ("compare", "sphere2", "minkowski")])
def test_classify_stays_the_function_after_a_verb(argv):
    out = _fresh(
        "import contextlib, io, sys\n"
        "import curvkit, curvkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    curvkit.cli.main(sys.argv[1:])\n"
        "print(curvkit.classify is sys.modules['curvkit.classify'].classify)\n",
        *argv)
    assert out == "True\n"


def test_submodule_imported_first_holds_the_name_until_a_public_access():
    """Importing the submodule curvkit.classify before any public name is
    read binds the package's `classify` to the submodule; the first public
    access binds every public name, and `classify` becomes the function."""
    out = _fresh(
        "import types\n"
        "import curvkit.classify\n"
        "print(isinstance(curvkit.classify, types.ModuleType))\n"
        "curvkit.CurvatureBundle\n"
        "print(isinstance(curvkit.classify, types.FunctionType))\n")
    assert out == "True\nTrue\n"


# -- no input ends in a traceback ---------------------------------------------

def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line_or_success(code, out, err, ok_codes):
    if code in ok_codes:
        assert err == ""
    else:
        assert code in (2, 3), (code, err)
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), err


METRIC_PIECES = ["g", "[", "]", "1", "2", "3", "0", "=", "x", "y", "a",
                 "h(x)", "h", "(", ")", ",", "'", "*", "/", "+", "-", "^", ".",
                 "#", "dim", "coords", "function", "constant", "metric", "sin",
                 "diff", " ", "\t", "\u00b2", "\u0662", "\u00e9", "$", "@", ";"]
BASE_METRIC = ["metric demo", "dim 2", "coords x y", "constant a",
               "function h(x)", "g[1][1] = h(x)^2", "g[2][2] = a^2"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pieces=st.lists(st.sampled_from(METRIC_PIECES), max_size=12),
       where=st.integers(0, len(BASE_METRIC)),
       encoding=st.sampled_from(["utf-8", "utf-16"]))
def test_metric_file_lines_exit_0_or_one_error_line(pieces, where, encoding):
    lines = list(BASE_METRIC)
    lines.insert(where, "".join(pieces))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.metric"
        path.write_bytes("\n".join(lines).encode(encoding))
        code, out, err = _main_quietly(["compute", str(path), "g"])
    _assert_one_error_line_or_success(code, out, err, (0,))


IDENTITY_PIECES = [
    "R", "S", "C", "P", "W", "K", "G", "g", "T", "Q", "wedge", "nabla",
    "bogus", "(", ")", ",", ".", "=", "+", "-", "*", "/", "^", "0", "2", "L",
    "L1",
    "theta", "a", "sin(theta)", " ", "\u00b2", "$"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sides=st.lists(st.lists(st.sampled_from(IDENTITY_PIECES), max_size=6),
                      min_size=2, max_size=2))
def test_identity_token_strings_exit_0_1_or_one_error_line(sides):
    identity = " = ".join(" ".join(side) for side in sides)
    code, out, err = _main_quietly(["check", "sphere2", identity])
    _assert_one_error_line_or_success(code, out, err, (0, 1))


# -- README examples ----------------------------------------------------------

def _quick_start_examples():
    text = (CATALOG.parent / "README.md").read_text()
    block = text.split("## Quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ curvkit "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


@pytest.mark.parametrize("command,expected", _quick_start_examples(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_readme_quick_start(capsys, monkeypatch, command, expected):
    """Each `$ curvkit ...` line of README "Quick start" prints the lines
    shown under it (the first N of them after `| head -N`)."""
    monkeypatch.setenv("CURVKIT_CATALOG_DIR", str(CATALOG))
    command, _, head = command.partition(" | head -")
    argv = shlex.split(command)[1:]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    lines = out.splitlines()
    assert (lines[:int(head)] if head else lines) == expected
