"""The recorded outputs of the benchmark, checked in tier-1.

Every solve-stress operation runs through bench/ops.py (set-up, run_op,
render) and its text is compared byte for byte with
bench/expected/solve-stress.json, and every classify, compare and check
operation of catalog-cli runs through the CLI in process and is compared
with bench/expected/catalog-cli.json, so that a changed witness fails here
before it fails the benchmark's output check. The tests only read those
files; the one operation recorded as null (unverified) is skipped."""
import importlib.util
import pathlib

import pytest

from curvkit.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_ops():
    spec = importlib.util.spec_from_file_location("bench_ops",
                                                  BENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ops = _bench_ops()
EXPECTED = ops.load_expected("solve-stress")
OPS = ops.full_pool("solve-stress")


@pytest.fixture(scope="module")
def bundles():
    return ops.setup("solve-stress")


def test_every_operation_is_recorded():
    assert sorted(map(ops.key, OPS)) == sorted(EXPECTED)


@pytest.mark.parametrize("op", OPS, ids=ops.key)
def test_output_is_recorded_bytes(bundles, op):
    want = EXPECTED[ops.key(op)]
    if want is None:
        pytest.skip("recorded as null: unverified")
    assert ops.render(op, ops.run_op(bundles, op)) == want


CATALOG_EXPECTED = ops.load_expected("catalog-cli")
CATALOG_KEYS = sorted(k for k in CATALOG_EXPECTED
                      if k.split(" | ")[0] in ("classify", "compare", "check"))


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_catalog_output_is_recorded_bytes(capsys, monkeypatch, key):
    """The exit code and stdout of one catalog-cli operation, as the
    benchmark records them."""
    monkeypatch.setenv("CURVKIT_CATALOG_DIR", str(ops.CATALOG))
    code = main(key.split(" | "))
    assert f"exit={code}\n" + capsys.readouterr().out == \
        CATALOG_EXPECTED[key]
