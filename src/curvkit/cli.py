"""Command-line front end.

Verbs: compute (tensor dumps), check (identity verdicts with witnesses),
classify (structure report), compare (side-by-side reports), catalog list.

Exit codes: 0 success / identity holds, 1 identity fails, 2 input error,
3 degenerate metric.

Each verb imports the modules it runs, so `catalog list` and a usage
error load no curvkit module besides this one.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
# stdout closed early (`| head`): the status a shell gives a program that
# SIGPIPE ends, 128 + 13
EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def default_catalog_dir() -> Path:
    env = os.environ.get("CURVKIT_CATALOG_DIR")
    if env:
        return Path(env)
    local = Path.cwd() / "catalog"
    if local.is_dir():
        return local
    return Path(__file__).resolve().parents[2] / "catalog"


def resolve_metric_path(arg: str) -> Path:
    p = Path(arg)
    if p.is_file():
        return p
    name = arg if arg.endswith(".metric") else arg + ".metric"
    candidate = default_catalog_dir() / name
    if candidate.is_file():
        return candidate
    raise CliError(f"metric not found: {arg}")


def load_bundle(arg: str) -> CurvatureBundle:
    from .curvature import CurvatureBundle
    from .expr import ExprError
    from .parsing import DegenerateMetricError, parse_metric_file
    path = resolve_metric_path(arg)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}")
    try:
        spec = parse_metric_file(text)
    except DegenerateMetricError as e:
        raise CliError(str(e), EXIT_DEGENERATE)
    except ExprError as e:
        raise CliError(f"{path}: {e}")
    return CurvatureBundle(spec)


def _brackets(component) -> str:
    return "".join(f"[{i + 1}]" for i in component)


# -- compute ----------------------------------------------------------------

def _parse_compute_name(name: str):
    """Map a compute argument to a display name and a tensor AST node."""
    from .parsing import (TENSOR_VALENCE, TDot, TName, TNabla, TQ,
                          tensor_ast_str)
    if name.startswith("nabla:"):
        if name[6:] not in TENSOR_VALENCE:
            raise CliError(f"unknown tensor in {name!r}")
        node = TNabla(TName(name[6:]))
    elif name.startswith(("dot:", "Q:")):
        op, _, operands = name.partition(":")
        parts = operands.split(".")
        if len(parts) != 2 or not all(p in TENSOR_VALENCE for p in parts):
            raise CliError(f"malformed {op} operand {name!r}")
        node = (TDot if op == "dot" else TQ)(TName(parts[0]), TName(parts[1]))
    elif name in TENSOR_VALENCE:
        node = TName(name)
    else:
        raise CliError(f"unknown tensor name {name!r}")
    return tensor_ast_str(node), node


def cmd_compute(args) -> int:
    from .curvature import evaluate_tensor_ast
    from .expr import ExprError, format_expression
    from .tensor import D_SYM2, Descriptor, Tensor, format_dump
    bundle = load_bundle(args.metric)
    fmt = args.dump_format
    if args.name == "kappa":
        if fmt == "text":
            out = f"kappa = {format_expression(bundle.kappa)}"
        else:
            import json
            out = json.dumps({"scalar": "kappa",
                              "value": format_expression(bundle.kappa)},
                             separators=(",", ":"))
    elif args.name == "ginv":
        ginv = Tensor.compute(bundle.chart, 2, D_SYM2,
                              lambda ij: bundle.metric.upper(*ij))
        out = format_dump("ginv", ginv, fmt)
    elif args.name == "gamma":
        conn = bundle.connection
        gamma = Tensor.compute(bundle.chart, 3, Descriptor((("sym", 1, 2),)),
                               lambda lij: conn[lij])
        out = format_dump("gamma", gamma, fmt)
    else:
        display, node = _parse_compute_name(args.name)
        try:
            tensor = evaluate_tensor_ast(node, bundle, bundle.memo)
        except ExprError as e:
            raise CliError(str(e))
        out = format_dump(display, tensor, fmt)
    if args.output:
        try:
            Path(args.output).write_text(out + ("\n" if out else ""))
        except OSError as e:
            raise CliError(f"cannot write {args.output}: {e.strerror}")
    elif out:
        print(out)
    return EXIT_HOLDS


# -- check ------------------------------------------------------------------

def cmd_check(args) -> int:
    from .expr import ExprError, format_expression
    from .operators import check_identity
    from .parsing import parse_identity
    bundle = load_bundle(args.metric)
    try:
        ast = parse_identity(args.identity, bundle.chart)
        result = check_identity(ast, bundle)
    except ExprError as e:
        raise CliError(str(e))
    print(f"identity: {args.identity}")
    if result.holds:
        print("verdict: holds")
        for u in sorted(result.solved or ()):
            print(f"{u} = {format_expression(result.solved[u])}")
        if result.free:
            print(f"free: {', '.join(result.free)}")
        return EXIT_HOLDS
    print("verdict: fails")
    w = result.witness
    if w is not None:
        if w.kind == "ratio":
            print(f"witness: component {_brackets(w.anchor_component)} "
                  f"requires {w.unknown} = {format_expression(w.anchor_value)}")
            print(f"witness: component {_brackets(w.component)} "
                  f"requires {w.unknown} = {format_expression(w.value)}")
        else:
            print(f"witness: component {_brackets(w.component)} = "
                  f"{format_expression(w.value)}")
    return EXIT_FAILS


# -- classify / compare / catalog -------------------------------------------

# classify and compare read both functions from the package.  Reading
# compare_reports binds every public name, so `classify` is the function
# even where the submodule curvkit.classify was imported first and bound
# that name to itself (bench/tracing.py does).

def cmd_classify(args) -> int:
    from . import classify, compare_reports
    bundle = load_bundle(args.metric)
    sys.stdout.write(classify(bundle).render())
    return EXIT_HOLDS


def cmd_compare(args) -> int:
    from . import classify, compare_reports
    left = classify(load_bundle(args.metric1))
    right = classify(load_bundle(args.metric2))
    sys.stdout.write(compare_reports(left, right))
    return EXIT_HOLDS


def cmd_catalog(args) -> int:
    directory = default_catalog_dir()
    if not directory.is_dir():
        raise CliError(f"catalog directory not found: {directory}")
    for path in sorted(directory.glob("*.metric")):
        print(path.stem)
    return EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvkit",
        description="symbolic curvature workbench for coordinate metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="dump a tensor, scalar or connection")
    p.add_argument("metric", help="metric file path or catalog name")
    p.add_argument("name", help="g, ginv, gamma, kappa, R, S, C, P, W, K, G, "
                                "T, nabla:<T>, dot:<A>.<B>, Q:<A>.<B>")
    p.add_argument("-o", "--output", help="write the dump to a file")
    p.add_argument("--dump-format", choices=("text", "json-lines"),
                   default="text")
    p.set_defaults(run=cmd_compute)

    p = sub.add_parser("check", help="decide a tensor identity")
    p.add_argument("metric")
    p.add_argument("identity", help='e.g. "C.C = L*Q(g,C)"')
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("classify", help="full structure report")
    p.add_argument("metric")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("compare", help="side-by-side structure reports")
    p.add_argument("metric1")
    p.add_argument("metric2")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("list",))
    p.set_defaults(run=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
