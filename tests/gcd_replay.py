"""The top-level expr.poly_gcd calls of one solve-stress pass, recorded and
replayed against the two kernels of the gcd layer.

record() sets up the solve-stress bundles through bench/ops.py, which it
only reads, and runs and renders every operation of the workload's pool
once, in pool order, in this process, with a spy on expr.poly_gcd.  Since
packed_gcd never calls poly_gcd, every call the spy sees is a top-level
one.  digest() hashes what the calls returned: each cofactor's terms in
order and the gcd's terms sorted, so two versions of the layer that do the
same work on the same inputs hash alike.

Run as a script, it replays the recorded inputs through poly_gcd once to
collect what poly_gcd hands to expr._coprime_at_point and to
packed_gcd.gcd, then times each kernel on its own inputs:

    PYTHONPATH=src python3 tests/gcd_replay.py [--repeats N]

It prints the call counts, each kernel's best time over N replays, and the
digest, which must equal the recorded one.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import pathlib
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_ops():
    spec = importlib.util.spec_from_file_location("bench_ops",
                                                  BENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record() -> list:
    """[((a, b), (g, a/g, b/g))] for each top-level poly_gcd call of the
    solve-stress operations, in call order."""
    from curvkit import expr
    ops = bench_ops()
    bundles = ops.setup("solve-stress")
    calls = []
    gcd = expr.poly_gcd

    def spy(a, b):
        out = gcd(a, b)
        calls.append(((a, b), out))
        return out

    expr.poly_gcd = spy
    try:
        for op in ops.full_pool("solve-stress"):
            ops.render(op, ops.run_op(bundles, op))
    finally:
        expr.poly_gcd = gcd
    return calls


def _terms(p) -> tuple:
    return tuple((tuple((a.key, e) for a, e in mono), str(c))
                 for mono, c in p.terms.items())


def digest(results) -> str:
    """sha256 over each (g, a/g, b/g): g's terms sorted, the cofactors'
    terms in order."""
    h = hashlib.sha256()
    for g, qa, qb in results:
        h.update(repr((sorted(_terms(g)), _terms(qa), _terms(qb))).encode())
        h.update(b"\n")
    return h.hexdigest()


def kernel_inputs(calls) -> tuple[list, list, list]:
    """poly_gcd's results on the recorded inputs, and the inputs it hands
    to _coprime_at_point and to packed_gcd.gcd."""
    from curvkit import expr, packed_gcd
    coprime, gcd = expr._coprime_at_point, packed_gcd.gcd
    seen = {coprime: [], gcd: []}

    def capture(fn):
        def spy(a, b):
            seen[fn].append((a, b))
            return fn(a, b)
        return spy

    expr._coprime_at_point, packed_gcd.gcd = capture(coprime), capture(gcd)
    try:
        results = [expr.poly_gcd(a, b) for (a, b), _ in calls]
    finally:
        expr._coprime_at_point, packed_gcd.gcd = coprime, gcd
    return results, seen[coprime], seen[gcd]


def best_time(fn, inputs, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in inputs:
            fn(a, b)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    from curvkit import expr, packed_gcd
    calls = record()
    recorded = digest(out for _, out in calls)
    results, coprime_in, gcd_in = kernel_inputs(calls)
    replayed = digest(results)
    print(f"poly_gcd calls: {len(calls)}")
    for name, fn, inputs in (("_coprime_at_point", expr._coprime_at_point,
                              coprime_in),
                             ("packed_gcd.gcd", packed_gcd.gcd, gcd_in)):
        t = best_time(fn, inputs, args.repeats)
        print(f"{name}: {len(inputs)} calls, {t:.4f} s "
              f"(best of {args.repeats})")
    print(f"sha256: {replayed}")
    if replayed != recorded:
        print(f"replay differs from the recording: {recorded}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
