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
collect what poly_gcd hands to expr._coprime_at_point, to
packed_gcd.divisor_gcd and to packed_gcd.gcd, then times each kernel on
its own inputs:

    PYTHONPATH=src python3 tests/gcd_replay.py [--repeats N]

It prints the call count, how many calls each stage of poly_gcd settles,
each kernel's best time over N replays, and the digest, which must equal
the recorded one.
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


# poly_gcd's stages in the order it tries them, by the kernel that settles
# a call (none for a zero or single-term part); a call past the budget of
# packed_gcd.gcd counts as "overrun"
STAGES = {None: "zero or monomial", "_coprime_at_point": "certificate",
          "_proportional_gcd": "proportional", "divisor_gcd": "divisor step",
          "gcd": "budgeted kernel"}


def kernel_inputs(calls) -> tuple[list, dict, dict]:
    """poly_gcd's results on the recorded inputs, the inputs it hands to
    each kernel (by name), and how many calls each stage settles."""
    from curvkit import expr, packed_gcd
    kernels = {"_coprime_at_point": expr, "_proportional_gcd": expr,
               "divisor_gcd": packed_gcd, "gcd": packed_gcd}
    saved = {name: getattr(module, name) for name, module in kernels.items()}
    seen = {name: [] for name in kernels}
    ran = []   # the kernels the current call reached

    def capture(name):
        fn = saved[name]

        def spy(a, b):
            seen[name].append((a, b))
            ran.append(name)
            return fn(a, b)
        return spy

    for name, module in kernels.items():
        setattr(module, name, capture(name))
    settled = dict.fromkeys([*STAGES.values(), "overrun"], 0)
    results = []
    try:
        for (a, b), _ in calls:
            ran.clear()
            results.append(expr.poly_gcd(a, b))
            stage = STAGES[ran[-1] if ran else None]
            if stage == "budgeted kernel" and packed_gcd._gcd_budget_left < 0:
                stage = "overrun"
            settled[stage] += 1
    finally:
        for name, module in kernels.items():
            setattr(module, name, saved[name])
    return results, seen, settled


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
    results, inputs, stages = kernel_inputs(calls)
    replayed = digest(results)
    print(f"poly_gcd calls: {len(calls)}")
    for stage, n in stages.items():
        print(f"  settled by {stage}: {n}")
    for label, module, name in (
            ("_coprime_at_point", expr, "_coprime_at_point"),
            ("packed_gcd.divisor_gcd", packed_gcd, "divisor_gcd"),
            ("packed_gcd.gcd", packed_gcd, "gcd")):
        t = best_time(getattr(module, name), inputs[name], args.repeats)
        print(f"{label}: {len(inputs[name])} calls, {t:.4f} s "
              f"(best of {args.repeats})")
    print(f"sha256: {replayed}")
    if replayed != recorded:
        print(f"replay differs from the recording: {recorded}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
