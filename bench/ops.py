"""The operations of the three benchmark workloads, their set-up, and the
text each operation's output is checked by.

An operation is a tuple whose first item names its kind:

    ("cli", argv...)                  one `python -m curvkit.cli` process
    ("curv", metric, step, copy)      force one step of a fresh bundle's chain
    ("solve", metric, name, arg)      one decision procedure on a set-up bundle

`key(op)` is the operation's name in the expected-output files.
"""
from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CATALOG = ROOT / "catalog"
METRICS = Path(__file__).resolve().parent / "metrics"
EXPECTED = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("catalog-cli", "curvature-stress", "solve-stress")

# Per-operation wall cap in seconds. Each is at least 1.7x the slowest
# operation of its workload that finishes, so that a slow spell of the
# machine does not turn a decided operation into a timeout; the known hang
# of solve-stress (compatible_space of the 5-D projective tensor) is cut
# at its cap.
CAPS = {"catalog-cli": 30.0, "curvature-stress": 60.0, "solve-stress": 13.0}

# -- catalog-cli --------------------------------------------------------------

CATALOG_METRICS = ("vaidya", "schwarzschild", "ludwig-edgar", "minkowski",
                   "sphere2")
COMPUTE_NAMES = ("g", "ginv", "gamma", "kappa", "R", "S", "C", "P", "W", "K",
                 "G", "T", "nabla:S", "dot:R.R", "Q:g.R")
# README identities; the first three solve for an unknown L
CHECK_IDENTITIES = ("R.R = L*Q(g,R)", "C.C = L*Q(g,C)",
                    "R.R - Q(S,R) = L*Q(g,C)", "nabla S = 0",
                    "G = (1/2)*wedge(g,g)", "R.R = 0")
VAIDYA_IDENTITY = "R.C + C.R = (2*m(u)/r^3)*Q(g,C) + Q(S,C)"
COMPARE_PAIRS = (("vaidya", "ludwig-edgar"), ("vaidya", "schwarzschild"),
                 ("schwarzschild", "ludwig-edgar"), ("minkowski", "sphere2"))
# one pass: classify on every metric, each compare pair and `catalog list`
# once, then compute and check operations drawn from their pools. A pass
# takes 8-16 s, so a 55 s run holds three to six and wall_s is their
# median. The heavy block is fixed, so that the 90th percentile falls among
# the copies of one compare operation, the third longest, whatever the seed
# draws. The compute processes (about 0.15 s at the reference speed) are
# more than half of the pass, so that the median falls among them; with
# ten of 25 it fell on the lightest check the seed drew (0.1-0.36 s).
N_COMPUTE = 16
N_CHECK = 4


def _needs_dim3(text: str) -> bool:
    return "C" in text or "K" in text


def compute_pool() -> list:
    return [("cli", "compute", m, name, "--dump-format", fmt)
            for m in CATALOG_METRICS for name in COMPUTE_NAMES
            for fmt in ("text", "json-lines")
            if not (m == "sphere2" and _needs_dim3(name))]


def check_pool() -> list:
    pool = [("cli", "check", m, ident) for m in CATALOG_METRICS
            for ident in CHECK_IDENTITIES
            if not (m == "sphere2" and _needs_dim3(ident))]
    return pool + [("cli", "check", "vaidya", VAIDYA_IDENTITY)]


def heavy_block() -> list:
    return ([("cli", "classify", m) for m in CATALOG_METRICS]
            + [("cli", "compare", a, b) for a, b in COMPARE_PAIRS]
            + [("cli", "catalog", "list")])


# -- curvature-stress ---------------------------------------------------------

CURV_METRICS = ("taub-nut", "frw", "warped5", "ludwig-edgar")
# fresh bundles per metric in one pass: Taub-NUT's chain (about 3.5 s, most
# of it in poly_gcd) runs twice and the chains that take well under a
# second four times, so that a pass takes about 10 s and the per-operation
# percentiles rest on many samples spread over the run
CURV_COPIES = {"taub-nut": 2, "frw": 4, "warped5": 4, "ludwig-edgar": 4}
# the steps of one chain, in the order they are forced
CURV_STEPS = ("gamma", "R", "S", "kappa", "C", "P", "W", "K", "G", "T",
              "nabla:S", "nabla:C")
# the benchmark process forces one chain of these after set-up, so that the
# forks the chains run in do not pay for curvkit's one-time index tables
CURV_WARMUP = ("frw", "warped5")

# -- solve-stress -------------------------------------------------------------

SOLVE_METRICS = ("warped5", "frw")
# FRW's operations are small (0.2 s at most) and run ten times each, so
# that the 16 operations on the 5-D metric are under a tenth of the pass:
# the median and the 90th percentile both fall among many copies of the
# same FRW operations, spread over the run, instead of on one or two
# single operations
SOLVE_COPIES = {"warped5": 1, "frw": 10}
# classify's pseudosymmetry formulas with an unknown L
PSEUDO_FORMULAS = ("R.R = L*Q(g,R)", "R.C = L*Q(g,C)", "R.S = L*Q(g,S)",
                   "C.C = L*Q(g,C)", "R.R = L*Q(S,R)",
                   "R.R - Q(S,R) = L*Q(g,C)",
                   "R.C + C.R = L*Q(g,C) + Q(S,C)")
# compatible_space(K) is left out: its system has the shape of C's (K and
# C differ by a multiple of G) and costs 5-6 s a pass on the 5-D metric
SOLVE_CALLS = (("ricci_decompose", ""), ("two_form_recurrence", "R"),
               ("two_form_recurrence", "C"), ("one_form_recurrence", "S"),
               ("recurrent_tensor", "C"), ("compatible_space", "R"),
               ("compatible_space", "C"), ("compatible_space", "P"),
               ("weakly_ricci_symmetric", ""))
# tensors every solve operation reads, built during set-up
SOLVE_PREREQS = ("g", "R", "S", "C", "P")
SOLVE_NABLAS = ("R", "S", "C")


def full_pool(workload: str) -> list:
    """Every operation a pass of the workload can contain."""
    if workload == "catalog-cli":
        return compute_pool() + check_pool() + heavy_block()
    if workload == "curvature-stress":
        return [("curv", m, step, 0) for m in CURV_METRICS
                for step in CURV_STEPS]
    return [("solve", m, name, arg) for m in SOLVE_METRICS
            for name, arg in (SOLVE_CALLS
                              + tuple(("check_identity", f)
                                      for f in PSEUDO_FORMULAS))]


def build_pass(workload: str, seed: int) -> list:
    """The operations of one pass, in the order the seed gives them."""
    rng = random.Random(seed)
    if workload == "catalog-cli":
        ops = (rng.sample(compute_pool(), N_COMPUTE)
               + rng.sample(check_pool(), N_CHECK) + heavy_block())
        rng.shuffle(ops)
        return ops
    if workload == "curvature-stress":
        chains = [(m, c) for m in CURV_METRICS for c in range(CURV_COPIES[m])]
        rng.shuffle(chains)
        return [("curv", m, s, c) for m, c in chains for s in CURV_STEPS]
    ops = [op for op in full_pool(workload)
           for _ in range(SOLVE_COPIES[op[1]])]
    rng.shuffle(ops)
    return ops


def groups(workload: str, ops: list) -> list:
    """The pass cut into the runs of operations that share one worker: a
    chain on curvature-stress, a single operation otherwise. Each group
    starts from the set-up state, so what one group computes cannot speed
    up another, whatever order the seed gives."""
    out = []
    for op in ops:
        if (workload == "curvature-stress" and out
                and (out[-1][-1][1], out[-1][-1][3]) == (op[1], op[3])):
            out[-1].append(op)
        else:
            out.append([op])
    return out


def key(op) -> str:
    if op[0] == "cli":
        return " | ".join(op[1:])
    if op[0] == "curv":
        return " | ".join(op[:3])
    return " | ".join(filter(None, op))


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED / f"{workload}.json").read_text())


# -- set-up -------------------------------------------------------------------

def metric_path(name: str) -> Path:
    local = METRICS / f"{name}.metric"
    return local if local.is_file() else CATALOG / f"{name}.metric"


def setup(workload: str) -> dict:
    """Import curvkit, parse the workload's metric files and construct their
    bundles; solve-stress also builds the tensors its operations read. This
    is what setup_s times.
    Returns {(metric name, copy): CurvatureBundle}."""
    import curvkit
    copies = {"catalog-cli": dict.fromkeys(CATALOG_METRICS, 1),
              "curvature-stress": CURV_COPIES,
              "solve-stress": dict.fromkeys(SOLVE_METRICS, 1)}[workload]
    bundles = {(m, c): curvkit.CurvatureBundle(
        curvkit.parse_metric_file(metric_path(m).read_text()))
        for m, n in copies.items() for c in range(n)}
    if workload == "solve-stress":
        for b in bundles.values():
            b.kappa
            for t in SOLVE_PREREQS:
                b.tensor(t)
            for t in SOLVE_NABLAS:
                b.nabla(t)
    return bundles


def warm_up(workload: str) -> None:
    """Force curvature-stress's throwaway chains in the set-up process,
    outside setup_s, so that no measured chain builds the index tables."""
    if workload != "curvature-stress":
        return
    import curvkit
    for m in CURV_WARMUP:
        warm = {(m, 0): curvkit.CurvatureBundle(
            curvkit.parse_metric_file(metric_path(m).read_text()))}
        for step in CURV_STEPS:
            run_op(warm, ("curv", m, step, 0))


def timed_setup(workload: str) -> float:
    t0 = time.perf_counter()
    setup(workload)
    return time.perf_counter() - t0


# -- in-process operations ----------------------------------------------------

def run_op(bundles: dict, op):
    """Run one in-process operation; returns its raw result."""
    from curvkit import operators, parsing
    if op[0] == "curv":
        _, m, step, copy = op
        b = bundles[m, copy]
        if step == "gamma":
            return b.connection
        if step == "kappa":
            return b.kappa
        if step.startswith("nabla:"):
            return b.nabla(step[6:])
        return b.tensor(step)
    _, m, name, arg = op
    b = bundles[m, 0]
    if name == "check_identity":
        return operators.check_identity(
            parsing.parse_identity(arg, b.chart), b)
    if name == "compatible_space":
        return operators.compatible_space(b.tensor(arg), b.metric)
    fn = getattr(operators, name)
    return fn(b, arg) if arg else fn(b)


def render(op, result) -> str:
    """The text an in-process operation's output is checked by: the
    component dump for tensors, the field-by-field verdict otherwise."""
    from curvkit.expr import Expression, format_expression
    from curvkit.tensor import Connection, Tensor, format_dump
    if isinstance(result, Tensor):
        return format_dump(op[2], result)
    if isinstance(result, Expression):
        return format_expression(result)
    if isinstance(result, Connection):
        n = len(result.gamma)
        return "\n".join(
            f"gamma[{l + 1}][{i + 1}][{j + 1}] = "
            f"{format_expression(result.gamma[l][i][j])}"
            for l in range(n) for i in range(n) for j in range(i, n)
            if not result.gamma[l][i][j].is_zero)

    def value(v) -> str:
        if isinstance(v, Expression):
            return format_expression(v)
        if isinstance(v, (tuple, list)):
            return "(" + ", ".join(value(x) for x in v) + ")"
        if isinstance(v, dict):
            return "{" + ", ".join(f"{k}: {value(v[k])}"
                                   for k in sorted(v)) + "}"
        if dataclasses.is_dataclass(v):
            return type(v).__name__ + "(" + ", ".join(
                f"{f.name}={value(getattr(v, f.name))}"
                for f in dataclasses.fields(v)) + ")"
        return str(v)

    return "\n".join(f"{f.name}: {value(getattr(result, f.name))}"
                     for f in dataclasses.fields(result))
