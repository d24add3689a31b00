"""Per-layer tracing of curvkit from outside its source.

`install(tracer)` wraps public functions of curvkit's modules and rebinds
each wrapped name in every curvkit module that imported it. Layer-level
functions record spans (name, start, end, parent); hot inner functions
(`Descriptor.canon`, `Tensor.compute`, `poly_gcd`, the evaluation cache)
only bump counters, since a span per call would cost more than the call.
Spans stay in memory until `flush()` appends them, with the counters, to a
JSON-lines file. `summarize()` turns such a file into the per-layer metrics.

Run as a script it is a traced stand-in for `python -m curvkit.cli`:

    python3 bench/tracing.py TRACE_FILE compute vaidya S

Counting gcd-budget fallbacks and timing single classify rows need spans
inside curvkit itself, so they are not measured here.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COUNTERS = ("canon_calls", "compute_calls", "entries_evaluated",
            "nonzero_stored", "eval_lookups", "eval_hits", "equations",
            "unknowns", "rank", "gcd_calls", "gcd_s", "max_terms")


class Tracer:
    def __init__(self, path):
        self.path = path
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.extra = {}

    def begin(self, name: str):
        sid = self.next_id
        self.next_id += 1
        token = (sid, self.stack[-1], name, time.perf_counter())
        self.stack.append(sid)
        return token

    def end(self, token):
        self.stack.pop()
        self.spans.append(token + (time.perf_counter(),))

    def note_terms(self, obj):
        n = _max_terms(obj)
        if n > self.counts["max_terms"]:
            self.counts["max_terms"] = n

    def flush(self):
        pid = os.getpid()
        with open(self.path, "a") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"pid": pid, "id": sid, "parent": parent,
                                    "name": name, "start": start,
                                    "end": end}) + "\n")
            f.write(json.dumps({"pid": pid, "counts": self.counts,
                                **self.extra}) + "\n")
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.extra = {}


def _max_terms(obj) -> int:
    from curvkit.expr import Expression
    from curvkit.tensor import Connection, Tensor
    if isinstance(obj, Expression):
        return len(obj.num.terms) + len(obj.den.terms)
    if isinstance(obj, Tensor):
        return _max_terms(tuple(obj.comps.values()))
    if isinstance(obj, Connection):
        return _max_terms(obj.gamma)
    if isinstance(obj, dict):
        return _max_terms(tuple(obj.values()))
    if isinstance(obj, (tuple, list)):
        return max(map(_max_terms, obj), default=0)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _max_terms(tuple(getattr(obj, f.name)
                                for f in dataclasses.fields(obj)))
    return 0


def _rebind(orig, new):
    """Point every curvkit module attribute that is `orig` at `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "curvkit"
                               or name.startswith("curvkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tr: Tracer):
    # `from curvkit import classify` would give the function of that name
    classify, curvature, expr, linsolve, operators, parsing, tensor = (
        importlib.import_module(f"curvkit.{m}") for m in (
            "classify", "curvature", "expr", "linsolve", "operators",
            "parsing", "tensor"))

    def spanned(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tr.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end(token)
            tr.note_terms(result)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    for module, attr, name in (
            (parsing, "parse_metric_file", "parsing.parse_metric"),
            (parsing, "parse_identity", "parsing.parse_identity"),
            (tensor, "covariant_derivative", "tensor.covariant_derivative"),
            (tensor, "divergence_first", "tensor.divergence"),
            (tensor, "kulkarni_nomizu", "tensor.kulkarni_nomizu"),
            (curvature, "christoffel", "curvature.christoffel"),
            (curvature, "riemann", "curvature.riemann"),
            (curvature, "ricci", "curvature.ricci"),
            (operators, "dot_action", "operators.dot_action"),
            (operators, "tachibana", "operators.tachibana"),
            (operators, "check_identity", "operators.check_identity"),
            (operators, "ricci_decompose", "operators.ricci_decompose"),
            (operators, "compatible_space", "operators.compatible_space"),
            (operators, "two_form_recurrence", "operators.recurrence"),
            (operators, "one_form_recurrence", "operators.recurrence"),
            (operators, "recurrent_tensor", "operators.recurrence"),
            (operators, "weakly_ricci_symmetric", "operators.weakly_ricci"),
            (classify, "classify", "classify.classify"),
            (classify, "compare_reports", "classify.compare")):
        orig = getattr(module, attr)
        _rebind(orig, spanned(name, orig))

    def solved(args, result):
        tr.counts["equations"] += len(args[0])
        tr.counts["unknowns"] += len(result.unknowns)
        tr.counts["rank"] += len(result.pivot_labels)

    orig_solve = linsolve.solve_linear
    solve_span = spanned("linsolve.solve", orig_solve, solved)
    _rebind(orig_solve, lambda equations, unknowns:
            solve_span(list(equations), unknowns))

    metric_init = tensor.Metric.__init__
    tensor.Metric.__init__ = spanned("tensor.metric_init", metric_init)

    for attr in ("kappa", "gaussian", "projective", "conharmonic",
                 "concircular", "weyl", "energy_momentum"):
        prop = vars(curvature.CurvatureBundle)[attr]
        prop.func = spanned("curvature.derived", prop.func)

    orig_canon = tensor.Descriptor.canon

    def canon(self, idx):
        tr.counts["canon_calls"] += 1
        return orig_canon(self, idx)

    tensor.Descriptor.canon = canon

    def counted_builder(orig):
        def build(chart, valence, descriptor, getter, *rest, **kw):
            n = 0

            def counted(idx):
                nonlocal n
                n += 1
                return getter(idx)

            t = orig(chart, valence, descriptor, counted, *rest, **kw)
            tr.counts["compute_calls"] += 1
            tr.counts["entries_evaluated"] += n
            tr.counts["nonzero_stored"] += len(t.comps)
            return t
        return staticmethod(build)

    tensor.Tensor.compute = counted_builder(tensor.Tensor.compute)
    tensor.Tensor.from_dense = counted_builder(tensor.Tensor.from_dense)

    orig_eval = operators.evaluate_tensor_ast

    def evaluate(node, bundle, cache):
        tr.counts["eval_lookups"] += 1
        if node in cache:
            tr.counts["eval_hits"] += 1
        return orig_eval(node, bundle, cache)

    _rebind(orig_eval, evaluate)

    orig_gcd = expr.poly_gcd
    depth = 0

    def poly_gcd(a, b):
        nonlocal depth
        tr.counts["gcd_calls"] += 1
        if depth:
            return orig_gcd(a, b)
        depth = 1
        t0 = time.perf_counter()
        try:
            return orig_gcd(a, b)
        finally:
            tr.counts["gcd_s"] += time.perf_counter() - t0
            depth = 0

    _rebind(orig_gcd, poly_gcd)


# -- summary ------------------------------------------------------------------

# per-layer metric -> (unit, better)
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "parsing.parse_metric_s": ("s", "lower"),
    "parsing.parse_metric_calls": ("count", "lower"),
    "parsing.parse_identity_s": ("s", "lower"),
    "tensor.metric_init_s": ("s", "lower"),
    "tensor.canon_calls": ("count", "lower"),
    "tensor.compute_calls": ("count", "lower"),
    "tensor.entries_evaluated": ("count", "lower"),
    "tensor.nonzero_ratio": ("ratio", "higher"),
    "tensor.covariant_derivative_s": ("s", "lower"),
    "tensor.divergence_s": ("s", "lower"),
    "tensor.kulkarni_nomizu_s": ("s", "lower"),
    "tensor.self_s": ("s", "lower"),
    "curvature.christoffel_s": ("s", "lower"),
    "curvature.riemann_s": ("s", "lower"),
    "curvature.ricci_s": ("s", "lower"),
    "curvature.derived_s": ("s", "lower"),
    "operators.dot_action_s": ("s", "lower"),
    "operators.dot_action_calls": ("count", "lower"),
    "operators.tachibana_s": ("s", "lower"),
    "operators.tachibana_calls": ("count", "lower"),
    "operators.check_identity_s": ("s", "lower"),
    "operators.check_identity_calls": ("count", "lower"),
    "operators.eval_cache_hit_ratio": ("ratio", "higher"),
    "operators.ricci_decompose_s": ("s", "lower"),
    "operators.compatible_space_s": ("s", "lower"),
    "operators.recurrence_s": ("s", "lower"),
    "operators.weakly_ricci_s": ("s", "lower"),
    "operators.self_s": ("s", "lower"),
    "linsolve.solve_calls": ("count", "lower"),
    "linsolve.solve_s": ("s", "lower"),
    "linsolve.equations": ("count", "lower"),
    "linsolve.unknowns": ("count", "lower"),
    "linsolve.rank": ("count", "lower"),
    "linsolve.rank_per_equation": ("ratio", "higher"),
    "expr.gcd_calls": ("count", "lower"),
    "expr.gcd_s": ("s", "lower"),
    "expr.max_terms": ("count", "lower"),
    "classify.classify_s": ("s", "lower"),
    "classify.compare_s": ("s", "lower"),
    "classify.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# span name -> (time metric, calls metric or None)
_SPAN_METRICS = {
    "parsing.parse_metric": ("parsing.parse_metric_s",
                             "parsing.parse_metric_calls"),
    "parsing.parse_identity": ("parsing.parse_identity_s", None),
    "tensor.metric_init": ("tensor.metric_init_s", None),
    "tensor.covariant_derivative": ("tensor.covariant_derivative_s", None),
    "tensor.divergence": ("tensor.divergence_s", None),
    "tensor.kulkarni_nomizu": ("tensor.kulkarni_nomizu_s", None),
    "curvature.christoffel": ("curvature.christoffel_s", None),
    "curvature.riemann": ("curvature.riemann_s", None),
    "curvature.ricci": ("curvature.ricci_s", None),
    "curvature.derived": ("curvature.derived_s", None),
    "operators.dot_action": ("operators.dot_action_s",
                             "operators.dot_action_calls"),
    "operators.tachibana": ("operators.tachibana_s",
                            "operators.tachibana_calls"),
    "operators.check_identity": ("operators.check_identity_s",
                                 "operators.check_identity_calls"),
    "operators.ricci_decompose": ("operators.ricci_decompose_s", None),
    "operators.compatible_space": ("operators.compatible_space_s", None),
    "operators.recurrence": ("operators.recurrence_s", None),
    "operators.weakly_ricci": ("operators.weakly_ricci_s", None),
    "linsolve.solve": ("linsolve.solve_s", "linsolve.solve_calls"),
    "classify.classify": ("classify.classify_s", None),
    "classify.compare": ("classify.compare_s", None),
}
_SELF_LAYERS = ("tensor", "operators", "classify")


def summarize(path, overhead_ratio: float) -> dict:
    """Per-layer metrics of one trace file: inclusive time and calls per
    span name (a span nested in one of the same name is not counted again),
    self time per layer, and the summed counters."""
    spans = {}
    counts = dict.fromkeys(COUNTERS, 0)
    imports = []
    lines = path.read_text().splitlines() if path.exists() else []
    for line in lines:
        rec = json.loads(line)
        if "counts" in rec:
            for k, v in rec["counts"].items():
                counts[k] = (max(counts[k], v) if k == "max_terms"
                             else counts[k] + v)
            if "import_s" in rec:
                imports.append(rec["import_s"])
        else:
            spans[(rec["pid"], rec["id"])] = rec
    out = dict.fromkeys(PER_LAYER, 0)
    child_time = {}
    for (pid, _), s in spans.items():
        k = (pid, s["parent"])
        child_time[k] = child_time.get(k, 0.0) + s["end"] - s["start"]
    for (pid, sid), s in spans.items():
        dur = s["end"] - s["start"]
        name = s["name"]
        layer = name.split(".")[0]
        if layer in _SELF_LAYERS:
            out[f"{layer}.self_s"] += dur - child_time.get((pid, sid), 0.0)
        if name not in _SPAN_METRICS:
            continue
        time_metric, calls_metric = _SPAN_METRICS[name]
        if calls_metric:
            out[calls_metric] += 1
        parent = spans.get((pid, s["parent"]))
        while parent is not None and parent["name"] != name:
            parent = spans.get((pid, parent["parent"]))
        if parent is None:
            out[time_metric] += dur
    out["cli.import_s"] = statistics.median(imports) if imports else 0
    out["tensor.canon_calls"] = counts["canon_calls"]
    out["tensor.compute_calls"] = counts["compute_calls"]
    out["tensor.entries_evaluated"] = counts["entries_evaluated"]
    out["tensor.nonzero_ratio"] = (counts["nonzero_stored"]
                                   / max(counts["entries_evaluated"], 1))
    out["operators.eval_cache_hit_ratio"] = (
        counts["eval_hits"] / max(counts["eval_lookups"], 1))
    out["linsolve.equations"] = counts["equations"]
    out["linsolve.unknowns"] = counts["unknowns"]
    out["linsolve.rank"] = counts["rank"]
    out["linsolve.rank_per_equation"] = (counts["rank"]
                                         / max(counts["equations"], 1))
    out["expr.gcd_calls"] = counts["gcd_calls"]
    out["expr.gcd_s"] = counts["gcd_s"]
    out["expr.max_terms"] = counts["max_terms"]
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def _main(argv) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import curvkit.cli
    import_s = time.perf_counter() - t0
    tr = Tracer(trace_file)
    tr.extra["import_s"] = import_s
    install(tr)
    token = tr.begin("cli.main")
    try:
        return curvkit.cli.main(cli_args)
    finally:
        tr.end(token)
        sys.stdout.flush()
        tr.flush()


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
