"""Structure classification: run a fixed catalog of curvature conditions
against one metric and render the verdicts as a stable text report.

Each catalog row is either backed by a formula in the identity grammar
(decided by check_identity) or by a custom decision procedure
(decompositions, recurrences, compatibility solves).  The operations the
rows repeat run once per set of operand tensors, in the bundle's memo.
Rows whose decision procedure is not implemented are reported as
not-evaluated, never as fails.
"""
from __future__ import annotations

from dataclasses import dataclass

from .expr import format_expression
from .parsing import parse_identity
from .curvature import CurvatureBundle, once
from .tensor import Descriptor, TensorError, endo_square
from .operators import (
    first_residual, check_identity, two_form_recurrence, one_form_recurrence,
    recurrent_tensor, ricci_decompose, pure_radiation, compatibility_check,
    compatible_space, weakly_ricci_symmetric)

HOLDS = "holds"
FAILS = "fails"
NOT_EVALUATED = "not-evaluated"


@dataclass(frozen=True)
class ConditionResult:
    """Verdict for one catalog row, with formatted witness pairs."""
    name: str
    verdict: str
    witnesses: tuple = ()          # of (name, formatted value) pairs
    formula: str = ""

    def render(self) -> str:
        line = f"{self.name}: {self.verdict}"
        for wname, wvalue in self.witnesses:
            line += f"; witness {wname} = {wvalue}"
        return line


@dataclass(frozen=True)
class StructureReport:
    metric_name: str
    dim: int
    results: tuple

    def result(self, name: str) -> ConditionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def render(self) -> str:
        lines = [
            f"# structure report: {self.metric_name}",
            "# assumption: declared functions and constants are generic "
            "(no special vanishing)",
        ]
        lines.extend(r.render() for r in self.results)
        return "\n".join(lines) + "\n"


def _fmt_covector(values) -> str:
    return "{" + ", ".join(format_expression(v) for v in values) + "}"


def _label(component) -> str:
    return "".join(str(i + 1) for i in component)


def _verdict(hit):
    """holds when there is no nonzero residual, else fails naming the first
    one as (index tuple, value)."""
    if hit is None:
        return HOLDS, ()
    idx, v = hit
    return FAILS, ((f"residual_{_label(idx)}", format_expression(v)),)


class _Evaluator:
    """One classification pass over a single bundle."""

    def __init__(self, bundle: CurvatureBundle):
        self.bundle = bundle

    @property
    def decomposition(self):
        return once(self.bundle.memo, ricci_decompose, self.bundle)

    def identity(self, formula: str):
        ast = parse_identity(formula, self.bundle.chart)
        check = check_identity(ast, self.bundle)
        if check.holds:
            wit = [(u, format_expression(check.solved[u]))
                   for u in sorted(check.solved)]
            if check.free:
                wit.append(("free", ", ".join(check.free)))
            return HOLDS, tuple(wit)
        w = check.witness
        if w.kind == "ratio":
            return FAILS, ((f"{w.unknown}_at_{_label(w.anchor_component)}",
                            format_expression(w.anchor_value)),
                           (f"{w.unknown}_at_{_label(w.component)}",
                            format_expression(w.value)))
        return _verdict((w.component, w.value))

    def scalar_flat(self):
        k = self.bundle.kappa
        if k.is_zero:
            return HOLDS, ()
        return FAILS, (("kappa", format_expression(k)),)

    def einstein(self):
        dec = self.decomposition
        if dec.kind == "einstein":
            return HOLDS, (("alpha", format_expression(dec.alpha)),)
        return FAILS, ()

    def quasi_einstein(self):
        dec = self.decomposition
        if dec.kind in ("quasi-einstein", "ricci-simple"):
            return HOLDS, (("alpha", format_expression(dec.alpha)),
                           ("beta", format_expression(dec.beta)),
                           ("eta", _fmt_covector(dec.eta)))
        return FAILS, ()

    def ricci_simple(self):
        dec = self.decomposition
        if dec.kind == "ricci-simple":
            return HOLDS, (("beta", format_expression(dec.beta)),
                           ("eta", _fmt_covector(dec.eta)),
                           ("eta_norm2", format_expression(dec.eta_norm2)))
        if dec.kind == "einstein" and dec.alpha.is_zero:
            # S vanishes identically; rank-one form holds with beta = 0
            return HOLDS, (("beta", "0"),)
        return FAILS, ()

    def endo_square_zero(self):
        sq = endo_square(self.bundle.ricci, self.bundle.metric)
        return _verdict(next(sq.iter_nonzero(), None))

    def codazzi(self):
        ns = self.bundle.nabla("S")

        def residual(idx):
            x, y, z = idx
            return ns.get((y, z, x)) - ns.get((x, z, y))

        # the residual at (x, y, z) is minus the one at (y, x, z)
        walk = Descriptor((("anti", 0, 1),)).reps(self.bundle.dim, 3)
        return _verdict(first_residual(walk, residual))

    def cyclic_parallel(self):
        ns = self.bundle.nabla("S")

        def residual(idx):
            x, y, z = idx
            return ns.get((y, z, x)) + ns.get((z, x, y)) + ns.get((x, y, z))

        # a cyclic sum; with S symmetric it is totally symmetric
        ops = ()
        if ("sym", 0, 1) in ns.descriptor.ops:
            ops = (("sym", 0, 1), ("sym", 1, 2))
        walk = Descriptor(ops).reps(self.bundle.dim, 3)
        return _verdict(first_residual(walk, residual))

    def divergence_free(self, name: str):
        div = self.bundle.divergence(name)
        return _verdict(next(div.iter_nonzero(), None))

    def _recurrence(self, result):
        if result.holds:
            wit = [("pi", _fmt_covector(result.covector))]
            if result.free:
                wit.append(("free", ", ".join(result.free)))
            return HOLDS, tuple(wit)
        if result.witness_component is None:
            # consistent system whose only solution is the zero covector
            return FAILS, (("only_pi", _fmt_covector(result.covector)),)
        return _verdict((result.witness_component, result.witness_residual))

    def two_form(self, name: str):
        return self._recurrence(two_form_recurrence(self.bundle, name))

    def one_form(self, name: str):
        return self._recurrence(one_form_recurrence(self.bundle, name))

    def recurrent(self, name: str):
        return self._recurrence(recurrent_tensor(self.bundle, name))

    def ricci_compatible(self, name: str):
        b = self.bundle
        res = once(b.memo, compatibility_check, b.tensor(name), b.ricci,
                   b.metric)
        return _verdict(None if res.holds
                        else (res.witness_component, res.witness_value))

    def compatible_family(self, name: str):
        b = self.bundle
        fam = once(b.memo, compatible_space, b.tensor(name), b.metric)
        wit = [("param_count", str(fam.param_count))]
        n = b.dim
        params = set(fam.params)
        for i in range(n):
            for j in range(n):
                entry = fam.matrix[i][j]
                if entry.is_zero:
                    continue
                text = format_expression(entry)
                if text in params:
                    continue
                wit.append((f"E{i + 1}{j + 1}", text))
        return HOLDS, tuple(wit)

    def weakly_ricci(self):
        res = weakly_ricci_symmetric(self.bundle)
        if res.holds:
            wit = [("a", _fmt_covector(res.a)), ("b", _fmt_covector(res.b)),
                   ("d", _fmt_covector(res.d))]
            if res.free:
                wit.append(("free", ", ".join(res.free)))
            return HOLDS, tuple(wit)
        return _verdict((res.witness_component, res.witness_residual))

    def pure_radiation_form(self):
        res = pure_radiation(self.bundle)
        if res.holds:
            return HOLDS, (("beta", format_expression(res.beta)),
                           ("eta", _fmt_covector(res.eta)),
                           ("eta_norm2", format_expression(res.eta_norm2)))
        wit = (("reason", res.reason),) if res.reason else ()
        return FAILS, wit


def _identity_row(name: str, formula: str):
    """A catalog row decided by check_identity on the formula it shows."""
    return name, formula, lambda ev: ev.identity(formula)


# catalog rows: (name, formula shown for reference, evaluator factory)
_CATALOG = (
    _identity_row("ricci-flat", "S = 0"),
    ("scalar-flat", "kappa = 0",
     lambda ev: ev.scalar_flat()),
    ("einstein", "S = alpha*g",
     lambda ev: ev.einstein()),
    ("quasi-einstein", "S = alpha*g + beta*(eta x eta)",
     lambda ev: ev.quasi_einstein()),
    ("ricci-simple", "S = beta*(eta x eta)",
     lambda ev: ev.ricci_simple()),
    _identity_row("s-wedge-s-zero", "wedge(S,S) = 0"),
    ("s-squared-zero", "S^2 = 0 as an endomorphism",
     lambda ev: ev.endo_square_zero()),
    _identity_row("ricci-symmetric", "nabla S = 0"),
    ("codazzi-ricci", "(nabla S)(y,z;x) = (nabla S)(x,z;y)",
     lambda ev: ev.codazzi()),
    ("cyclic-parallel-ricci", "cyclic sum of nabla S = 0",
     lambda ev: ev.cyclic_parallel()),
    ("harmonic", "div R = 0",
     lambda ev: ev.divergence_free("R")),
    ("conformal-harmonic", "div C = 0",
     lambda ev: ev.divergence_free("C")),
    _identity_row("riemann-equals-projective", "R = P"),
    _identity_row("riemann-equals-concircular", "R = W"),
    _identity_row("riemann-equals-weyl", "R = C"),
    _identity_row("weyl-equals-conharmonic", "C = K"),
    _identity_row("semisymmetric", "R.R = 0"),
    _identity_row("conformally-semisymmetric", "R.C = 0"),
    _identity_row("pseudosymmetric", "R.R = L*Q(g,R)"),
    _identity_row("conformally-pseudosymmetric", "R.C = L*Q(g,C)"),
    _identity_row("ricci-pseudosymmetric", "R.S = L*Q(g,S)"),
    _identity_row("pseudosymmetric-weyl", "C.C = L*Q(g,C)"),
    _identity_row("ricci-generalized-pseudosymmetric", "R.R = L*Q(S,R)"),
    _identity_row("rr-qsr-pseudosymmetric", "R.R - Q(S,R) = L*Q(g,C)"),
    _identity_row("rc-cr-pseudosymmetric", "R.C + C.R = L*Q(g,C) + Q(S,C)"),
    ("riemann-2-forms-recurrent", "cyclic nabla R = pi-weighted cyclic R",
     lambda ev: ev.two_form("R")),
    ("conformal-2-forms-recurrent", "cyclic nabla C = pi-weighted cyclic C",
     lambda ev: ev.two_form("C")),
    ("ricci-1-forms-recurrent", "antisymmetrized nabla S = pi-weighted S",
     lambda ev: ev.one_form("S")),
    ("conformally-recurrent", "nabla C = pi (x) C",
     lambda ev: ev.recurrent("C")),
    ("riemann-compatible-ricci", "S compatible with R",
     lambda ev: ev.ricci_compatible("R")),
    ("weyl-compatible-ricci", "S compatible with C",
     lambda ev: ev.ricci_compatible("C")),
    ("compatible-space-riemann", "all E compatible with R",
     lambda ev: ev.compatible_family("R")),
    ("compatible-space-projective", "all E compatible with P",
     lambda ev: ev.compatible_family("P")),
    ("compatible-space-weyl", "all E compatible with C",
     lambda ev: ev.compatible_family("C")),
    ("compatible-space-conharmonic", "all E compatible with K",
     lambda ev: ev.compatible_family("K")),
    ("weakly-ricci-symmetric",
     "(nabla S)(y,z;x) = a(x)S(y,z) + b(y)S(x,z) + d(z)S(y,x)",
     lambda ev: ev.weakly_ricci()),
    _identity_row("parallel-energy-momentum", "nabla T = 0"),
    ("pure-radiation", "T = beta*(eta x eta) with null eta",
     lambda ev: ev.pure_radiation_form()),
    ("super-generalized-recurrent", "", None),
    ("weakly-symmetric-riemann", "", None),
    ("weakly-symmetric-weyl", "", None),
    ("weakly-symmetric-projective", "", None),
    ("weakly-cyclic-ricci-symmetric", "", None),
    ("generalized-roter-type", "", None),
    ("venzi-riemann-space", "", None),
    ("venzi-weyl-space", "", None),
    ("venzi-projective-space", "", None),
)

CONDITION_NAMES = tuple(name for name, _, _ in _CATALOG)


def classify(bundle: CurvatureBundle) -> StructureReport:
    """Evaluate the full condition catalog against one metric."""
    ev = _Evaluator(bundle)
    results = []
    for name, formula, runner in _CATALOG:
        if runner is None:
            results.append(ConditionResult(name, NOT_EVALUATED, (), formula))
            continue
        try:
            verdict, witnesses = runner(ev)
        except TensorError:
            # condition undefined in this dimension
            results.append(ConditionResult(name, NOT_EVALUATED, (), formula))
            continue
        results.append(ConditionResult(name, verdict, witnesses, formula))
    return StructureReport(bundle.name, bundle.dim, tuple(results))


def compare_reports(left: StructureReport, right: StructureReport) -> str:
    """Side-by-side verdicts with an agreement marker per row."""
    lines = [f"# comparison: {left.metric_name} | {right.metric_name}"]
    for lr in left.results:
        rr = right.result(lr.name)
        if NOT_EVALUATED in (lr.verdict, rr.verdict):
            marker = NOT_EVALUATED
        elif lr.verdict == rr.verdict:
            marker = "agree"
        else:
            marker = "differ"
        lines.append(f"{lr.name}: {lr.verdict} | {rr.verdict} | {marker}")
    return "\n".join(lines) + "\n"
