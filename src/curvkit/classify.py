"""Structure classification: run a fixed catalog of curvature conditions
against one metric and render the verdicts as a stable text report.

Each catalog row is either a formula in the identity grammar, decided by
check_identity (every linear row: the derivative symmetries, the
divergences, S^2 = 0, the recurrences, Ricci compatibility and weak Ricci
symmetry among them), or a custom decision procedure (decompositions, and
compatible spaces, the compatibility formula solved for an unknown E).  The
operations the rows repeat run once per set of operand tensors, in the
bundle's memo.  Rows whose decision procedure is not implemented are
reported as not-evaluated, never as fails.
"""
from __future__ import annotations

from .expr import Record, format_expression, format_value
from .parsing import parse_identity
from .curvature import CurvatureBundle, once
from .tensor import TensorError
from .operators import (
    COMPATIBLE, ONE_FORM_RECURRENT, TWO_FORM_RECURRENT,
    WEAKLY_RICCI_SYMMETRIC, check_identity, compatible_space, only_zero,
    pure_radiation, recurrent_formula, ricci_decompose)

HOLDS = "holds"
FAILS = "fails"
NOT_EVALUATED = "not-evaluated"


class ConditionResult(Record):
    """Verdict for one catalog row, with formatted witness pairs."""
    __slots__ = ("name", "verdict", "witnesses", "formula")

    def __init__(self, name: str, verdict: str, witnesses: tuple = (),
                 formula: str = ""):
        self.name = name
        self.verdict = verdict
        self.witnesses = witnesses   # of (name, formatted value) pairs
        self.formula = formula

    def render(self) -> str:
        line = f"{self.name}: {self.verdict}"
        for wname, wvalue in self.witnesses:
            line += f"; witness {wname} = {wvalue}"
        return line


class StructureReport(Record):
    __slots__ = ("metric_name", "dim", "results")

    def __init__(self, metric_name: str, dim: int, results: tuple):
        self.metric_name = metric_name
        self.dim = dim
        self.results = results

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


def _label(component) -> str:
    return "".join(str(i + 1) for i in component)


class _Evaluator:
    """One classification pass over a single bundle."""

    def __init__(self, bundle: CurvatureBundle):
        self.bundle = bundle

    @property
    def decomposition(self):
        return once(self.bundle.memo, ricci_decompose, self.bundle)

    def identity(self, formula: str, nonzero: bool):
        ast = parse_identity(formula, self.bundle.chart)
        check = check_identity(ast, self.bundle)
        if nonzero and only_zero(check):
            return FAILS, tuple((f"only_{u}", format_value(check.solved[u]))
                                for u in sorted(check.solved))
        if check.holds:
            wit = [(u, format_value(check.solved[u]))
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
        return FAILS, ((f"residual_{_label(w.component)}",
                        format_expression(w.value)),)

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
                           ("eta", format_value(dec.eta)))
        return FAILS, ()

    def ricci_simple(self):
        dec = self.decomposition
        if dec.kind == "ricci-simple":
            return HOLDS, (("beta", format_expression(dec.beta)),
                           ("eta", format_value(dec.eta)),
                           ("eta_norm2", format_expression(dec.eta_norm2)))
        if dec.kind == "einstein" and dec.alpha.is_zero:
            # S vanishes identically; rank-one form holds with beta = 0
            return HOLDS, (("beta", "0"),)
        return FAILS, ()

    def compatible_family(self, name: str):
        """param_count, and each nonzero entry that is not a parameter."""
        b = self.bundle
        fam = once(b.memo, compatible_space, b.tensor(name), b.metric)
        entries = [(f"E{i + 1}{j + 1}", format_expression(v))
                   for i, row in enumerate(fam.matrix)
                   for j, v in enumerate(row) if not v.is_zero]
        return HOLDS, (("param_count", str(fam.param_count)),) + tuple(
            (e, text) for e, text in entries if text not in fam.params)

    def pure_radiation_form(self):
        res = pure_radiation(self.bundle)
        if res.holds:
            return HOLDS, (("beta", format_expression(res.beta)),
                           ("eta", format_value(res.eta)),
                           ("eta_norm2", format_expression(res.eta_norm2)))
        wit = (("reason", res.reason),) if res.reason else ()
        return FAILS, wit


def _identity_row(name: str, formula: str, nonzero: bool = False):
    """A catalog row decided by check_identity on the formula it shows.
    With nonzero, a solution whose every unknown is zero fails the row
    (a recurrence needs a nonzero covector) and is shown as only_<name>."""
    return name, formula, lambda ev: ev.identity(formula, nonzero)


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
    _identity_row("s-squared-zero", "S^2 = 0"),
    _identity_row("ricci-symmetric", "nabla S = 0"),
    _identity_row("codazzi-ricci", "nabla S[y,z,x] = nabla S[x,z,y]"),
    _identity_row("cyclic-parallel-ricci",
                  "nabla S[y,z,x] + nabla S[z,x,y] + nabla S[x,y,z] = 0"),
    _identity_row("harmonic", "div R = 0"),
    _identity_row("conformal-harmonic", "div C = 0"),
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
    _identity_row("riemann-2-forms-recurrent", TWO_FORM_RECURRENT.format("R"),
                  nonzero=True),
    _identity_row("conformal-2-forms-recurrent",
                  TWO_FORM_RECURRENT.format("C"), nonzero=True),
    _identity_row("ricci-1-forms-recurrent", ONE_FORM_RECURRENT.format("S"),
                  nonzero=True),
    _identity_row("conformally-recurrent", recurrent_formula("C"),
                  nonzero=True),
    _identity_row("riemann-compatible-ricci", COMPATIBLE.format("R", "S")),
    _identity_row("weyl-compatible-ricci", COMPATIBLE.format("C", "S")),
    ("compatible-space-riemann", "all E compatible with R",
     lambda ev: ev.compatible_family("R")),
    ("compatible-space-projective", "all E compatible with P",
     lambda ev: ev.compatible_family("P")),
    ("compatible-space-weyl", "all E compatible with C",
     lambda ev: ev.compatible_family("C")),
    ("compatible-space-conharmonic", "all E compatible with K",
     lambda ev: ev.compatible_family("K")),
    _identity_row("weakly-ricci-symmetric", WEAKLY_RICCI_SYMMETRIC),
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
