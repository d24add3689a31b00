"""The linear structure decisions built on the curvature tensors and the
operator actions.

Each decision here reduces a geometric yes/no question to an exact linear
system over expressions and reports witnesses that can be re-verified by
substitution.  The operator actions themselves live in tensor.py and the
evaluation of tensor expressions in curvature.py; dot_action, tachibana and
evaluate_tensor_ast are imported here so that they stay reachable under
this module's name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .curvature import CurvatureBundle, evaluate_tensor_ast, once
from .expr import (Atom, Expression, ONE, PRIME, ZERO, _KIND_COORD,
                   _KIND_TRIG, gcd_mod_p, matrix_at_point)
from .linsolve import LinearEquation, matrix_rank, solve_linear
from .parsing import IdentityAst
from .tensor import (Descriptor, Metric, Tensor, TensorError,
                     common_descriptor, dot_action, raised_last, tachibana)


# ---------------------------------------------------------------------------
# identity checking

# The verdict records of this module stay dataclasses, where curvkit's
# other records are expr.Record classes: bench/ops.py renders and
# bench/tracing.py walks each result through dataclasses.fields.

@dataclass(frozen=True)
class IdentityWitness:
    """Why an identity fails.

    kind "component": concrete identity, `value` is the nonzero residual at
    `component`.  kind "ratio": the single unknown would need two different
    values; `anchor_component` forces `anchor_value`, `component` forces
    `value`.  kind "forced": after eliminating the unknowns the equation at
    `component` still has the nonzero residual `value`.
    """
    kind: str
    component: tuple
    value: Expression
    unknown: str = ""
    anchor_component: tuple | None = None
    anchor_value: Expression | None = None


@dataclass(frozen=True)
class IdentityCheck:
    holds: bool
    solved: dict | None            # unknown -> Expression, free ones at 0
    free: tuple
    witness: IdentityWitness | None


def solve_at(walk, unknowns, equation):
    """Solve the linear system with one equation per index tuple of walk.

    equation(idx) returns (terms, rhs), meaning sum of coeff * unknown over
    the (unknown, coeff) pairs of terms equals rhs.  Coefficients of the same
    unknown add up and zero ones are dropped; a tuple left with no
    coefficient and a zero rhs gives no equation.  Each equation is labelled
    by its index tuple, so the result's witness and pivot labels name
    components.
    """
    equations = []
    for idx in walk:
        terms, rhs = equation(idx)
        coeffs = {}
        for u, c in terms:
            if not c.is_zero:
                coeffs[u] = coeffs.get(u, ZERO) + c
        coeffs = {u: c for u, c in coeffs.items() if not c.is_zero}
        if coeffs or not rhs.is_zero:
            equations.append(LinearEquation(coeffs, rhs, idx))
    return solve_linear(equations, unknowns)


def first_residual(walk, residual):
    """The first index tuple of walk with a nonzero residual, paired with
    that residual, or None when every residual vanishes."""
    for idx in walk:
        v = residual(idx)
        if not v.is_zero:
            return idx, v
    return None


def check_identity(ast: IdentityAst, bundle: CurvatureBundle) -> IdentityCheck:
    """Decide a tensor identity, solving for any unknown scalars."""
    concrete = []
    unknown_terms = {u: [] for u in ast.unknowns}
    for side, sgn in ((ast.left, 1), (ast.right, -1)):
        for term in side:
            t = evaluate_tensor_ast(term.tensor, bundle, bundle.memo)
            coeff = term.coeff if sgn == 1 else -term.coeff
            if term.unknown is None:
                concrete.append((coeff, t))
            else:
                unknown_terms[term.unknown].append((coeff, t))

    # every term shares these symmetries, so the equation or residual at
    # any index tuple is +-1 times the one at its representative, or zero
    walk = common_descriptor(
        [t for _, t in concrete]
        + [t for terms in unknown_terms.values() for _, t in terms]
    ).reps(bundle.dim, ast.valence)

    def residual(idx):
        v = ZERO
        for coeff, t in concrete:
            tv = t.get(idx)
            if not tv.is_zero:
                v = v + coeff * tv
        return v

    if not ast.unknowns:
        hit = first_residual(walk, residual)
        if hit is None:
            return IdentityCheck(True, {}, (), None)
        return IdentityCheck(False, None, (),
                             IdentityWitness("component", *hit))

    def equation(idx):
        return ([(u, coeff * t.get(idx))
                 for u, terms in unknown_terms.items() for coeff, t in terms],
                -residual(idx))

    result = solve_at(walk, ast.unknowns, equation)
    if result.consistent:
        return IdentityCheck(True, result.particular(), result.free, None)

    idx = result.witness_label
    if len(ast.unknowns) == 1:
        u = ast.unknowns[0]
        terms, rhs = equation(idx)
        cu = ZERO
        for _, c in terms:
            cu = cu + c
        anchor = result.pivot_labels.get(u)
        if not cu.is_zero and anchor is not None:
            return IdentityCheck(False, None, (), IdentityWitness(
                "ratio", idx, rhs / cu, unknown=u, anchor_component=anchor,
                anchor_value=result.partial[u]))
    return IdentityCheck(False, None, (), IdentityWitness(
        "forced", idx, result.witness_residual))


# ---------------------------------------------------------------------------
# recurrence of the induced 2-forms / 1-forms


@dataclass(frozen=True)
class RecurrenceResult:
    holds: bool
    covector: tuple | None         # particular solution, free parts at 0
    free: tuple
    witness_component: tuple | None = None
    witness_residual: Expression | None = None


def _solve_covector(result, names) -> RecurrenceResult:
    if not result.consistent:
        return RecurrenceResult(False, None, (), result.witness_label,
                                result.witness_residual)
    particular = result.particular()
    covector = tuple(particular[u] for u in names)
    # recurrence means a nonzero 1-form; a system whose only solution is
    # the zero covector is a failure, not a vacuous success
    if not result.free and all(v.is_zero for v in covector):
        return RecurrenceResult(False, covector, ())
    return RecurrenceResult(True, covector, result.free)


def _cyclic_ops(d: Tensor) -> tuple:
    """Ops on the three indices of a cyclic sum in which two of them fill
    d's first slot pair: total antisymmetry when d is antisymmetric in that
    pair, else none."""
    if ("anti", 0, 1) in d.descriptor.ops:
        return ("anti", 0, 1), ("anti", 1, 2)
    return ()


def two_form_recurrence(bundle: CurvatureBundle, name: str) -> RecurrenceResult:
    """Decide whether the 2-forms induced by a (0,4) curvature-type tensor
    are recurrent: the cyclic first-derivative sum over (i,j,k) must equal
    the same cyclic sum weighted by an unknown 1-form.

    The three recurrences run once per tensor object, in the bundle's
    memo: on a Ricci-flat metric C is R, and its row reuses R's solve.
    """
    return once(bundle.memo, _two_form_recurrence, bundle.tensor(name),
                bundle.nabla(name))


def _two_form_recurrence(d: Tensor, nd: Tensor) -> RecurrenceResult:
    n = d.chart.dim
    names = [f"P{i + 1}" for i in range(n)]
    ops = _cyclic_ops(d)
    if ("anti", 2, 3) in d.descriptor.ops:   # (x, y) fill d's second pair
        ops += (("anti", 3, 4),)

    def equation(idx):
        i, j, k, x, y = idx
        return ([(names[a], d.get((bb, cc, x, y)))
                 for a, bb, cc in ((i, j, k), (j, k, i), (k, i, j))],
                nd.get((j, k, x, y, i)) + nd.get((k, i, x, y, j))
                + nd.get((i, j, x, y, k)))

    return _solve_covector(
        solve_at(Descriptor(ops).reps(n, 5), names, equation), names)


def one_form_recurrence(bundle: CurvatureBundle, name: str) -> RecurrenceResult:
    """Same decision for the 1-forms induced by a symmetric (0,2) tensor."""
    return once(bundle.memo, _one_form_recurrence, bundle.tensor(name),
                bundle.nabla(name))


def _one_form_recurrence(z: Tensor, nz: Tensor) -> RecurrenceResult:
    n = z.chart.dim
    names = [f"P{i + 1}" for i in range(n)]

    def equation(idx):
        i, j, x = idx
        return ([(names[i], z.get((j, x))), (names[j], -z.get((i, x)))],
                nz.get((j, x, i)) - nz.get((i, x, j)))

    # the equation at (i, j, x) is minus the one at (j, i, x)
    return _solve_covector(
        solve_at(Descriptor((("anti", 0, 1),)).reps(n, 3), names, equation),
        names)


def recurrent_tensor(bundle: CurvatureBundle, name: str) -> RecurrenceResult:
    """Decide plain recurrence nabla T = pi (x) T for an unknown 1-form."""
    return once(bundle.memo, _recurrent_tensor, bundle.tensor(name),
                bundle.nabla(name))


def _recurrent_tensor(t: Tensor, nt: Tensor) -> RecurrenceResult:
    n = t.chart.dim
    k = t.valence
    names = [f"P{i + 1}" for i in range(n)]

    def equation(idx):
        return [(names[idx[k]], t.get(idx[:k]))], nt.get(idx)

    # t's ops touch only the first k slots, so these are t's
    # representatives, each followed by every derivative index
    return _solve_covector(
        solve_at(t.descriptor.reps(n, k + 1), names, equation), names)


# ---------------------------------------------------------------------------
# Ricci decomposition


def _monomial_scale(beta0: Expression) -> Expression:
    """Square scale factor pulled out of a monomial-ratio coefficient.

    Collects the even powers of coordinate and trig atoms of beta0 into a
    monomial s, so that beta0/s^2 keeps only the odd / non-coordinate part.
    Used to pick a display representative of a rank-1 factorization.
    """
    num, den = beta0.num.terms, beta0.den.terms
    if len(num) != 1 or len(den) != 1:
        return ONE
    net = {}
    for atom, e in next(iter(num)):
        net[atom] = net.get(atom, 0) + e
    for atom, e in next(iter(den)):
        net[atom] = net.get(atom, 0) - e
    s = ONE
    for atom in sorted(net, key=lambda a: a.key):
        e = net[atom]
        if atom.kind in (_KIND_COORD, _KIND_TRIG) and e != 0 and e % 2 == 0:
            s = s * Expression.from_atom(atom) ** (e // 2)
    return s


def rank_one_factor(rows, g: Metric):
    """Write a symmetric matrix as beta * eta (x) eta, or return None.

    Returns (beta, eta, norm2) with eta a covector tuple and norm2 its
    g-square.  None when the matrix is zero or has rank above one.
    """
    n = len(rows)
    anchor = next((i for i in range(n) if not rows[i][i].is_zero), None)
    if anchor is None:
        return None
    beta0 = rows[anchor][anchor]
    eta0 = [rows[anchor][j] / beta0 for j in range(n)]
    for j in range(n):
        for k in range(n):
            if not (rows[j][k] == beta0 * eta0[j] * eta0[k]):
                return None
    s = _monomial_scale(beta0)
    beta = beta0 / (s * s)
    eta = tuple(e * s for e in eta0)
    return beta, eta, g.contract(lambda j, k: eta[j] * eta[k])


@dataclass(frozen=True)
class RicciDecomposition:
    """Outcome of splitting the Ricci tensor as alpha*g + beta*eta(x)eta."""
    kind: str                     # einstein | quasi-einstein | ricci-simple | none
    alpha: Expression
    beta: Expression | None
    eta: tuple | None
    eta_norm2: Expression | None
    rank: int                     # rank of S - alpha*g
    nullity: int


def _poly1_mod(p, q):
    """Remainder of univariate polynomials with Expression coefficients
    (ascending coefficient lists)."""
    p = list(p)
    while len(p) >= len(q):
        lead = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, qc in enumerate(q):
            p[shift + i] = p[shift + i] - lead * qc
        while p and p[-1].is_zero:
            p.pop()
        if not p:
            break
    return p


def _poly1_gcd(polys):
    acc = None
    for p in polys:
        p = list(p)
        while p and p[-1].is_zero:
            p.pop()
        if not p:
            continue
        if acc is None:
            acc = p
            continue
        a, b = acc, p
        while b:
            a, b = b, _poly1_mod(a, b)
        acc = a
    return acc or []


def ricci_decompose(bundle: CurvatureBundle) -> RicciDecomposition:
    """Classify the Ricci tensor against the quasi-Einstein family."""
    s = bundle.ricci
    g = bundle.metric
    n = bundle.dim
    kappa = bundle.kappa

    s_rows = [[s.get((i, j)) for j in range(n)] for i in range(n)]
    g_rows = [[g.lower(i, j) for j in range(n)] for i in range(n)]

    def shifted(alpha):
        return [[s_rows[i][j] - alpha * g_rows[i][j] for j in range(n)]
                for i in range(n)]

    def build(kind, alpha, rows):
        factored = rank_one_factor(rows, g)
        if factored is None:
            return None
        beta, eta, norm2 = factored
        return RicciDecomposition(kind, alpha, beta, eta, norm2, 1, n - 1)

    alpha_e = kappa / n
    e_rows = shifted(alpha_e)
    rank_e = matrix_rank(e_rows)
    if rank_e == 0:
        return RicciDecomposition("einstein", alpha_e, None, None, None, 0, n)
    rank_s = matrix_rank(s_rows)
    if rank_s <= 1:
        got = build("ricci-simple", ZERO, s_rows)
        if got is not None:
            return got
    if rank_e == 1:
        got = build("quasi-einstein", alpha_e, e_rows)
        if got is not None:
            return got

    # Last resort: an alpha making S - alpha*g rank <= 1 must be a common
    # root of every 2x2 minor, each a quadratic in alpha.
    pairs = list(itertools.combinations(range(n), 2))
    blocks = [(i, j, k, l) for i, j in pairs for k, l in pairs]
    if not _no_common_root_at_point(s_rows, g_rows, blocks):
        minors = []
        for block in blocks:
            poly = _minor_quadratic(s_rows, g_rows, *block)
            while poly and poly[-1].is_zero:
                poly.pop()
            if poly:
                minors.append(poly)
        common = _poly1_gcd(minors)
        if len(common) == 2:
            alpha = -common[0] / common[1]
            rows = shifted(alpha)
            if matrix_rank(rows) <= 1:
                got = build("quasi-einstein", alpha, rows)
                if got is not None:
                    return got
    return RicciDecomposition("none", ZERO, None, None, None, rank_s,
                              n - rank_s)


def _minor_quadratic(s, g, i, j, k, l) -> list:
    """The minor of s - alpha*g on rows (i, j) and columns (k, l), as its
    coefficients in ascending powers of alpha."""
    return [s[i][k] * s[j][l] - s[i][l] * s[j][k],
            -(s[i][k] * g[j][l] + g[i][k] * s[j][l]
              - s[i][l] * g[j][k] - g[i][l] * s[j][k]),
            g[i][k] * g[j][l] - g[i][l] * g[j][k]]


def _no_common_root_at_point(s_rows, g_rows, blocks) -> bool:
    """True only if the exact minors have a gcd of degree 0 in alpha.

    A common factor of positive degree, made monic by a minor whose alpha^2
    coefficient is nonzero at the point, maps to a common factor of the
    same degree of the minors' values at the point."""
    s_at, g_at = matrix_at_point(s_rows), matrix_at_point(g_rows)
    if s_at is None or g_at is None:
        return False
    common, keeps_degree = [], False
    for block in blocks:
        poly = [c % PRIME for c in _minor_quadratic(s_at, g_at, *block)]
        keeps_degree = keeps_degree or poly[2] != 0
        common = gcd_mod_p(common, poly)
    return keeps_degree and len(common) == 1


@dataclass(frozen=True)
class PureRadiationResult:
    holds: bool
    beta: Expression | None = None
    eta: tuple | None = None
    eta_norm2: Expression | None = None
    reason: str = ""


def pure_radiation(bundle: CurvatureBundle) -> PureRadiationResult:
    """Energy-momentum of pure-radiation type: rank one with a null factor."""
    t = bundle.tensor("T")
    n = bundle.dim
    if t.is_zero:
        return PureRadiationResult(False, reason="energy-momentum vanishes")
    rows = [[t.get((i, j)) for j in range(n)] for i in range(n)]
    factored = rank_one_factor(rows, bundle.metric)
    if factored is None:
        return PureRadiationResult(False,
                                   reason="energy-momentum rank above one")
    beta, eta, norm2 = factored
    if not norm2.is_zero:
        return PureRadiationResult(False, beta, eta, norm2,
                                   reason="factor covector is not null")
    return PureRadiationResult(True, beta, eta, norm2)


# ---------------------------------------------------------------------------
# compatibility


@dataclass(frozen=True)
class CompatibilityResult:
    holds: bool
    witness_component: tuple | None = None
    witness_value: Expression | None = None


def _compatibility(d: Tensor, g: Metric):
    """The walk of the compatibility equations of a (0,2) tensor E with a
    curvature-type d, and terms(idx): (row, column, coefficient) of each
    entry of E in the equation at idx.

    The equation is the cyclic sum over (i1,i2,i3) of d(e_i1, e_i2, e_x,
    Ee_i3), E acting as the endomorphism g(X, E Y) = E(Y, X).  For
    pair-symmetric d this is the condition with E on the first slot; it
    also extends to operators without the pair symmetry (projective)."""
    raised = raised_last(d, g)

    def terms(idx):
        i1, i2, i3, x = idx
        return [(c, m, dm)
                for a, b, c in ((i1, i2, i3), (i2, i3, i1), (i3, i1, i2))
                for m, dm in raised[(a, b, x)]]

    return Descriptor(_cyclic_ops(d)).reps(d.chart.dim, 4), terms


def _substituted(terms, entry) -> Expression:
    """The sum over terms of coefficient * entry(row, column)."""
    total = ZERO
    for c, m, cv in terms:
        v = entry(c, m)
        if not v.is_zero:
            total = total + cv * v
    return total


def compatibility_check(d: Tensor, e: Tensor, g: Metric) -> CompatibilityResult:
    """Zero-test the compatibility equations of e against a curvature-type
    d: the residual of compatible_space's equations at E = e."""
    walk, terms = _compatibility(d, g)
    hit = first_residual(walk, lambda idx: _substituted(
        terms(idx), lambda c, m: e.get((c, m))))
    if hit is None:
        return CompatibilityResult(True)
    return CompatibilityResult(False, *hit)


@dataclass(frozen=True)
class CompatibleFamily:
    """General solution of the compatibility equations for an unknown (0,2)
    tensor: entries are Expressions in opaque free parameters."""
    matrix: tuple                 # n x n of Expressions
    params: tuple                 # free parameter names, display order
    # always False (the unknown is a general matrix); kept only because the
    # solve-stress outputs recorded in bench/expected list every field
    symmetric: bool = False

    @property
    def param_count(self) -> int:
        return len(self.params)


def compatible_space(d: Tensor, g: Metric) -> CompatibleFamily:
    """Solve for every (0,2) tensor compatible with a curvature-type d.

    The unknown tensor is a general n x n matrix.  The family found is
    certified by substituting it back into every equation.
    """
    chart = d.chart
    n = chart.dim
    name = [[f"a{i + 1}{j + 1}" for j in range(n)] for i in range(n)]
    unknowns = [name[m][a] for a in range(n) for m in range(n)]
    walk, terms = _compatibility(d, g)
    result = solve_at(walk, unknowns, lambda idx: (
        [(name[c][m], cv) for c, m, cv in terms(idx)], ZERO))
    if not result.consistent:
        raise TensorError("homogeneous compatibility system reported "
                          "inconsistent")

    taken = set(chart.coords) | set(chart.functions) | set(chart.constants)
    prefix = next(p for p in ("a", "e", "q", "u0")
                  if not any(f"{p}{i + 1}{j + 1}" in taken
                             for i in range(n) for j in range(n)))
    atom_of = {u: Atom.constant(prefix + u[1:]) for u in result.free}

    def as_expression(form):
        v = form.const
        for u, c in form.coeffs.items():
            v = v + c * Expression.from_atom(atom_of[u])
        return v

    matrix = tuple(tuple(as_expression(result.solution[name[i][j]])
                         for j in range(n)) for i in range(n))
    params = tuple(prefix + u[1:] for u in unknowns if u in result.free)

    hit = first_residual(walk, lambda idx: _substituted(
        terms(idx), lambda c, m: matrix[c][m]))
    if hit is not None:
        raise TensorError(f"compatible family fails substitution at {hit[0]}")
    return CompatibleFamily(matrix, params)


# ---------------------------------------------------------------------------
# weak Ricci symmetry


@dataclass(frozen=True)
class WeakRicciResult:
    holds: bool
    a: tuple | None = None
    b: tuple | None = None
    d: tuple | None = None
    free: tuple = ()
    witness_component: tuple | None = None
    witness_residual: Expression | None = None


def weakly_ricci_symmetric(bundle: CurvatureBundle) -> WeakRicciResult:
    """Solve nabla S = A(x)S(y,z) + B(y)S(x,z) + D(z)S(y,x) for covectors."""
    s = bundle.ricci
    ns = bundle.nabla("S")
    n = bundle.dim
    a_names = [f"A{i + 1}" for i in range(n)]
    b_names = [f"B{i + 1}" for i in range(n)]
    d_names = [f"D{i + 1}" for i in range(n)]
    names = a_names + b_names + d_names

    def equation(idx):
        x, y, z = idx
        return ([(a_names[x], s.get((y, z))), (b_names[y], s.get((x, z))),
                 (d_names[z], s.get((y, x)))], ns.get((y, z, x)))

    # the equation has no index symmetry: every tuple is its own orbit
    result = solve_at(Descriptor(()).reps(n, 3), names, equation)
    if not result.consistent:
        return WeakRicciResult(False, witness_component=result.witness_label,
                               witness_residual=result.witness_residual)
    p = result.particular()
    return WeakRicciResult(True,
                           tuple(p[u] for u in a_names),
                           tuple(p[u] for u in b_names),
                           tuple(p[u] for u in d_names),
                           result.free)
