"""Curvature-operator actions and the linear structure decisions built on
them.

Two tensor-valued operations extend a (0,k) tensor to a (0,k+2) tensor: the
action of a curvature-type operator as a derivation, and the endomorphism
action attached to a symmetric (0,2) tensor.  Everything else here reduces a
geometric yes/no question to an exact linear system over expressions and
reports witnesses that can be re-verified by substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .curvature import CurvatureBundle
from .expr import (Atom, Expression, ONE, ZERO, _KIND_COORD, _KIND_TRIG)
from .linsolve import LinearEquation, solve_linear
from .parsing import (IdentityAst, TDot, TName, TNabla, TQ, TWedge)
from .tensor import (Descriptor, Metric, Tensor, TensorError,
                     common_descriptor, covariant_derivative, kulkarni_nomizu)


def dot_action(d: Tensor, h: Tensor, g: Metric) -> Tensor:
    """Act the operator attached to d on h, producing a (0,k+2) tensor.

    Component rule: (d.h)[i1..ik, x, y] = -sum over slots s and l of
    d^l[x, y, i_s] * h[.. l at s ..], where the l index is raised with g
    on d's fourth slot.
    """
    if d.valence != 4:
        raise TensorError("operator tensor must have valence 4")
    if ("anti", 0, 1) not in d.descriptor.ops:
        raise TensorError("operator tensor must be antisymmetric in its "
                          "first index pair")
    chart = h.chart
    n = chart.dim
    k = h.valence

    raised = {}
    for x in range(n):
        for y in range(n):
            for a in range(n):
                row = []
                for l in range(n):
                    w = ZERO
                    for m in range(n):
                        gim = g.upper(l, m)
                        if gim.is_zero:
                            continue
                        w = w + gim * d.get((x, y, a, m))
                    if not w.is_zero:
                        row.append((l, w))
                raised[(x, y, a)] = tuple(row)

    desc = h.descriptor.with_extra(("anti", k, k + 1))

    def entry(idx):
        head, x, y = idx[:k], idx[k], idx[k + 1]
        total = ZERO
        for s in range(k):
            for l, w in raised[(x, y, head[s])]:
                total = total - w * h.get(head[:s] + (l,) + head[s + 1:])
        return total

    return Tensor.compute(chart, k + 2, desc, entry)


def tachibana(a: Tensor, h: Tensor) -> Tensor:
    """Endomorphism action Q(a,h): a (0,k+2) tensor, antisymmetric in the
    trailing pair.

    Component rule: Q(a,h)[i1..ik, x, y] = sum over slots s of
    a[x, i_s] * h[.. y at s ..] - a[y, i_s] * h[.. x at s ..].
    """
    if a.valence != 2:
        raise TensorError("endomorphism base must have valence 2")
    if ("sym", 0, 1) not in a.descriptor.ops:
        raise TensorError("endomorphism base must be declared symmetric")
    chart = h.chart
    k = h.valence
    desc = h.descriptor.with_extra(("anti", k, k + 1))

    def entry(idx):
        head, x, y = idx[:k], idx[k], idx[k + 1]
        total = ZERO
        for s in range(k):
            i_s = head[s]
            ax = a.get((x, i_s))
            ay = a.get((y, i_s))
            if not ax.is_zero:
                total = total + ax * h.get(head[:s] + (y,) + head[s + 1:])
            if not ay.is_zero:
                total = total - ay * h.get(head[:s] + (x,) + head[s + 1:])
        return total

    return Tensor.compute(chart, k + 2, desc, entry)


# ---------------------------------------------------------------------------
# identity checking


def evaluate_tensor_ast(node, bundle: CurvatureBundle, cache: dict) -> Tensor:
    """Evaluate a tensor AST node against a bundle, memoized by node."""
    if node in cache:
        return cache[node]
    if isinstance(node, TName):
        out = bundle.tensor(node.name)
    elif isinstance(node, TDot):
        out = dot_action(evaluate_tensor_ast(node.left, bundle, cache),
                         evaluate_tensor_ast(node.right, bundle, cache),
                         bundle.metric)
    elif isinstance(node, TQ):
        out = tachibana(evaluate_tensor_ast(node.metric_like, bundle, cache),
                        evaluate_tensor_ast(node.operand, bundle, cache))
    elif isinstance(node, TWedge):
        out = kulkarni_nomizu(evaluate_tensor_ast(node.left, bundle, cache),
                              evaluate_tensor_ast(node.right, bundle, cache))
    elif isinstance(node, TNabla):
        if isinstance(node.operand, TName):
            out = bundle.nabla(node.operand.name)
        else:
            out = covariant_derivative(
                evaluate_tensor_ast(node.operand, bundle, cache),
                bundle.connection)
    else:
        raise TensorError(f"unsupported tensor node {node!r}")
    cache[node] = out
    return out


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


def check_identity(ast: IdentityAst, bundle: CurvatureBundle,
                   cache: dict | None = None) -> IdentityCheck:
    """Decide a tensor identity, solving for any unknown scalars."""
    if cache is None:
        cache = {}
    concrete = []
    unknown_terms = {u: [] for u in ast.unknowns}
    for side, sgn in ((ast.left, 1), (ast.right, -1)):
        for term in side:
            t = evaluate_tensor_ast(term.tensor, bundle, cache)
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
    """
    d = bundle.tensor(name)
    nd = bundle.nabla(name)
    n = bundle.dim
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
    z = bundle.tensor(name)
    nz = bundle.nabla(name)
    n = bundle.dim
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
    t = bundle.tensor(name)
    nt = bundle.nabla(name)
    n = bundle.dim
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


def matrix_rank(rows) -> int:
    """Rank of a matrix of Expressions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    pr = 0
    for c in range(ncols):
        pivot = next((r for r in range(pr, len(rows))
                      if not rows[r][c].is_zero), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        pv = rows[pr][c]
        for r in range(len(rows)):
            if r == pr or rows[r][c].is_zero:
                continue
            f = rows[r][c] / pv
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pr += 1
        if pr == len(rows):
            break
    return pr


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
    norm2 = ZERO
    for j in range(n):
        for k in range(n):
            guu = g.upper(j, k)
            if not guu.is_zero:
                norm2 = norm2 + guu * eta[j] * eta[k]
    return beta, eta, norm2


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
    if matrix_rank(s_rows) <= 1:
        got = build("ricci-simple", ZERO, s_rows)
        if got is not None:
            return got
    if rank_e == 1:
        got = build("quasi-einstein", alpha_e, e_rows)
        if got is not None:
            return got

    # Last resort: an alpha making S - alpha*g rank <= 1 must be a common
    # root of every 2x2 minor, each a quadratic in alpha.
    minors = []
    for i, j in itertools.combinations(range(n), 2):
        for k, l in itertools.combinations(range(n), 2):
            c0 = s_rows[i][k] * s_rows[j][l] - s_rows[i][l] * s_rows[j][k]
            c1 = -(s_rows[i][k] * g_rows[j][l] + g_rows[i][k] * s_rows[j][l]
                   - s_rows[i][l] * g_rows[j][k] - g_rows[i][l] * s_rows[j][k])
            c2 = g_rows[i][k] * g_rows[j][l] - g_rows[i][l] * g_rows[j][k]
            poly = [c0, c1, c2]
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
    rank_s = matrix_rank(s_rows)
    return RicciDecomposition("none", ZERO, None, None, None, rank_s,
                              n - rank_s)


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


def compatibility_check(d: Tensor, e: Tensor, g: Metric) -> CompatibilityResult:
    """Zero-test the compatibility sum of e against a curvature-type d.

    The condition is the cyclic sum over (i1,i2,i3) of
    d(e_i1, e_i2, e_x, Ee_i3), with the endomorphism E raised from e by
    g(X, E Y) = e(Y, X).  For pair-symmetric d this is the same condition
    as putting E on the first slot, but it also extends correctly to
    operators without the pair symmetry (the projective-type tensor).
    """
    chart = d.chart
    n = chart.dim
    raised = []
    for c in range(n):
        row = []
        for l in range(n):
            w = ZERO
            for m in range(n):
                gv = g.upper(l, m)
                if gv.is_zero:
                    continue
                w = w + gv * e.get((c, m))
            if not w.is_zero:
                row.append((l, w))
        raised.append(tuple(row))

    def term(a, b, x, c):
        v = ZERO
        for l, w in raised[c]:
            dv = d.get((a, b, x, l))
            if not dv.is_zero:
                v = v + w * dv
        return v

    def residual(idx):
        i1, i2, i3, x = idx
        return term(i1, i2, x, i3) + term(i2, i3, x, i1) + term(i3, i1, x, i2)

    hit = first_residual(Descriptor(_cyclic_ops(d)).reps(n, 4), residual)
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

    dd_cache = {}

    def dd(m, a, b, x):
        key = (m, a, b, x)
        v = dd_cache.get(key)
        if v is None:
            v = ZERO
            for l in range(n):
                gv = g.upper(m, l)
                if gv.is_zero:
                    continue
                v = v + gv * d.get((a, b, x, l))
            dd_cache[key] = v
        return v

    def terms(idx):
        """(row, column, coefficient) of each unknown entry at idx."""
        i1, i2, i3, x = idx
        return [(c, m, dd(m, a, b, x))
                for a, b, c in ((i1, i2, i3), (i2, i3, i1), (i3, i1, i2))
                for m in range(n)]

    walk = Descriptor(_cyclic_ops(d)).reps(n, 4)
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

    def residual(idx):
        total = ZERO
        for c, m, cv in terms(idx):
            if not cv.is_zero:
                total = total + cv * matrix[c][m]
        return total

    hit = first_residual(walk, residual)
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
