"""The linear structure decisions built on the curvature tensors and the
operator actions.

Each decision here reduces a geometric yes/no question to an exact linear
system over expressions and reports witnesses that can be re-verified by
substitution.  Every linear condition on the curvature tensors, the
recurrences, weak Ricci symmetry and compatibility included, is an
identity: one builder walks one index tuple per orbit of the symmetries it
derives from the identity's terms, and check_identity decides it.  A
compatible space is the compatibility identity solved through the same
builder; the Ricci decomposition has its own procedure.  The operator
actions themselves
live in tensor.py and the evaluation of tensor expressions in
curvature.py; dot_action, tachibana and evaluate_tensor_ast are imported
here so that they stay reachable under this module's name.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .curvature import CurvatureBundle, evaluate_tensor_ast, once
from .expr import (Atom, Expression, ONE, PRIME, ZERO, _KIND_COORD,
                   _KIND_TRIG, matrix_at_point, pivots_mod_p)
from .linsolve import LinearEquation, matrix_rank, solve_linear
from .chart import Chart
from .parsing import (TENSOR_VALENCE, IdentityAst, _indexed_names,
                      parse_identity)
from .tensor import (D_NONE2, Descriptor, Metric, Tensor, TensorError,
                     _apply_op, dot_action, raised_last, tachibana)


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
    components.  The equations are formed in walk order as the solver reads
    them, so a failing system forms none past its witness.
    """
    def equations():
        for idx in walk:
            terms, rhs = equation(idx)
            coeffs = {}
            for u, c in terms:
                if not c.is_zero:
                    coeffs[u] = coeffs.get(u, ZERO) + c
            coeffs = {u: c for u, c in coeffs.items() if not c.is_zero}
            if coeffs or not rhs.is_zero:
                yield LinearEquation(coeffs, rhs, idx)

    return solve_linear(equations(), unknowns)


def first_residual(walk, residual):
    """The first index tuple of walk with a nonzero residual, paired with
    that residual, or None when every residual vanishes."""
    for idx in walk:
        v = residual(idx)
        if not v.is_zero:
            return idx, v
    return None


def check_identity(ast: IdentityAst, bundle: CurvatureBundle) -> IdentityCheck:
    """Decide a tensor identity, solving for any unknown scalars, covectors
    and (0,2) tensors.

    The decision runs once per unknown names, evaluated term tensors and
    printed coefficients, in the bundle's memo: on a Ricci-flat metric C is
    R, so C.C = L*Q(g,C) reads the solve of R.R = L*Q(g,R).
    """
    signed = _signed(ast, lambda node: evaluate_tensor_ast(
        node, bundle, bundle.memo))
    return once(bundle.memo, _decide_identity, bundle.metric, ast.unknowns,
                ast.covectors, signed)


def _signed(ast: IdentityAst, tensor) -> tuple:
    """The terms as (coefficient, tensor, slots, unknowns, factor, at), the
    right side's negated.  slots and at place the tensor's and the indexed
    unknown's or factor's slots: the free letters at 0, 1, ... in
    alphabetical order, a contracted one next.  unknowns is None, a
    scalar's name or an indexed unknown's names, nested by index."""
    position = {x: p for p, x in enumerate(ast.letters)}
    covectors = dict(ast.covectors)

    def place(letters):
        return tuple(position.get(x, ast.valence) for x in letters)

    out = []
    for side, left in ((ast.left, True), (ast.right, False)):
        for term in side:
            t = tensor(term.tensor)
            f, at = term.factor or (None, term.letters)
            slots = (place(term.slots) if term.slots
                     else tuple(range(t.valence)))
            out.append((term.coeff if left else -term.coeff, t, slots,
                        covectors[term.unknown] if term.letters
                        else term.unknown, f and tensor(f), place(at)))
    return tuple(out)


def _times(c: Expression):
    """v -> c*v; for c = 1 or -1 without forming the product, which would
    reduce v again."""
    if c.is_one:
        return lambda v: v
    if (-c).is_one:
        return operator.neg
    return c.__mul__


def _getter(positions):
    """idx -> the tuple of its entries at positions."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # itemgetter of one position returns the entry, not a 1-tuple
    return operator.itemgetter(slice(*positions, positions[0] + 1)
                               if positions else slice(0))


def _reader(g: Metric, k: int, t: Tensor, slots, f, at):
    """idx -> (index, value) of each nonzero product of a term's tensor and
    factor at idx.  A slot at position k is t's last: g raises it, and the
    products run over its values l, at the index idx + (l,)."""
    if slots[-1] == k:
        rows, head = raised_last(t, g), _getter(slots[:-1])

        def read(idx):
            return [(idx + (l,), v) for l, v in rows[head(idx)]]
    else:
        pick = _getter(slots)

        def read(idx):
            v = t.get(pick(idx))
            return () if v.is_zero else ((idx, v),)
    if f is None:
        return read
    pick_f = _getter(at)

    def product(idx):
        # lazily, so that a sum forms each product as it adds it
        for ext, v in read(idx):
            fv = f.get(pick_f(ext))
            if not fv.is_zero:
                yield ext, v * fv
    return product


def _system(g: Metric, signed, walk=None):
    """The walk (unless given), known(idx, moved) and equation(idx) of the
    identity whose terms _signed gives; solve_at reads equation.  Each term
    adds its products at idx in turn to one running total."""
    slots, at = signed[0][2], signed[0][5]
    # each free position is written once, a contracted one twice
    k = 2 * len({*slots, *at}) - len(slots + at)
    if walk is None:
        walk = Descriptor(_symmetries(signed, k)).reps(g.dim, k)
    concrete, unknown = [], []
    for coeff, t, slots, names, f, at in signed:
        read = _reader(g, k, t, slots, f, at)
        if names is None:
            concrete.append((read, _times(coeff), _times(-coeff)))
        else:
            # an indexed unknown's name is picked at one or two positions
            p, q = (*at, None)[:2] if type(names) is tuple else (None, None)
            unknown.append((read, _times(coeff), names, p, q))

    def known(idx, moved=False):
        """The sum of the known terms at idx, as they stand, or moved to
        the right-hand side of the equation."""
        v = ZERO
        for read, times, minus in concrete:
            for _, tv in read(idx):
                v = v + (minus if moved else times)(tv)
        return v

    def equation(idx):
        return ([(names if p is None else names[ext[p]] if q is None
                  else names[ext[p]][ext[q]], times(v))
                 for read, times, names, p, q in unknown
                 for ext, v in read(idx)], known(idx, moved=True))

    return walk, known, equation


def _shaped(names, values: dict):
    """Names nested by index, each replaced by its value, popped."""
    return tuple(_shaped(u, values) if type(u) is tuple else values.pop(u)
                 for u in names)


def _decide_identity(g, unknowns, covectors, signed,
                     walk=None) -> IdentityCheck:
    """The decision of check_identity on the system _system builds."""
    walk, known, equation = _system(g, signed, walk)
    if not unknowns:
        hit = first_residual(walk, known)
        if hit is None:
            return IdentityCheck(True, {}, (), None)
        return IdentityCheck(False, None, (),
                             IdentityWitness("component", *hit))

    result = solve_at(walk, unknowns, equation)
    if result.consistent:
        solved = result.particular()
        for name, names in covectors:
            solved[name] = _shaped(names, solved)
        return IdentityCheck(True, solved, result.free, None)

    idx = result.witness_label
    if len(unknowns) == 1:
        u = unknowns[0]
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


def _symmetries(terms, k: int) -> tuple:
    """The ops on the k index positions under which the signed terms go
    over into plus or minus themselves: transpositions, and the swaps of
    slot pairs that a term's tensor admits off its contracted slot.  Terms
    are matched by tensor object and slots up to its symmetries, unknowns
    and their positions, and factor and slots likewise, and matching terms
    add up.  The terms' own ops are tried first, so that an identity of
    whole tensors walks a descriptor whose table is built; when they all
    share one descriptor, its group is the answer, found without trying."""
    whole = tuple(range(k))
    first = terms[0][1].descriptor
    if all(t.descriptor is first and slots == whole
           for _, t, slots, *_ in terms):
        return first.ops

    parts = [(c, id(t), t.descriptor.canon, _getter(slots), names, id(f),
              f and f.descriptor.canon, _getter(at))
             for c, t, slots, names, f, at in terms]

    def image(perm, keys=None):
        """The matched terms at perm, or None once one is not in keys; the
        contracted position k stays put."""
        ext = perm + (k,)
        out = {}
        for c, t, canon, pick, names, f, canon_f, pick_f in parts:
            rep, sign = canon(pick(ext))
            other = pick_f(ext)
            if canon_f:
                other, s = canon_f(other)
                sign *= s
            if sign:
                key = (t, rep, names, f, other)
                if keys is not None and key not in keys:
                    return None
                c = c if sign > 0 else -c
                out[key] = out[key] + c if key in out else c
        return {key: c for key, c in out.items() if not c.is_zero}

    def candidate(op, slots):
        places = tuple(slots[p] for p in op[1:])
        if op[0] == "block":
            return ("block",) + places
        return ("sym",) + tuple(sorted(places))

    base = image(whole)
    negated = {key: -c for key, c in base.items()}
    # with no two terms matched, a term that goes over into none of them
    # refutes the op
    keys = base.keys() if len(base) == len(terms) else None
    ops = []
    for op in dict.fromkeys(
            [candidate(op, slots) for _, t, slots, *_ in terms
             for op in t.descriptor.ops if all(slots[p] != k for p in op[1:])]
            + [("sym", a, b) for a, b in itertools.combinations(range(k), 2)]):
        got = image(_apply_op(op, whole)[0], keys)
        if got == base:
            ops.append(op)
        elif got == negated and op[0] != "block":
            ops.append(("anti",) + op[1:])
    return tuple(ops)


# ---------------------------------------------------------------------------
# recurrences and weak Ricci symmetry, as identities

# bench/ops.py calls the four functions below by name and prints the
# fields of their results; the classify rows decide the same formulas
TWO_FORM_RECURRENT = (
    "pi[i]*{0}[j,k,x,y] + pi[j]*{0}[k,i,x,y] + pi[k]*{0}[i,j,x,y]"
    " = nabla {0}[j,k,x,y,i] + nabla {0}[k,i,x,y,j] + nabla {0}[i,j,x,y,k]")
ONE_FORM_RECURRENT = ("pi[i]*{0}[j,x] - pi[j]*{0}[i,x]"
                      " = nabla {0}[j,x,i] - nabla {0}[i,x,j]")
WEAKLY_RICCI_SYMMETRIC = ("a[x]*S[y,z] + b[y]*S[x,z] + d[z]*S[y,x]"
                          " = nabla S[y,z,x]")


def recurrent_formula(name: str) -> str:
    """nabla T = pi (x) T, the derivative slot last."""
    slots = ",".join("abcdefgh"[:TENSOR_VALENCE[name]])
    return f"pi[x]*{name}[{slots}] = nabla {name}[{slots},x]"


def only_zero(check: IdentityCheck) -> bool:
    """Whether the identity holds with every unknown zero and nothing
    free.  A recurrence means a nonzero 1-form, so there it fails."""
    def zero(value):
        return (all(map(zero, value)) if type(value) is tuple
                else value.is_zero)
    return check.holds and not check.free and all(
        map(zero, check.solved.values()))


def _covector_result(cls, bundle, formula, names, nonzero=False):
    """cls(holds, the named covectors, free, witness component, witness
    residual) for the formula's identity on the bundle."""
    check = check_identity(parse_identity(formula, bundle.chart), bundle)
    if not check.holds:
        return cls(False, *[None] * len(names), (), check.witness.component,
                   check.witness.value)
    values = [check.solved[u] for u in names]
    if nonzero and only_zero(check):
        return cls(False, *values, ())
    return cls(True, *values, check.free)


@dataclass(frozen=True)
class RecurrenceResult:
    holds: bool
    covector: tuple | None         # particular solution, free parts at 0
    free: tuple
    witness_component: tuple | None = None
    witness_residual: Expression | None = None


def two_form_recurrence(bundle: CurvatureBundle, name: str) -> RecurrenceResult:
    """Decide whether the 2-forms induced by a (0,4) curvature-type tensor
    are recurrent: the cyclic first-derivative sum over (i,j,k) must equal
    the same cyclic sum weighted by an unknown 1-form."""
    return _covector_result(RecurrenceResult, bundle,
                            TWO_FORM_RECURRENT.format(name), ["pi"], True)


def one_form_recurrence(bundle: CurvatureBundle, name: str) -> RecurrenceResult:
    """Same decision for the 1-forms induced by a symmetric (0,2) tensor."""
    return _covector_result(RecurrenceResult, bundle,
                            ONE_FORM_RECURRENT.format(name), ["pi"], True)


def recurrent_tensor(bundle: CurvatureBundle, name: str) -> RecurrenceResult:
    """Decide plain recurrence nabla T = pi (x) T for an unknown 1-form."""
    return _covector_result(RecurrenceResult, bundle,
                            recurrent_formula(name), ["pi"], True)


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
    return _covector_result(WeakRicciResult, bundle, WEAKLY_RICCI_SYMMETRIC,
                            ["a", "b", "d"])


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
    # root of every 2x2 minor, each a quadratic in alpha; the exact entry
    # check of build certifies the one candidate
    alpha = _common_root(s_rows, g_rows)
    if alpha is not None:
        got = build("quasi-einstein", alpha, shifted(alpha))
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


def _common_root(s_rows, g_rows) -> Expression | None:
    """The only alpha that can be a common root of the 2x2 minors of
    s - alpha*g, or None when they have none.

    Writing each minor as a*alpha^2 + b*alpha + c, a common root makes
    (X, Y) = (alpha^2, alpha) solve every a*X + b*Y = -c.  The minors'
    values at the point decide first.  A root is the null vector
    (alpha^2, alpha, 1) of the exact rows (a, b, c), so values of rank 3
    leave none.  Value pivots in the X and Y columns name two minors whose
    exact X, Y system is nonsingular, and only those two are built: the
    root is their Cramer Y.  Otherwise one exact solve over every minor
    gives Y when it is determined."""
    n = len(s_rows)
    pairs = list(itertools.combinations(range(n), 2))
    blocks = [(i, j, k, l) for i, j in pairs for k, l in pairs]
    s_at, g_at = matrix_at_point(s_rows), matrix_at_point(g_rows)
    if s_at is not None and g_at is not None:
        pivots = pivots_mod_p([
            [v % PRIME for v in reversed(_minor_quadratic(s_at, g_at, *b))]
            for b in blocks])
        if len(pivots) == 3:
            return None
        if pivots.keys() == {0, 1}:
            (c1, b1, a1), (c2, b2, a2) = (
                _minor_quadratic(s_rows, g_rows, *blocks[pivots[col]])
                for col in (0, 1))
            return (a1 * c2 - a2 * c1) / (a2 * b1 - a1 * b2)

    def equations():
        for block in blocks:
            c, b, a = _minor_quadratic(s_rows, g_rows, *block)
            yield LinearEquation({"X": a, "Y": b}, -c, block)

    result = solve_linear(equations(), ("X", "Y"))
    if not result.consistent or result.solution["Y"].coeffs:
        return None
    return result.solution["Y"].const


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
# compatibility, as an identity

# Mantica & Molinari's compatibility of a (0,2) tensor E, {1}, with a
# curvature-type tensor K, {0}, m contracted through g^-1: the cyclic sum
# of K(e_i, e_j, e_x, E e_k), E the endomorphism g(X, E Y) = E(Y, X).  It
# extends to the projective tensor, which lacks the pair symmetry
COMPATIBLE = ("{0}[i,j,x,m]*{1}[k,m] + {0}[j,k,x,m]*{1}[i,m]"
              " + {0}[k,i,x,m]*{1}[j,m] = 0")
# parsed once: it writes no chart symbol, so every chart reads it alike
_COMPATIBLE = parse_identity(COMPATIBLE.format("R", "S"), Chart(("x", "y")))


def compatibility_check(d: Tensor, e: Tensor, g: Metric) -> IdentityCheck:
    """Decide COMPATIBLE with d for R and e for S."""
    tensors = {"R": d, "S": e}
    return _decide_identity(g, (), (), _signed(
        _COMPATIBLE, lambda node: tensors[node.op]))


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
    """Solve COMPATIBLE with d for R for every (0,2) tensor E.

    The free entries of E are parameters named like them, a12 for row 1,
    column 2, under the first prefix of a, e, q, u0, u1, ... that names no
    chart symbol.  The family is certified by compatibility_check."""
    chart = d.chart
    n = chart.dim
    # the formula's terms with E's unknowns, as parse_identity names them,
    # in place of S
    grid, unknowns = _indexed_names("E", 2, n)
    if len(set(unknowns)) < n * n:
        raise TensorError(f"the unknowns of E repeat a name in {n} "
                          "dimensions")
    signed = tuple((c, t, slots, grid, None, at) for c, t, slots, _, _, at
                   in _signed(_COMPATIBLE, lambda node: d))
    walk, _, equation = _system(g, signed)
    result = solve_at(walk, unknowns, equation)

    taken = set(chart.coords) | set(chart.functions) | set(chart.constants)
    # the u<k> prefixes never run out, as the chart names only finitely many
    prefix = next(p for p in itertools.chain(
        "aeq", (f"u{k}" for k in itertools.count()))
                  if not any(f"{p}{i + 1}{j + 1}" in taken
                             for i in range(n) for j in range(n)))
    atom_of = {u: Atom.constant(prefix + u[1:]) for u in result.free}

    def as_expression(form):
        v = form.const
        for u, c in form.coeffs.items():
            v = v + c * Expression.from_atom(atom_of[u])
        return v

    matrix = tuple(tuple(as_expression(result.solution[u]) for u in row)
                   for row in grid)
    params = tuple(prefix + u[1:] for u in unknowns if u in result.free)
    # compatibility_check of the family, on the walk of the E terms, whose
    # symmetries the family's terms have
    e = Tensor.compute(chart, 2, D_NONE2, lambda ij: matrix[ij[0]][ij[1]])
    check = _decide_identity(g, (), (), _signed(
        _COMPATIBLE, lambda node: e if node.op == "S" else d), walk)
    if not check.holds:
        raise TensorError("compatible family fails substitution at "
                          f"{check.witness.component}")
    return CompatibleFamily(matrix, params)
