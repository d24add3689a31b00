"""Levi-Civita connection, the curvature tensors built from it, the
energy-momentum tensor, and the evaluation of tensor expressions over them.

Each operation a bundle repeats runs once per set of operand objects (see
once), and a tensor plus a zero tensor is the tensor itself (Tensor.add):
on a Ricci-flat metric C, K and W are R, and their products are R's.

Sign conventions are calibrated once against a numeric divided-difference
oracle and frozen:

    Gamma^l_ij = 1/2 g^lm (d_i g_mj + d_j g_mi - d_m g_ij)
    R_ijkl     = sum_m g_im (d_k Gamma^m_lj - d_l Gamma^m_kj
                             + sum_p (Gamma^m_kp Gamma^p_lj
                                      - Gamma^m_lp Gamma^p_kj))
    S_jk       = sum_{i,l} g^il R_ijkl
    kappa      = g^jk S_jk

With these choices the scalar curvature of a round sphere of radius a comes
out as -2/a^2; all catalog reports and golden tables use this convention
consistently.

riemann computes R from the first-kind Gamma_{m,ij} = g_ml Gamma^l_ij:
g_im d_k Gamma^m_lj = d_k Gamma_{i,lj} - (Gamma_{i,mk} + Gamma_{m,ik})
Gamma^m_lj, and the Gamma_{i,mk} terms cancel the sum over p, so
    R_ijkl = d_k Gamma_{i,lj} - d_l Gamma_{i,kj}
             + Gamma_{m,li} Gamma^m_kj - Gamma_{m,ki} Gamma^m_lj
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .chart import Chart
from .expr import Atom, Expression, ONE, ZERO
from .parsing import MetricSpec, TNode
from .tensor import (Connection, D_ANTI2, D_RIEMANN, D_SYM2, Metric, Tensor,
                     TensorError, covariant_derivative, divergence_first,
                     dot_action, endo_square, kulkarni_nomizu, tachibana,
                     trace2)


def christoffel(g: Metric) -> Connection:
    n = g.dim
    coords = g.chart.coords
    dg = [[[g.lower(i, j).derivative(coords[k]) for k in range(n)]
           for j in range(n)] for i in range(n)]
    half = Expression.from_fraction(Fraction(1, 2))
    first = _symmetric(n, lambda m, i, j: half * (
        dg[m][j][i] + dg[m][i][j] - dg[i][j][m]))
    gamma = _symmetric(n, lambda l, i, j: g.raise_index(
        l, lambda m: first[m][i][j]))
    return Connection(g.chart, gamma, first)


def _symmetric(n: int, f) -> tuple:
    """table[a][i][j] = f(a, i, j), formed for i <= j and shared by (j, i)."""
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for i in range(n):
            for j in range(i, n):
                table[a][i][j] = table[a][j][i] = f(a, i, j)
    return tuple(tuple(map(tuple, plane)) for plane in table)


def riemann(conn: Connection, g: Metric) -> Tensor:
    first, gamma, coords = conn.first, conn.gamma, g.chart.coords

    def entry(idx):
        i, j, k, l = idx
        total = (first[i][l][j].derivative(coords[k])
                 - first[i][k][j].derivative(coords[l]))
        for m in range(g.dim):
            total = (total + first[m][l][i] * gamma[m][k][j]
                     - first[m][k][i] * gamma[m][l][j])
        return total

    return Tensor.compute(g.chart, 4, D_RIEMANN, entry)


def ricci(r: Tensor, g: Metric) -> Tensor:
    def entry(idx):
        j, k = idx
        return g.contract(lambda i, l: r.get((i, j, k, l)))

    return Tensor.compute(g.chart, 2, D_SYM2, entry)


def energy_momentum(s: Tensor, kappa: Expression, g: Metric) -> Tensor:
    c4 = Expression.from_atom(Atom.constant("c")) ** 4
    denom = (Expression.from_int(8) * Expression.from_atom(Atom.constant("pi"))
             * Expression.from_atom(Atom.constant("G")))
    factor = c4 / denom
    half_kappa = kappa / 2

    def entry(idx):
        i, j = idx
        return factor * (s.get((i, j)) - half_kappa * g.lower(i, j))

    return Tensor.compute(g.chart, 2, D_SYM2, entry)


class CurvatureBundle:
    """All curvature data of one metric, built lazily and cached.

    Everything is immutable once computed; recomputation is idempotent."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.chart: Chart = spec.chart
        self.name = spec.name
        self.metric = Metric(spec.chart, spec.matrix, spec.name)
        self.memo: dict[tuple, tuple] = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    @cached_property
    def connection(self) -> Connection:
        return christoffel(self.metric)

    @cached_property
    def g_tensor(self) -> Tensor:
        return self.metric.as_tensor()

    @cached_property
    def riemann(self) -> Tensor:
        return riemann(self.connection, self.metric)

    @cached_property
    def ricci(self) -> Tensor:
        return ricci(self.riemann, self.metric)

    @cached_property
    def kappa(self) -> Expression:
        return trace2(self.ricci, self.metric)

    @cached_property
    def gaussian(self) -> Tensor:
        """G = 1/2 (g ^ g)."""
        return kulkarni_nomizu(self.g_tensor, self.g_tensor).scale(
            Expression.from_fraction(Fraction(1, 2)))

    @cached_property
    def projective(self) -> Tensor:
        """P = R - 1/(n-1) * D, D(X1..X4) = S(X2,X3)g(X1,X4) - S(X1,X3)g(X2,X4)."""
        n = self.dim
        s, g = self.ricci, self.metric

        def entry(idx):
            i, j, k, l = idx
            return s.get((j, k)) * g.lower(i, l) - s.get((i, k)) * g.lower(j, l)

        ds = Tensor.compute(self.chart, 4, D_ANTI2, entry)
        return self.riemann.sub(ds.scale(ONE / (n - 1)))

    @cached_property
    def conharmonic(self) -> Tensor:
        """K = R - 1/(n-2) (g ^ S)."""
        n = self.dim
        if n <= 2:
            raise TensorError("conharmonic tensor needs dimension >= 3")
        gs = kulkarni_nomizu(self.g_tensor, self.ricci)
        return self.riemann.sub(gs.scale(ONE / (n - 2)))

    @cached_property
    def concircular(self) -> Tensor:
        """W = R - kappa/(n(n-1)) G."""
        n = self.dim
        return self.riemann.sub(self.gaussian.scale(self.kappa / (n * (n - 1))))

    @cached_property
    def weyl(self) -> Tensor:
        """C = K + kappa/((n-2)(n-1)) G."""
        n = self.dim
        if n <= 2:
            raise TensorError("conformal tensor needs dimension >= 3")
        return self.conharmonic.add(
            self.gaussian.scale(self.kappa / ((n - 2) * (n - 1))))

    @cached_property
    def energy_momentum(self) -> Tensor:
        return energy_momentum(self.ricci, self.kappa, self.metric)

    _NAMES = {"R": "riemann", "S": "ricci", "C": "weyl", "P": "projective",
              "W": "concircular", "K": "conharmonic", "G": "gaussian",
              "g": "g_tensor", "T": "energy_momentum"}

    def tensor(self, name: str) -> Tensor:
        attr = self._NAMES.get(name)
        if attr is None:
            raise TensorError(f"unknown tensor name {name!r}")
        return getattr(self, attr)

    def nabla(self, name: str) -> Tensor:
        return evaluate_tensor_ast(TNode("nabla", TNode(name)), self,
                                   self.memo)


def once(memo: dict, fn, *operands):
    """fn(*operands), computed once per fn and operand objects: the entry
    keeps its operands alive, so that no id in its key is reused.  A tuple
    operand counts by its items, a name by its text and an Expression by
    its printed form, so that each parse of one coefficient meets the
    others.  fn is passed as a module global, so a wrapper rebound there
    sees each call."""
    key = (fn,) + tuple(map(_key, operands))
    got = memo.get(key)
    if got is None:
        got = memo[key] = (operands, fn(*operands))
    return got[1]


def _key(operand):
    if type(operand) is tuple:
        return tuple(map(_key, operand))
    if type(operand) is Expression:
        return Expression, str(operand)
    return operand if type(operand) is str else id(operand)


def evaluate_tensor_ast(node, bundle: CurvatureBundle, memo: dict) -> Tensor:
    """Evaluate a tensor AST node against a bundle; memo is bundle.memo.
    div T is divergence_first of nabla T, and each operation is read as a
    module global at the call (see once)."""
    if not node.args:
        return bundle.tensor(node.op)
    op = node.op
    args = [evaluate_tensor_ast(a, bundle, memo) for a in node.args]
    if op in ("nabla", "div"):
        args = [once(memo, covariant_derivative, *args, bundle.connection)]
        if op == "nabla":
            return args[0]
    if op in ("dot", "div", "^2"):
        args.append(bundle.metric)
    fn = {"dot": dot_action, "Q": tachibana, "wedge": kulkarni_nomizu,
          "div": divergence_first, "^2": endo_square}[op]
    return once(memo, fn, *args)
