"""Levi-Civita connection, the curvature tensors built from it, and the
energy-momentum tensor.

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
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .chart import Chart
from .expr import Atom, Expression, ONE, ZERO
from .parsing import MetricSpec
from .tensor import (Connection, D_ANTI2, D_RIEMANN, D_SYM2, Metric, Tensor,
                     TensorError, covariant_derivative, divergence_first,
                     kulkarni_nomizu, trace2)


def christoffel(g: Metric) -> Connection:
    n = g.dim
    coords = g.chart.coords
    dg = [[[g.lower(i, j).derivative(coords[k]) for k in range(n)]
           for j in range(n)] for i in range(n)]
    half = Expression.from_fraction(Fraction(1, 2))
    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for j in range(i, n):
                s = ZERO
                for m in range(n):
                    glm = g.upper(l, m)
                    if glm.is_zero:
                        continue
                    s = s + glm * (dg[m][j][i] + dg[m][i][j] - dg[i][j][m])
                v = half * s
                gamma[l][i][j] = v
                gamma[l][j][i] = v
    return Connection(g.chart, tuple(tuple(tuple(row) for row in plane)
                                     for plane in gamma))


def riemann(conn: Connection, g: Metric) -> Tensor:
    n = g.dim
    coords = g.chart.coords
    gam = conn.gamma
    dgam = [[[[gam[m][i][j].derivative(coords[k]) for k in range(n)]
              for j in range(n)] for i in range(n)] for m in range(n)]

    def entry(idx):
        i, j, k, l = idx
        total = ZERO
        for m in range(n):
            gim = g.lower(i, m)
            if gim.is_zero:
                continue
            term = dgam[m][l][j][k] - dgam[m][k][j][l]
            for p in range(n):
                a = gam[m][k][p]
                b = gam[p][l][j]
                if not (a.is_zero or b.is_zero):
                    term = term + a * b
                a = gam[m][l][p]
                b = gam[p][k][j]
                if not (a.is_zero or b.is_zero):
                    term = term - a * b
            total = total + gim * term
        return total

    return Tensor.from_dense(g.chart, 4, D_RIEMANN, entry, verify=True)


def ricci(r: Tensor, g: Metric) -> Tensor:
    n = g.dim

    def entry(idx):
        j, k = idx
        s = ZERO
        for i in range(n):
            for l in range(n):
                gil = g.upper(i, l)
                if gil.is_zero:
                    continue
                v = r.get((i, j, k, l))
                if not v.is_zero:
                    s = s + gil * v
        return s

    return Tensor.from_dense(g.chart, 2, D_SYM2, entry, verify=True)


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
        self._nabla_cache: dict[str, Tensor] = {}

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
        t = self._nabla_cache.get(name)
        if t is None:
            t = covariant_derivative(self.tensor(name), self.connection)
            self._nabla_cache[name] = t
        return t

    def divergence(self, name: str) -> Tensor:
        return divergence_first(self.nabla(name), self.metric)
