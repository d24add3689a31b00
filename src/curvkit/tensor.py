"""Valence-(0,k) component tables with symmetry-aware sparse storage,
metric inversion, covariant differentiation, and Kulkarni-Nomizu products.

Indices are 0-based internally; every public text format is 1-based.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .chart import Chart
from .expr import Expression, ExprError, ONE, ZERO


class TensorError(ExprError):
    pass


# descriptor ops: ("anti", a, b) | ("sym", a, b) | ("block", a, b, c, d)
SYM2 = (("sym", 0, 1),)
RIEMANN = (("anti", 0, 1), ("anti", 2, 3), ("block", 0, 1, 2, 3))


def _apply_op(op, idx: tuple) -> tuple[tuple, int]:
    t = list(idx)
    if op[0] == "block":
        _, a, b, c, d = op
        t[a], t[b], t[c], t[d] = t[c], t[d], t[a], t[b]
        return tuple(t), 1
    _, a, b = op
    t[a], t[b] = t[b], t[a]
    return tuple(t), -1 if op[0] == "anti" else 1


class Descriptor:
    """A finite set of index symmetries generating a signed orbit structure.

    Descriptors are interned per ops: Descriptor(ops) returns one shared
    instance, so its orbit caches live for the whole process."""

    __slots__ = ("ops", "_cache", "_reps")
    _interned: dict = {}

    def __new__(cls, ops):
        ops = tuple(tuple(op) for op in ops)
        self = cls._interned.get(ops)
        if self is None:
            self = super().__new__(cls)
            self.ops = ops
            self._cache: dict[tuple, tuple[tuple, int]] = {}
            self._reps: dict[tuple, tuple] = {}
            cls._interned[ops] = self
        return self

    def __reduce__(self):
        return Descriptor, (self.ops,)

    def __repr__(self):
        return f"Descriptor{self.ops!r}"

    def canon(self, idx: tuple) -> tuple[tuple, int]:
        """Canonical representative and relative sign: value(idx) equals
        sign * value(rep).  Sign 0 means the orbit forces the value to 0."""
        got = self._cache.get(idx)
        if got is not None:
            return got
        phase = {idx: 1}
        frontier = [idx]
        zero = False
        while frontier:
            nxt = []
            for t in frontier:
                pt = phase[t]
                for op in self.ops:
                    t2, s = _apply_op(op, t)
                    p2 = pt * s
                    old = phase.get(t2)
                    if old is None:
                        phase[t2] = p2
                        nxt.append(t2)
                    elif old != p2:
                        zero = True
            frontier = nxt
        rep = min(phase)
        for t, pt in phase.items():
            # value(t) = phase-relative sign * value(rep)
            self._cache[t] = (rep, 0 if zero else pt * phase[rep])
        return self._cache[idx]

    def reps(self, n: int, k: int) -> tuple:
        """Lex-ordered k-tuples over range(n) that represent an orbit not
        forced to zero.  A representative is its orbit's minimum, so a walk
        over reps meets each such orbit where the n^k walk first would."""
        got = self._reps.get((n, k))
        if got is None:
            got = self._reps[n, k] = tuple(
                idx for idx in itertools.product(range(n), repeat=k)
                if self.canon(idx) == (idx, 1))
        return got

    def with_extra(self, *ops) -> "Descriptor":
        return Descriptor(self.ops + tuple(ops))


D_NONE2 = Descriptor(())
D_SYM2 = Descriptor(SYM2)
D_RIEMANN = Descriptor(RIEMANN)
D_ANTI2 = Descriptor((("anti", 0, 1),))


@dataclass(frozen=True)
class Tensor:
    """Immutable (0,k) component table storing nonzero canonical
    representatives only."""

    chart: Chart
    valence: int
    descriptor: Descriptor
    comps: dict = field(default_factory=dict)

    @staticmethod
    def from_dense(chart: Chart, valence: int, descriptor: Descriptor,
                   getter, verify: bool = True) -> "Tensor":
        """Build from a function idx -> Expression over all index tuples.
        With verify, every tuple is checked against its representative."""
        n = chart.dim
        comps = {}
        seen = {}
        for idx in itertools.product(range(n), repeat=valence):
            rep, sign = descriptor.canon(idx)
            if idx == rep:
                v = getter(idx)
                if sign == 0:
                    if not v.is_zero:
                        raise TensorError(
                            f"symmetry forces component {idx} to vanish, got {v}")
                elif not v.is_zero:
                    comps[idx] = v
                if verify:
                    seen[idx] = v
            elif verify:
                v = getter(idx)
                want = seen[rep] * sign if sign else ZERO
                if not (v == want):
                    raise TensorError(
                        f"component {idx} breaks the declared symmetry: "
                        f"{v} vs {want}")
        return Tensor(chart, valence, descriptor, comps)

    @staticmethod
    def from_reps(chart: Chart, valence: int, descriptor: Descriptor,
                  comps: dict) -> "Tensor":
        out = {}
        for idx, v in comps.items():
            rep, sign = descriptor.canon(idx)
            if rep != idx:
                raise TensorError(f"{idx} is not a canonical representative")
            if sign == 0:
                if not v.is_zero:
                    raise TensorError(
                        f"symmetry forces component {idx} to vanish")
                continue
            if not v.is_zero:
                out[idx] = v
        return Tensor(chart, valence, descriptor, out)

    @staticmethod
    def compute(chart: Chart, valence: int, descriptor: Descriptor,
                getter) -> "Tensor":
        """Evaluate the getter on canonical representatives only."""
        comps = {}
        for idx in descriptor.reps(chart.dim, valence):
            v = getter(idx)
            if not v.is_zero:
                comps[idx] = v
        return Tensor(chart, valence, descriptor, comps)

    def get(self, idx: tuple) -> Expression:
        rep, sign = self.descriptor.canon(tuple(idx))
        if sign == 0:
            return ZERO
        v = self.comps.get(rep)
        if v is None:
            return ZERO
        return v if sign == 1 else -v

    def get1(self, *idx: int) -> Expression:
        """1-based component access."""
        return self.get(tuple(i - 1 for i in idx))

    def iter_nonzero(self):
        """Canonical nonzero representatives in lexicographic index order."""
        for idx in sorted(self.comps):
            yield idx, self.comps[idx]

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def map(self, f) -> "Tensor":
        out = {}
        for idx, v in self.comps.items():
            w = f(v)
            if not w.is_zero:
                out[idx] = w
        return Tensor(self.chart, self.valence, self.descriptor, out)

    def scale(self, c: Expression) -> "Tensor":
        if c.is_zero:
            return Tensor(self.chart, self.valence, self.descriptor, {})
        return self.map(lambda v: v * c)

    def add(self, other: "Tensor") -> "Tensor":
        """Componentwise sum; the result keeps only symmetries common to both
        descriptors (set intersection of ops)."""
        self._check_same_shape(other)
        return Tensor.compute(self.chart, self.valence,
                              common_descriptor((self, other)),
                              lambda idx: self.get(idx) + other.get(idx))

    def sub(self, other: "Tensor") -> "Tensor":
        return self.add(other.scale(-ONE))

    def equals(self, other: "Tensor") -> bool:
        self._check_same_shape(other)
        walk = common_descriptor((self, other)).reps(self.chart.dim,
                                                     self.valence)
        return all(self.get(idx) == other.get(idx) for idx in walk)

    def _check_same_shape(self, other: "Tensor"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise TensorError("tensors live on different charts")
        if self.valence != other.valence:
            raise TensorError(
                f"valence mismatch: {self.valence} vs {other.valence}")


def common_descriptor(tensors) -> Descriptor:
    """The symmetries shared by every tensor in a non-empty iterable; each
    of them holds for any linear combination of the tensors."""
    first, *rest = tensors
    return Descriptor(op for op in first.descriptor.ops
                      if all(op in t.descriptor.ops for t in rest))


# ---------------------------------------------------------------------------
# metric

class Metric:
    """Nondegenerate symmetric (0,2) tensor with a verified inverse."""

    def __init__(self, chart: Chart, matrix, name: str = ""):
        self.chart = chart
        self.name = name
        n = chart.dim
        self.matrix = tuple(tuple(matrix[i][j] for j in range(n))
                            for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if not (self.matrix[i][j] == self.matrix[j][i]):
                    raise TensorError(f"metric is not symmetric at ({i},{j})")
        self.det = determinant(self.matrix)
        if self.det.is_zero:
            raise TensorError("metric is degenerate")
        self.inverse = _adjugate_inverse(self.matrix, self.det)
        for i in range(n):
            for j in range(n):
                s = ZERO
                for k in range(n):
                    s = s + self.matrix[i][k] * self.inverse[k][j]
                want = ONE if i == j else ZERO
                if not (s == want):
                    raise TensorError("metric inverse failed verification")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def lower(self, i: int, j: int) -> Expression:
        return self.matrix[i][j]

    def upper(self, i: int, j: int) -> Expression:
        return self.inverse[i][j]

    def as_tensor(self) -> Tensor:
        n = self.dim
        comps = {}
        for i in range(n):
            for j in range(i, n):
                if not self.matrix[i][j].is_zero:
                    comps[(i, j)] = self.matrix[i][j]
        return Tensor(self.chart, 2, D_SYM2, comps)


def determinant(m) -> Expression:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ZERO
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        cof = m[0][j] * determinant(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def _adjugate_inverse(m, det: Expression):
    n = len(m)
    inv = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[a][b] for b in range(n) if b != j]
                     for a in range(n) if a != i]
            cof = determinant(minor) if n > 1 else ONE
            if (i + j) % 2:
                cof = -cof
            inv[j][i] = cof / det
    return tuple(tuple(row) for row in inv)


# ---------------------------------------------------------------------------
# connection and covariant derivative

@dataclass(frozen=True)
class Connection:
    """Christoffel symbols gamma[l][i][j], symmetric in (i, j)."""

    chart: Chart
    gamma: tuple   # gamma[l][i][j] -> Expression

    def __getitem__(self, lij):
        l, i, j = lij
        return self.gamma[l][i][j]


def covariant_derivative(t: Tensor, conn: Connection) -> Tensor:
    """(0,k) -> (0,k+1); the differentiation slot is the LAST index."""
    chart = t.chart
    n = chart.dim
    coords = chart.coords
    k = t.valence
    gamma = conn.gamma

    def entry(idx: tuple) -> Expression:
        head, x = idx[:k], idx[k]
        v = t.get(head).derivative(coords[x])
        for s in range(k):
            for l in range(n):
                gam = gamma[l][x][head[s]]
                if gam.is_zero:
                    continue
                tv = t.get(head[:s] + (l,) + head[s + 1:])
                if not tv.is_zero:
                    v = v - gam * tv
        return v

    return Tensor.compute(chart, k + 1, t.descriptor, entry)


# ---------------------------------------------------------------------------
# products and contractions

def kulkarni_nomizu(a: Tensor, e: Tensor) -> Tensor:
    """(A ^ E)(X1,X2,X3,X4) = A(X1,X4)E(X2,X3) + A(X2,X3)E(X1,X4)
    - A(X1,X3)E(X2,X4) - A(X2,X4)E(X1,X3); needs A, E symmetric."""
    for t in (a, e):
        if t.valence != 2 or t.descriptor != D_SYM2:
            raise TensorError("kulkarni_nomizu needs symmetric (0,2) tensors")

    def entry(idx):
        i, j, k, l = idx
        return (a.get((i, l)) * e.get((j, k)) + a.get((j, k)) * e.get((i, l))
                - a.get((i, k)) * e.get((j, l)) - a.get((j, l)) * e.get((i, k)))

    return Tensor.compute(a.chart, 4, D_RIEMANN, entry)


def trace2(t: Tensor, g: Metric) -> Expression:
    """Full metric trace of a (0,2) tensor."""
    if t.valence != 2:
        raise TensorError("trace2 needs a (0,2) tensor")
    n = g.dim
    s = ZERO
    for i in range(n):
        for j in range(n):
            gij = g.upper(i, j)
            if gij.is_zero:
                continue
            v = t.get((i, j))
            if not v.is_zero:
                s = s + gij * v
    return s


def endo_square(e: Tensor, g: Metric) -> Tensor:
    """(0,2) tensor of the squared endomorphism: (E^2)(X,Y) = g(EEX, Y),
    componentwise sum_{k,l} E_ik g^kl E_lj."""
    n = g.dim

    def entry(idx):
        i, j = idx
        s = ZERO
        for k in range(n):
            for l in range(n):
                gkl = g.upper(k, l)
                if gkl.is_zero:
                    continue
                a = e.get((i, k))
                if a.is_zero:
                    continue
                b = e.get((l, j))
                if not b.is_zero:
                    s = s + a * gkl * b
        return s

    return Tensor.compute(e.chart, 2, D_SYM2, entry)


def divergence_first(nt: Tensor, g: Metric) -> Tensor:
    """g^{im} (nabla T)[i, rest..., m]: contract the first slot of a
    covariant derivative nabla T with its derivative slot, the last.  The
    result keeps the symmetries of T among the slots after the first."""
    n = g.dim
    k = nt.valence - 1
    desc = Descriptor(op[:1] + tuple(a - 1 for a in op[1:])
                      for op in nt.descriptor.ops
                      if 0 not in op[1:] and k not in op[1:])

    def entry(rest):
        s = ZERO
        for i in range(n):
            for m in range(n):
                gim = g.upper(i, m)
                if gim.is_zero:
                    continue
                v = nt.get((i,) + rest + (m,))
                if not v.is_zero:
                    s = s + gim * v
        return s

    return Tensor.compute(nt.chart, k - 1, desc, entry)


# ---------------------------------------------------------------------------
# dumping

def format_component_lines(name: str, t: Tensor) -> list[str]:
    out = []
    for idx, v in t.iter_nonzero():
        subs = "".join(f"[{i + 1}]" for i in idx)
        out.append(f"{name}{subs} = {v}")
    return out


def format_dump(name: str, t: Tensor, fmt: str = "text") -> str:
    if fmt == "text":
        return "\n".join(format_component_lines(name, t))
    if fmt == "json-lines":
        rows = []
        for idx, v in t.iter_nonzero():
            rows.append(json.dumps(
                {"tensor": name, "index": [i + 1 for i in idx],
                 "value": str(v)}, separators=(",", ":")))
        return "\n".join(rows)
    raise TensorError(f"unknown dump format {fmt!r}")
