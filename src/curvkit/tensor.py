"""Valence-(0,k) component tables with symmetry-aware sparse storage, the
metric with every contraction by its inverse, covariant differentiation,
Kulkarni-Nomizu products and the operator actions.

Two tensor-valued operations extend a (0,k) tensor to a (0,k+2) tensor: the
action of a curvature-type operator as a derivation, and the endomorphism
action attached to a symmetric (0,2) tensor.

A table that stores no component and has no getter is known zero
(Tensor.known_zero), which is read without evaluating anything; is_zero
evaluates.  Every table builder given a known-zero operand returns an empty
stored table, known zero itself, with the descriptor its getter table would
have had, and builds no raised-index table for it.

Indices are 0-based internally; every public text format is 1-based.
"""

from __future__ import annotations

import itertools
import operator

from .chart import Chart
from .expr import Expression, ExprError, ONE, Record, ZERO
from .linsolve import LinearEquation, solve_linear


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
    instance, so its tables live for the whole process.  For each valence
    k the ops are closed once into the group of signed position
    permutations they generate, each stored as an itemgetter; canon maps
    an index through that group instead of searching its orbit.  reps
    builds its table in the time the orbits take where the positions
    split into blocks no op spans (the (0,6) operator products), and
    scans the n^k tuples only within one block."""

    __slots__ = ("ops", "_cache", "_reps", "_groups")
    _interned: dict = {}

    def __new__(cls, ops):
        ops = tuple(tuple(op) for op in ops)
        self = cls._interned.get(ops)
        if self is None:
            self = super().__new__(cls)
            self.ops = ops
            self._cache: dict[tuple, tuple[tuple, int]] = {}
            self._reps: dict[tuple, tuple] = {}
            self._groups: dict[int, tuple] = {}
            cls._interned[ops] = self
        return self

    def __reduce__(self):
        return Descriptor, (self.ops,)

    def __repr__(self):
        return f"Descriptor{self.ops!r}"

    def _group(self, k: int) -> tuple:
        """((getter, sign), ...) over the signed permutations of k-tuples
        the ops generate: value(getter(idx)) = sign * value(idx).  A
        permutation reached with both signs is listed with both."""
        got = self._groups.get(k)
        if got is None:
            # an op applied to a permutation p composes it after p
            seen, new = set(), {(tuple(range(k)), 1)}
            while new:
                seen |= new
                new = {(q, s * t) for p, s in new for op in self.ops
                       for q, t in [_apply_op(op, p)]} - seen
            # itemgetter of one position returns the entry, not a 1-tuple;
            # below two positions every permutation is the identity
            got = self._groups[k] = tuple(
                (operator.itemgetter(*p) if k > 1 else tuple, s)
                for p, s in sorted(seen))
        return got

    def canon(self, idx: tuple) -> tuple[tuple, int]:
        """Canonical representative and relative sign: value(idx) equals
        sign * value(rep).  Sign 0 means the orbit forces the value to 0."""
        got = self._cache.get(idx)
        if got is not None:
            return got
        images = [(g(idx), s) for g, s in self._group(len(idx))]
        rep, s_rep = min(images)
        zero = any(t == idx and s < 0 for t, s in images)
        for t, s in images:
            # value(t) = s * value(idx) = s * s_rep * value(rep)
            self._cache[t] = (rep, 0 if zero else s * s_rep)
        return self._cache[idx]

    def reps(self, n: int, k: int) -> tuple:
        """Lex-ordered k-tuples over range(n) that represent an orbit not
        forced to zero: no group element maps one lower, and none that
        fixes it flips its sign.  A representative is its orbit's minimum,
        so a walk over reps meets each such orbit where the n^k walk first
        would.

        The positions split into blocks at every cut no op spans (an op
        spans its least to its greatest position).  The group is then the
        product of the blocks' groups: a tuple is its orbit's minimum when
        each block is, and a stabilizer flips its sign when some block's
        does.  So over several blocks the table is the lex-ordered product
        of the blocks' tables, and only a single block is scanned.  Each
        listed tuple is seeded into canon's cache as its own form."""
        got = self._reps.get((n, k))
        if got is None:
            blocks = self._blocks(k)
            if len(blocks) > 1:
                got = tuple(
                    sum(parts, ()) for parts in itertools.product(
                        *(Descriptor(op[:1] + tuple(p - a for p in op[1:])
                                     for op in self.ops if a <= op[1] < b)
                          .reps(n, b - a) for a, b in blocks)))
            else:
                group = self._group(k)
                out = []
                for idx in itertools.product(range(n), repeat=k):
                    for g, s in group:
                        t = g(idx)
                        if t < idx or (s < 0 and t == idx):
                            break
                    else:
                        out.append(idx)
                got = tuple(out)
            self._reps[n, k] = got
            for idx in got:
                self._cache.setdefault(idx, (idx, 1))
        return got

    def _blocks(self, k: int) -> list[tuple[int, int]]:
        """[(start, stop), ...]: the positions 0..k-1 cut wherever no op
        spans the cut."""
        # reach[a]: the greatest position spanned by an op that starts at a
        reach = [0] * k
        for op in self.ops:
            a = min(op[1:])
            reach[a] = max(reach[a], *op[1:])
        blocks, start, end = [], 0, 0
        for a in range(k):
            if a > end:
                blocks.append((start, a))
                start = a
            end = max(end, reach[a])
        blocks.append((start, k))
        return blocks

    def with_extra(self, *ops) -> "Descriptor":
        return Descriptor(self.ops + tuple(ops))


D_NONE2 = Descriptor(())
D_SYM2 = Descriptor(SYM2)
D_RIEMANN = Descriptor(RIEMANN)
D_ANTI2 = Descriptor((("anti", 0, 1),))
_UNREAD = object()      # a getter table's representative not yet read


class Tensor(Record):
    """Immutable (0,k) component table storing nonzero canonical
    representatives only.  A table built with a getter evaluates each on
    its first read and keeps the value, a zero too; a read of comps fills
    it in reps order.  Once all are read, the getter, with any product
    memo and the operands it holds, is released, and a table left with no
    component is then known zero."""

    __slots__ = ("chart", "valence", "descriptor", "_comps", "getter",
                 "_unread")
    _fields = ("chart", "valence", "descriptor", "comps")

    def __init__(self, chart: Chart, valence: int, descriptor: Descriptor,
                 comps: dict | None = None, getter=None):
        self.chart = chart
        self.valence = valence
        self.descriptor = descriptor
        self._comps = {} if comps is None else comps
        self.getter = getter
        if getter is not None:
            # representative -> _UNREAD, then its value, None if zero
            self._comps = dict.fromkeys(descriptor.reps(chart.dim, valence),
                                        _UNREAD)
            self._unread = len(self._comps)

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

    # bench/tracing.py wraps Tensor.from_dense by name; the alias goes with
    # the next change to the benchmark
    from_dense = compute

    @property
    def comps(self) -> dict:
        """{representative: value} over the nonzero representatives."""
        if self.getter is not None:
            # the last representative read releases the getter
            Tensor.compute(self.chart, self.valence, self.descriptor,
                           self.get)
        return self._comps

    def stored(self, idx: tuple) -> tuple[Expression | None, int]:
        """(v, sign) with value(idx) = sign * v, v the stored object of
        idx's canonical representative; (None, 0) when the symmetries
        force the component to zero or its value is zero."""
        rep, sign = self.descriptor.canon(tuple(idx))
        v = self._comps.get(rep) if sign else None
        if v is None:
            return None, 0
        if v is _UNREAD:
            v = self._read(rep)
            if v is None:
                return None, 0
        return v, sign

    def _read(self, rep: tuple) -> Expression | None:
        """rep's value, evaluated on its first read; None if zero."""
        v = self.getter(rep)
        v = self._comps[rep] = None if v.is_zero else v
        self._unread -= 1
        if not self._unread:
            self._comps = {r: w for r, w in self._comps.items()
                           if w is not None}
            self.getter = None
        return v

    def get(self, idx: tuple) -> Expression:
        v, sign = self.stored(idx)
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
    def known_zero(self) -> bool:
        """Whether the table is zero without evaluating anything: it stores
        no component and has no getter left to evaluate one."""
        return self.getter is None and not self._comps

    @property
    def is_zero(self) -> bool:
        return all(self.stored(rep)[0] is None for rep in self._comps)

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
        descriptors (set intersection of ops).  A zero operand whose common
        descriptor with the other is the other's own gives that other."""
        self._check_same_shape(other)
        desc = common_descriptor((self, other))
        for t, zero in ((self, other), (other, self)):
            if zero.is_zero and desc is t.descriptor:
                return t
        return Tensor.compute(self.chart, self.valence, desc,
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
        # id(tensor) -> (tensor, its raised_last table)
        self._raised: dict[int, tuple[Tensor, dict]] = {}
        n = chart.dim
        self.matrix = tuple(tuple(matrix[i][j] for j in range(n))
                            for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if not (self.matrix[i][j] == self.matrix[j][i]):
                    raise TensorError(f"metric is not symmetric at ({i},{j})")
        # g X = I, one unknown (k, j) per entry of X
        eqs = [LinearEquation({(k, j): self.matrix[i][k] for k in range(n)},
                              ONE if i == j else ZERO, (i, j))
               for j in range(n) for i in range(n)]
        solved = solve_linear(eqs, [(k, j) for j in range(n)
                                    for k in range(n)])
        if solved.status != "unique":
            raise TensorError("metric is degenerate")
        self.inverse = tuple(tuple(solved.solution[(k, j)].const
                                   for j in range(n)) for k in range(n))
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

    def raise_index(self, l: int, f) -> Expression:
        """sum_m g^{lm} f(m)."""
        s = ZERO
        for m in range(self.dim):
            glm = self.inverse[l][m]
            if glm.is_zero:
                continue
            v = f(m)
            if not v.is_zero:
                s = s + glm * v
        return s

    def contract(self, f) -> Expression:
        """sum_{a,b} g^{ab} f(a, b), summed in (a, b) order."""
        s = ZERO
        for a in range(self.dim):
            for b in range(self.dim):
                gab = self.inverse[a][b]
                if gab.is_zero:
                    continue
                v = f(a, b)
                if not v.is_zero:
                    s = s + gab * v
        return s

    def as_tensor(self) -> Tensor:
        return Tensor.compute(self.chart, 2, D_SYM2,
                              lambda ij: self.lower(*ij))


def raised_last(t: Tensor, g: Metric) -> dict:
    """{head: ((l, value), ...)} with t's last index raised by g: value is
    sum_m g^{lm} t[head + (m,)], listed for nonzero values in l order.

    Sums are formed only for heads canonical under t's ops that leave the
    last slot alone (Riemann's anti(0,1): 24 of 64 heads at n = 4); every
    other head's row is its representative's, negated entry by entry when
    the sign is -1, and a head those ops force to zero gets ().  The
    bytes equal the full n^(k+1) evaluation: each term g^{lm} * (-v) is
    -(g^{lm} * v) term for term (normalisation ignores the numerator's
    sign and Poly negation keeps term order), so each sum is the negated
    sum as well.

    Built once per tensor and metric: g keeps each table by the tensor's
    identity, together with the tensor, so that its id is not reused while
    the entry lives.  Tensors are immutable, so the table stays valid."""
    got = g._raised.get(id(t))
    if got is None:
        got = g._raised[id(t)] = (t, _raise_last(t, g))
    return got[1]


def _raise_last(t: Tensor, g: Metric) -> dict:
    n, k = g.dim, t.valence
    heads = Descriptor(op for op in t.descriptor.ops if max(op[1:]) < k - 1)
    table = {}
    # lex order meets each orbit's representative, its minimum, first
    for head in itertools.product(range(n), repeat=k - 1):
        rep, sign = heads.canon(head)
        if sign == 0:
            table[head] = ()
        elif rep != head:
            row = table[rep]
            table[head] = row if sign == 1 else tuple((l, -v) for l, v in row)
        else:
            col = [t.get(head + (m,)) for m in range(n)]
            if all(v.is_zero for v in col):
                table[head] = ()
                continue
            row = ((l, g.raise_index(l, col.__getitem__)) for l in range(n))
            table[head] = tuple((l, v) for l, v in row if not v.is_zero)
    return table


# ---------------------------------------------------------------------------
# connection and covariant derivative

class Connection(Record):
    """Christoffel symbols gamma[l][i][j] and the kept first-kind table
    first[m][i][j], symmetric in (i, j); equal on chart and gamma."""

    __slots__ = ("chart", "gamma", "first")
    _fields = ("chart", "gamma")

    def __init__(self, chart: Chart, gamma: tuple, first: tuple):
        self.chart = chart
        self.gamma = gamma   # gamma[l][i][j] -> Expression
        self.first = first   # first[m][i][j] -> Expression

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
    if t.known_zero:
        return Tensor(chart, k + 1, t.descriptor)

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
    if a.known_zero or e.known_zero:
        return Tensor(a.chart, 4, D_RIEMANN)

    def entry(idx):
        i, j, k, l = idx
        return (a.get((i, l)) * e.get((j, k)) + a.get((j, k)) * e.get((i, l))
                - a.get((i, k)) * e.get((j, l)) - a.get((j, l)) * e.get((i, k)))

    return Tensor.compute(a.chart, 4, D_RIEMANN, entry)


def _times(products: dict, a: Expression, b: Expression) -> Expression:
    """a * b, formed once per pair of stored objects: products is keyed by
    the operands' identities and lives with one product table, whose
    getter keeps both operands' tables alive."""
    key = (id(a), id(b))
    p = products.get(key)
    if p is None:
        p = products[key] = a * b
    return p


def dot_action(d: Tensor, h: Tensor, g: Metric) -> Tensor:
    """Act the operator attached to d on h: a (0,k+2) getter table.

    Component rule: (d.h)[i1..ik, x, y] = -sum over slots s and l of
    d^l[x, y, i_s] * h[.. l at s ..], where the l index is raised with g
    on d's fourth slot.

    Each product of a raised entry and a stored component of h is formed
    once per table and signed after the lookup: total - w*(-v) is written
    total + w*v.  The bytes are those of multiplying each signed read,
    since w*(-v) is -(w*v) term for term (see raised_last).
    """
    if d.valence != 4:
        raise TensorError("operator tensor must have valence 4")
    if ("anti", 0, 1) not in d.descriptor.ops:
        raise TensorError("operator tensor must be antisymmetric in its "
                          "first index pair")
    chart = h.chart
    k = h.valence
    desc = h.descriptor.with_extra(("anti", k, k + 1))
    if d.known_zero or h.known_zero:
        return Tensor(chart, k + 2, desc)
    raised = raised_last(d, g)
    products: dict = {}

    def entry(idx):
        head, x, y = idx[:k], idx[k], idx[k + 1]
        total = ZERO
        for s in range(k):
            for l, w in raised[(x, y, head[s])]:
                v, sign = h.stored(head[:s] + (l,) + head[s + 1:])
                if v is not None:
                    p = _times(products, w, v)
                    total = total - p if sign == 1 else total + p
        return total

    return Tensor(chart, k + 2, desc, getter=entry)


def tachibana(a: Tensor, h: Tensor) -> Tensor:
    """Endomorphism action Q(a,h): a (0,k+2) getter table, antisymmetric
    in the trailing pair.

    Component rule: Q(a,h)[i1..ik, x, y] = sum over slots s of
    a[x, i_s] * h[.. y at s ..] - a[y, i_s] * h[.. x at s ..].

    As in dot_action, each product of two stored components is formed
    once per table and the sign of the read of h is applied after it.
    """
    if a.valence != 2:
        raise TensorError("endomorphism base must have valence 2")
    if ("sym", 0, 1) not in a.descriptor.ops:
        raise TensorError("endomorphism base must be declared symmetric")
    chart = h.chart
    k = h.valence
    desc = h.descriptor.with_extra(("anti", k, k + 1))
    if a.known_zero or h.known_zero:
        return Tensor(chart, k + 2, desc)
    products: dict = {}

    def entry(idx):
        head, x, y = idx[:k], idx[k], idx[k + 1]
        total = ZERO
        for s in range(k):
            for c, e, sign in ((x, y, 1), (y, x, -1)):
                # a is symmetric, so a stored read of it has sign 1
                av, _ = a.stored((c, head[s]))
                if av is None:
                    continue
                hv, h_sign = h.stored(head[:s] + (e,) + head[s + 1:])
                if hv is not None:
                    p = _times(products, av, hv)
                    total = total + p if sign * h_sign == 1 else total - p
        return total

    return Tensor(chart, k + 2, desc, getter=entry)


def trace2(t: Tensor, g: Metric) -> Expression:
    """Full metric trace of a (0,2) tensor."""
    if t.valence != 2:
        raise TensorError("trace2 needs a (0,2) tensor")
    return g.contract(lambda i, j: t.get((i, j)))


def endo_square(e: Tensor, g: Metric) -> Tensor:
    """(0,2) tensor of the squared endomorphism: (E^2)(X,Y) = g(EEX, Y),
    componentwise sum_{k,l} E_ik g^kl E_lj, as a getter table."""
    if e.known_zero:
        return Tensor(e.chart, 2, D_SYM2)

    def entry(idx):
        i, j = idx
        return g.contract(lambda k, l: e.get((i, k)) * e.get((l, j)))

    return Tensor(e.chart, 2, D_SYM2, getter=entry)


def divergence_first(nt: Tensor, g: Metric) -> Tensor:
    """g^{im} (nabla T)[i, rest..., m]: contract the first slot of a
    covariant derivative nabla T with its derivative slot, the last.  The
    getter table keeps the symmetries of T among the slots after the
    first."""
    k = nt.valence - 1
    desc = Descriptor(op[:1] + tuple(a - 1 for a in op[1:])
                      for op in nt.descriptor.ops
                      if 0 not in op[1:] and k not in op[1:])
    if nt.known_zero:
        return Tensor(nt.chart, k - 1, desc)

    def entry(rest):
        return g.contract(lambda i, m: nt.get((i,) + rest + (m,)))

    return Tensor(nt.chart, k - 1, desc, getter=entry)


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
        import json
        rows = []
        for idx, v in t.iter_nonzero():
            rows.append(json.dumps(
                {"tensor": name, "index": [i + 1 for i in idx],
                 "value": str(v)}, separators=(",", ":")))
        return "\n".join(rows)
    raise TensorError(f"unknown dump format {fmt!r}")
