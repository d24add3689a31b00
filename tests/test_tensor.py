"""Symmetry descriptors, component tables, metric algebra, dumps."""
import itertools
import json
import pickle

import pytest

from curvkit import Tensor, Metric, TensorError, covariant_derivative, \
    kulkarni_nomizu, endo_square, format_dump, classify, CurvatureBundle
from curvkit.chart import Chart
from curvkit.expr import Expression, ZERO, ONE, format_expression
from curvkit.curvature import evaluate_tensor_ast
from curvkit.parsing import (TNode, parse_expression, parse_identity,
                             parse_metric_file)
from curvkit.tensor import (
    Descriptor, D_SYM2, D_RIEMANN, D_ANTI2, D_NONE2, RIEMANN, SYM2,
    combination, trace2, divergence_first, format_component_lines,
    raised_last,
)

from curvkit import operators, tensor as tensor_mod
from conftest import (CATALOG, METRIC_FILES, disguise_zeros, disguised,
                      load_bundle)

CHART = Chart(coords=("x", "y"), constants=("a",))
X = parse_expression("x", CHART)
Y = parse_expression("y", CHART)
A = parse_expression("a", CHART)


class TestDescriptor:
    def test_sym2(self):
        rep, sign = D_SYM2.canon((1, 0))
        assert rep == (0, 1) and sign == 1

    def test_anti2(self):
        rep, sign = D_ANTI2.canon((1, 0))
        assert rep == (0, 1) and sign == -1
        _, sign = D_ANTI2.canon((1, 1))
        assert sign == 0

    def test_riemann_orbit(self):
        # first-pair swap flips, second-pair swap flips, pair exchange keeps
        rep, sign = D_RIEMANN.canon((1, 0, 2, 3))
        assert rep == (0, 1, 2, 3) and sign == -1
        rep, sign = D_RIEMANN.canon((0, 1, 3, 2))
        assert rep == (0, 1, 2, 3) and sign == -1
        rep, sign = D_RIEMANN.canon((2, 3, 0, 1))
        assert rep == (0, 1, 2, 3) and sign == 1
        _, sign = D_RIEMANN.canon((0, 0, 1, 2))
        assert sign == 0

    def test_with_extra(self):
        d = D_NONE2.with_extra(("sym", 0, 1))
        assert d == D_SYM2
        assert d is D_SYM2
        dot = D_RIEMANN.with_extra(("anti", 4, 5))
        assert dot is D_RIEMANN.with_extra(("anti", 4, 5))
        assert dot is Descriptor(RIEMANN + (("anti", 4, 5),))

    def test_interned_per_ops(self):
        assert Descriptor(RIEMANN) is D_RIEMANN
        assert Descriptor([list(op) for op in SYM2]) is D_SYM2
        assert Descriptor(()) is D_NONE2
        assert Descriptor(SYM2) is not D_ANTI2
        assert pickle.loads(pickle.dumps(D_RIEMANN)) is D_RIEMANN

    # (ops, valence) of every walk: tensor storage, the (0,6) and (0,4)
    # operator products, the identity and decision-procedure loops, and
    # the divergence of a (0,4) tensor
    WALKS = [
        ((), 1), ((), 3), (SYM2, 2), (SYM2, 3), ((("anti", 0, 1),), 2),
        ((("anti", 0, 1),), 3), ((("anti", 0, 1),), 4), (RIEMANN, 4),
        (RIEMANN, 5), (RIEMANN + (("anti", 4, 5),), 6),
        ((("anti", 0, 1), ("anti", 4, 5)), 6),
        (SYM2 + (("anti", 2, 3),), 4),
        ((("anti", 0, 1), ("anti", 1, 2), ("anti", 3, 4)), 5),
        ((("anti", 0, 1), ("anti", 1, 2)), 5),
        ((("anti", 0, 1), ("anti", 1, 2)), 4),
        ((("sym", 0, 1), ("sym", 1, 2)), 3),
        ((("anti", 1, 2),), 3),
        # block-product tables: an op spanning a free position, and the
        # conflicting ops (every orbit forced to zero) beside a free one
        ((("sym", 0, 2),), 4),
        ((("sym", 0, 1), ("anti", 0, 1)), 3),
    ]
    # three blocks at valence 8: the orbit search over n^8 tuples is too
    # slow beyond n = 3
    WALKS_SMALL_N = [(RIEMANN + (("anti", 4, 5), ("sym", 6, 7)), 8)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ops,k", WALKS)
    def test_reps_are_orbit_minima(self, ops, k, n):
        assert Descriptor(ops).reps(n, k) == _orbit_minima(ops, k, n)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("ops,k", WALKS_SMALL_N)
    def test_three_block_reps_are_orbit_minima(self, ops, k, n):
        assert Descriptor(ops).reps(n, k) == _orbit_minima(ops, k, n)

    FACTORIZABLE = [(ops, k) for ops, k in WALKS + WALKS_SMALL_N
                    if len(Descriptor(ops)._blocks(k)) > 1]

    @pytest.mark.parametrize("ops,k", FACTORIZABLE)
    def test_factorizable_reps_skip_the_full_group(self, ops, k):
        d = _fresh(ops)
        d.reps(3, k)
        # the group of valence k is what the n^k scan closes
        assert k not in d._groups

    def test_blocks(self):
        assert _fresh((("sym", 0, 2),))._blocks(4) == [(0, 3), (3, 4)]
        assert D_RIEMANN.with_extra(("anti", 4, 5))._blocks(6) == [
            (0, 4), (4, 6)]
        assert D_RIEMANN._blocks(4) == [(0, 4)]
        assert Descriptor(())._blocks(3) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("ops,k", WALKS + WALKS_SMALL_N)
    def test_canon_after_reps_matches_orbit_search(self, ops, k):
        # reps seeds canon's cache with its representatives; every index,
        # seeded or not, must still get the orbit search's answer
        d = _fresh(ops)
        d.reps(3, k)
        for idx in itertools.product(range(3), repeat=k):
            assert d.canon(idx) == _bfs_canon(ops, idx), idx

    # every op pair sets a sign both ways: each orbit is forced to zero
    CONFLICT = (("sym", 0, 1), ("anti", 0, 1))

    @pytest.fixture(scope="class")
    def classified(self):
        """The descriptors interned once classify has run on every catalog
        metric, with the conflicting one added."""
        for path in sorted(CATALOG.glob("*.metric")):
            classify(CurvatureBundle(parse_metric_file(path.read_text())))
        return [*Descriptor._interned.values(), Descriptor(self.CONFLICT)]

    def test_group_tables_match_orbit_search(self, classified):
        checked = 0
        for d in classified:
            # the valences classify walked, and the least the ops allow
            # (valence 1 for Descriptor(()))
            low = 1 + max((p for op in d.ops for p in op[1:]), default=0)
            for k in sorted({k for _, k in d._reps} | {low}):
                for n in range(1, 5):
                    walk = list(itertools.product(range(n), repeat=k))
                    want = {idx: _bfs_canon(d.ops, idx) for idx in walk}
                    assert d.reps(n, k) == tuple(
                        idx for idx in walk if want[idx] == (idx, 1))
                    for idx in walk:
                        assert d.canon(idx) == want[idx], (d, idx)
                    checked += 1
        assert checked > len(classified)

    def test_conflicting_ops_force_every_orbit_to_zero(self):
        d = Descriptor(self.CONFLICT)
        for k in (2, 3, 4):
            assert d.reps(4, k) == ()
            assert all(d.canon(idx)[1] == 0
                       for idx in itertools.product(range(4), repeat=k))


def _apply_op(op, idx: tuple) -> tuple[tuple, int]:
    t = list(idx)
    if op[0] == "block":
        _, a, b, c, d = op
        t[a], t[b], t[c], t[d] = t[c], t[d], t[a], t[b]
        return tuple(t), 1
    _, a, b = op
    t[a], t[b] = t[b], t[a]
    return tuple(t), -1 if op[0] == "anti" else 1


def _fresh(ops) -> Descriptor:
    """A descriptor on ops with empty tables, outside the interning, so no
    other test has built or reads its tables."""
    d = object.__new__(Descriptor)
    d.ops = tuple(tuple(op) for op in ops)
    d._cache, d._reps, d._groups = {}, {}, {}
    return d


def _orbit_minima(ops, k, n):
    return tuple(idx for idx in itertools.product(range(n), repeat=k)
                 if _bfs_canon(ops, idx) == (idx, 1))


def _bfs_canon(ops, idx):
    """Descriptor.canon by a search of idx's orbit, one op at a time: the
    orbit's minimum and value(idx) / value(minimum), 0 when two paths
    reach one tuple with opposite signs."""
    phase = {idx: 1}
    frontier = [idx]
    zero = False
    while frontier:
        nxt = []
        for t in frontier:
            pt = phase[t]
            for op in ops:
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
    return rep, 0 if zero else phase[rep]


def raise_first(t: Tensor, g: Metric):
    """Contract the first slot with the inverse metric over all index tuples.
    Returns a plain dict {(l, rest-indices): Expression} of nonzero mixed
    components."""
    n = g.dim
    out = {}
    for idx in itertools.product(range(n), repeat=t.valence):
        v = t.get(idx)
        if v.is_zero:
            continue
        for l in range(n):
            gi = g.upper(l, idx[0])
            if gi.is_zero:
                continue
            key = (l,) + idx[1:]
            cur = out.get(key)
            out[key] = gi * v if cur is None else cur + gi * v
    return {k: v for k, v in out.items() if not v.is_zero}


def _determinant(m) -> Expression:
    """Laplace expansion along the first row: the reference determinant."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ZERO
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        cof = m[0][j] * _determinant(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def _adjugate_inverse(m):
    """The reference inverse: transposed cofactors over the determinant."""
    n = len(m)
    det = _determinant(m)
    inv = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[a][b] for b in range(n) if b != j]
                     for a in range(n) if a != i]
            cof = _determinant(minor) if n > 1 else ONE
            if (i + j) % 2:
                cof = -cof
            inv[j][i] = cof / det
    return inv


def _tensor(comps, valence=2, desc=D_SYM2, chart=CHART):
    return Tensor.from_reps(chart, valence, desc, comps)


class TestTensor:
    def test_get_applies_sign(self):
        t = Tensor.from_reps(CHART, 2, D_ANTI2, {(0, 1): X})
        assert t.get((0, 1)) == X
        assert t.get((1, 0)) == -X
        assert t.get((0, 0)).is_zero

    def test_stored_gives_the_stored_object_and_sign(self):
        t = Tensor.from_reps(CHART, 2, D_ANTI2, {(0, 1): X})
        v = t.comps[(0, 1)]
        assert t.stored((0, 1)) == (v, 1) and t.stored((0, 1))[0] is v
        assert t.stored((1, 0))[0] is v and t.stored((1, 0))[1] == -1
        assert t.stored((0, 0)) == (None, 0)
        assert _tensor({}).stored((0, 1)) == (None, 0)

    def test_get1_is_one_based(self):
        t = _tensor({(0, 1): X})
        assert t.get1(1, 2) == X
        assert t.get1(2, 1) == X

    def test_from_reps_rejects_non_canonical(self):
        with pytest.raises(TensorError, match="canonical"):
            Tensor.from_reps(CHART, 2, D_SYM2, {(1, 0): X})

    def test_iter_nonzero_sorted(self):
        t = _tensor({(1, 1): Y, (0, 0): X})
        assert [idx for idx, _ in t.iter_nonzero()] == [(0, 0), (1, 1)]

    def test_add_scale_sub(self):
        t = _tensor({(0, 0): X})
        u = _tensor({(0, 0): Y, (0, 1): ONE})
        s = combination([(None, t), (None, u)])
        assert s.get((0, 0)) == X + Y
        assert s.get((1, 0)) == ONE
        assert combination([(None, t), (-ONE, t)]).is_zero
        assert combination([(A, t)]).get((0, 0)) == A * X

    def test_add_keeps_common_symmetries_only(self):
        sym = _tensor({(0, 1): X})
        anti = Tensor.from_reps(CHART, 2, D_ANTI2, {(0, 1): Y})
        s = combination([(None, sym), (None, anti)])
        assert s.descriptor.ops == ()
        assert s.get((0, 1)) == X + Y
        assert s.get((1, 0)) == X - Y

    def test_adding_zero_gives_the_operand_itself(self):
        t = _tensor({(0, 1): X})
        zero = Tensor.from_reps(CHART, 2, D_SYM2, {})
        assert combination([(None, t), (None, zero)]) is t
        assert combination([(None, zero), (None, t)]) is t
        assert combination([(None, t), (-ONE, zero)]) is t

    def test_zero_coefficients_drop_their_terms(self):
        t = _tensor({(0, 1): X})
        u = _tensor({(0, 0): Y})
        zero = Tensor.from_reps(CHART, 2, D_SYM2, {})
        assert combination([(None, t), (ZERO, u)]) is t
        assert combination([(ZERO, u), (None, t)]) is t
        # every term drops: the first one stays
        assert combination([(None, zero), (ZERO, t)]) is zero
        s = combination([(ZERO, t), (None, zero)])
        assert s is not t and s.known_zero
        # a coefficient keeps the sum from being the tensor itself
        s = combination([(ONE, t), (None, zero)])
        assert s is not t and s.equals(t)

    def test_zero_of_fewer_symmetries_still_sums(self):
        t = _tensor({(0, 1): X})
        zero = Tensor.from_reps(CHART, 2, D_NONE2, {})
        s = combination([(None, t), (None, zero)])
        assert s is not t and s.descriptor is D_NONE2
        assert s.get((1, 0)) == X

    def test_equals(self):
        t = _tensor({(0, 1): X})
        u = Tensor.from_reps(CHART, 2, D_NONE2, {(0, 1): X, (1, 0): X})
        assert t.equals(u)

    def test_valence_mismatch(self):
        t = _tensor({(0, 1): X})
        u = Tensor.from_reps(CHART, 3, Descriptor(()), {})
        with pytest.raises(TensorError, match="valence"):
            combination([(None, t), (None, u)])


class TestMetric:
    def test_lower_upper_inverse(self):
        m = Metric(CHART, ((X, ONE), (ONE, Y)))
        det = X * Y - ONE
        assert m.upper(0, 0) == Y / det
        assert m.upper(0, 1) == -ONE / det
        assert m.upper(1, 0) == -ONE / det
        assert m.upper(1, 1) == X / det
        assert m.lower(0, 1) == ONE

    @pytest.mark.parametrize("path", METRIC_FILES, ids=lambda p: p.stem)
    def test_inverse_prints_as_adjugate_reference(self, path):
        spec = parse_metric_file(path.read_text())
        m = Metric(spec.chart, spec.matrix)
        want = _adjugate_inverse(spec.matrix)
        n = m.dim
        assert [[format_expression(m.upper(i, j)) for j in range(n)]
                for i in range(n)] == [[format_expression(want[i][j])
                                        for j in range(n)] for i in range(n)]

    def test_rejects_asymmetric(self):
        with pytest.raises(TensorError, match="not symmetric"):
            Metric(CHART, ((ONE, X), (Y, ONE)))

    def test_rejects_degenerate(self):
        with pytest.raises(TensorError, match="degenerate"):
            Metric(CHART, ((X, ONE), (ONE, ONE / X)))

    def test_as_tensor(self):
        m = Metric(CHART, ((X, ZERO), (ZERO, Y)))
        t = m.as_tensor()
        assert t.descriptor == D_SYM2
        assert t.get((0, 0)) == X
        assert t.get((0, 1)).is_zero

    def test_raise_first_gives_identity_on_metric(self):
        m = Metric(CHART, ((X, ONE), (ONE, Y)))
        mixed = raise_first(m.as_tensor(), m)
        assert mixed == {(0, 0): ONE, (1, 1): ONE}

    def test_trace2(self):
        m = Metric(CHART, ((X, ZERO), (ZERO, Y)))
        assert trace2(m.as_tensor(), m) == Expression.from_int(2)


CATALOG_NAMES = sorted(p.stem for p in CATALOG.glob("*.metric"))


class TestRaisedLast:
    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES
                                      if load_bundle(n).dim == 4])
    def test_classify_builds_each_table_once(self, name, monkeypatch):
        b = load_bundle(name)
        calls, builds = [], []
        build, lookup = tensor_mod._raise_last, operators.raised_last

        def counted_build(t, g):
            builds.append(t)
            return build(t, g)

        def counted_lookup(t, g):
            calls.append(t)
            return lookup(t, g)

        monkeypatch.setattr(tensor_mod, "_raise_last", counted_build)
        # the operator actions look it up in tensor, the compatibility
        # decisions in operators
        monkeypatch.setattr(tensor_mod, "raised_last", counted_lookup)
        monkeypatch.setattr(operators, "raised_last", counted_lookup)
        if name == "minkowski":
            # R = 0 there: every operand classify would raise is known
            # zero, so the tables are counted with the zeros disguised
            classify(load_bundle(name))
            assert not calls and not builds
            disguise_zeros(b, monkeypatch)
        classify(b)
        assert len(builds) == len({id(t) for t in builds})
        assert {id(t) for t in builds} == {id(t) for t in calls}
        # classify raises some operand more than once
        assert len(calls) > len(builds)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_dot_action_same_without_memo(self, name):
        b = load_bundle(name)
        g, r = b.metric, b.riemann
        operands = (r, b.ricci, b.g_tensor)
        # R's table is built by the first action and reused by the others
        memo = [operators.dot_action(r, h, g) for h in operands]
        for h, want in zip(operands, memo):
            g._raised.clear()
            got = operators.dot_action(r, h, g)
            assert got.comps.keys() == want.comps.keys()
            for idx, v in got.comps.items():
                assert want.comps[idx] == v, idx

    def test_equal_tensor_of_another_identity_gets_its_own_entry(self,
                                                                 vaidya):
        g, r = vaidya.metric, vaidya.riemann
        twin = Tensor(r.chart, r.valence, r.descriptor, dict(r.comps))
        first = raised_last(r, g)
        assert raised_last(r, g) is first
        second = raised_last(twin, g)
        assert second is not first
        assert g._raised[id(twin)][0] is twin
        assert second.keys() == first.keys()
        for head, row in first.items():
            assert [l for l, _ in row] == [l for l, _ in second[head]]
            assert all(v == w for (_, v), (_, w) in zip(row, second[head]))


def _reference_raise_last(t: Tensor, g: Metric) -> dict:
    """The raised table summed at every one of the n^(k+1) positions."""
    n = g.dim
    table = {}
    for head in itertools.product(range(n), repeat=t.valence - 1):
        row = ((l, g.raise_index(l, lambda m: t.get(head + (m,))))
               for l in range(n))
        table[head] = tuple((l, v) for l, v in row if not v.is_zero)
    return table


def _reference_dot_action(d: Tensor, h: Tensor, g: Metric) -> Tensor:
    """dot_action multiplying each signed read, with nothing reused."""
    k = h.valence
    raised = _reference_raise_last(d, g)

    def entry(idx):
        head, x, y = idx[:k], idx[k], idx[k + 1]
        total = ZERO
        for s in range(k):
            for l, w in raised[(x, y, head[s])]:
                total = total - w * h.get(head[:s] + (l,) + head[s + 1:])
        return total

    return Tensor.compute(h.chart, k + 2,
                          h.descriptor.with_extra(("anti", k, k + 1)), entry)


def _reference_tachibana(a: Tensor, h: Tensor) -> Tensor:
    """tachibana multiplying each signed read, with nothing reused."""
    k = h.valence

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

    return Tensor.compute(h.chart, k + 2,
                          h.descriptor.with_extra(("anti", k, k + 1)), entry)


def _terms(v: Expression):
    """A value with its term order: equal only when the bytes are."""
    return list(v.num.terms.items()), list(v.den.terms.items())


class TestReuseMatchesReference:
    """Signed copies of raised rows and products reused within one call
    give the same terms, in the same order, as evaluating every entry."""

    @pytest.mark.parametrize("path", METRIC_FILES, ids=lambda p: p.stem)
    def test_tables_and_products_keep_every_term(self, path):
        b = CurvatureBundle(parse_metric_file(path.read_text()))
        names = "RCPKWS" if b.dim > 2 else "RPWS"
        for name in names:
            t = b.tensor(name)
            got = raised_last(t, b.metric)
            want = _reference_raise_last(t, b.metric)
            assert list(got) == list(want), name
            for head, row in want.items():
                assert [(l, _terms(v)) for l, v in got[head]] == \
                    [(l, _terms(v)) for l, v in row], (name, head)
        products = [("dot", "R", "R"), ("Q", "g", "R")]
        if b.dim > 2:
            products += [("dot", "R", "C"), ("dot", "C", "R"),
                         ("dot", "C", "C"), ("Q", "S", "C")]
        for kind, left, right in products:
            d, h = b.tensor(left), b.tensor(right)
            if kind == "dot":
                got = operators.dot_action(d, h, b.metric)
                want = _reference_dot_action(d, h, b.metric)
            else:
                got = operators.tachibana(d, h)
                want = _reference_tachibana(d, h)
            assert got.descriptor is want.descriptor
            assert list(got.comps) == list(want.comps), (kind, left, right)
            for idx, v in want.comps.items():
                assert _terms(got.comps[idx]) == _terms(v), \
                    (kind, left, right, idx)

    def test_raised_rows_computed_only_for_representatives(self, vaidya,
                                                           monkeypatch):
        g, r = vaidya.metric, vaidya.riemann
        heads = set()
        get = Tensor.get

        def spy(t, idx):
            if t is r:
                heads.add(tuple(idx[:3]))
            return get(t, idx)

        monkeypatch.setattr(Tensor, "get", spy)
        table = tensor_mod._raise_last(r, g)
        assert len(table) == 64
        # anti(0,1) leaves the raised slot alone: heads x < y carry the rows
        assert heads == {h for h in table if h[0] < h[1]}
        assert len(heads) == 24
        for (x, y, z), row in table.items():
            if x == y:
                assert row == ()
            elif x > y:
                assert [(l, -v) for l, v in row] == list(table[(y, x, z)])


class TestLazyProducts:
    """dot_action, tachibana, divergence_first, endo_square,
    covariant_derivative and kulkarni_nomizu return tables that evaluate a
    component on its first read; read in any order, they print as a table
    built in full by Tensor.compute with the same getter, and a failing
    identity or zero check reads only the components up to its witness.  A
    product of a known-zero operand is known zero and has no getter: its
    reference is the product whose zero operands are disguised, which has
    the same descriptor."""

    PRODUCTS = (("dot", "R", "R"), ("dot", "R", "C"), ("dot", "C", "R"),
                ("dot", "C", "C"), ("dot", "R", "S"), ("Q", "g", "R"),
                ("Q", "g", "C"), ("Q", "S", "R"), ("Q", "S", "C"),
                ("div", "R", None), ("div", "C", None), ("sq", "S", None),
                ("nabla", "R", None), ("nabla", "S", None),
                ("nabla", "C", None), ("wedge", "g", "g"),
                ("wedge", "g", "S"))

    @staticmethod
    def product(b, kind, left, right, operand=lambda t: t):
        """The product of the named tensors, each passed through operand."""
        if kind == "div":
            return divergence_first(operand(b.nabla(left)), b.metric)
        if kind == "sq":
            return endo_square(operand(b.tensor(left)), b.metric)
        if kind == "nabla":
            return covariant_derivative(operand(b.tensor(left)),
                                        b.connection)
        d, h = operand(b.tensor(left)), operand(b.tensor(right))
        if kind == "dot":
            return tensor_mod.dot_action(d, h, b.metric)
        if kind == "wedge":
            return kulkarni_nomizu(d, h)
        return tensor_mod.tachibana(d, h)

    @pytest.mark.parametrize("path", METRIC_FILES, ids=lambda p: p.stem)
    def test_read_in_full_prints_as_computed(self, path):
        b = CurvatureBundle(parse_metric_file(path.read_text()))
        for kind, left, right in self.PRODUCTS:
            if b.dim == 2 and "C" in (left, right):
                continue   # C is undefined on the 2-sphere
            lazy = self.product(b, kind, left, right)
            fresh = self.product(b, kind, left, right, disguised)
            assert fresh.descriptor is lazy.descriptor
            want = Tensor.compute(fresh.chart, fresh.valence,
                                  fresh.descriptor, fresh.getter)
            # single reads, last representative first, then the whole
            reps = lazy.descriptor.reps(b.dim, lazy.valence)
            for idx in reversed(reps):
                assert lazy.get(idx) == want.get(idx)
            assert lazy.is_zero == want.is_zero
            assert list(lazy.comps) == list(want.comps), (kind, left, right)
            for idx, v in want.comps.items():
                assert str(lazy.comps[idx]) == str(v)
                assert _terms(lazy.comps[idx]) == _terms(v), (
                    kind, left, right, idx)
            assert format_dump("T", lazy) == format_dump("T", want)

    def test_compares_and_prints_by_components(self, vaidya):
        lazy = self.product(vaidya, "dot", "R", "R")
        fresh = self.product(vaidya, "dot", "R", "R")
        want = Tensor.compute(fresh.chart, fresh.valence, fresh.descriptor,
                              fresh.getter)
        assert lazy == fresh == want
        assert repr(lazy) == repr(want)
        assert repr(want).startswith("Tensor(chart=")
        assert lazy != self.product(vaidya, "dot", "R", "C")

    @staticmethod
    def evaluated(t) -> int:
        """How many of t's representatives a read in full evaluates."""
        count = [0]
        if t.getter is not None:
            getter = t.getter

            def counted(idx):
                count[0] += 1
                return getter(idx)

            t.getter = counted
        len(t.comps)
        return count[0]

    def test_bundle_tensors_are_built_in_full(self, vaidya):
        # solve-stress builds these in its set-up and forks per operation
        for t in [vaidya.tensor(name) for name in "RSCPWKGTg"] + [
                vaidya.nabla("C")]:
            assert self.evaluated(t) == 0, t.descriptor
        assert type(vaidya.connection) is tensor_mod.Connection
        for kind, left, right in (("dot", "R", "C"), ("div", "C", None)):
            t = self.product(vaidya, kind, left, right)
            assert self.evaluated(t) == len(t.descriptor.reps(4, t.valence))

    @pytest.mark.parametrize("name", ["R", "S", "C"])
    def test_bundle_nabla_is_its_memo_table_read_in_full(self, name):
        b = load_bundle("vaidya")
        lazy = evaluate_tensor_ast(TNode("nabla", TNode(name)), b, b.memo)
        assert lazy.getter is not None
        assert b.nabla(name) is lazy and lazy.getter is None

    def test_kerr_conformal_recurrence_reads_six_representatives(
            self, monkeypatch):
        from curvkit.classify import _CATALOG, FAILS, _Evaluator
        b = CurvatureBundle(parse_metric_file(
            (CATALOG.parent / "tests" / "kerr.metric").read_text()))
        b.riemann
        made = self.evaluations(monkeypatch, ("covariant_derivative",))
        row = {name: row for name, _, row in _CATALOG}["conformally-recurrent"]
        verdict, witnesses = row(_Evaluator(b))
        assert verdict == FAILS and witnesses[0][0] == "residual_12132"
        # Kerr is Ricci-flat, so C is R and nabla C is nabla R
        (t, count), = made
        assert t.valence == 5 and len(t.descriptor.reps(4, 5)) == 84
        assert 0 < count[0] <= 6

    def test_unread_table_fills_on_iteration(self, vaidya):
        lazy = self.product(vaidya, "dot", "R", "R")
        want = Tensor.compute(lazy.chart, lazy.valence, lazy.descriptor,
                              self.product(vaidya, "dot", "R", "R").getter)
        assert list(lazy.iter_nonzero()) == list(want.iter_nonzero())
        assert lazy.getter is None   # the products memo is released

    @staticmethod
    def evaluations(monkeypatch, names=("dot_action", "tachibana")) -> list:
        """(table, entries evaluated) of every table the bundle memo
        builds through the named builders."""
        from curvkit import curvature
        made = []

        def spy(fn):
            def wrapped(*operands):
                t = fn(*operands)
                getter, count = t.getter, [0]

                def counted(idx):
                    count[0] += 1
                    return getter(idx)

                t.getter = counted
                made.append((t, count))
                return t
            return wrapped

        for name in names:
            monkeypatch.setattr(curvature, name,
                                spy(getattr(curvature, name)))
        return made

    def test_failing_pseudosymmetry_stops_at_its_witness(self, monkeypatch):
        path = CATALOG.parent / "bench" / "metrics" / "warped5.metric"
        b = CurvatureBundle(parse_metric_file(path.read_text()))
        made = self.evaluations(monkeypatch)
        check = operators.check_identity(
            parse_identity("R.R = L*Q(g,R)", b.chart), b)
        assert not check.holds
        assert len(made) == 2
        for t, count in made:
            # 550 with every component built before the solve
            assert len(t.descriptor.reps(b.dim, t.valence)) == 550
            assert count[0] <= 15

    def test_failing_zero_check_stops_at_its_residual(self, monkeypatch,
                                                      capsys):
        from curvkit import cli
        made = self.evaluations(monkeypatch)
        assert cli.main(["check", "vaidya", "R.R = 0"]) != 0
        assert "verdict: fails" in capsys.readouterr().out
        (t, count), = made
        assert 0 < count[0] < len(t.descriptor.reps(4, 6))

    def test_failing_divergence_stops_at_its_residual(self, monkeypatch):
        from curvkit.classify import _CATALOG, FAILS, _Evaluator, _label
        b = load_bundle("vaidya")
        made = self.evaluations(monkeypatch, ("divergence_first",))
        harmonic = {name: row for name, _, row in _CATALOG}["harmonic"]
        verdict, witnesses = harmonic(_Evaluator(b))
        assert verdict == FAILS
        (t, count), = made
        assert 0 < count[0] < len(t.descriptor.reps(4, t.valence))
        # the witness a sorted walk of the table in full meets first
        idx, v = next(self.product(b, "div", "R", None).iter_nonzero())
        assert witnesses == ((f"residual_{_label(idx)}",
                              format_expression(v)),)


class TestCovariantDerivative:
    def test_metric_is_parallel(self, vaidya):
        nabla_g = covariant_derivative(vaidya.g_tensor, vaidya.connection)
        assert nabla_g.is_zero
        assert nabla_g.valence == 3

    def test_scalar_like_zero_connection(self):
        from curvkit.tensor import Connection
        zero = ZERO
        gamma = tuple(tuple((zero,) * 2 for _ in range(2)) for _ in range(2))
        conn = Connection(CHART, gamma, gamma)   # the zero first-kind table
        t = _tensor({(0, 0): X * Y})
        d = covariant_derivative(t, conn)
        assert d.get((0, 0, 0)) == Y
        assert d.get((0, 0, 1)) == X

    def test_divergence_of_metric_vanishes(self, sphere2):
        div = divergence_first(
            covariant_derivative(sphere2.g_tensor, sphere2.connection),
            sphere2.metric)
        assert div.is_zero


class TestProducts:
    def test_kulkarni_nomizu_on_diag(self):
        m = Metric(CHART, ((X, ZERO), (ZERO, Y)))
        g = m.as_tensor()
        w = kulkarni_nomizu(g, g)
        assert w.descriptor == D_RIEMANN
        assert w.get1(1, 2, 1, 2) == -2 * X * Y
        assert w.get1(1, 2, 2, 1) == 2 * X * Y
        assert w.get1(1, 1, 2, 2).is_zero

    def test_kulkarni_nomizu_requires_sym2(self):
        anti = Tensor.from_reps(CHART, 2, D_ANTI2, {(0, 1): X})
        g = Metric(CHART, ((X, ZERO), (ZERO, Y))).as_tensor()
        with pytest.raises(TensorError, match="symmetric"):
            kulkarni_nomizu(g, anti)

    def test_endo_square_of_metric_is_metric(self):
        m = Metric(CHART, ((X, ONE), (ONE, Y)))
        sq = endo_square(m.as_tensor(), m)
        assert sq.equals(m.as_tensor())


class TestDump:
    def test_text(self):
        t = _tensor({(0, 1): X / Y, (1, 1): A})
        assert format_dump("t", t) == "t[1][2] = x/y\nt[2][2] = a"
        assert format_component_lines("t", t)[0] == "t[1][2] = x/y"

    def test_json_lines(self):
        t = _tensor({(0, 1): X / Y})
        row = json.loads(format_dump("t", t, fmt="json-lines"))
        assert row == {"tensor": "t", "index": [1, 2], "value": "x/y"}

    def test_unknown_format(self):
        with pytest.raises(TensorError, match="format"):
            format_dump("t", _tensor({}), fmt="yaml")

    def test_empty_dump(self):
        assert format_dump("t", _tensor({})) == ""
