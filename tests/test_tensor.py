"""Symmetry descriptors, component tables, metric algebra, dumps."""
import itertools
import json
import pickle

import pytest

from curvkit import Tensor, Metric, TensorError, covariant_derivative, \
    kulkarni_nomizu, endo_square, format_dump
from curvkit.chart import Chart
from curvkit.expr import Expression, ZERO, ONE
from curvkit.parsing import parse_expression
from curvkit.tensor import (
    Descriptor, D_SYM2, D_RIEMANN, D_ANTI2, D_NONE2, RIEMANN, SYM2,
    trace2, divergence_first, format_component_lines,
)

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
    ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ops,k", WALKS)
    def test_reps_are_orbit_minima(self, ops, k, n):
        want = []
        for idx in itertools.product(range(n), repeat=k):
            rep, zero = _orbit(ops, idx)
            if rep == idx and not zero:
                want.append(idx)
        assert Descriptor(ops).reps(n, k) == tuple(want)


def _orbit(ops, idx):
    """Minimum of the orbit of idx under the slot ops, and whether the
    orbit forces the value to zero, found by closing the orbit directly."""
    sign = {idx: 1}
    todo = [idx]
    zero = False
    while todo:
        t = todo.pop()
        for kind, *slots in ops:
            u = list(t)
            if kind == "block":
                a, b, c, d = slots
                u[a], u[b], u[c], u[d] = t[c], t[d], t[a], t[b]
            else:
                a, b = slots
                u[a], u[b] = t[b], t[a]
            u = tuple(u)
            s = -sign[t] if kind == "anti" else sign[t]
            if u not in sign:
                sign[u] = s
                todo.append(u)
            elif sign[u] != s:
                zero = True
    return min(sign), zero


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


def _tensor(comps, valence=2, desc=D_SYM2, chart=CHART):
    return Tensor.from_reps(chart, valence, desc, comps)


class TestTensor:
    def test_get_applies_sign(self):
        t = Tensor.from_reps(CHART, 2, D_ANTI2, {(0, 1): X})
        assert t.get((0, 1)) == X
        assert t.get((1, 0)) == -X
        assert t.get((0, 0)).is_zero

    def test_get1_is_one_based(self):
        t = _tensor({(0, 1): X})
        assert t.get1(1, 2) == X
        assert t.get1(2, 1) == X

    def test_from_reps_rejects_non_canonical(self):
        with pytest.raises(TensorError, match="canonical"):
            Tensor.from_reps(CHART, 2, D_SYM2, {(1, 0): X})

    def test_from_dense_verifies_symmetry(self):
        def bad(idx):
            return X if idx == (0, 1) else ZERO
        with pytest.raises(TensorError, match="symmetry"):
            Tensor.from_dense(CHART, 2, D_SYM2, bad)

    def test_from_dense_rejects_nonzero_forced_component(self):
        def bad(idx):
            return X if idx[0] == idx[1] else ZERO
        with pytest.raises(TensorError, match="vanish"):
            Tensor.from_dense(CHART, 2, D_ANTI2, bad)

    def test_iter_nonzero_sorted(self):
        t = _tensor({(1, 1): Y, (0, 0): X})
        assert [idx for idx, _ in t.iter_nonzero()] == [(0, 0), (1, 1)]

    def test_add_scale_sub(self):
        t = _tensor({(0, 0): X})
        u = _tensor({(0, 0): Y, (0, 1): ONE})
        s = t.add(u)
        assert s.get((0, 0)) == X + Y
        assert s.get((1, 0)) == ONE
        assert t.sub(t).is_zero
        assert t.scale(A).get((0, 0)) == A * X

    def test_add_keeps_common_symmetries_only(self):
        sym = _tensor({(0, 1): X})
        anti = Tensor.from_reps(CHART, 2, D_ANTI2, {(0, 1): Y})
        s = sym.add(anti)
        assert s.descriptor.ops == ()
        assert s.get((0, 1)) == X + Y
        assert s.get((1, 0)) == X - Y

    def test_equals(self):
        t = _tensor({(0, 1): X})
        u = Tensor.from_reps(CHART, 2, D_NONE2, {(0, 1): X, (1, 0): X})
        assert t.equals(u)

    def test_valence_mismatch(self):
        t = _tensor({(0, 1): X})
        u = Tensor.from_reps(CHART, 3, Descriptor(()), {})
        with pytest.raises(TensorError, match="valence"):
            t.add(u)


class TestMetric:
    def test_lower_upper_inverse(self):
        m = Metric(CHART, ((X, ONE), (ONE, Y)))
        det = X * Y - ONE
        assert m.det == det
        assert m.upper(0, 0) == Y / det
        assert m.upper(0, 1) == -ONE / det
        assert m.lower(0, 1) == ONE

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


class TestCovariantDerivative:
    def test_metric_is_parallel(self, vaidya):
        nabla_g = covariant_derivative(vaidya.g_tensor, vaidya.connection)
        assert nabla_g.is_zero
        assert nabla_g.valence == 3

    def test_scalar_like_zero_connection(self):
        from curvkit.tensor import Connection
        zero = ZERO
        gamma = tuple(tuple((zero,) * 2 for _ in range(2)) for _ in range(2))
        conn = Connection(CHART, gamma)
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
