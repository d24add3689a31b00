"""The packed-monomial gcd against the tuple-monomial primitive remainder
sequence it replaced: same terms in the same insertion order, for the gcd
and its cofactors, the same charged units and the same overruns.  The
shortcuts poly_gcd takes before it, proportional parts and the divisor
step, against the packed gcd itself."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvkit import expr, packed_gcd
from curvkit.expr import (Atom, Poly, _lex_key, _mono_deg, _mono_div,
                          _mono_gcd, _mono_mul, _P_ONE, _P_ZERO, _qdiv,
                          _reduced_terms, _sign_content, poly_gcd)
from curvkit.packed_gcd import NotDivisible


def _canon_sign(p: Poly) -> Poly:
    """Scale to integer-primitive with positive leading coefficient."""
    return p.scale(_qdiv(1, _sign_content(p))) if p.terms else p


class _Overrun(Exception):
    pass


class TupleGcd:
    """The budgeted gcd as expr ran it on tuple monomials, with its own
    budget and unit counter in place of the module globals."""

    def __init__(self, budget: int):
        self.budget = self.left = budget
        self.depth = self.units = self.raises = 0

    def top(self, a1: Poly, b1: Poly) -> Poly:
        """poly_gcd's budgeted branch on parts free of monomial content."""
        self.left = self.budget
        return self._guarded(a1, b1)

    def _guarded(self, a1: Poly, b1: Poly) -> Poly:
        self.depth += 1
        try:
            g = self._gcd_core(_canon_sign(a1), _canon_sign(b1))
            self._divexact(a1, g)
            self._divexact(b1, g)
        except (NotDivisible, _Overrun):
            g = _P_ONE
        finally:
            self.depth -= 1
        return g

    def charge(self, units: int) -> None:
        if self.depth:
            self.units += units
            self.left -= units
            if self.left < 0:
                self.raises += 1
                raise _Overrun

    @staticmethod
    def _coeff_weight(p: Poly) -> int:
        c = next(iter(p.terms.values()))
        return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 256

    def poly_gcd(self, a: Poly, b: Poly) -> Poly:
        """poly_gcd as a nested call made it: no shortcut, no new budget."""
        if a.is_zero:
            return _canon_sign(b)
        if b.is_zero:
            return _canon_sign(a)
        mono = _mono_gcd(a.monomial_content(), b.monomial_content())
        mono_poly = Poly({mono: 1})
        if len(a.terms) == 1 or len(b.terms) == 1:
            return mono_poly
        a1 = self._divexact(a, mono_poly) if mono else a
        b1 = self._divexact(b, mono_poly) if mono else b
        return self._guarded(a1, b1) * mono_poly

    def _divexact(self, a: Poly, b: Poly) -> Poly:
        if a.is_zero:
            return _P_ZERO
        if len(b.terms) == 1:
            (mb, cb), = b.terms.items()
            out = {}
            for m, c in a.terms.items():
                mq = _mono_div(m, mb)
                if mq is None:
                    raise NotDivisible
                out[mq] = _qdiv(c, cb)
            return Poly(out)
        mb, cb = b.leading()
        db = _mono_deg(mb)
        tail = [(m, c, _mono_deg(m) - db) for m, c in b.terms.items() if m != mb]
        b_cos = b.has_cos()
        layers: dict[int, dict] = {}
        for m, c in a.terms.items():
            layers.setdefault(_mono_deg(m), {})[m] = c
        q = {}
        while any(layers.values()):
            top = max(d for d, layer in layers.items() if layer)
            mr = max(layers[top], key=_lex_key)
            cr = layers[top].pop(mr)
            self.charge(len(b.terms) *
                        (1 + (cr.numerator.bit_length() +
                              cr.denominator.bit_length()) // 256))
            mq = _mono_div(mr, mb)
            if mq is None:
                raise NotDivisible
            q[mq] = cq = _qdiv(cr, cb)
            if b_cos and any(x.is_cos for x, _ in mq):
                step = [(m, c, _mono_deg(m)) for m, c in _reduced_terms(
                    (_mono_mul(mq, m), -cq * c) for m, c, _ in tail).items()]
            else:
                step = [(_mono_mul(mq, m), -cq * c, top + d) for m, c, d in tail]
            for m, c, d in step:
                layer = layers.setdefault(d, {})
                c2 = layer.get(m, 0) + c
                if c2:
                    layer[m] = c2
                else:
                    del layer[m]
        return Poly(q)

    @staticmethod
    def _pick_var(a: Poly, b: Poly):
        def degrees(p):
            out = {}
            for m in p.terms:
                for x, e in m:
                    if e > out.get(x, -1):
                        out[x] = e
            return out
        da, db = degrees(a), degrees(b)
        return min(da.keys() & db.keys(), key=lambda x: (da[x] + db[x], x.key),
                   default=None)

    @staticmethod
    def _as_univar(p: Poly, x: Atom) -> dict:
        out = {}
        for mono, coeff in p.terms.items():
            e = 0
            rest = []
            for a, k in mono:
                if a is x:
                    e = k
                else:
                    rest.append((a, k))
            out.setdefault(e, {})[tuple(rest)] = coeff
        return {e: Poly(t) for e, t in out.items()}

    @staticmethod
    def _from_univar(co: dict, x: Atom) -> Poly:
        raw = []
        for e, p in co.items():
            xm = ((x, e),) if e else ()
            for m, c in p.terms.items():
                raw.append((_mono_mul(m, xm), c))
        return Poly.make(raw)

    def _fold_gcd(self, polys) -> Poly:
        g = _P_ZERO
        for p in polys:
            g = self.poly_gcd(g, p)
            if g == _P_ONE:
                return g
        return g

    def _content_wrt(self, p: Poly, x: Atom) -> Poly:
        return self._fold_gcd(self._as_univar(p, x).values())

    def _prem(self, a: Poly, b: Poly, x: Atom) -> Poly:
        ua = self._as_univar(a, x)
        ub = self._as_univar(b, x)
        db = max(ub)
        lb = ub[db]
        r = ua
        guard = max(r) - db + 2 if r else 0
        while r and max(r) >= db and guard > 0:
            guard -= 1
            dr = max(r)
            lr = r[dr]
            new = {}
            wb = self._coeff_weight(lb)
            for e, p in r.items():
                self.charge(len(lb.terms) * len(p.terms) *
                            (wb + self._coeff_weight(p)))
                new[e] = lb * p
            wr = self._coeff_weight(lr)
            for e, p in ub.items():
                self.charge(len(lr.terms) * len(p.terms) *
                            (wr + self._coeff_weight(p)))
                t = lr * p
                e2 = e + dr - db
                new[e2] = new.get(e2, _P_ZERO) - t
            r = {e: p for e, p in new.items() if not p.is_zero}
        return self._from_univar(r, x)

    def _gcd_core(self, a: Poly, b: Poly) -> Poly:
        if a.is_zero:
            return _canon_sign(b)
        if b.is_zero:
            return _canon_sign(a)
        if a.terms == b.terms:
            return _canon_sign(a)
        x = self._pick_var(a, b)
        if x is None:
            return _P_ONE
        ca = self._content_wrt(a, x)
        cb = self._content_wrt(b, x)
        d = self._gcd_core(ca, cb)
        pa = self._divexact(a, ca)
        pb = self._divexact(b, cb)
        while True:
            self.charge(1)
            if pa.degree_in(x) < pb.degree_in(x):
                pa, pb = pb, pa
            r = self._prem(pa, pb, x)
            if r.is_zero:
                prim = self._divexact(pb, self._content_wrt(pb, x))
                return _canon_sign(d * prim)
            if r.degree_in(x) == 0:
                return _canon_sign(d)
            pa, pb = pb, self._divexact(r, self._content_wrt(r, x))


def _budgeted_inputs(p: Poly, q: Poly):
    """The parts poly_gcd hands to the budgeted gcd, or None when it
    returns before that."""
    if p.is_zero or q.is_zero or len(p.terms) == 1 or len(q.terms) == 1:
        return None
    mono = Poly({_mono_gcd(p.monomial_content(), q.monomial_content()): 1})
    return TupleGcd(0)._divexact(p, mono), TupleGcd(0)._divexact(q, mono)


def _packed(monkeypatch, a1: Poly, b1: Poly):
    """The kernel's gcd and cofactors with its charged units and
    overruns."""
    meter = {"units": 0, "raises": 0}
    charge = packed_gcd._charge_gcd

    def counted(units):
        if packed_gcd._gcd_depth:
            meter["units"] += units
        try:
            charge(units)
        except packed_gcd._GcdBudgetExceeded:
            meter["raises"] += 1
            raise

    monkeypatch.setattr(packed_gcd, "_charge_gcd", counted)
    return packed_gcd.gcd(a1, b1), meter


X = Atom.coordinate("x")
ATOMS = (Atom.constant("a"), X, Atom.cos("x"), Atom.sin("x"),
         Atom.func("f", ("x",)))
term = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3)
                 .filter(bool), st.tuples(*[st.integers(0, 2)] * 5))
polys = st.lists(term, min_size=1, max_size=4).map(
    lambda ts: Poly.make((tuple((a, e) for a, e in zip(ATOMS, exps) if e),
                          Fraction(c)) for c, exps in ts))


@pytest.mark.parametrize("budget", [packed_gcd._GCD_BUDGET, 200])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(p=polys, q=polys, common=polys, plant=st.booleans())
def test_packed_gcd_matches_tuple_gcd(budget, p, q, common, plant):
    if plant:
        p, q = p * common, q * common
    parts = _budgeted_inputs(p, q)
    assume(parts is not None)
    _check_against_tuple_gcd(budget, parts)


def _check_against_tuple_gcd(budget: int, parts) -> None:
    """The kernel's gcd and cofactors have the tuple gcd's terms in order,
    after the same charged units and overruns."""
    ref = TupleGcd(budget)
    want = ref.top(*parts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed_gcd, "_GCD_BUDGET", budget)
        (got, *cofactors), meter = _packed(mp, *parts)
    assert list(got.terms.items()) == list(want.terms.items())
    assert meter == {"units": ref.units, "raises": ref.raises}
    for part, cofactor in zip(parts, cofactors):
        assert (list(cofactor.terms.items())
                == list(ref._divexact(part, want).terms.items()))


int_term = st.tuples(st.integers(-3, 3).filter(bool),
                     st.tuples(*[st.integers(0, 2)] * 5))
int_polys = st.lists(int_term, min_size=2, max_size=4).map(
    lambda ts: Poly.make((tuple((a, e) for a, e in zip(ATOMS, exps) if e), c)
                         for c, exps in ts)).filter(lambda p: p.terms)


def _negated_content(p: Poly, content: int) -> Poly:
    """p scaled by content, with the sign that makes its leading
    coefficient negative."""
    return p.scale(-content if p.leading()[1] > 0 else content)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(p=int_polys, q=int_polys, common=int_polys,
       contents=st.tuples(*[st.integers(2, 6)] * 3))
def test_int_canon_sign_matches_tuple_gcd(p, q, common, contents):
    """Integer coefficients take math.gcd and exact floor division in
    _canon_sign: with a negative leading coefficient and a content above 1
    on every operand, it gives the rational path's terms in order, and the
    kernel still gives the tuple gcd's."""
    p, q, common = (_negated_content(f, c)
                    for f, c in zip((p, q, common), contents))
    lay = packed_gcd._Layout(sorted(ATOMS), packed_gcd._WIDTH)
    for f in (p, q, common):
        packed = lay.pack(f)
        assert all(type(c) is int for c in packed.values())
        got = lay.unpack(packed_gcd._canon_sign(packed))
        assert list(got.terms.items()) == list(_canon_sign(f).terms.items())
        assert all(type(c) is int for c in got.terms.values())
    parts = _budgeted_inputs(p * common, q * common)
    assume(parts is not None)
    _check_against_tuple_gcd(packed_gcd._GCD_BUDGET, parts)


def test_budget_overrun_is_covered(monkeypatch):
    """The small budget above does run out: the kernel raises where the
    tuple code does, after the same units, and both give 1; the kernel's
    cofactors are the operands themselves, not copies."""
    x, c, s = (Poly.atom(a) for a in ATOMS[1:4])
    f = Poly.atom(ATOMS[4])
    p = (x * c + f * s + Poly.const(2)) ** 2 * (f + x)
    q = (x * c + f * s + Poly.const(2)) * (f * c - x) ** 2
    monkeypatch.setattr(packed_gcd, "_GCD_BUDGET", 200)
    ref = TupleGcd(200)
    want = ref.top(p, q)
    (got, qp, qq), meter = _packed(monkeypatch, p, q)
    assert ref.raises and got == want == _P_ONE
    assert qp is p and qq is q
    assert meter == {"units": ref.units, "raises": ref.raises}


@pytest.mark.parametrize("case", ["input", "product"])
def test_overflowing_fields_widen(monkeypatch, case):
    """Exponents past a narrow field, or products whose degree could carry
    out of it, repack in wider fields; the result is the tuple gcd's."""
    x, y, f = (Poly.atom(a) for a in (X, Atom.coordinate("y"), ATOMS[4]))
    one = Poly.const(1)
    if case == "input":
        common = x ** 9 + y * f + one
        p, q = common * (x ** 5 - y), common * (y ** 2 + x * f)
    else:   # every exponent fits three bits, the degree of p does not
        common = x * y + f + one
        p, q = common * (x * y - f), common * (x * f + y)
    widths = []
    layout = packed_gcd._Layout

    def spy(atoms, w):
        widths.append(w)
        return layout(atoms, w)

    monkeypatch.setattr(packed_gcd, "_WIDTH", 3)
    monkeypatch.setattr(packed_gcd, "_Layout", spy)
    want = TupleGcd(packed_gcd._GCD_BUDGET).top(p, q)
    got, qp, qq = packed_gcd.gcd(p, q)
    assert widths[0] == 3 and len(widths) > 1
    assert list(got.terms.items()) == list(want.terms.items())
    assert got == _canon_sign(common)
    assert got * qp == p and got * qq == q


def _terms(*polys) -> list:
    return [list(p.terms.items()) for p in polys]


def _refuse(a, b):
    raise AssertionError("the budgeted gcd ran")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(p=polys, scale=st.fractions(min_value=-5, max_value=5,
                                   max_denominator=4).filter(bool),
       reverse=st.booleans())
def test_proportional_parts_give_the_budgeted_gcd_without_it(p, scale,
                                                              reverse):
    """Parts equal up to a constant factor: poly_gcd returns the budgeted
    gcd's part and cofactors, the same terms in the same order, and never
    calls it."""
    q = p.scale(scale)
    if reverse:
        q = Poly(dict(reversed(q.terms.items())))
    parts = _budgeted_inputs(p, q)
    assume(parts is not None)
    g, qp, qq = packed_gcd.gcd(*parts)
    mono = _mono_gcd(p.monomial_content(), q.monomial_content())
    if mono:
        g = g * Poly({mono: 1})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed_gcd, "gcd", _refuse)
        assert _terms(*poly_gcd(p, q)) == _terms(g, qp, qq)


@pytest.mark.parametrize("budget, shortcut", [(4, True), (3, False)])
def test_proportional_parts_past_the_budget_run_it(monkeypatch, budget,
                                                   shortcut):
    """The two division checks of a two-term part charge 2 units each; a
    budget below their 4 makes the budgeted gcd give 1, and poly_gcd then
    runs it rather than return a part it would not."""
    x, f = Poly.atom(X), Poly.atom(ATOMS[4])
    p, q = x - f, (f - x).scale(3)
    monkeypatch.setattr(expr, "_GCD_BUDGET", budget)
    monkeypatch.setattr(packed_gcd, "_GCD_BUDGET", budget)
    g, qp, qq = packed_gcd.gcd(p, q)
    assert (g != _P_ONE) == shortcut
    assert (expr._proportional_gcd(p, q) is not None) == shortcut
    assert _terms(*poly_gcd(p, q)) == _terms(g, qp, qq)


COS_FREE = ATOMS[:2] + ATOMS[3:]


def _cos_free(coefficients, min_size=1):
    terms = st.tuples(coefficients, st.tuples(*[st.integers(0, 2)] * 4))
    return st.lists(terms, min_size=min_size, max_size=4).map(
        lambda ts: Poly.make((tuple((a, e) for a, e in zip(COS_FREE, exps)
                                    if e), c) for c, exps in ts))


_INTS = st.integers(-3, 3).filter(bool)
_FRACTIONS = st.fractions(min_value=-3, max_value=3,
                          max_denominator=3).filter(bool)
_MONOMIALS = st.tuples(*[st.integers(0, 2)] * 4).map(
    lambda exps: Poly({tuple((a, e) for a, e in zip(COS_FREE, exps) if e): 1}))


def _reversed(p: Poly) -> Poly:
    return Poly(dict(reversed(p.terms.items())))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), ints=st.booleans(), mono=_MONOMIALS,
       reverse=st.booleans(), swap=st.booleans())
def test_divisor_parts_give_the_budgeted_gcd(data, ints, mono, reverse,
                                             swap):
    """A divisor planted in both operands, one of them only a monomial
    times it: wherever the budgeted gcd completes, divisor_gcd finds the
    same gcd and the same cofactors, term for term.  The gcd's own term
    order follows the remainder sequence's path; poly_gcd's callers never
    read it and tests/gcd_replay.py hashes its terms sorted."""
    coefficients = _INTS if ints else _FRACTIONS
    d = data.draw(_cos_free(coefficients, min_size=2))
    q = data.draw(_cos_free(coefficients))
    p, q = d * mono, d * q
    if reverse:
        p, q = _reversed(p), _reversed(q)
    if swap:
        p, q = q, p
    parts = _budgeted_inputs(p, q)
    assume(parts is not None)
    with pytest.MonkeyPatch.context() as mp:
        (want, *cofactors), meter = _packed(mp, *parts)
    got = packed_gcd.divisor_gcd(*parts)
    if got is None:
        # only the bound on a quotient's terms declines a planted divisor
        assert any(len(c.terms) > len(part.terms)
                   for c, part in zip(cofactors, parts))
        return
    assert got[0] == want or meter["raises"]
    if not meter["raises"]:
        assert _terms(*got[1:]) == _terms(*cofactors)
    assert got[0] * got[1] == parts[0] and got[0] * got[2] == parts[1]


def test_divisor_step_declines_cos():
    """cos input is left to the budgeted gcd, which finds the divisor."""
    x, c = Poly.atom(X), Poly.atom(ATOMS[2])
    d = x * c + Poly.const(1)
    p, q = d * x, d * (x + Poly.const(2))
    assert packed_gcd.divisor_gcd(p, q) is None
    g, qp, qq = packed_gcd.gcd(p, q)
    assert g == d
    assert _terms(*poly_gcd(p, q)) == _terms(g, qp, qq)


def test_divisor_step_bounds_the_quotient():
    """x + f divides x^3 + f^3 by a quotient of three terms, more than the
    dividend's two: the step declines and the budgeted gcd finds it."""
    x, f, a = (Poly.atom(t) for t in (X, ATOMS[4], ATOMS[0]))
    p, q = (x + f) * a, x ** 3 + f ** 3
    assert packed_gcd.divisor_gcd(p, q) is None
    g, qp, qq = packed_gcd.gcd(p, q)
    assert g == x + f
    assert _terms(*poly_gcd(p, q)) == _terms(g, qp, qq)


@pytest.mark.parametrize("budget, found", [(6, True), (5, False)])
def test_divisor_checks_past_the_budget_run_it(monkeypatch, budget, found):
    """The step's two checks for x - f charge 2 and 4 units, and the
    budgeted gcd 32.  Within 6 units the step returns x - f where the
    budgeted gcd alone runs out and gives 1, a more reduced fraction;
    past them it declines, and poly_gcd runs the budgeted gcd."""
    x, f, a = (Poly.atom(t) for t in (X, ATOMS[4], ATOMS[0]))
    p, q = (x - f) * a, (x - f) * (x + Poly.const(1))
    monkeypatch.setattr(packed_gcd, "_GCD_BUDGET", budget)
    kernel, meter = _packed(monkeypatch, p, q)
    assert kernel[0] == _P_ONE and meter["raises"]
    step = packed_gcd.divisor_gcd(p, q)
    assert (step is not None) == found
    want = step if found else kernel
    assert _terms(*poly_gcd(p, q)) == _terms(*want)
    if found:
        assert step[0] == x - f
        assert _terms(*step[1:]) == _terms(a, x + Poly.const(1))
