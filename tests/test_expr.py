"""Expression kernel: canonical forms, ring laws, calculus, round-trips,
values at the fixed point."""
import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvkit import (Atom, CurvatureBundle, Expression, ZERO, ONE,
                     format_expression, parse_metric_file,
                     weakly_ricci_symmetric)
from curvkit import expr as expr_mod
from curvkit.expr import (DivisionByZeroExpression, PRIME, Poly, gcd_mod_p,
                          poly_gcd)
from curvkit.chart import Chart, ChartError
from curvkit.linsolve import AffineForm
from curvkit.parsing import (TDot, TName, TNabla, TQ, TWedge,
                             parse_expression)
from curvkit.tensor import D_SYM2, Tensor

from conftest import CATALOG as CATALOG_DIR

CHART = Chart(coords=("x", "y"), functions={"f": ("x",), "w": ("x", "y")},
              constants=("a", "b"))

X = Expression.from_atom(Atom.coordinate("x"))
Y = Expression.from_atom(Atom.coordinate("y"))
A = Expression.from_atom(Atom.constant("a"))
SIN_X = Expression.from_atom(Atom.sin("x"))
COS_X = Expression.from_atom(Atom.cos("x"))
F = Expression.from_atom(Atom.func("f", ("x",)))
W = Expression.from_atom(Atom.func("w", ("x", "y")))

LEAVES = (X, Y, A, SIN_X, COS_X, F, W, ONE, Expression.from_int(2),
          Expression.from_fraction(Fraction(-3, 2)))


def random_expression(rng: random.Random, depth: int = 3) -> Expression:
    """Small random expression tree over the shared test chart.

    Divisions only take leaf denominators; compound denominators make the
    gcd-normalized form intractably large for a bulk property run.
    """
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    op = rng.randrange(7)
    left = random_expression(rng, depth - 1)
    if op >= 6:
        den = rng.choice(LEAVES)
        return left / den if not den.is_zero else left
    right = random_expression(rng, depth - 1)
    if op <= 1:
        return left + right
    if op <= 3:
        return left - right
    return left * right


# hypothesis builds expressions through the seeded generator; a raw recursive
# strategy nests divisions deep enough to make fraction gcds explode
exprs = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: random_expression(random.Random(seed)))


class TestCanonicalForm:
    def test_zero_and_one(self):
        assert ZERO.is_zero
        assert ONE.is_one
        assert (ONE - ONE).is_zero

    def test_cancellation_is_decided(self):
        e = (X + A) * (X - A) - (X * X - A * A)
        assert e.is_zero

    def test_trig_pythagoras(self):
        assert (SIN_X * SIN_X + COS_X * COS_X - ONE).is_zero

    def test_cos_squares_are_rewritten(self):
        # normal form never carries cos to a power above 1
        e = COS_X ** 4 + SIN_X * COS_X ** 3
        for poly in (e.num, e.den):
            for mono in poly.terms:
                for atom, exp in mono:
                    if atom.is_cos:
                        assert exp == 1

    def test_fraction_reduction(self):
        e = (X * X - ONE) / (X - ONE)
        assert e == X + ONE

    def test_denominator_normalized_positive(self):
        e = ONE / (ZERO - X)
        assert format_expression(e) == "-1/x"

    def test_division_by_zero_raises(self):
        with pytest.raises(DivisionByZeroExpression):
            ONE / ZERO
        with pytest.raises(DivisionByZeroExpression):
            Expression(Poly.const(1), Poly.const(0))

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(X)


class TestCalculus:
    def test_polynomial_derivative(self):
        e = X ** 3 + A * X
        assert e.derivative("x") == 3 * X ** 2 + A

    def test_trig_derivatives(self):
        assert SIN_X.derivative("x") == COS_X
        assert COS_X.derivative("x") == ZERO - SIN_X

    def test_function_derivative_chain(self):
        fx = F.derivative("x")
        fxx = fx.derivative("x")
        assert fx == Expression.from_atom(
            Atom.func("f", ("x",)).bump("x"))
        assert fxx == Expression.from_atom(
            Atom.func("f", ("x",)).bump("x").bump("x"))

    def test_mixed_partials_commute(self):
        assert W.derivative("x").derivative("y") == \
            W.derivative("y").derivative("x")

    def test_quotient_rule(self):
        e = F / X
        want = (F.derivative("x") * X - F) / (X * X)
        assert e.derivative("x") == want

    def test_constant_derivative_zero(self):
        assert A.derivative("x").is_zero
        assert F.derivative("y").is_zero


class TestEvalAndSubst:
    def test_eval_rational_point(self):
        e = (X ** 2 + Y) / (X - Y)
        point = {Atom.coordinate("x"): Fraction(3),
                 Atom.coordinate("y"): Fraction(1, 2)}
        assert e.eval(point) == (Fraction(9) + Fraction(1, 2)) / Fraction(5, 2)

    def test_eval_pole(self):
        from curvkit.expr import PoleError
        e = ONE / (X - ONE)
        with pytest.raises(PoleError):
            e.eval({Atom.coordinate("x"): Fraction(1)})

    def test_subst_atom(self):
        e = F * F + X
        out = e.subst({Atom.func("f", ("x",)): X + ONE})
        assert out == (X + ONE) ** 2 + X

    def test_subst_into_fraction(self):
        e = ONE / F
        out = e.subst({Atom.func("f", ("x",)): X ** 2})
        assert out == ONE / X ** 2


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "3/4", "x", "-x^2", "a*x + b",
        "sin(x)^2", "cos(x)*sin(x)", "f(x)", "f'(x)", "f''(x)",
        "w(x,y)", "diff(w(x,y),x,1)", "diff(w(x,y),x,2,y,1)",
        "(x + 1)/(x - 1)", "1/(a^2*x^2)",
    ])
    def test_parse_format_parse(self, text):
        e = parse_expression(text, CHART)
        again = parse_expression(format_expression(e), CHART)
        assert again == e


BULK = settings(max_examples=300, derandomize=True, deadline=None)


class TestRandomizedRingLaws:
    @BULK
    @given(exprs, exprs, exprs)
    def test_add_associative_commutative(self, e1, e2, e3):
        assert (e1 + e2) + e3 == e1 + (e2 + e3)
        assert e1 + e2 == e2 + e1

    @BULK
    @given(exprs, exprs, exprs)
    def test_mul_distributes(self, e1, e2, e3):
        assert e1 * (e2 + e3) == e1 * e2 + e1 * e3
        assert e1 * e2 == e2 * e1

    @BULK
    @given(exprs)
    def test_additive_inverse(self, e):
        assert (e - e).is_zero

    @BULK
    @given(exprs, exprs)
    def test_division_roundtrip(self, e1, e2):
        if e2.is_zero:
            return
        assert (e1 / e2) * e2 == e1

    @BULK
    @given(exprs, exprs)
    def test_derivative_product_rule(self, e1, e2):
        lhs = (e1 * e2).derivative("x")
        rhs = e1.derivative("x") * e2 + e1 * e2.derivative("x")
        assert lhs == rhs

    @BULK
    @given(exprs)
    def test_format_parse_roundtrip(self, e):
        again = parse_expression(format_expression(e), CHART)
        assert again == e


def _coefficients(e: Expression):
    for poly in (e.num, e.den):
        yield from poly.terms.values()


def _assert_exact_coefficients(*exprs_or_polys):
    for x in exprs_or_polys:
        cs = (x.terms.values() if isinstance(x, Poly)
              else _coefficients(x))
        for c in cs:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), repr(c)


class TestCoefficients:
    """A coefficient is an int when integral and a Fraction otherwise."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(exprs, exprs)
    def test_int_or_non_integral_fraction(self, e1, e2):
        results = [e1 + e2, e1 * e2, e1.derivative("x"),
                   e1.subst({Atom.coordinate("y"): e2})]
        if not e2.is_zero:
            results.append(e1 / e2)
        _assert_exact_coefficients(poly_gcd(e1.num, e2.num), *results)
        for e in results:
            assert parse_expression(format_expression(e), CHART) == e

    def test_halves_sum_to_int(self):
        half = Expression.from_fraction(Fraction(1, 2))
        e = half * X + half * X
        assert e.num.terms == {((Atom.coordinate("x"), 1),): 1}
        assert type((half * 2).as_rational()) is Fraction
        _assert_exact_coefficients(e, (half * X * X).derivative("x"))


class TestAtomIdentity:
    """Atoms are interned, so equality is identity; nothing may copy one."""

    ATOMS = (Atom.constant("a"), Atom.coordinate("x"), Atom.sin("x"),
             Atom.cos("x"), Atom.func("w", ("x", "y"), (0, 2)))

    @pytest.mark.parametrize("atom", ATOMS, ids=str)
    def test_pickle_and_copy_return_the_atom(self, atom):
        assert pickle.loads(pickle.dumps(atom)) is atom
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom

    def test_deepcopy_shares_atoms(self):
        e = (W * SIN_X + A) / (X + F)
        e2 = copy.deepcopy(e)
        assert e2 == e
        assert e2.atoms() == e.atoms()
        assert all(any(a is b for b in e.atoms()) for a in e2.atoms())

    def test_bump_returns_the_interned_atom(self):
        assert Atom.func("f", ("t", "x")).bump("x") is \
            Atom.func("f", ("t", "x"), (0, 1))


class TestRecord:
    """expr.Record, the base of the plain records, compares, hashes and
    prints as the frozen dataclasses it replaced did."""

    def test_equal_within_one_type_only(self):
        r, s = TName("R"), TName("S")
        assert TDot(r, s) == TDot(TName("R"), TName("S"))
        assert hash(TDot(r, s)) == hash(TDot(TName("R"), TName("S")))
        assert TDot(r, s) != TDot(s, r)
        assert TDot(r, s) != TQ(r, s)
        assert TDot(r, s) != TWedge(r, s)
        assert TName("R") != "R"

    def test_repr_names_every_field(self):
        assert repr(TName("R")) == "TName(name='R')"
        assert repr(TNabla(TWedge(TName("g"), TName("S")))) == (
            "TNabla(operand=TWedge(left=TName(name='g'), "
            "right=TName(name='S')))")

    def test_pickle_round_trip(self):
        node = TQ(TName("g"), TNabla(TName("R")))
        assert pickle.loads(pickle.dumps(node)) == node

    @pytest.mark.parametrize("kwargs", [
        {"coords": ("x",)},
        {"coords": ("x", "x")},
        {"coords": ("x", "2y")},
        {"coords": ("x", "y"), "constants": ("pi",)},
        {"coords": ("x", "y"), "functions": {"f": ()}},
        {"coords": ("x", "y"), "functions": {"f": ("z",)}},
        {"coords": ("x", "y"), "functions": {"f": ("x", "x")}}])
    def test_bad_chart_raises(self, kwargs):
        with pytest.raises(ChartError):
            Chart(**kwargs)

    def test_default_dicts_are_per_instance(self):
        c1, c2 = Chart(("x", "y")), Chart(("x", "y"))
        assert c1 == c2
        assert c1.functions == {} and c1.functions is not c2.functions
        t1, t2 = Tensor(c1, 2, D_SYM2), Tensor(c1, 2, D_SYM2)
        assert t1.comps == {} and t1.comps is not t2.comps
        f1, f2 = AffineForm(ZERO), AffineForm(ZERO)
        assert f1.coeffs == {} and f1.coeffs is not f2.coeffs


def test_gcd_work_meter_is_pinned(monkeypatch):
    """The gcd budget decisions of warped-5-D weakly_ricci_symmetric: units
    charged inside poly_gcd, budget overruns and top-level calls.  Any
    change to term order, coefficient sizes or the gcd itself moves them."""
    path = CATALOG_DIR.parent / "bench" / "metrics" / "warped5.metric"
    b = CurvatureBundle(parse_metric_file(path.read_text()))
    b.tensor("C")
    b.nabla("S")
    meter = {"units": 0, "raises": 0, "calls": 0}
    charge, gcd = expr_mod._charge_gcd, expr_mod.poly_gcd

    def counted_charge(units):
        if expr_mod._gcd_depth:
            meter["units"] += units
        try:
            charge(units)
        except expr_mod._GcdBudgetExceeded:
            meter["raises"] += 1
            raise

    def counted_gcd(a, b):
        if not expr_mod._gcd_depth:
            meter["calls"] += 1
        return gcd(a, b)

    monkeypatch.setattr(expr_mod, "_charge_gcd", counted_charge)
    monkeypatch.setattr(expr_mod, "poly_gcd", counted_gcd)
    weakly_ricci_symmetric(b)
    assert meter == {"units": 175_682, "raises": 232, "calls": 47}


def test_seeded_generator_bulk():
    """The seeded generator exercises the same laws deterministically."""
    rng = random.Random(20190601)
    for _ in range(200):
        e1 = random_expression(rng)
        e2 = random_expression(rng)
        assert e1 + e2 == e2 + e1
        assert (e1 - e1).is_zero
        assert (e1 * e2).derivative("y") == \
            e1.derivative("y") * e2 + e1 * e2.derivative("y")


class TestValuesAtPoint:
    """A value modulo PRIME at the fixed point may only ever prove a fact
    the exact code would also find; where it decides nothing, the exact
    code runs."""

    @BULK
    @given(exprs, exprs)
    def test_value_is_a_ring_homomorphism(self, e1, e2):
        v1, v2 = e1.at_point(), e2.at_point()
        if v1 is None or v2 is None:
            return
        for e, want in ((e1 + e2, v1 + v2), (e1 * e2, v1 * v2)):
            got = e.at_point()
            assert got is None or got == want % PRIME

    def test_trig_pair_on_unit_circle(self):
        assert (SIN_X * SIN_X + COS_X * COS_X).at_point() == 1
        assert COS_X.at_point() != SIN_X.at_point()

    # cos-free polynomials in four atoms (listed in atom order, so each
    # monomial comes out sorted), a few small terms each
    GCD_ATOMS = (Atom.constant("a"), Atom.coordinate("x"),
                 Atom.coordinate("y"), Atom.func("f", ("x",)))
    term = st.tuples(st.integers(-3, 3).filter(bool),
                     st.tuples(*[st.integers(0, 2)] * 4))
    polys = st.lists(term, min_size=1, max_size=4).map(
        lambda ts: Poly.make(
            (tuple((a, e) for a, e in zip(TestValuesAtPoint.GCD_ATOMS, exps)
                   if e), Fraction(c)) for c, exps in ts))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(polys, polys, polys, st.booleans())
    def test_gcd_same_with_and_without_shortcut(self, p, q, common, plant):
        if plant:
            p, q = p * common, q * common
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expr_mod, "_coprime_at_point", lambda a, b: False)
            exact = poly_gcd(p, q)
        assert poly_gcd(p, q) == exact

    # images of degree 1: every atom to the power 0 or 1
    lin_term = st.tuples(st.integers(-3, 3).filter(bool),
                         st.tuples(*[st.integers(0, 1)] * 4))
    lin_polys = st.lists(lin_term, min_size=1, max_size=3).map(
        lambda ts: Poly.make(
            (tuple((a, e) for a, e in zip(TestValuesAtPoint.GCD_ATOMS, exps)
                   if e), Fraction(c)) for c, exps in ts))
    some_polys = st.one_of(polys, lin_polys)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(some_polys, some_polys, some_polys, st.booleans())
    def test_coprime_at_point_matches_reference(self, p, q, common, plant):
        if plant:
            p, q = p * common, q * common
        assert (expr_mod._coprime_at_point(p, q)
                == _coprime_at_point_reference(p, q))

    def test_degree_one_images_decide_by_root(self, monkeypatch):
        x, y = (Poly.atom(Atom.coordinate(c)) for c in "xy")
        one = Poly.const(1)
        monkeypatch.setattr(expr_mod, "gcd_mod_p", refuse)
        cases = [(x + one, (x + one) * y), (x + one, x * y + Poly.const(2)),
                 (x * y + one, y + Poly.const(5)), (x * x + y, x - y)]
        for p, q in cases:
            assert (expr_mod._coprime_at_point(p, q)
                    == _coprime_at_point_reference(p, q))
        assert not expr_mod._coprime_at_point(*cases[0])
        assert expr_mod._coprime_at_point(*cases[1])

    def test_atom_valued_zero_falls_back_to_rescan(self, monkeypatch):
        xa = Atom.coordinate("x")
        x, y = Poly.atom(xa), Poly.atom(Atom.coordinate("y"))
        monkeypatch.setitem(expr_mod._point, xa, 0)
        one = Poly.const(1)
        for p, q in [(x * y + one, x * x + y), ((x + y) * x, (x + y) * y),
                     (x * x * y + x + one, x * y - Poly.const(3))]:
            assert (expr_mod._coprime_at_point(p, q)
                    == _coprime_at_point_reference(p, q))

    def test_coprime_pair_skips_exact_gcd(self, monkeypatch):
        x, y = (Poly.atom(Atom.coordinate(c)) for c in "xy")
        p = x * x * y + Poly.const(3)
        q = x * y + x + Poly.const(1)
        monkeypatch.setattr(expr_mod, "_gcd_core", refuse)
        assert poly_gcd(p * x, q * x) == x

    def test_cos_inputs_take_exact_gcd(self, monkeypatch):
        x, c = Poly.atom(Atom.coordinate("x")), Poly.atom(Atom.cos("x"))
        p, q = c * x + Poly.const(1), c + Poly.const(2)
        calls = spy_gcd_core(monkeypatch)
        assert not expr_mod._coprime_at_point(p, q)
        assert poly_gcd(p, q) == Poly.const(1)
        assert calls

    def test_vanishing_leading_coefficient_refuses(self, monkeypatch):
        x = Atom.coordinate("x")
        r = expr_mod._atom_at_point(x)
        y = Poly.atom(Atom.coordinate("y"))
        # coprime, but the leading coefficient in y, x - r, is zero at the
        # point, so the image in y drops a degree and proves nothing
        p = (Poly.atom(x) - Poly.const(r)) * y + Poly.const(1)
        q = y + Poly.const(2)
        calls = spy_gcd_core(monkeypatch)
        assert not expr_mod._coprime_at_point(p, q)
        assert poly_gcd(p, q) == Poly.const(1)
        assert calls


def _coprime_at_point_reference(a: Poly, b: Poly) -> bool:
    """expr._coprime_at_point as first written: one image per shared atom,
    each by a rescan of every term, compared by a gcd modulo PRIME."""
    atoms_a, atoms_b = a.atoms(), b.atoms()
    if any(atom.is_cos for atom in atoms_a | atoms_b):
        return False
    for x in atoms_a & atoms_b:
        fa, fb = expr_mod._image_in(a, x), expr_mod._image_in(b, x)
        if fa is None or fb is None or not (fa[-1] and fb[-1]):
            return False
        if len(gcd_mod_p(fa, fb)) != 1:
            return False
    return True


def refuse(a, b):
    raise AssertionError("exact gcd ran")


def spy_gcd_core(monkeypatch):
    calls = []
    core = expr_mod._gcd_core

    def spy(a, b):
        calls.append((a, b))
        return core(a, b)

    monkeypatch.setattr(expr_mod, "_gcd_core", spy)
    return calls
