"""Operator actions, identity solving, recurrences, decompositions,
compatibility families, on the catalog metrics."""
import collections
import importlib
import itertools
import sys

import pytest

from curvkit import (CurvatureBundle, TensorError, operators,
                     parse_metric_file)
from curvkit.classify import classify
from curvkit import curvature as curvature_mod, expr as expr_mod
from curvkit.expr import Atom, Expression
from curvkit.operators import (
    dot_action, tachibana, check_identity, two_form_recurrence,
    one_form_recurrence, recurrent_tensor, ricci_decompose, pure_radiation,
    compatibility_check, compatible_space, weakly_ricci_symmetric, solve_at,
    first_residual,
)
from curvkit.linsolve import solve_linear
from curvkit.parsing import parse_identity
from curvkit.tensor import (Descriptor, Tensor, D_SYM2, D_ANTI2, D_NONE2,
                            common_descriptor)

import vaidya_reference as ref
from conftest import CATALOG, expect_components, expr, load_bundle

# `from curvkit import classify` gives the function of that name
classify_mod = importlib.import_module("curvkit.classify")


def check(bundle, text):
    return check_identity(parse_identity(text, bundle.chart), bundle)


def param(name):
    return Expression.from_atom(Atom.constant(name))


class TestOperatorTables:
    @pytest.mark.parametrize("left,right,table", [
        ("R", "R", ref.RR), ("R", "C", ref.RC),
        ("C", "R", ref.CR), ("C", "C", ref.CC),
    ])
    def test_dot_actions(self, vaidya, left, right, table):
        out = dot_action(vaidya.tensor(left), vaidya.tensor(right),
                         vaidya.metric)
        expect_components(vaidya, out, table)

    @pytest.mark.parametrize("base,operand,table", [
        ("g", "R", ref.Q_G_R), ("S", "R", ref.Q_S_R),
        ("g", "C", ref.Q_G_C), ("S", "C", ref.Q_S_C),
    ])
    def test_endomorphism_actions(self, vaidya, base, operand, table):
        out = tachibana(vaidya.tensor(base), vaidya.tensor(operand))
        expect_components(vaidya, out, table)

    def test_dot_annihilates_metric(self, vaidya):
        out = dot_action(vaidya.riemann, vaidya.g_tensor, vaidya.metric)
        assert out.is_zero

    def test_q_of_metric_with_metric_vanishes(self, vaidya):
        assert tachibana(vaidya.g_tensor, vaidya.g_tensor).is_zero

    def test_results_antisymmetric_in_trailing_pair(self, vaidya):
        out = dot_action(vaidya.riemann, vaidya.ricci, vaidya.metric)
        assert ("anti", 2, 3) in out.descriptor.ops
        assert out.get((0, 0, 0, 1)) == -out.get((0, 0, 1, 0))

    def test_dot_rejects_wrong_valence(self, vaidya):
        with pytest.raises(TensorError, match="valence 4"):
            dot_action(vaidya.ricci, vaidya.riemann, vaidya.metric)

    def test_q_rejects_asymmetric_base(self, vaidya):
        anti = Tensor.from_reps(vaidya.chart, 2, D_ANTI2,
                                {(0, 1): expr("1", vaidya)})
        with pytest.raises(TensorError, match="symmetric"):
            tachibana(anti, vaidya.riemann)


class TestIdentitySolver:
    def test_riemann_semisymmetry_fails_with_ratio(self, vaidya):
        res = check(vaidya, "R.R = L*Q(g,R)")
        assert not res.holds
        w = res.witness
        assert w.kind == "ratio" and w.unknown == "L"
        assert w.anchor_value == expr("-2*m(u)/r^3", vaidya)
        assert w.value == expr("m(u)/r^3", vaidya)

    def test_weyl_form_holds_uniquely(self, vaidya):
        res = check(vaidya, "C.C = L*Q(g,C)")
        assert res.holds and res.free == ()
        assert res.solved["L"] == expr("m(u)/r^3", vaidya)

    def test_mixed_combination_holds(self, vaidya):
        res = check(vaidya, "R.R - Q(S,R) = L*Q(g,C)")
        assert res.holds
        assert res.solved["L"] == expr("m(u)/r^3", vaidya)

    def test_concrete_coefficient_identity(self, vaidya):
        res = check(vaidya, "R.C + C.R = (2*m(u)/r^3)*Q(g,C) + Q(S,C)")
        assert res.holds and res.solved == {}

    def test_wrong_operator_base_fails(self, vaidya):
        assert not check(vaidya, "R.R = L*Q(S,R)").holds

    def test_vanishing_identity_fails_with_component(self, vaidya):
        res = check(vaidya, "R.R = 0")
        assert not res.holds
        assert res.witness.kind == "component"
        assert res.witness.value == expr("-2*m(u)*m'(u)/r^3", vaidya)

    def test_flat_space_leaves_unknown_free(self, minkowski):
        res = check(minkowski, "R.R = L*Q(g,R)")
        assert res.holds and res.free == ("L",)
        assert res.solved["L"].is_zero

    def test_static_limit_is_semisymmetric_like(self, schwarzschild):
        res = check(schwarzschild, "R.R = L*Q(g,R)")
        assert res.holds and res.free == ()
        assert res.solved["L"] == expr("m/r^3", schwarzschild)

    def test_null_collapse_identities(self, ludwig_edgar):
        assert check(ludwig_edgar, "R.R = 0").holds
        assert check(ludwig_edgar, "R.C = 0").holds


class TestRecurrences:
    def test_riemann_two_form_needs_nonzero_covector(self, vaidya):
        res = two_form_recurrence(vaidya, "R")
        assert not res.holds
        assert res.free == ()
        assert all(v.is_zero for v in res.covector)

    def test_weyl_two_forms_recurrent(self, vaidya):
        res = two_form_recurrence(vaidya, "C")
        assert res.holds and res.free == ()
        assert res.covector[0] == expr("m'(u)/m(u)", vaidya)
        assert all(v.is_zero for v in res.covector[1:])

    def test_ricci_one_forms_not_recurrent(self, vaidya):
        res = one_form_recurrence(vaidya, "S")
        assert not res.holds
        assert res.witness_residual is not None

    def test_weyl_not_plain_recurrent(self, vaidya):
        assert not recurrent_tensor(vaidya, "C").holds

    def test_null_collapse_riemann_two_forms(self, ludwig_edgar):
        res = two_form_recurrence(ludwig_edgar, "R")
        assert res.holds and res.free == ("P1",)
        assert all(v.is_zero for v in res.covector)

    def test_null_collapse_weyl_two_forms(self, ludwig_edgar):
        res = two_form_recurrence(ludwig_edgar, "C")
        assert res.holds and res.free == ("P1",)

    def test_null_collapse_ricci_one_forms(self, ludwig_edgar):
        res = one_form_recurrence(ludwig_edgar, "S")
        assert res.holds and res.free == ("P1",)
        assert res.covector[0].is_zero and res.covector[1].is_zero
        assert res.covector[2] == expr(
            "(diff(w(u,x,y),x,1,y,2) + diff(w(u,x,y),x,3))"
            "/(diff(w(u,x,y),y,2) + diff(w(u,x,y),x,2))", ludwig_edgar)
        assert res.covector[3] == expr(
            "(diff(w(u,x,y),y,3) + diff(w(u,x,y),x,2,y,1))"
            "/(diff(w(u,x,y),y,2) + diff(w(u,x,y),x,2))", ludwig_edgar)


class TestRicciShape:
    def test_radiating_metric_is_ricci_simple(self, vaidya):
        dec = ricci_decompose(vaidya)
        assert dec.kind == "ricci-simple"
        assert dec.alpha.is_zero
        assert dec.beta == expr("2*m'(u)", vaidya)
        assert dec.eta[0] == expr("1/r", vaidya)
        assert all(v.is_zero for v in dec.eta[1:])
        assert dec.eta_norm2.is_zero
        assert dec.rank == 1 and dec.nullity == 3

    def test_sphere_is_einstein(self, sphere2):
        dec = ricci_decompose(sphere2)
        assert dec.kind == "einstein"
        assert dec.alpha == expr("-1/a^2", sphere2)
        assert dec.rank == 0 and dec.nullity == 2

    def test_vacuum_is_einstein_with_zero_alpha(self, schwarzschild):
        dec = ricci_decompose(schwarzschild)
        assert dec.kind == "einstein" and dec.alpha.is_zero

    def test_null_collapse_ricci_simple(self, ludwig_edgar):
        dec = ricci_decompose(ludwig_edgar)
        assert dec.kind == "ricci-simple"
        assert dec.beta == expr(
            "-(p^2*x*diff(w(u,x,y),y,2) + p^2*x*diff(w(u,x,y),x,2))/2",
            ludwig_edgar)
        assert dec.eta == (expr("1", ludwig_edgar),) + tuple(
            expr("0", ludwig_edgar) for _ in range(3))
        assert dec.eta_norm2.is_zero

    def test_pure_radiation_form(self, vaidya):
        pr = pure_radiation(vaidya)
        assert pr.holds
        assert pr.beta == expr("c^4*m'(u)/(4*G*pi)", vaidya)
        assert pr.eta[0] == expr("1/r", vaidya)
        assert pr.eta_norm2.is_zero

    def test_vacuum_is_not_pure_radiation(self, schwarzschild):
        pr = pure_radiation(schwarzschild)
        assert not pr.holds and pr.reason == "energy-momentum vanishes"

    def test_null_collapse_pure_radiation(self, ludwig_edgar):
        pr = pure_radiation(ludwig_edgar)
        assert pr.holds
        assert pr.beta == expr(
            "-(c^4*p^2*x*diff(w(u,x,y),y,2) + c^4*p^2*x*diff(w(u,x,y),x,2))"
            "/(16*G*pi)", ludwig_edgar)


class TestCompatibility:
    def test_ricci_is_curvature_compatible(self, vaidya):
        for name in ("R", "C"):
            res = compatibility_check(vaidya.tensor(name), vaidya.ricci,
                                      vaidya.metric)
            assert res.holds, name

    def test_metric_always_compatible(self, vaidya):
        for name in ("R", "P", "C", "K", "W", "G"):
            res = compatibility_check(vaidya.tensor(name),
                                      vaidya.g_tensor, vaidya.metric)
            assert res.holds, name

    def test_incompatible_witness(self, vaidya):
        bad = Tensor.from_reps(vaidya.chart, 2, D_SYM2,
                               {(0, 2): expr("1", vaidya)})
        res = compatibility_check(vaidya.riemann, bad, vaidya.metric)
        assert not res.holds
        assert res.witness_component is not None
        assert not res.witness_value.is_zero
        # the residual with e raised instead of R, as the check once summed
        g, r = vaidya.metric, vaidya.riemann
        i1, i2, i3, x = res.witness_component

        def term(a, b, c):
            return g.contract(lambda l, m: r.get((a, b, x, l)) * bad.get((c, m)))

        assert res.witness_value == (term(i1, i2, i3) + term(i2, i3, i1)
                                     + term(i3, i1, i2))

    def test_family_shape(self, vaidya):
        fam = compatible_space(vaidya.riemann, vaidya.metric)
        assert fam.param_count == 6
        assert fam.params == ("a11", "a12", "a22", "a33", "a34", "a44")
        m = fam.matrix
        # angular block decouples from the null block
        for i in (0, 1):
            for j in (2, 3):
                assert m[i][j].is_zero and m[j][i].is_zero
        coupling = param("a12") + expr("r*m'(u)/m(u)", vaidya) * param("a22")
        assert m[1][0] == coupling
        assert m[0][0] == param("a11") and m[0][1] == param("a12")
        assert m[2][3] == param("a34") and m[3][2] == param("a34")

    def test_projective_family_matches_riemann_family(self, vaidya):
        fam_r = compatible_space(vaidya.riemann, vaidya.metric)
        fam_p = compatible_space(vaidya.projective, vaidya.metric)
        assert fam_r.matrix == fam_p.matrix
        assert fam_r.params == fam_p.params

    def test_conformal_families_symmetric(self, vaidya):
        fam_c = compatible_space(vaidya.weyl, vaidya.metric)
        fam_k = compatible_space(vaidya.conharmonic, vaidya.metric)
        assert fam_c.matrix == fam_k.matrix
        assert fam_c.param_count == 6
        m = fam_c.matrix
        assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))

    def test_flat_space_counts(self, minkowski):
        general = compatible_space(minkowski.riemann, minkowski.metric)
        assert general.param_count == 16

    def test_vacuum_family(self, schwarzschild):
        fam = compatible_space(schwarzschild.riemann, schwarzschild.metric)
        assert fam.param_count == 6
        m = fam.matrix
        assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
        for i in (0, 1):
            for j in (2, 3):
                assert m[i][j].is_zero


def _add_always_computed(self, other):
    """Tensor.add summing every component, with no operand returned as is."""
    self._check_same_shape(other)
    return Tensor.compute(self.chart, self.valence,
                          common_descriptor((self, other)),
                          lambda idx: self.get(idx) + other.get(idx))


REPORT_METRICS = (sorted(CATALOG.glob("*.metric"))
                  + [CATALOG.parent / "bench" / "metrics" / "taub-nut.metric"])


class TestBundleMemo:
    @pytest.mark.parametrize("name,dots,qs,spaces", [
        ("schwarzschild", 2, 3, 2), ("minkowski", 2, 3, 2),
        # kappa = 0 makes C the conharmonic tensor K
        ("vaidya", 5, 5, 3), ("ludwig-edgar", 5, 5, 3)])
    def test_classify_runs_each_operation_once(self, name, dots, qs, spaces,
                                               monkeypatch):
        calls = collections.Counter()

        def counted(module, attr):
            fn = getattr(module, attr)

            def spy(*args):
                calls[attr] += 1
                return fn(*args)

            monkeypatch.setattr(module, attr, spy)

        # the products are looked up in curvature, the families in classify
        counted(curvature_mod, "dot_action")
        counted(curvature_mod, "tachibana")
        counted(classify_mod, "compatible_space")
        classify(load_bundle(name))
        assert calls == {"dot_action": dots, "tachibana": qs,
                         "compatible_space": spaces}

    @pytest.mark.parametrize("path", REPORT_METRICS, ids=lambda p: p.stem)
    def test_report_same_as_with_every_sum_computed(self, path, monkeypatch):
        text = path.read_text()
        got = classify(CurvatureBundle(parse_metric_file(text))).render()
        monkeypatch.setattr(Tensor, "add", _add_always_computed)
        want = classify(CurvatureBundle(parse_metric_file(text))).render()
        assert got == want

    def test_ricci_flat_recurrences_share_the_solve(self, monkeypatch):
        """On Schwarzschild C is R, so conformal-2-forms-recurrent reads
        riemann-2-forms-recurrent's solve from the memo; computing every
        recurrence afresh solves once more and prints the same report."""
        def run():
            solves = []

            def spy(equations, unknowns):
                solves.append(unknowns)
                return solve_linear(equations, unknowns)

            monkeypatch.setattr(operators, "solve_linear", spy)
            report = classify(load_bundle("schwarzschild")).render()
            return report, len(solves)

        got, solves = run()
        monkeypatch.setattr(operators, "once",
                            lambda memo, fn, *operands: fn(*operands))
        want, fresh_solves = run()
        assert got == want
        assert solves == fresh_solves - 1

    def test_vacuum_twins_are_riemann(self):
        b = load_bundle("schwarzschild")
        assert b.weyl is b.riemann
        assert b.conharmonic is b.riemann
        assert b.concircular is b.riemann
        # P - R is zero too, but P keeps its own fewer symmetries
        assert b.projective is not b.riemann
        assert b.projective.descriptor is D_ANTI2

    def test_scalar_flat_twins(self):
        b = load_bundle("vaidya")
        assert b.concircular is b.riemann
        assert b.weyl is b.conharmonic
        assert b.weyl is not b.riemann


class TestWeakRicciSymmetry:
    def test_radiating_metric_is_not(self, vaidya):
        res = weakly_ricci_symmetric(vaidya)
        assert not res.holds
        assert res.witness_residual is not None

    def test_null_collapse_is(self, ludwig_edgar):
        res = weakly_ricci_symmetric(ludwig_edgar)
        assert res.holds
        assert res.free == ("B1", "D1")
        zero = expr("0", ludwig_edgar)
        inv = expr("-1/x", ludwig_edgar)
        assert res.b == (zero, zero, inv, zero)
        assert res.d == (zero, zero, inv, zero)
        assert res.a[1].is_zero
        assert res.a[0] == expr(
            "-(2*p^2*r*diff(w(u,x,y),y,2) + 2*p^2*r*diff(w(u,x,y),x,2)"
            " - x^2*diff(w(u,x,y),u,1,y,2) - x^2*diff(w(u,x,y),u,1,x,2))"
            "/(x^2*diff(w(u,x,y),y,2) + x^2*diff(w(u,x,y),x,2))", ludwig_edgar)


class TestParallelEnergyMomentum:
    def test_vacuum_holds(self, schwarzschild):
        assert schwarzschild.nabla("T").is_zero

    def test_radiating_fails(self, vaidya):
        expect_components(vaidya, vaidya.nabla("T"),
                          ref.NABLA_ENERGY_MOMENTUM)

    def test_null_collapse_fails(self, ludwig_edgar):
        assert not ludwig_edgar.nabla("T").is_zero


def test_solve_at_builds_labelled_equations(monkeypatch):
    sent = []

    def spy(equations, unknowns):
        sent.extend(equations)
        return solve_linear(equations, unknowns)

    monkeypatch.setattr(operators, "solve_linear", spy)
    c = Expression.from_int
    rows = {(0,): ([("x", c(1)), ("y", c(2)), ("x", c(3))], c(4)),
            (1,): ([("x", c(1)), ("x", c(-1)), ("y", c(1))], c(1)),
            (2,): ([("x", c(2)), ("x", c(-2))], c(0)),
            (3,): ([("y", c(0))], c(0)),
            (4,): ([("y", c(1))], c(2))}
    result = solve_at(rows, ("x", "y"), rows.get)
    # repeated unknowns add up, a cancelled sum drops, all-zero rows vanish
    assert [(e.label, e.coeffs, e.rhs) for e in sent] == [
        ((0,), {"x": c(4), "y": c(2)}, c(4)),
        ((1,), {"y": c(1)}, c(1)),
        ((4,), {"y": c(1)}, c(2))]
    assert result.pivot_labels == {"x": (0,), "y": (1,)}
    assert result.witness_label == (4,) and result.witness_residual == c(1)


class TestCanonicalWalk:
    """Equations and residuals are built at canonical representatives only;
    walking all n^k index tuples instead changes no verdict or witness."""

    @staticmethod
    def spy_solver(monkeypatch):
        sizes = []

        def spy(equations, unknowns):
            equations = list(equations)
            sizes.append(len(equations))
            return solve_linear(equations, unknowns)

        monkeypatch.setattr(operators, "solve_linear", spy)
        return sizes

    def test_equation_counts(self, monkeypatch, ludwig_edgar):
        # a fresh bundle: the session's may hold the recurrences' results
        vaidya = load_bundle("vaidya")
        sizes = self.spy_solver(monkeypatch)
        check(vaidya, "R.R = L*Q(g,R)")
        two_form_recurrence(vaidya, "R")
        compatible_space(ludwig_edgar.tensor("P"), ludwig_edgar.metric)
        witnesses = [one_form_recurrence(vaidya, "S").witness_component,
                     recurrent_tensor(vaidya, "C").witness_component,
                     weakly_ricci_symmetric(vaidya).witness_component]
        assert two_form_recurrence(vaidya, "C").holds
        # all index tuples gave 208, 168 and 54 for the first three
        assert sizes == [14, 14, 9, 5, 30, 14, 14]
        assert witnesses == [(0, 2, 2), (0, 1, 0, 2, 2), (2, 0, 2)]

    @staticmethod
    def full_walk(monkeypatch):
        """Make every index walk in the operators and classify modules run
        over all n^k tuples, as with no symmetry at all."""
        reps = Descriptor.reps

        def walk(self, n, k):
            caller = sys._getframe(1).f_globals["__name__"]
            if caller in ("curvkit.operators", "curvkit.classify"):
                return tuple(itertools.product(range(n), repeat=k))
            return reps(self, n, k)

        monkeypatch.setattr(Descriptor, "reps", walk)

    @pytest.mark.parametrize("name", ["vaidya", "ludwig-edgar",
                                      "schwarzschild"])
    def test_classify_unchanged_by_full_walk(self, monkeypatch, name):
        sizes = self.spy_solver(monkeypatch)
        report = classify(load_bundle(name)).render()
        walked = sum(sizes)
        self.full_walk(monkeypatch)
        sizes.clear()
        assert classify(load_bundle(name)).render() == report
        assert sum(sizes) > walked


class TestValuesAtPoint:
    """Full rank and coprime minors are proved by values at the point;
    the exact elimination and minor Euclid run only when those decide
    nothing, and give the same answers."""

    @staticmethod
    def matrices():
        x, y = (Expression.from_atom(Atom.coordinate(c)) for c in "xy")
        a, one = param("a"), Expression.from_int(1)
        r1, r2 = [x, y + one, x * y], [a, x + a, y * y - one]
        return [
            ([r1, r2, [x + one, a * x, y]], 3),
            ([r1, r2, [p + q for p, q in zip(r1, r2)]], 2),
            ([[p * q for q in r1] for p in (x, a, y * x)], 1),
            ([r1, r2], 2),
            ([[x, a], [y, x * y], [a + one, y]], 2),
        ]

    def test_rank_equals_elimination_rank(self, monkeypatch):
        got = [operators.matrix_rank(rows) for rows, _ in self.matrices()]
        monkeypatch.setattr(expr_mod, "matrix_at_point", lambda rows: None)
        assert got == [operators.matrix_rank(rows)
                       for rows, _ in self.matrices()]
        assert got == [rank for _, rank in self.matrices()]

    def test_full_rank_needs_no_elimination(self, monkeypatch):
        full = [(rows, rank) for rows, rank in self.matrices()
                if rank == min(len(rows), len(rows[0]))]
        monkeypatch.setattr(Expression, "__truediv__", refuse)
        for rows, rank in full:
            assert operators.matrix_rank(rows) == rank

    def test_warped_product_skips_minor_euclid(self, monkeypatch):
        bundle = CurvatureBundle(parse_metric_file(WARPED5))
        monkeypatch.setattr(operators, "_poly1_gcd", refuse)
        got = ricci_decompose(bundle)
        assert (got.kind, got.rank, got.nullity) == ("none", 5, 0)

    def test_warped_product_projective_space(self, monkeypatch):
        """Every homogeneous block of this system whose values have full
        column rank is settled at zero; exact elimination of the whole
        system ran past a minute."""
        bundle = CurvatureBundle(parse_metric_file(WARPED5))
        sizes, hits = [], []

        def solve_spy(equations, unknowns):
            equations = list(equations)
            sizes.append((len(equations), len(unknowns)))
            return solve_linear(equations, unknowns)

        def residual_spy(walk, residual):
            hits.append(first_residual(walk, residual))
            return hits[-1]

        monkeypatch.setattr(operators, "solve_linear", solve_spy)
        monkeypatch.setattr(operators, "first_residual", residual_spy)
        p = bundle.tensor("P")
        family = compatible_space(p, bundle.metric)
        assert family.params == ("a12", "a22", "a33", "a34", "a44", "a55")
        assert sizes == [(36, 25)]
        # the substitution certificate ran and found no residual
        assert hits == [None]
        e = Tensor.compute(bundle.chart, 2, D_NONE2,
                           lambda idx: family.matrix[idx[0]][idx[1]])
        assert compatibility_check(p, e, bundle.metric).holds


WARPED5 = """\
dim 5
coords t x y z w
function f(t,x)
function h(t)
g[1][1] = -f(t,x)
g[2][2] = h(t)
g[3][3] = h(t)
g[4][4] = h(t)
g[5][5] = x^2
"""


def refuse(*args):
    raise AssertionError("exact path ran")
