"""Operator actions, identity solving, recurrences, decompositions,
compatibility families, on the catalog metrics."""
import collections
import contextlib
import importlib
import itertools
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvkit import (CurvatureBundle, TensorError, operators,
                     parse_metric_file)
from curvkit.classify import classify
from curvkit import curvature as curvature_mod, expr as expr_mod
from curvkit.expr import (Atom, Expression, PRIME, ZERO, gcd_mod_p,
                          matrix_at_point)
from curvkit.operators import (
    RicciDecomposition, dot_action, tachibana, check_identity,
    two_form_recurrence, one_form_recurrence, recurrent_tensor,
    ricci_decompose, pure_radiation, compatibility_check, compatible_space,
    weakly_ricci_symmetric, solve_at, first_residual, rank_one_factor,
)
from curvkit.linsolve import LinearEquation, matrix_rank, solve_linear
from curvkit.chart import Chart
from curvkit.parsing import MetricSpec, parse_identity
from curvkit.tensor import (Descriptor, Tensor, D_SYM2, D_ANTI2, D_NONE2,
                            common_descriptor, raised_last)

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
        assert res.witness.component is not None
        assert not res.witness.value.is_zero
        # the residual with e raised instead of R, as the check once summed
        g, r = vaidya.metric, vaidya.riemann
        i1, i2, i3, x = res.witness.component

        def term(a, b, c):
            return g.contract(lambda l, m: r.get((a, b, x, l)) * bad.get((c, m)))

        assert res.witness.value == (term(i1, i2, i3) + term(i2, i3, i1)
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

    def test_unknown_names_stay_distinct(self):
        """In 11 dimensions E[1,11] and E[11,1] would both be E111."""
        coords = " ".join(f"x{i}" for i in range(11))
        spec = parse_metric_file(f"coords {coords}\n" + "".join(
            f"g[{i}][{i}] = 1\n" for i in range(1, 12)))
        bundle = CurvatureBundle(spec)
        with pytest.raises(TensorError, match="repeat a name in 11"):
            compatible_space(bundle.riemann, bundle.metric)

    def test_vacuum_family(self, schwarzschild):
        fam = compatible_space(schwarzschild.riemann, schwarzschild.metric)
        assert fam.param_count == 6
        m = fam.matrix
        assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
        for i in (0, 1):
            for j in (2, 3):
                assert m[i][j].is_zero


# -- compatibility as it was decided before it was a formula: its own walk,
# equation loop and residual sum, kept as the reference the formula is
# held to ------------------------------------------------------------------

def old_compatibility(d, g):
    raised = raised_last(d, g)

    def terms(idx):
        i1, i2, i3, x = idx
        return [(c, m, dm)
                for a, b, c in ((i1, i2, i3), (i2, i3, i1), (i3, i1, i2))
                for m, dm in raised[(a, b, x)]]

    return Descriptor(_cyclic_ops(d)).reps(d.chart.dim, 4), terms


def old_substituted(terms, entry):
    total = ZERO
    for c, m, cv in terms:
        v = entry(c, m)
        if not v.is_zero:
            total = total + cv * v
    return total


def old_compatibility_check(d, e, g):
    """None when e is compatible with d, else (component, residual)."""
    walk, terms = old_compatibility(d, g)
    return first_residual(walk, lambda idx: old_substituted(
        terms(idx), lambda c, m: e.get((c, m))))


def old_compatible_space(d, g):
    """(matrix, params) of the family, certified by substitution."""
    chart = d.chart
    n = chart.dim
    name = [[f"a{i + 1}{j + 1}" for j in range(n)] for i in range(n)]
    unknowns = [name[m][a] for a in range(n) for m in range(n)]
    walk, terms = old_compatibility(d, g)
    result = solve_at(walk, unknowns, lambda idx: (
        [(name[c][m], cv) for c, m, cv in terms(idx)], ZERO))
    taken = set(chart.coords) | set(chart.functions) | set(chart.constants)
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

    matrix = tuple(tuple(as_expression(result.solution[name[i][j]])
                         for j in range(n)) for i in range(n))
    params = tuple(prefix + u[1:] for u in unknowns if u in result.free)
    assert first_residual(walk, lambda idx: old_substituted(
        terms(idx), lambda c, m: matrix[c][m])) is None
    return matrix, params


ORACLE_METRICS = (sorted(CATALOG.glob("*.metric"))
                  + [CATALOG.parent / "bench" / "metrics" / f"{m}.metric"
                     for m in ("frw", "warped5", "taub-nut")])


@pytest.fixture(scope="module")
def oracle_bundles():
    return {p.stem: CurvatureBundle(parse_metric_file(p.read_text()))
            for p in ORACLE_METRICS}


def _tensors(bundle, names):
    """name -> tensor for each of names the bundle's dimension admits; the
    conformal ones need dimension 3 or more."""
    out = {}
    for name in names:
        try:
            out[name] = bundle.tensor(name)
        except TensorError:
            assert bundle.dim == 2 and name in "CK"
    return out


class TestCompatibilityFormula:
    """Compatibility as the identity COMPATIBLE decides what the procedure
    above decided, byte for byte, on every shipped metric."""

    @pytest.mark.parametrize("metric", [p.stem for p in ORACLE_METRICS])
    def test_checks_match_the_old_procedure(self, oracle_bundles, metric):
        b = oracle_bundles[metric]
        for d in _tensors(b, "RPCKWG").values():
            for e in (b.ricci, b.g_tensor):
                got = compatibility_check(d, e, b.metric)
                want = old_compatibility_check(d, e, b.metric)
                assert got.holds == (want is None)
                if want is not None:
                    assert got.witness.component == want[0]
                    assert str(got.witness.value) == str(want[1])

    @pytest.mark.parametrize("metric", [p.stem for p in ORACLE_METRICS])
    def test_families_match_the_old_procedure(self, oracle_bundles, metric):
        b = oracle_bundles[metric]
        for d in _tensors(b, "RCPK").values():
            family = compatible_space(d, b.metric)
            matrix, params = old_compatible_space(d, b.metric)
            assert family.params == params
            assert family.matrix == matrix
            assert ([list(map(str, row)) for row in family.matrix]
                    == [list(map(str, row)) for row in matrix])

    def test_the_two_sphere_has_no_weyl_rows(self, oracle_bundles):
        report = classify(oracle_bundles["sphere2"])
        for row in ("weyl-compatible-ricci", "compatible-space-weyl",
                    "compatible-space-conharmonic"):
            assert report.result(row).verdict == "not-evaluated"

    @staticmethod
    def member(family, e):
        """Whether e is the family's matrix at some parameter values: the
        parameters solved for by solve_linear, and substituted back."""
        atoms = [Atom.constant(p) for p in family.params]
        zero = {a: ZERO for a in atoms}
        n = len(family.matrix)

        def equations():
            for i, j in itertools.product(range(n), repeat=2):
                entry = family.matrix[i][j]
                const = entry.subst(zero)
                yield LinearEquation(
                    {p: entry.subst({**zero, a: Expression.from_int(1)})
                     - const for p, a in zip(family.params, atoms)},
                    e.get((i, j)) - const, (i, j))

        result = solve_linear(equations(), family.params)
        if not result.consistent:
            return False
        values = {a: result.particular()[p]
                  for p, a in zip(family.params, atoms)}
        assert all(family.matrix[i][j].subst(values) == e.get((i, j))
                   for i, j in itertools.product(range(n), repeat=2))
        return True

    @pytest.mark.parametrize("metric", [p.stem for p in ORACLE_METRICS])
    def test_ricci_is_in_the_family_exactly_when_compatible(
            self, oracle_bundles, metric):
        """Two computations: the residual walk of the compatibility row and
        a solve of the family's parameters; and g is in every family."""
        b = oracle_bundles[metric]
        # the formula of the riemann-compatible-ricci row
        verdict = check(b, operators.COMPATIBLE.format("R", "S"))
        families = {name: compatible_space(d, b.metric)
                    for name, d in _tensors(b, "RCPK").items()}
        assert self.member(families["R"], b.ricci) == verdict.holds
        assert verdict.holds == (metric != "warped5")
        if metric == "warped5":
            assert verdict.witness.component == (0, 1, 2, 2)
        for family in families.values():
            assert self.member(family, b.g_tensor)


class TestContraction:
    """Contracted products agree with the tensors they must equal: g^-1
    contracted with g is the identity, S^2 is S contracted with itself,
    and either factor of a product may be the one raised."""

    @pytest.mark.parametrize("metric", [p.stem for p in ORACLE_METRICS])
    def test_identities_of_contraction(self, oracle_bundles, metric):
        b = oracle_bundles[metric]
        for formula in ("g[i,m]*S[j,m] = S[j,i]",
                        "R[i,j,x,m]*g[k,m] = R[i,j,x,k]",
                        "S[i,m]*S[j,m] = S^2[i,j]",
                        "R[i,j,x,m]*S[k,m] = S[k,m]*R[i,j,x,m]"):
            assert check(b, formula).holds, formula

    @pytest.mark.parametrize("metric", [p.stem for p in ORACLE_METRICS])
    def test_tensor_unknown_solves_to_the_tensor(self, oracle_bundles,
                                                 metric):
        b = oracle_bundles[metric]
        got = check(b, "E[i,m]*g[j,m] = S[i,j]")
        assert got.holds and got.free == ()
        assert got.solved["E"] == tuple(
            tuple(b.ricci.get((i, j)) for j in range(b.dim))
            for i in range(b.dim))


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

    @staticmethod
    def counted_solves(monkeypatch, fresh=()):
        """The list that each solve_linear call appends its unknowns to,
        with the operators in fresh run at every call instead of once per
        operands."""
        solves = []

        def spy(equations, unknowns):
            solves.append(unknowns)
            return solve_linear(equations, unknowns)

        def once_unless_fresh(memo, fn, *operands):
            if fn in fresh:
                return fn(*operands)
            return curvature_mod.once(memo, fn, *operands)

        monkeypatch.setattr(operators, "solve_linear", spy)
        monkeypatch.setattr(operators, "once", once_unless_fresh)
        return solves

    def test_ricci_flat_recurrences_share_the_solve(self, monkeypatch):
        """On Schwarzschild C is R, so the conformal 2-form recurrence has
        the terms of the Riemann one and reads its solve from the memo;
        deciding afresh solves once more and gives the same result."""
        results = []
        for fresh in ((), (operators._decide_identity,)):
            solves = self.counted_solves(monkeypatch, fresh)
            b = load_bundle("schwarzschild")
            results.append([two_form_recurrence(b, name) for name in "RC"])
            assert len(solves) == 1 + len(fresh)
        assert results[0] == results[1]
        assert results[0][0] == results[0][1]

    def test_ricci_flat_identities_share_the_solve(self, monkeypatch):
        """On Schwarzschild C is R, so conformally-pseudosymmetric (R.C =
        L*Q(g,C)) and pseudosymmetric-weyl (C.C = L*Q(g,C)) have the terms
        of pseudosymmetric (R.R = L*Q(g,R)), and conformal-2-forms-recurrent
        those of riemann-2-forms-recurrent, and each reads its twin's
        solve; deciding every identity afresh solves three times more and
        prints the same report."""
        reports = []
        for fresh in ((), (operators._decide_identity,)):
            solves = self.counted_solves(monkeypatch, fresh)
            reports.append(classify(load_bundle("schwarzschild")).render())
            reports.append(len(solves))
        got, solves, want, fresh_solves = reports
        assert got == want
        assert solves == fresh_solves - 3

    def test_identity_memo_keys_on_terms(self, vaidya):
        """Two parses of one formula share a decision; a formula with other
        terms does not."""
        first = check(vaidya, "R.R = L*Q(g,R)")
        assert check(vaidya, "R.R = L*Q(g,R)") is first
        assert check(vaidya, "R.R = L1*Q(g,R)") is not first
        assert check(vaidya, "R.C = L*Q(g,C)") is not first
        signed = "R.R - Q(S,R) = L*Q(g,C)"
        assert check(vaidya, signed) is check(vaidya, signed)

    def test_identity_memo_keys_a_coefficient_by_its_form(self, vaidya):
        """Each parse builds new coefficient objects; the decision is still
        made once per printed coefficient."""
        text = "R.C + C.R = (2*m(u)/r^3)*Q(g,C) + Q(S,C)"
        first = check(vaidya, text)
        assert check(vaidya, text) is first
        assert check(vaidya, text.replace("(2*", "(4*")) is not first

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
        equations = list(equations)
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


WALK_METRICS = {p.stem: p for p in (
    sorted(CATALOG.glob("*.metric"))
    + [CATALOG.parent / "bench" / "metrics" / f"{m}.metric"
       for m in ("warped5", "frw")])}


def _cyclic_ops(d):
    """Reference copy of the hand-made walk of a cyclic sum over d's
    first slot pair and one more index."""
    if ("anti", 0, 1) in d.descriptor.ops:
        return ("anti", 0, 1), ("anti", 1, 2)
    return ()


def _two_form_ops(d):
    ops = _cyclic_ops(d)
    if ("anti", 2, 3) in d.descriptor.ops:
        ops += (("anti", 3, 4),)
    return ops


def _cyclic_parallel_ops(b):
    if ("sym", 0, 1) in b.nabla("S").descriptor.ops:
        return ("sym", 0, 1), ("sym", 1, 2)
    return ()


# row: (formula, the hand-made ops it replaced, as a function of the
# bundle, and the number of index positions)
HAND_WALKS = {
    "codazzi-ricci": ("nabla S[y,z,x] = nabla S[x,z,y]",
                      lambda b: (("anti", 0, 1),), 3),
    "cyclic-parallel-ricci": (
        "nabla S[y,z,x] + nabla S[z,x,y] + nabla S[x,y,z] = 0",
        _cyclic_parallel_ops, 3),
    "riemann-2-forms-recurrent": (operators.TWO_FORM_RECURRENT.format("R"),
                                  lambda b: _two_form_ops(b.riemann), 5),
    "conformal-2-forms-recurrent": (operators.TWO_FORM_RECURRENT.format("C"),
                                    lambda b: _two_form_ops(b.weyl), 5),
    "ricci-1-forms-recurrent": (operators.ONE_FORM_RECURRENT.format("S"),
                                lambda b: (("anti", 0, 1),), 3),
    "conformally-recurrent": (operators.recurrent_formula("C"),
                              lambda b: b.weyl.descriptor.ops, 5),
    "weakly-ricci-symmetric": (operators.WEAKLY_RICCI_SYMMETRIC,
                               lambda b: (), 3),
    "riemann-compatible-ricci": (operators.COMPATIBLE.format("R", "S"),
                                 lambda b: _cyclic_ops(b.riemann), 4),
    "weyl-compatible-ricci": (operators.COMPATIBLE.format("C", "S"),
                              lambda b: _cyclic_ops(b.weyl), 4),
}


class _Walked(Exception):
    pass


@pytest.fixture(scope="module")
def walk_bundles():
    return {name: CurvatureBundle(parse_metric_file(path.read_text()))
            for name, path in WALK_METRICS.items()}


class TestDerivedWalk:
    """The walk of an identity comes from the symmetries of its terms; for
    the seven rows that had hand-made walks it is the same walk."""

    # the conformal tensor needs dimension >= 3, so the 2-sphere has no
    # conformal rows
    @pytest.mark.parametrize("metric,row", [
        (metric, row) for metric in sorted(WALK_METRICS)
        for row in sorted(HAND_WALKS)
        if not (metric == "sphere2" and "C" in HAND_WALKS[row][0])])
    def test_same_walk_as_by_hand(self, walk_bundles, monkeypatch, metric,
                                  row):
        b = walk_bundles[metric]
        formula, hand_ops, k = HAND_WALKS[row]
        def stop(walk, *_):
            raise _Walked(walk)

        # the walk is read where the decision starts; nothing is solved
        monkeypatch.setattr(operators, "solve_at", stop)
        monkeypatch.setattr(operators, "first_residual", stop)
        with pytest.raises(_Walked) as walked:
            check(b, formula)
        (walk,) = walked.value.args
        assert walk == Descriptor(hand_ops(b)).reps(b.dim, k)

    @pytest.mark.parametrize("name,formula", [
        ("vaidya", "R = W"), ("vaidya", "C = K"),
        ("schwarzschild", "C + L*R = R + L*W")])
    def test_cancelling_terms_hold(self, name, formula):
        """kappa = 0 makes W the R object and C the K object, and on
        Schwarzschild C, W and R are one object: the terms cancel, every
        op maps them onto themselves, and the identity holds, an unknown
        staying free."""
        b = load_bundle(name)
        assert b.concircular is b.riemann and b.weyl is b.conharmonic
        res = check(b, formula)
        assert res.holds and res.witness is None
        assert res.free == (("L",) if "L" in formula else ())


@pytest.mark.parametrize("path", sorted(CATALOG.glob("*.metric")),
                         ids=lambda p: p.stem)
def test_reversed_coordinates_keep_every_verdict(path):
    """Listing the coordinates in reverse order permutes every component
    and keeps every classify verdict (witness texts may name other
    components)."""
    spec = parse_metric_file(path.read_text())
    n, chart = spec.dim, spec.chart
    reversed_spec = MetricSpec(spec.name, Chart(
        chart.coords[::-1], chart.functions, chart.constants),
        tuple(tuple(spec.matrix[n - 1 - i][n - 1 - j] for j in range(n))
              for i in range(n)))
    verdicts = [[(r.name, r.verdict) for r in classify(
        CurvatureBundle(s)).results] for s in (spec, reversed_spec)]
    assert verdicts[0] == verdicts[1]


class TestValuesAtPoint:
    """Full rank and the absence of a quasi-Einstein root are proved by
    values at the point; the exact eliminations run only when those decide
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
        monkeypatch.setattr(operators, "solve_linear", refuse)
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


# -- the quasi-Einstein last resort against the exact Euclid ------------------

def _old_poly1_mod(p, q):
    p = list(p)
    while len(p) >= len(q):
        lead = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, qc in enumerate(q):
            p[shift + i] = p[shift + i] - lead * qc
        while p and p[-1].is_zero:
            p.pop()
        if not p:
            break
    return p


def _old_poly1_gcd(polys):
    acc = None
    for p in polys:
        p = list(p)
        while p and p[-1].is_zero:
            p.pop()
        if not p:
            continue
        if acc is None:
            acc = p
            continue
        a, b = acc, p
        while b:
            a, b = b, _old_poly1_mod(a, b)
        acc = a
    return acc or []


def _old_minor(s, g, i, j, k, l):
    return [s[i][k] * s[j][l] - s[i][l] * s[j][k],
            -(s[i][k] * g[j][l] + g[i][k] * s[j][l]
              - s[i][l] * g[j][k] - g[i][l] * s[j][k]),
            g[i][k] * g[j][l] - g[i][l] * g[j][k]]


def _old_no_common_root_at_point(s_rows, g_rows, blocks):
    s_at, g_at = matrix_at_point(s_rows), matrix_at_point(g_rows)
    if s_at is None or g_at is None:
        return False
    common, keeps_degree = [], False
    for block in blocks:
        poly = [c % PRIME for c in _old_minor(s_at, g_at, *block)]
        keeps_degree = keeps_degree or poly[2] != 0
        common = gcd_mod_p(common, poly)
    return keeps_degree and len(common) == 1


def old_ricci_decompose(bundle):
    """ricci_decompose with its earlier last resort: the Euclid over all 36
    exact minors unless their values prove them coprime, and a rank check
    before the rank-one factorization."""
    s, g, n, kappa = bundle.ricci, bundle.metric, bundle.dim, bundle.kappa
    s_rows = [[s.get((i, j)) for j in range(n)] for i in range(n)]
    g_rows = [[g.lower(i, j) for j in range(n)] for i in range(n)]

    def shifted(alpha):
        return [[s_rows[i][j] - alpha * g_rows[i][j] for j in range(n)]
                for i in range(n)]

    def build(kind, alpha, rows):
        factored = rank_one_factor(rows, g)
        if factored is None:
            return None
        return RicciDecomposition(kind, alpha, *factored, 1, n - 1)

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
    pairs = list(itertools.combinations(range(n), 2))
    blocks = [(i, j, k, l) for i, j in pairs for k, l in pairs]
    if not _old_no_common_root_at_point(s_rows, g_rows, blocks):
        minors = []
        for block in blocks:
            poly = _old_minor(s_rows, g_rows, *block)
            while poly and poly[-1].is_zero:
                poly.pop()
            if poly:
                minors.append(poly)
        common = _old_poly1_gcd(minors)
        if len(common) == 2:
            alpha = -common[0] / common[1]
            rows = shifted(alpha)
            if matrix_rank(rows) <= 1:
                got = build("quasi-einstein", alpha, rows)
                if got is not None:
                    return got
    return RicciDecomposition("none", ZERO, None, None, None, rank_s,
                              n - rank_s)


BENCH_METRICS = CATALOG.parent / "bench" / "metrics"


def frw_type(scale: str, k: int) -> CurvatureBundle:
    return CurvatureBundle(parse_metric_file(f"""\
dim 4
coords t r theta phi
g[1][1] = -1
g[2][2] = ({scale})^2/(1 - ({k})*r^2)
g[3][3] = ({scale})^2*r^2
g[4][4] = ({scale})^2*r^2*sin(theta)^2
"""))


def frw() -> CurvatureBundle:
    return CurvatureBundle(parse_metric_file(
        (BENCH_METRICS / "frw.metric").read_text()))


ALL_METRICS = (sorted(CATALOG.glob("*.metric"))
               + sorted(BENCH_METRICS.glob("*.metric")))


class TestDivergenceIdentities:
    """div T = g^{im} (nabla T)[i, .., m] in the identity language: a
    one-slot term, and the contracted second Bianchi identity."""

    @pytest.mark.parametrize("name", ["vaidya", "schwarzschild",
                                      "ludwig-edgar"])
    def test_div_ricci_vanishes_with_kappa(self, name):
        # div S = (1/2) d kappa
        b = load_bundle(name)
        assert b.kappa.is_zero
        res = check(b, "div S = 0")
        assert res.holds and res.witness is None

    def test_div_ricci_is_half_d_kappa_on_frw(self):
        b = frw()
        res = check(b, "div S = 0")
        assert not res.holds and res.witness.kind == "component"
        assert res.witness.component == (0,)
        assert res.witness.value == b.kappa.derivative("t") / 2

    @pytest.mark.parametrize("path", ALL_METRICS, ids=lambda p: p.stem)
    def test_contracted_bianchi_identity(self, path):
        """div R[j,k,l] = nabla S[j,k,l] - nabla S[j,l,k], so the metric is
        harmonic exactly where its Ricci tensor is Codazzi; the cyclic sum
        of nabla R it is contracted from vanishes."""
        b = CurvatureBundle(parse_metric_file(path.read_text()))
        assert check(b, "div R[j,k,l] = nabla S[j,k,l] - nabla S[j,l,k]"
                     ).holds
        assert check(b, "nabla R[j,k,x,y,i] + nabla R[k,i,x,y,j] + "
                        "nabla R[i,j,x,y,k] = 0").holds
        report = classify(b)
        assert (report.result("harmonic").verdict
                == report.result("codazzi-ricci").verdict)

    def test_div_weyl_is_half_div_riemann(self, vaidya):
        # n = 4 and kappa = 0: div C = (n-3)/(n-2) div R
        assert check(vaidya, "div C = (1/2)*div R").holds
        assert not check(vaidya, "div C = div R").holds


class TestQuasiEinsteinRoot:
    """The last resort builds two exact minors chosen by their values and
    lets the rank-one factorization certify their one common root; it
    prints what the Euclid over every exact minor printed."""

    @pytest.mark.parametrize("path", sorted(CATALOG.glob("*.metric"))
                             + sorted(BENCH_METRICS.glob("*.metric")),
                             ids=lambda p: p.stem)
    def test_same_as_exact_euclid(self, path):
        bundle = CurvatureBundle(parse_metric_file(path.read_text()))
        assert repr(ricci_decompose(bundle)) == repr(
            old_ricci_decompose(bundle))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
           st.integers(-2, 2))
    def test_frw_type_same_as_exact_euclid(self, coeffs, k):
        scale = " + ".join(f"({c})*t^{e}" for e, c in enumerate(coeffs))
        bundle = frw_type(scale, k)
        assert repr(ricci_decompose(bundle)) == repr(
            old_ricci_decompose(bundle))

    def test_frw_builds_two_exact_minors(self, monkeypatch):
        exact = []
        minor = operators._minor_quadratic

        def spy(s, g, *block):
            if isinstance(s[0][0], Expression):
                exact.append(block)
            return minor(s, g, *block)

        monkeypatch.setattr(operators, "_minor_quadratic", spy)
        monkeypatch.setattr(operators, "solve_linear", refuse)
        got = ricci_decompose(frw())
        assert got.kind == "quasi-einstein"
        assert len(exact) == 2

    def test_quadratic_value_gcd_takes_the_euclid(self, monkeypatch):
        """With values that decide nothing, one exact solve in (X, Y) =
        (alpha^2, alpha) over every minor gives the same root."""
        want = repr(ricci_decompose(frw()))
        solved = []
        solve = operators.solve_linear

        def spy(equations, unknowns):
            equations = list(equations)
            solved.append(sum(1 for eq in equations if not (
                eq.rhs.is_zero and all(c.is_zero
                                       for c in eq.coeffs.values()))))
            return solve(equations, unknowns)

        monkeypatch.setattr(operators, "pivots_mod_p", lambda values: {})
        monkeypatch.setattr(operators, "solve_linear", spy)
        assert repr(ricci_decompose(frw())) == want
        # the metric is diagonal: only the 6 principal minors are nonzero
        assert solved == [6]

    def test_failed_certificate_is_none(self, monkeypatch):
        """Two value pivots in the X and Y columns only name the minors of
        the candidate: when the exact minors have no common root, the
        candidate fails the rank-one factorization and the verdict is the
        Euclid's none."""
        bundle = CurvatureBundle(parse_metric_file(WARPED5))
        pivots = expr_mod.pivots_mod_p
        monkeypatch.setattr(operators, "pivots_mod_p", lambda values: pivots(
            [row[:2] for row in values]))
        monkeypatch.setattr(operators, "solve_linear", refuse)
        got = ricci_decompose(bundle)
        assert got.kind == "none"
        assert repr(got) == repr(old_ricci_decompose(bundle))

    @staticmethod
    def euclid_root(s_rows, g_rows):
        """The root the Euclid over every exact minor gives, or None."""
        pairs = list(itertools.combinations(range(len(s_rows)), 2))
        common = _old_poly1_gcd([_old_minor(s_rows, g_rows, i, j, k, l)
                                 for i, j in pairs for k, l in pairs])
        return -common[0] / common[1] if len(common) == 2 else None

    @pytest.mark.parametrize("values", [True, False],
                             ids=["values", "exact-solve"])
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.data())
    def test_common_root_property(self, values, data):
        """On S = alpha0*g + beta*eta(x)eta, with g symmetric, non-diagonal
        and nondegenerate and every entry of degree 1 in t, the root is
        alpha0; on an unstructured S there is none, or a candidate the
        rank-one factorization rejects.  Both agree with the Euclid, with
        values deciding first and with the exact solve alone."""
        n = data.draw(st.sampled_from([3, 4]))
        t = Expression.from_atom(Atom.coordinate("t"))
        poly = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
            lambda c: Expression.from_int(c[0]) + Expression.from_int(c[1])
            * t)

        def symmetric():
            rows = [[None] * n for _ in range(n)]
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                rows[i][j] = rows[j][i] = data.draw(poly)
            return rows

        g_rows = symmetric()
        assume(any(not g_rows[i][j].is_zero
                   for i in range(n) for j in range(i)))
        assume(matrix_rank(g_rows) == n)
        alpha0 = None
        if data.draw(st.booleans()):
            alpha0, beta = data.draw(poly), data.draw(poly)
            eta = [data.draw(poly) for _ in range(n)]
            assume(not beta.is_zero and any(not e.is_zero for e in eta))
            s_rows = [[alpha0 * g_rows[i][j] + beta * eta[i] * eta[j]
                       for j in range(n)] for i in range(n)]
        else:
            s_rows = symmetric()
        want = self.euclid_root(s_rows, g_rows)
        with (contextlib.nullcontext() if values else mock.patch.object(
                operators, "pivots_mod_p", lambda m: {})):
            got = operators._common_root(s_rows, g_rows)
        if alpha0 is not None:
            assert got == alpha0 and want == alpha0
        elif want is not None:
            assert got == want
        elif got is not None:
            shifted = [[s_rows[i][j] - got * g_rows[i][j] for j in range(n)]
                       for i in range(n)]
            assert rank_one_factor(shifted, None) is None
