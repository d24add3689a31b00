"""Acceptance gate: one test per criterion.

1. componentwise reproduction of the radiating-metric curvature tables,
2. pinned structure report for the radiating metric,
3. pinned structure report for the static vacuum limit,
4. pinned comparison table radiating vs null-collapse metric; its
   parallel-energy-momentum row, `fails | fails | agree`, has its own test
   that also pins the exactly nonzero witness (kappa = 0 makes T a multiple
   of S, and (nabla T)[1][3][1] = -T[1][1]/x), and a SymPy oracle rebuilds
   S and nabla S of the null-collapse metric from the README formulas,
5. algebraic property suites on every catalog metric plus randomized
   expression-kernel laws (>= 1000 cases),
6. finite-difference numeric cross-check at random rational points,
7. the radiating tensors collapse onto the static ones when the mass
   function is frozen to a constant, and so does the solved L of every
   pseudosymmetry condition that holds on the radiating metric.

All symbolic comparisons are canonical-form equality (zero tolerance);
the numeric cross-check runs at relative tolerance 1e-6.
"""
import random
from fractions import Fraction

import pytest

from curvkit import CurvatureBundle, parse_metric_file
from curvkit.expr import Atom, Expression
from curvkit.classify import classify, compare_reports
from curvkit.curvature import evaluate_tensor_ast
from curvkit.operators import (check_identity, compatible_space, dot_action,
                               tachibana)
from curvkit.parsing import TNode, parse_expression, parse_identity
from curvkit.tensor import kulkarni_nomizu

import vaidya_reference as ref
from conftest import CATALOG, expect_components, expr
from test_expr import CHART as EXPR_CHART, random_expression
from test_numeric_oracle import POLY_NULL, compare_point, rational

ZERO = Expression.from_int(0)


def test_criterion_1_component_tables(vaidya):
    assert vaidya.kappa == expr(ref.KAPPA, vaidya)
    expect_components(vaidya, vaidya.riemann, ref.RIEMANN)
    expect_components(vaidya, vaidya.ricci, ref.RICCI)
    expect_components(vaidya, vaidya.weyl, ref.WEYL)
    expect_components(vaidya, vaidya.nabla("R"), ref.NABLA_RIEMANN)
    expect_components(vaidya, vaidya.nabla("S"), ref.NABLA_RICCI)
    expect_components(vaidya, vaidya.nabla("C"), ref.NABLA_WEYL)
    expect_components(vaidya, vaidya.energy_momentum, ref.ENERGY_MOMENTUM)
    expect_components(vaidya, vaidya.nabla("T"), ref.NABLA_ENERGY_MOMENTUM)
    g, met = vaidya.g_tensor, vaidya.metric
    R, S, C = vaidya.riemann, vaidya.ricci, vaidya.weyl
    expect_components(vaidya, dot_action(R, R, met), ref.RR)
    expect_components(vaidya, dot_action(R, C, met), ref.RC)
    expect_components(vaidya, dot_action(C, R, met), ref.CR)
    expect_components(vaidya, dot_action(C, C, met), ref.CC)
    expect_components(vaidya, tachibana(g, R), ref.Q_G_R)
    expect_components(vaidya, tachibana(S, R), ref.Q_S_R)
    expect_components(vaidya, tachibana(g, C), ref.Q_G_C)
    expect_components(vaidya, tachibana(S, C), ref.Q_S_C)


def test_criterion_2_radiating_report(vaidya):
    lines = classify(vaidya).render().splitlines()
    for line in [
        "scalar-flat: holds",
        "ricci-flat: fails; witness residual_11 = 2*m'(u)/r^2",
        "ricci-symmetric: fails; witness residual_111 = "
        "(2*r^2*m''(u) + 4*m(u)*m'(u))/r^4",
        "riemann-equals-concircular: holds",
        "weyl-equals-conharmonic: holds",
        "conformally-semisymmetric: fails; witness residual_121313 = "
        "-3*m(u)*m'(u)/r^3",
        "pseudosymmetric: fails; witness L_at_121313 = -2*m(u)/r^3; "
        "witness L_at_121323 = m(u)/r^3",
        "pseudosymmetric-weyl: holds; witness L = m(u)/r^3",
        "rr-qsr-pseudosymmetric: holds; witness L = m(u)/r^3",
        "rc-cr-pseudosymmetric: holds; witness L = 2*m(u)/r^3",
        "riemann-2-forms-recurrent: fails; witness only_pi = {0, 0, 0, 0}",
        "ricci-1-forms-recurrent: fails; witness residual_133 = 2*m'(u)/r",
        "conformal-2-forms-recurrent: holds; witness pi = "
        "{m'(u)/m(u), 0, 0, 0}",
        "einstein: fails",
        "ricci-simple: holds; witness beta = 2*m'(u); witness eta = "
        "{1/r, 0, 0, 0}; witness eta_norm2 = 0",
        "s-wedge-s-zero: holds",
        "s-squared-zero: holds",
        "codazzi-ricci: fails; witness residual_121 = 4*m'(u)/r^3",
        "cyclic-parallel-ricci: fails; witness residual_111 = "
        "(6*r^2*m''(u) + 12*m(u)*m'(u))/r^4",
        "riemann-compatible-ricci: holds",
        "weyl-compatible-ricci: holds",
        "compatible-space-riemann: holds; witness param_count = 6; "
        "witness E21 = (a22*r*m'(u) + a12*m(u))/m(u)",
        "compatible-space-projective: holds; witness param_count = 6; "
        "witness E21 = (a22*r*m'(u) + a12*m(u))/m(u)",
        "compatible-space-weyl: holds; witness param_count = 6",
        "compatible-space-conharmonic: holds; witness param_count = 6",
    ]:
        assert line in lines, line
    # kappa = 0 collapses the kappa-corrected tensors onto R and C
    assert vaidya.tensor("W").equals(vaidya.riemann)
    assert vaidya.tensor("K").equals(vaidya.weyl)
    # conformal-type compatible families are symmetric and block-diagonal
    for name in ("C", "K"):
        fam = compatible_space(vaidya.tensor(name), vaidya.metric)
        assert fam.param_count == 6
        m = fam.matrix
        assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
        assert all(m[i][j].is_zero for i in (0, 1) for j in (2, 3))


def test_criterion_3_static_vacuum_report(schwarzschild):
    lines = classify(schwarzschild).render().splitlines()
    for line in [
        "ricci-flat: holds",
        "riemann-equals-projective: holds",
        "riemann-equals-concircular: holds",
        "riemann-equals-weyl: holds",
        "weyl-equals-conharmonic: holds",
        "harmonic: holds",
        "pseudosymmetric: holds; witness L = m/r^3",
        "parallel-energy-momentum: holds",
    ]:
        assert line in lines, line
    b = schwarzschild
    assert b.energy_momentum.is_zero
    assert evaluate_tensor_ast(TNode("div", TNode("R")), b, b.memo).is_zero
    for name in ("P", "W", "C", "K"):
        assert b.tensor(name).equals(b.riemann), name
    fam = compatible_space(b.riemann, b.metric)
    assert fam.param_count == 6
    m = fam.matrix
    assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
    assert all(m[i][j].is_zero for i in (0, 1) for j in (2, 3))


def test_criterion_4_comparison_table(vaidya, ludwig_edgar):
    out = compare_reports(classify(vaidya), classify(ludwig_edgar))
    lines = out.splitlines()
    assert lines[0] == "# comparison: vaidya | ludwig-edgar"
    for line in [
        "scalar-flat: holds | holds | agree",
        "codazzi-ricci: fails | fails | agree",
        "cyclic-parallel-ricci: fails | fails | agree",
        "ricci-simple: holds | holds | agree",
        "riemann-compatible-ricci: holds | holds | agree",
        "weyl-compatible-ricci: holds | holds | agree",
        "conformal-2-forms-recurrent: holds | holds | agree",
        "semisymmetric: fails | holds | differ",
        "weakly-ricci-symmetric: fails | holds | differ",
        "weakly-cyclic-ricci-symmetric: not-evaluated | not-evaluated |"
        " not-evaluated",
    ]:
        assert line in lines, line
    # the radiating metric fails all three second-column distinguishers
    assert any(l.startswith("semisymmetric: fails |") for l in lines)
    assert any(l.startswith("weakly-ricci-symmetric: fails |") for l in lines)
    assert any(l.startswith("parallel-energy-momentum: fails |")
               for l in lines)


def test_criterion_4_parallel_energy_momentum_claim(vaidya, ludwig_edgar):
    """Pinned expectation: neither metric keeps its energy-momentum tensor
    parallel.  For the null-collapse metric kappa = 0 makes T a multiple of
    S, and Gamma^1_13 = 1/x gives (nabla T)[1][3][1] = -T[1][1]/x, which is
    nonzero unless w is harmonic in (x, y), i.e. unless the metric is
    Ricci-flat."""
    out = compare_reports(classify(vaidya), classify(ludwig_edgar))
    assert "parallel-energy-momentum: fails | fails | agree" \
        in out.splitlines()
    b = ludwig_edgar
    assert b.kappa == ZERO
    t11 = b.energy_momentum.get((0, 0))
    assert t11 == expr("-(c^4*p^2*x*(diff(w(u,x,y),x,2) + diff(w(u,x,y),y,2)))"
                       "/(16*G*pi)", b)
    witness = b.nabla("T").get((0, 2, 0))
    assert witness == -t11 / expr("x", b)
    assert not witness.is_zero


def _to_sympy(sp, e: Expression, names: dict):
    """The curvkit expression as a SymPy expression; a function atom
    diff(w(u,x,y),x,1,y,2) becomes Derivative(w(u,x,y), (x, 1), (y, 2))."""

    def atom(a: Atom):
        if a.args:
            base = names[a.name](*(names[v] for v in a.args))
            counts = [(names[v], k) for v, k in zip(a.args, a.orders) if k]
            return sp.Derivative(base, *counts) if counts else base
        if a.sub:
            return getattr(sp, a.sub)(names[a.name])
        return names[a.name]

    def poly(p):
        return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(atom(a) ** k for a, k in mono))
                        for mono, c in p.terms.items()))

    return poly(e.num) / poly(e.den)


def test_criterion_4_parallel_energy_momentum_sympy_oracle(ludwig_edgar):
    """SymPy rebuilds Gamma, S and nabla S of the null-collapse metric from
    the README "Conventions" formulas, with w(u,x,y) kept undefined, and
    every component agrees exactly with curvkit's."""
    sp = pytest.importorskip("sympy")
    b = ludwig_edgar
    n = b.dim
    names = {v: sp.Symbol(v) for v in b.chart.coords + b.chart.constants}
    names.update({f: sp.Function(f) for f in b.chart.functions})
    X = [names[v] for v in b.chart.coords]
    g = sp.zeros(n, n)
    for line in (CATALOG / "ludwig-edgar.metric").read_text().splitlines():
        if line.startswith("g["):
            lhs, rhs = line.split("=", 1)
            i, j = (int(k) - 1 for k in lhs[2:].rstrip("] ").split("]["))
            g[i, j] = g[j, i] = sp.sympify(rhs.replace("^", "**"),
                                           locals=names)
    gi = g.inv()
    rng = range(n)
    gam = [[[sp.cancel(sum(gi[l, m] * (sp.diff(g[m, j], X[i])
                                       + sp.diff(g[m, i], X[j])
                                       - sp.diff(g[i, j], X[m]))
                           for m in rng) / 2)
             for j in rng] for i in rng] for l in rng]

    def bracket(m, j, k, l):
        return (sp.diff(gam[m][l][j], X[k]) - sp.diff(gam[m][k][j], X[l])
                + sum(gam[m][k][q] * gam[q][l][j]
                      - gam[m][l][q] * gam[q][k][j] for q in rng))

    def riem(i, j, k, l):
        return sum(g[i, m] * bracket(m, j, k, l) for m in rng if g[i, m] != 0)

    S = [[sp.cancel(sum(gi[i, l] * riem(i, j, k, l)
                        for i in rng for l in rng if gi[i, l] != 0))
          for k in rng] for j in rng]
    nS = {(j, k, c): sp.cancel(sp.diff(S[j][k], X[c])
                               - sum(gam[m][c][j] * S[m][k]
                                     + gam[m][c][k] * S[j][m] for m in rng))
          for j in rng for k in rng for c in rng}

    def agree(ours, theirs, label):
        diff = sp.cancel(_to_sympy(sp, ours, names) - theirs)
        assert diff == 0, (label, str(ours), theirs)

    for l in rng:
        for i in rng:
            for j in rng:
                agree(b.connection[l, i, j], gam[l][i][j], ("Gamma", l, i, j))
    for j in rng:
        for k in rng:
            agree(b.ricci.get((j, k)), S[j][k], ("S", j, k))
    for idx, v in nS.items():
        agree(b.nabla("S").get(idx), v, ("nabla S", idx))
    # the witness of the pin, independently: (nabla S)[1][3][1] = -S[1][1]/x
    assert S[0][0] != 0
    assert sp.cancel(nS[0, 2, 0] + S[0][0] / X[2]) == 0


def test_criterion_5_property_suites(vaidya, schwarzschild, ludwig_edgar,
                                     minkowski, sphere2):
    bundles = [vaidya, schwarzschild, ludwig_edgar, minkowski, sphere2]
    for b in bundles:
        n = b.dim
        rng = range(n)
        R, g = b.riemann, b.g_tensor

        for i in rng:
            for j in rng:
                for k in rng:
                    for l in rng:
                        cyc = (R.get((i, j, k, l)) + R.get((i, k, l, j))
                               + R.get((i, l, j, k)))
                        assert cyc.is_zero, (b.chart.name, i, j, k, l)

        nr = b.nabla("R")
        for i in rng:
            for j in rng:
                for k in rng:
                    for l in rng:
                        for m in rng:
                            cyc = (nr.get((i, j, k, l, m))
                                   + nr.get((i, j, l, m, k))
                                   + nr.get((i, j, m, k, l)))
                            assert cyc.is_zero, (b.chart.name, i, j, k, l, m)

        assert b.nabla("g").is_zero, b.chart.name
        assert dot_action(R, g, b.metric).is_zero, b.chart.name

        q = tachibana(g, R)
        for idx, v in q.iter_nonzero():
            i, j, k, l, x, y = idx
            assert q.get((i, j, k, l, y, x)) == -v, (b.chart.name, idx)

        w = kulkarni_nomizu(g, b.ricci if not b.ricci.is_zero else g)
        for i in rng:
            for j in rng:
                for k in rng:
                    for l in rng:
                        cyc = (w.get((i, j, k, l)) + w.get((i, k, l, j))
                               + w.get((i, l, j, k)))
                        assert cyc.is_zero, (b.chart.name, i, j, k, l)

        if n >= 3:
            C = b.weyl
            for j in rng:
                for l in rng:
                    tr = ZERO
                    for i in rng:
                        for k in rng:
                            up = b.metric.upper(i, k)
                            if not up.is_zero:
                                tr = tr + up * C.get((i, j, k, l))
                    assert tr.is_zero, (b.chart.name, j, l)

    # randomized expression-kernel laws, 1000 independent seeded cases
    x = EXPR_CHART.coords[0]
    for seed in range(1000):
        gen = random.Random(seed)
        a = random_expression(gen)
        b2 = random_expression(gen)
        assert parse_expression(str(a), EXPR_CHART) == a, seed
        assert (a - b2) + b2 == a, seed
        assert (a * b2).derivative(x) == (a.derivative(x) * b2
                                          + a * b2.derivative(x)), seed


def test_criterion_6_numeric_oracle(schwarzschild):
    poly_null = CurvatureBundle(parse_metric_file(POLY_NULL))
    rng = random.Random(60451)
    for _ in range(5):
        point = {"u": rational(rng, 0, 1), "r": rational(rng, 2, 3),
                 "theta": rational(rng, Fraction(1, 2), 1),
                 "phi": rational(rng, 0, 1)}
        compare_point(poly_null, {}, point)
    for _ in range(5):
        point = {"u": rational(rng, 0, 1), "r": rational(rng, 3, 4),
                 "theta": rational(rng, Fraction(1, 2), 1),
                 "phi": rational(rng, 0, 1)}
        compare_point(schwarzschild, {"m": rational(rng, Fraction(1, 2), 1)},
                      point)


def test_criterion_7_static_limit_substitution(vaidya, schwarzschild):
    freeze = {
        Atom.func("m", ("u",)): Expression.from_atom(Atom.constant("m")),
        Atom.func("m", ("u",), (1,)): ZERO,
        Atom.func("m", ("u",), (2,)): ZERO,
        Atom.func("m", ("u",), (3,)): ZERO,
    }

    def match(tv, ts, label):
        reps = ({idx for idx, _ in tv.iter_nonzero()}
                | {idx for idx, _ in ts.iter_nonzero()})
        for idx in reps:
            left = tv.get(idx).subst(freeze)
            right = ts.get(idx)
            assert left == right, (label, idx, str(left), str(right))

    assert vaidya.kappa.subst(freeze) == schwarzschild.kappa
    for name in ("g", "R", "S", "C", "P", "W", "K", "G", "T"):
        match(vaidya.tensor(name), schwarzschild.tensor(name), name)
    for name in ("R", "S", "C", "T"):
        match(vaidya.nabla(name), schwarzschild.nabla(name), "nabla " + name)


def test_criterion_7_static_limit_of_pseudosymmetry(vaidya, schwarzschild):
    """The abstract's C.C = (m/r^3) Q(g,C) and R.R - Q(S,R) = (m/r^3)
    Q(g,C), and README's R.C + C.R = (2m/r^3) Q(g,C) + Q(S,C): the L solved
    on the radiating metric, with m(u) -> m and m^(k)(u) -> 0, is the L
    solved on the static one."""
    freeze = {Atom.func("m", ("u",), (k,)): ZERO for k in (1, 2, 3)}
    freeze[Atom.func("m", ("u",))] = Expression.from_atom(Atom.constant("m"))
    formulas = [(row.name, row.formula) for row in classify(vaidya).results
                if "L*" in row.formula]
    assert len(formulas) == 7
    holding = []
    for name, formula in formulas:
        radiating = check_identity(parse_identity(formula, vaidya.chart),
                                   vaidya)
        if not radiating.holds:
            continue
        holding.append(name)
        static = check_identity(
            parse_identity(formula, schwarzschild.chart), schwarzschild)
        assert static.holds and not static.free, name
        assert radiating.solved["L"].subst(freeze) == static.solved["L"], \
            name
    assert holding == ["pseudosymmetric-weyl", "rr-qsr-pseudosymmetric",
                       "rc-cr-pseudosymmetric"]
