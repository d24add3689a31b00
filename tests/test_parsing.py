"""Metric file grammar, expression grammar errors, identity language."""
from textwrap import dedent

import pytest

from curvkit import parse_metric_file, parse_identity, ParseError, \
    DegenerateMetricError
from curvkit.chart import Chart
from curvkit.expr import ExprError
from curvkit.parsing import (
    parse_expression, TENSOR_VALENCE, TName, TDot, TQ, TWedge, TNabla,
    tensor_ast_valence, tensor_ast_str,
)
from conftest import CATALOG


GOOD = dedent("""\
    # surface of revolution, say
    metric demo
    dim 2
    coords x y
    constant a
    function h(x)

    g[1][1] = h(x)^2
    g[2][2] = a^2   # fiber radius
""")


class TestMetricFiles:
    def test_minimal_file(self):
        spec = parse_metric_file(GOOD)
        assert spec.name == "demo"
        assert spec.dim == 2
        assert spec.chart.coords == ("x", "y")
        h = parse_expression("h(x)", spec.chart)
        assert spec.matrix[0][0] == h * h
        assert spec.matrix[0][1].is_zero
        assert spec.matrix[1][0].is_zero

    def test_off_diagonal_fills_both_slots(self):
        text = GOOD + "g[1][2] = a\n"
        spec = parse_metric_file(text)
        a = parse_expression("a", spec.chart)
        assert spec.matrix[0][1] == a
        assert spec.matrix[1][0] == a

    def test_repeated_consistent_assignment_ok(self):
        text = GOOD + "g[2][2] = a^2\n"
        spec = parse_metric_file(text)
        assert spec.name == "demo"

    def test_conflicting_assignment(self):
        text = GOOD + "g[2][2] = a\n"
        with pytest.raises(ParseError, match="conflicts"):
            parse_metric_file(text)

    def test_missing_coords(self):
        with pytest.raises(ParseError, match="coords"):
            parse_metric_file("metric x\ng[1][1] = 1\n")

    def test_dim_coordinate_mismatch(self):
        with pytest.raises(ParseError, match="dim 3"):
            parse_metric_file("dim 3\ncoords x y\ng[1][1] = 1\ng[2][2] = 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unrecognized"):
            parse_metric_file("coords x y\nsignature -+\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_metric_file("coords x y\ng[3][1] = 1\n")

    def test_degenerate_metric(self):
        with pytest.raises(DegenerateMetricError):
            parse_metric_file("coords x y\ng[1][1] = 1\n")  # no g22 row

    def test_degenerate_by_cancellation(self):
        text = dedent("""\
            coords x y
            g[1][1] = 1
            g[1][2] = 1
            g[2][2] = 1
        """)
        with pytest.raises(DegenerateMetricError):
            parse_metric_file(text)

    def test_exact_rank_only_when_values_decide_nothing(self, monkeypatch):
        from curvkit import linsolve
        from curvkit.expr import Atom, _atom_at_point
        calls = []
        exact = linsolve.solve_linear

        def spy(equations, unknowns):
            calls.append(equations)
            return exact(equations, unknowns)

        monkeypatch.setattr(linsolve, "solve_linear", spy)
        for path in sorted(CATALOG.glob("*.metric")):
            parse_metric_file(path.read_text())
        assert not calls
        # 1/(x - r) has no value at the point, so the exact check runs
        r = _atom_at_point(Atom.coordinate("x"))
        parse_metric_file(f"coords x y\ng[1][1] = 1/(x - {r})\n"
                          "g[2][2] = 1\n")
        assert len(calls) == 1
        with pytest.raises(DegenerateMetricError):
            parse_metric_file("coords x y\ng[1][1] = 1\n")
        assert len(calls) == 2

    def test_function_declared_twice(self):
        with pytest.raises(ParseError, match="twice"):
            parse_metric_file(
                "coords x y\nfunction h(x)\nfunction h(y)\ng[1][1] = 1\n"
                "g[2][2] = 1\n")

    def test_bad_entry_expression(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_metric_file("coords x y\ng[1][1] = z\ng[2][2] = 1\n")

    @pytest.mark.parametrize("name", [
        "vaidya", "schwarzschild", "ludwig-edgar", "minkowski", "sphere2"])
    def test_catalog_files_parse(self, name):
        spec = parse_metric_file((CATALOG / f"{name}.metric").read_text())
        assert spec.name == name
        assert spec.dim in (2, 4)


CHART = Chart(coords=("x", "y"), functions={"h": ("x",)}, constants=("a",))


class TestExpressionErrors:
    @pytest.mark.parametrize("text,msg", [
        ("z", "unknown identifier"),
        ("x y", "trailing"),
        ("x^y", "exponent must be an integer"),
        ("x^(1/2)", "exponent must be an integer"),
        ("0^-1", "zero to a negative power"),
        ("1/0", "division by zero"),
        ("sin(h)", "takes a coordinate"),
        ("sin(2)", "takes a coordinate"),
        ("h(y)", "must be written with arguments"),
        ("h", "must be applied"),
        ("h''(y)", "must be written with arguments"),
        ("diff(h(x))", "variable,order pair"),
        ("diff(h(x),y,1)", "must be an argument"),
        ("diff(h(x),x,0)", "positive integer"),
        ("diff(x,x,1)", "declared function"),
        ("(x", "expected"),
        ("", "expected an expression"),
        ("q(x)", "not a declared function"),
    ])
    def test_rejects(self, text, msg):
        with pytest.raises(ParseError, match=msg):
            parse_expression(text, CHART)

    def test_precedence(self):
        x = parse_expression("x", CHART)
        assert parse_expression("2*x^2", CHART) == 2 * x ** 2
        assert parse_expression("-x^2", CHART) == -(x ** 2)
        assert parse_expression("x^-1", CHART) == 1 / x
        assert parse_expression("2 - 3 - 4", CHART) == \
            parse_expression("-5", CHART)
        assert parse_expression("12/3/2", CHART) == parse_expression("2", CHART)

    def test_error_carries_location(self):
        try:
            parse_expression("x +\n  z", CHART)
        except ParseError as err:
            assert err.line == 2 and err.col == 3
        else:
            raise AssertionError("expected a ParseError")


class TestIdentityLanguage:
    def test_plain_vanishing(self):
        ast = parse_identity("nabla S = 0", CHART)
        assert ast.right == ()
        assert ast.valence == 3
        assert ast.unknowns == ()
        (term,) = ast.left
        assert term.tensor == TNabla(TName("S"))
        assert term.coeff.is_one

    def test_unknown_coefficient(self):
        ast = parse_identity("R.R = L * Q(g,R)", CHART)
        assert ast.unknowns == ("L",)
        assert ast.valence == 6
        (term,) = ast.right
        assert term.unknown == "L"
        assert term.tensor == TQ(TName("g"), TName("R"))

    def test_numbered_unknowns(self):
        ast = parse_identity("L1 * Q(g,R) + L2 * Q(S,R) = Q(g,C)", CHART)
        assert ast.unknowns == ("L1", "L2")

    def test_concrete_coefficient(self):
        ast = parse_identity("G = (1/2) * wedge(g,g)", CHART)
        (term,) = ast.right
        assert term.unknown is None
        two = parse_expression("2", CHART)
        assert term.coeff * two == parse_expression("1", CHART)
        assert term.tensor == TWedge(TName("g"), TName("g"))

    def test_chart_scalar_coefficient(self):
        ast = parse_identity("nabla S = h(x) * nabla g", CHART)
        (term,) = ast.right
        assert term.coeff == parse_expression("h(x)", CHART)

    def test_leading_minus_and_zero_side(self):
        ast = parse_identity("0 = -S + 2*S", CHART)
        assert ast.left == ()
        t1, t2 = ast.right
        assert t1.coeff == parse_expression("-1", CHART)
        assert t2.coeff == parse_expression("2", CHART)

    def test_dot_grouping(self):
        ast = parse_identity("R.(R.S) = 0", CHART)
        (term,) = ast.left
        assert term.tensor == TDot(TName("R"), TDot(TName("R"), TName("S")))
        # unparenthesized chains associate left, so R.R.S puts a (0,6)
        # tensor in the left slot of the outer dot
        with pytest.raises(ExprError, match="dot action"):
            parse_identity("R.R.S = 0", CHART)

    def test_valence_table(self):
        assert TENSOR_VALENCE["R"] == 4
        assert TENSOR_VALENCE["S"] == 2
        assert tensor_ast_valence(TNabla(TName("C"))) == 5
        assert tensor_ast_valence(TQ(TName("S"), TName("W"))) == 6

    def test_str_forms(self):
        assert tensor_ast_str(TDot(TName("C"), TName("S"))) == "C.S"
        assert tensor_ast_str(TQ(TName("g"), TName("R"))) == "Q(g,R)"
        assert tensor_ast_str(TNabla(TName("S"))) == "nabla S"

    @pytest.mark.parametrize("text,msg", [
        ("S = R", "valence mismatch"),
        ("S", "exactly one"),
        ("S = R = 0", "exactly one"),
        ("0 = 0", "no content"),
        ("B * S = 0", "unknown identifier"),
        ("nabla S = L * S", "valence mismatch"),
    ])
    def test_rejects(self, text, msg):
        with pytest.raises(ParseError, match=msg):
            parse_identity(text, CHART)

    def test_dot_needs_four_tensor_left(self):
        with pytest.raises(ExprError, match="dot action"):
            parse_identity("S.S = 0", CHART)

    def test_unknown_name_collision(self):
        chart = Chart(coords=("x", "y"), constants=("L",))
        with pytest.raises(ParseError, match="collides"):
            parse_identity("L * S = 0", chart)
