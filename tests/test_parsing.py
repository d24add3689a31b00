"""Metric file grammar, expression grammar errors, identity language."""
import itertools
from textwrap import dedent

import pytest
from hypothesis import given, settings, strategies as st

from curvkit import parse_metric_file, parse_identity, ParseError, \
    DegenerateMetricError
from curvkit.chart import Chart
from curvkit.expr import ExprError, ONE
from curvkit.parsing import (
    parse_expression, TENSOR_VALENCE, TNode,
    tensor_ast_valence, tensor_ast_str, Term, IdentityAst,
    _Cursor, _ExprParser, _IdentityParser, _tokenize,
)
from curvkit.operators import COMPATIBLE
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

    @pytest.mark.parametrize("text,terms", [
        ("(x+y+a+1)^32", 6545), ("(x+y+1)^64", 2145)])
    def test_power_within_the_term_bound(self, text, terms):
        assert len(parse_expression(text, CHART).num.terms) == terms

    @pytest.mark.parametrize("text,col", [
        ("(x+y+a+1)^64", 10), ("((x+y+1)^64)^64", 13),
        ("1/(x+y+a+1)^-64", 12)])
    def test_power_past_the_term_bound(self, text, col):
        """Refused at its '^' before the expansion: (x+y+z+1)^64 ran past
        30 s before the term bound."""
        with pytest.raises(ParseError, match="may have more than 10000 "
                           "terms") as err:
            parse_expression(text, CHART)
        assert err.value.col == col

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
        assert term.tensor == TNode("nabla", TNode("S"))
        assert term.coeff.is_one

    def test_unknown_coefficient(self):
        ast = parse_identity("R.R = L * Q(g,R)", CHART)
        assert ast.unknowns == ("L",)
        assert ast.valence == 6
        (term,) = ast.right
        assert term.unknown == "L"
        assert term.tensor == TNode("Q", TNode("g"), TNode("R"))

    def test_numbered_unknowns(self):
        ast = parse_identity("L1 * Q(g,R) + L2 * Q(S,R) = Q(g,C)", CHART)
        assert ast.unknowns == ("L1", "L2")

    def test_concrete_coefficient(self):
        ast = parse_identity("G = (1/2) * wedge(g,g)", CHART)
        (term,) = ast.right
        assert term.unknown is None
        two = parse_expression("2", CHART)
        assert term.coeff * two == parse_expression("1", CHART)
        assert term.tensor == TNode("wedge", TNode("g"), TNode("g"))

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
        assert term.tensor == TNode("dot", TNode("R"),
                                    TNode("dot", TNode("R"), TNode("S")))
        # unparenthesized chains associate left, so R.R.S puts a (0,6)
        # tensor in the left slot of the outer dot
        with pytest.raises(ExprError, match="dot action"):
            parse_identity("R.R.S = 0", CHART)

    def test_valence_table(self):
        assert TENSOR_VALENCE["R"] == 4
        assert TENSOR_VALENCE["S"] == 2
        assert tensor_ast_valence(TNode("nabla", TNode("C"))) == 5
        assert tensor_ast_valence(TNode("Q", TNode("S"), TNode("W"))) == 6
        assert tensor_ast_valence(TNode("div", TNode("R"))) == 3
        assert tensor_ast_valence(TNode("div", TNode("S"))) == 1
        assert tensor_ast_valence(TNode("^2", TNode("T"))) == 2

    @pytest.mark.parametrize("node,msg", [
        (TNode("^2", TNode("R")), "\\^2 needs a \\(0,2\\) tensor"),
        (TNode("div", TNode("div", TNode("S"))), "div needs a tensor"),
        (TNode("wedge", TNode("g"), TNode("R")), "wedge needs"),
    ])
    def test_valence_rule_rejects(self, node, msg):
        with pytest.raises(ExprError, match=msg):
            tensor_ast_valence(node)

    def test_str_forms(self):
        assert tensor_ast_str(TNode("dot", TNode("C"), TNode("S"))) == "C.S"
        assert tensor_ast_str(TNode("Q", TNode("g"), TNode("R"))) == "Q(g,R)"
        assert tensor_ast_str(TNode("nabla", TNode("S"))) == "nabla S"
        assert tensor_ast_str(TNode("div", TNode("R"))) == "div R"
        assert tensor_ast_str(TNode("^2", TNode("S"))) == "S^2"
        rs = TNode("dot", TNode("R"), TNode("S"))
        assert tensor_ast_str(TNode("div", rs)) == "div(R.S)"
        assert tensor_ast_str(TNode("nabla", rs)) == "nabla(R.S)"
        assert tensor_ast_str(TNode("dot", TNode("R"), rs)) == "R.(R.S)"
        assert tensor_ast_str(TNode("dot", TNode("dot", TNode("R"),
                                                 TNode("R")),
                                        TNode("S"))) == "R.R.S"

    def test_div_and_square(self):
        ast = parse_identity("div R[x,y,z] = nabla S[x,y,z] - nabla S[x,z,y]",
                             CHART)
        assert ast.valence == 3
        assert ast.left[0].tensor == TNode("div", TNode("R"))
        ast = parse_identity("S^2 = L*g^2 + div(nabla g)", CHART)
        assert [t.tensor for t in ast.left + ast.right] == [
            TNode("^2", TNode("S")), TNode("^2", TNode("g")),
            TNode("div", TNode("nabla", TNode("g")))]
        # ^2 binds to the name before div takes it
        assert parse_identity("div S^2 = 0", CHART).left[0].tensor == TNode(
            "div", TNode("^2", TNode("S")))
        for text in ("R^2 = 0", "div div S = 0", "(div R).S = 0"):
            with pytest.raises(ExprError, match="needs"):
                parse_identity(text, CHART)
        with pytest.raises(ParseError, match="expected '2'"):
            parse_identity("S^3 = 0", CHART)

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


@pytest.mark.parametrize("parse,text", [
    (parse_metric_file, "dim \u00b2\ncoords x y\ng[1][1] = 1\ng[2][2] = 1\n"),
    (parse_metric_file, "coords x y\ng[\u00b2][1] = 1\ng[2][2] = 1\n"),
    (parse_metric_file, "coords x y\ng[1][1] = \u00b3\ng[2][2] = 1\n"),
    (lambda text: parse_identity(text, CHART), "R.R = \u00b2*Q(g,R)"),
    (lambda text: parse_identity(text, CHART), "L\u00b2*S = S"),
    (lambda text: parse_expression(text, CHART), "x^\u00b2"),
])
def test_non_decimal_digits_are_parse_errors(parse, text):
    """'\u00b2' passes str.isdigit but int() refuses it: it must give a
    ParseError, not a ValueError, and L\u00b2 is not an unknown's name."""
    with pytest.raises(ParseError):
        parse(text)


def test_decimal_digits_of_any_script_are_integers():
    assert parse_expression("\u0662*x", CHART) == parse_expression("2*x", CHART)
    spec = parse_metric_file("dim \u0662\ncoords x y\ng[1][1] = 1\n"
                             "g[\u0662][\u0662] = 1\n")
    assert spec.dim == 2 and spec.matrix[1][1] == ONE


class TestIdentityGrammar:
    """A term is [coefficient '*'] tensor; reserved names start the tensor."""

    @pytest.mark.parametrize("text,same_as", [
        ("R = 2*R + -2*R + 2*R", "R = 2*R - 2*R + 2*R"),
        ("S = (1/2)*x*S", "S = (x/2)*S"),
        ("nabla S = -(h'(x))/h'(x)*nabla g", "nabla S = -1*nabla g"),
        ("S = 2*(S)", "S = 2*S"),
        ("R = 2*((Q(g,S)).S)", "R = 2*Q(g,S).S"),
    ])
    def test_forms_the_reference_rejects(self, text, same_as):
        with pytest.raises(ExprError):
            reference_parse_identity(text, CHART)
        assert parse_identity(text, CHART) == parse_identity(same_as, CHART)

    @pytest.mark.parametrize("text,coeffs", [
        # the built-in constant G is a scalar inside a parenthesised factor
        # and the tensor where it ends the term
        ("S = (G)*S", ["G"]),
        ("S = 2*(G)*S", ["2*G"]),
        ("R = (1/2)*(G) + (c^4/(8*pi*G))*R", ["1/2", "c^4/(8*pi*G)"]),
        ("R = 2*G + (G.S) - G.S", ["2", "1", "-1"]),
        ("R = 0*R + 0 - 0", ["0"]),
        # inside a coefficient's parentheses G is the constant, even where
        # a '+' or '-' follows it
        ("S = (x*G + 1)*S", ["x*G + 1"]),
        ("S = (2*G - 1)*S", ["2*G - 1"]),
        ("S = (2*(G) + 1)*S", ["2*G + 1"]),
        ("S = 2*(x*G - G)*S", ["2*x*G - 2*G"]),
    ])
    def test_reserved_chart_symbol(self, text, coeffs):
        ast = parse_identity(text, CHART)
        assert ast == reference_parse_identity(text, CHART)
        assert [t.coeff for t in ast.right] == [
            parse_expression(c, CHART) for c in coeffs]

    @pytest.mark.parametrize("text,coeffs", [
        # a chart symbol named div is the scalar where no tensor follows
        # it, and the operation where one does
        ("S = (div)*S", ["div"]),
        ("S = div*S", ["div"]),
        ("S = 2*div*S", ["2*div"]),
        ("S = (x*div - 1)*S", ["x*div - 1"]),
        ("div S = (div + 1)*div S - div S", ["div + 1", "-1"]),
    ])
    def test_chart_symbol_named_div(self, text, coeffs):
        chart = Chart(coords=("x", "y"), constants=("div",))
        ast = parse_identity(text, chart)
        want = _parse_or_none(reference_parse_identity, text, chart)
        assert want is None or ast == want
        assert [t.coeff for t in ast.right] == [
            parse_expression(c, chart) for c in coeffs]
        assert ast.valence == (1 if text.startswith("div") else 2)

    @pytest.mark.parametrize("text,msg", [
        ("x = S", "expected '\\*'"),
        ("R.x = 0", "unknown tensor name 'x'"),
        ("2*S*R = 0", "trailing input"),
        ("(2*S)*R = 0", "unknown identifier 'S'"),
        ("L*2*S = 0", "expected a tensor"),
        ("S = $", "unexpected character"),
    ])
    def test_rejects(self, text, msg):
        with pytest.raises(ParseError, match=msg):
            parse_identity(text, CHART)


class TestIndexNotation:
    """Slot letters on tensors and covector unknowns."""

    def test_covector_identity(self):
        ast = parse_identity(
            "a[x]*S[y,z] + b[y]*S[x,z] = nabla S[y,z,x]", CHART)
        assert ast.letters == ("x", "y", "z") and ast.valence == 3
        assert ast.covectors == (("a", ("A1", "A2")), ("b", ("B1", "B2")))
        assert ast.unknowns == ("A1", "A2", "B1", "B2")
        first, second = ast.left
        assert (first.unknown, first.letters, first.slots) == \
            ("a", ("x",), ("y", "z"))
        assert (second.unknown, second.letters) == ("b", ("y",))
        (term,) = ast.right
        assert term.tensor == TNode("nabla", TNode("S"))
        assert (term.unknown, term.letters, term.slots) == \
            (None, (), ("y", "z", "x"))

    def test_whole_tensor_terms_carry_no_letters(self):
        ast = parse_identity("R.R = L*Q(g,R)", CHART)
        assert ast.letters == () and ast.covectors == ()
        assert all(t.slots is None and t.letters == ()
                   for t in ast.left + ast.right)

    def test_covector_may_share_an_unwritten_chart_name(self):
        """pi is a built-in constant and a a declared one; neither is
        written as a scalar here, so each name is the covector's."""
        ast = parse_identity("pi[x]*S[y,z] + a[y]*S[z,x] = 0", CHART)
        assert ast.unknowns == ("P1", "P2", "A1", "A2")

    def test_contracted_product(self):
        """A letter in both factors of a term is summed over, so it is not
        free; the tensor's last slot carries it."""
        ast = parse_identity(COMPATIBLE.format("R", "S"), CHART)
        assert (ast.letters, ast.valence, ast.unknowns) == \
            (("i", "j", "k", "x"), 4, ())
        first = ast.left[0]
        assert (first.tensor, first.slots, first.letters, first.factor) == \
            (TNode("R"), ("i", "j", "x", "m"), (), (TNode("S"), ("k", "m")))
        assert first.free() == {"i", "j", "k", "x"}

    def test_tensor_unknown_names_and_order(self):
        """E[k,m] gives n^2 unknowns, E12 in row 1, column 2, solved with
        the first index fastest; the unknown may follow the tensor."""
        ast = parse_identity(COMPATIBLE.format("R", "E"), CHART)
        assert ast.covectors == (("E", (("E11", "E12"), ("E21", "E22"))),)
        assert ast.unknowns == ("E11", "E21", "E12", "E22")
        first = ast.left[0]
        assert (first.unknown, first.letters, first.factor) == \
            ("E", ("k", "m"), None)
        before = parse_identity("E[k,m]*R[i,j,x,m] = 0", CHART)
        assert (before.left[0].unknown, before.left[0].letters) == \
            ("E", ("k", "m"))

    def test_scalar_unknown_times_a_contraction(self):
        ast = parse_identity("L*R[i,j,x,m]*S[k,m] = R[i,j,x,k]", CHART)
        assert ast.unknowns == ("L",) and ast.valence == 4
        assert ast.left[0].factor == (TNode("S"), ("k", "m"))

    def test_tensor_unknown_names_stay_distinct(self):
        """Past 9 coordinates E[1,11] and E[11,1] would share E111."""
        nine = Chart(tuple(f"x{i}" for i in range(9)))
        assert len(parse_identity("E[i,j]*g[k,l] = 0", nine).unknowns) == 81
        eleven = Chart(tuple(f"x{i}" for i in range(11)))
        with pytest.raises(ParseError, match="the unknowns of 'E' repeat "
                           "a name in 11 dimensions"):
            parse_identity("E[i,j]*g[k,l] = 0", eleven)

    @pytest.mark.parametrize("text,col,msg", [
        # slot count different from the valence: at the '['
        ("nabla S[y,z] = 0", 8, "nabla S has 3 slots, not 2"),
        ("G[x]*S[y,z] = nabla S[x,y,z]", 2, "G has 4 slots, not 1"),
        # a repeated letter in one term: at its second use
        ("a[x]*S[x,z] = nabla S[y,z,x]", 8, "index letter 'x' repeats"),
        ("S[x,x] = 0", 5, "index letter 'x' repeats"),
        # terms with different free letters: at the term
        ("S[x,y] = 2*S[x,z]", 10, "free letters x,z differ from x,y"),
        # indexed terms mixed with whole-tensor terms: at the term
        ("S[x,y] + S = 0", 10, "indexed and whole-tensor terms are mixed"),
        ("S = S[x,y]", 5, "indexed and whole-tensor terms are mixed"),
        # a covector without its letter
        ("b[x]*S[y,z] = b*nabla S[y,z,x]", 15, "unknown identifier 'b'"),
        ("b[]*S[x,y] = 0", 3, "expected a name"),
        ("b[x,y,z]*S[w,v] = 0", 7,
         "an unknown takes one or two index letters"),
        ("b[x]*S = nabla S", 8, "expected '\\['"),
        # a covector named like a chart symbol that the identity writes
        ("a[x]*S[y,z] = a*nabla S[y,z,x]", 1,
         "covector 'a' is also a chart symbol"),
        ("pi[x]*S[y,z] = (pi/2)*nabla S[y,z,x]", 1,
         "covector 'pi' is also a chart symbol"),
        # two covectors with the same unknowns
        ("p[x]*S[y,z] + pi[y]*S[x,z] = 0", 15,
         "'p' and 'pi' both name the unknown 'P1'"),
        # a contraction other than one letter shared by the tensor's last
        # slot and the other factor: at the repeat
        ("R[i,j,k,m]*S[m,m] = 0", 16, "index letter 'm' repeats in one"),
        ("R[i,j,n,m]*S[m,n] = 0", 16,
         "index letter 'n' repeats off the last slot of R"),
        ("R[i,j,m,x]*S[k,m] = 0", 16,
         "index letter 'm' repeats off the last slot of R"),
        ("E[x,m]*nabla S[m,y,z] = 0", 16,
         "index letter 'm' repeats off the last slot of nabla S"),
        ("R[i,j,x,m]*S[k,m]*S[i,j] = 0", 18, "unexpected trailing input"),
        # one unknown a term, each written with one number of letters
        ("L*R[i,j,x,m]*E[k,m] = 0", 14, "a term takes one unknown"),
        ("e[x,y]*S[z,w] = e[x]*nabla S[y,z,w]", 17,
         "unknown 'e' takes other index letters elsewhere"),
        ("R[i,j,x,m]*2 = 0", 12, "expected a tensor or an indexed unknown"),
    ])
    def test_rejects_with_column(self, text, col, msg):
        with pytest.raises(ParseError, match=msg) as err:
            parse_identity(text, CHART)
        assert (err.value.line, err.value.col) == (1, col)


# -- the identity parser before the shared product grammar, kept as the
# reference that the differential test holds the grammar to ----------------

_REFERENCE_OPERATORS = ("Q", "wedge", "nabla", "div")


def _reference_is_unknown_name(name: str) -> bool:
    return name.startswith("L") and name[1:].isdigit() or name == "L"


class _ReferenceIdentityParser:
    def __init__(self, cur, chart):
        self.cur = cur
        self.chart = chart

    def side(self):
        terms = []
        sign = 1
        if self.cur.accept("-"):
            sign = -1
        while True:
            self.one_term(terms, sign)
            if self.cur.accept("+"):
                sign = 1
            elif self.cur.accept("-"):
                sign = -1
            else:
                return terms

    def one_term(self, terms, sign):
        t = self.cur.peek()
        if t.kind == "INT" and t.text == "0" and not self._token_is_scalar_start():
            self.cur.next()
            return
        coeff = ONE if sign > 0 else -ONE
        unknown, letters = None, ()
        if self._at_indexed_unknown():
            unknown, letters = self.indexed_unknown()
            self.cur.expect("*")
        elif self._at_scalar_factor():
            unknown, scalar = self.scalar_factor()
            if scalar is not None:
                coeff = coeff * scalar
            self.cur.expect("*")
        node = self.tensor_atom()
        slots = factor = None
        if self.cur.accept("["):
            slots = self.letters()
            if not letters and self.cur.accept("*"):
                if self._at_indexed_unknown():
                    if unknown is not None:
                        self.cur.fail("two unknowns")
                    unknown, letters = self.indexed_unknown()
                else:
                    second = self.tensor_atom()
                    self.cur.expect("[")
                    factor = (second, self.letters())
        elif letters:
            self.cur.fail("an indexed unknown needs an indexed tensor")
        terms.append(Term(coeff, unknown, node, slots, letters, factor))

    # index notation: a tensor's slots, an unknown covector or (0,2)
    # tensor, and a product of two of them

    def letters(self):
        out = [self.cur.next()]
        while self.cur.accept(","):
            out.append(self.cur.next())
        self.cur.expect("]")
        if any(t.kind != "NAME" for t in out):
            self.cur.fail("a letter is a name")
        return tuple(t.text for t in out)

    def _at_indexed_unknown(self):
        t = self.cur.peek()
        nxt = self.cur.tokens[self.cur.pos + 1]
        return (t.kind == "NAME" and nxt.text == "["
                and t.text not in TENSOR_VALENCE
                and t.text not in _REFERENCE_OPERATORS)

    def indexed_unknown(self):
        name = self.cur.next().text
        self.cur.next()
        letters = self.letters()
        if len(letters) > 2:
            self.cur.fail("one or two letters")
        return name, letters

    def _token_is_scalar_start(self):
        nxt = self.cur.tokens[self.cur.pos + 1]
        return nxt.kind == "PUNCT" and nxt.text == "*"

    def _at_scalar_factor(self):
        t = self.cur.peek()
        if t.kind == "INT":
            return True
        if t.kind == "PUNCT" and t.text == "(":
            depth = 0
            for k in range(self.cur.pos, len(self.cur.tokens)):
                tk = self.cur.tokens[k]
                if tk.kind == "PUNCT" and tk.text == "(":
                    depth += 1
                elif tk.kind == "PUNCT" and tk.text == ")":
                    depth -= 1
                    if depth == 0:
                        nxt = self.cur.tokens[k + 1]
                        return nxt.kind == "PUNCT" and nxt.text == "*"
            return False
        if t.kind == "NAME":
            if t.text in TENSOR_VALENCE or t.text in _REFERENCE_OPERATORS:
                return False
            return True
        return False

    def scalar_factor(self):
        t = self.cur.peek()
        if t.kind == "NAME" and _reference_is_unknown_name(t.text):
            if (t.text in self.chart.coords or t.text in self.chart.functions
                    or t.text in self.chart.constants):
                self.cur.fail(f"unknown-scalar name {t.text!r} collides with a "
                              f"declared symbol")
            nxt = self.cur.tokens[self.cur.pos + 1]
            if nxt.kind == "PUNCT" and nxt.text == "*":
                self.cur.next()
                return t.text, None
        if t.kind == "PUNCT" and t.text == "(":
            self.cur.next()
            e = _ExprParser(self.cur, self.chart).expr()
            self.cur.expect(")")
            return None, e
        return None, self._term_until_star()

    def _term_until_star(self):
        p = _ExprParser(self.cur, self.chart)
        e = p.unary()
        while True:
            t = self.cur.peek()
            if t.kind == "PUNCT" and t.text == "*":
                nxt = self.cur.tokens[self.cur.pos + 1]
                if nxt.kind == "NAME" and (nxt.text in TENSOR_VALENCE
                                           or nxt.text in _REFERENCE_OPERATORS):
                    return e
                self.cur.next()
                e = e * p.unary()
            elif self.cur.accept("/"):
                e = e / p.unary()
            else:
                return e

    def tensor_atom(self):
        node = self.tensor_basic()
        while self.cur.accept("."):
            node = TNode("dot", node, self.tensor_basic())
        return node

    def tensor_basic(self):
        t = self.cur.next()
        if t.kind == "PUNCT" and t.text == "(":
            node = self.tensor_atom()
            self.cur.expect(")")
            return node
        if t.kind != "NAME":
            raise ParseError(f"expected a tensor, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        if t.text == "Q":
            self.cur.expect("(")
            a = self.tensor_atom()
            self.cur.expect(",")
            h = self.tensor_atom()
            self.cur.expect(")")
            return TNode("Q", a, h)
        if t.text == "wedge":
            self.cur.expect("(")
            a = self.tensor_atom()
            self.cur.expect(",")
            b = self.tensor_atom()
            self.cur.expect(")")
            return TNode("wedge", a, b)
        if t.text in ("nabla", "div"):
            if self.cur.accept("("):
                node = self.tensor_atom()
                self.cur.expect(")")
                return TNode(t.text, node)
            return TNode(t.text, self.tensor_basic())
        if t.text in TENSOR_VALENCE:
            if self.cur.accept("^"):
                self.cur.expect("2")
                return TNode("^2", TNode(t.text))
            return TNode(t.text)
        raise ParseError(f"unknown tensor name {t.text!r}", t.line, t.col)


def reference_parse_identity(text, chart):
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='", 1, 1)
    sides = []
    for part in text.split("="):
        cur = _Cursor(_tokenize(part))
        sides.append(_ReferenceIdentityParser(cur, chart).side())
        cur.expect_end()
    left, right = sides
    if not left and not right:
        raise ParseError("identity 0 = 0 has no content", 1, 1)
    terms = left + right
    if {t.slots is None for t in terms} == {False}:
        valences = {len(_reference_free(t)) for t in terms}
        if len({frozenset(_reference_free(t)) for t in terms}) > 1:
            raise ParseError("free letters differ", 1, 1)
    elif any(t.slots is not None for t in terms):
        raise ParseError("mixed", 1, 1)
    else:
        valences = {tensor_ast_valence(t.tensor) for t in terms}
    if len(valences) > 1:
        raise ParseError("valence mismatch", 1, 1)
    written = {a.name for t in terms for a in t.coeff.atoms()}
    unknowns, owner, rank = [], {}, {}
    n = chart.dim
    for t in terms:
        if not t.unknown:
            continue
        r = len(t.letters)
        if r and t.unknown in written or rank.setdefault(t.unknown, r) != r:
            raise ParseError("indexed unknown", 1, 1)
        head = t.unknown[0].upper()
        names = ([t.unknown] if r == 0 else
                 [f"{head}{i}" for i in range(1, n + 1)] if r == 1 else
                 [f"{head}{i}{j}" for j in range(1, n + 1)
                  for i in range(1, n + 1)])
        for u in names:
            if owner.setdefault(u, t.unknown) != t.unknown:
                raise ParseError("shared unknown", 1, 1)
            if u not in unknowns:
                unknowns.append(u)
    return IdentityAst(tuple(left), tuple(right), valences.pop(), tuple(unknowns))


def _reference_free(term):
    """The letters of an indexed term written once, after checking its
    slot counts and that only the tensor's last slot is shared."""
    if len(term.slots) != tensor_ast_valence(term.tensor):
        raise ParseError("slot count", 1, 1)
    other = term.letters
    if term.factor is not None:
        node, other = term.factor
        if len(other) != tensor_ast_valence(node):
            raise ParseError("slot count", 1, 1)
    for group in (term.slots, other):
        if len(set(group)) < len(group):
            raise ParseError("a letter twice in one factor", 1, 1)
    shared = set(term.slots) & set(other)
    if shared - {term.slots[-1]}:
        raise ParseError("a shared letter off the last slot", 1, 1)
    return (set(term.slots) | set(other)) - shared


# -- identities drawn from the grammar ---------------------------------------

def _pair_of(first, second, fmt):
    return st.tuples(first, second).map(lambda p: fmt.format(*p))


def _pair(children, fmt):
    return _pair_of(children, children, fmt)


TENSOR_TEXT = st.recursive(
    st.sampled_from(sorted(TENSOR_VALENCE) + ["bogus", "S^2", "g^2", "T^2"]),
    lambda kids: st.one_of(
        _pair(kids, "{}.{}"), _pair(kids, "Q({},{})"),
        _pair(kids, "wedge({},{})"), kids.map("nabla {}".format),
        kids.map("nabla({})".format), kids.map("div {}".format),
        kids.map("div({})".format), kids.map("({})".format)),
    max_leaves=3)

# ints, chart atoms (with the built-ins G, c, pi), unknowns and the
# undeclared z; exponents are small literals, since a power tower such as
# 3^3^3^3 is exact arithmetic on a number of 10^12 digits
SCALAR_TEXT = st.recursive(
    st.sampled_from(["0", "1", "2", "7", "x", "y", "a", "h(x)", "h'(x)",
                     "sin(y)", "G", "c", "pi", "L", "L1", "z", "S"]),
    lambda kids: st.one_of(
        *(_pair(kids, "{}" + op + "{}") for op in "*/+-"),
        _pair_of(kids, st.sampled_from(["2", "-1"]), "({})^{}"),
        kids.map("({})".format), kids.map("-{}".format)),
    max_leaves=4)

SUMMAND_TEXT = st.one_of(
    TENSOR_TEXT, st.just("0"),
    _pair_of(SCALAR_TEXT, TENSOR_TEXT, "{}*{}"))


# index notation over the free letters i, j, k, x: tensors, and products
# whose contracted letter m sits in the tensor's last slot, with unknowns
# before or after the tensor; a drawn tensor text stands in for {t}
INDEXED_TEMPLATES = (
    "{t}[{0},{1},{2},{3}]", "g[{0},{1}]*S[{2},{3}]",
    "{t}[{0},{1},{2},{4}]*S[{3},{4}]", "{t}[{0},{1},{2},{4}]*E[{3},{4}]",
    "E[{3},{4}]*{t}[{0},{1},{2},{4}]", "S[{0},{4}]*{t}[{1},{2},{3},{4}]",
    "pi[{0}]*nabla S[{1},{2},{3}]", "L*{t}[{0},{1},{2},{4}]*g[{3},{4}]",
    "e[{0},{1}]*S[{2},{3}]")


@st.composite
def indexed_summand_text(draw):
    """A term of an INDEXED_TEMPLATES shape, one letter in five drawn
    anew, which mostly makes it an error."""
    letters = list(draw(st.permutations("ijkx"))) + ["m"]
    if draw(st.integers(0, 4)) == 0:
        letters[draw(st.integers(0, 4))] = draw(st.sampled_from("ijkxm"))
    tensor = draw(st.one_of(st.sampled_from("RCP"), TENSOR_TEXT))
    return draw(st.sampled_from(INDEXED_TEMPLATES)).format(*letters,
                                                           t=tensor)


INDEXED_SUMMAND_TEXT = st.one_of(
    indexed_summand_text(), st.just("0"),
    _pair_of(SCALAR_TEXT, indexed_summand_text(), "{}*{}"))


@st.composite
def identity_text(draw):
    summands = draw(st.sampled_from([SUMMAND_TEXT, SUMMAND_TEXT,
                                     INDEXED_SUMMAND_TEXT]))

    def side():
        parts = draw(st.lists(summands, min_size=1, max_size=3))
        signs = draw(st.lists(st.sampled_from(["", "-"]), min_size=len(parts),
                              max_size=len(parts)))
        out = signs[0] + parts[0]
        for sign, part in zip(signs[1:], parts[1:]):
            out += (" - " if sign else " + ") + part
        return out
    return f"{side()} = {side()}"


# CHART declares x y h a; CHART_S also declares a constant with a tensor's name
CHART_S = Chart(coords=("x", "y"), functions={"h": ("x",)},
                constants=("a", "S"))


def _small_coefficients():
    """Every product or sum of three factors from 2, x, G, S and L, bare and
    with each way of parenthesising it."""
    for a, b, c in itertools.product(["2", "x", "G", "S", "L"], repeat=3):
        for o, p in itertools.product("*/+-", repeat=2):
            yield from (f"{a}{o}{b}{p}{c}", f"({a}{o}{b}){p}{c}",
                        f"{a}{o}({b}{p}{c})", f"({a}{o}{b}{p}{c})")


@pytest.mark.parametrize("chart", [CHART, CHART_S], ids=["chart", "chart_S"])
def test_small_coefficients_parse_as_the_reference(chart):
    """Exhaustive over the small shapes where a name shared by a tensor and
    a chart symbol may be read either way: whatever the reference accepts
    parses to the same identity."""
    compared = 0
    for coeff in _small_coefficients():
        text = f"S = {coeff}*S"
        want = _parse_or_none(reference_parse_identity, text, chart)
        if want is not None:
            assert parse_identity(text, chart) == want, text
            compared += 1
    assert compared > 700


def _parse_or_none(parse, text, chart):
    try:
        return parse(text, chart)
    except ExprError:
        return None


def _parse_tensor(text: str) -> TNode:
    parser = _IdentityParser(_Cursor(_tokenize(text)), CHART)
    node = parser.tensor_atom()
    parser.cur.expect_end()
    return node


@settings(max_examples=500, derandomize=True, deadline=None)
@given(text=TENSOR_TEXT)
def test_printed_tensor_parses_back(text):
    """Every tensor expression the grammar reads prints as text that
    parses back to the same node, valence or not."""
    try:
        node = _parse_tensor(text)
    except ExprError:
        return
    assert _parse_tensor(tensor_ast_str(node)) == node, text


@pytest.mark.parametrize("chart", [CHART, CHART_S], ids=["chart", "chart_S"])
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(text=identity_text())
def test_grammar_parses_every_reference_identity_alike(chart, text):
    """Every identity the reference accepts parses to the same terms, valence
    and unknowns; the grammar raises only ExprError on the rest."""
    got = _parse_or_none(parse_identity, text, chart)
    want = _parse_or_none(reference_parse_identity, text, chart)
    if want is None:
        return
    assert got is not None, text
    for a, b in ((got.left, want.left), (got.right, want.right)):
        assert len(a) == len(b), text
        for s, t in zip(a, b):
            assert (s.coeff == t.coeff, s.unknown, s.tensor, s.slots,
                    s.letters, s.factor) == (True, t.unknown, t.tensor,
                                             t.slots, t.letters,
                                             t.factor), text
    assert (got.valence, got.unknowns) == (want.valence, want.unknowns), text
