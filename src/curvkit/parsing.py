"""Parsers: scalar expressions, metric definition files, and the identity
language used by the structure checker.

Expression grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?          # right-associative, integer result
                                             # from -MAX_EXPONENT to MAX_EXPONENT
    primary := INT | '(' expr ')' | name | name'(arg)' | call

Calls are sin/cos of a coordinate, a declared function applied to exactly its
declared arguments, the prime shorthand m'(u) / m''(u) for single-argument
functions, or diff(f(args), coord, order, ...).

Identity grammar, one side of the '=':

    side    := ['-'] summand (('+' | '-') summand)*
    summand := [coefficient '*'] tensor | zero
    coefficient := unknown | term           # unknown: L, L1, L2, ...
    tensor  := basic ('.' basic)*
    basic   := '(' tensor ')' | 'Q' '(' tensor ',' tensor ')'
             | 'wedge' '(' tensor ',' tensor ')' | 'nabla' basic | NAME

The tensor names and Q, wedge, nabla are reserved: past any '(' they start
the tensor, and a coefficient's term ends before the '*' they follow. Inside
a coefficient's parentheses nothing is reserved: a parenthesised factor is a
chart expression. A summand without a tensor must be a zero scalar and
contributes nothing.
"""

from __future__ import annotations

import re

from .chart import BUILTIN_CONSTANTS, Chart
from .expr import Atom, Expression, ExprError, ONE, Record, ZERO
from .linsolve import matrix_rank


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DegenerateMetricError(ExprError):
    pass


# ---------------------------------------------------------------------------
# tokenizer

# INT takes decimal digits only, so int() accepts every INT token; a digit
# such as '²' that int() refuses is a word character and starts a NAME.
_TOKEN = re.compile(r"(?P<NL>\n)|[ \t\r]+|(?P<INT>\d+)|(?P<NAME>[^\W\d]\w*)"
                    r"|(?P<PRIME>')|(?P<PUNCT>[-+*/^()\[\],.=])|(?P<BAD>.)")

# '^' refuses larger exponents before computing the power: the time of
# (x+y+1)^k grows like k^3, and a tower such as (x+1)^3^3^3 would not end
MAX_EXPONENT = 64


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind   # INT NAME PUNCT PRIME END
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, line0: int = 1) -> list[Token]:
    out = []
    line, line_start = line0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}",
                             line, m.start() - line_start + 1)
        elif kind is not None:
            out.append(Token(kind, m.group(), line, m.start() - line_start + 1))
    out.append(Token("END", "", line, len(text) - line_start + 1))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "END":
            self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str):
        if not self.accept(text):
            self.fail(f"expected {text!r}, found "
                      f"{self.peek().text or 'end of input'!r}")

    def expect_end(self):
        if self.peek().kind != "END":
            self.fail(f"unexpected trailing input {self.peek().text!r}")

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def names(self) -> list[Token]:
        """Consume `a,b,c)`: one or more names separated by commas."""
        out = []
        while True:
            t = self.next()
            if t.kind != "NAME":
                raise ParseError("expected an argument name", t.line, t.col)
            out.append(t)
            if not self.accept(","):
                self.expect(")")
                return out


# ---------------------------------------------------------------------------
# scalar expressions

class _ExprParser:
    def __init__(self, cur: _Cursor, chart: Chart):
        self.cur = cur
        self.chart = chart

    def expr(self) -> Expression:
        e = self.term()
        while True:
            if self.cur.accept("+"):
                e = e + self.term()
            elif self.cur.accept("-"):
                e = e - self.term()
            else:
                return e

    def term(self) -> Expression:
        e = self.unary()
        while True:
            if (self.cur.peek().text == "*"
                    and not self._tensor_at(self.cur.pos + 1)):
                self.cur.next()
                e = e * self.unary()
            elif self.cur.accept("/"):
                t = self.cur.peek()
                d = self.unary()
                if d.is_zero:
                    raise ParseError("division by zero", t.line, t.col)
                e = e / d
            else:
                return e

    def _tensor_at(self, k: int) -> bool:
        """Whether a tensor starts at token k, which ends a product before
        it. Chart expressions hold no tensors."""
        return False

    def unary(self) -> Expression:
        if self.cur.accept("-"):
            return -self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.primary()
        if self.cur.accept("^"):
            t = self.cur.peek()
            ex = self.unary()
            if not ex.is_rational() or ex.as_rational().denominator != 1:
                raise ParseError("exponent must be an integer", t.line, t.col)
            k = int(ex.as_rational())
            if abs(k) > MAX_EXPONENT:
                raise ParseError(f"exponent must be from -{MAX_EXPONENT} to "
                                 f"{MAX_EXPONENT}", t.line, t.col)
            if k < 0 and base.is_zero:
                raise ParseError("zero to a negative power", t.line, t.col)
            return base ** k
        return base

    def primary(self) -> Expression:
        t = self.cur.next()
        if t.kind == "INT":
            return Expression.from_int(int(t.text))
        if t.kind == "PUNCT" and t.text == "(":
            e = self.expr()
            self.cur.expect(")")
            return e
        if t.kind == "NAME":
            return self.name_or_call(t)
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    def name_or_call(self, t: Token) -> Expression:
        name = t.text
        primes = 0
        while self.cur.peek().kind == "PRIME":
            self.cur.next()
            primes += 1
        chart = self.chart
        if primes:
            args = chart.functions.get(name)
            if args is None:
                raise ParseError(f"{name!r} is not a declared function", t.line, t.col)
            if len(args) != 1:
                raise ParseError(
                    f"prime shorthand needs a single-argument function, "
                    f"{name!r} has {len(args)}", t.line, t.col)
            self.cur.expect("(")
            self.call_args(name, args)
            return Expression.from_atom(Atom.func(name, args, (primes,)))
        if self.cur.accept("("):
            if name in ("sin", "cos"):
                a = self.cur.next()
                if a.kind != "NAME" or a.text not in chart.coords:
                    raise ParseError(f"{name} takes a coordinate", a.line, a.col)
                self.cur.expect(")")
                atom = Atom.sin(a.text) if name == "sin" else Atom.cos(a.text)
                return Expression.from_atom(atom)
            if name == "diff":
                return self.diff_call(t)
            args = chart.functions.get(name)
            if args is None:
                raise ParseError(f"{name!r} is not a declared function", t.line, t.col)
            self.call_args(name, args)
            return Expression.from_atom(Atom.func(name, args))
        if name in chart.coords:
            return Expression.from_atom(Atom.coordinate(name))
        if name in chart.constants or name in BUILTIN_CONSTANTS:
            return Expression.from_atom(Atom.constant(name))
        if name in chart.functions:
            raise ParseError(f"function {name!r} must be applied to its arguments",
                             t.line, t.col)
        raise ParseError(f"unknown identifier {name!r}", t.line, t.col)

    def call_args(self, fname: str, declared: tuple[str, ...]):
        """Consume `a,b,c)` and require it to equal the declared list."""
        got = self.cur.names()
        if tuple(a.text for a in got) != declared:
            raise ParseError(
                f"{fname!r} must be written with arguments "
                f"({','.join(declared)})", got[-1].line, got[-1].col)

    def diff_call(self, t: Token) -> Expression:
        f = self.cur.next()
        if f.kind != "NAME" or f.text not in self.chart.functions:
            raise ParseError("diff needs a declared function", f.line, f.col)
        declared = self.chart.functions[f.text]
        self.cur.expect("(")
        self.call_args(f.text, declared)
        orders = [0] * len(declared)
        while self.cur.accept(","):
            c = self.cur.next()
            if c.kind != "NAME" or c.text not in declared:
                raise ParseError(
                    f"diff variable must be an argument of {f.text!r}", c.line, c.col)
            self.cur.expect(",")
            k = self.cur.next()
            if k.kind != "INT" or int(k.text) < 1:
                raise ParseError("derivative order must be a positive integer",
                                 k.line, k.col)
            orders[declared.index(c.text)] += int(k.text)
        self.cur.expect(")")
        if not any(orders):
            raise ParseError("diff needs at least one variable,order pair",
                             t.line, t.col)
        return Expression.from_atom(Atom.func(f.text, declared, tuple(orders)))


def parse_expression(text: str, chart: Chart, line0: int = 1) -> Expression:
    cur = _Cursor(_tokenize(text, line0))
    e = _ExprParser(cur, chart).expr()
    cur.expect_end()
    return e


# ---------------------------------------------------------------------------
# metric files

class MetricSpec(Record):
    __slots__ = ("name", "chart", "matrix")

    def __init__(self, name: str, chart: Chart, matrix: tuple):
        self.name = name
        self.chart = chart
        # n x n tuple of tuples of Expressions, symmetric
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.chart.dim


def parse_metric_file(text: str) -> MetricSpec:
    lines = text.split("\n")
    name = ""
    dim = None
    coords: tuple[str, ...] | None = None
    functions: dict[str, tuple[str, ...]] = {}
    constants: list[str] = []
    assignments: list[tuple[int, str]] = []  # (line number, `g[..] = ..` text)

    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        if head == "metric":
            if not rest:
                raise ParseError("metric needs a name", ln, 1)
            name = rest
        elif head == "dim":
            if not rest.isdecimal():
                raise ParseError("dim needs an integer", ln, 1)
            dim = int(rest)
        elif head == "coords":
            if coords is not None:
                raise ParseError("coords given twice", ln, 1)
            coords = tuple(rest.split())
            if not coords:
                raise ParseError("coords needs at least two names", ln, 1)
        elif head == "function":
            cur = _Cursor(_tokenize(rest, ln))
            f = cur.next()
            if f.kind != "NAME":
                raise ParseError("function needs a name", f.line, f.col)
            cur.expect("(")
            args = tuple(a.text for a in cur.names())
            if cur.peek().kind != "END":
                raise ParseError("trailing input after function declaration", ln, 1)
            if f.text in functions:
                raise ParseError(f"function {f.text!r} declared twice", f.line, f.col)
            functions[f.text] = args
        elif head == "constant":
            syms = rest.split()
            if not syms:
                raise ParseError("constant needs a name", ln, 1)
            constants.extend(syms)
        elif head == "g" or line.startswith("g["):
            assignments.append((ln, line))
        else:
            raise ParseError(f"unrecognized directive {head!r}", ln, 1)

    if coords is None:
        raise ParseError("missing coords line", len(lines), 1)
    if dim is not None and dim != len(coords):
        raise ParseError(f"dim {dim} does not match {len(coords)} coordinates",
                         len(lines), 1)
    chart = Chart(coords, functions, tuple(constants))
    n = chart.dim

    entries: list[list[Expression | None]] = [[None] * n for _ in range(n)]
    for ln, line in assignments:
        cur = _Cursor(_tokenize(line, ln))
        gtok = cur.next()
        if gtok.kind != "NAME" or gtok.text != "g":
            raise ParseError("assignment must start with g", gtok.line, gtok.col)
        idx = []
        for _ in range(2):
            cur.expect("[")
            k = cur.next()
            if k.kind != "INT":
                raise ParseError("index must be an integer", k.line, k.col)
            idx.append(int(k.text))
            cur.expect("]")
        cur.expect("=")
        i, j = idx
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index g[{i}][{j}] outside 1..{n}", ln, 1)
        e = _ExprParser(cur, chart).expr()
        cur.expect_end()
        a, b = i - 1, j - 1
        prev = entries[a][b] if entries[a][b] is not None else entries[b][a]
        if prev is not None and not prev == e:
            raise ParseError(
                f"g[{i}][{j}] conflicts with an earlier assignment", ln, 1)
        entries[a][b] = entries[b][a] = e

    matrix = tuple(tuple(entries[a][b] if entries[a][b] is not None else ZERO
                         for b in range(n)) for a in range(n))
    if matrix_rank(matrix) < n:
        raise DegenerateMetricError(
            f"metric {name or '<unnamed>'} has zero determinant")
    return MetricSpec(name, chart, matrix)


# ---------------------------------------------------------------------------
# identity language

TENSOR_VALENCE = {"R": 4, "S": 2, "C": 4, "P": 4, "W": 4, "K": 4, "G": 4,
                  "g": 2, "T": 2}

_RESERVED = frozenset(TENSOR_VALENCE) | {"Q", "wedge", "nabla"}


class TName(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class TDot(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class TQ(Record):
    __slots__ = ("metric_like", "operand")

    def __init__(self, metric_like, operand):
        self.metric_like = metric_like
        self.operand = operand


class TWedge(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class TNabla(Record):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class Term(Record):
    __slots__ = ("coeff", "unknown", "tensor")

    def __init__(self, coeff: Expression, unknown: str | None, tensor):
        self.coeff = coeff       # concrete scalar factor (sign folded in)
        self.unknown = unknown   # unknown scalar name, or None
        self.tensor = tensor     # tensor AST node


class IdentityAst(Record):
    __slots__ = ("left", "right", "valence", "unknowns")

    def __init__(self, left: tuple[Term, ...], right: tuple[Term, ...],
                 valence: int, unknowns: tuple[str, ...]):
        self.left = left
        self.right = right
        self.valence = valence
        self.unknowns = unknowns


def tensor_ast_str(node) -> str:
    if isinstance(node, TName):
        return node.name
    if isinstance(node, TDot):
        return f"{tensor_ast_str(node.left)}.{tensor_ast_str(node.right)}"
    if isinstance(node, TQ):
        return f"Q({tensor_ast_str(node.metric_like)},{tensor_ast_str(node.operand)})"
    if isinstance(node, TWedge):
        return f"wedge({tensor_ast_str(node.left)},{tensor_ast_str(node.right)})"
    if isinstance(node, TNabla):
        return f"nabla {tensor_ast_str(node.operand)}"
    raise ExprError(f"unknown tensor node {node!r}")


def tensor_ast_valence(node) -> int:
    if isinstance(node, TName):
        return TENSOR_VALENCE[node.name]
    if isinstance(node, TDot):
        if tensor_ast_valence(node.left) != 4:
            raise ExprError("dot action needs a (0,4) tensor on the left")
        return tensor_ast_valence(node.right) + 2
    if isinstance(node, TQ):
        if tensor_ast_valence(node.metric_like) != 2:
            raise ExprError("Q needs a (0,2) tensor as first argument")
        return tensor_ast_valence(node.operand) + 2
    if isinstance(node, TWedge):
        if (tensor_ast_valence(node.left) != 2
                or tensor_ast_valence(node.right) != 2):
            raise ExprError("wedge needs two (0,2) tensors")
        return 4
    if isinstance(node, TNabla):
        return tensor_ast_valence(node.operand) + 1
    raise ExprError(f"unknown tensor node {node!r}")


def _is_unknown_name(name: str) -> bool:
    return name.startswith("L") and name[1:].isdecimal() or name == "L"


class _IdentityParser(_ExprParser):
    """One side of an identity (see the grammar at the top). Coefficients are
    parsed as chart expressions whose products stop before a tensor."""

    def __init__(self, cur: _Cursor, chart: Chart):
        super().__init__(cur, chart)
        self.symbols = {*chart.coords, *chart.functions, *chart.constants,
                        *BUILTIN_CONSTANTS}

    def side(self, end: str) -> list[Term]:
        """Summands up to the token `end`: '=' on the left, the end of the
        input ('') on the right."""
        terms: list[Term] = []
        sign = -1 if self.cur.accept("-") else 1
        while True:
            term = self.summand(sign)
            if term is not None:
                terms.append(term)
            if self.cur.accept("+"):
                sign = 1
            elif self.cur.accept("-"):
                sign = -1
            elif self.cur.peek().text != end:
                self.cur.fail(
                    f"unexpected trailing input {self.cur.peek().text!r}")
            else:
                return terms

    def summand(self, sign: int) -> Term | None:
        coeff = ONE if sign > 0 else -ONE
        unknown = None
        if not self._tensor_at(self.cur.pos):
            t = self.cur.peek()
            if t.kind == "NAME" and _is_unknown_name(t.text):
                if t.text in self.symbols:
                    self.cur.fail(f"unknown-scalar name {t.text!r} collides "
                                  f"with a declared symbol")
                if self.cur.tokens[self.cur.pos + 1].text == "*":
                    unknown = self.cur.next().text
            if unknown is None:
                scalar = self.term()
                if scalar.is_zero and self.cur.peek().text != "*":
                    return None
                coeff = coeff * scalar
            self.cur.expect("*")
        return Term(coeff, unknown, self.tensor_atom())

    def primary(self) -> Expression:
        """A coefficient's parenthesised factor is a plain chart expression."""
        if self.cur.peek().text == "(":
            return _ExprParser(self.cur, self.chart).primary()
        return super().primary()

    def _tensor_at(self, k: int) -> bool:
        """A reserved name past any '(' starts a tensor. A chart symbol with
        a tensor's name (the constant G) starts one only where a tensor
        parses and ends the summand; elsewhere it is the scalar."""
        start = k
        while self.cur.tokens[k].text == "(":
            k += 1
        t = self.cur.tokens[k]
        if t.kind != "NAME" or t.text not in _RESERVED:
            return False
        if t.text not in self.symbols:
            return True
        pos = self.cur.pos
        self.cur.pos = start
        try:
            self.tensor_atom()
            return self.cur.peek().text in ("+", "-", "=", "")
        except ParseError:
            return False
        finally:
            self.cur.pos = pos

    def tensor_atom(self):
        node = self.tensor_basic()
        while self.cur.accept("."):
            node = TDot(node, self.tensor_basic())
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
        if t.text in ("Q", "wedge"):
            self.cur.expect("(")
            a = self.tensor_atom()
            self.cur.expect(",")
            b = self.tensor_atom()
            self.cur.expect(")")
            return TQ(a, b) if t.text == "Q" else TWedge(a, b)
        if t.text == "nabla":
            return TNabla(self.tensor_basic())
        if t.text in TENSOR_VALENCE:
            return TName(t.text)
        raise ParseError(f"unknown tensor name {t.text!r}", t.line, t.col)


def parse_identity(text: str, chart: Chart) -> IdentityAst:
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='", 1, 1)
    parser = _IdentityParser(_Cursor(_tokenize(text)), chart)
    left = parser.side("=")
    parser.cur.next()
    right = parser.side("")
    if not left and not right:
        raise ParseError("identity 0 = 0 has no content", 1, 1)
    valences = {tensor_ast_valence(t.tensor) for t in left + right}
    if len(valences) > 1:
        lo, hi = min(valences), max(valences)
        raise ParseError(
            f"valence mismatch: (0,{lo}) equated with (0,{hi})", 1, 1)
    unknowns = []
    for t in left + right:
        if t.unknown and t.unknown not in unknowns:
            unknowns.append(t.unknown)
    return IdentityAst(tuple(left), tuple(right), valences.pop(), tuple(unknowns))
