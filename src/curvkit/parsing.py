"""Parsers: scalar expressions, metric definition files, and the identity
language used by the structure checker.

Expression grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?          # right-associative, integer result
    primary := INT | '(' expr ')' | name | name'(arg)' | call

Calls are sin/cos of a coordinate, a declared function applied to exactly its
declared arguments, the prime shorthand m'(u) / m''(u) for single-argument
functions, or diff(f(args), coord, order, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chart import BUILTIN_CONSTANTS, Chart
from .expr import Atom, Expression, ExprError, ONE, ZERO
from .tensor import determinant


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DegenerateMetricError(ExprError):
    pass


# ---------------------------------------------------------------------------
# tokenizer

_PUNCT = "+-*/^()[],.="


@dataclass
class Token:
    kind: str   # INT NAME PUNCT PRIME END
    text: str
    line: int
    col: int


def _tokenize(text: str, line0: int = 1) -> list[Token]:
    out = []
    line = line0
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == "'":
            out.append(Token("PRIME", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            out.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    out.append(Token("END", "", line, col))
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
        t = self.peek()
        if t.kind == "PUNCT" and t.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.kind == "PUNCT" and t.text == text:
            self.pos += 1
            return t
        raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


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
            if self.cur.accept("*"):
                e = e * self.unary()
            elif self.cur.accept("/"):
                t = self.cur.peek()
                d = self.unary()
                if d.is_zero:
                    raise ParseError("division by zero", t.line, t.col)
                e = e / d
            else:
                return e

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
        got = []
        while True:
            a = self.cur.next()
            if a.kind != "NAME":
                raise ParseError("expected an argument name", a.line, a.col)
            got.append(a.text)
            if self.cur.accept(","):
                continue
            self.cur.expect(")")
            break
        if tuple(got) != declared:
            raise ParseError(
                f"{fname!r} must be written with arguments "
                f"({','.join(declared)})", a.line, a.col)

    def diff_call(self, t: Token) -> Expression:
        f = self.cur.next()
        if f.kind != "NAME" or f.text not in self.chart.functions:
            raise ParseError("diff needs a declared function", f.line, f.col)
        declared = self.chart.functions[f.text]
        self.cur.expect("(")
        self.call_args(f.text, declared)
        orders = [0] * len(declared)
        saw = False
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
            saw = True
        self.cur.expect(")")
        if not saw:
            raise ParseError("diff needs at least one variable,order pair",
                             t.line, t.col)
        return Expression.from_atom(Atom.func(f.text, declared, tuple(orders)))


def parse_expression(text: str, chart: Chart, line0: int = 1) -> Expression:
    cur = _Cursor(_tokenize(text, line0))
    p = _ExprParser(cur, chart)
    e = p.expr()
    t = cur.peek()
    if t.kind != "END":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# metric files

@dataclass(frozen=True)
class MetricSpec:
    name: str
    chart: Chart
    matrix: tuple   # n x n tuple of tuples of Expressions, symmetric

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
            if not rest.isdigit():
                raise ParseError("dim needs an integer", ln, 1)
            dim = int(rest)
        elif head == "coords":
            if coords is not None:
                raise ParseError("coords given twice", ln, 1)
            coords = tuple(rest.split())
            if not coords:
                raise ParseError("coords needs at least two names", ln, 1)
        elif head == "function":
            toks = _tokenize(rest, ln)
            cur = _Cursor(toks)
            f = cur.next()
            if f.kind != "NAME":
                raise ParseError("function needs a name", f.line, f.col)
            cur.expect("(")
            args = []
            while True:
                a = cur.next()
                if a.kind != "NAME":
                    raise ParseError("expected an argument name", a.line, a.col)
                args.append(a.text)
                if cur.accept(","):
                    continue
                cur.expect(")")
                break
            if cur.peek().kind != "END":
                raise ParseError("trailing input after function declaration", ln, 1)
            if f.text in functions:
                raise ParseError(f"function {f.text!r} declared twice", f.line, f.col)
            functions[f.text] = tuple(args)
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
        toks = _tokenize(line, ln)
        cur = _Cursor(toks)
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
        p = _ExprParser(cur, chart)
        e = p.expr()
        t = cur.peek()
        if t.kind != "END":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
        a, b = i - 1, j - 1
        prev = entries[a][b] if entries[a][b] is not None else entries[b][a]
        if prev is not None:
            if not (prev == e):
                raise ParseError(
                    f"g[{i}][{j}] conflicts with an earlier assignment", ln, 1)
        entries[a][b] = e
        entries[b][a] = e

    matrix = tuple(tuple(entries[a][b] if entries[a][b] is not None else ZERO
                         for b in range(n)) for a in range(n))
    if determinant(matrix).is_zero:
        raise DegenerateMetricError(
            f"metric {name or '<unnamed>'} has zero determinant")
    return MetricSpec(name, chart, matrix)


# ---------------------------------------------------------------------------
# identity language

TENSOR_VALENCE = {"R": 4, "S": 2, "C": 4, "P": 4, "W": 4, "K": 4, "G": 4,
                  "g": 2, "T": 2}


@dataclass(frozen=True)
class TName:
    name: str


@dataclass(frozen=True)
class TDot:
    left: object
    right: object


@dataclass(frozen=True)
class TQ:
    metric_like: object
    operand: object


@dataclass(frozen=True)
class TWedge:
    left: object
    right: object


@dataclass(frozen=True)
class TNabla:
    operand: object


@dataclass(frozen=True)
class Term:
    coeff: Expression          # concrete scalar factor (sign folded in)
    unknown: str | None        # unknown scalar name, or None
    tensor: object             # tensor AST node


@dataclass(frozen=True)
class IdentityAst:
    left: tuple[Term, ...]
    right: tuple[Term, ...]
    valence: int
    unknowns: tuple[str, ...]

    def __str__(self):
        return f"identity({_side_str(self.left)} = {_side_str(self.right)})"


def _side_str(terms) -> str:
    if not terms:
        return "0"
    return " + ".join(
        (f"{t.unknown}*" if t.unknown else
         ("" if t.coeff.is_one else f"({t.coeff})*")) + tensor_ast_str(t.tensor)
        for t in terms)


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
    return name.startswith("L") and name[1:].isdigit() or name == "L"


class _IdentityParser:
    """One side of an identity: sum of signed terms, each an optional scalar
    coefficient times a tensor atom, or the literal 0."""

    def __init__(self, cur: _Cursor, chart: Chart):
        self.cur = cur
        self.chart = chart

    def side(self) -> list[Term]:
        terms: list[Term] = []
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

    def one_term(self, terms: list[Term], sign: int):
        t = self.cur.peek()
        if t.kind == "INT" and t.text == "0" and not self._token_is_scalar_start():
            self.cur.next()
            return
        coeff = ONE if sign > 0 else -ONE
        unknown = None
        if self._at_scalar_factor():
            unknown, scalar = self.scalar_factor()
            if scalar is not None:
                coeff = coeff * scalar
            self.cur.expect("*")
        node = self.tensor_atom()
        terms.append(Term(coeff, unknown, node))

    def _token_is_scalar_start(self) -> bool:
        # a bare 0 followed by '*' would be a degenerate scalar factor
        nxt = self.cur.tokens[self.cur.pos + 1]
        return nxt.kind == "PUNCT" and nxt.text == "*"

    def _at_scalar_factor(self) -> bool:
        """Lookahead: does a scalar coefficient (ending in '*') start here?"""
        t = self.cur.peek()
        if t.kind == "INT":
            return True
        if t.kind == "PUNCT" and t.text == "(":
            # find the matching ')' and check for a following '*'
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
            if t.text in TENSOR_VALENCE or t.text in ("Q", "wedge", "nabla"):
                return False
            return True
        return False

    def scalar_factor(self) -> tuple[str | None, Expression | None]:
        t = self.cur.peek()
        if t.kind == "NAME" and _is_unknown_name(t.text):
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
            p = _ExprParser(self.cur, self.chart)
            e = p.expr()
            self.cur.expect(")")
            return None, e
        # bare scalar chunk up to the '*': parse with the expression parser
        p = _ExprParser(self.cur, self.chart)
        return None, p.term_until_star()

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
        if t.text == "Q":
            self.cur.expect("(")
            a = self.tensor_atom()
            self.cur.expect(",")
            h = self.tensor_atom()
            self.cur.expect(")")
            return TQ(a, h)
        if t.text == "wedge":
            self.cur.expect("(")
            a = self.tensor_atom()
            self.cur.expect(",")
            b = self.tensor_atom()
            self.cur.expect(")")
            return TWedge(a, b)
        if t.text == "nabla":
            if self.cur.accept("("):
                node = self.tensor_atom()
                self.cur.expect(")")
                return TNabla(node)
            return TNabla(self.tensor_basic())
        if t.text in TENSOR_VALENCE:
            return TName(t.text)
        raise ParseError(f"unknown tensor name {t.text!r}", t.line, t.col)


# scalar chunk inside an identity term: a product/quotient chain that stops
# before the '*' separating it from the tensor atom
def _term_until_star(self) -> Expression:
    e = self.unary()
    while True:
        t = self.cur.peek()
        if t.kind == "PUNCT" and t.text == "*":
            nxt = self.cur.tokens[self.cur.pos + 1]
            if nxt.kind == "NAME" and (nxt.text in TENSOR_VALENCE
                                       or nxt.text in ("Q", "wedge", "nabla")):
                return e
            self.cur.next()
            e = e * self.unary()
        elif self.cur.accept("/"):
            e = e / self.unary()
        else:
            return e


_ExprParser.term_until_star = _term_until_star


def parse_identity(text: str, chart: Chart) -> IdentityAst:
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='", 1, 1)
    left_text, right_text = text.split("=")
    lcur = _Cursor(_tokenize(left_text))
    left = _IdentityParser(lcur, chart).side()
    if lcur.peek().kind != "END":
        t = lcur.peek()
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    rcur = _Cursor(_tokenize(right_text))
    right = _IdentityParser(rcur, chart).side()
    if rcur.peek().kind != "END":
        t = rcur.peek()
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
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
