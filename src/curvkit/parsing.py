"""Parsers: scalar expressions, metric definition files, and the identity
language used by the structure checker.

Expression grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?          # right-associative, integer result
                                             # from -MAX_EXPONENT to MAX_EXPONENT,
                                             # MAX_POWER_TERMS terms at most
    primary := INT | '(' expr ')' | name | name'(arg)' | call

Calls are sin/cos of a coordinate, a declared function applied to exactly its
declared arguments, the prime shorthand m'(u) / m''(u) for single-argument
functions, or diff(f(args), coord, order, ...).

Identity grammar, one side of the '=':

    side    := ['-'] summand (('+' | '-') summand)*
    summand := [coefficient '*'] tensor [slots ['*' factor]] | zero
    coefficient := unknown | indexed | term     # unknown: L, L1, L2, ...
    factor  := tensor slots | indexed
    indexed := NAME '[' NAME [',' NAME] ']'
    slots   := '[' NAME (',' NAME)* ']'
    tensor  := basic ('.' basic)*
    basic   := '(' tensor ')' | 'Q' '(' tensor ',' tensor ')'
             | 'wedge' '(' tensor ',' tensor ')' | 'nabla' basic
             | 'div' basic | NAME ['^' '2']

Each operation's printed form and valence rule is in OPERATIONS: div
contracts the first slot of nabla T with its derivative slot and needs
valence 2 or more, and E^2, the squared endomorphism, needs a (0,2) E.
The tensor names and Q, wedge, nabla, div are reserved: past any '(' they
start the tensor, and a coefficient's term ends before the '*' they
follow. Inside a coefficient's parentheses nothing is reserved: a
parenthesised factor is a chart expression. A summand without a tensor
must be a zero scalar and contributes nothing.

Slots give each slot of a tensor an index letter; an indexed unknown is
an unknown covector (one letter) or (0,2) tensor (two letters), and a
term takes one unknown at most. A term with slots is its tensor (the
first tensor written) times at most one more indexed factor; a letter
both factors write is contracted through g^-1 and must be the tensor's
last slot. Either every term has slots or none has, each term writes every
free letter once, and the free letters in alphabetical order index the
equations. An indexed unknown's unknowns are its name's first letter,
upper-cased, and its index numbers (pi[x] gives P1, P2, ...; E[a,b] gives
E11, E12, ..., E12 being row 1, column 2); it may share a chart symbol's
name only where the identity does not write that symbol.
"""

from __future__ import annotations

import math
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
# nor one that may expand past this many terms: a t-term polynomial to
# the k has at most C(t-1+k, k). (x+y+z+1)^32 has 6,545 (about 1.5 s);
# (x+y+z+1)^64 and ((x+y+1)^64)^64 each ran past 20 s
MAX_POWER_TERMS = 10_000


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

    def names(self, close: str = ")") -> list[Token]:
        """Consume `a,b,c)`: one or more names separated by commas."""
        out = []
        while True:
            t = self.next()
            if t.kind != "NAME":
                raise ParseError("expected a name", t.line, t.col)
            out.append(t)
            if not self.accept(","):
                self.expect(close)
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
        caret = self.cur.peek()
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
            terms = max(len(base.num.terms), len(base.den.terms))
            if math.comb(terms - 1 + abs(k), abs(k)) > MAX_POWER_TERMS:
                raise ParseError(
                    f"a {terms}-term polynomial to the power {abs(k)} may "
                    f"have more than {MAX_POWER_TERMS} terms",
                    caret.line, caret.col)
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

_RESERVED = frozenset(TENSOR_VALENCE) | {"Q", "wedge", "nabla", "div"}


class TNode(Record):
    """A tensor expression: op is a tensor name, with no args, or a key
    of OPERATIONS applied to the tensor expressions in args."""
    __slots__ = ("op", "args")

    def __init__(self, op: str, *args):
        self.op = op
        self.args = args


# op -> (printed form, the result's valence from the operands' valences or
# None where they do not fit, the error then)
OPERATIONS = {
    "dot": ("{}.{}", lambda d, h: h + 2 if d == 4 else None,
            "dot action needs a (0,4) tensor on the left"),
    "Q": ("Q({},{})", lambda a, h: h + 2 if a == 2 else None,
          "Q needs a (0,2) tensor as first argument"),
    "wedge": ("wedge({},{})", lambda a, e: 4 if a == e == 2 else None,
              "wedge needs two (0,2) tensors"),
    "nabla": ("nabla {}", lambda t: t + 1, ""),
    "div": ("div {}", lambda t: t - 1 if t >= 2 else None,
            "div needs a tensor of valence 2 or more"),
    "^2": ("{}^2", lambda e: 2 if e == 2 else None,
           "^2 needs a (0,2) tensor"),
}


class Term(Record):
    __slots__ = ("coeff", "unknown", "tensor", "slots", "letters", "factor")

    def __init__(self, coeff: Expression, unknown: str | None, tensor,
                 slots: tuple[str, ...] | None = None,
                 letters: tuple[str, ...] = (), factor: tuple | None = None):
        self.coeff = coeff       # concrete scalar factor (sign folded in)
        self.unknown = unknown   # unknown scalar, covector or tensor, or None
        self.tensor = tensor     # tensor AST node
        self.slots = slots       # a letter per slot; None for a whole tensor
        self.letters = letters   # an indexed unknown's letters, else ()
        self.factor = factor     # (node, letters) of a second tensor, or None

    def free(self) -> set | None:
        """The letters written once, None for a whole tensor."""
        if self.slots is not None:
            written = self.slots + self.letters + (self.factor or (0, ()))[1]
            return {x for x in written if written.count(x) == 1}


class IdentityAst(Record):
    __slots__ = ("left", "right", "valence", "unknowns", "letters",
                 "covectors")

    def __init__(self, left: tuple[Term, ...], right: tuple[Term, ...],
                 valence: int, unknowns: tuple[str, ...],
                 letters: tuple[str, ...] = (), covectors: tuple = ()):
        self.left = left
        self.right = right
        self.valence = valence
        self.unknowns = unknowns     # every scalar unknown, in solve order
        self.letters = letters       # the free letters, alphabetical
        # ((name, its unknowns, nested by index), ...) of indexed unknowns
        self.covectors = covectors


def tensor_ast_str(node) -> str:
    if not node.args:
        return node.op
    args = [tensor_ast_str(a) for a in node.args]
    # a dot product is no basic: where the grammar reads one, it is
    # printed in parentheses
    if node.op in ("nabla", "div") and node.args[0].op == "dot":
        return f"{node.op}({args[0]})"
    if node.op == "dot" and node.args[1].op == "dot":
        args[1] = f"({args[1]})"
    return OPERATIONS[node.op][0].format(*args)


def tensor_ast_valence(node) -> int:
    if not node.args:
        return TENSOR_VALENCE[node.op]
    _, rule, error = OPERATIONS[node.op]
    valence = rule(*map(tensor_ast_valence, node.args))
    if valence is None:
        raise ExprError(error)
    return valence


def _texts(tokens) -> tuple[str, ...]:
    return tuple(t.text for t in tokens)


def _indexed_names(name: str, rank: int, n: int):
    """An unknown's names, nested by index, and their solve order: L gives
    L; pi gives P1, P2, ...; E[a,b] gives E11, E12, ..., E12 being row 1,
    column 2, solved as E11, E21, ..., the first index fastest."""
    head, ns = name[0].upper(), range(1, n + 1)
    if rank == 0:
        return name, (name,)
    if rank == 1:
        return (names := tuple(f"{head}{i}" for i in ns)), names
    grid = tuple(tuple(f"{head}{i}{j}" for j in ns) for i in ns)
    return grid, tuple(row[j] for j in range(n) for row in grid)


def _is_unknown_name(name: str) -> bool:
    return name.startswith("L") and name[1:].isdecimal() or name == "L"


class _IdentityParser(_ExprParser):
    """One side of an identity (see the grammar at the top). Coefficients are
    parsed as chart expressions whose products stop before a tensor."""

    def __init__(self, cur: _Cursor, chart: Chart):
        super().__init__(cur, chart)
        self.symbols = {*chart.coords, *chart.functions, *chart.constants,
                        *BUILTIN_CONSTANTS}
        self.starts: list[Token] = []   # the first token of each term

    def side(self, end: str) -> list[Term]:
        """Summands up to the token `end`: '=' on the left, the end of the
        input ('') on the right."""
        terms: list[Term] = []
        sign = -1 if self.cur.accept("-") else 1
        while True:
            start = self.cur.peek()
            term = self.summand(sign)
            if term is not None:
                terms.append(term)
                self.starts.append(start)
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
        unknown, letters, groups = None, [], []
        if not self._tensor_at(self.cur.pos):
            t = self.cur.peek()
            # END is the last token, and a NAME is never it
            after = (self.cur.tokens[self.cur.pos + 1].text
                     if t.kind == "NAME" else "")
            if after == "[":
                unknown, letters = self.indexed_unknown()
                groups.append(letters)
            elif t.kind == "NAME" and _is_unknown_name(t.text):
                if t.text in self.symbols:
                    self.cur.fail(f"unknown-scalar name {t.text!r} collides "
                                  f"with a declared symbol")
                if after == "*":
                    unknown = self.cur.next().text
            if unknown is None:
                scalar = self.term()
                if scalar.is_zero and self.cur.peek().text != "*":
                    return None
                coeff = coeff * scalar
            self.cur.expect("*")
        tensor, slots = self.indexed_tensor()
        if slots is None:
            if letters:
                self.cur.expect("[")
            return Term(coeff, unknown, tensor)
        groups.append(slots)
        factor = None
        if not letters and self.cur.accept("*"):
            if self._tensor_at(self.cur.pos):
                node, factor = self.indexed_tensor()
                if factor is None:
                    self.cur.expect("[")
                groups.append(factor)
                factor = (node, _texts(factor))
            elif unknown is not None:
                self.cur.fail("a term takes one unknown")
            else:
                unknown, letters = self.indexed_unknown()
                groups.append(letters)
        # a letter shared by the two factors contracts: only the last slot
        # of the tensor may be it
        seen = {}
        for part, group in enumerate(groups):
            for t in group:
                parts = seen.setdefault(t.text, [])
                if part in parts or parts and t.text != slots[-1].text:
                    where = ("in one factor" if part in parts else
                             f"off the last slot of {tensor_ast_str(tensor)}")
                    raise ParseError(f"index letter {t.text!r} repeats "
                                     f"{where}", t.line, t.col)
                parts.append(part)
        return Term(coeff, unknown, tensor, _texts(slots), _texts(letters),
                    factor)

    def indexed_unknown(self):
        """An unknown covector or (0,2) tensor: its name and letter tokens."""
        t = self.cur.next()
        if t.kind != "NAME" or not self.cur.accept("["):
            raise ParseError("expected a tensor or an indexed unknown",
                             t.line, t.col)
        letters = self.cur.names("]")
        if len(letters) > 2:
            raise ParseError("an unknown takes one or two index letters",
                             letters[2].line, letters[2].col)
        return t.text, letters

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
        if t.text not in self.symbols or self.cur.tokens[k + 1].text == "[":
            return True
        pos = self.cur.pos
        self.cur.pos = start
        try:
            self.indexed_tensor()
            return self.cur.peek().text in ("+", "-", "=", "")
        except ExprError:
            return False
        finally:
            self.cur.pos = pos

    def indexed_tensor(self):
        """A tensor and the list of its slot letter tokens, None when it
        has none."""
        node = self.tensor_atom()
        bracket = self.cur.peek()
        if not self.cur.accept("["):
            return node, None
        slots = self.cur.names("]")
        valence = tensor_ast_valence(node)
        if len(slots) != valence:
            raise ParseError(f"{tensor_ast_str(node)} has {valence} slots, "
                             f"not {len(slots)}", bracket.line, bracket.col)
        return node, slots

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
        if t.text in ("Q", "wedge"):
            self.cur.expect("(")
            a = self.tensor_atom()
            self.cur.expect(",")
            b = self.tensor_atom()
            self.cur.expect(")")
            return TNode(t.text, a, b)
        if t.text in ("nabla", "div"):
            return TNode(t.text, self.tensor_basic())
        if t.text in TENSOR_VALENCE:
            node = TNode(t.text)
            if self.cur.accept("^"):
                self.cur.expect("2")
                node = TNode("^2", node)
            return node
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
    terms = left + right
    free = [t.free() for t in terms]
    # an indexed unknown may share its name with a chart symbol (pi, a
    # function a) unless the identity writes that symbol too
    written = {a.name for t in terms for a in t.coeff.atoms()}
    unknowns, named = {}, {}   # unknown -> its owner; name -> its names
    for term, letters, start in zip(terms, free, parser.starts):
        name, problem = term.unknown, None
        names = name and _indexed_names(name, len(term.letters), chart.dim)
        if letters != free[0]:
            problem = ("indexed and whole-tensor terms are mixed"
                       if None in (letters, free[0]) else
                       f"free letters {','.join(sorted(letters))} differ "
                       f"from {','.join(sorted(free[0]))}")
        elif term.letters and name in written:
            kind = "covector" if len(term.letters) == 1 else "tensor unknown"
            problem = f"{kind} {name!r} is also a chart symbol here"
        elif names and named.setdefault(name, names) != names:
            problem = f"unknown {name!r} takes other index letters elsewhere"
        elif names and len(set(names[1])) < len(names[1]):
            # E[1,11] and E[11,1] would both be E111
            problem = (f"the unknowns of {name!r} repeat a name in "
                       f"{chart.dim} dimensions")
        elif names:
            for u in names[1]:
                if unknowns.setdefault(u, name) != name:
                    problem = (f"{unknowns[u]!r} and {name!r} both name "
                               f"the unknown {u!r}")
                    break
        if problem:
            raise ParseError(problem, start.line, start.col)
    valences = ({tensor_ast_valence(t.tensor) for t in terms}
                if free[0] is None else {len(free[0])})
    if len(valences) > 1:
        lo, hi = min(valences), max(valences)
        raise ParseError(
            f"valence mismatch: (0,{lo}) equated with (0,{hi})", 1, 1)
    return IdentityAst(tuple(left), tuple(right), valences.pop(),
                       tuple(unknowns), tuple(sorted(free[0] or ())),
                       tuple((name, names) for name, (names, _)
                             in named.items() if names != name))
