"""Exact symbolic scalar arithmetic.

A value is a fraction of multivariate polynomials with rational coefficients
(each an int when integral, else a Fraction) whose indeterminates are interned
Atom objects, compared by identity.  Every Expression is normalized on
construction: numerator and denominator are divided by their polynomial gcd,
the denominator is scaled to a primitive integer polynomial with positive
leading coefficient, and cos(x)^2 is rewritten to 1 - sin(x)^2 so each cosine
appears at most linearly.  The gcd runs on a work budget; past it only the
common monomial factor is divided out, so a fraction may keep a common factor
(this happens on trig-free input too) and the form is not canonical.
Equality is decided exactly by cross-multiplication, and is_zero (a zero
numerator) is exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction


class Record:
    """Base of curvkit's plain records.  A subclass lists its fields, in
    order, as __slots__ and sets them in its __init__.  Two records are
    equal when they are of one type with equal fields, a record hashes
    over its type and fields, and it shows as Name(field=value, ...).
    Immutable by convention, as Expression is."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"


class ExprError(Exception):
    """Base class for symbolic-arithmetic failures."""


class DivisionByZeroExpression(ExprError):
    """A denominator normalized to the zero polynomial."""


class PoleError(ExprError):
    """Numeric evaluation hit a zero denominator."""


class IncompleteAssignment(ExprError):
    """Numeric evaluation met an atom without an assigned value."""


_KIND_CONST = 0
_KIND_COORD = 1
_KIND_TRIG = 2
_KIND_FDER = 3


class Atom:
    """An opaque indeterminate: constant symbol, coordinate, sin/cos of a
    coordinate, or a partial derivative of a declared function.

    The base value of a function is the derivative with the all-zero
    multi-index.  Atoms are interned: Atom(...) returns one shared object
    per key, so equality and hashing are identity, and a copy or an
    unpickled atom is the original.  The key totally orders atoms:
    constants < coordinates < trig < function-derivatives, lexicographic
    within a kind.
    """

    __slots__ = ("kind", "name", "sub", "orders", "args", "key", "is_cos")
    _interned: dict = {}

    def __new__(cls, kind: int, name: str, sub: str = "",
                orders: tuple[int, ...] = (), args: tuple[str, ...] = ()):
        if kind == _KIND_TRIG:
            key = (kind, name, sub)
        elif kind == _KIND_FDER:
            # with the argument names: a function declared on other
            # arguments in another chart is another atom
            key = (kind, name, orders, args)
        else:
            key = (kind, name)
        self = cls._interned.get(key)
        if self is None:
            self = super().__new__(cls)
            self.kind = kind
            self.name = name
            self.sub = sub
            self.orders = orders
            self.args = args
            self.key = key
            self.is_cos = kind == _KIND_TRIG and sub == "cos"
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return Atom, (self.kind, self.name, self.sub, self.orders, self.args)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @staticmethod
    def constant(name: str) -> "Atom":
        return Atom(_KIND_CONST, name)

    @staticmethod
    def coordinate(name: str) -> "Atom":
        return Atom(_KIND_COORD, name)

    @staticmethod
    def sin(coord: str) -> "Atom":
        return Atom(_KIND_TRIG, coord, "sin")

    @staticmethod
    def cos(coord: str) -> "Atom":
        return Atom(_KIND_TRIG, coord, "cos")

    @staticmethod
    def func(name: str, args: tuple[str, ...],
             orders: tuple[int, ...] | None = None) -> "Atom":
        if orders is None:
            orders = (0,) * len(args)
        if len(orders) != len(args):
            raise ExprError(f"derivative multi-index length mismatch for {name}")
        return Atom(_KIND_FDER, name, orders=orders, args=args)

    def bump(self, arg: str) -> "Atom":
        """Derivative multi-index raised by one in the given argument."""
        i = self.args.index(arg)
        orders = self.orders[:i] + (self.orders[i] + 1,) + self.orders[i + 1:]
        return Atom(_KIND_FDER, self.name, orders=orders, args=self.args)

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"Atom{self.key!r}"

    def __str__(self):
        return format_atom(self)


def format_atom(a: Atom) -> str:
    if a.kind == _KIND_TRIG:
        return f"{a.sub}({a.name})"
    if a.kind == _KIND_FDER:
        call = f"{a.name}({','.join(a.args)})"
        total = sum(a.orders)
        if total == 0:
            return call
        if len(a.args) == 1 and total <= 2:
            return f"{a.name}{chr(39) * total}({a.args[0]})"
        parts = [call]
        for arg, k in zip(a.args, a.orders):
            if k:
                parts.append(f"{arg},{k}")
        return f"diff({','.join(parts)})"
    return a.name


# A monomial is a tuple of (atom, exponent) pairs sorted by atom key, all
# exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple

_ONE_MONO: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is a2:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1.key < a2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial | None:
    """m1 / m2, or None when an exponent would go negative."""
    if not m2:
        return m1
    rest = dict(m2)
    out = []
    for a, e in m1:
        e2 = rest.pop(a, 0)
        if e > e2:
            out.append((a, e - e2))
        elif e < e2:
            return None
    return None if rest else tuple(out)


def _mono_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return _ONE_MONO
    d2 = dict(m2)
    out = []
    for a, e in m1:
        e2 = d2.get(a)
        if e2:
            out.append((a, min(e, e2)))
    return tuple(out)


def _mono_deg(m: Monomial) -> int:
    return sum([e for _, e in m])


def _mono_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded lexicographic order; multiplicative, hence safe for division."""
    d1, d2 = _mono_deg(m1), _mono_deg(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    return _lex_cmp(m1, m2)


def _lex_cmp(m1: Monomial, m2: Monomial) -> int:
    """_mono_cmp of two monomials of one total degree."""
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is a2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif a1.key < a2.key:
            return 1   # m1 has a positive power of an earlier atom
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


_lex_key = functools.cmp_to_key(_lex_cmp)


# A coefficient is an int when integral and a Fraction otherwise.

def _exact(c):
    """The coefficient c, as an int when it is integral."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _qdiv(a, b):
    """The exact quotient of two coefficients, as an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


def _reduced_terms(raw: Iterable[tuple[Monomial, Fraction]]) -> dict:
    """Merge terms, applying cos(x)^2 -> 1 - sin(x)^2 until every cosine
    exponent is at most 1."""
    out: dict[Monomial, int | Fraction] = {}
    stack = list(raw)
    while stack:
        mono, coeff = stack.pop()
        if not coeff:
            continue
        hit = None
        for idx, (atom, e) in enumerate(mono):
            if e >= 2 and atom.is_cos:
                hit = (idx, atom, e)
                break
        if hit is None:
            c = out.get(mono)
            c = coeff if c is None else c + coeff
            if c:
                out[mono] = _exact(c)
            elif mono in out:
                del out[mono]
            continue
        idx, atom, e = hit
        q, rem = divmod(e, 2)
        base = mono[:idx] + ((atom, rem),) * (1 if rem else 0) + mono[idx + 1:]
        s = Atom.sin(atom.name)
        for t in range(q + 1):
            c2 = coeff * math.comb(q, t) * (-1) ** t
            m2 = _mono_mul(base, ((s, 2 * t),)) if t else base
            stack.append((m2, c2))
    return out


class Poly:
    """Multivariate polynomial over Q in Atom indeterminates, trig-reduced:
    {monomial: coefficient}, each coefficient a nonzero int or a
    non-integral Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @staticmethod
    def make(raw: Iterable[tuple[Monomial, Fraction]]) -> "Poly":
        return Poly(_reduced_terms(raw))

    @staticmethod
    def const(c) -> "Poly":
        c = _exact(Fraction(c))
        return Poly({_ONE_MONO: c} if c else {})

    @staticmethod
    def atom(a: Atom) -> "Poly":
        return Poly({((a, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m)
            c2 = c if c2 is None else c2 + c
            if c2:
                out[m] = _exact(c2)
            elif m in out:
                del out[m]
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return _P_ZERO
        if self.has_cos() and other.has_cos():
            return Poly.make([(_mono_mul(m1, m2), c1 * c2)
                              for m1, c1 in self.terms.items()
                              for m2, c2 in other.terms.items()])
        # no product can hold cos^2: merge in the order _reduced_terms
        # would, which pops the products last first
        out = {}
        pairs = tuple(reversed(other.terms.items()))
        for m1, c1 in reversed(self.terms.items()):
            for m2, c2 in pairs:
                m = _mono_mul(m1, m2)
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]
        if any(type(c) is not int
               for p in (self, other) for c in p.terms.values()):
            for m, c in out.items():
                out[m] = _exact(c)
        return Poly(out)

    def has_cos(self) -> bool:
        return any(a.is_cos for m in self.terms for a, _ in m)

    def scale(self, c) -> "Poly":
        if not c:
            return _P_ZERO
        return Poly({m: _exact(k * c) for m, k in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ExprError("negative power on a polynomial")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def leading(self) -> tuple[Monomial, int | Fraction]:
        """The largest term: _lex_cmp runs only among the monomials of top
        total degree."""
        degs = {m: _mono_deg(m) for m in self.terms}
        top = max(degs.values())
        m = max((m for m, d in degs.items() if d == top), key=_lex_key)
        return m, self.terms[m]

    def atoms(self) -> set[Atom]:
        out = set()
        for m in self.terms:
            for a, _ in m:
                out.add(a)
        return out

    def degree_in(self, atom: Atom) -> int:
        best = 0
        for m in self.terms:
            for a, e in m:
                if a is atom and e > best:
                    best = e
        return best

    def rational_content(self) -> int | Fraction:
        """Positive rational c with self/c integer-primitive; sign chosen so
        self/|content| keeps its leading sign (content is always > 0 here,
        sign normalization is done by callers)."""
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        if num_gcd == 0:
            return 1
        return _qdiv(num_gcd, den_lcm)

    def monomial_content(self) -> Monomial:
        it = iter(self.terms)
        try:
            g = next(it)
        except StopIteration:
            return _ONE_MONO
        for m in it:
            if not g:
                break
            g = _mono_gcd(g, m)
        return g

    def derivative(self, coord: str) -> "Poly":
        raw = []
        for mono, coeff in self.terms.items():
            for idx, (atom, e) in enumerate(mono):
                dp = _atom_derivative(atom, coord)
                if dp is None:
                    continue
                rest = mono[:idx] + ((atom, e - 1),) * (1 if e > 1 else 0) + mono[idx + 1:]
                datom, dsign = dp
                if datom is None:  # d(coord)/d(coord) = 1
                    raw.append((rest, coeff * (e * dsign)))
                else:
                    raw.append((_mono_mul(rest, ((datom, 1),)),
                                coeff * (e * dsign)))
        return Poly.make(raw)

    def eval(self, assignment: Mapping[Atom, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            v = coeff
            for a, e in mono:
                try:
                    x = assignment[a]
                except KeyError:
                    raise IncompleteAssignment(f"no value for {format_atom(a)}") from None
                v *= Fraction(x) ** e
            total += v
        return total

    def at_point(self) -> int | None:
        """Value at the fixed point modulo PRIME; None when a coefficient's
        denominator is a multiple of PRIME."""
        total = 0
        for mono, coeff in self.terms.items():
            v = _residue(coeff)
            if v is None:
                return None
            for a, e in mono:
                v = v * pow(_atom_at_point(a), e, PRIME) % PRIME
            total += v
        return total % PRIME

    def __repr__(self):
        return f"Poly({format_poly(self)})"


_P_ZERO = Poly({})
_P_ONE = Poly({_ONE_MONO: 1})


def _atom_derivative(atom: Atom, coord: str):
    """d(atom)/d(coord) as (atom-or-None, sign); None result atom means 1,
    overall None means the derivative is zero."""
    if atom.kind == _KIND_COORD:
        return (None, 1) if atom.name == coord else None
    if atom.kind == _KIND_TRIG:
        if atom.name != coord:
            return None
        if atom.sub == "sin":
            return (Atom.cos(coord), 1)
        return (Atom.sin(coord), -1)
    if atom.kind == _KIND_FDER:
        if coord in atom.args:
            return (atom.bump(coord), 1)
        return None
    return None


# ---------------------------------------------------------------------------
# values at a fixed point modulo a prime
#
# Setting every atom to its value at one point of Z/PRIME is a ring
# homomorphism on polynomials, and on fractions whose denominator does not
# vanish there.  So a nonzero value proves an expression nonzero, a matrix
# of values of full rank proves the exact matrix full rank, and coprime
# one-variable images prove two polynomials coprime (Schwartz 1980; Zippel
# 1979).  A zero value proves nothing: callers then run the exact code.

PRIME = 2**61 - 1
_point: dict = {}   # atom -> value at the point


def _atom_at_point(a: Atom) -> int:
    v = _point.get(a)
    if v is None:
        # the key read as digits; sin and cos of one coordinate share it
        h = a.kind
        for d in (*map(ord, a.name), -1, *a.orders):
            h = (h * 1_000_003 + d + 2) % PRIME
        # x -> x^65537 permutes Z/PRIME and scatters neighbouring seeds
        v = pow(h, 65537, PRIME)
        if a.kind == _KIND_TRIG:
            # put (cos, sin) on the unit circle so cos^2 = 1 - sin^2 holds;
            # 1 + t^2 is never zero because PRIME = 3 mod 4
            inv = pow(1 + v * v, -1, PRIME)
            v = (2 * v if a.sub == "sin" else 1 - v * v) * inv % PRIME
        _point[a] = v
    return v


def _residue(c: Fraction) -> int | None:
    if c.denominator == 1:
        return c.numerator % PRIME
    if c.denominator % PRIME == 0:
        return None
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def _image_in(p: Poly, x: Atom) -> list[int] | None:
    """p with every atom but x set to the point: coefficients modulo PRIME
    in ascending powers of x, up to p's degree in x."""
    coeffs = [0] * (p.degree_in(x) + 1)
    for mono, c in p.terms.items():
        v = _residue(c)
        if v is None:
            return None
        e = 0
        for a, k in mono:
            if a is x:
                e = k
            else:
                v = v * pow(_atom_at_point(a), k, PRIME) % PRIME
        coeffs[e] = (coeffs[e] + v) % PRIME
    return coeffs


def _trim(f: list[int]) -> list[int]:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def gcd_mod_p(f: list[int], g: list[int]) -> list[int]:
    """A gcd of two polynomials over Z/PRIME given by ascending coefficient
    lists; [] when both are zero, so its length is the degree plus one."""
    f, g = _trim(f), _trim(g)
    while g:
        inv = pow(g[-1], -1, PRIME)
        while len(f) >= len(g):
            q = f[-1] * inv % PRIME
            shift = len(f) - len(g)
            for i, gc in enumerate(g):
                f[shift + i] = (f[shift + i] - q * gc) % PRIME
            f = _trim(f)
        f, g = g, f
    return f


def matrix_at_point(rows) -> list[list[int]] | None:
    """The values of a matrix of Expressions at the point, or None when an
    entry is undefined there."""
    out = []
    for row in rows:
        vals = [e.at_point() for e in row]
        if None in vals:
            return None
        out.append(vals)
    return out


def pivots_at_point(rows) -> dict[int, int] | None:
    """Eliminate the values of a matrix of Expressions at the point modulo
    PRIME row by row, as linsolve eliminates exactly: each row is reduced
    by the earlier pivot rows and takes its first nonzero column as pivot.
    Returns {column: row that took it}, or None when an entry is undefined
    at the point.  The pivot rows' values are independent, so the exact
    pivot rows are too: a minor nonzero at the point is exactly nonzero."""
    m = matrix_at_point(rows)
    if m is None:
        return None
    ncols = len(m[0]) if m else 0
    basis = {}   # pivot column -> reduced row, 1 there, 0 at other pivots
    pivots = {}
    for r, row in enumerate(m):
        if len(pivots) == ncols:
            break
        for c, prow in basis.items():
            f = row[c]
            if f:
                row = [(x - f * y) % PRIME for x, y in zip(row, prow)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        inv = pow(row[c], -1, PRIME)
        row = [x * inv % PRIME for x in row]
        for k, prow in basis.items():
            f = prow[c]
            if f:
                basis[k] = [(x - f * y) % PRIME for x, y in zip(prow, row)]
        basis[c] = row
        pivots[c] = r
    return pivots


def full_rank_at_point(rows) -> bool:
    """True only if the exact matrix of Expressions has full rank: its
    values at the point have full rank modulo PRIME."""
    pivots = pivots_at_point(rows)
    return pivots is not None and len(pivots) == min(
        len(rows), len(rows[0]) if rows else 0)


def _term_values(p: Poly) -> list[int] | None:
    """The value at the point of each term of p, in term order; None when
    a coefficient has no residue."""
    out = []
    for mono, c in p.terms.items():
        v = _residue(c)
        if v is None:
            return None
        for a, k in mono:
            v = v * pow(_atom_at_point(a), k, PRIME) % PRIME
        out.append(v)
    return out


def _image_from(p: Poly, values: list[int], x: Atom) -> list[int]:
    """p's image in x with x scaled by its own value v: the coefficient of
    x^e sums the values of the terms of degree e in x, and is v^e times
    _image_in's.  For v != 0, x -> v*x is a change of variable that keeps
    each image's degree and the degree of their gcd, so coprimality is
    decided alike; for v = 0 this rescans p with _image_in."""
    if not _atom_at_point(x):
        return _image_in(p, x)
    coeffs = [0] * (p.degree_in(x) + 1)
    for mono, v in zip(p.terms, values):
        e = next((k for a, k in mono if a is x), 0)
        coeffs[e] = (coeffs[e] + v) % PRIME
    return coeffs


def _eval_mod_p(f: list[int], t: int) -> int:
    v = 0
    for c in reversed(f):
        v = (v * t + c) % PRIME
    return v


def _coprime_at_point(a: Poly, b: Poly) -> bool:
    """True only if a and b, free of cos, have no common factor of positive
    degree.  Such a factor has positive degree in some atom x they share;
    when both images in x keep their degree in x, the factor's image keeps
    its degree too and divides both, so coprime images rule it out.  An
    image of degree 1 shares a factor with the other exactly when the other
    vanishes at its root."""
    atoms_a, atoms_b = a.atoms(), b.atoms()
    if any(atom.is_cos for atom in atoms_a | atoms_b):
        return False
    shared = atoms_a & atoms_b
    if not shared:
        return True
    values_a, values_b = _term_values(a), _term_values(b)
    if values_a is None or values_b is None:
        return False
    for x in shared:
        fa, fb = _image_from(a, values_a, x), _image_from(b, values_b, x)
        if not (fa[-1] and fb[-1]):
            return False
        if len(fb) == 2:
            fa, fb = fb, fa
        if len(fa) == 2:
            root = -fa[0] * pow(fa[1], -1, PRIME) % PRIME
            if not _eval_mod_p(fb, root):
                return False
        elif len(gcd_mod_p(fa, fb)) != 1:
            return False
    return True


class NotDivisible(ExprError):
    pass


class _GcdBudgetExceeded(Exception):
    # internal to poly_gcd; never escapes it
    pass


# Work allowance for one top-level poly_gcd call, in coefficient
# multiplications weighted by operand bit size. Mixed trig/function inputs
# can drive the primitive remainder sequence into coefficient blowup; past
# this budget we settle for the monomial common factor, which keeps
# fractions correct, just less reduced.
_GCD_BUDGET = 20_000
_gcd_budget_left = 0
_gcd_depth = 0


def _charge_gcd(units: int) -> None:
    global _gcd_budget_left
    if _gcd_depth:
        _gcd_budget_left -= units
        if _gcd_budget_left < 0:
            raise _GcdBudgetExceeded


def _coeff_weight(p: "Poly") -> int:
    # one sampled coefficient stands in for the operand's bignum size
    c = next(iter(p.terms.values()))
    return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 256


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division; raises NotDivisible when b does not divide a."""
    if b.is_zero:
        raise DivisionByZeroExpression("polynomial division by zero")
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
    # b's other terms, each with its degree less mb's
    tail = [(m, c, _mono_deg(m) - db) for m, c in b.terms.items() if m != mb]
    b_cos = b.has_cos()
    # the remainder, reduced in place: total degree -> {monomial: coeff}
    layers: dict[int, dict] = {}
    for m, c in a.terms.items():
        layers.setdefault(_mono_deg(m), {})[m] = c
    q: dict[Monomial, int | Fraction] = {}
    while any(layers.values()):
        top = max(d for d, layer in layers.items() if layer)
        mr = max(layers[top], key=_lex_key)
        cr = layers[top].pop(mr)
        _charge_gcd(len(b.terms) *
                    (1 + (cr.numerator.bit_length() +
                          cr.denominator.bit_length()) // 256))
        mq = _mono_div(mr, mb)
        if mq is None:
            raise NotDivisible
        q[mq] = cq = _qdiv(cr, cb)
        # r -= cq*mq*(b - cb*mb); cos^2 can only arise when both hold cos
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


def _canon_sign(p: Poly) -> Poly:
    """Scale to integer-primitive with positive leading coefficient."""
    if p.is_zero:
        return p
    c = p.rational_content()
    _, lead = p.leading()
    if lead < 0:
        c = -c
    return p.scale(_qdiv(1, c))


def _degrees(p: Poly) -> dict[Atom, int]:
    """Each atom of p with its highest exponent, in one pass over the terms."""
    out: dict[Atom, int] = {}
    for m in p.terms:
        for a, e in m:
            if e > out.get(a, -1):
                out[a] = e
    return out


def _pick_var(a: Poly, b: Poly) -> Atom | None:
    """A variable with positive degree in both, preferring low total degree."""
    da, db = _degrees(a), _degrees(b)
    return min(da.keys() & db.keys(), key=lambda x: (da[x] + db[x], x.key),
               default=None)


def _as_univar(p: Poly, x: Atom) -> dict[int, Poly]:
    out: dict[int, dict] = {}
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


def _from_univar(co: dict[int, Poly], x: Atom) -> Poly:
    raw = []
    for e, p in co.items():
        xm = ((x, e),) if e else _ONE_MONO
        for m, c in p.terms.items():
            raw.append((_mono_mul(m, xm), c))
    return Poly.make(raw)


def _fold_gcd(polys: Iterable[Poly]) -> Poly:
    g = _P_ZERO
    for p in polys:
        g = poly_gcd(g, p)
        if g == _P_ONE:
            return g
    return g


def _content_wrt(p: Poly, x: Atom) -> Poly:
    return _fold_gcd(_as_univar(p, x).values())


def _prem(a: Poly, b: Poly, x: Atom) -> Poly:
    """Pseudo-remainder of a by b with respect to x."""
    ua = _as_univar(a, x)
    ub = _as_univar(b, x)
    db = max(ub)
    lb = ub[db]
    r = ua
    guard = max(r) - db + 2 if r else 0
    while r and max(r) >= db and guard > 0:
        guard -= 1
        dr = max(r)
        lr = r[dr]
        # r <- lb*r - lr * x^(dr-db) * b
        new: dict[int, Poly] = {}
        wb = _coeff_weight(lb)
        for e, p in r.items():
            _charge_gcd(len(lb.terms) * len(p.terms) * (wb + _coeff_weight(p)))
            new[e] = lb * p
        wr = _coeff_weight(lr)
        for e, p in ub.items():
            _charge_gcd(len(lr.terms) * len(p.terms) * (wr + _coeff_weight(p)))
            t = lr * p
            e2 = e + dr - db
            new[e2] = new.get(e2, _P_ZERO) - t
        r = {e: p for e, p in new.items() if not p.is_zero}
    return _from_univar(r, x)


def _gcd_core(a: Poly, b: Poly) -> Poly:
    if a.is_zero:
        return _canon_sign(b)
    if b.is_zero:
        return _canon_sign(a)
    if a.terms == b.terms:
        return _canon_sign(a)
    x = _pick_var(a, b)
    if x is None:
        return _P_ONE
    ca = _content_wrt(a, x)
    cb = _content_wrt(b, x)
    d = _gcd_core(ca, cb)
    pa = _poly_divexact(a, ca)
    pb = _poly_divexact(b, cb)
    while True:
        _charge_gcd(1)
        da = pa.degree_in(x)
        db = pb.degree_in(x)
        if da < db:
            pa, pb = pb, pa
        r = _prem(pa, pb, x)
        if r.is_zero:
            prim = _poly_divexact(pb, _content_wrt(pb, x))
            return _canon_sign(d * prim)
        if r.degree_in(x) == 0:
            return _canon_sign(d)
        pa, pb = pb, _poly_divexact(r, _content_wrt(r, x))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """A common divisor, integer-primitive with positive leading coefficient.

    The monomial content is split off first.  A top-level call on cos-free
    input whose remaining parts are proved coprime by values at the point
    returns that monomial at once.  Otherwise the budgeted recursive gcd
    runs; when it exceeds its budget, or its result fails the division
    check, the common monomial factor is returned, which can leave a
    common factor of positive degree in the caller's fraction."""
    if a.is_zero:
        return _canon_sign(b)
    if b.is_zero:
        return _canon_sign(a)
    mono = _mono_gcd(a.monomial_content(), b.monomial_content())
    mono_poly = Poly({mono: 1})
    if len(a.terms) == 1 or len(b.terms) == 1:
        return mono_poly
    a1 = _poly_divexact(a, mono_poly) if mono else a
    b1 = _poly_divexact(b, mono_poly) if mono else b
    global _gcd_budget_left, _gcd_depth
    # nested calls share the top-level call's budget: skipping one would
    # leave more budget for later steps and could change which fall back
    if _gcd_depth == 0 and _coprime_at_point(a1, b1):
        return mono_poly
    if _gcd_depth == 0:
        _gcd_budget_left = _GCD_BUDGET
    _gcd_depth += 1
    try:
        g = _gcd_core(_canon_sign(a1), _canon_sign(b1))
        _poly_divexact(a1, g)
        _poly_divexact(b1, g)
    except (NotDivisible, _GcdBudgetExceeded):
        g = _P_ONE
    finally:
        _gcd_depth -= 1
    return g * mono_poly


class Expression:
    """Normalized fraction of two Polys (see the module docstring for what
    normalized guarantees).  Immutable; all arithmetic returns new
    normalized values."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero:
            raise DivisionByZeroExpression("denominator is zero")
        if num.is_zero:
            self.num = _P_ZERO
            self.den = _P_ONE
            return
        if den != _P_ONE:
            g = poly_gcd(num, den)
            if g != _P_ONE:
                try:
                    num2 = _poly_divexact(num, g)
                    den2 = _poly_divexact(den, g)
                    num, den = num2, den2
                except NotDivisible:
                    pass
        c = den.rational_content()
        _, lead = den.leading()
        if lead < 0:
            c = -c
        if c != 1:
            den = den.scale(_qdiv(1, c))
            num = num.scale(_qdiv(1, c))
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(n) -> "Expression":
        return Expression(Poly.const(n))

    @staticmethod
    def from_fraction(q) -> "Expression":
        return Expression(Poly.const(Fraction(q)))

    @staticmethod
    def from_atom(a: Atom) -> "Expression":
        return Expression(Poly.atom(a))

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == _P_ONE and self.den == _P_ONE

    def is_rational(self) -> bool:
        return self.den == _P_ONE and (self.num.is_zero or set(self.num.terms) == {_ONE_MONO})

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ExprError("not a rational constant")
        return Fraction(self.num.terms.get(_ONE_MONO, 0))

    # -- arithmetic ----------------------------------------------------
    @staticmethod
    def _coerce(v) -> "Expression":
        if isinstance(v, Expression):
            return v
        if isinstance(v, (int, Fraction)):
            return Expression.from_fraction(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to Expression")

    def __add__(self, other):
        other = Expression._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return Expression(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g == _P_ONE:
            return Expression(self.num * other.den + other.num * self.den,
                              self.den * other.den)
        db = _poly_divexact(other.den, g)
        da = _poly_divexact(self.den, g)
        return Expression(self.num * db + other.num * da, self.den * db)

    __radd__ = __add__

    def __neg__(self):
        e = object.__new__(Expression)
        e.num = -self.num
        e.den = self.den
        return e

    def __sub__(self, other):
        return self + (-Expression._coerce(other))

    def __rsub__(self, other):
        return Expression._coerce(other) + (-self)

    def __mul__(self, other):
        other = Expression._coerce(other)
        if self.is_zero or other.is_zero:
            return ZERO
        return Expression(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expression._coerce(other)
        if other.is_zero:
            raise DivisionByZeroExpression("division by zero expression")
        return Expression(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Expression._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("exponent must be an integer")
        if n == 0:
            return ONE
        if n < 0:
            if self.is_zero:
                raise DivisionByZeroExpression("zero to a negative power")
            return Expression(self.den ** (-n), self.num ** (-n))
        return Expression(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.from_fraction(other)
        if not isinstance(other, Expression):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        # a gcd past its budget, or the trig rewrite, can leave distinct
        # pairs for one value, so decide by cross-multiplication
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("Expression is not hashable; compare with ==")

    # -- calculus / evaluation ------------------------------------------
    def derivative(self, coord: str) -> "Expression":
        dn = self.num.derivative(coord)
        dd = self.den.derivative(coord)
        if dd.is_zero:
            return Expression(dn, self.den)
        return Expression(dn * self.den - self.num * dd, self.den * self.den)

    def eval(self, assignment: Mapping[Atom, Fraction]) -> Fraction:
        d = self.den.eval(assignment)
        if d == 0:
            raise PoleError("denominator evaluates to zero")
        return self.num.eval(assignment) / d

    def at_point(self) -> int | None:
        """Value at the fixed point modulo PRIME; None when it is undefined
        there."""
        n, d = self.num.at_point(), self.den.at_point()
        if n is None or not d:
            return None
        return n * pow(d, -1, PRIME) % PRIME

    def subst(self, mapping: Mapping[Atom, "Expression"]) -> "Expression":
        if not mapping:
            return self
        return _poly_subst(self.num, mapping) / _poly_subst(self.den, mapping)

    def atoms(self) -> set[Atom]:
        return self.num.atoms() | self.den.atoms()

    # -- printing --------------------------------------------------------
    def __str__(self):
        return format_expression(self)

    def __repr__(self):
        return f"Expression({format_expression(self)})"


ZERO = Expression.from_int(0)
ONE = Expression.from_int(1)


def _poly_subst(p: Poly, mapping: Mapping[Atom, Expression]) -> Expression:
    hit = any(a in mapping for a in p.atoms())
    if not hit:
        return Expression(p)
    total = ZERO
    for mono, coeff in p.terms.items():
        term = Expression.from_fraction(coeff)
        for a, e in mono:
            rep = mapping.get(a)
            if rep is None:
                rep = Expression.from_atom(a)
            term = term * rep ** e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# printing


def _term_str(mono: Monomial, coeff: Fraction) -> str:
    parts = []
    a = abs(coeff)
    if a != 1 or not mono:
        parts.append(str(a))
    for atom, e in mono:
        s = format_atom(atom)
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Integer-coefficient polynomial as a sum of canonical terms, largest
    monomial first."""
    if p.is_zero:
        return "0"
    items = sorted(p.terms.items(),
                   key=functools.cmp_to_key(lambda x, y: _mono_cmp(x[0], y[0])),
                   reverse=True)
    out = []
    for i, (m, c) in enumerate(items):
        t = _term_str(m, c)
        if i == 0:
            out.append("-" + t if c < 0 else t)
        else:
            out.append((" - " if c < 0 else " + ") + t)
    return "".join(out)


def _den_needs_parens(p: Poly) -> bool:
    if len(p.terms) > 1:
        return True
    (m, c), = p.terms.items()
    if abs(c) != 1:
        return True
    return len(m) != 1


def format_expression(e: Expression) -> str:
    if e.is_zero:
        return "0"
    # hoist rational denominators of the numerator into the printed denominator
    den_lcm = 1
    for c in e.num.terms.values():
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    num = e.num.scale(den_lcm) if den_lcm != 1 else e.num
    den = e.den.scale(den_lcm) if den_lcm != 1 else e.den
    if den == _P_ONE:
        return format_poly(num)
    multi = len(num.terms) > 1
    _, lead = num.leading()
    neg = multi and lead < 0
    if neg:
        num = -num
    ns = format_poly(num)
    if multi:
        ns = f"({ns})"
    ds = format_poly(den)
    if _den_needs_parens(den):
        ds = f"({ds})"
    return ("-" if neg else "") + f"{ns}/{ds}"
