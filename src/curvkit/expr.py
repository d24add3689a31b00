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

Each value records whether it is canonical: in lowest terms over Q[atoms]
(no gcd of its reduction gave up) and free of cos, so that its form is the
one form of its value.  Q[atoms] is a UFD, so for canonical a/b and c/d only
gcd(a, d) and gcd(c, b) can be nontrivial in a/b * c/d, and only gcd(t, g)
in a/b + c/d = t/(g*b'*d') with g = gcd(b, d), b = g*b', d = g*d' and
t = a*d' + c*b' (Henrici 1956); powers of a canonical value need no gcd.
Products, sums and powers of canonical values divide out only those gcds,
which give exactly the form the whole reduction gives when it completes.
Every other operand takes the whole reduction: one that holds cos, since
the quotient ring of the cos rewrite is not a UFD, and one left loose by a
gcd that gave up.  Quotients always take it.  Two canonical values are
equal exactly when their forms are; other pairs are compared exactly by
cross-multiplication.  is_zero (a zero numerator) is exact.
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
    Immutable by convention, as Expression is.  A subclass whose fields
    are not its slots names them as the class attribute _fields."""

    __slots__ = ()

    @property
    def _fields(self) -> tuple:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


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
        # copy, deepcopy and pickle rebuild the atom through __new__
        return Atom, (self.kind, self.name, self.sub, self.orders, self.args)

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
    """pivots_mod_p of the values of a matrix of Expressions at the point,
    or None when an entry is undefined there."""
    m = matrix_at_point(rows)
    return None if m is None else pivots_mod_p(m)


def pivots_mod_p(m) -> dict[int, int]:
    """Eliminate a matrix of residues modulo PRIME row by row, as linsolve
    eliminates exactly: each row is reduced by the earlier pivot rows and
    takes its first nonzero column as pivot.  Returns {column: row that
    took it}.  For the values of an exact matrix the pivot rows' values are
    independent, so the exact pivot rows are too: a minor nonzero at the
    point is exactly nonzero."""
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


def _degree_sums(p: Poly, powers: dict) -> tuple[dict, int | None] | None:
    """One pass over p's terms: for each atom x of p, the sums of the
    values of p's terms by their degree in x, and p's value.  The sums in
    x, less p's value at degree 0, are v^e times the coefficients of
    _image_in's image in x, where v is x's own value: for v != 0, x -> v*x
    is a change of variable that keeps each image's degree and the degree
    of their gcd, so coprimality is decided alike.  powers maps (atom, e)
    to its value.  None when p holds cos; when a coefficient has no
    residue, p's atoms map to None and so does the value."""
    sums = {}
    total = 0
    for mono, c in p.terms.items():
        v = _residue(c)
        if v is None:
            atoms = p.atoms()
            if any(x.is_cos for x in atoms):
                return None
            return dict.fromkeys(atoms), None
        for ae in mono:
            w = powers.get(ae)
            if w is None:
                w = powers[ae] = pow(_atom_at_point(ae[0]), ae[1], PRIME)
            v = v * w % PRIME
        total += v
        for a, e in mono:
            s = sums.get(a)
            if s is not None:
                s[e] = s.get(e, 0) + v
            elif a.is_cos:
                return None
            else:
                sums[a] = {e: v}
    return sums, total


def _image(s: dict, total: int) -> list[int]:
    """The image in x from p's degree sums s in x and p's value total."""
    f = [0] * (max(s) + 1)
    f[0] = (total - sum(s.values())) % PRIME
    for e, v in s.items():
        f[e] = v % PRIME
    return f


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
    powers = {}
    found_a = _degree_sums(a, powers)
    found_b = found_a and _degree_sums(b, powers)
    if found_b is None:   # a or b holds cos
        return False
    (sums_a, total_a), (sums_b, total_b) = found_a, found_b
    shared = sums_a.keys() & sums_b.keys()
    if not shared:
        return True
    if total_a is None or total_b is None:
        return False
    for x in shared:
        if _atom_at_point(x):
            fa, fb = _image(sums_a[x], total_a), _image(sums_b[x], total_b)
        else:   # x valued 0 is no change of variable: rescan
            fa, fb = _image_in(a, x), _image_in(b, x)
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


def _sign_content(p: Poly) -> int | Fraction:
    """The rational c for which p/c is integer-primitive with positive
    leading coefficient."""
    c = p.rational_content()
    _, lead = p.leading()
    return -c if lead < 0 else c


# Work allowance for one call of packed_gcd.gcd or of its divisor step, in
# coefficient multiplications weighted by operand bit size.
# Mixed trig/function inputs can drive its remainder sequence into
# coefficient blowup; past this budget poly_gcd settles for the monomial
# common factor, which keeps fractions correct, just less reduced.
_GCD_BUDGET = 20_000

# How many budgeted gcds have given up, past the budget or after a failed
# division check: packed_gcd bumps it, so a reduction that leaves it as it
# was divided out every common factor it looked for.
_gcd_give_ups = 0


def _proportional_gcd(a: Poly, b: Poly):
    """packed_gcd.gcd's result for parts equal up to a constant factor:
    a made integer-primitive with positive leading coefficient, in a's
    term order, and the constant cofactors its division checks find.  None
    for other parts, and for parts whose checks, charged term count times
    leading-coefficient weight, would overrun the budget."""
    ta, tb = a.terms, b.terms
    if len(ta) != len(tb):
        return None
    m0, ca0 = next(iter(ta.items()))
    cb0 = tb.get(m0)
    if cb0 is None:
        return None
    for m, ca in ta.items():
        cb = tb.get(m)
        if cb is None or ca * cb0 != cb * ca0:
            return None
    lead, la = a.leading()
    lb = tb[lead]
    weight = 2 + sum((c.numerator.bit_length() + c.denominator.bit_length())
                     // 256 for c in (la, lb))
    if len(ta) * weight > _GCD_BUDGET:
        return None
    g = a.scale(_qdiv(1, _sign_content(a)))
    lg = g.terms[lead]
    return (g, Poly({_ONE_MONO: _qdiv(la, lg)}),
            Poly({_ONE_MONO: _qdiv(lb, lg)}))


def poly_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """A common divisor g, integer-primitive with positive leading
    coefficient, with the cofactors a/g and b/g; all three are zero when
    a and b are.

    The monomial content is split off first.  A single-term part, or a
    top-level call on cos-free input whose parts are proved coprime by
    values at the point, gives that monomial, with the parts as the
    cofactors.  Parts equal up to a constant factor, such as r - 2*m and
    2*m - r, give what the budgeted gcd would, without loading it.
    Otherwise curvkit.packed_gcd runs its divisor step, then its budgeted
    recursive gcd, each handing back the quotients of its division check;
    when the gcd exceeds its budget, or its result fails that check, the
    common monomial factor is returned, which can leave a common factor
    of positive degree in the caller's fraction."""
    if a.is_zero or b.is_zero:
        p = b if a.is_zero else a
        if p.is_zero:
            return p, p, p
        c = _sign_content(p)
        g, q = p.scale(_qdiv(1, c)), Poly.const(c)
        return (g, a, q) if a.is_zero else (g, q, b)
    mono = _mono_gcd(a.monomial_content(), b.monomial_content())
    if mono:
        a = Poly({_mono_div(m, mono): c for m, c in a.terms.items()})
        b = Poly({_mono_div(m, mono): c for m, c in b.terms.items()})
    mono_poly = Poly({mono: 1})
    if len(a.terms) == 1 or len(b.terms) == 1 or _coprime_at_point(a, b):
        return mono_poly, a, b
    shared = _proportional_gcd(a, b)
    if shared is None:
        from . import packed_gcd
        shared = packed_gcd.divisor_gcd(a, b) or packed_gcd.gcd(a, b)
    g, a, b = shared
    return (g * mono_poly if mono else g), a, b


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """p and q divided by their gcd."""
    if q == _P_ONE:
        return p, q
    _, p, q = poly_gcd(p, q)
    return p, q


class Expression:
    """Normalized fraction of two Polys (see the module docstring for what
    normalized guarantees): numerator and denominator are poly_gcd's
    cofactors.  Immutable; all arithmetic returns new normalized values.

    _canonical records whether the value is canonical, in lowest terms
    over Q[atoms] and free of cos: False when a gcd of its reduction gave
    up, else None until is_canonical scans for cos."""

    __slots__ = ("num", "den", "_canonical")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero:
            raise DivisionByZeroExpression("denominator is zero")
        if num.is_zero:
            self.num = _P_ZERO
            self.den = _P_ONE
            self._canonical = True
            return
        canonical = None
        if den != _P_ONE:
            give_ups = _gcd_give_ups
            _, num, den = poly_gcd(num, den)
            if _gcd_give_ups != give_ups:
                canonical = False
        self._store(num, den, canonical)

    def _store(self, num: Poly, den: Poly, canonical: bool | None) -> None:
        """Set num/den, den scaled to integer-primitive with positive
        leading coefficient."""
        c = _sign_content(den)
        if c != 1:
            c = _qdiv(1, c)
            num, den = num.scale(c), den.scale(c)
        self.num = num
        self.den = den
        self._canonical = canonical

    @staticmethod
    def _reduced(num: Poly, den: Poly, give_ups: int) -> "Expression":
        """num/den, coprime unless a gcd has given up since give_ups was
        read: canonical exactly when none has, for cos-free parts."""
        e = object.__new__(Expression)
        e._store(num, den, _gcd_give_ups == give_ups)
        return e

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
    def is_canonical(self) -> bool:
        """In lowest terms over Q[atoms] and free of cos, so that the form
        of the value is unique.  The cos scan runs on first use."""
        c = self._canonical
        if c is None:
            c = self._canonical = not (self.num.has_cos() or
                                       self.den.has_cos())
        return c

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
        if not (self.is_canonical and other.is_canonical):
            _, da, db = poly_gcd(self.den, other.den)
            return Expression(self.num * db + other.num * da, self.den * db)
        # Henrici: a/b + c/d with b = g*b', d = g*d' is t/(g*b'*d') with
        # t = a*d' + c*b', and t is coprime to b' and d'
        give_ups = _gcd_give_ups
        g, db, dd = poly_gcd(self.den, other.den)
        t = self.num * dd + other.num * db
        if t.is_zero:
            return ZERO
        if g != _P_ONE:
            _, t, g = poly_gcd(t, g)
        return Expression._reduced(t, g * db * dd, give_ups)

    __radd__ = __add__

    def __neg__(self):
        e = object.__new__(Expression)
        e.num = -self.num
        e.den = self.den
        e._canonical = self._canonical
        return e

    def __sub__(self, other):
        return self + (-Expression._coerce(other))

    def __rsub__(self, other):
        return Expression._coerce(other) + (-self)

    def __mul__(self, other):
        other = Expression._coerce(other)
        if self.is_zero or other.is_zero:
            return ZERO
        if not (self.is_canonical and other.is_canonical):
            return Expression(self.num * other.num, self.den * other.den)
        # Henrici: in lowest terms a/b * c/d can only cancel a with d and
        # c with b
        give_ups = _gcd_give_ups
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return Expression._reduced(a * c, b * d, give_ups)

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
            num, den = self.den ** -n, self.num ** -n
        elif self.is_zero:
            return ZERO
        else:
            num, den = self.num ** n, self.den ** n
        if self.is_canonical:
            # powers of coprime parts are coprime
            return Expression._reduced(num, den, _gcd_give_ups)
        return Expression(num, den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.from_fraction(other)
        if not isinstance(other, Expression):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        if self.is_canonical and other.is_canonical:
            return False   # each has the one form of its value
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


def format_value(v) -> str:
    """An Expression, or a covector (a tuple of them) as {v1, v2, ...}, a
    matrix (a tuple of rows) as {{v11, v12, ...}, {v21, ...}, ...}."""
    if type(v) is tuple:
        return "{" + ", ".join(map(format_value, v)) + "}"
    return format_expression(v)
