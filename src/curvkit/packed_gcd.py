"""The budgeted exact gcd behind expr.poly_gcd, on packed monomials.

expr.poly_gcd imports this module on the first call that its shortcuts do
not settle.  Such a call fixes its atom set: the atoms of both operands,
and sin(x) for each cos(x), which the rewrite cos(x)^2 -> 1 - sin(x)^2
brings in.  A monomial is then one int (Monagan & Pearce 2007): one
exponent field per atom, in Atom.key order with the smallest key most
significant, under a total-degree field.  So int order is expr's graded
lexicographic order, a product of monomials is a sum, a quotient is a
difference whose guard bits (the top bit of each field) flag a negative
exponent, and the power of one atom is a shift and a mask.  A polynomial
is a dict {packed monomial: coefficient}, never changed once built.

The primitive remainder sequence is expr's former tuple-monomial one, loop
for loop: every dict is built in the same insertion order (_coeff_weight
samples the first coefficient), every _charge_gcd charges the same units,
and a nested gcd past the budget still falls back to its monomial content.
So every result and every overrun is the one the tuple code gave.  The
quotients of the top-level division check are the cofactors that
expr.poly_gcd hands on, so a reduced fraction is divided once.

Each time a gcd at any depth gives up, past the budget or after a failed
division check, it adds one to expr._gcd_give_ups, so that expr can tell a
fraction left loose from one in lowest terms.

divisor_gcd runs before gcd on cos-free operands: when one operand, its
own monomial content stripped, divides the other, that part is the gcd,
and the same division check gives gcd's cofactors without the remainder
sequence.
"""

from __future__ import annotations

import math

from . import expr
from .expr import (Atom, DivisionByZeroExpression, ExprError, Poly,
                   _GCD_BUDGET, _exact, _qdiv)


class NotDivisible(ExprError):
    pass


class _GcdBudgetExceeded(Exception):
    # internal to gcd; never escapes it
    pass


class _Widen(Exception):
    # an exponent field could overflow: gcd repacks with wider fields
    pass


# _GCD_BUDGET (expr) is the work allowance of one call of gcd or of
# divisor_gcd below; the nested gcds of gcd's remainder sequence share it.
_gcd_budget_left = 0
_gcd_depth = 0

# Bits per exponent field, its top bit the guard.  A product whose total
# degree could reach the guard bit doubles the width and starts again.
_WIDTH = 16


def _charge_gcd(units: int) -> None:
    global _gcd_budget_left
    if _gcd_depth:
        _gcd_budget_left -= units
        if _gcd_budget_left < 0:
            raise _GcdBudgetExceeded


def _coeff_weight(p: dict) -> int:
    # one sampled coefficient stands in for the operand's bignum size
    c = next(iter(p.values()))
    return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 256


class _Layout:
    """The exponent fields of one top-level call's atoms."""

    __slots__ = ("width", "fields", "unit", "fmask", "limit", "ds", "guards",
                 "cos_mask", "cos_hi", "cos_fields")

    def __init__(self, atoms: list[Atom], width: int):
        n = len(atoms)
        self.width = width
        self.fields = [(a, (n - 1 - i) * width) for i, a in enumerate(atoms)]
        self.fmask = (1 << width) - 1
        self.limit = 1 << (width - 1)
        self.ds = n * width
        # the monomial of one atom: its field and the degree field
        self.unit = {a: (1 << s) | (1 << self.ds) for a, s in self.fields}
        self.guards = sum(self.limit << s for _, s in self.fields)
        cos = [(a, s) for a, s in self.fields if a.is_cos]
        self.cos_mask = sum((self.limit - 1) << s for _, s in cos)
        self.cos_hi = sum((self.limit - 2) << s for _, s in cos)   # e >= 2
        self.cos_fields = [(s, self.unit[a], self.unit[Atom.sin(a.name)])
                           for a, s in cos]

    def pack(self, p: Poly) -> dict:
        unit, out = self.unit, {}
        for mono, c in p.terms.items():
            if any(e >= self.limit for _, e in mono):
                raise _Widen
            out[sum(e * unit[a] for a, e in mono)] = c
        return out

    def unpack(self, p: dict) -> Poly:
        fmask = self.fmask
        return Poly({tuple((a, e) for a, s in self.fields
                           if (e := m >> s & fmask)): c
                     for m, c in p.items()})


_lay: _Layout   # the layout of the running top-level call
_ONE = {0: 1}


def gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """A common divisor g of a and b, which have no common monomial factor,
    integer-primitive with positive leading coefficient, and the cofactors
    a/g and b/g.  When g is 1, the work budget runs out or g fails the
    division check, this is 1 with a and b themselves."""
    global _lay, _gcd_budget_left
    atoms = a.atoms() | b.atoms()
    atoms |= {Atom.sin(x.name) for x in atoms if x.is_cos}
    width = _WIDTH
    while True:
        _lay = _Layout(sorted(atoms), width)
        _gcd_budget_left = _GCD_BUDGET
        try:
            g, qa, qb = _checked_gcd(_lay.pack(a), _lay.pack(b))
        except _Widen:
            width *= 2
            continue
        if g == _ONE:
            # the caller's own operands: unpacked copies would double the
            # memory its fraction holds
            return _lay.unpack(g), a, b
        return _lay.unpack(g), _lay.unpack(qa), _lay.unpack(qb)


def divisor_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly] | None:
    """gcd's result when a or b, stripped of its own monomial content,
    divides the other operand.  a and b have no common monomial factor, so
    that part p is then their gcd: it is returned integer-primitive with
    positive leading coefficient, with a/p and b/p from the division check
    gcd makes, so the cofactors are the ones gcd gives when it completes.
    The checks are charged against the same budget.  None for cos input,
    when no part divides, past the budget, or when a quotient would have
    more terms than its dividend; gcd then runs with its whole budget."""
    global _lay, _gcd_budget_left, _gcd_depth
    atoms = a.atoms() | b.atoms()
    if any(x.is_cos for x in atoms):
        return None
    _lay = _Layout(sorted(atoms), _WIDTH)
    guards = _lay.guards
    _gcd_budget_left = _GCD_BUDGET
    _gcd_depth += 1
    try:
        pa, pb = _lay.pack(a), _lay.pack(b)
        for p, other in ((pa, pb), (pb, pa)):
            mono = _mono_content(p)
            part = _divexact(p, {mono: 1}) if mono else p
            # the leading and the trailing monomial of a product are the
            # products of its factors' own
            if (max(other) - max(part)) & guards or \
                    (min(other) - min(part)) & guards:
                continue
            g = _canon_sign(part)
            try:
                qa = _divexact(pa, g, len(pa))
                qb = _divexact(pb, g, len(pb))
            except NotDivisible:
                continue
            return _lay.unpack(g), _lay.unpack(qa), _lay.unpack(qb)
    except (_GcdBudgetExceeded, _Widen):
        pass
    finally:
        _gcd_depth -= 1
    return None


def _checked_gcd(a: dict, b: dict) -> tuple[dict, dict, dict]:
    """The remainder sequence's gcd g one level deeper with a/g and b/g,
    the quotients that check it; 1, a and b past the budget or when the
    check fails, a give-up that expr._gcd_give_ups counts."""
    global _gcd_depth
    _gcd_depth += 1
    try:
        g = _gcd_core(_canon_sign(a), _canon_sign(b))
        return g, _divexact(a, g), _divexact(b, g)
    except (NotDivisible, _GcdBudgetExceeded):
        expr._gcd_give_ups += 1
        return _ONE, a, b
    finally:
        _gcd_depth -= 1


def _nested_gcd(a: dict, b: dict) -> dict:
    """gcd inside a running call: the monomial content is split off, and a
    part past the budget or failing the division check gives that alone."""
    if not a:
        return _canon_sign(b)
    if not b:
        return _canon_sign(a)
    mono = _mono_content(a, b)
    mono_poly = {mono: 1}
    if len(a) == 1 or len(b) == 1:
        return mono_poly
    a1 = _divexact(a, mono_poly) if mono else a
    b1 = _divexact(b, mono_poly) if mono else b
    return _mul(_checked_gcd(a1, b1)[0], mono_poly)


def _gcd_core(a: dict, b: dict) -> dict:
    if not a:
        return _canon_sign(b)
    if not b:
        return _canon_sign(a)
    if a == b:
        return _canon_sign(a)
    x = _pick_var(a, b)
    if x is None:
        return _ONE
    ca = _content_wrt(a, x)
    cb = _content_wrt(b, x)
    d = _gcd_core(ca, cb)
    pa = _divexact(a, ca)
    pb = _divexact(b, cb)
    while True:
        _charge_gcd(1)
        if _degree_in(pa, x) < _degree_in(pb, x):
            pa, pb = pb, pa
        r = _prem(pa, pb, x)
        if not r:
            prim = _divexact(pb, _content_wrt(pb, x))
            return _canon_sign(_mul(d, prim))
        if _degree_in(r, x) == 0:
            return _canon_sign(d)
        pa, pb = pb, _divexact(r, _content_wrt(r, x))


# -- polynomial arithmetic on packed monomials ------------------------------

def _mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    lay = _lay
    if (max(a) >> lay.ds) + (max(b) >> lay.ds) >= lay.limit:
        raise _Widen
    cos = lay.cos_mask
    if cos and any(m & cos for m in a) and any(m & cos for m in b):
        return _reduced([(m1 + m2, c1 * c2) for m1, c1 in a.items()
                         for m2, c2 in b.items()])
    # no product can hold cos^2: merge in the order _reduced would, which
    # pops the products last first
    out = {}
    get = out.get
    pairs = tuple(reversed(b.items()))
    for m1, c1 in reversed(a.items()):
        for m2, c2 in pairs:
            m = m1 + m2
            c = get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    if any(type(c) is not int for p in (a, b) for c in p.values()):
        for m, c in out.items():
            out[m] = _exact(c)
    return out


def _reduced(stack: list) -> dict:
    """Merge the (monomial, coefficient) terms of stack, last first,
    applying cos(x)^2 -> 1 - sin(x)^2 until every cosine exponent is at
    most 1; the total degree never grows.  Empties stack."""
    lay = _lay
    hi, fmask = lay.cos_hi, lay.fmask
    out = {}
    while stack:
        mono, coeff = stack.pop()
        if not coeff:
            continue
        if not mono & hi:
            c = out.get(mono)
            c = coeff if c is None else c + coeff
            if c:
                out[mono] = _exact(c)
            elif mono in out:
                del out[mono]
            continue
        # the cosine of least key, as expr's monomials list it first
        for s, cos_unit, sin_unit in lay.cos_fields:
            e = mono >> s & fmask
            if e >= 2:
                break
        q, rem = divmod(e, 2)
        base = mono - (e - rem) * cos_unit
        for t in range(q + 1):
            c2 = coeff * math.comb(q, t) * (-1) ** t
            stack.append((base + 2 * t * sin_unit, c2))
    return out


def _canon_sign(p: dict) -> dict:
    """Scale to integer-primitive with positive leading coefficient."""
    if not p:
        return p
    ints = all(type(k) is int for k in p.values())
    c = math.gcd(*p.values()) if ints else Poly(p).rational_content()
    if p[max(p)] < 0:
        c = -c
    if c == 1:
        return p
    if ints:
        return {m: k // c for m, k in p.items()}
    c = _qdiv(1, c)
    return {m: _exact(k * c) for m, k in p.items()}


def _divexact(a: dict, b: dict, most: int | None = None) -> dict:
    """Exact division; raises NotDivisible when b does not divide a, or
    when the quotient would have more than most terms."""
    if not b:
        raise DivisionByZeroExpression("polynomial division by zero")
    if not a:
        return {}
    lay = _lay
    guards, ds = lay.guards, lay.ds
    if len(b) == 1:
        (mb, cb), = b.items()
        out = {}
        for m, c in a.items():
            mq = m - mb
            if mq & guards:
                raise NotDivisible
            out[mq] = _qdiv(c, cb)
        return out
    # every remainder term is below a's leading term, so no field of a
    # product below exceeds a's total degree
    if max(a) >> ds >= lay.limit:
        raise _Widen
    mb = max(b)
    cb = b[mb]
    tail = [(m, c) for m, c in b.items() if m != mb]
    cos = lay.cos_mask
    b_cos = any(m & cos for m in b)
    # the remainder, reduced in place: total degree -> {monomial: coeff}
    layers: dict[int, dict] = {}
    for m, c in a.items():
        layers.setdefault(m >> ds, {})[m] = c
    q = {}
    while any(layers.values()):
        top = layers[max(d for d, layer in layers.items() if layer)]
        mr = max(top)
        cr = top.pop(mr)
        _charge_gcd(len(b) * (1 + (cr.numerator.bit_length() +
                                   cr.denominator.bit_length()) // 256))
        mq = mr - mb
        if mq & guards or len(q) == most:
            raise NotDivisible
        q[mq] = cq = _qdiv(cr, cb)
        # r -= cq*mq*(b - cb*mb); cos^2 can only arise when both hold cos
        step = [(mq + m, -cq * c) for m, c in tail]
        if b_cos and mq & cos:
            step = _reduced(step).items()
        for m, c in step:
            layer = layers.setdefault(m >> ds, {})
            c2 = layer.get(m, 0) + c
            if c2:
                layer[m] = c2
            else:
                del layer[m]
    return q


# -- monomial contents and the split in one atom -----------------------------

def _ge_mask(g: int, m: int, lay: _Layout) -> int:
    """All bits of each field where g's exponent is at least m's; g and m
    without their degree fields."""
    # no field borrows, and its guard stays set where g >= m
    ge = ((g | lay.guards) - m & lay.guards) >> lay.width - 1
    return ge * lay.fmask


def _mono_content(*polys: dict) -> int:
    """The greatest monomial dividing every term of every poly."""
    lay = _lay
    low = (1 << lay.ds) - 1
    g = None
    for p in polys:
        for m in p:
            m &= low
            if g is None:
                g = m
            else:
                ge = _ge_mask(g, m, lay)
                g = (m & ge) | (g & ~ge)
            if not g:
                return 0
    fmask = lay.fmask
    return g | sum(g >> s & fmask for _, s in lay.fields) << lay.ds


def _degrees(p: dict, lay: _Layout) -> int:
    """The fieldwise maximum of p's monomials, without the degree field."""
    low = (1 << lay.ds) - 1
    g = 0
    for m in p:
        m &= low
        ge = _ge_mask(g, m, lay)
        g = (g & ge) | (m & ~ge)
    return g


def _pick_var(a: dict, b: dict) -> int | None:
    """The field of an atom with positive degree in both, preferring low
    total degree, then the least key."""
    lay = _lay
    da, db = _degrees(a, lay), _degrees(b, lay)
    fmask = lay.fmask
    best = best_deg = None
    for _, s in lay.fields:
        ea, eb = da >> s & fmask, db >> s & fmask
        if ea and eb and (best is None or ea + eb < best_deg):
            best, best_deg = s, ea + eb
    return best


def _degree_in(p: dict, s: int) -> int:
    fmask = _lay.fmask
    return max(m >> s & fmask for m in p)


def _as_univar(p: dict, s: int) -> dict[int, dict]:
    fmask = _lay.fmask
    unit = (1 << s) | (1 << _lay.ds)
    out: dict[int, dict] = {}
    for m, c in p.items():
        e = m >> s & fmask
        out.setdefault(e, {})[m - e * unit] = c
    return out


def _from_univar(co: dict[int, dict], s: int) -> dict:
    unit = (1 << s) | (1 << _lay.ds)
    return _reduced([(m + e * unit, c) for e, p in co.items()
                     for m, c in p.items()])


def _fold_gcd(polys) -> dict:
    g = {}
    for p in polys:
        g = _nested_gcd(g, p)
        if g == _ONE:
            return g
    return g


def _content_wrt(p: dict, s: int) -> dict:
    return _fold_gcd(_as_univar(p, s).values())


def _prem(a: dict, b: dict, s: int) -> dict:
    """Pseudo-remainder of a by b with respect to the atom of field s."""
    ua = _as_univar(a, s)
    ub = _as_univar(b, s)
    db = max(ub)
    lb = ub[db]
    r = ua
    guard = max(r) - db + 2 if r else 0
    while r and max(r) >= db and guard > 0:
        guard -= 1
        dr = max(r)
        lr = r[dr]
        # r <- lb*r - lr * x^(dr-db) * b
        new: dict[int, dict] = {}
        wb = _coeff_weight(lb)
        for e, p in r.items():
            _charge_gcd(len(lb) * len(p) * (wb + _coeff_weight(p)))
            new[e] = _mul(lb, p)
        wr = _coeff_weight(lr)
        for e, p in ub.items():
            _charge_gcd(len(lr) * len(p) * (wr + _coeff_weight(p)))
            t = _mul(lr, p)
            e2 = e + dr - db
            d = new.get(e2)
            if d is None:
                new[e2] = {m: -c for m, c in t.items()}
                continue
            # d is _mul's own dict: subtract in place, in Poly.__sub__'s order
            for m, c in t.items():
                c = d.get(m, 0) - c
                if c:
                    d[m] = _exact(c)
                else:
                    del d[m]
        r = {e: p for e, p in new.items() if p}
    return _from_univar(r, s)
