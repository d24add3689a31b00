"""Exact linear solving over the Expression fraction field.

Systems arrive as labelled equations  sum_u coeff_u * u = rhs,  read once,
in the caller's order, from any iterable.  A label is the caller's index
tuple of the component the equation was taken at, so witness and pivot
labels name components directly.

Equations fall into connected components: two equations are in one
component when a chain of shared unknowns links them.  Elimination never
mixes components, so each can be decided on its own.  The rows of a
component are held while all of its rhs are zero.  It turns live at its
first nonzero rhs, or when a row joins it to a live component; its held
rows then enter the Gauss-Jordan loop, in the caller's order, ahead of the
row that turned it.  The loop keeps a basis whose rows are reduced when
read: each pivot appears, with coefficient 1, in its own row and in no
row read since it was taken.  A new pivot row is logged with its
coefficients and rhs as taken, and an earlier row eliminates the logged
pivots, in order, only when a later row is reduced by it, when a
consistent solve builds its solution, or when an inconsistent result's
partial values are first read; every form is still the one eager
back-substitution gives, from the same operations in the same order, and
a failing solve never reduces a row it does not read.  The loop returns at
the first inconsistent equation, so no equation past the witness is read.
Pivots are chosen deterministically as the earliest unknown in the
caller's ordering whose coefficient is provably nonzero, and each row is
reduced by the pivots in the order of their pivot rows, so solution
displays are stable and each solved form is the one the loop gives on the
whole list.

A component still held at the end, or at the witness, is settled from its
coefficients' values at the point, eliminated as the loop eliminates.  At
the end, values of full column rank leave only the zero solution (a minor
nonzero at the point is exactly nonzero), so its unknowns are 0 with no
exact arithmetic, each labelled by the equation that took it as pivot;
otherwise its rows go through the loop.  At the witness the value pivots
name the equations that fixed those unknowns before it.

The metric inverse (tensor.Metric), matrix_rank and the quasi-Einstein
root of operators.ricci_decompose (value pivots, else one solve in
(alpha^2, alpha)) are solves of this one loop too; there is no second
exact elimination.
"""

from __future__ import annotations

from collections.abc import Callable

from .expr import (Expression, ONE, Record, ZERO, full_rank_at_point,
                   pivots_at_point)


class LinearEquation(Record):
    __slots__ = ("coeffs", "rhs", "label")

    def __init__(self, coeffs: dict, rhs: Expression, label: tuple = ()):
        self.coeffs = coeffs   # unknown name -> Expression
        self.rhs = rhs
        self.label = label     # the caller's index tuple


class AffineForm(Record):
    """const + sum over free unknowns of coeff * unknown."""
    __slots__ = ("const", "coeffs")

    def __init__(self, const: Expression, coeffs: dict | None = None):
        self.const = const
        self.coeffs = {} if coeffs is None else coeffs


class _PartialBuilder(Record):
    # holds the function that builds SolveResult.partial on its first read,
    # outside the fields SolveResult compares and shows
    __slots__ = ("_build_partial",)


class SolveResult(_PartialBuilder):
    __slots__ = ("status", "unknowns", "solution", "free", "pivot_labels",
                 "witness_label", "witness_residual", "partial")

    def __init__(self, status: str, unknowns: tuple[str, ...],
                 solution: dict | None, free: tuple[str, ...],
                 pivot_labels: dict, witness_label: tuple = (),
                 witness_residual: Expression = ZERO,
                 partial: dict | Callable[[], dict] | None = None):
        self.status = status   # unique | underdetermined | inconsistent
        self.unknowns = unknowns
        # unknown -> AffineForm (None if inconsistent)
        self.solution = solution
        self.free = free
        # pivot unknown -> index tuple that fixed it
        self.pivot_labels = pivot_labels
        # index tuple of the inconsistent equation
        self.witness_label = witness_label
        self.witness_residual = witness_residual
        # best-effort particular values on failure: a dict, or a function
        # that builds it when partial is first read
        if callable(partial):
            self._build_partial = partial
        else:
            self.partial = partial

    def __getattr__(self, name):
        # reached only while a slot is unset: partial, before its first read
        if name != "partial":
            raise AttributeError(name)
        self.partial = self._build_partial()
        return self.partial

    @property
    def consistent(self) -> bool:
        return self.status != "inconsistent"

    def particular(self) -> dict:
        """One concrete solution: every free unknown set to 0."""
        if self.solution is None:
            raise ValueError("no solution to specialize")
        return {u: f.const for u, f in self.solution.items()}


class _Row:
    __slots__ = ("coeffs", "rhs", "label", "seen")

    def __init__(self, coeffs: dict, rhs: Expression, label: tuple):
        self.coeffs = coeffs   # excludes the pivot itself (implicit 1)
        self.rhs = rhs
        self.label = label
        self.seen = 0          # log entries already eliminated from it


def solve_linear(equations, unknowns) -> SolveResult:
    unknowns = tuple(unknowns)
    order = {u: k for k, u in enumerate(unknowns)}
    rows = []                        # (coeffs without zeros, equation)
    basis: dict[str, _Row] = {}
    log = []                         # (pivot, its row's coeffs and rhs)
    fixed = {}                       # unknown -> position of its pivot row
    parent = {}                      # union-find over unknowns
    held = {}                        # root -> positions; None once live

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def catch_up(row):
        """Eliminate from row, in order, the pivots logged since it was
        last read; each read tests row.seen < len(log) first."""
        coeffs = row.coeffs
        for k in range(row.seen, len(log)):
            pivot, ncoeffs, nrhs = log[k]
            c2 = coeffs.pop(pivot, None)
            if c2 is None or c2.is_zero:
                continue
            for u, bc in ncoeffs.items():
                nc = coeffs.get(u, ZERO) - c2 * bc
                if nc.is_zero:
                    coeffs.pop(u, None)
                else:
                    coeffs[u] = nc
            row.rhs = row.rhs - c2 * nrhs
        row.seen = len(log)

    def step(k):
        """Gauss-Jordan on row k: the residual if it is inconsistent."""
        coeffs, eq = rows[k]
        rhs = eq.rhs
        for p in sorted((p for p in coeffs if p in basis), key=fixed.get):
            c = coeffs.pop(p)
            row = basis[p]
            if row.seen < len(log):
                catch_up(row)
            for u, bc in row.coeffs.items():
                nc = coeffs.get(u, ZERO) - c * bc
                if nc.is_zero:
                    coeffs.pop(u, None)
                else:
                    coeffs[u] = nc
            rhs = rhs - c * row.rhs
        if not coeffs:
            return None if rhs.is_zero else rhs
        pivot = min(coeffs, key=order.get)
        pc = coeffs.pop(pivot)
        ncoeffs = {u: v / pc for u, v in coeffs.items()}
        nrhs = rhs / pc
        if basis:
            # a snapshot: catch_up changes the row's own dict
            log.append((pivot, dict(ncoeffs), nrhs))
        row = basis[pivot] = _Row(ncoeffs, nrhs, eq.label)
        row.seen = len(log)
        fixed[pivot] = k

    def settle(positions, complete):
        """Fix a held component by its values' pivots: when complete, only
        if they have full column rank, else its rows go through the loop."""
        positions.sort()
        cols = sorted({u for k in positions for u in rows[k][0]},
                      key=order.get)
        pivots = pivots_at_point([[rows[k][0].get(u, ZERO) for u in cols]
                                  for k in positions])
        if pivots is None or complete and len(pivots) < len(cols):
            for k in positions:
                step(k)
        else:
            fixed.update((cols[c], positions[r]) for c, r in pivots.items())

    def labels() -> dict:
        return {u: rows[k][1].label for u, k in fixed.items()}

    def partial() -> dict:
        for row in basis.values():
            if row.seen < len(log):
                catch_up(row)
        return {u: basis[u].rhs if u in basis else ZERO for u in unknowns}

    for eq in equations:
        k = len(rows)
        coeffs = {u: c for u, c in eq.coeffs.items() if not c.is_zero}
        rows.append((coeffs, eq))
        roots = {find(parent.setdefault(u, u)) for u in coeffs}
        live, waiting = not eq.rhs.is_zero, []
        for r in roots:
            positions = held.pop(r, [])
            live = live or positions is None
            waiting += positions or ()
        if roots:
            root = roots.pop()
            for r in roots:
                parent[r] = root
            held[root] = None if live else waiting + [k]
        if not live:
            continue
        for j in sorted(waiting) + [k]:
            residual = step(j)
            if residual is not None:
                for positions in held.values():
                    if positions:
                        settle(positions, False)
                return SolveResult(
                    "inconsistent", unknowns, None, (), labels(),
                    witness_label=eq.label, witness_residual=residual,
                    partial=partial)
    for positions in held.values():
        if positions:
            settle(positions, True)

    free = tuple(u for u in unknowns if u not in fixed)
    solution = {}
    for u in unknowns:
        if u in basis:
            row = basis[u]
            if row.seen < len(log):
                catch_up(row)
            solution[u] = AffineForm(row.rhs,
                                     {f: -c for f, c in row.coeffs.items()})
        elif u in fixed:
            solution[u] = AffineForm(ZERO)
        else:
            solution[u] = AffineForm(ZERO, {u: ONE})
    status = "unique" if not free else "underdetermined"
    return SolveResult(status, unknowns, solution, free, labels())


def matrix_rank(rows) -> int:
    """Rank of a matrix of Expressions: full when its values at the point
    have full rank, else the pivot count of the rows solved as homogeneous
    equations in one unknown per column."""
    if not rows:
        return 0
    ncols = len(rows[0])
    if full_rank_at_point(rows):
        return min(len(rows), ncols)
    equations = [LinearEquation(dict(enumerate(row)), ZERO, (r,))
                 for r, row in enumerate(rows)]
    return len(solve_linear(equations, range(ncols)).pivot_labels)
