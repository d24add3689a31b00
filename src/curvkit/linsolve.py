"""Exact linear solving over the Expression fraction field.

Systems arrive as labelled equations  sum_u coeff_u * u = rhs.  A label is
the caller's index tuple of the component the equation was taken at, so
witness and pivot labels name components directly.

Equations fall into connected components: two equations are in one
component when a chain of shared unknowns links them.  Elimination never
mixes components, so each can be decided on its own.  A component whose
rhs are all zero and whose coefficients' values at the point have full
column rank has only the zero solution (a minor nonzero at the point is
exactly nonzero), so its unknowns are settled at 0 with no exact
arithmetic.  Each is labelled by the equation that took it as pivot in the
elimination of those values, which follows the exact elimination's rule.

Every other equation goes, in the caller's order, through one Gauss-Jordan
loop that keeps a reduced basis (each pivot appears in exactly one row,
with coefficient 1).  Pivots are chosen deterministically as the earliest
unknown in the caller's ordering whose coefficient is provably nonzero, so
solution displays are stable across runs.  Settling a component removes
only equations the loop would have kept apart, so every other step, solved
form and witness is the one the loop gives on the whole system, and a
settled unknown is the 0 it would give.

The metric inverse (tensor.Metric) and matrix_rank are solves of this one
loop too; there is no second exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import (Expression, ONE, ZERO, full_rank_at_point,
                   pivots_at_point)


@dataclass(frozen=True)
class LinearEquation:
    coeffs: dict          # unknown name -> Expression
    rhs: Expression
    label: tuple = ()     # the caller's index tuple


@dataclass(frozen=True)
class AffineForm:
    """const + sum over free unknowns of coeff * unknown."""
    const: Expression
    coeffs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolveResult:
    status: str                       # unique | underdetermined | inconsistent
    unknowns: tuple[str, ...]
    solution: dict | None             # unknown -> AffineForm (None if inconsistent)
    free: tuple[str, ...]
    pivot_labels: dict                # pivot unknown -> index tuple that fixed it
    witness_label: tuple = ()         # index tuple of the inconsistent equation
    witness_residual: Expression = ZERO
    partial: dict | None = None       # best-effort particular values on failure

    @property
    def consistent(self) -> bool:
        return self.status != "inconsistent"

    def particular(self) -> dict:
        """One concrete solution: every free unknown set to 0."""
        if self.solution is None:
            raise ValueError("no solution to specialize")
        return {u: f.const for u, f in self.solution.items()}


class _Row:
    __slots__ = ("coeffs", "rhs", "label")

    def __init__(self, coeffs: dict, rhs: Expression, label: tuple):
        self.coeffs = coeffs   # excludes the pivot itself (implicit 1)
        self.rhs = rhs
        self.label = label


def _settled(rows, order) -> dict:
    """{unknown: position of its value-pivot equation} for the unknowns of
    every homogeneous component whose values at the point have full column
    rank.  rows are (coeffs without zeros, equation) pairs."""
    parent = {}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for coeffs, _ in rows:
        first = None
        for u in coeffs:
            parent.setdefault(u, u)
            if first is None:
                first = find(u)
            else:
                parent[find(u)] = first
    components = {}
    for k, (coeffs, _) in enumerate(rows):
        if coeffs:
            components.setdefault(find(next(iter(coeffs))), []).append(k)

    settled = {}
    for positions in components.values():
        if any(not rows[k][1].rhs.is_zero for k in positions):
            continue
        cols = sorted({u for k in positions for u in rows[k][0]},
                      key=order.get)
        pivots = pivots_at_point([[rows[k][0].get(u, ZERO) for u in cols]
                                  for k in positions])
        if pivots is not None and len(pivots) == len(cols):
            settled.update((cols[c], positions[r])
                           for c, r in pivots.items())
    return settled


def solve_linear(equations, unknowns) -> SolveResult:
    unknowns = tuple(unknowns)
    order = {u: k for k, u in enumerate(unknowns)}
    rows = [({u: c for u, c in eq.coeffs.items() if not c.is_zero}, eq)
            for eq in equations]
    settled = _settled(rows, order)
    basis: dict[str, _Row] = {}

    def labels_before(position) -> dict:
        out = {u: rows[k][1].label
               for u, k in settled.items() if k < position}
        out.update((p, r.label) for p, r in basis.items())
        return out

    def fixed_so_far() -> dict:
        out = {u: ZERO for u in unknowns}
        for p, row in basis.items():
            out[p] = row.rhs
        return out

    for position, (coeffs, eq) in enumerate(rows):
        if coeffs and next(iter(coeffs)) in settled:
            continue
        rhs = eq.rhs
        for p in [p for p in basis if p in coeffs]:
            c = coeffs.pop(p)
            row = basis[p]
            for u, bc in row.coeffs.items():
                nc = coeffs.get(u, ZERO) - c * bc
                if nc.is_zero:
                    coeffs.pop(u, None)
                else:
                    coeffs[u] = nc
            rhs = rhs - c * row.rhs
        if not coeffs:
            if rhs.is_zero:
                continue
            return SolveResult("inconsistent", unknowns, None, (),
                               labels_before(position),
                               witness_label=eq.label, witness_residual=rhs,
                               partial=fixed_so_far())
        pivot = min(coeffs, key=order.get)
        pc = coeffs.pop(pivot)
        ncoeffs = {u: v / pc for u, v in coeffs.items()}
        nrhs = rhs / pc
        for row in basis.values():
            c2 = row.coeffs.pop(pivot, None)
            if c2 is None or c2.is_zero:
                continue
            for u, bc in ncoeffs.items():
                nc = row.coeffs.get(u, ZERO) - c2 * bc
                if nc.is_zero:
                    row.coeffs.pop(u, None)
                else:
                    row.coeffs[u] = nc
            row.rhs = row.rhs - c2 * nrhs
        basis[pivot] = _Row(ncoeffs, nrhs, eq.label)

    free = tuple(u for u in unknowns
                 if u not in basis and u not in settled)
    solution = {}
    for u in unknowns:
        if u in basis:
            row = basis[u]
            solution[u] = AffineForm(row.rhs,
                                     {f: -c for f, c in row.coeffs.items()})
        elif u in settled:
            solution[u] = AffineForm(ZERO)
        else:
            solution[u] = AffineForm(ZERO, {u: ONE})
    status = "unique" if not free else "underdetermined"
    return SolveResult(status, unknowns, solution, free,
                       labels_before(len(rows)))


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
