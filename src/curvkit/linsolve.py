"""Exact linear solving over the Expression fraction field.

Systems arrive as labelled equations  sum_u coeff_u * u = rhs.  A label is
the caller's index tuple of the component the equation was taken at, so
witness and pivot labels name components directly.  Elimination keeps a
reduced basis (each pivot appears in exactly one row, with coefficient 1);
pivots are chosen deterministically as the earliest unknown in the caller's
ordering whose coefficient is provably nonzero, so solution displays are
stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Expression, ONE, ZERO


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

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def substitute(self, values: dict) -> Expression:
        v = self.const
        for u, c in self.coeffs.items():
            v = v + c * values[u]
        return v


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


def solve_linear(equations, unknowns) -> SolveResult:
    unknowns = tuple(unknowns)
    order = {u: k for k, u in enumerate(unknowns)}
    basis: dict[str, _Row] = {}

    def fixed_so_far() -> dict:
        out = {u: ZERO for u in unknowns}
        for p, row in basis.items():
            out[p] = row.rhs
        return out

    for eq in equations:
        coeffs = {u: c for u, c in eq.coeffs.items() if not c.is_zero}
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
                               {p: r.label for p, r in basis.items()},
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

    free = tuple(u for u in unknowns if u not in basis)
    solution = {}
    for u in unknowns:
        if u in basis:
            row = basis[u]
            solution[u] = AffineForm(row.rhs,
                                     {f: -c for f, c in row.coeffs.items()})
        else:
            solution[u] = AffineForm(ZERO, {u: ONE})
    status = "unique" if not free else "underdetermined"
    return SolveResult(status, unknowns, solution, free,
                       {p: r.label for p, r in basis.items()})
