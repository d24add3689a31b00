"""solve_linear with eager back-substitution, as it was before basis rows
were reduced when read: each new pivot is eliminated from every earlier
basis row at once.  The tests hold the deferred solver to it, field by
field and gcd call by gcd call."""

from curvkit.expr import ONE, ZERO, pivots_at_point
from curvkit.linsolve import AffineForm, SolveResult


class _Row:
    __slots__ = ("coeffs", "rhs", "label")

    def __init__(self, coeffs, rhs, label):
        self.coeffs = coeffs   # excludes the pivot itself (implicit 1)
        self.rhs = rhs
        self.label = label


def eager_solve(equations, unknowns) -> SolveResult:
    unknowns = tuple(unknowns)
    order = {u: k for k, u in enumerate(unknowns)}
    rows = []                        # (coeffs without zeros, equation)
    basis: dict[str, _Row] = {}
    fixed = {}                       # unknown -> position of its pivot row
    parent = {}                      # union-find over unknowns
    held = {}                        # root -> positions; None once live

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def step(k):
        """Gauss-Jordan on row k: the residual if it is inconsistent."""
        coeffs, eq = rows[k]
        rhs = eq.rhs
        for p in sorted((p for p in coeffs if p in basis), key=fixed.get):
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
            return None if rhs.is_zero else rhs
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
                    partial={u: basis[u].rhs if u in basis else ZERO
                             for u in unknowns})
    for positions in held.values():
        if positions:
            settle(positions, True)

    free = tuple(u for u in unknowns if u not in fixed)
    solution = {}
    for u in unknowns:
        if u in basis:
            row = basis[u]
            solution[u] = AffineForm(row.rhs,
                                     {f: -c for f, c in row.coeffs.items()})
        elif u in fixed:
            solution[u] = AffineForm(ZERO)
        else:
            solution[u] = AffineForm(ZERO, {u: ONE})
    status = "unique" if not free else "underdetermined"
    return SolveResult(status, unknowns, solution, free, labels())

