"""solve_linear against the plain Gauss-Jordan loop it puts a pre-pass in
front of: homogeneous components whose values at the point have full
column rank are settled at zero, and nothing else changes."""
import random

from hypothesis import given, settings, strategies as st

from curvkit import linsolve
from curvkit.expr import (Atom, Expression, ONE, ZERO, _atom_at_point,
                          format_expression)
from curvkit.linsolve import (AffineForm, LinearEquation, SolveResult,
                              solve_linear)

X = Expression.from_atom(Atom.coordinate("x"))
Y = Expression.from_atom(Atom.coordinate("y"))
A = Expression.from_atom(Atom.constant("a"))
c = Expression.from_int


def reference_solve(equations, unknowns) -> SolveResult:
    """The exact loop alone, as solve_linear was before the pre-pass."""
    unknowns = tuple(unknowns)
    order = {u: k for k, u in enumerate(unknowns)}
    basis = {}

    def fixed_so_far() -> dict:
        out = {u: ZERO for u in unknowns}
        for p, row in basis.items():
            out[p] = row.rhs
        return out

    for eq in equations:
        coeffs = {u: v for u, v in eq.coeffs.items() if not v.is_zero}
        rhs = eq.rhs
        for p in [p for p in basis if p in coeffs]:
            cp = coeffs.pop(p)
            row = basis[p]
            for u, bc in row.coeffs.items():
                nc = coeffs.get(u, ZERO) - cp * bc
                if nc.is_zero:
                    coeffs.pop(u, None)
                else:
                    coeffs[u] = nc
            rhs = rhs - cp * row.rhs
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
        basis[pivot] = linsolve._Row(ncoeffs, nrhs, eq.label)

    free = tuple(u for u in unknowns if u not in basis)
    solution = {}
    for u in unknowns:
        if u in basis:
            row = basis[u]
            solution[u] = AffineForm(row.rhs,
                                     {f: -v for f, v in row.coeffs.items()})
        else:
            solution[u] = AffineForm(ZERO, {u: ONE})
    status = "unique" if not free else "underdetermined"
    return SolveResult(status, unknowns, solution, free,
                       {p: r.label for p, r in basis.items()})


def printed(result: SolveResult):
    """Everything a caller can print or branch on, as text."""
    def forms(values):
        return None if values is None else [
            (u, format_expression(v)) for u, v in values.items()]

    return {
        "status": result.status,
        "free": result.free,
        "pivots": result.pivot_labels,
        "witness": (result.witness_label,
                    format_expression(result.witness_residual)),
        "solution": None if result.solution is None else [
            (u, format_expression(f.const), forms(f.coeffs))
            for u, f in result.solution.items()],
        "partial": forms(result.partial),
    }


# -- block-structured systems -------------------------------------------------

KINDS = ("full", "deficient", "rhs", "dependent", "inconsistent")


def small(rng: random.Random) -> Expression:
    """A small polynomial in x and a; zero now and then."""
    return (c(rng.randint(-3, 3)) + c(rng.randint(-2, 2)) * X
            + c(rng.randint(-2, 2)) * A)


def block(rng: random.Random, kind: str, names: list) -> list:
    """(coeffs, rhs) rows of one block over names."""
    k = len(names)
    if kind == "full":
        rows = [[small(rng) for _ in names]
                for _ in range(k + rng.randint(0, 1))]
        return [(row, ZERO) for row in rows]
    if kind == "deficient":
        # either fewer equations than unknowns, or a last column that is a
        # multiple of the first
        if rng.random() < 0.5:
            rows = [[small(rng) for _ in names] for _ in range(k - 1)]
        else:
            lam = small(rng)
            rows = [[small(rng) for _ in names[:-1]] for _ in range(k + 1)]
            rows = ([row + [lam * row[0]] for row in rows] if k > 1
                    else [[ZERO] for _ in rows])
        return [(row, ZERO) for row in rows]
    if kind == "rhs":
        return [([small(rng) for _ in names], small(rng) + ONE)
                for _ in range(rng.randint(1, k))]
    homogeneous = rng.random() < 0.5
    base = [([small(rng) for _ in names],
             ZERO if homogeneous else small(rng)) for _ in range(k)]
    l1, l2 = small(rng), small(rng)
    (r1, b1), (r2, b2) = base[0], base[-1]
    planted = ([l1 * u + l2 * v for u, v in zip(r1, r2)], l1 * b1 + l2 * b2)
    if kind == "inconsistent":
        planted = (planted[0], planted[1] + c(rng.randint(1, 3)))
    rows = base + [planted]
    rng.shuffle(rows)
    return rows


def system(kinds: list, rng: random.Random):
    """The blocks' equations in one shuffled order, and their unknowns in
    another."""
    equations, unknowns = [], []
    for b, kind in enumerate(kinds):
        names = [f"u{b}{j}" for j in range(rng.randint(1, 3))]
        unknowns += names
        for r, (row, rhs) in enumerate(block(rng, kind, names)):
            equations.append(LinearEquation(dict(zip(names, row)), rhs,
                                            (b, r)))
    rng.shuffle(equations)
    rng.shuffle(unknowns)
    return equations, unknowns


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_matches_the_exact_loop(kinds, rng):
    equations, unknowns = system(kinds, rng)
    assert printed(solve_linear(equations, unknowns)) == printed(
        reference_solve(equations, unknowns))


# -- what the values may and may not decide -----------------------------------

def loop_rows(monkeypatch) -> list:
    """Labels of the rows the exact loop builds, one per pivot it takes."""
    labels = []
    row = linsolve._Row

    def spy(coeffs, rhs, label):
        labels.append(label)
        return row(coeffs, rhs, label)

    monkeypatch.setattr(linsolve, "_Row", spy)
    return labels


def eq(label, rhs=ZERO, **coeffs):
    return LinearEquation(coeffs, rhs, label)


def test_generic_homogeneous_block_never_enters_the_loop(monkeypatch):
    labels = loop_rows(monkeypatch)
    equations = [eq((0,), u=X, v=ONE), eq((1,), w=ONE, z=c(2), rhs=c(3)),
                 eq((2,), u=ONE, v=A), eq((3,), u=X + A, v=Y)]
    result = solve_linear(equations, ("z", "w", "v", "u"))
    assert labels == [(1,)]
    assert result.status == "underdetermined" and result.free == ("w",)
    assert result.pivot_labels == {"v": (0,), "u": (2,), "z": (1,)}
    assert [result.solution[u].const for u in ("u", "v", "z")] == [
        ZERO, ZERO, c(3) / c(2)]
    assert printed(result) == printed(reference_solve(equations,
                                                      ("z", "w", "v", "u")))


def test_nonzero_rhs_is_never_settled(monkeypatch):
    labels = loop_rows(monkeypatch)
    equations = [eq((0,), u=X, v=ONE), eq((1,), u=ONE, v=A, rhs=Y)]
    result = solve_linear(equations, ("u", "v"))
    assert labels == [(0,), (1,)]
    assert result.status == "unique"
    u, v = (result.solution[n].const for n in ("u", "v"))
    assert not u.is_zero and X * u + v == ZERO and u + A * v == Y


def test_values_never_decide_a_zero(monkeypatch):
    """x - r vanishes at the point (r is x's own value there), so these
    blocks' values are rank deficient while their exact matrices have full
    rank: the loop decides them, and still finds only zero."""
    labels = loop_rows(monkeypatch)
    x_r = X - c(_atom_at_point(Atom.coordinate("x")))
    equations = [eq((0,), u=x_r + ONE, v=ONE), eq((1,), u=ONE, v=ONE),
                 eq((2,), w=x_r)]
    result = solve_linear(equations, ("u", "v", "w"))
    assert sorted(labels) == [(0,), (1,), (2,)]
    assert result.status == "unique"
    assert all(f.const.is_zero and not f.coeffs
               for f in result.solution.values())


def test_rank_deficient_block_is_not_settled(monkeypatch):
    labels = loop_rows(monkeypatch)
    # fewer equations than unknowns, and a dependent pair of columns
    equations = [eq((0,), u=X, v=ONE, w=A), eq((1,), u=ONE, v=Y, w=X),
                 eq((2,), p=X, q=X * A), eq((3,), p=ONE, q=A)]
    result = solve_linear(equations, ("u", "v", "w", "p", "q"))
    assert sorted(labels) == [(0,), (1,), (2,)]
    assert result.free == ("w", "q")


def test_inconsistent_system_names_the_pivots_fixed_before_it():
    equations = [eq((0,), u=X, v=ONE), eq((1,), w=ONE, rhs=ONE),
                 eq((2,), w=X, rhs=ONE), eq((3,), u=ONE, v=A)]
    result = solve_linear(equations, ("u", "v", "w"))
    assert result.status == "inconsistent" and result.witness_label == (2,)
    # u is settled by (0,) before the witness; v only by (3,) after it
    assert result.pivot_labels == {"u": (0,), "w": (1,)}
    assert printed(result) == printed(reference_solve(equations,
                                                      ("u", "v", "w")))
