"""solve_linear against the plain Gauss-Jordan loop, the batch solver it
replaces and its own eager back-substitution.  It reads its equations in
one pass, holds the rows of a component while all of them are homogeneous,
and settles a component that stays homogeneous at zero when its values at
the point have full column rank; the result is the batch solver's, field
by field, and an inconsistent system is read no further than its witness.
A basis row is reduced by later pivots only when read, so a failing solve
never reduces a row that its witness does not read."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from curvkit import expr, linsolve
from curvkit.expr import (Atom, Expression, ONE, ZERO, _atom_at_point,
                          format_expression, pivots_at_point)
from curvkit.linsolve import (AffineForm, LinearEquation, SolveResult,
                              solve_linear)
from eager_linsolve import eager_solve

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


def _batch_settled(rows, order) -> dict:
    """The batch solver's pre-pass: {unknown: position of its value-pivot
    equation} for the unknowns of every homogeneous component, over the
    whole system, whose values at the point have full column rank."""
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


def batch_solve(equations, unknowns) -> SolveResult:
    """solve_linear as it was before it read its equations in one pass: the
    pre-pass over the whole list, then the loop in list order."""
    unknowns = tuple(unknowns)
    order = {u: k for k, u in enumerate(unknowns)}
    rows = [({u: c for u, c in eq.coeffs.items() if not c.is_zero}, eq)
            for eq in equations]
    settled = _batch_settled(rows, order)
    basis = {}

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
        basis[pivot] = linsolve._Row(ncoeffs, nrhs, eq.label)

    free = tuple(u for u in unknowns
                 if u not in basis and u not in settled)
    solution = {}
    for u in unknowns:
        if u in basis:
            row = basis[u]
            solution[u] = AffineForm(row.rhs,
                                     {f: -v for f, v in row.coeffs.items()})
        elif u in settled:
            solution[u] = AffineForm(ZERO)
        else:
            solution[u] = AffineForm(ZERO, {u: ONE})
    status = "unique" if not free else "underdetermined"
    return SolveResult(status, unknowns, solution, free,
                       labels_before(len(rows)))


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


def copied(equations) -> list:
    """Fresh equations with the same fields: each solver may keep what it
    builds from one."""
    return [LinearEquation(dict(e.coeffs), e.rhs, e.label)
            for e in equations]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_one_pass_matches_the_batch_solver(kinds, rng):
    equations, unknowns = system(kinds, rng)
    got = solve_linear((e for e in copied(equations)), unknowns)
    assert printed(got) == printed(batch_solve(copied(equations), unknowns))


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


# -- one pass: held components, reduction order, the witness -----------------

def test_held_block_merging_with_a_live_one_reduces_in_position_order():
    """v's homogeneous row (0,) is held until (2,) links it to the live
    block of u, so its pivot row is built after u's.  (2,) is still reduced
    by v's row first, as the batch solver does, so its free unknowns keep
    the batch order: fv before fu in z's solved form."""
    equations = [eq((0,), v=ONE, fv=X), eq((1,), u=ONE, fu=A, rhs=ONE),
                 eq((2,), z=ONE, v=Y, u=X)]
    unknowns = ("z", "u", "v", "fu", "fv")
    got = solve_linear(iter(copied(equations)), unknowns)
    want = batch_solve(copied(equations), unknowns)
    assert printed(got) == printed(want)
    assert list(got.solution["z"].coeffs) == ["fv", "fu"]
    assert got.pivot_labels == {"v": (0,), "u": (1,), "z": (2,)}


def test_held_blocks_merge_before_they_turn_live():
    """Two held blocks join through a homogeneous row and stay held; a
    nonzero rhs then sends all three held rows through the loop, in
    position order, ahead of the row that turned them live."""
    equations = [eq((0,), a=ONE, fa=X), eq((1,), b=ONE, fb=A),
                 eq((2,), a=Y, b=ONE, c=ONE, fc=ONE),
                 eq((3,), c=X, fa=ONE, fb=Y, rhs=A),
                 eq((4,), d=ONE, fd=ONE)]
    unknowns = ("c", "a", "b", "d", "fa", "fb", "fc", "fd")
    got = solve_linear(iter(copied(equations)), unknowns)
    assert printed(got) == printed(batch_solve(copied(equations), unknowns))
    assert got.status == "underdetermined"


def test_an_undecided_held_block_goes_through_the_loop_at_the_end(
        monkeypatch):
    labels = loop_rows(monkeypatch)
    equations = [eq((0,), u=X, v=ONE), eq((1,), w=ONE, rhs=c(2)),
                 eq((2,), u=X * A, v=A)]
    got = solve_linear(iter(copied(equations)), ("u", "v", "w"))
    assert labels == [(1,), (0,)]
    assert printed(got) == printed(
        batch_solve(copied(equations), ("u", "v", "w")))
    assert got.free == ("v",)


def counted(equations, pulled: list):
    for e in equations:
        pulled.append(e.label)
        yield e


def test_inconsistent_system_is_read_no_further_than_its_witness():
    equations = [eq((0,), u=X, v=ONE), eq((1,), w=ONE, rhs=ONE),
                 eq((2,), w=X, rhs=ONE), eq((3,), u=ONE, v=A),
                 eq((4,), v=ONE, rhs=Y)]
    pulled = []
    got = solve_linear(counted(copied(equations), pulled), ("u", "v", "w"))
    assert got.witness_label == (2,)
    assert pulled == [(0,), (1,), (2,)]
    assert printed(got) == printed(
        batch_solve(copied(equations), ("u", "v", "w")))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_no_equation_is_pulled_after_the_witness(kinds, rng):
    equations, unknowns = system(kinds, rng)
    pulled = []
    got = solve_linear(counted(equations, pulled), unknowns)
    if got.consistent:
        assert len(pulled) == len(equations)
    else:
        assert pulled[-1] == got.witness_label


# -- back-substitution deferred until a row is read ---------------------------

def gcd_calls(monkeypatch) -> list:
    """The operands of every poly_gcd call, as term lists."""
    calls = []
    gcd = expr.poly_gcd

    def spy(a, b):
        calls.append((tuple(a.terms.items()), tuple(b.terms.items())))
        return gcd(a, b)

    monkeypatch.setattr(expr, "poly_gcd", spy)
    return calls


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_deferred_rows_match_eager_back_substitution(kinds, rng):
    """Every printed field, partial read last, is the eager solver's; once
    every row is read, the gcds are the eager solver's too, on the same
    operands, so every row took the same operations."""
    equations, unknowns = system(kinds, rng)
    with pytest.MonkeyPatch.context() as mp:
        calls = gcd_calls(mp)
        got = printed(solve_linear((e for e in copied(equations)),
                                   unknowns))
        deferred = Counter(calls)
        calls.clear()
        want = printed(eager_solve((e for e in copied(equations)),
                                   unknowns))
    assert got == want
    assert deferred == Counter(calls)


def test_a_row_read_early_leaves_its_logged_form_to_earlier_rows():
    """(3,) reads v's row after w is taken, so that row drops w while u's
    row has not yet eliminated v; u's row must still eliminate v's row as
    it was when v was taken, w included."""
    equations = [eq((0,), u=ONE, v=ONE, w=ONE, rhs=ONE),
                 eq((1,), v=ONE, w=ONE, rhs=X), eq((2,), w=ONE, rhs=Y),
                 eq((3,), v=ONE, w=c(2), rhs=X + Y)]
    got = solve_linear(iter(copied(equations)), ("u", "v", "w"))
    assert [got.solution[u].const for u in ("u", "v", "w")] == [
        ONE - X, X - Y, Y]
    assert printed(got) == printed(
        eager_solve(iter(copied(equations)), ("u", "v", "w")))


def test_failing_solve_never_reduces_a_row_its_witness_skips(monkeypatch):
    """v's pivot row comes after u's.  The witness (2,) reads v's row only,
    so v is never eliminated from u's row until partial is read; that read
    makes exactly the eager solve's missing gcd calls, and gives its
    values."""
    equations = [eq((0,), u=ONE, v=X, rhs=ONE), eq((1,), v=X + A, rhs=Y),
                 eq((2,), v=ONE, rhs=ONE)]
    calls = gcd_calls(monkeypatch)
    want = eager_solve(iter(copied(equations)), ("u", "v"))
    eager = Counter(calls)
    calls.clear()
    got = solve_linear(iter(copied(equations)), ("u", "v"))
    deferred = calls[:]
    assert got.witness_label == want.witness_label == (2,)
    nrhs = Y / (X + A)
    calls.clear()
    _ = ONE - X * nrhs          # u's rhs less x times v's
    back_substitution = calls[:]
    assert back_substitution
    assert Counter(deferred) + Counter(back_substitution) == eager
    calls.clear()
    partial = got.partial
    assert calls == back_substitution
    assert got.partial is partial and len(calls) == len(back_substitution)
    assert printed(got) == printed(want)
