"""Seeded random instances for property tests.

Completely solvable algebras are grown one dimension at a time: each new
basis vector acts on the previous ones through a derivation that keeps
every prefix span invariant, so the prefix chain stays a chain of ideals
with triangular adjoint action and rational spectrum by construction.
The nilpotent variant uses strictly triangular derivations.
"""

from __future__ import annotations

from random import Random

from . import linalg
from .algebra import LieAlgebra, Subspace
from .flags import Flag
from .forms import TwoForm, closed_two_form_basis

_COEFFS = (-2, -1, 0, 0, 1, 2)


def _triangular_derivations(alg: LieAlgebra, strict: bool) -> list:
    """Basis of derivations D with D(e_b) in span(e_0 .. e_b) for every b.

    strict drops the diagonal, forcing D(e_b) into span(e_0 .. e_(b-1)).
    Returned as flat coefficient vectors over the allowed (a, b) slots.
    """
    n = alg.dim
    slots = [(a, b) for b in range(n) for a in range(b + (0 if strict else 1))]
    pos = {s: i for i, s in enumerate(slots)}
    if not slots:
        return []

    rows = []
    # derivation law on each basis pair, coordinate by coordinate:
    # D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j]
    for i in range(n):
        for j in range(i + 1, n):
            cij = alg.table[i][j]
            for t in range(n):
                row = [linalg.ZERO] * len(slots)
                for (a, b), p in pos.items():
                    coeff = linalg.ZERO
                    if b == i:
                        coeff += alg.table[a][j][t]
                    if b == j:
                        coeff += alg.table[i][a][t]
                    row[p] = coeff
                # D e_t coefficient of the left side: c_ij pulled through D
                for (a, b), p in pos.items():
                    if a == t:
                        row[p] -= cij[b]
                if any(c != 0 for c in row):
                    rows.append(tuple(row))
    if not rows:
        return [tuple(linalg.unit_vec(len(slots), k)) for k in range(len(slots))]
    return [tuple(v) for v in linalg.nullspace(rows, len(slots))]


def _extend_by_derivation(alg: LieAlgebra, coeffs, slots) -> LieAlgebra:
    """The algebra with a new basis vector e_n acting by [e_n, e_b] = D e_b,
    where D e_b has coefficient c at e_a for each slot (a, b) with value c."""
    n = alg.dim
    cols = [[linalg.ZERO] * (n + 1) for _ in range(n)]  # cols[b] = D e_b
    for c, (a, b) in zip(coeffs, slots):
        cols[b][a] = c
    table = [
        [list(v) + [linalg.ZERO] for v in row] + [[-x for x in cols[b]]]
        for b, row in enumerate(alg.table)
    ]
    table.append(cols + [[linalg.ZERO] * (n + 1)])
    return LieAlgebra(tuple(alg.names) + (f"e{n}",), table)


def _grow(rng: Random, dim: int, strict: bool) -> LieAlgebra:
    alg = LieAlgebra(("e0",), [[[linalg.ZERO]]])
    while alg.dim < dim:
        n = alg.dim
        slots = [(a, b) for b in range(n) for a in range(b + (0 if strict else 1))]
        basis = _triangular_derivations(alg, strict)
        coeffs = [linalg.ZERO] * len(slots)
        for vec in basis:
            c = rng.choice(_COEFFS)
            if c:
                coeffs = [x + c * y for x, y in zip(coeffs, vec)]
        alg = _extend_by_derivation(alg, coeffs, slots)
    return alg


def random_completely_solvable(rng: Random, dim: int) -> LieAlgebra:
    """A dim-dimensional algebra with a full chain of ideals and rational
    adjoint spectrum, drawn from seeded random derivation towers."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return _grow(rng, dim, strict=False)


def random_nilpotent(rng: Random, dim: int) -> LieAlgebra:
    if dim < 1:
        raise ValueError("dimension must be positive")
    return _grow(rng, dim, strict=True)


def random_closed_form(rng: Random, alg: LieAlgebra) -> TwoForm:
    """A random rational combination of a basis of the closed 2-forms."""
    basis = closed_two_form_basis(alg)
    acc = TwoForm.zero(alg.dim)
    for _ in range(2):
        for form in basis:
            c = rng.choice(_COEFFS)
            if c:
                acc = acc.plus(form.scaled(c))
        if not acc.is_zero():
            break
    return acc


def random_unimodular(rng: Random, n: int):
    """An integer matrix of determinant +-1 built from 3n elementary moves."""
    m = [[linalg.frac(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        if rng.random() < 0.2:
            m[a], m[b] = m[b], m[a]
        else:
            c = rng.choice((-2, -1, 1, 2))
            m[b] = [x + c * y for x, y in zip(m[b], m[a])]
    return tuple(tuple(row) for row in m)


def change_basis(alg: LieAlgebra, m) -> LieAlgebra:
    """The same algebra presented on the basis given by the rows of m, which
    must be n x n of rank n.  The coordinates c of a bracket v solve
    m^T c = v, so c combines the solutions of m^T x = e_k by v: n solves."""
    n = alg.dim
    if len(m) != n or any(len(r) != n for r in m) or linalg.rank(m) != n:
        raise ValueError("basis matrix is singular")
    mt = linalg.transpose(m)
    inv = [linalg.solve(mt, e) for e in linalg.identity(n)]
    table = [[linalg.lincomb(alg.bracket(a, b), inv) for b in m] for a in m]
    return LieAlgebra(tuple(f"f{i}" for i in range(n)), table)


def random_full_chain(rng: Random, n: int) -> Flag:
    """A random full chain of subspaces (not necessarily subalgebras)."""
    m = random_unimodular(rng, n)
    members = [Subspace.zero(n)]
    for k in range(1, n + 1):
        members.append(Subspace(n, m[:k]))
    return Flag(members)
