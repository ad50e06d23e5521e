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
    n = alg.dim
    d_mat = [[linalg.ZERO] * n for _ in range(n)]  # row a, column b
    for c, (a, b) in zip(coeffs, slots):
        d_mat[a][b] = c
    names = tuple(alg.names) + (f"e{n}",)
    m = n + 1
    table = [[[linalg.ZERO] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            for t in range(n):
                table[i][j][t] = alg.table[i][j][t]
    for b in range(n):
        col = [d_mat[a][b] for a in range(n)]
        for t in range(n):
            table[n][b][t] = col[t]
            table[b][n][t] = -col[t]
    return LieAlgebra(names, table)


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


def random_unimodular(rng: Random, n: int, steps: int | None = None):
    """An integer matrix of determinant +-1 built from elementary moves."""
    m = [[linalg.frac(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps if steps is not None else 3 * n):
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
    """The same algebra presented on the basis given by the rows of m."""
    n = alg.dim
    mt = linalg.transpose(m)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            v = alg.bracket(m[i], m[j])
            coords = linalg.solve(mt, v)
            if coords is None:
                raise ValueError("basis matrix is singular")
            row.append(coords)
        table.append(row)
    return LieAlgebra(tuple(f"f{i}" for i in range(n)), table)


def random_full_chain(rng: Random, n: int) -> Flag:
    """A random full chain of subspaces (not necessarily subalgebras)."""
    m = random_unimodular(rng, n)
    members = [Subspace.zero(n)]
    for k in range(1, n + 1):
        members.append(Subspace(n, m[:k]))
    return Flag(members)
