"""Seeded random instances for property tests.

Completely solvable algebras are grown one dimension at a time: each new
basis vector acts on the previous ones through a derivation that keeps
every prefix span invariant, so the prefix chain stays a chain of ideals
with triangular adjoint action and rational spectrum by construction.
The nilpotent variant uses strictly triangular derivations.  Towers are
built on the integer constants `consts`.
"""

from __future__ import annotations

import math
from random import Random

from . import linalg
from .algebra import Flag, LieAlgebra, Subspace
from .forms import TwoForm, closed_two_form_basis

_COEFFS = (-2, -1, 0, 0, 1, 2)


def _triangular_derivations(alg: LieAlgebra, slots) -> list[list[int]]:
    """Integer basis of the derivations D zero outside the slots (a, b), the
    coefficients of D e_b at e_a: `linalg.int_nullspace` of the law
    D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j] times denom, one integer row
    per pair i < j and coordinate t, read off `alg.consts`."""
    n, nz = alg.dim, alg.consts
    pos = {s: p for p, s in enumerate(slots)}
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            hits = [((a, i), t, c) for a in range(n) for t, c in nz[a][j]]
            hits += [((a, j), t, c) for a in range(n) for t, c in nz[i][a]]
            # D e_t coefficient of the left side: c_ij pulled through D
            hits += [((t, b), t, -c) for b, c in nz[i][j] for t in range(n)]
            by_t = [[0] * len(slots) for _ in range(n)]
            for s, t, c in hits:
                if s in pos:
                    by_t[t][pos[s]] += c
            rows += [row for row in by_t if any(row)]
    return linalg.int_nullspace(rows, len(slots))


def _grow(rng: Random, dim: int, strict: bool) -> LieAlgebra:
    """Extend the line dim - 1 times, by e_n acting by [e_n, e_b] = D e_b for
    D a random combination of the canonical triangular derivations (each
    integer kernel vector over its last nonzero entry)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    alg = LieAlgebra._of([[()]], 1, names=("e0",))
    while alg.dim < dim:
        n = alg.dim
        slots = [(a, b) for b in range(n) for a in range(b + (0 if strict else 1))]
        basis = _triangular_derivations(alg, slots)
        lasts = [next(x for x in reversed(v) if x) for v in basis]
        lcm = math.lcm(alg.denom, *lasts)
        weights = [rng.choice(_COEFFS) * (lcm // last) for last in lasts]
        coeffs = [sum(w * x for w, x in zip(weights, col)) for col in zip(*basis)]  # lcm * D
        cols = [[(a, x) for x, (a, b) in zip(coeffs, slots) if x and b == k] for k in range(n)]
        up = lcm // alg.denom
        old = [[[(k, up * c) for k, c in cs] for cs in row] for row in alg.consts]
        consts = [row + [[(a, -x) for a, x in col]] for row, col in zip(old, cols)] + [cols + [[]]]
        alg = LieAlgebra._of(consts, lcm, names=alg.names + (f"e{n}",))
    return alg


def random_completely_solvable(rng: Random, dim: int) -> LieAlgebra:
    """A dim-dimensional algebra with a full chain of ideals and rational
    adjoint spectrum, drawn from seeded random derivation towers."""
    return _grow(rng, dim, strict=False)


def random_nilpotent(rng: Random, dim: int) -> LieAlgebra:
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


def random_unimodular(rng: Random, n: int) -> tuple[tuple[int, ...], ...]:
    """An integer matrix of determinant +-1 built from 3n elementary moves."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
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


def random_full_chain(rng: Random, n: int) -> Flag:
    """A random full chain of subspaces (not necessarily subalgebras)."""
    m = random_unimodular(rng, n)
    return Flag([Subspace(n, m[:k]) for k in range(n + 1)])
