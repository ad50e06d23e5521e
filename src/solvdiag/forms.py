"""Invariant covectors, 2-forms and 3-forms, and the exterior differential.

Sign convention, used consistently everywhere:

    d(phi)(x, y)    = -phi([x, y])
    d(omega)(x,y,z) = -omega([x,y], z) + omega([x,z], y) - omega([y,z], x)

so closedness of a 2-form is the cocycle identity
omega([x,y],z) + omega([y,z],x) + omega([z,x],y) = 0.  d on 2-forms is one
sparse matrix, built once per call by `_d_rows` from the algebra's nonzero
structure constants `alg.nonzero`: `ce_differential` evaluates it and
`closed_two_form_basis` is its nullspace.  `ce_differential_covector` reads
`alg.nonzero` too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .algebra import LieAlgebra, SolvdiagError, Subspace
from .linalg import Vector, ZERO, ONE, frac


class NotClosedError(SolvdiagError):
    code = "NOT_CLOSED"


class DegenerateFormError(SolvdiagError):
    code = "DEGENERATE_FORM"


@dataclass(frozen=True)
class Covector:
    """A linear functional in dual-basis coordinates."""

    coeffs: Vector

    @classmethod
    def from_entries(cls, entries: Iterable) -> "Covector":
        return cls(linalg.vec(entries))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def apply(self, v: Sequence) -> Fraction:
        return sum((c * x for c, x in zip(self.coeffs, linalg.vec(v), strict=True)), ZERO)


class TwoForm:
    """A skew bilinear form as an exact matrix (rows/cols in basis order)."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Sequence[Sequence]) -> None:
        m = linalg.mat(entries)
        n = len(m)
        for i in range(n):
            if len(m[i]) != n:
                raise ValueError("two-form matrix must be square")
            if m[i][i] != 0:
                raise ValueError("two-form matrix must have zero diagonal")
            for j in range(i + 1, n):
                if m[i][j] != -m[j][i]:
                    raise ValueError("two-form matrix must be antisymmetric")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", m)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("TwoForm is immutable")

    @classmethod
    def zero(cls, n: int) -> "TwoForm":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int, object]]) -> "TwoForm":
        """Build from sparse (i, j, value) with antisymmetry filled in."""
        m = [[ZERO] * n for _ in range(n)]
        for i, j, val in pairs:
            v = frac(val)
            if i == j:
                raise ValueError("diagonal entry in a two-form")
            if m[i][j] != 0 and m[i][j] != v:
                raise ValueError(f"contradictory duplicate entry ({i},{j})")
            m[i][j] = v
            m[j][i] = -v
        return cls(m)

    def pairing_with(self, x: Sequence) -> Vector:
        """The covector omega(x, .); x is checked by `linalg.support`."""
        out = [ZERO] * self.dim
        for i, c in linalg.support(x, self.dim):
            for j, e in enumerate(self.entries[i]):
                if e:
                    out[j] += c * e
        return tuple(out)

    def apply(self, x: Sequence, y: Sequence) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(f"vectors of lengths {len(x)}, {len(y)} for a form on Q^{self.dim}")
        p = self.pairing_with(x)
        return sum((p[j] * b for j, b in linalg.support(y, self.dim)), ZERO)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def rank(self) -> int:
        return linalg.rank(self.entries)

    def scaled(self, c) -> "TwoForm":
        c = frac(c)
        return TwoForm([[c * v for v in row] for row in self.entries])

    def plus(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoForm) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"TwoForm(dim={self.dim})"


class ThreeForm:
    """An alternating trilinear form; stored sparsely on ordered triples."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[tuple[int, int, int], Fraction]) -> None:
        clean = {}
        for (i, j, k), v in entries.items():
            if not i < j < k:
                raise ValueError("three-form keys must be strictly ordered")
            if v != 0:
                clean[(i, j, k)] = frac(v)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ThreeForm is immutable")

    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        return self.entries.get((i, j, k), ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThreeForm)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ThreeForm(dim={self.dim}, nonzero={len(self.entries)})"


def ce_differential_covector(alg: LieAlgebra, phi: Covector) -> TwoForm:
    """d(phi)(x, y) = -phi([x, y]) on basis pairs."""
    n = alg.dim
    coeffs = phi.coeffs
    m = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(alg.nonzero):
        for j in range(i + 1, n):
            val = -sum((coeffs[k] * c for k, c in row[j]), ZERO)
            m[i][j] = val
            m[j][i] = -val
    return TwoForm(m)


def _d_rows(alg: LieAlgebra) -> dict[tuple[int, int, int], dict[tuple[int, int], Fraction]]:
    """The matrix of d on 2-forms: for each triple i < j < k with a nonempty
    row {(a, b): c} (a < b), d(omega)(e_i, e_j, e_k) = sum of c * omega[a][b].
    Read off the nonzero structure constants of [e_i,e_j], [e_i,e_k], [e_j,e_k]
    in `alg.nonzero`.
    """
    nz = alg.nonzero
    rows = {}
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        row: dict[tuple[int, int], Fraction] = {}
        for (p, q), z, sign in (((i, j), k, -1), ((i, k), j, 1), ((j, k), i, -1)):
            for a, c in nz[p][q]:
                if a != z:
                    key, s = ((a, z), sign) if a < z else ((z, a), -sign)
                    row[key] = row.get(key, ZERO) + s * c
        if row:
            rows[(i, j, k)] = row
    return rows


def ce_differential(alg: LieAlgebra, omega: TwoForm) -> ThreeForm:
    """d(omega) on basis triples, with the fixed sign convention."""
    if omega.dim != alg.dim:
        raise ValueError("form dimension does not match the algebra")
    e = omega.entries
    rows = _d_rows(alg).items()
    return ThreeForm(alg.dim, {t: sum(c * e[a][b] for (a, b), c in row.items()) for t, row in rows})


def is_closed(alg: LieAlgebra, omega: TwoForm) -> bool:
    return ce_differential(alg, omega).is_zero()


def wedge_with_covector(dphi: TwoForm, phi: Covector) -> ThreeForm:
    """(dphi ^ phi)(x,y,z) = dphi(x,y)phi(z) - dphi(x,z)phi(y) + dphi(y,z)phi(x)."""
    n = dphi.dim
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                v = (
                    dphi.entries[i][j] * phi.coeffs[k]
                    - dphi.entries[i][k] * phi.coeffs[j]
                    + dphi.entries[j][k] * phi.coeffs[i]
                )
                if v != 0:
                    entries[(i, j, k)] = v
    return ThreeForm(n, entries)


def wedge_polys(alg: LieAlgebra, parts: Sequence[Vector]) -> list[dict]:
    """Coefficients of d(phi) ^ phi for phi = parts[0] + sum a_i parts[i+1].

    One polynomial per basis triple, in triple order, as {monomial:
    coefficient} with monomials () / (i,) / (i, j) over the parameters a_i.
    Identically zero triples are dropped.
    """
    diffs = [ce_differential_covector(alg, Covector(v)) for v in parts]
    polys: dict = {}
    for a, da in enumerate(diffs):
        for b, vb in enumerate(parts):
            mono = tuple(sorted(x - 1 for x in (a, b) if x > 0))
            for triple, c in wedge_with_covector(da, Covector(vb)).entries.items():
                poly = polys.setdefault(triple, {})
                poly[mono] = poly.get(mono, ZERO) + c
    out = []
    for triple in sorted(polys):
        poly = {m: c for m, c in polys[triple].items() if c != 0}
        if poly:
            out.append(poly)
    return out


def closed_covectors(
    alg: LieAlgebra, covectors: Sequence[Vector], budget: int | None = None
) -> tuple[list[Vector], bool]:
    """Covectors phi with d(phi) ^ phi = 0: their kernels are the hyperplane
    subalgebras.

    Searched: each given covector, then the pencils pa + s pb over pairs of
    them (in combinations order, the first `budget` pairs only).  The wedge
    coefficients of a pencil are quadratics in s, solved exactly; each
    common rational root s != 0 gives pa + s pb, and a pencil closed for
    every s gives pa + pb.  Returns (covectors, truncated).
    """
    found = [tuple(phi) for phi in covectors if not wedge_polys(alg, [phi])]
    pairs = list(itertools.combinations(covectors, 2))
    truncated = budget is not None and len(pairs) > budget
    if truncated:
        pairs = pairs[:budget]
    for pa, pb in pairs:
        quads = [
            (p.get((), ZERO), p.get((0,), ZERO), p.get((0, 0), ZERO))
            for p in wedge_polys(alg, [pa, pb])
        ]
        if not quads:
            found.append(linalg.vadd(pa, pb))
            continue
        for s in linalg.rational_roots(list(quads[0])):
            if s != 0 and all(q0 + q1 * s + q2 * s * s == 0 for q0, q1, q2 in quads):
                found.append(linalg.lincomb((ONE, s), (pa, pb)))
    return found, truncated


def restrict(omega: TwoForm, s: Subspace) -> TwoForm:
    """Matrix of omega on s, in its echelon basis: one pairing per row."""
    rows = s.rows
    k = len(rows)
    m = [[ZERO] * k for _ in range(k)]
    for i in range(k - 1):
        after = linalg.matvec(rows[i + 1 :], omega.pairing_with(rows[i]))
        for j, v in enumerate(after, i + 1):
            m[i][j], m[j][i] = v, -v
    return TwoForm(m)


def radical(omega: TwoForm, s: Subspace) -> Subspace:
    """{x in s : omega(x, y) = 0 for all y in s}, as an ambient subspace."""
    k = s.dim
    if k == 0:
        return s
    restr = restrict(omega, s)
    sols = linalg.nullspace(restr.entries, k)
    return Subspace(s.ambient_dim, [linalg.lincomb(sol, s.rows) for sol in sols])


def kernel(omega: TwoForm) -> Subspace:
    """Radical of omega on the whole space."""
    return radical(omega, Subspace.full(omega.dim))


def symplectic_orthogonal(omega: TwoForm, s: Subspace) -> Subspace:
    """{x : omega(x, y) = 0 for all y in s} inside the whole space."""
    rows = [omega.pairing_with(r) for r in s.rows]
    return Subspace(omega.dim, linalg.nullspace(rows, omega.dim))


def closed_two_form_basis(alg: LieAlgebra) -> list[TwoForm]:
    """Canonical basis of the space of closed 2-forms: the nullspace of the
    matrix of d on 2-forms, solved exactly."""
    n = alg.dim
    pairs = list(itertools.combinations(range(n), 2))
    rows = [[row.get(p, ZERO) for p in pairs] for row in _d_rows(alg).values()]
    return [
        TwoForm.from_pairs(n, ((a, b, x) for (a, b), x in zip(pairs, sol)))
        for sol in linalg.nullspace(rows, len(pairs))
    ]
