"""Transverse Lagrangian pairs and their canonical flat-leaf connection.

Scope: nondegenerate closed 2-forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    LieAlgebra,
    NotSubalgebraError,
    SolvdiagError,
    Subspace,
    is_subalgebra,
)
from .forms import DegenerateFormError, TwoForm, kernel
from .linalg import Vector


class NotTransverseError(SolvdiagError):
    code = "NOT_TRANSVERSE"


@dataclass(frozen=True)
class BilagrangianPair:
    left: Subspace
    right: Subspace

    def __post_init__(self) -> None:
        if self.left.ambient_dim != self.right.ambient_dim:
            raise ValueError("pair members live in different ambient spaces")


def d_zero(alg: LieAlgebra, omega: TwoForm, x, y) -> Vector:
    """The vector D with  omega(D, z) = -omega(y, [x, z])  for all z.

    Defined whenever the form is nondegenerate; on vectors of one member
    of a transverse Lagrangian pair this is the leafwise derivative and
    stays inside that member.
    """
    n = alg.dim
    rhs = tuple(
        -omega.apply(y, alg.bracket(x, linalg.unit_vec(n, j))) for j in range(n)
    )
    sol = linalg.solve(linalg.transpose(omega.entries), rhs)
    if sol is None:
        raise DegenerateFormError("the form does not determine the derivative")
    return sol


class ConnectionTable:
    """Values D_{e_i} e_j on basis pairs; everything else by bilinearity."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        ent = tuple(tuple(linalg.vec(v) for v in row) for row in entries)
        n = len(ent)
        for row in ent:
            if len(row) != n or any(len(v) != n for v in row):
                raise ValueError("connection table must be n x n vectors of length n")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ConnectionTable is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def apply(self, x, y) -> Vector:
        x = linalg.vec(x)
        y = linalg.vec(y)
        out = linalg.zero_vec(self.dim)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                out = linalg.vadd(out, linalg.vscale(xi * yj, self.entries[i][j]))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, ConnectionTable) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)


def _split_against(pair: BilagrangianPair, v) -> tuple[Vector, Vector]:
    l, r = pair.left, pair.right
    basis = list(l.rows) + list(r.rows)
    coords = linalg.solve(linalg.transpose(basis), linalg.vec(v))
    if coords is None:  # pragma: no cover - transversality checked upstream
        raise NotTransverseError("vector does not decompose against the pair")
    # the first l.dim rows of basis span the left member
    vl = linalg.lincomb(coords[: l.dim], basis)
    return vl, linalg.vsub(linalg.vec(v), vl)


def connection(alg: LieAlgebra, omega: TwoForm, pair: BilagrangianPair) -> ConnectionTable:
    """The invariant connection adapted to a transverse pair of subalgebras.

    Built from the leafwise derivative on each member plus the bracket
    projected back to the member, mixed by the decomposition against
    left + right.  Requires a nondegenerate form and a transverse pair of
    bracket-closed members.
    """
    n = alg.dim
    if pair.left.ambient_dim != n:
        raise ValueError("pair does not match the algebra")
    if not (is_subalgebra(alg, pair.left) and is_subalgebra(alg, pair.right)):
        raise NotSubalgebraError("pair members must be bracket-closed")
    if not (
        pair.left.intersect(pair.right).is_zero()
        and pair.left.dim + pair.right.dim == n
    ):
        raise NotTransverseError("pair members do not decompose the algebra")
    if not kernel(omega).is_zero():
        raise DegenerateFormError("the form must be nondegenerate")

    splits = [_split_against(pair, linalg.unit_vec(n, i)) for i in range(n)]
    entries = []
    for i in range(n):
        xl, xr = splits[i]
        row = []
        for j in range(n):
            yl, yr = splits[j]
            left_part = d_zero(alg, omega, xl, yl)
            bl, _ = _split_against(pair, alg.bracket(xr, yl))
            left_part = linalg.vadd(left_part, bl)
            right_part = d_zero(alg, omega, xr, yr)
            _, br = _split_against(pair, alg.bracket(xl, yr))
            right_part = linalg.vadd(right_part, br)
            row.append(linalg.vadd(left_part, right_part))
        entries.append(row)
    return ConnectionTable(entries)


@dataclass(frozen=True)
class ConnectionAudit:
    torsion_free: bool
    parallel_form: bool
    preserves_left: bool
    preserves_right: bool

    @property
    def ok(self) -> bool:
        return (
            self.torsion_free
            and self.parallel_form
            and self.preserves_left
            and self.preserves_right
        )


def audit_connection(
    alg: LieAlgebra, omega: TwoForm, pair: BilagrangianPair, table: ConnectionTable
) -> ConnectionAudit:
    n = alg.dim
    units = [linalg.unit_vec(n, i) for i in range(n)]
    torsion = all(
        linalg.vsub(table.apply(units[i], units[j]), table.apply(units[j], units[i]))
        == alg.bracket(units[i], units[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    parallel = all(
        omega.apply(table.apply(units[i], units[j]), units[k])
        + omega.apply(units[j], table.apply(units[i], units[k]))
        == 0
        for i in range(n)
        for j in range(n)
        for k in range(j + 1, n)
    )
    pres_left = all(
        pair.left.contains_vector(table.apply(u, row))
        for u in units
        for row in pair.left.rows
    )
    pres_right = all(
        pair.right.contains_vector(table.apply(u, row))
        for u in units
        for row in pair.right.rows
    )
    return ConnectionAudit(
        torsion_free=torsion,
        parallel_form=parallel,
        preserves_left=pres_left,
        preserves_right=pres_right,
    )


def curvature(alg: LieAlgebra, table: ConnectionTable, x, y, z) -> Vector:
    """R(x, y)z = D_x D_y z - D_y D_x z - D_[x,y] z."""
    return linalg.vsub(
        linalg.vsub(
            table.apply(x, table.apply(y, z)), table.apply(y, table.apply(x, z))
        ),
        table.apply(alg.bracket(x, y), z),
    )


def curvature_flatness(alg: LieAlgebra, table: ConnectionTable) -> bool:
    """Does the curvature tensor vanish on all basis triples?"""
    n = alg.dim
    units = [linalg.unit_vec(n, i) for i in range(n)]
    return all(
        linalg.is_zero_vec(curvature(alg, table, units[i], units[j], units[k]))
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
    )
