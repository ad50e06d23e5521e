"""Transverse Lagrangian pairs and their canonical (Hess) connection.

The connection is bilinear and fixed by two linear maps, each built once
per call with n solves: the split of each basis vector against left +
right, and omega^-1, from which the leafwise derivative is read.

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
    VectorTable,
    _dense,
    _ibracket,
    _sparse,
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


def _leafwise(alg: LieAlgebra, omega: TwoForm):
    """(ad_x^T, y) -> omega^-1 ad_x^T omega(y, .): the D with omega(D, z) =
    -omega(y, [x, z]) for all z, as omega^T = -omega.  Row k of omega^-1
    solves omega^T r = e_k; the n solves run once."""
    wt = linalg.transpose(omega.entries)
    inv = [linalg.solve(wt, e) for e in linalg.identity(alg.dim)]
    if None in inv:
        raise DegenerateFormError("the form does not determine the derivative")
    return lambda ad_t, y: linalg.matvec(inv, linalg.matvec(ad_t, omega.pairing_with(y)))


def d_zero(alg: LieAlgebra, omega: TwoForm, x, y) -> Vector:
    """The vector D with  omega(D, z) = -omega(y, [x, z])  for all z.

    Defined whenever the form is nondegenerate, and a DegenerateFormError
    otherwise; on vectors of one member of a transverse Lagrangian pair
    this is the leafwise derivative and stays inside that member.
    """
    return _leafwise(alg, omega)(linalg.transpose(alg.ad_matrix(x)), y)


class ConnectionTable(VectorTable):
    """Values D_{e_i} e_j on basis pairs, stored like a LieAlgebra's
    brackets; `apply(x, y)` is D_x y, by bilinearity."""

    __slots__ = ()

    entries = VectorTable.table

    def __eq__(self, other) -> bool:
        same_kind = isinstance(other, ConnectionTable)
        return same_kind and (self.consts, self.denom) == (other.consts, other.denom)

    def __hash__(self) -> int:
        return hash((self.consts, self.denom))


def connection(alg: LieAlgebra, omega: TwoForm, pair: BilagrangianPair) -> ConnectionTable:
    """The invariant connection adapted to a transverse pair of subalgebras.

    With x = x_L + x_R split against left + right and likewise y,
    D_x y = D(x_L, y_L) + D(x_R, y_R) + left part of [x_R, y_L] + right
    part of [x_L, y_R], where D is the leafwise derivative.  The split and
    D are built once, with 2n solves in all.  Requires a nondegenerate form
    and a transverse pair of bracket-closed members.
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

    derivative = _leafwise(alg, omega)
    basis = pair.left.rows + pair.right.rows
    bt = linalg.transpose(basis)
    units = linalg.identity(n)
    # lefts[k] is the left part of e_k: the first left.dim rows of basis span left
    lefts = [linalg.lincomb(linalg.solve(bt, e)[: pair.left.dim], basis) for e in units]
    entries = []
    for xl, e in zip(lefts, units):
        # row j of the transposed ad matrix of v is [v, e_j]
        ad_l, ad_r = (linalg.transpose(alg.ad_matrix(v)) for v in (xl, linalg.vsub(e, xl)))
        row = []
        for yl, f in zip(lefts, units):
            yr = linalg.vsub(f, yl)
            b_rl = linalg.lincomb(yl, ad_r)  # [x_R, y_L], whose left part counts
            b_lr = linalg.lincomb(yr, ad_l)  # [x_L, y_R], whose right part counts
            mixed = linalg.vadd(b_lr, linalg.lincomb(linalg.vsub(b_rl, b_lr), lefts))
            row.append(linalg.vadd(linalg.vadd(derivative(ad_l, yl), derivative(ad_r, yr)), mixed))
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
    """Check the defining properties on basis vectors, reading D_{e_i} e_j
    as the table entry (i, j) and D_{e_i} v as row i combined by v, all on
    the integer constants of both tables, over a the algebra's `denom` and t
    the table's: torsion-freeness is a (D_ij - D_ji) = t [e_i, e_j]."""
    n, a, t = alg.dim, alg.denom, table.denom
    if {table.dim, omega.dim, pair.left.ambient_dim} != {n}:
        raise ValueError(f"a connection, form or pair of another dimension than Q^{n}")
    ent = [[_dense(cs, n) for cs in row] for row in table.consts]
    torsion = all(
        a * (x - y) == t * z
        for i in range(n)
        for j in range(i + 1, n)
        for x, y, z in zip(ent[i][j], ent[j][i], _dense(alg.consts[i][j], n))
    )
    # omega(D_i e_j, e_k) + omega(e_j, D_i e_k) = 0, with omega(a, b) = -omega(b, a)
    paired = [[omega.pair_ints(v) for v in row] for row in ent]
    parallel = all(
        paired[i][j][k] == paired[i][k][j]
        for i in range(n)
        for j in range(n)
        for k in range(j + 1, n)
    )

    def preserves(member: Subspace) -> bool:
        rows = _sparse(member.int_rows)
        return all(member._has(_ibracket(table, [(i, 1)], v)) for i in range(n) for v in rows)

    return ConnectionAudit(
        torsion_free=torsion,
        parallel_form=parallel,
        preserves_left=preserves(pair.left),
        preserves_right=preserves(pair.right),
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
    """Does the curvature tensor vanish on all basis triples?  With ent[i][j]
    = D_{e_i} e_j, R(e_i, e_j)e_k is the sum over m of ent[j][k]_m ent[i][m]
    - ent[i][k]_m ent[j][m] - [e_i, e_j]_m ent[m][k], summed here on the
    integer constants of both tables, times a t^2 (a the algebra's `denom`,
    t the table's), so no Fraction is built."""
    n, a, t = alg.dim, alg.denom, table.denom
    if table.dim != n:
        raise ValueError(f"a connection on Q^{table.dim} for an algebra on Q^{n}")
    nz = table.consts
    for i, j, k in ((i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)):
        terms = [(a * c, nz[i][m]) for m, c in nz[j][k]] + [(-a * c, nz[j][m]) for m, c in nz[i][k]]
        out = {}
        for c, v in terms + [(-t * c, nz[m][k]) for m, c in alg.consts[i][j]]:
            for l, x in v:
                out[l] = out.get(l, 0) + c * x
        if any(out.values()):
            return False
    return True
