"""Transverse Lagrangian pairs and their canonical (Hess) connection (H. Hess,
LNM 836, 1980), built in the pair's own basis, where the split against
left + right is a cut of coordinates: one change of basis each way, and
one solve for all the leafwise derivatives.

Scope: nondegenerate closed 2-forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    InputError,
    LieAlgebra,
    NotSubalgebraError,
    Subspace,
    VectorTable,
    _dense,
    _ibracket,
    _sparse,
    change_basis,
    is_subalgebra,
)
from .forms import DegenerateFormError, TwoForm, _gram
from .linalg import Vector


class NotTransverseError(InputError):
    code = "NOT_TRANSVERSE"


@dataclass(frozen=True)
class BilagrangianPair:
    left: Subspace
    right: Subspace

    def __post_init__(self) -> None:
        if self.left.ambient_dim != self.right.ambient_dim:
            raise ValueError("pair members live in different ambient spaces")


def _derivatives(alg: VectorTable, gram, pairs) -> tuple[list[list[int]], int]:
    """The D with omega(D, z) = -omega(y, [x, z]) for all z, for each pair (x, y)
    of integer vectors, over one denominator (gram: a positive multiple of
    omega's Gram matrix on alg's basis).  At z = e_k, gram^T D = r / denom with
    r_k = gram(denom * [x, e_k], y), read off the rows alg.consts[i][k] times x_i:
    one `linalg.int_solve` for all pairs, and a DegenerateFormError if singular."""
    rhs, n = [], alg.dim
    for x, y in pairs:
        gy = [sum(g * c for g, c in zip(row, y) if c) for row in gram]
        rows = [(xi, row) for xi, row in zip(x, alg.consts) if xi]
        rhs.append([sum(xi * c * gy[l] for xi, row in rows for l, c in row[k]) for k in range(n)])
    solved = linalg.int_solve(list(zip(*gram)), rhs)
    if solved is None:
        raise DegenerateFormError("the form must be nondegenerate")
    sols, d = solved
    return sols, d * alg.denom


def d_zero(alg: LieAlgebra, omega: TwoForm, x, y) -> Vector:
    """The vector D with  omega(D, z) = -omega(y, [x, z])  for all z.

    Defined whenever the form is nondegenerate, and a DegenerateFormError
    otherwise; on vectors of one member of a transverse Lagrangian pair
    this is the leafwise derivative and stays inside that member.
    """
    n = alg.dim
    if omega.dim != n:
        raise ValueError(f"a form on Q^{omega.dim} for an algebra on Q^{n}")
    (x, sx), (y, sy) = linalg.scaled_ints(x, n), linalg.scaled_ints(y, n)
    (sol,), d = _derivatives(alg, omega.numer, [(x, y)])
    return linalg.divided(sol, d * sx * sy)


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
    part of [x_L, y_R], where D is the leafwise derivative.  On the pair's
    basis f (left rows, then right rows), D_{f_a} f_c is D(f_a, f_c) when
    both lie on one side, else the coordinates of [f_a, f_c] on the side
    f_a is not on.  Four eliminations in any dimension: to f, the D(f_a, f_c),
    e in f-coordinates, and back.  Requires, in this order, bracket-closed
    members, a transverse pair (dimensions adding up to n, and f regular)
    and a nondegenerate form (its Gram matrix on f regular).
    """
    n = alg.dim
    if pair.left.ambient_dim != n:
        raise ValueError("pair does not match the algebra")
    if omega.dim != n:
        raise ValueError(f"a form on Q^{omega.dim} for an algebra on Q^{n}")
    if not (is_subalgebra(alg, pair.left) and is_subalgebra(alg, pair.right)):
        raise NotSubalgebraError("pair members must be bracket-closed")
    not_transverse = NotTransverseError("pair members do not decompose the algebra")
    if pair.left.dim + pair.right.dim != n:
        raise not_transverse
    basis = pair.left.int_rows + pair.right.int_rows
    try:
        on_f = change_basis(alg, basis)
    except ValueError:  # the basis matrix is singular
        raise not_transverse from None
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    left = [a < pair.left.dim for a in range(n)]
    same = [(a, c) for a in range(n) for c in range(n) if left[a] == left[c]]
    sols, d = _derivatives(on_f, _gram(omega, basis), [(units[a], units[c]) for a, c in same])
    up = d // on_f.denom  # both kinds of entry over d
    consts = [
        [[(k, up * x) for k, x in cs if left[k] != left[a]] for cs in row]
        for a, row in enumerate(on_f.consts)
    ]
    for (a, c), sol in zip(same, sols):
        consts[a][c] = [(k, x) for k, x in enumerate(sol) if x]
    # the rows e_i in f-coordinates, times q: the table on the basis q e_i
    # is q times the table on e
    inverse, q = linalg.int_solve(list(zip(*basis)), units)
    on_e = change_basis(ConnectionTable._of(consts, d), inverse)
    return ConnectionTable._of(on_e.consts, on_e.denom * q)


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
        return all(member._has(_ibracket(table.consts, [(i, 1)], v)) for i in range(n) for v in rows)

    return ConnectionAudit(
        torsion_free=torsion,
        parallel_form=parallel,
        preserves_left=preserves(pair.left),
        preserves_right=preserves(pair.right),
    )


def curvature(alg: LieAlgebra, table: ConnectionTable, x, y, z) -> Vector:
    """R(x, y)z = D_x D_y z - D_y D_x z - D_[x,y] z, on the integer constants
    of both tables (a the algebra's `denom`, t the table's), divided once."""
    n, a, t = table.dim, alg.denom, table.denom
    if alg.dim != n:
        raise ValueError(f"a connection on Q^{n} for an algebra on Q^{alg.dim}")
    (x, sx), (y, sy), (z, sz) = (linalg.scaled_ints(v, n) for v in (x, y, z))

    def times(tab, u, v):  # the integer product of integer vectors in tab
        return _ibracket(tab.consts, *_sparse((u, v)))

    xy, yx = times(table, x, times(table, y, z)), times(table, y, times(table, x, z))
    out = [a * (p - q) - t * r for p, q, r in zip(xy, yx, times(table, times(alg, x, y), z))]
    return linalg.divided(out, a * t * t * sx * sy * sz)


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
