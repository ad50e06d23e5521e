"""Lie algebras by exact rational structure constants, and canonical subspaces.

Both are stored once, on Python ints.  A Subspace is stored as its
primitive integer echelon rows (each reduced echelon row times the lcm of
its denominators), as canonical as the reduced row echelon form, so
equality of subspaces is literal equality of integer matrices.  A
LieAlgebra stores the nonzero entries of each bracket [e_i, e_j] as ints
over one positive denominator, read once when the algebra is built; values
are coerced at that boundary.  Brackets of integer rows are integer rows, a
positive multiple of the true bracket, and spans, closures, membership and
the Lie-theorem descent never see the factor; the public `bracket` and
`ad_matrix` divide once.  The Fraction views `Subspace.rows` and
`LieAlgebra.table` are built on first read.  All predicates (subalgebra,
ideal, nilpotent, ...) are decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Sequence

from . import linalg
from .linalg import Matrix, Vector, frac


class SolvdiagError(Exception):
    """Base error; `code` is the stable machine-readable identifier."""

    code = "ERROR"


class InputError(SolvdiagError):
    """The input is at fault (a malformed document, an unknown name, a failed
    precondition of the operation asked for): the CLI exits 2, not 3."""


class SubspaceNotNestedError(InputError):
    code = "SUBSPACE_NOT_NESTED"


class NotSubalgebraError(InputError):
    code = "NOT_SUBALGEBRA"


class NotAnIdealError(InputError):
    code = "NOT_AN_IDEAL"


def _init(obj, **attrs):
    """Set the attributes of an immutable object; returns it."""
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


def _ratio(x) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, of an int, Fraction or str; else `frac`'s TypeError."""
    return (x if isinstance(x, (int, Fraction)) else frac(x)).as_integer_ratio()


def _reduce(w: Sequence[int], rows, pivots) -> list[int]:
    """A nonzero multiple of the remainder of w along integer rows each zero
    at the pivots before its own: fraction-free, each step a*w - b*row with
    a/b the pivot over w's entry there, reduced by their gcd."""
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            q = row[p]
            g = math.gcd(q, c)
            a, b = q // g, c // g
            w = [a * x - b * y for x, y in zip(w, row)]
    return w


def _at_common_pivot(rows, pivots) -> tuple[int, list[list[int]]]:
    """(L, rows): L the lcm of the pivots of the integer echelon rows, and each
    row scaled to pivot L, so that it is L times its reduced echelon row."""
    lcm = math.lcm(*(r[p] for r, p in zip(rows, pivots)))
    return lcm, [[x * (lcm // r[p]) for x in r] for r, p in zip(rows, pivots)]


class Subspace:
    """A subspace of Q^n in canonical echelon form (immutable).

    Stored as its primitive integer echelon rows `int_rows` (`linalg.echelon`:
    coprime entries, positive pivot), as canonical as the reduced row
    echelon form, so equality and hashing compare them.  Membership, sums
    and intersections eliminate on them fraction-free.  `rows`, the reduced
    row echelon form over Fraction, is a view built on first read.  The
    rows given go to `linalg.echelon` as they are, with no copy.
    """

    __slots__ = ("ambient_dim", "int_rows", "pivots", "_rows")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence]) -> None:
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length does not match ambient dimension")
        ech, pivots = linalg.echelon(rows)  # coerces each entry once
        ech = tuple(map(tuple, ech))
        _init(self, ambient_dim=ambient_dim, int_rows=ech, pivots=tuple(pivots), _rows=None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, [])

    @classmethod
    def full(cls, n: int) -> "Subspace":
        units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))  # already echelon
        full = object.__new__(cls)
        return _init(full, ambient_dim=n, int_rows=units, pivots=tuple(range(n)), _rows=None)

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, vectors)

    @property
    def rows(self) -> Matrix:
        if self._rows is None:
            _init(self, _rows=linalg.reduced(self.int_rows, self.pivots))
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def _remainder(self, w: list[int]) -> list[int]:
        """`_reduce` along the echelon rows."""
        return _reduce(w, self.int_rows, self.pivots)

    def _has(self, w: Sequence[int]) -> bool:
        """Whether the integer vector w lies in the span."""
        return not any(self._remainder(w))

    def contains_vector(self, v: Sequence) -> bool:
        return self._has(linalg.scaled_ints(v, self.ambient_dim)[0])

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        return other.dim <= self.dim and all(self._has(r) for r in other.int_rows)

    def _common_pivot_rows(self) -> tuple[int, list[list[int]]]:
        return _at_common_pivot(self.int_rows, self.pivots)

    def coordinates(self, t: "Subspace") -> "Subspace":
        """t in the reduced echelon basis of this subspace, a subspace of
        Q^dim: a vector of it has its entries at the pivots as coordinates."""
        if not self.contains(t):
            raise SubspaceNotNestedError("subspace is not contained in this one")
        return Subspace(self.dim, [[r[p] for p in self.pivots] for r in t.int_rows])

    def lift(self, u: "Subspace") -> "Subspace":
        """The subspace whose coordinates are u; the inverse of `coordinates`.

        Each row of u combines the rows scaled to their common pivot, so the
        lift of a reduced echelon basis is the reduced echelon basis of the lift.
        """
        if u.ambient_dim != self.dim:
            raise ValueError(f"coordinates in Q^{u.ambient_dim}, not in Q^{self.dim}")
        columns = list(zip(*self._common_pivot_rows()[1]))
        combos = [[sum(c * x for c, x in zip(y, col) if c) for col in columns] for y in u.int_rows]
        return Subspace(self.ambient_dim, combos)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ambient_dim, self.int_rows + other.int_rows)

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on this subspace (coordinates in the dual basis)."""
        return Subspace(self.ambient_dim, linalg.int_nullspace(self.int_rows, self.ambient_dim))

    def intersect(self, other: "Subspace") -> "Subspace":
        ann = self.annihilator().int_rows + other.annihilator().int_rows
        return Subspace(self.ambient_dim, linalg.int_nullspace(ann, self.ambient_dim))

    def sort_key(self):
        """Total order used for every canonical tie-break: earliest pivots win."""
        return (self.dim, self.pivots, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.int_rows == other.int_rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.int_rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, rows={self.rows!r})"


def vector_sort_key(v: Vector):
    """Canonical order on normalized vectors: earliest leading entry wins."""
    pivot = next((i for i, x in enumerate(v) if x != 0), len(v))
    return (pivot, v)


def _ibracket(alg, xs, ys) -> list[int]:
    """denom * [x, y] on ints, x and y given by their nonzero entries
    (index, value): the sum of x_i y_j c over the constants (k, c) of
    [e_i, e_j] in `alg.consts`."""
    out = [0] * alg.dim
    for i, x in xs:
        row = alg.consts[i]
        for j, y in ys:
            if cs := row[j]:
                f = x * y
                for k, c in cs:
                    out[k] += f * c
    return out


def _sparse(rows) -> list[list[tuple[int, int]]]:
    """(index, value) of the nonzero entries of each row."""
    return [[(i, x) for i, x in enumerate(r) if x] for r in rows]


def _dense(cs, n: int) -> list[int]:
    """The integer vector of length n with the nonzero entries (k, c) of cs."""
    v = [0] * n
    for k, c in cs:
        v[k] = c
    return v


class VectorTable:
    """An n x n table of vectors of Q^n, and the bilinear product it defines.

    Stored once, as integers over one positive denominator `denom` (the lcm
    of the entries' denominators, so the store is in lowest terms):
    `consts[i][j]` lists the nonzero entries of denom * table[i][j] as
    ((k, c), ...) in increasing k, with int c.  `table[i][j]`, the dense
    Fraction vector, is a view built on first read.  A LieAlgebra's table
    holds the brackets [e_i, e_j]; a ConnectionTable's holds D_{e_i} e_j.
    """

    __slots__ = ("dim", "consts", "denom", "_table")

    def __init__(self, table: Sequence[Sequence[Sequence]]) -> None:
        rows = [tuple(row) for row in table]
        n = len(rows)
        vecs = [v for row in rows for v in row]
        if any(len(row) != n for row in rows) or any(len(v) != n for v in vecs):
            raise ValueError(f"{type(self).__name__} must be n x n vectors of length n")
        ints, denom = linalg.scaled_ints(x for v in vecs for x in v)
        sparse = iter(_sparse(ints[t : t + n] for t in range(0, n * n * n, n or 1)))
        consts = tuple(tuple(tuple(next(sparse)) for _ in range(n)) for _ in range(n))
        _init(self, dim=n, consts=consts, denom=denom, _table=None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, consts, denom: int, **attrs):
        """The table consts / denom, put in lowest terms, with no Fraction built
        (the constructor is the boundary that coerces values): consts[i][j]
        lists the nonzero (k, c) of denom * table[i][j], denom > 0; attrs sets
        a subclass's other slots."""
        g = math.gcd(denom, *(c for row in consts for cs in row for _, c in cs))
        consts = tuple(tuple(tuple((k, c // g) for k, c in cs) for cs in row) for row in consts)
        table = object.__new__(cls)
        return _init(table, dim=len(consts), consts=consts, denom=denom // g, _table=None, **attrs)

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        if self._table is None:
            n, d = self.dim, self.denom
            view = tuple(
                tuple(linalg.divided(_dense(cs, n), d) for cs in row) for row in self.consts
            )
            _init(self, _table=view)
        return self._table

    def apply(self, x: Sequence, y: Sequence) -> Vector:
        """The sum of x_i y_j table[i][j] over the nonzero coordinates of x and
        y and the nonzero constants of table[i][j], on ints, divided once.
        An entry that is not exact is a TypeError, a wrong length a ValueError."""
        (x, sx), (y, sy) = linalg.scaled_ints(x, self.dim), linalg.scaled_ints(y, self.dim)
        return linalg.divided(_ibracket(self, *_sparse((x, y))), sx * sy * self.denom)


class LieAlgebra(VectorTable):
    """Finite-dimensional Lie algebra over Q given by structure constants:
    the VectorTable of the brackets [e_i, e_j] of the named basis."""

    __slots__ = ("names",)

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[Sequence]]) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        super().__init__(table)
        if self.dim != len(names):
            raise ValueError(f"a bracket table of size {self.dim} for {len(names)} basis names")
        _init(self, names=names)

    @classmethod
    def from_brackets(cls, names: Sequence[str], entries) -> "LieAlgebra":
        """Build from sparse brackets {(name_i, name_j): {name_k: rational}}.

        Antisymmetry is filled in; both (i,j) and (j,i) given, not negatives
        of each other, is a hard error, and so is a name outside the basis.
        `consts` is built over the lcm of the denominators, with no Fraction table."""
        names = tuple(names)
        idx = {nm: i for i, nm in enumerate(names)}
        given: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}  # both orientations
        for (a, b), val in entries.items():
            for nm in (a, b, *val):
                if nm not in idx:
                    raise ValueError(f"bracket [{a},{b}] names {nm!r}, which is not a basis name")
            i, j = idx[a], idx[b]
            if i == j:
                raise ValueError(f"bracket [{a},{a}] must be zero, not given")
            v = {idx[k]: r for k, c in val.items() if (r := _ratio(c))[0]}
            if given.setdefault((i, j), v) != v:
                raise ValueError(f"brackets [{a},{b}] and [{b},{a}] are not antisymmetric")
            given[(j, i)] = {k: (-p, q) for k, (p, q) in v.items()}
        if len(idx) != len(names):
            raise ValueError("basis names must be distinct")
        denom = math.lcm(*(q for v in given.values() for _, q in v.values()))
        consts = [[()] * len(names) for _ in names]
        for (i, j), v in given.items():
            consts[i][j] = [(k, p * (denom // q)) for k, (p, q) in sorted(v.items())]
        return cls._of(consts, denom, names=names)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def basis_vector(self, name: str) -> Vector:
        return linalg.unit_vec(self.dim, self.index_of(name))

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y], the product of the bracket table."""
        return self.apply(x, y)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of ad_x = [x, .] acting on coordinate columns (row-major).

        Entry (k, j) is the e_k coefficient of [x, e_j], the sum of
        x_i c[i][j][k] over the nonzero constants, on ints, divided once.
        """
        x, sx = linalg.scaled_ints(x, self.dim)
        out = [[0] * self.dim for _ in range(self.dim)]
        for xi, row in zip(x, self.consts):
            if xi:
                for j, cs in enumerate(row):
                    for k, c in cs:
                        out[k][j] += xi * c
        return tuple(linalg.divided(r, sx * self.denom) for r in out)

    def bracket_spans(self, s: Subspace, t: Subspace) -> Subspace:
        ts = _sparse(t.int_rows)
        return Subspace(self.dim, [_ibracket(self, a, b) for a in _sparse(s.int_rows) for b in ts])

    def derived_span(self, s: Subspace) -> Subspace:
        """[s, s], from the brackets of the pairs a < b of s's echelon rows.

        Equal to `bracket_spans(s, s)` when the table is antisymmetric with
        zero diagonal, as every table `from_brackets`, `change_basis`,
        `quotient`, `subalgebra_as_algebra`, the generators and the
        certificate's reduction build is: [a, a] = 0 and [b, a] = -[a, b]
        add nothing to the span.
        """
        sup = _sparse(s.int_rows)
        pairs = [(a, b) for i, a in enumerate(sup) for b in sup[i + 1 :]]
        return Subspace(self.dim, [_ibracket(self, a, b) for a, b in pairs])

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, names={self.names!r})"


@dataclass(frozen=True)
class AlgebraValidationReport:
    antisymmetry_failures: tuple[tuple[int, int], ...]
    jacobi_failures: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_failures and not self.jacobi_failures


def validate_algebra(alg: LieAlgebra) -> AlgebraValidationReport:
    """Check antisymmetry of the table and the Jacobi identity on all triples.

    The Jacobi sum of i < j < k is [[e_i,e_j],e_k] + [[e_j,e_k],e_i] +
    [[e_k,e_i],e_j], each bracket read from the table as given (so a table
    that is not antisymmetric is checked as it stands): the sum over the
    nonzero c[a][b][m] and c[m][z][l] of their product, into coordinate l.
    """
    nz = alg.consts
    n = alg.dim
    anti = []
    for i in range(n):
        if nz[i][i]:
            anti.append((i, i))
        for j in range(i + 1, n):
            if nz[i][j] != tuple((k, -c) for k, c in nz[j][i]):
                anti.append((i, j))
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: dict[int, int] = {}
                for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in nz[a][b]:
                        for l, y in nz[m][z]:
                            total[l] = total.get(l, 0) + x * y
                if any(total.values()):
                    jac.append((i, j, k))
    return AlgebraValidationReport(tuple(anti), tuple(jac))


def _grow(cur: Subspace, vectors) -> tuple[Subspace, list]:
    """cur + span(vectors), and a basis of it modulo cur: the echelon rows of
    the sum at the pivots cur lacks.  Each vector is first reduced along
    cur, and cur is returned as it is when nothing is left."""
    rest = [r for r in (cur._remainder(v) for v in vectors) if any(r)]
    if not rest:
        return cur, []
    nxt = Subspace(cur.ambient_dim, cur.int_rows + tuple(rest))
    old = set(cur.pivots)
    return nxt, [r for r, p in zip(nxt.int_rows, nxt.pivots) if p not in old]


def subalgebra_closure(
    alg: LieAlgebra, vectors: Sequence[Sequence], closed: Subspace | None = None
) -> Subspace:
    """Smallest bracket-closed subspace containing the given vectors and
    `closed`, which must be bracket-closed itself (zero when omitted).

    Semi-naive: each round brackets only the directions new in the last
    round, with each other and with the span before them; the brackets
    within that span are in the current one already.  A closed part costs
    no bracket of its own.
    """
    old = closed if closed is not None else Subspace.zero(alg.dim)
    cur, new = _grow(old, Subspace(alg.dim, vectors).int_rows)
    while new:
        new, base = _sparse(new), _sparse(old.int_rows)
        old = cur
        pairs = [(a, b) for i, a in enumerate(new) for b in new[i + 1 :] + base]
        cur, new = _grow(cur, [_ibracket(alg, a, b) for a, b in pairs])
    return cur


def ideal_closure(alg: LieAlgebra, s: Subspace) -> Subspace:
    """Smallest ideal of the algebra containing s.

    Semi-naive: each round brackets the basis only with the directions
    added in the last round.
    """
    cur, new = s, list(s.int_rows)
    while new:
        units = [[(i, 1)] for i in range(alg.dim)]
        cur, new = _grow(cur, [_ibracket(alg, e, y) for y in _sparse(new) for e in units])
    return cur


def is_subalgebra(alg: LieAlgebra, s: Subspace) -> bool:
    sup = _sparse(s.int_rows)
    return all(s._has(_ibracket(alg, a, b)) for i, a in enumerate(sup) for b in sup[i + 1 :])


def is_ideal_in(alg: LieAlgebra, s: Subspace, t: Subspace) -> bool:
    """Whether [t, s] is contained in s.  Requires s within t."""
    if not t.contains(s):
        raise SubspaceNotNestedError("s is not contained in t")
    ss = _sparse(s.int_rows)
    return all(s._has(_ibracket(alg, x, y)) for x in _sparse(t.int_rows) for y in ss)


def _series_reaches_zero(start: Subspace, step) -> bool:
    """Whether the series start, step(start), step(step(start)), ... ends at zero."""
    cur = start
    while not cur.is_zero():
        nxt = step(cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    return alg.derived_span(Subspace.full(alg.dim))


def is_solvable(alg: LieAlgebra) -> bool:
    return _series_reaches_zero(Subspace.full(alg.dim), alg.derived_span)


def is_nilpotent(alg: LieAlgebra) -> bool:
    full = Subspace.full(alg.dim)
    return _series_reaches_zero(full, lambda cur: alg.bracket_spans(full, cur))


def is_nilpotent_subalgebra(alg: LieAlgebra, s: Subspace) -> bool:
    """Whether s is bracket-closed and its lower central series s, [s, s],
    [s, [s, s]], ... reaches zero, computed in the ambient algebra."""
    return is_subalgebra(alg, s) and _series_reaches_zero(
        s, lambda cur: alg.bracket_spans(s, cur)
    )


def quotient(alg: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient algebra by an ideal, plus the projection matrix.

    Quotient coordinates are the ambient coordinates away from the ideal's
    pivot columns; names are inherited from those coordinates.  With the
    ideal's rows scaled to their common pivot L, L*v - sum over its pivots p
    of v[p] row_p is L times the remainder of v: `alg.consts` reduced so are
    the constants over denom * L, and e_j projects to e_j or -row_j / L.
    """
    if not is_ideal_in(alg, ideal, Subspace.full(alg.dim)):
        raise NotAnIdealError("quotient requires an ideal of the full algebra")
    n = alg.dim
    keep = [i for i in range(n) if i not in ideal.pivots]
    lcm, rows = ideal._common_pivot_rows()
    at = dict(zip(ideal.pivots, rows))
    # L times the projection, m x n, rows = quotient coordinates
    proj = [[-at[j][k] if j in at else lcm * (j == k) for j in range(n)] for k in keep]

    def image(cs) -> list[tuple[int, int]]:  # of the vector with nonzero entries cs
        return [(i, x) for i, r in enumerate(proj) if (x := sum(r[k] * c for k, c in cs))]

    consts = [[image(alg.consts[a][b]) for b in keep] for a in keep]
    names = tuple(alg.names[i] for i in keep)
    matrix = tuple(linalg.divided(r, lcm) for r in proj)
    return LieAlgebra._of(consts, alg.denom * lcm, names=names), matrix


def subalgebra_as_algebra(alg: LieAlgebra, s: Subspace) -> LieAlgebra:
    """The subalgebra as a standalone algebra.

    Basis of the result = the reduced echelon rows of s (names b0, b1, ...),
    so `s.coordinates` and `s.lift` carry subspaces into it and back.  As s
    is bracket-closed, the coordinates of a bracket are its entries at s's
    pivots.
    """
    # the rows scaled to their common pivot L are L times the reduced rows, so
    # their integer bracket is denom * L^2 times the bracket of the reduced rows
    lcm, rows = s._common_pivot_rows()
    sup = _sparse(rows)
    brackets = [[_ibracket(alg, a, b) for b in sup] for a in sup]
    if not all(s._has(brackets[a][b]) for a in range(s.dim) for b in range(a + 1, s.dim)):
        raise NotSubalgebraError("subspace is not bracket-closed")
    consts = [
        [[(i, br[p]) for i, p in enumerate(s.pivots) if br[p]] for br in row] for row in brackets
    ]
    names = tuple(f"b{i}" for i in range(s.dim))
    return LieAlgebra._of(consts, alg.denom * lcm * lcm, names=names)


def change_basis(table: VectorTable, m) -> VectorTable:
    """The same table (a LieAlgebra, basis names f0, f1, ..., or a
    ConnectionTable) on the basis f given by the rows of m, n x n of rank n.
    With m = M / s, M integer, the coordinates c of f_a * f_b solve
    M^T c = (M_a * M_b) / s: one `linalg.int_solve` of the integer products
    denom * (M_a * M_b), whose solutions y over d give c = y / (d s denom).
    """
    n = table.dim
    if len(m) != n or any(len(r) != n for r in m):
        raise ValueError("basis matrix is singular")
    flat, s = linalg.scaled_ints(x for r in m for x in r)
    m_int = [flat[a * n : a * n + n] for a in range(n)]
    sup = _sparse(m_int)
    solved = linalg.int_solve(list(zip(*m_int)), [_ibracket(table, x, y) for x in sup for y in sup])
    if solved is None:
        raise ValueError("basis matrix is singular")
    ys, d = solved
    cs = _sparse(ys)  # the constants of f_a * f_b, at a * n + b
    consts = [cs[a * n : a * n + n] for a in range(n)]
    names = {"names": tuple(f"f{i}" for i in range(n))} if isinstance(table, LieAlgebra) else {}
    return type(table)._of(consts, d * s * table.denom, **names)


# ---------------------------------------------------------------------------
# rational common eigenvectors (constructive Lie-theorem descent over Q)


def _hyperplane_in(inside, rows, pivots) -> tuple[list, list[int]]:
    """Greedy canonical hyperplane of the span of the echelon rows `inside` containing
    that of `rows` (echelon, with `pivots`), as `linalg.echelon`'s (rows, pivots).

    Extends by the earliest rows of `inside`; the result has the
    lexicographically least pivot set among such hyperplanes.  A row is kept
    when `_reduce` along those kept so far leaves a remainder: one echelon.
    """
    given, rows, pivots = len(rows), list(rows), list(pivots)
    for row in inside:
        if len(rows) == len(inside) - 1:
            break
        r = _reduce(row, rows, pivots)
        if any(r):
            rows.append(r)
            pivots.append(next(j for j, x in enumerate(r) if x))
    if len(rows) != len(inside) - 1:  # pragma: no cover - containing must fit
        raise ValueError("cannot extend to a hyperplane")
    return linalg.echelon(rows) if len(rows) > given else (rows, pivots)


def _shifted(m: Matrix, c, den=1) -> list[list]:
    """The rows of den*m - c*I: c is subtracted on the diagonal only."""
    rows = [[den * x for x in row] for row in m] if den != 1 else [list(row) for row in m]
    for i, row in enumerate(rows):
        row[i] -= c
    return rows


def _triangular(m: Matrix) -> bool:
    """Whether the square matrix m (entries ints or Fractions) is upper or
    lower triangular, so that its eigenvalues are its diagonal entries."""
    return all(not x for i, row in enumerate(m) for x in row[:i]) or all(
        not x for i, row in enumerate(m) for x in row[i + 1 :]
    )


def _eigenspaces(m: Matrix, dim: int, nilpotent: bool = False) -> list[list[list[int]]]:
    """For each rational eigenvalue num/den of m, in increasing order, the
    integer kernel basis of den*m - num*I (`linalg.int_nullspace`).

    A forced spectrum is read off m: a 1x1 matrix has the one eigenspace
    [[1]], one the caller knows nilpotent its kernel, a triangular one its diagonal."""
    if dim == 1:
        return [[[1]]]
    if nilpotent:
        return [linalg.int_nullspace(m, dim)]
    if _triangular(m):
        spectrum = sorted(set(row[i] for i, row in enumerate(m)))
    else:
        spectrum = linalg.rational_eigenvalues(m)
    return [
        linalg.int_nullspace(_shifted(m, mu.numerator, mu.denominator), dim)
        for mu in spectrum
    ]


def common_eigenvector(alg, rep: Sequence[Matrix], space_dim: int) -> Vector | None:
    """A rational common eigenvector of the solvable action, or None.

    rep[i] is the matrix of the action of basis vector e_i on Q^space_dim;
    the algebra is read through `alg.dim` and `alg.consts` only.  Returns
    the canonical least normalized eigenvector, or None when the descent
    needs an eigenvalue that is not rational (or the algebra turns out
    non-solvable along the way).  A rep of other than alg.dim matrices, a
    matrix not space_dim x space_dim, or space_dim < 1 is a ValueError.

    The descent walks a chain of subalgebras sub = H + <z>, H a canonical
    hyperplane, down to one acting trivially.  [sub, sub] comes from the
    pairs a < b of sub's echelon rows, so the constants must be
    antisymmetric with zero diagonal.  A stage returns w, least in the
    eigenspace E of z on H's weight space (the whole space where H acts by
    zero), and E, which is sub's weight space for w's weight: no weight
    space is solved for.  A stage runs on the integer (rows, pivots) of
    `linalg.echelon` and builds no Subspace.  It costs m(m-1)/2 brackets
    (m = dim sub) and their echelon when m > 1, at most one echelon for H,
    one reduction of z along the top stage's [q, q], and the actions of z
    and of H's rows up to the first that is not zero; unless E is a line,
    an echelon for E and `_eigenspaces` of z on it, with no charpoly where
    that restriction is 1x1 or triangular or z is in [q, q].  Then z acts
    nilpotently: a stage reaches `_eigenspaces` only once those below it
    succeed, so the image of q is solvable, its weights vanish on [q, q]
    by Lie's theorem (Humphreys, GTM 9, 4.1 Cor. C), and on the invariant
    weight space z has the one eigenspace ker z, all that the charpoly
    route returns for the spectrum {0}.  The vector the descent returns is
    checked once, against every matrix of rep as given.
    The descent runs on ints: the nonzero entries of rep, read once, are
    scaled to integers by one positive factor unless they are ints, and an
    element acts through its primitive integer multiple, so each action
    matrix is a positive multiple of the true one.  That scales weights
    and moves no span, eigenspace or normalized eigenvector.
    Vectors stay primitive integer ones up the recursion; the top divides
    once.
    """
    if space_dim < 1 or len(rep) != alg.dim or any({len(m), *map(len, m)} - {space_dim} for m in rep):
        raise ValueError(f"rep must be {alg.dim} matrices of size {space_dim} x {space_dim} >= 1")
    n = alg.dim
    # the nonzero entries (i, j, x) of each action matrix, read once
    entries = [[(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x] for m in rep]
    if any(type(x) is not int for nz in entries for _, _, x in nz):
        flat = iter(linalg.scaled_ints([x for nz in entries for _, _, x in nz])[0])
        entries = [[(i, j, next(flat)) for i, j, _ in nz] for nz in entries]

    def act(elem: Sequence[int]) -> list[list[int]]:
        """The action of a primitive integer row (of `linalg.echelon`)."""
        out = [[0] * space_dim for _ in range(space_dim)]
        for c, nz in zip(elem, entries):
            if c:
                for i, j, x in nz:
                    out[i][j] += c * x
        return out

    def fixes(a, w: list[int]) -> bool:
        """Whether a maps w to a multiple of w, by cross-multiplying."""
        ws = [(j, y) for j, y in enumerate(w) if y]
        img = [sum(row[j] * y for j, y in ws) for row in a]
        t, den = ws[0]
        return all(x * den == img[t] * y for x, y in zip(img, w))

    def least(eigenspaces, basis=None) -> tuple[list[int], list] | None:
        """The least eigenvector (coordinates on basis, if given) in
        vector_sort_key's order, primitive and positive at its pivot, and its
        eigenspace, in Q^space_dim; cross-multiplied over the pivot entry."""
        best, q, held = None, 0, None
        for eigenspace in eigenspaces:
            if basis is not None:
                eigenspace = [
                    [sum(c * b[j] for c, b in zip(v, basis) if c) for j in range(space_dim)]
                    for v in eigenspace
                ]
            for v in eigenspace:
                p = next(i for i, x in enumerate(v) if x)
                g = math.gcd(*v) if v[p] > 0 else -math.gcd(*v)
                if g != 1:
                    v = [x // g for x in v]
                if best is None or (p, [x * best[q] for x in v]) < (q, [y * v[p] for y in best]):
                    best, q, held = v, p, eigenspace
        return None if best is None else (best, held)

    def recurse(rows, pivots, qq=None) -> tuple[list[int], list] | None:
        """The descent below the subalgebra sub with echelon rows and pivots:
        w, primitive and positive at its pivot, and sub's weight space for
        it.  qq is the echelon of [q, q], from the top stage."""
        sup = _sparse(rows)
        pairs = [(x, y) for a, x in enumerate(sup) for y in sup[a + 1 :]]
        drows, dpiv = linalg.echelon([_ibracket(alg, *xy) for xy in pairs]) if pairs else ([], [])
        if len(dpiv) >= len(pivots):
            return None  # not solvable
        qq = qq or (drows, dpiv)
        hrows, hpiv = _hyperplane_in(rows, drows, dpiv)
        # the action of a complement direction of hyper in sub
        z = next(r for r in rows if any(_reduce(r, hrows, hpiv)))
        mz, nilpotent = act(z), not any(_reduce(z, *qq))
        if not any(x for r in hrows for row in act(r) for x in row):
            # hyper acts by zero: its weight space is the whole space
            return least(_eigenspaces(mz, space_dim, nilpotent))
        found = recurse(hrows, hpiv, qq)
        if found is None:
            return None
        w, space = found  # space: hyper's weight space for w's weight
        if len(space) == 1:  # a line: mz fixes it, and w is its least vector
            if not fixes(mz, w):  # pragma: no cover - invariance lemma
                raise SolvdiagError("weight space not invariant")
            return w, [w]
        # mz restricted to the weight space (invariant in char 0), on the
        # basis of its reduced echelon rows times the lcm of their pivots
        wrows, wpiv = linalg.echelon(space)
        lcm, basis = _at_common_pivot(wrows, wpiv)
        free = [j for j in range(space_dim) if j not in wpiv]
        restr = []  # columns: lcm times the coordinates of mz b, read at the pivots
        for b in basis:
            img = [sum(x * y for x, y in zip(row, b) if y) for row in mz]
            restr.append([img[p] for p in wpiv])
            # at the pivots the combination is lcm * img by construction
            back = [sum(c * v[j] for c, v in zip(restr[-1], basis)) for j in free]
            if back != [lcm * img[j] for j in free]:  # pragma: no cover - invariance lemma
                raise SolvdiagError("weight space not invariant")
        return least(_eigenspaces(list(zip(*restr)), len(wpiv), nilpotent), basis)

    if not any(entries):  # every e_i acts by zero
        return linalg.unit_vec(space_dim, 0)
    full = Subspace.full(n)
    found = recurse(full.int_rows, full.pivots)
    if found is None:
        return None
    w = found[0]
    if not all(fixes(a, w) for a in rep):  # pragma: no cover - theory guard
        raise SolvdiagError("descent produced a non-eigenvector")
    return linalg.divided(w, next(x for x in w if x))


class SolvabilityVerdict(Enum):
    COMPLETELY_SOLVABLE = "COMPLETELY_SOLVABLE"
    NOT_SOLVABLE = "NOT_SOLVABLE"
    UNDECIDED_IRRATIONAL_SPECTRUM = "UNDECIDED_IRRATIONAL_SPECTRUM"


@dataclass(frozen=True)
class SolvabilityCertificate:
    verdict: SolvabilityVerdict
    witness: tuple[Subspace, ...] | None  # ascending chain of ideals of g, dims 1..n


def solvability_verdict(alg: LieAlgebra) -> SolvabilityVerdict:
    """The verdict of `complete_solvability_certificate`, from the spectra
    of the ad(e_i) and without the flag.

    NOT_SOLVABLE when the derived series does not reach zero.  Otherwise
    COMPLETELY_SOLVABLE exactly when ad(e_i) splits over Q for every unit
    vector e_i off the pivots of [g, g], and UNDECIDED_IRRATIONAL_SPECTRUM
    when one does not.  This is exact.  Over the algebraic closure, Lie's
    theorem makes the adjoint representation of a solvable g triangular;
    its diagonal gives weights lambda_k, which vanish on [g, g], and ad(x)
    has the eigenvalues lambda_k(x).  Those unit vectors span g together
    with [g, g], so if every lambda_k(e_i) is rational, every lambda_k is.
    Each weight space is then defined over Q, so every level of the
    certificate's quotient descent finds a rational common eigenvector,
    which is exactly when the certificate succeeds.  Conversely, a flag of
    ideals over Q makes every ad(x) triangular over Q.

    ad(e_i) is read off `alg.consts[i]` on ints, denom times the true
    matrix, which moves no eigenvalue off Q.  A triangular one splits
    (`_triangular`); for any other, the rational roots of its
    `linalg.charpoly` are divided out exactly, as often as each divides,
    and it splits when nothing is left.  [g, g] is built once: it starts
    the derived series and its pivots pick the unit vectors.
    """
    n = alg.dim
    derived = derived_subalgebra(alg)
    if not _series_reaches_zero(derived, alg.derived_span):
        return SolvabilityVerdict.NOT_SOLVABLE
    for i in range(n):
        if i in derived.pivots:
            continue
        ad = [[0] * n for _ in range(n)]
        for j, cs in enumerate(alg.consts[i]):
            for k, c in cs:
                ad[k][j] = c
        if not _triangular(ad):
            poly = linalg.charpoly(ad)
            for r in linalg.rational_roots(poly):
                while linalg.poly_eval(poly, r) == 0:
                    poly = linalg._poly_quo(poly, [-r, 1])
            if len(poly) > 1:
                return SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM
    return SolvabilityVerdict.COMPLETELY_SOLVABLE


def complete_solvability_certificate(alg: LieAlgebra) -> SolvabilityCertificate:
    """Certify complete solvability by a flag of ideals, over Q.

    Level k finds a rational common eigenvector v of g acting on
    g/I_(k-1) (`common_eigenvector`) and sets I_k = I_(k-1) + <v>.  The
    structure constants of g/I_(k-1) are the table of g reduced modulo
    I_(k-1), which vanishes on the pivot columns of I_(k-1) and so is
    already in quotient coordinates.  The table is kept as ints, D > 0
    times the true one; the descent sees only ratios, so D never shows.
    Each level reads its table's nonzero constants and its ad matrices
    straight off those ints, with no dense table, and hands them to the
    descent.  Then it reduces by the new member's primitive row q, with
    pivot p and d = q[p] > 0 (r becomes d*r - r[p]*q), the live brackets
    [e_i, e_j] only, i off the pivots of I_k and j off those of I_(k-1),
    and divides them by their content.  It checks [e_i, q] = 0 modulo I_k
    for each such i (NotAnIdealError otherwise).  That proves I_k an ideal:
    I_(k-1) is one, q is supported off its pivots, and e_p is
    (q - sum of q_j e_j) / d.  Besides the descent, a level costs O(n^3)
    integer operations.  When the descent finds no rational eigenvector,
    `solvability_verdict` tells NOT_SOLVABLE from
    UNDECIDED_IRRATIONAL_SPECTRUM; if it says COMPLETELY_SOLVABLE there,
    the descent is at fault and a SolvdiagError is raised.
    """
    n = alg.dim
    # D [e_i, e_j] mod carried
    red = [[_dense(cs, n) for cs in row] for row in alg.consts]
    members: list[Subspace] = []
    carried = Subspace.zero(n)
    keep = list(range(n))  # quotient coordinates: non-pivot columns of carried
    while keep:
        rows, at = [red[a] for a in keep], list(enumerate(keep))  # the level's table
        consts = [[[(t, x) for t, k in at if (x := r[b][k])] for b in keep] for r in rows]
        rep = [[[r[b][k] for b in keep] for k in keep] for r in rows]
        v = common_eigenvector(SimpleNamespace(dim=len(keep), consts=consts), rep, len(keep))
        if v is None:
            verdict = solvability_verdict(alg)
            if verdict is SolvabilityVerdict.COMPLETELY_SOLVABLE:
                raise SolvdiagError("descent found no rational eigenvector of a split spectrum")
            return SolvabilityCertificate(verdict, None)
        lifted = [0] * n
        for c, i in zip(linalg._primitive(v), keep):
            lifted[i] = c
        carried, (q,) = _grow(carried, [lifted])  # q: the new echelon row
        members.append(carried)
        support = [(j, c) for j, c in enumerate(q) if c]
        p, d = support[0]  # q's pivot and its entry there
        live, keep = keep, [k for k in keep if k != p]
        cells = [(i, j) for i in keep for j in live]  # all that is read from here on
        for i, j in cells:
            if (r := red[i][j])[p] or d != 1:
                red[i][j] = [d * x - r[p] * y for x, y in zip(r, q)]
        if d != 1 and (g := math.gcd(*(x for i, j in cells for x in red[i][j]))) > 1:
            for i, j in cells:
                red[i][j] = [x // g for x in red[i][j]]
        # [e_i, q] reduced modulo the new carried must vanish
        if any(sum(c * red[i][j][k] for j, c in support) for i in keep for k in keep):
            raise NotAnIdealError("certificate member is not an ideal")
    return SolvabilityCertificate(SolvabilityVerdict.COMPLETELY_SOLVABLE, tuple(members))
