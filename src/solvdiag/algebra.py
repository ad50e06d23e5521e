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
`ad_matrix` divide once.  A dense integer dot product is written
sum(map(mul, a, b)), which loops in C (math.sumprod needs Python 3.12).
The Fraction views `Subspace.rows` and
`LieAlgebra.table` are built on first read.  All predicates (subalgebra,
ideal, nilpotent, ...) are decided exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .linalg import Matrix, Vector


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


class _Frozen:
    """An immutable value: its slots are set by `_init` (a derived fact by
    `_kept`), and assigning or deleting an attribute is an AttributeError."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def _kept(obj, slot: str, build):
    """The value kept in obj's `slot`, made by build(obj) and kept there on
    the first call; an exception from build keeps nothing.  No construction
    path sets such a slot: it stays unset until the first call."""
    value = getattr(obj, slot, None)
    if value is None:
        value = build(obj)
        _init(obj, **{slot: value})
    return value


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


def _insert_row(rows: list, pivots: list, v: Sequence[int]) -> bool:
    """Grow the canonical echelon rows and pivots (`linalg.echelon`'s form)
    in place by the integer vector v; False when v is in their span.  The
    remainder of v (`_reduce`) is made primitive at its pivot c, cleared
    from the rows with a pivot below c and inserted in pivot order."""
    v = _reduce(v, rows, pivots)
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None:
        return False
    v = linalg.primitive_at(v, c)
    for i, r in enumerate(rows):
        if r[c]:
            g = math.gcd(v[c], r[c])
            a, b = v[c] // g, r[c] // g
            rows[i] = linalg.primitive_at([a * x - b * y for x, y in zip(r, v)], pivots[i])
    at = bisect.bisect(pivots, c)
    rows.insert(at, v)
    pivots.insert(at, c)
    return True


def _at_common_pivot(rows, pivots) -> tuple[int, list[list[int]]]:
    """(L, rows): L the lcm of the pivots of the integer echelon rows, and each
    row scaled to pivot L, so that it is L times its reduced echelon row."""
    lcm = math.lcm(*(r[p] for r, p in zip(rows, pivots)))
    return lcm, [[x * (lcm // r[p]) for x in r] for r, p in zip(rows, pivots)]


class Subspace(_Frozen):
    """A subspace of Q^n in canonical echelon form (immutable).

    Stored as its primitive integer echelon rows `int_rows` (`linalg.echelon`:
    coprime entries, positive pivot), as canonical as the reduced row
    echelon form, so equality and hashing compare them.  Membership, sums
    and intersections eliminate on them fraction-free; a sum inserts the
    rows of one into the other (`_grow`), with no echelon.  `rows`,
    the reduced row echelon form over Fraction, is a view built on first
    read.  The rows given go to `linalg.echelon` as they are, with no copy.
    """

    __slots__ = ("ambient_dim", "int_rows", "pivots", "_rows")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence]) -> None:
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length does not match ambient dimension")
        ech, pivots = linalg.echelon(rows)  # coerces each entry once
        ech = tuple(map(tuple, ech))
        _init(self, ambient_dim=ambient_dim, int_rows=ech, pivots=tuple(pivots))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, [])

    @classmethod
    def _of(cls, n: int, rows: Iterable[Sequence[int]], pivots: Iterable[int]) -> "Subspace":
        """The subspace of Q^n with the rows and pivots of `linalg.echelon`, taken as they are."""
        space, rows = object.__new__(cls), tuple(map(tuple, rows))
        return _init(space, ambient_dim=n, int_rows=rows, pivots=tuple(pivots))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._of(n, ([int(i == j) for j in range(n)] for i in range(n)), range(n))

    @property
    def rows(self) -> Matrix:
        return _kept(self, "_rows", lambda s: linalg.reduced(s.int_rows, s.pivots))

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
        combos = [[sum(map(mul, y, col)) for col in columns] for y in u.int_rows]
        return Subspace(self.ambient_dim, combos)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("row length does not match ambient dimension")
        return _grow(self, other.int_rows)[0]

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


class Flag(_Frozen):
    """A chain of subspaces, kept exactly as given (validation is separate)."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Subspace]) -> None:
        ms = tuple(members)
        if not ms:
            raise ValueError("a flag needs at least one member")
        ambient = ms[0].ambient_dim
        for m in ms:
            if m.ambient_dim != ambient:
                raise ValueError("flag members live in different ambient spaces")
        _init(self, members=ms)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"Flag(dims={self.dims})"


def vector_sort_key(v: Vector):
    """Canonical order on normalized vectors: earliest leading entry wins."""
    pivot = next((i for i, x in enumerate(v) if x != 0), len(v))
    return (pivot, v)


def _ibracket(consts, xs, ys) -> list[int]:
    """denom * [x, y] on ints, x and y given by their nonzero entries
    (index, value): the sum of x_i y_j c over the constants (k, c) of
    [e_i, e_j] in consts (a table's `consts`, of dimension len(consts))."""
    out = [0] * len(consts)
    for i, x in xs:
        row = consts[i]
        for j, y in ys:
            if cs := row[j]:
                f = x * y
                for k, c in cs:
                    out[k] += f * c
    return out


def _ad(consts, x: Sequence[int]) -> list[list[int]]:
    """denom * ad_x on ints, for the integer vector x: entry (k, j) is the
    e_k coefficient of denom * [x, e_j], the sum of x_i c over the constants
    (k, c) of [e_i, e_j] in consts (a table's `consts`)."""
    n = len(consts)
    out = [[0] * n for _ in range(n)]
    for xi, row in zip(x, consts):
        if xi:
            for j, cs in enumerate(row):
                for k, c in cs:
                    out[k][j] += xi * c
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


def _check_dims(alg: VectorTable, *spaces: Subspace) -> None:
    """A ValueError naming both dimensions for a subspace outside Q^n of the algebra."""
    for s in spaces:
        if s.ambient_dim != alg.dim:
            raise ValueError(f"a subspace of Q^{s.ambient_dim} for an algebra on Q^{alg.dim}")


class VectorTable(_Frozen):
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
        _init(self, dim=n, consts=consts, denom=denom)

    @classmethod
    def _of(cls, consts, denom: int, **attrs):
        """The table consts / denom, put in lowest terms, with no Fraction built
        (the constructor is the boundary that coerces values): consts[i][j]
        lists the nonzero (k, c) of denom * table[i][j], denom > 0; attrs sets
        a subclass's other slots."""
        g = math.gcd(denom, *(c for row in consts for cs in row for _, c in cs))
        consts = tuple(tuple(tuple((k, c // g) for k, c in cs) for cs in row) for row in consts)
        table = object.__new__(cls)
        return _init(table, dim=len(consts), consts=consts, denom=denom // g, **attrs)

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        return _kept(self, "_table", lambda t: tuple(
            tuple(linalg.divided(_dense(cs, t.dim), t.denom) for cs in row) for row in t.consts
        ))

    def apply(self, x: Sequence, y: Sequence) -> Vector:
        """The sum of x_i y_j table[i][j] over the nonzero coordinates of x and
        y and the nonzero constants of table[i][j], on ints, divided once.
        An entry that is not exact is a TypeError, a wrong length a ValueError."""
        (x, sx), (y, sy) = linalg.scaled_ints(x, self.dim), linalg.scaled_ints(y, self.dim)
        return linalg.divided(_ibracket(self.consts, *_sparse((x, y))), sx * sy * self.denom)


class LieAlgebra(VectorTable):
    """Finite-dimensional Lie algebra over Q given by structure constants:
    the VectorTable of the brackets [e_i, e_j] of the named basis.

    Five facts about this object are kept once built, each in its slot:
    `_certificate` (`complete_solvability_certificate`), `_derived`
    (`derived_subalgebra`), `_verdict` (`solvability_verdict`), `_report`
    (`validate_algebra`) and `_d`, the matrix of d on 2-forms
    (`forms._d_rows`).  Until then a slot is unset, on every construction
    path, and is read with a default; see `_kept`."""

    __slots__ = ("names", "_certificate", "_derived", "_verdict", "_report", "_d")

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
            v = {idx[k]: r for k, c in val.items() if (r := linalg._ratio(c))[0]}
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
        """Matrix of ad_x = [x, .] acting on coordinate columns (row-major): entry
        (k, j) is the e_k coefficient of [x, e_j], `_ad` on ints, divided once."""
        x, sx = linalg.scaled_ints(x, self.dim)
        return tuple(linalg.divided(r, sx * self.denom) for r in _ad(self.consts, x))

    def bracket_spans(self, s: Subspace, t: Subspace) -> Subspace:
        _check_dims(self, s, t)
        cs, ts = self.consts, _sparse(t.int_rows)
        return Subspace(self.dim, [_ibracket(cs, a, b) for a in _sparse(s.int_rows) for b in ts])

    def derived_span(self, s: Subspace) -> Subspace:
        """[s, s], from the brackets of the pairs a < b of s's echelon rows.

        Equal to `bracket_spans(s, s)` when the table is antisymmetric with
        zero diagonal, as every table `from_brackets`, `change_basis`,
        `quotient`, `subalgebra_as_algebra`, the generators and the
        certificate's reduction build is: [a, a] = 0 and [b, a] = -[a, b]
        add nothing to the span.
        """
        _check_dims(self, s)
        sup = _sparse(s.int_rows)
        pairs = [(a, b) for i, a in enumerate(sup) for b in sup[i + 1 :]]
        return Subspace(self.dim, [_ibracket(self.consts, a, b) for a, b in pairs])

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

    The report is built once per algebra object and kept in its `_report`
    slot: the document reader's check is the one every later call reads.
    The Jacobi sum of i < j < k is [[e_i,e_j],e_k] + [[e_j,e_k],e_i] +
    [[e_k,e_i],e_j], each bracket read from the table as given (so a table
    that is not antisymmetric is checked as it stands): the sum over the
    nonzero c[a][b][m] and c[m][z][l] of their product, into coordinate l.
    """
    return _kept(alg, "_report", _build_report)


def _build_report(alg: LieAlgebra) -> AlgebraValidationReport:
    """`validate_algebra` of an object that has none yet."""
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
    the sum at the pivots cur lacks.  Each vector is inserted into cur's
    rows (`_insert_row`), and cur is returned as it is when none grows them."""
    rows, pivots = list(cur.int_rows), list(cur.pivots)
    for v in vectors:
        _insert_row(rows, pivots, v)
    if len(rows) == cur.dim:
        return cur, []
    old = set(cur.pivots)
    return Subspace._of(cur.ambient_dim, rows, pivots), [
        r for r, p in zip(rows, pivots) if p not in old
    ]


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
    _check_dims(alg, old)
    cur, new = _grow(old, Subspace(alg.dim, vectors).int_rows)
    while new:
        new, base = _sparse(new), _sparse(old.int_rows)
        old = cur
        pairs = [(a, b) for i, a in enumerate(new) for b in new[i + 1 :] + base]
        cur, new = _grow(cur, [_ibracket(alg.consts, a, b) for a, b in pairs])
    return cur


def ideal_closure(alg: LieAlgebra, s: Subspace) -> Subspace:
    """Smallest ideal of the algebra containing s.

    Semi-naive: each round brackets the basis only with the directions
    added in the last round, y, through the columns [y, e_j] of ad_y, which
    span the [e_j, y] as the table is antisymmetric.
    """
    _check_dims(alg, s)
    cur, new = s, list(s.int_rows)
    while new:
        cur, new = _grow(cur, [col for y in new for col in zip(*_ad(alg.consts, y))])
    return cur


def is_subalgebra(alg: LieAlgebra, s: Subspace) -> bool:
    _check_dims(alg, s)
    sup = _sparse(s.int_rows)
    return all(s._has(_ibracket(alg.consts, a, b)) for i, a in enumerate(sup) for b in sup[i + 1 :])


def is_ideal_in(alg: LieAlgebra, s: Subspace, t: Subspace) -> bool:
    """Whether [t, s] is contained in s.  Requires s within t, tested only
    for a proper t: the whole space contains every s that `_check_dims` passes."""
    _check_dims(alg, s, t)
    if t.dim < alg.dim and not t.contains(s):
        raise SubspaceNotNestedError("s is not contained in t")
    ss = _sparse(s.int_rows)
    return all(s._has(_ibracket(alg.consts, x, y)) for x in _sparse(t.int_rows) for y in ss)


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
    """[g, g], built once per algebra object and kept in its `_derived` slot."""
    return _kept(alg, "_derived", lambda g: g.derived_span(Subspace.full(g.dim)))


def is_solvable(alg: LieAlgebra) -> bool:
    """Whether the derived series, from the kept [g, g] on, reaches zero."""
    return _series_reaches_zero(derived_subalgebra(alg), alg.derived_span)


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

    `change_basis` to the unit vectors off the ideal's pivots followed by
    the ideal's echelon rows: the ideal is the span of the last basis
    vectors, so the first block of the constants is the quotient's, and the
    first coordinates of each e_j on that basis (one `linalg.int_solve`)
    are its projection.  Names are inherited from the kept coordinates.
    """
    full = Subspace.full(alg.dim)
    if not is_ideal_in(alg, ideal, full):
        raise NotAnIdealError("quotient requires an ideal of the full algebra")
    keep = [i for i in range(alg.dim) if i not in ideal.pivots]
    basis = [full.int_rows[i] for i in keep] + list(ideal.int_rows)
    m, moved = len(keep), change_basis(alg, basis)
    consts = [[[(k, c) for k, c in cs if k < m] for cs in row[:m]] for row in moved.consts[:m]]
    ys, d = linalg.int_solve(list(zip(*basis)), full.int_rows)
    matrix = tuple(linalg.divided([y[k] for y in ys], d) for k in range(m))
    return LieAlgebra._of(consts, moved.denom, names=tuple(alg.names[i] for i in keep)), matrix


def subalgebra_as_algebra(alg: LieAlgebra, s: Subspace) -> LieAlgebra:
    """The subalgebra as a standalone algebra.

    Basis of the result = the reduced echelon rows of s (names b0, b1, ...),
    so `s.coordinates` and `s.lift` carry subspaces into it and back.  As s
    is bracket-closed, the coordinates of a bracket are its entries at s's
    pivots.
    """
    _check_dims(alg, s)
    # the rows scaled to their common pivot L are L times the reduced rows, so
    # their integer bracket is denom * L^2 times the bracket of the reduced rows
    lcm, rows = s._common_pivot_rows()
    sup = _sparse(rows)
    brackets = [[_ibracket(alg.consts, a, b) for b in sup] for a in sup]
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
    sup, cs = _sparse(m_int), table.consts
    solved = linalg.int_solve(list(zip(*m_int)), [_ibracket(cs, x, y) for x in sup for y in sup])
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
    when `_insert_row` grows the rows kept so far; no `echelon` is taken.
    """
    rows, pivots = list(rows), list(pivots)
    for row in inside:
        if len(rows) == len(inside) - 1:
            break
        _insert_row(rows, pivots, row)
    if len(rows) != len(inside) - 1:  # pragma: no cover - containing must fit
        raise ValueError("cannot extend to a hyperplane")
    return rows, pivots


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

    A forced spectrum is read off m: one the caller knows nilpotent has its
    kernel, a triangular one (1x1 included) its diagonal."""
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


def common_eigenvector(consts) -> list[int] | None:
    """A rational common eigenvector of the adjoint action, or None.

    consts are the integer structure constants of the acting algebra, laid
    out as `VectorTable.consts` and taken as they are: e_i acts by ad(e_i)
    (`_ad`), and any positive multiple of the true constants gives the same
    answer.  Returns the canonical least eigenvector in vector_sort_key's
    order as a primitive integer vector, positive at its pivot, or None when
    the descent needs an eigenvalue that is not rational (or the algebra
    turns out non-solvable along the way).  An empty table is a ValueError.

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
    route returns for the spectrum {0}.  The vector w the descent returns
    is checked once: every column [w, e_i] of ad_w is a multiple of w.
    The descent runs on ints: an element acts through its primitive
    integer multiple, so each action matrix is a positive multiple of the
    true one.  That scales weights and moves no span, eigenspace or
    normalized eigenvector.  Vectors stay primitive integer ones up the
    recursion, and the top returns its vector as it is.
    """
    n = len(consts)
    if not n:
        raise ValueError("the acting algebra must have dimension >= 1")

    def parallel(img, w: list[int]) -> bool:
        """Whether img is a multiple of w, by cross-multiplying over w's pivot entry."""
        t, den = next((j, y) for j, y in enumerate(w) if y)
        return all(x * den == img[t] * y for x, y in zip(img, w))

    def least(eigenspaces, columns=None) -> tuple[list[int], list] | None:
        """The least eigenvector (coordinates on the basis with these
        columns, if given) in vector_sort_key's order, primitive and positive
        at its pivot, and its eigenspace, in Q^n; cross-multiplied over the
        pivot entry."""
        best, q, held = None, 0, None
        for eigenspace in eigenspaces:
            if columns is not None:
                eigenspace = [[sum(map(mul, v, col)) for col in columns] for v in eigenspace]
            for v in eigenspace:
                p = next(i for i, x in enumerate(v) if x)
                v = linalg.primitive_at(v, p)
                if best is None or (p, [x * best[q] for x in v]) < (q, [y * v[p] for y in best]):
                    best, q, held = v, p, eigenspace
        return None if best is None else (best, held)

    def recurse(rows, pivots, qq=None) -> tuple[list[int], list] | None:
        """The descent below the subalgebra sub with echelon rows and pivots:
        w, primitive and positive at its pivot, and sub's weight space for
        it.  qq is the echelon of [q, q], from the top stage."""
        sup = _sparse(rows)
        pairs = [(x, y) for a, x in enumerate(sup) for y in sup[a + 1 :]]
        drows, dpiv = linalg.echelon([_ibracket(consts, *xy) for xy in pairs]) if pairs else ([], [])
        if len(dpiv) >= len(pivots):
            return None  # not solvable
        qq = qq or (drows, dpiv)
        hrows, hpiv = _hyperplane_in(rows, drows, dpiv)
        # the action of a complement direction of hyper in sub
        z = next(r for r in rows if any(_reduce(r, hrows, hpiv)))
        mz, nilpotent = _ad(consts, z), not any(_reduce(z, *qq))
        if not any(x for r in hrows for row in _ad(consts, r) for x in row):
            # hyper acts by zero: its weight space is the whole space
            return least(_eigenspaces(mz, n, nilpotent))
        found = recurse(hrows, hpiv, qq)
        if found is None:
            return None
        w, space = found  # space: hyper's weight space for w's weight
        if len(space) == 1:  # a line: mz fixes it, and w is its least vector
            img = [sum(map(mul, row, w)) for row in mz]
            if not parallel(img, w):  # pragma: no cover - invariance lemma
                raise SolvdiagError("weight space not invariant")
            return w, [w]
        # mz restricted to the weight space (invariant in char 0), on the
        # basis of its reduced echelon rows times the lcm of their pivots
        wrows, wpiv = linalg.echelon(space)
        lcm, basis = _at_common_pivot(wrows, wpiv)
        columns = list(zip(*basis))
        free = [j for j in range(n) if j not in wpiv]
        restr = []  # columns: lcm times the coordinates of mz b, read at the pivots
        for b in basis:
            img = [sum(map(mul, row, b)) for row in mz]
            restr.append([img[p] for p in wpiv])
            # at the pivots the combination is lcm * img by construction
            back = [sum(map(mul, restr[-1], columns[j])) for j in free]
            if back != [lcm * img[j] for j in free]:  # pragma: no cover - invariance lemma
                raise SolvdiagError("weight space not invariant")
        return least(_eigenspaces(list(zip(*restr)), len(wpiv), nilpotent), columns)

    if not any(cs for row in consts for cs in row):  # every e_i acts by zero
        return [1] + [0] * (n - 1)
    full = Subspace.full(n)
    found = recurse(full.int_rows, full.pivots)
    if found is None:
        return None
    w = found[0]
    if not all(parallel(col, w) for col in zip(*_ad(consts, w))):  # pragma: no cover - theory guard
        raise SolvdiagError("descent produced a non-eigenvector")
    return w


class SolvabilityVerdict(Enum):
    COMPLETELY_SOLVABLE = "COMPLETELY_SOLVABLE"
    NOT_SOLVABLE = "NOT_SOLVABLE"
    UNDECIDED_IRRATIONAL_SPECTRUM = "UNDECIDED_IRRATIONAL_SPECTRUM"


@dataclass(frozen=True)
class SolvabilityCertificate:
    """The verdict, and with a witness its weights: g acts on I_k / I_(k-1),
    spanned by the new row q of I_k, by [x, q] = lambda_k(x) q mod I_(k-1),
    and `weights[k - 1][i]` is lambda_k(e_i) times `weight_denom` > 0, in
    lowest terms.  None, and 1, without a witness."""

    verdict: SolvabilityVerdict
    witness: tuple[Subspace, ...] | None  # ascending chain of ideals of g, dims 1..n
    weights: tuple[tuple[int, ...], ...] | None = None
    weight_denom: int = 1

    @property
    def flag(self) -> Flag | None:
        """Zero, then the witness (n members, dims 1..n); None without a witness."""
        if self.witness is None:
            return None
        return Flag((Subspace.zero(len(self.witness)),) + self.witness)


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

    ad(e_i) is `_ad` of the unit vector, on ints, denom times the true
    matrix, which moves no eigenvalue off Q.  A triangular one splits
    (`_triangular`); for any other, the rational roots of its
    `linalg.charpoly` are divided out exactly, as often as each divides,
    and it splits when nothing is left.  [g, g] is the kept
    `derived_subalgebra`: it starts the derived series and its pivots pick
    the unit vectors.  The verdict is built once per algebra object and
    kept in its `_verdict` slot.  It is never read off the certificate,
    nor the certificate off it: the certificate asks for it only as the
    cross-check of a descent that finds nothing.
    """
    return _kept(alg, "_verdict", _build_verdict)


def _build_verdict(alg: LieAlgebra) -> SolvabilityVerdict:
    """`solvability_verdict` of an object that has none yet."""
    n, derived = alg.dim, derived_subalgebra(alg)
    if not is_solvable(alg):
        return SolvabilityVerdict.NOT_SOLVABLE
    for i in range(n):
        if i in derived.pivots:
            continue
        ad = _ad(alg.consts, [int(j == i) for j in range(n)])
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

    The certificate is built once per algebra object, kept in its
    `_certificate` slot and freed with it; every later call on the same
    object returns that same certificate.  A `change_basis`, `quotient` or
    `subalgebra_as_algebra` result is a new object and builds its own.  A
    refusal (NotAnIdealError, SolvdiagError) keeps nothing, so the next call
    builds afresh.

    Level k finds a rational common eigenvector v of g acting on
    g/I_(k-1) (`common_eigenvector`) and sets I_k = I_(k-1) + <v>.  The
    structure constants of g/I_(k-1) are the table of g reduced modulo
    I_(k-1), which vanishes on the pivot columns of I_(k-1) and so is
    already in quotient coordinates.  The table is kept as ints, D > 0
    times the true one; the descent sees only ratios, so D never shows.
    Each level reads its table's nonzero constants straight off those ints,
    with no dense table, and hands them to the descent as they are; v comes
    back as an integer row.  Then it reduces by the new member's primitive
    row q, with pivot p and d = q[p] > 0 (r becomes d*r - r[p]*q), the live
    brackets [e_i, e_j] only, i off the pivots of I_k and j off those of I_(k-1),
    and divides them by their content.  It checks [e_i, q] = 0 modulo I_k
    for each such i (NotAnIdealError otherwise).  That proves I_k an ideal:
    I_(k-1) is one, q is supported off its pivots, and e_p is
    (q - sum of q_j e_j) / d.  Before that reduction, the same brackets
    give the level's weight with no new elimination: reduced modulo
    I_(k-1), sum of q_j [e_i, e_j] is lambda_k(e_i) q, read at p for each
    such i; lambda_k vanishes on the ideal I_k, so the echelon row r of I_k
    with pivot t gives r_t lambda_k(e_t) = -sum of r_j lambda_k(e_j) over
    the j off I_k's pivots.  Besides the descent, a level costs O(n^3)
    integer operations.  When the descent finds no rational eigenvector,
    `solvability_verdict` tells NOT_SOLVABLE from
    UNDECIDED_IRRATIONAL_SPECTRUM; if it says COMPLETELY_SOLVABLE there,
    the descent is at fault and a SolvdiagError is raised.
    """
    return _kept(alg, "_certificate", _build_certificate)


def _build_certificate(alg: LieAlgebra) -> SolvabilityCertificate:
    """`complete_solvability_certificate` of an object that has none yet."""
    n = alg.dim
    # scale_num / scale_den times [e_i, e_j] mod carried
    red = [[_dense(cs, n) for cs in row] for row in alg.consts]
    scale_num, scale_den = alg.denom, 1
    members: list[Subspace] = []
    weights: list[tuple[list[int], int]] = []  # per member, ints over an int denominator
    carried = Subspace.zero(n)
    keep = list(range(n))  # quotient coordinates: non-pivot columns of carried
    while keep:
        rows, at = [red[a] for a in keep], list(enumerate(keep))  # the level's table
        consts = [[[(t, x) for t, k in at if (x := r[b][k])] for b in keep] for r in rows]
        v = common_eigenvector(consts)
        if v is None:
            verdict = solvability_verdict(alg)
            if verdict is SolvabilityVerdict.COMPLETELY_SOLVABLE:
                raise SolvdiagError("descent found no rational eigenvector of a split spectrum")
            return SolvabilityCertificate(verdict, None)
        carried, (q,) = _grow(carried, [_dense(zip(keep, v), n)])  # q: the new echelon row
        members.append(carried)
        support = [(j, c) for j, c in enumerate(q) if c]
        p, d = support[0]  # q's pivot and its entry there
        live, keep = keep, [k for k in keep if k != p]
        # lam is d * scale_num / scale_den times lambda_k off I_k's pivots;
        # with L the lcm of I_k's pivot entries, it becomes L * d * scale_num
        # times lambda_k everywhere, in ints
        lam = [0] * n
        for i in keep:
            lam[i] = sum(c * red[i][j][p] for j, c in support)
        if any(lam):
            lcm = math.lcm(*(r[t] for r, t in zip(carried.int_rows, carried.pivots)))
            for r, t in zip(carried.int_rows, carried.pivots):
                lam[t] = -sum(r[j] * lam[j] for j in keep) * (lcm // r[t]) * scale_den
            for i in keep:
                lam[i] *= lcm * scale_den
            weights.append((lam, lcm * d * scale_num))
        else:
            weights.append((lam, 1))
        cells = [(i, j) for i in keep for j in live]  # all that is read from here on
        for i, j in cells:
            if (r := red[i][j])[p] or d != 1:
                red[i][j] = [d * x - r[p] * y for x, y in zip(r, q)]
        scale_num *= d
        if d != 1 and (g := math.gcd(*(x for i, j in cells for x in red[i][j]))) > 1:
            for i, j in cells:
                red[i][j] = [x // g for x in red[i][j]]
            scale_den *= g
        # [e_i, q] reduced modulo the new carried must vanish
        if any(sum(c * red[i][j][k] for j, c in support) for i in keep for k in keep):
            raise NotAnIdealError("certificate member is not an ideal")
    den = math.lcm(*(level for _, level in weights))
    rows = [[x * (den // level) for x in lam] for lam, level in weights]
    g = math.gcd(den, *(x for r in rows for x in r))
    return SolvabilityCertificate(
        SolvabilityVerdict.COMPLETELY_SOLVABLE,
        tuple(members),
        tuple(tuple(x // g for x in r) for r in rows),
        den // g,
    )
