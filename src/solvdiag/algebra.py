"""Lie algebras by exact rational structure constants, and canonical subspaces.

A Subspace is stored as its reduced row echelon basis, which is the unique
canonical representative of a rational subspace: equality of subspaces is
literal equality of matrices.  A LieAlgebra is a dense table of bracket
vectors c[i][j] = [e_i, e_j] over a named basis, plus the nonzero entries of
each bracket, read once when the algebra is built; values are coerced to
Fraction once, at that boundary.  Brackets, ad matrices and the Jacobi check
walk the nonzero entries only.  All predicates (subalgebra, ideal,
nilpotent, ...) are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .linalg import Matrix, Vector, ZERO, ONE, frac


class SolvdiagError(Exception):
    """Base error; `code` is the stable machine-readable identifier."""

    code = "ERROR"


class SubspaceNotNestedError(SolvdiagError):
    code = "SUBSPACE_NOT_NESTED"


class NotSubalgebraError(SolvdiagError):
    code = "NOT_SUBALGEBRA"


class NotAnIdealError(SolvdiagError):
    code = "NOT_AN_IDEAL"


class Subspace:
    """A subspace of Q^n in canonical reduced-row-echelon form (immutable)."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: Iterable[Iterable]) -> None:
        rows = [tuple(r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length does not match ambient dimension")
        red, pivots = linalg.rref(rows)  # coerces each entry once
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", red)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, [])

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, linalg.identity(n))

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def reduce_vector(self, v: Sequence) -> Vector:
        """Remainder of v after eliminating along the echelon rows.

        An echelon row is zero before its pivot column, so each step starts
        there and skips the row's zero entries.
        """
        v = list(linalg.vec(v))
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector of length {len(v)} in Q^{self.ambient_dim}")
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(p, len(row)):
                    y = row[j]
                    if y:
                        v[j] -= c * y
        return tuple(v)

    def contains_vector(self, v: Sequence) -> bool:
        return linalg.is_zero_vec(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def coordinates_of(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the echelon row basis, or None if v is outside."""
        v = linalg.vec(v)
        if not self.contains_vector(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ambient_dim, list(self.rows) + list(other.rows))

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on this subspace (coordinates in the dual basis)."""
        return Subspace(self.ambient_dim, linalg.nullspace(self.rows, self.ambient_dim))

    def intersect(self, other: "Subspace") -> "Subspace":
        ann = list(self.annihilator().rows) + list(other.annihilator().rows)
        return Subspace(self.ambient_dim, linalg.nullspace(ann, self.ambient_dim))

    def sort_key(self):
        """Total order used for every canonical tie-break: earliest pivots win."""
        return (self.dim, self.pivots, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, rows={self.rows!r})"


def vector_sort_key(v: Vector):
    """Canonical order on normalized vectors: earliest leading entry wins."""
    pivot = next((i for i, x in enumerate(v) if x != 0), len(v))
    return (pivot, v)


def normalize_vector(v: Vector) -> Vector:
    for x in v:
        if x != 0:
            return linalg.vscale(ONE / x, v)
    return v


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    `table[i][j]` is the dense vector [e_i, e_j]; `nonzero[i][j]` lists its
    nonzero constants as ((k, c), ...) in increasing k, the same Fraction
    objects as the table.
    """

    __slots__ = ("dim", "names", "table", "nonzero")

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[Sequence]]) -> None:
        names = tuple(names)
        n = len(names)
        if len(set(names)) != n:
            raise ValueError("basis names must be distinct")
        tab = tuple(tuple(linalg.vec(table[i][j]) for j in range(n)) for i in range(n))
        for i in range(n):
            for j in range(n):
                if len(tab[i][j]) != n:
                    raise ValueError("bracket vector of wrong length")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", tab)
        object.__setattr__(
            self,
            "nonzero",
            tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row) for row in tab),
        )

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_brackets(cls, names: Sequence[str], entries) -> "LieAlgebra":
        """Build from sparse brackets {(name_i, name_j): {name_k: rational}}.

        Antisymmetry is filled in; a contradictory duplicate (both (i,j) and
        (j,i) given, not negatives of each other) is a hard error.
        """
        names = tuple(names)
        idx = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        seen: dict[tuple[int, int], Vector] = {}
        for (a, b), val in entries.items():
            i, j = idx[a], idx[b]
            if i == j:
                raise ValueError(f"bracket [{a},{a}] must be zero, not given")
            v = [ZERO] * n
            for k_name, c in val.items():
                v[idx[k_name]] = frac(c)
            v = tuple(v)
            if (i, j) in seen:
                if seen[(i, j)] != v:
                    raise ValueError(f"contradictory duplicate bracket [{a},{b}]")
                continue
            if (j, i) in seen and seen[(j, i)] != linalg.vscale(-ONE, v):
                raise ValueError(f"brackets [{a},{b}] and [{b},{a}] are not antisymmetric")
            seen[(i, j)] = v
            table[i][j] = list(v)
            if (j, i) not in seen:
                table[j][i] = [-x for x in v]
        return cls(names, table)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def basis_vector(self, name: str) -> Vector:
        return linalg.unit_vec(self.dim, self.index_of(name))

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y]: the sum of x_i y_j c over the nonzero coordinates of x and y
        and the nonzero constants (k, c) of [e_i, e_j]."""
        ys = linalg.support(y, self.dim)
        out = [ZERO] * self.dim
        for i, xi in linalg.support(x, self.dim):
            row = self.nonzero[i]
            for j, yj in ys:
                if cs := row[j]:
                    f = xi * yj
                    for k, c in cs:
                        out[k] += f * c
        return tuple(out)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of ad_x = [x, .] acting on coordinate columns (row-major).

        Entry (k, j) is the e_k coefficient of [x, e_j], the sum of
        x_i c[i][j][k] over the nonzero constants.
        """
        out = [[ZERO] * self.dim for _ in range(self.dim)]
        for i, xi in linalg.support(x, self.dim):
            for j, cs in enumerate(self.nonzero[i]):
                for k, c in cs:
                    out[k][j] += xi * c
        return tuple(tuple(r) for r in out)

    def bracket_spans(self, s: Subspace, t: Subspace) -> Subspace:
        vecs = [self.bracket(a, b) for a in s.rows for b in t.rows]
        return Subspace(self.dim, vecs)

    def derived_span(self, s: Subspace) -> Subspace:
        """[s, s], from the brackets of the pairs a < b of s's echelon rows.

        Equal to `bracket_spans(s, s)` when the table is antisymmetric with
        zero diagonal, as every table `from_brackets`, `change_basis`,
        `quotient`, `subalgebra_as_algebra`, the generators and the
        certificate's reduction build is: [a, a] = 0 and [b, a] = -[a, b]
        add nothing to the span.
        """
        rows = s.rows
        return Subspace(
            self.dim, [self.bracket(a, b) for i, a in enumerate(rows) for b in rows[i + 1 :]]
        )

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
    nz = alg.nonzero
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
                total: dict[int, Fraction] = {}
                for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in nz[a][b]:
                        for l, y in nz[m][z]:
                            total[l] = total.get(l, ZERO) + x * y
                if any(total.values()):
                    jac.append((i, j, k))
    return AlgebraValidationReport(tuple(anti), tuple(jac))


def subalgebra_closure(alg: LieAlgebra, vectors: Sequence[Sequence]) -> Subspace:
    """Smallest bracket-closed subspace containing the given vectors."""
    cur = Subspace(alg.dim, vectors)
    while True:
        nxt = cur.sum(alg.derived_span(cur))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def ideal_closure(alg: LieAlgebra, s: Subspace) -> Subspace:
    """Smallest ideal of the algebra containing s."""
    cur = s
    full = Subspace.full(alg.dim)
    while True:
        nxt = cur.sum(alg.bracket_spans(full, cur))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def is_subalgebra(alg: LieAlgebra, s: Subspace) -> bool:
    return all(
        s.contains_vector(alg.bracket(a, b))
        for i, a in enumerate(s.rows)
        for b in s.rows[i + 1 :]
    )


def is_ideal_in(alg: LieAlgebra, s: Subspace, t: Subspace) -> bool:
    """Whether [t, s] is contained in s.  Requires s within t."""
    if not t.contains(s):
        raise SubspaceNotNestedError("s is not contained in t")
    return all(s.contains_vector(alg.bracket(x, y)) for x in t.rows for y in s.rows)


def _series_reaches_zero(alg: LieAlgebra, step) -> bool:
    """Whether the series g, step(g), step(step(g)), ... ends at zero."""
    cur = Subspace.full(alg.dim)
    while not cur.is_zero():
        nxt = step(cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    return alg.derived_span(Subspace.full(alg.dim))


def is_solvable(alg: LieAlgebra) -> bool:
    return _series_reaches_zero(alg, alg.derived_span)


def is_nilpotent(alg: LieAlgebra) -> bool:
    full = Subspace.full(alg.dim)
    return _series_reaches_zero(alg, lambda cur: alg.bracket_spans(full, cur))


def quotient(alg: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient algebra by an ideal, plus the projection matrix.

    Quotient coordinates are the ambient coordinates away from the ideal's
    pivot columns; names are inherited from those coordinates.
    """
    if not is_ideal_in(alg, ideal, Subspace.full(alg.dim)):
        raise NotAnIdealError("quotient requires an ideal of the full algebra")
    keep = [i for i in range(alg.dim) if i not in ideal.pivots]
    m = len(keep)

    def project(v: Vector) -> Vector:
        r = ideal.reduce_vector(v)
        return tuple(r[i] for i in keep)

    proj = tuple(project(linalg.unit_vec(alg.dim, j)) for j in range(alg.dim))
    proj = linalg.transpose(proj)  # m x n, rows = quotient coordinates
    names = tuple(alg.names[i] for i in keep)
    table = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            br = alg.bracket(linalg.unit_vec(alg.dim, keep[a]), linalg.unit_vec(alg.dim, keep[b]))
            table[a][b] = project(br)
    return LieAlgebra(names, table), proj


def subalgebra_as_algebra(alg: LieAlgebra, s: Subspace) -> tuple[LieAlgebra, Matrix]:
    """The subalgebra as a standalone algebra, plus its inclusion rows.

    Basis of the result = the echelon rows of s (names b0, b1, ...); the
    returned matrix has those rows, so coordinates lift via row combinations.
    """
    if not is_subalgebra(alg, s):
        raise NotSubalgebraError("subspace is not bracket-closed")
    k = s.dim
    names = tuple(f"b{i}" for i in range(k))
    table = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            br = alg.bracket(s.rows[i], s.rows[j])
            coords = s.coordinates_of(br)
            if coords is None:  # pragma: no cover - guarded by is_subalgebra
                raise NotSubalgebraError("bracket escapes the subspace")
            table[i][j] = coords
    return LieAlgebra(names, table), s.rows


def is_nilpotent_subalgebra(alg: LieAlgebra, s: Subspace) -> bool:
    if s.is_zero():
        return True
    sub, _ = subalgebra_as_algebra(alg, s)
    return is_nilpotent(sub)


# ---------------------------------------------------------------------------
# rational common eigenvectors (constructive Lie-theorem descent over Q)


def _hyperplane_in(inside: Subspace, containing: Subspace) -> Subspace:
    """Greedy canonical hyperplane of `inside` containing `containing`.

    Extends by the earliest echelon rows of `inside`; the result has the
    lexicographically least pivot set among such hyperplanes.  Each row is
    tested with `contains_vector`, and a new Subspace is built only for a
    row outside the current span.
    """
    target = inside.dim - 1
    cur = containing
    for row in inside.rows:
        if cur.dim == target:
            break
        if not cur.contains_vector(row):
            cur = Subspace(inside.ambient_dim, cur.rows + (row,))
    if cur.dim != target:  # pragma: no cover - containing must fit
        raise ValueError("cannot extend to a hyperplane")
    return cur


def _shifted(m: Matrix, c: Fraction) -> list[list[Fraction]]:
    """The rows of m - c*I: c is subtracted on the diagonal only."""
    rows = [list(row) for row in m]
    for i, row in enumerate(rows):
        row[i] -= c
    return rows


def common_eigenvector(
    alg: LieAlgebra, rep: Sequence[Matrix], space_dim: int
) -> Vector | None:
    """A rational common eigenvector of the solvable action, or None.

    rep[i] is the matrix of the action of basis vector e_i on Q^space_dim.
    Returns the canonical least normalized eigenvector, or None when the
    descent needs an eigenvalue that is not rational (or the algebra turns
    out non-solvable along the way).

    The descent walks a chain of subalgebras sub, each a canonical
    hyperplane of the one before, down to one acting trivially; it stops
    at the first nonzero action matrix when testing that.  Each stage
    builds [sub, sub] with `LieAlgebra.derived_span`, from the pairs a < b
    of sub's echelon rows only, so alg.table must be antisymmetric with
    zero diagonal ([a, a] = 0, [b, a] = -[a, b]).  Per stage of an
    m-dimensional sub this costs m(m-1)/2 brackets, one nullspace of the
    weight-space rows, one charpoly of the restricted complement and one
    nullspace per rational eigenvalue of it, with zero entries skipped in
    every product.
    """

    # the nonzero entries (i, j, x) of each action matrix, read once
    entries = [[(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x] for m in rep]
    acts: dict[Vector, Matrix] = {}

    def act(elem: Vector) -> Matrix:
        """The action of elem, computed once per call of common_eigenvector."""
        if elem in acts:
            return acts[elem]
        out = [[ZERO] * space_dim for _ in range(space_dim)]
        for c, nz in zip(elem, entries):
            if c:
                for i, j, x in nz:
                    out[i][j] += c * x
        acts[elem] = tuple(tuple(r) for r in out)
        return acts[elem]

    def recurse(sub: Subspace) -> Vector | None:
        if not any(x for r in sub.rows for row in act(r) for x in row):
            return linalg.unit_vec(space_dim, 0)
        derived = alg.derived_span(sub)
        if derived.dim >= sub.dim:
            return None  # not solvable
        hyper = _hyperplane_in(sub, derived)
        w = recurse(hyper)
        if w is None:
            return None
        # the weight of the hyperplane on w
        lam = []
        for r in hyper.rows:
            img = linalg.matvec(act(r), w)
            # img must be collinear with w
            coef = None
            for a, b in zip(img, w):
                if b != 0:
                    coef = a / b
                    break
            if coef is None:
                coef = ZERO
            if img != linalg.vscale(coef, w):  # pragma: no cover - theory guard
                raise SolvdiagError("descent produced a non-eigenvector")
            lam.append(coef)
        # common eigenspace of the hyperplane for that weight
        rows = []
        for r, l in zip(hyper.rows, lam):
            rows += _shifted(act(r), l)
        wspace = linalg.nullspace(rows, space_dim)
        if not wspace:  # pragma: no cover - w is in there
            raise SolvdiagError("empty common eigenspace")
        wsub = Subspace(space_dim, wspace)
        # complement direction of the hyperplane inside sub
        z = None
        for r in sub.rows:
            if not hyper.contains_vector(r):
                z = r
                break
        if z is None:  # pragma: no cover
            raise SolvdiagError("no complement direction")
        mz = act(z)
        # invariance of the weight space (char 0); restrict mz to it
        k = wsub.dim
        restr = []
        for r in wsub.rows:
            coords = wsub.coordinates_of(linalg.matvec(mz, r))
            if coords is None:  # pragma: no cover - invariance lemma
                raise SolvdiagError("weight space not invariant")
            restr.append(coords)
        restr_m = linalg.transpose(tuple(restr))  # act on coordinate columns
        best: Vector | None = None
        for mu in linalg.rational_eigenvalues(restr_m):
            for sol in linalg.nullspace(_shifted(restr_m, mu), k):
                v = normalize_vector(linalg.lincomb(sol, wsub.rows))
                if best is None or vector_sort_key(v) < vector_sort_key(best):
                    best = v
        return best

    return recurse(Subspace.full(alg.dim))


class SolvabilityVerdict(Enum):
    COMPLETELY_SOLVABLE = "COMPLETELY_SOLVABLE"
    NOT_SOLVABLE = "NOT_SOLVABLE"
    UNDECIDED_IRRATIONAL_SPECTRUM = "UNDECIDED_IRRATIONAL_SPECTRUM"


@dataclass(frozen=True)
class SolvabilityCertificate:
    verdict: SolvabilityVerdict
    witness: tuple[Subspace, ...] | None  # ascending chain of ideals of g, dims 1..n


def complete_solvability_certificate(alg: LieAlgebra) -> SolvabilityCertificate:
    """Certify complete solvability by a flag of ideals, over Q.

    Level k finds a rational common eigenvector v of g acting on
    g/I_(k-1) (`common_eigenvector`) and sets I_k = I_(k-1) + <v>.  The
    structure constants of g/I_(k-1) are the table of g reduced modulo
    I_(k-1), which vanishes on the pivot columns of I_(k-1) and so is
    already in quotient coordinates; each level reduces that table by the
    one new echelon row and reads the ad matrices from it.  Each member is
    checked as it is made: [e_i, v] must reduce to zero modulo I_k for
    every basis vector e_i, which, I_(k-1) being an ideal, proves that I_k
    is one (NotAnIdealError otherwise).  Besides the descent, a level
    costs O(n^3) field operations.  If the spectrum leaves Q the verdict is
    UNDECIDED_IRRATIONAL_SPECTRUM (never approximated).
    """
    if not is_solvable(alg):
        return SolvabilityCertificate(SolvabilityVerdict.NOT_SOLVABLE, None)
    n = alg.dim
    red = [list(row) for row in alg.table]  # [e_i, e_j] modulo carried
    members: list[Subspace] = []
    carried = Subspace.zero(n)
    keep = list(range(n))  # quotient coordinates: non-pivot columns of carried
    while keep:
        cur = LieAlgebra(
            tuple(alg.names[i] for i in keep),
            [[tuple(red[a][b][k] for k in keep) for b in keep] for a in keep],
        )
        rep = [linalg.transpose(row) for row in cur.table]
        v = common_eigenvector(cur, rep, cur.dim)
        if v is None:
            return SolvabilityCertificate(
                SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM, None
            )
        lifted = [ZERO] * n
        for c, i in zip(v, keep):
            lifted[i] = c
        carried = carried.sum(Subspace(n, [lifted]))
        members.append(carried)
        p = next(c for c in carried.pivots if c in keep)  # the new pivot
        keep.remove(p)
        row_p = carried.rows[carried.pivots.index(p)]
        support = [(j, c) for j, c in enumerate(lifted) if c != 0]
        for red_i in red:
            for j, r in enumerate(red_i):
                if r[p] != 0:
                    red_i[j] = tuple(x - r[p] * y for x, y in zip(r, row_p))
            # [e_i, v] reduced modulo the new carried must vanish
            for k in keep:
                if sum((c * x for j, c in support if (x := red_i[j][k])), ZERO) != 0:
                    raise NotAnIdealError("certificate member is not an ideal")
    return SolvabilityCertificate(SolvabilityVerdict.COMPLETELY_SOLVABLE, tuple(members))
