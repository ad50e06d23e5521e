"""Invariant covectors, 2-forms and 3-forms, and the exterior differential.

Sign convention, used consistently everywhere:

    d(phi)(x, y)    = -phi([x, y])
    d(omega)(x,y,z) = -omega([x,y], z) + omega([x,z], y) - omega([y,z], x)

so closedness of a 2-form is the cocycle identity
omega([x,y],z) + omega([y,z],x) + omega([z,x],y) = 0.  A TwoForm is stored
once, as an integer matrix over one positive denominator; `entries`, its
Fraction matrix, is a view built on first read.  d on 2-forms is one sparse
integer matrix, `_d_rows`, built from the algebra's integer constants
`alg.consts` once per algebra object and kept in its `_d` slot:
`ce_differential` evaluates it on the form's integer matrix and divides
once, `is_closed` evaluates it up to the first nonzero row on ints, and
`closed_two_form_basis` is its integer nullspace.  Pairings, restrictions,
radicals, isotropy tests and symplectic orthogonals run on the integer rows
of a Subspace and the form's integer matrix; a dense integer dot product
is written sum(map(mul, a, b)), which loops in C (math.sumprod needs
Python 3.12), and `pair_ints` keeps its loop that skips zeros, faster on
the mostly-zero rows it is given.  The radicals along a sequence
of subspaces come from one symplectic Gram-Schmidt pass, `radicals`, that
adds one row at a time and eliminates nothing: a row that joins the radical
is inserted by `algebra._insert_row`.  `radical` is that pass over one
subspace, and `kernel` is built once per form object and kept on it.  A
covector's d(phi) and d(phi) ^ phi are evaluated, not searched: the
codimension-1 subalgebras, kernels of the phi with d(phi) ^ phi = 0, are
found in `primitivity` from the solvability certificate's weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .algebra import InputError, LieAlgebra, Subspace, _Frozen, _init, _insert_row, _kept
from .linalg import Vector, ZERO, _ratio, frac


class NotClosedError(InputError):
    code = "NOT_CLOSED"


class DegenerateFormError(InputError):
    code = "DEGENERATE_FORM"


@dataclass(frozen=True)
class Covector:
    """A linear functional in dual-basis coordinates."""

    coeffs: Vector

    @classmethod
    def from_entries(cls, entries: Iterable) -> "Covector":
        return cls(linalg.vec(entries))

    def apply(self, v: Sequence) -> Fraction:
        return sum((c * x for c, x in zip(self.coeffs, linalg.vec(v), strict=True)), ZERO)


class TwoForm(_Frozen):
    """A skew bilinear form (rows/cols in basis order), stored once as an
    integer matrix `numer` over one positive denominator `denom`, in lowest
    terms (the gcd of `denom` and all of `numer` is 1), so equal forms
    store equal numbers.  Two facts are kept once built (`_kept`), each in
    its slot, unset until then on every construction path: `_entries`, the
    Fraction matrix `entries`, and `_kernel`, `kernel(self)`."""

    __slots__ = ("dim", "numer", "denom", "_entries", "_kernel")

    def __init__(self, entries: Sequence[Sequence]) -> None:
        rows = [tuple(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("two-form matrix must be square")
        ints, denom = linalg.scaled_ints(x for r in rows for x in r)  # in lowest terms
        m = tuple(tuple(ints[i : i + n]) for i in range(0, n * n, n or 1))
        for i in range(n):
            if m[i][i] != 0:
                raise ValueError("two-form matrix must have zero diagonal")
            for j in range(i + 1, n):
                if m[i][j] != -m[j][i]:
                    raise ValueError("two-form matrix must be antisymmetric")
        _init(self, dim=n, numer=m, denom=denom)

    @classmethod
    def _of(cls, numer: Sequence[Sequence[int]], denom: int) -> "TwoForm":
        """The form numer / denom (denom > 0, numer skew), put in lowest terms."""
        g = math.gcd(denom, *(x for r in numer for x in r))
        m = tuple(tuple(x // g for x in r) for r in numer)
        return _init(object.__new__(cls), dim=len(m), numer=m, denom=denom // g)

    @property
    def entries(self) -> tuple[Vector, ...]:
        return _kept(self, "_entries", lambda w: tuple(linalg.divided(r, w.denom) for r in w.numer))

    @classmethod
    def zero(cls, n: int) -> "TwoForm":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int, object]]) -> "TwoForm":
        """Build from sparse (i, j, value) with antisymmetry filled in.

        A pair given twice, in either order, must give the same value (its
        negative in the other order), zero included.  `numer` is built over
        the lcm of the denominators, with no Fraction matrix."""
        given: dict[tuple[int, int], tuple[int, int]] = {}  # both orientations
        for i, j, val in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"two-form index pair {(i, j)} outside range({n})")
            v = _ratio(val)
            if i == j:
                raise ValueError("diagonal entry in a two-form")
            if given.setdefault((i, j), v) != v:
                raise ValueError(f"contradictory duplicate entry ({i},{j})")
            given[(j, i)] = (-v[0], v[1])
        denom = math.lcm(*(q for _, q in given.values()))
        m = [[0] * n for _ in range(n)]
        for (i, j), (p, q) in given.items():
            m[i][j] = p * (denom // q)
        return cls._of(m, denom)

    def pair_ints(self, x: Sequence[int]) -> list[int]:
        """denom * omega(x, .) for an integer vector x."""
        out = [0] * self.dim
        for c, row in zip(x, self.numer):
            if c:
                for j, e in enumerate(row):
                    if e:
                        out[j] += c * e
        return out

    def pairing_with(self, x: Sequence) -> Vector:
        """The covector omega(x, .); x is checked by `linalg.scaled_ints`."""
        ints, scale = linalg.scaled_ints(x, self.dim)
        return linalg.divided(self.pair_ints(ints), scale * self.denom)

    def apply(self, x: Sequence, y: Sequence) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(f"vectors of lengths {len(x)}, {len(y)} for a form on Q^{self.dim}")
        (x, sx), (y, sy) = linalg.scaled_ints(x), linalg.scaled_ints(y)
        value = sum(map(mul, self.pair_ints(x), y))
        return Fraction(value, sx * sy * self.denom)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.numer)

    def rank(self) -> int:
        return linalg.rank(self.numer)

    def scaled(self, c) -> "TwoForm":
        num, den = _ratio(c)
        return TwoForm._of([[num * v for v in r] for r in self.numer], den * self.denom)

    def plus(self, other: "TwoForm") -> "TwoForm":
        d = math.lcm(self.denom, other.denom)
        a, b = d // self.denom, d // other.denom
        return TwoForm._of(
            [[a * x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(self.numer, other.numer)], d
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoForm) and (self.numer, self.denom) == (other.numer, other.denom)

    def __hash__(self) -> int:
        return hash((self.numer, self.denom))

    def __repr__(self) -> str:
        return f"TwoForm(dim={self.dim})"


class ThreeForm(_Frozen):
    """An alternating trilinear form; stored sparsely on ordered triples."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[tuple[int, int, int], Fraction]) -> None:
        clean = {}
        for (i, j, k), v in entries.items():
            if not i < j < k:
                raise ValueError("three-form keys must be strictly ordered")
            if i < 0 or k >= dim:
                raise ValueError(f"three-form key {(i, j, k)} outside range({dim})")
            if v != 0:
                clean[(i, j, k)] = frac(v)
        _init(self, dim=dim, entries=clean)

    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        if not 0 <= i < j < k < self.dim:
            raise ValueError(f"three-form triple {(i, j, k)} unordered or outside range({self.dim})")
        return self.entries.get((i, j, k), ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThreeForm)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ThreeForm(dim={self.dim}, nonzero={len(self.entries)})"


def _d_covector(alg: LieAlgebra, c: Sequence[int]) -> list[list[int]]:
    """alg.denom * d(c) for an integer covector c: the skew integer matrix
    with entry -c([e_i, e_j]) on the integer constants `alg.consts`."""
    n = alg.dim
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(alg.consts):
        for j in range(i + 1, n):
            val = -sum(c[k] * x for k, x in row[j])
            m[i][j] = val
            m[j][i] = -val
    return m


def _wedge(m: Sequence[Sequence[int]], c: Sequence[int]) -> list[int]:
    """(m ^ c)(e_i, e_j, e_k) = m[i][j]c[k] - m[i][k]c[j] + m[j][k]c[i] for
    a skew integer matrix m and an integer covector c, on the triples
    i < j < k in combinations order."""
    return [
        m[i][j] * c[k] - m[i][k] * c[j] + m[j][k] * c[i]
        for i, j, k in itertools.combinations(range(len(c)), 3)
    ]


def ce_differential_covector(alg: LieAlgebra, phi: Covector) -> TwoForm:
    """d(phi)(x, y) = -phi([x, y]) on basis pairs."""
    coeffs, scale = linalg.scaled_ints(phi.coeffs, alg.dim)
    return TwoForm._of(_d_covector(alg, coeffs), scale * alg.denom)


def _d_rows(alg: LieAlgebra) -> dict[tuple[int, int, int], dict[tuple[int, int], int]]:
    """The matrix of d on 2-forms, times the algebra's `denom`: for each
    triple i < j < k with a nonempty row {(a, b): c} (a < b),
    denom * d(omega)(e_i, e_j, e_k) = sum of c * omega[a][b].  Read off the
    integer structure constants of [e_i,e_j], [e_i,e_k], [e_j,e_k] in
    `alg.consts`, once per object: its readers keep it in `_d`, unchanged.
    """
    nz = alg.consts
    rows = {}
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        row: dict[tuple[int, int], int] = {}
        for (p, q), z, sign in (((i, j), k, -1), ((i, k), j, 1), ((j, k), i, -1)):
            for a, c in nz[p][q]:
                if a != z:
                    key, s = ((a, z), sign) if a < z else ((z, a), -sign)
                    row[key] = row.get(key, 0) + s * c
        if row:
            rows[(i, j, k)] = row
    return rows


def _d_values(alg: LieAlgebra, omega: TwoForm):
    """(t, v) for each row t of the kept matrix of d: v is alg.denom *
    omega.denom * d(omega)(e_t), an int; a form of another dimension is a
    ValueError, raised at the call."""
    if omega.dim != alg.dim:
        raise ValueError("form dimension does not match the algebra")
    e, rows = omega.numer, _kept(alg, "_d", _d_rows)
    return ((t, sum(c * e[a][b] for (a, b), c in row.items())) for t, row in rows.items())


def ce_differential(alg: LieAlgebra, omega: TwoForm) -> ThreeForm:
    """d(omega) on basis triples, with the fixed sign convention: the
    integer matrix of d applied to omega's integer matrix, divided once."""
    den = alg.denom * omega.denom
    return ThreeForm(alg.dim, {t: Fraction(v, den) for t, v in _d_values(alg, omega) if v})


def is_closed(alg: LieAlgebra, omega: TwoForm) -> bool:
    """Whether d(omega) = 0: the integer rows of d on omega's integer
    matrix, up to the first that is not zero; no ThreeForm is built."""
    return not any(v for _, v in _d_values(alg, omega))


def wedge_with_covector(dphi: TwoForm, phi: Covector) -> ThreeForm:
    """(dphi ^ phi)(x,y,z) = dphi(x,y)phi(z) - dphi(x,z)phi(y) + dphi(y,z)phi(x),
    on dphi's integer matrix and phi scaled to ints, divided once."""
    n = dphi.dim
    c, scale = linalg.scaled_ints(phi.coeffs, n)
    den = dphi.denom * scale
    triples = itertools.combinations(range(n), 3)
    return ThreeForm(n, {t: Fraction(v, den) for t, v in zip(triples, _wedge(dphi.numer, c)) if v})


def _check_dims(omega: TwoForm, s: Subspace) -> None:
    """A ValueError naming both dimensions for a subspace outside Q^n of the form."""
    if s.ambient_dim != omega.dim:
        raise ValueError(f"a subspace of Q^{s.ambient_dim} for a form on Q^{omega.dim}")


def _gram(omega: TwoForm, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """omega.denom * omega(r_i, r_j) on integer rows r, one pairing per row."""
    m = [[0] * len(rows) for _ in rows]
    for i in range(len(rows) - 1):
        p = omega.pair_ints(rows[i])
        for j in range(i + 1, len(rows)):
            v = sum(map(mul, rows[j], p))
            m[i][j], m[j][i] = v, -v
    return m


def is_isotropic(omega: TwoForm, s: Subspace) -> bool:
    """Whether omega vanishes on s x s."""
    _check_dims(omega, s)
    return not any(map(any, _gram(omega, s.int_rows)))


def restrict(omega: TwoForm, s: Subspace) -> TwoForm:
    """Matrix of omega on s, in its reduced echelon basis: the integer rows
    scaled to the lcm L of their pivots, paired, and divided by L^2 once."""
    _check_dims(omega, s)
    lcm, rows = s._common_pivot_rows()
    return TwoForm._of(_gram(omega, rows), omega.denom * lcm * lcm)


def _add_row(omega: TwoForm, rad: list, piv: list, pairs: list, u: Sequence[int]) -> None:
    """One step of `radicals`: rad(omega|V) for V + <u>, u outside V."""
    pu = omega.pair_ints(u)  # denom * omega(u, .)
    for p, q, pp, pq, w in pairs:
        a = sum(map(mul, pp, u))  # denom * omega(p, u)
        b = sum(map(mul, pq, u))  # denom * omega(q, u)
        if a or b:
            g = math.gcd(w, a, b)
            c, a, b = w // g, a // g, b // g
            u = [c * x + b * y - a * z for x, y, z in zip(u, p, q)]
            pu = [c * x + b * y - a * z for x, y, z in zip(pu, pp, pq)]
    g = math.gcd(*u)
    if g > 1:
        u, pu = [x // g for x in u], [x // g for x in pu]
    t = [sum(map(mul, pu, r)) for r in rad]  # denom * omega(u, r)
    hit = [i for i, x in enumerate(t) if x]
    if hit:  # D step: rad(omega|V + <u>) = R meet u-perp, and (r0, u) is a pair
        i0 = hit[-1]
        r0, s0 = rad[i0], t[i0]
        for i in hit[:-1]:
            g = math.gcd(s0, t[i])
            a, b = s0 // g, t[i] // g
            rad[i] = linalg.primitive_at([a * x - b * y for x, y in zip(rad[i], r0)], piv[i])
        del rad[i0], piv[i0]
        pairs.append((r0, u, omega.pair_ints(r0), pu, -s0))
        return
    _insert_row(rad, piv, u)  # U step: u, orthogonal to R, joins it


def radicals(omega: TwoForm, members: Sequence[Subspace]) -> list[Subspace]:
    """rad(omega|m) for each member m in order, by one fraction-free
    symplectic Gram-Schmidt pass on integer rows; it calls no `echelon`.

    The pass keeps V, the span of the rows added so far, as R + S: R =
    rad(omega|V) as canonical echelon rows (`linalg.echelon`'s form), S
    spanned by pairs (p, q) with omega(p, q) = w != 0, any two pairs
    omega-orthogonal.  R is orthogonal to V, and omega is nondegenerate on
    S.  A row u outside V is added in two moves.  First u becomes
    w u + omega(q, u) p - omega(p, u) q for each pair in turn (made
    primitive): orthogonal to p and q, and to the earlier pairs, which are
    orthogonal to p and q; it still spans V + <u> modulo V.  Then:
    - D step, omega(u, r) != 0 for some row r of R.  Let r0 be the one
      with the largest pivot and s0 = omega(u, r0).  Each s0 r -
      omega(u, r) r0 with r != r0 is orthogonal to u, and these rows span
      R' = R meet u-perp.  Each is zero at the pivots of R other than
      r0's, and keeps r's pivot, because r0 is zero up to its own larger
      pivot.  So, made primitive, they are the canonical rows of R'.
      (r0, u) becomes a pair: omega(r0, u) != 0, and both are orthogonal
      to S and to R'.
    - U step, u orthogonal to R.  It is orthogonal to S and to itself too,
      so R' = R + <u>: `algebra._insert_row` reduces u along R, makes it
      primitive, clears it from the other rows at its pivot and inserts it
      in pivot order.
    In both steps V + <u> = R' + S' with omega nondegenerate on S' and R'
    orthogonal to V + <u>, so R' = rad(omega|V + <u>), and dim R' =
    dim R - 1 or dim R + 1: the D and U steps of `kernel_chain`.  A member
    that contains its predecessor has the predecessor's pivots among its
    own, and its echelon rows at the other pivots span it modulo the
    predecessor, so only those rows are added.  The members are cut into
    runs in which each contains the one before, tested here once per
    adjacent pair, and each run is one pass of `_chain_radicals`.
    `kernel_chain` calls `_chain_radicals` itself, as `chain_shape` has
    already tested its chain's nesting.  A member that is the full space
    gives the form's kernel, which is kept in `omega._kernel` when the form
    has none yet.
    """
    out, run = [], []
    for m in members:
        _check_dims(omega, m)
        if run and not m.contains(run[-1]):
            out += _chain_radicals(omega, run)
            run = []
        run.append(m)
    return out + _chain_radicals(omega, run)


def _chain_radicals(omega: TwoForm, members: Sequence[Subspace]) -> list[Subspace]:
    """The pass of `radicals` along members of the form's space that each
    contain the one before; neither is tested here."""
    n, out, rad, piv, pairs, old = omega.dim, [], [], [], [], ()
    for m in members:
        for u, p in zip(m.int_rows, m.pivots):
            if p not in old:
                _add_row(omega, rad, piv, pairs, u)
        out.append(Subspace._of(n, rad, piv))
        if m.dim == n:
            _kept(omega, "_kernel", lambda _: out[-1])
        old = set(m.pivots)
    return out


def radical(omega: TwoForm, s: Subspace) -> Subspace:
    """{x in s : omega(x, y) = 0 for all y in s}, as an ambient subspace:
    the pass of `radicals` over s's rows."""
    return radicals(omega, [s])[0]


def kernel(omega: TwoForm) -> Subspace:
    """Radical of omega on the whole space, built once per form object and
    kept in its `_kernel` slot by the first `radicals` pass that reaches
    the full space, this one's or a chain's."""
    return _kept(omega, "_kernel", lambda w: radical(w, Subspace.full(w.dim)))


def symplectic_orthogonal(omega: TwoForm, s: Subspace) -> Subspace:
    """{x : omega(x, y) = 0 for all y in s} inside the whole space."""
    _check_dims(omega, s)
    rows = [omega.pair_ints(r) for r in s.int_rows]
    return Subspace(omega.dim, linalg.int_nullspace(rows, omega.dim))


def closed_two_form_basis(alg: LieAlgebra) -> list[TwoForm]:
    """Canonical basis of the space of closed 2-forms: the integer nullspace
    of the matrix of d on 2-forms, each vector over its last nonzero entry."""
    n = alg.dim
    pairs = list(itertools.combinations(range(n), 2))
    rows = [[row.get(p, 0) for p in pairs] for row in _kept(alg, "_d", _d_rows).values()]
    basis = []
    for sol in linalg.int_nullspace(rows, len(pairs)):
        numer = [[0] * n for _ in range(n)]
        for (a, b), x in zip(pairs, sol):
            numer[a][b] = x
            numer[b][a] = -x
        basis.append(TwoForm._of(numer, next(x for x in reversed(sol) if x)))
    return basis
