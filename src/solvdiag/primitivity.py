"""Primitivity of a pair (algebra, isotropy subalgebra).

All reductions go through hyperplanes: in a solvable algebra a proper
transitive subalgebra is always contained in one of codimension 1.  Ideal
hyperplanes (those containing the derived subalgebra) are read off [g, g];
every other codimension-1 subalgebra is the kernel of a cocycle of a nonzero
weight of the solvability certificate's flag, and those are one integer
nullspace per weight (`_cocycle_witness`).  Every verdict is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from operator import mul

from . import linalg
from .algebra import (
    InputError,
    LieAlgebra,
    NotSubalgebraError,
    SolvabilityVerdict,
    SolvdiagError,
    Subspace,
    _dense,
    complete_solvability_certificate,
    derived_subalgebra,
    ideal_closure,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    solvability_verdict,
    subalgebra_as_algebra,
)
from .diagram import weight_zero_singulars
from .forms import TwoForm, kernel


class NotSolvableError(InputError):
    code = "NOT_SOLVABLE"


class UndecidedSpectrumError(SolvdiagError):
    """The algebra is solvable, but its spectrum leaves Q, so complete
    solvability is undecided and the test cannot run."""

    code = "UNDECIDED_IRRATIONAL_SPECTRUM"


@dataclass(frozen=True)
class PairPresentation:
    algebra: LieAlgebra
    isotropy: Subspace

    def __post_init__(self) -> None:
        if self.isotropy.ambient_dim != self.algebra.dim:
            raise ValueError("isotropy lives in the wrong ambient space")
        if not is_subalgebra(self.algebra, self.isotropy):
            raise NotSubalgebraError("isotropy is not bracket-closed")


class PrimitivityStatus(Enum):
    PRIMITIVE = "PRIMITIVE"
    NOT_PRIMITIVE = "NOT_PRIMITIVE"
    QUASI_PRIMITIVE = "QUASI_PRIMITIVE"
    NOT_QUASI_PRIMITIVE = "NOT_QUASI_PRIMITIVE"


@dataclass(frozen=True)
class PrimitivityVerdict:
    status: PrimitivityStatus
    witness: Subspace | None = None
    searched: tuple[str, ...] = ()


def transitive_test(pair: PairPresentation, s: Subspace) -> bool:
    """Does s, together with the isotropy, span the whole algebra?"""
    if not is_subalgebra(pair.algebra, s):
        raise NotSubalgebraError("candidate is not bracket-closed")
    return s.sum(pair.isotropy) == Subspace.full(pair.algebra.dim)


def _ideal_hyperplane_witness(alg: LieAlgebra, h: Subspace) -> Subspace | None:
    """A codimension-1 ideal transitive over h, or None (exact).

    Every codimension-1 ideal contains the derived subalgebra, so such a
    witness exists iff h is not inside the derived subalgebra.  With c the
    first pivot of h reduced modulo the derived subalgebra, the witness is
    {x : x reduced the same way is zero at c}: the span of the derived
    echelon rows and of the unit vectors e_j off their pivots, j != c.
    """
    derived = derived_subalgebra(alg)
    if derived.contains(h):
        return None
    c = Subspace(alg.dim, [derived._remainder(r) for r in h.int_rows]).pivots[0]
    off = (j for j in range(alg.dim) if j != c and j not in derived.pivots)
    units = [[int(i == j) for i in range(alg.dim)] for j in off]
    return Subspace(alg.dim, derived.int_rows + tuple(units))


def primitive_test(pair: PairPresentation) -> PrimitivityVerdict:
    """No proper ideal is transitive over the isotropy (decided exactly)."""
    alg, h = pair.algebra, pair.isotropy
    if not is_solvable(alg):
        raise NotSolvableError("the test needs a solvable algebra")
    witness = _ideal_hyperplane_witness(alg, h)
    if witness is None:
        return PrimitivityVerdict(PrimitivityStatus.PRIMITIVE, searched=("ideal-hyperplanes",))
    return PrimitivityVerdict(
        PrimitivityStatus.NOT_PRIMITIVE, witness=witness, searched=("ideal-hyperplanes",)
    )


def _cocycle_witness(alg: LieAlgebra, h: Subspace, cert) -> Subspace | None:
    """The least by sort key of the kernels of the basis vectors beta of each
    Z_alpha that do not vanish on h, or None; h must lie in [g, g].

    Z_alpha, for a nonzero weight alpha = a/s of the certificate `cert` (a
    row of `weights` over `weight_denom`), holds the cocycles of weight
    alpha, beta([x, y]) = alpha(x) beta(y) - alpha(y) beta(x): the integer
    nullspace of the rows s * sum_k c_ij^k beta_k - D (a_i beta_j - a_j beta_i),
    i < j, for the constants c over D of `alg`.  The answer is exact.

    *Lemma.*  Let M be a codimension-1 subalgebra of the solvable g, and K
    its core, the largest ideal of g inside M.  Then g/K is 1-dimensional
    or aff(1) = <X, Y>, [X, Y] = Y (compare K. H. Hofmann, "Hyperplane
    subalgebras of real Lie algebras", Geom. Dedicata 36, 1990).  Proof:
    pass to g/K, so that M holds no nonzero ideal.  A minimal ideal A is
    abelian and not inside M, so g = M + A.  M ∩ A is normalized by M and
    centralized by A, so it is an ideal inside M, hence 0, and A = <a>.  M
    acts on <a> by a character mu; ker mu is normalized by M (mu vanishes
    on [M, M]) and centralized by a, so it is 0 too: M is 0, or a line on
    which mu is nonzero, and g/K is <a> or aff(1).

    *Criterion.*  If M is not an ideal, g -> aff(1) is x -> alpha(x) X +
    beta(x) Y, onto, so alpha != 0 is a character and beta a cocycle of
    weight alpha.  M/K is a line other than the ideal <Y>, so <X + tY>, and
    M = ker(beta - t alpha), with beta - t alpha in Z_alpha (alpha is, as it
    vanishes on [g, g]).  alpha is a weight of the certificate: [g, g] maps
    onto <Y>, where x acts by alpha(x), so alpha is the character of a
    composition factor of the g-module g, hence, by Jordan-Hoelder, of one
    of the flag's quotients I_k/I_(k-1).  Conversely, ker(beta) is a
    codimension-1 subalgebra for every beta != 0 in any Z_alpha.  As h lies
    in [g, g], inside ker(alpha), h lies in ker(beta - t alpha) exactly when
    beta vanishes on h, and if some beta in Z_alpha does not, some basis
    vector of Z_alpha does not either.
    """
    n, s = alg.dim, cert.weight_denom
    found = []
    for a in set(cert.weights) - {(0,) * n}:
        rows = []
        for i, j in itertools.combinations(range(n), 2):
            rows.append([s * c for c in _dense(alg.consts[i][j], n)])
            rows[-1][j] -= alg.denom * a[i]
            rows[-1][i] += alg.denom * a[j]
        for beta in linalg.int_nullspace(rows, n):
            if any(sum(map(mul, beta, r)) for r in h.int_rows):
                found.append(Subspace(n, [beta]).annihilator())
    return min(found, key=lambda w: w.sort_key(), default=None)


def quasi_primitive_test(pair: PairPresentation) -> PrimitivityVerdict:
    """No proper subalgebra at all is transitive over the isotropy (exact).

    A transitive proper subalgebra lies in a transitive hyperplane
    subalgebra.  The stages, in `searched`: "ideal-hyperplanes", where a
    witness exists exactly when h is not in [g, g]; with none, a nilpotent g
    is QUASI_PRIMITIVE, as its maximal subalgebras are ideals.  Otherwise
    "hyperplane-pencils": every other hyperplane subalgebra is the kernel of
    a member of a pencil, a line through a weight alpha of the certificate's
    flag in the cocycle space Z_alpha, and the witness is read from those
    (`_cocycle_witness`).  "emptiness-certificate": none misses h, and by
    the lemma there the pair is QUASI_PRIMITIVE.  The algebra must be
    completely solvable.
    """
    alg, h = pair.algebra, pair.isotropy
    verdict = solvability_verdict(alg)
    if verdict is SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM:
        raise UndecidedSpectrumError(
            "the test needs a completely solvable algebra, and the certificate "
            "needs an eigenvalue outside Q"
        )
    if verdict is not SolvabilityVerdict.COMPLETELY_SOLVABLE:
        raise NotSolvableError(
            f"the test needs a completely solvable algebra ({verdict.value})"
        )
    searched, witness = ["ideal-hyperplanes"], None
    if not h.is_zero():
        witness = _ideal_hyperplane_witness(alg, h)
        if witness is None and not is_nilpotent(alg):
            searched.append("hyperplane-pencils")
            witness = _cocycle_witness(alg, h, complete_solvability_certificate(alg))
            if witness is None:
                searched.append("emptiness-certificate")
    quasi = witness is None
    status = PrimitivityStatus.QUASI_PRIMITIVE if quasi else PrimitivityStatus.NOT_QUASI_PRIMITIVE
    return PrimitivityVerdict(status, witness=witness, searched=tuple(searched))


@dataclass(frozen=True)
class Degrees:
    ratio: Fraction
    d_lower: Fraction
    d_within_search: Fraction
    witness_chain: tuple[Subspace, ...]


def degrees(pair: PairPresentation) -> Degrees:
    """Degree bounds from a greedy descent through transitive hyperplanes.

    ratio is dim h / (n - dim h + 1).  Each step takes the witness of
    `quasi_primitive_test` on the current pair, a codimension-1 subalgebra
    transitive over the isotropy, and passes to it and the isotropy's
    intersection with it; each lowers the reachable value by
    1/(n - dim h + 1).  d_within_search is the value where the descent
    stops, and d_lower is 0 exactly when it reached zero isotropy
    (otherwise no better lower bound than ratio is certified).  It refuses
    what `quasi_primitive_test` refuses: only the algebra given can be
    refused, as every subalgebra of a completely solvable one is one.
    """
    n = pair.algebra.dim
    h = pair.isotropy
    denom = n - h.dim + 1
    r = Fraction(h.dim, denom)
    # each witness is in the coordinates of the member before it (the basis
    # of cur_alg); a lift maps reduced echelon rows to reduced echelon rows,
    # so lifting through that member alone reaches the original coordinates
    chain: list[Subspace] = []
    cur_alg, cur_h = pair.algebra, h
    while not (chain and cur_h.is_zero()):  # once at least: h = 0 is refused as quasi does
        wit = quasi_primitive_test(PairPresentation(cur_alg, cur_h)).witness
        if wit is None:
            break
        chain.append(chain[-1].lift(wit) if chain else wit)
        cur_h = wit.coordinates(cur_h.intersect(wit))
        cur_alg = subalgebra_as_algebra(cur_alg, wit)
    d_within = Fraction(h.dim - len(chain), denom)
    d_lower = Fraction(0) if cur_h.is_zero() else r
    return Degrees(
        ratio=r, d_lower=d_lower, d_within_search=d_within, witness_chain=tuple(chain)
    )


@dataclass(frozen=True)
class IdealClosureAuditReport:
    derived_plus_isotropy_full: bool
    ideal_closure_full: bool

    @property
    def agree(self) -> bool:
        return self.derived_plus_isotropy_full == self.ideal_closure_full


def ideal_closure_audit(pair: PairPresentation, omega: TwoForm) -> IdealClosureAuditReport:
    """Cross-check two characterizations of 'no transitive proper ideal'.

    The isotropy must be the kernel of the given closed form.  The two
    sides: derived subalgebra plus isotropy spans everything, and the
    smallest ideal containing the isotropy is everything.  They are
    expected to agree on every instance.
    """
    alg, h = pair.algebra, pair.isotropy
    if omega.dim != alg.dim:
        raise ValueError(f"a form on Q^{omega.dim} for an algebra on Q^{alg.dim}")
    if kernel(omega) != h:
        raise ValueError("isotropy must be the kernel of the form")
    if h.is_zero():
        raise ValueError("this audit needs a nonzero kernel")
    full = Subspace.full(alg.dim)
    side_a = derived_subalgebra(alg).sum(h) == full
    side_b = ideal_closure(alg, h) == full
    return IdealClosureAuditReport(
        derived_plus_isotropy_full=side_a, ideal_closure_full=side_b
    )


@dataclass(frozen=True)
class SingularCountEntry:
    connected: bool
    singular_count: int
    within_connected_bound: bool | None
    within_quasi_primitive_bound: bool | None


def singular_count_audit(
    diagrams, quasi_verdict: PrimitivityVerdict
) -> tuple[SingularCountEntry, ...]:
    """Bound the number of singular vertices per diagram.

    Connected diagrams allow at most 4 singular vertices; when the pair is
    quasi-primitive (`quasi_verdict`, the pair's `quasi_primitive_test`), at
    most 3.  Disconnected diagrams are skipped (both bounds None).
    """
    quasi = quasi_verdict.status is PrimitivityStatus.QUASI_PRIMITIVE
    out = []
    for d in diagrams:
        connected = not weight_zero_singulars(d)
        count = len(d.singular_vertices())
        if not connected:
            out.append(SingularCountEntry(False, count, None, None))
            continue
        out.append(
            SingularCountEntry(
                connected=True,
                singular_count=count,
                within_connected_bound=count <= 4,
                within_quasi_primitive_bound=(count <= 3) if quasi else None,
            )
        )
    return tuple(out)
