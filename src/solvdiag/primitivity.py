"""Primitivity of a pair (algebra, isotropy subalgebra).

All reductions go through hyperplanes: in a solvable algebra a proper
transitive subalgebra is always contained in one of codimension 1, so the
searches enumerate hyperplane subalgebras.  Ideal hyperplanes (those
containing the derived subalgebra) are decided exactly; the remaining
hyperplane subalgebras are kernels of covectors phi with d(phi) ^ phi = 0,
found by `forms.hyperplane_subalgebras` over the dual basis and its
rational pencils, with an exact emptiness certificate where a wedge
coefficient is a nonzero constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum

from .algebra import (
    InputError,
    LieAlgebra,
    NotSubalgebraError,
    SolvabilityVerdict,
    SolvdiagError,
    Subspace,
    derived_subalgebra,
    ideal_closure,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    solvability_verdict,
    subalgebra_as_algebra,
)
from .diagram import weight_zero_singulars
from .forms import TwoForm, _check_budget, _wedge_table, hyperplane_subalgebras, kernel


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
    UNKNOWN = "UNKNOWN"


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


def _family_provably_empty(alg: LieAlgebra, w) -> bool:
    """Is {phi : phi(w) = 1, d(phi) ^ phi = 0} provably empty?

    Sufficient condition: some wedge coefficient is a nonzero constant on
    the affine family p_0 + sum x_a p_a, p_0 the unit covector at w's pivot
    and p_a the annihilator rows of w: on the wedge table of these
    covectors, some triple has w[0][0] != 0 and every other
    w[a][b] + w[b][a] (a <= b) zero.
    """
    n = alg.dim
    pivot = next(i for i, c in enumerate(w) if c != 0)
    # this family, phi(w) = w[pivot] > 0 on integer parameters, is a positive
    # rescaling of phi(w) = 1; d(phi) ^ phi is quadratic in phi, so the two
    # have the same constant coefficients up to a positive factor
    psis = Subspace(n, [w]).annihilator().int_rows
    _, wedge = _wedge_table(alg, [[int(i == pivot) for i in range(n)], *psis])
    pairs = itertools.combinations_with_replacement(range(1 + len(psis)), 2)
    coeffs = [[x + y for x, y in zip(wedge(a, b), wedge(b, a))] for a, b in pairs]
    # per triple, the first coefficient is (a, b) = (0, 0), twice the constant
    return any(c[0] and not any(c[1:]) for c in zip(*coeffs))


def _pencil_witness(alg: LieAlgebra, h: Subspace, budget: int | None):
    """The least by sort key of the kernels found over the dual basis and its
    pencils that do not contain h, or None, and whether the pencils were cut short."""
    kernels, truncated = hyperplane_subalgebras(alg, budget)
    witnesses = [k for k in kernels if not k.contains(h)]
    return min(witnesses, key=lambda s: s.sort_key(), default=None), truncated


def quasi_primitive_test(
    pair: PairPresentation, pencil_budget: int | None = None
) -> PrimitivityVerdict:
    """No proper subalgebra at all is transitive over the isotropy.

    Tri-state: ideal hyperplanes are decided exactly; non-ideal hyperplane
    subalgebras are searched over dual covectors and rational pencils, and
    ruled out entirely only by the constant-coefficient certificate (or
    because the algebra is nilpotent, where every maximal subalgebra is an
    ideal).  Anything short of that is reported UNKNOWN, never guessed.
    """
    _check_budget(pencil_budget)
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
    searched = ["ideal-hyperplanes"]
    if h.is_zero():
        return PrimitivityVerdict(PrimitivityStatus.QUASI_PRIMITIVE, searched=tuple(searched))
    witness = _ideal_hyperplane_witness(alg, h)
    if witness is not None:
        return PrimitivityVerdict(
            PrimitivityStatus.NOT_QUASI_PRIMITIVE, witness=witness, searched=tuple(searched)
        )
    if is_nilpotent(alg):
        return PrimitivityVerdict(PrimitivityStatus.QUASI_PRIMITIVE, searched=tuple(searched))

    searched.append("hyperplane-pencils")
    best, truncated = _pencil_witness(alg, h, pencil_budget)
    if best is not None:
        return PrimitivityVerdict(
            PrimitivityStatus.NOT_QUASI_PRIMITIVE, witness=best, searched=tuple(searched)
        )
    if not truncated and all(_family_provably_empty(alg, w) for w in h.int_rows):
        searched.append("emptiness-certificate")
        return PrimitivityVerdict(PrimitivityStatus.QUASI_PRIMITIVE, searched=tuple(searched))
    return PrimitivityVerdict(PrimitivityStatus.UNKNOWN, searched=tuple(searched))


@dataclass(frozen=True)
class Degrees:
    ratio: Fraction
    d_lower: Fraction
    d_within_search: Fraction
    witness_chain: tuple[Subspace, ...]


def degrees(pair: PairPresentation, pencil_budget: int | None = None) -> Degrees:
    """Degree bounds from a greedy descent through transitive hyperplanes.

    ratio is dim h / (n - dim h + 1).  Each hyperplane found transitive
    over h lowers the reachable value by 1/(n - dim h + 1); d_within_search
    is the smallest value among the subalgebras actually found, and d_lower
    is 0 exactly when the descent reached a presentation with zero
    isotropy (otherwise no better lower bound than ratio is certified).
    """
    _check_budget(pencil_budget)
    n = pair.algebra.dim
    h = pair.isotropy
    denom = n - h.dim + 1
    r = Fraction(h.dim, denom)
    if h.is_zero():
        return Degrees(ratio=r, d_lower=r, d_within_search=r, witness_chain=())

    # each witness is in the coordinates of the member before it (the basis
    # of cur_alg); a lift maps reduced echelon rows to reduced echelon rows,
    # so lifting through that member alone reaches the original coordinates
    chain: list[Subspace] = []
    cur_alg = pair.algebra
    cur_h = h
    while not cur_h.is_zero():
        wit = _ideal_hyperplane_witness(cur_alg, cur_h)
        if wit is None:
            wit = _pencil_witness(cur_alg, cur_h, pencil_budget)[0]
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
