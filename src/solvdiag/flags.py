"""Full chains of nested subalgebras: validation, the normal flag, and
completion of a chain through the flag of ideals.

A chain is a strictly increasing list of subspaces, one per dimension,
ending at the full algebra.  Chains constructed here always include the
zero subspace; stored chains from input documents keep whatever first
member they declare, and every consumer honors that.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

from .algebra import (
    Flag,
    InputError,
    LieAlgebra,
    NotSubalgebraError,
    SolvabilityCertificate,
    SolvdiagError,
    Subspace,
    _hyperplane_in,
    complete_solvability_certificate,
    is_ideal_in,
    is_subalgebra,
)


class ChainNotNestedError(InputError):
    code = "CHAIN_NOT_NESTED"


class IncompleteError(SolvdiagError):
    code = "INCOMPLETE"


@dataclass(frozen=True)
class ChainShape:
    """The numeric shape of a chain, which chain_ok gates: consecutive dims,
    nesting, top = full algebra."""

    dims: tuple[int, ...]
    dims_consecutive: bool
    ends_at_full: bool
    nesting: tuple[bool, ...]

    @property
    def chain_ok(self) -> bool:
        return self.dims_consecutive and self.ends_at_full and all(self.nesting)


def chain_shape(alg: LieAlgebra, flag: Flag) -> ChainShape:
    ms = flag.members
    dims = tuple(m.dim for m in ms)
    nesting = tuple(b.contains(a) for a, b in zip(ms, ms[1:]))
    consecutive = all(b == a + 1 for a, b in zip(dims, dims[1:]))
    return ChainShape(dims, consecutive, ms[-1] == Subspace.full(alg.dim), nesting)


@dataclass(frozen=True)
class FlagValidationReport(ChainShape):
    """Tiered per-member checks: the subalgebra / ideal-in-next /
    normal-in-algebra columns are reported but deliberately not folded into
    chain_ok, so that chains copied from outside sources can still be
    diagrammed while their structural defects stay visible."""

    subalgebra: tuple[bool, ...]
    ideal_in_next: tuple[bool, ...]
    normal_in_algebra: tuple[bool, ...]

    @property
    def subalgebras_ok(self) -> bool:
        return all(self.subalgebra)

    @property
    def composition_ok(self) -> bool:
        return self.chain_ok and self.subalgebras_ok and all(self.ideal_in_next)

    @property
    def all_normal(self) -> bool:
        return all(self.normal_in_algebra)


def validate_flag(alg: LieAlgebra, flag: Flag) -> FlagValidationReport:
    """The report, normality first: an ideal m of g is a subalgebra ([m, m] in
    [g, m] in m) and an ideal of every member t containing it ([t, m] in [g, m]
    in m), so `is_subalgebra` and `is_ideal_in` run only on the other members."""
    ms = flag.members
    full = Subspace.full(alg.dim)
    normal = tuple(is_ideal_in(alg, m, full) for m in ms)
    shape = chain_shape(alg, flag)
    subalg = tuple(ok or is_subalgebra(alg, m) for m, ok in zip(ms, normal))
    ideal_next = tuple(
        nested and (normal[i] or is_ideal_in(alg, ms[i], ms[i + 1]))
        for i, nested in enumerate(shape.nesting)
    )
    return FlagValidationReport(*astuple(shape), subalg, ideal_next, normal)


def find_normal_flag(alg: LieAlgebra) -> SolvabilityCertificate:
    """A full chain all of whose members are ideals of the algebra: the
    `flag` of `complete_solvability_certificate`, found by rational
    common-eigenvector descent on g/I for each member I so far.  The flag is
    None when the algebra is not solvable (no such chain can exist) or when
    the descent hits an irrational spectrum.  This is the algebra object's
    own certificate, built on the first call that asks for it and shared by
    every later one."""
    return complete_solvability_certificate(alg)


def _codim_one_step(alg: LieAlgebra, low: Subspace, high: Subspace) -> Subspace:
    """A codimension-1 subalgebra of `high` containing the subalgebra `low`.

    Preference: hyperplanes containing low + [high, high] (these are ideals
    of high, canonical choice by greedy echelon extension).  Otherwise the
    flag of ideals I_0 < ... < I_n of the algebra, its certificate's `flag`,
    gives one with no search (IncompleteError without a flag).  J_k = I_k
    meet high is an ideal of high: [high, J_k] lies in I_k, an ideal, and in
    high, a subalgebra.  So S_k = low + J_k is a subalgebra: [low + J_k,
    low + J_k] lies in [low, low] + [high, J_k], in low + J_k.  J_k / J_(k-1)
    embeds in I_k / I_(k-1), a line, so dim S_k grows by at most 1 per k,
    from S_0 = low to S_n = high.  The last S_k short of high is therefore a
    hyperplane of high.
    """
    w = low.sum(alg.derived_span(high))
    if w.dim < high.dim:
        return Subspace._of(alg.dim, *_hyperplane_in(high.int_rows, w.int_rows, w.pivots))
    cert = complete_solvability_certificate(alg)
    if cert.flag is None:
        raise IncompleteError(f"no flag of ideals to complete the chain: {cert.verdict.value}")
    sums = (low.sum(ideal.intersect(high)) for ideal in reversed(cert.flag.members))
    return next(s for s in sums if s.dim < high.dim)


def complete_flag_through(alg: LieAlgebra, chain: Sequence[Subspace]) -> Flag:
    """Grow a prescribed nested chain of subalgebras into a full flag.

    The zero subspace and the full algebra are added, every dimension gap
    is filled by repeated codimension-1 steps, and the result always
    contains the given members.  A step that no ideal hyperplane supplies
    comes from the flag of ideals, computed at most once per algebra object;
    without one (a verdict other than COMPLETELY_SOLVABLE) it is an
    IncompleteError.
    """
    n = alg.dim
    members: list[Subspace] = []
    for s in chain:
        if s.ambient_dim != n:
            raise ValueError("chain member has the wrong ambient dimension")
        if s not in members:
            members.append(s)
    members.sort(key=lambda s: s.dim)
    for a, b in zip(members, members[1:]):
        if a.dim == b.dim or not b.contains(a):
            raise ChainNotNestedError("chain members are not strictly nested")
    for s in members:
        if not is_subalgebra(alg, s):
            raise NotSubalgebraError("chain member is not bracket-closed")
    zero = Subspace.zero(n)
    full = Subspace.full(n)
    if not members or members[0] != zero:
        members.insert(0, zero)
    if members[-1] != full:
        members.append(full)

    out: list[Subspace] = [members[0]]
    for low, high in zip(members, members[1:]):
        fill: list[Subspace] = []
        top = high
        while top.dim - low.dim >= 2:
            top = _codim_one_step(alg, low, top)
            fill.append(top)
        out.extend(reversed(fill))
        out.append(high)
    return Flag(out)
