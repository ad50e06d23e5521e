"""Full chains of nested subalgebras: validation, search, completion.

A chain is a strictly increasing list of subspaces, one per dimension,
ending at the full algebra.  Chains constructed here always include the
zero subspace; stored chains from input documents keep whatever first
member they declare, and every consumer honors that.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from enum import Enum
from typing import Iterable, Sequence

from .algebra import (
    InputError,
    LieAlgebra,
    NotSubalgebraError,
    SolvabilityVerdict,
    SolvdiagError,
    Subspace,
    _hyperplane_in,
    complete_solvability_certificate,
    is_ideal_in,
    is_subalgebra,
    subalgebra_as_algebra,
)
from .forms import hyperplane_subalgebras


class ChainNotNestedError(InputError):
    code = "CHAIN_NOT_NESTED"


class IncompleteError(SolvdiagError):
    code = "INCOMPLETE"


class Flag:
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
        object.__setattr__(self, "members", ms)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Flag is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.members[0].ambient_dim

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.members)

    @property
    def nonzero_members(self) -> tuple[Subspace, ...]:
        return tuple(m for m in self.members if not m.is_zero())

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Flag(dims={self.dims})"


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


class NormalFlagStatus(Enum):
    FOUND = "FOUND"
    NONE = "NONE"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class NormalFlagResult:
    status: NormalFlagStatus
    flag: Flag | None


def find_normal_flag(alg: LieAlgebra) -> NormalFlagResult:
    """A full chain all of whose members are ideals of the algebra.

    Construction: the members of `complete_solvability_certificate`, found
    by rational common-eigenvector descent on g/I for each member I so far,
    with the structure constants of g/I read from the table of g reduced
    modulo I.  NONE when the algebra is not solvable (no such chain can
    exist); UNDECIDED when the descent hits an irrational spectrum.
    """
    cert = complete_solvability_certificate(alg)
    if cert.verdict is SolvabilityVerdict.NOT_SOLVABLE:
        return NormalFlagResult(NormalFlagStatus.NONE, None)
    if cert.verdict is SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM:
        return NormalFlagResult(NormalFlagStatus.UNDECIDED, None)
    members = (Subspace.zero(alg.dim),) + tuple(cert.witness)
    return NormalFlagResult(NormalFlagStatus.FOUND, Flag(members))


def _codim_one_step(alg: LieAlgebra, low: Subspace, high: Subspace) -> Subspace | None:
    """A codimension-1 subalgebra of `high` containing `low`, or None.

    Preference: hyperplanes containing low + [high, high] (these are ideals
    of high, canonical choice by greedy echelon extension).  Fallback: the
    hyperplane subalgebras that `forms.hyperplane_subalgebras` finds over
    the annihilator basis of low in high and its rational pencils; the
    smallest by sort key wins.
    """
    w = low.sum(alg.derived_span(high))
    if w.dim < high.dim:
        return Subspace(alg.dim, _hyperplane_in(high.int_rows, w.int_rows, w.pivots)[0])

    # fallback: covector search inside `high` as a standalone algebra
    sub = subalgebra_as_algebra(alg, high)
    kernels, _ = hyperplane_subalgebras(sub, high.coordinates(low).annihilator().int_rows)
    return min((high.lift(k) for k in kernels), key=lambda s: s.sort_key(), default=None)


def complete_flag_through(alg: LieAlgebra, chain: Sequence[Subspace]) -> Flag:
    """Grow a prescribed nested chain of subalgebras into a full flag.

    The zero subspace and the full algebra are added, every dimension gap
    is filled by repeated codimension-1 steps, and the result always
    contains the given members.  Raises IncompleteError when the bounded
    covector search cannot supply a step.
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
            step = _codim_one_step(alg, low, top)
            if step is None:
                raise IncompleteError(
                    f"no codimension-1 subalgebra between dims {low.dim} and {top.dim}"
                )
            fill.append(step)
            top = step
        out.extend(reversed(fill))
        out.append(high)
    return Flag(out)
