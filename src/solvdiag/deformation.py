"""Deforming a disconnected kernel chain into a simple one.

The pivot of the construction is the leftmost singular vertex with zero
kernel.  Its member must be a nilpotent ideal carrying a nondegenerate
restriction; the algebra then splits as that ideal against its symplectic
orthogonal, and a descent through invariant hyperplanes of the ideal
produces the members of a new chain whose diagram has a single singular
vertex per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    LieAlgebra,
    SolvabilityVerdict,
    SolvdiagError,
    Subspace,
    _eigenspaces,
    _ibracket,
    _sparse,
    complete_solvability_certificate,
    is_ideal_in,
    is_nilpotent_subalgebra,
    is_subalgebra,
    subalgebra_as_algebra,
)
from .diagram import (
    StepDirection,
    VertexClass,
    WeightedDiagram,
    kernel_chain,
    predicates,
)
from .flags import Flag, complete_flag_through
from .forms import TwoForm, is_isotropic, kernel, radical, radicals, symplectic_orthogonal


class NoRepulsiveVertexError(SolvdiagError):
    code = "NO_REPULSIVE_VERTEX"


class SplitInvariantFailedError(SolvdiagError):
    code = "SPLIT_INVARIANT_FAILED"

    def __init__(self, check: str) -> None:
        super().__init__(f"split invariant failed: {check}")
        self.check = check


class IrrationalSpectrumError(SolvdiagError):
    code = "IRRATIONAL_SPECTRUM"


class DescentStuckError(SolvdiagError):
    code = "DESCENT_STUCK"


class NotSemisimpleError(SolvdiagError):
    code = "NOT_SEMISIMPLE"


@dataclass(frozen=True)
class SemidirectSplit:
    nil_ideal: Subspace
    complement: Subspace
    iso_part: Subspace
    attractive_member: Subspace


def split_at_repulsive(
    alg: LieAlgebra, omega: TwoForm, diagram: WeightedDiagram
) -> SemidirectSplit:
    """Split the algebra at the leftmost zero-kernel repulsive vertex.

    Checks run in a fixed order and the first failure is reported by name:
    the member must be a nilpotent subalgebra, an ideal, and carry a
    nondegenerate restriction; its symplectic orthogonal must be a
    complementary subalgebra; the next singular vertex to the right must be
    attractive and cut the complement in an isotropic part containing the
    form's kernel.
    """
    pivot = None
    for i, v in enumerate(diagram.vertices):
        if v.vclass is VertexClass.SINGULAR_REPULSIVE and v.kernel.is_zero():
            pivot = i
            break
    if pivot is None:
        raise NoRepulsiveVertexError("no zero-kernel repulsive vertex")
    nil = diagram.vertices[pivot].member

    if not is_nilpotent_subalgebra(alg, nil):
        raise SplitInvariantFailedError("nilpotent")
    if not is_ideal_in(alg, nil, Subspace.full(alg.dim)):
        raise SplitInvariantFailedError("ideal")
    if not radical(omega, nil).is_zero():
        raise SplitInvariantFailedError("nondegenerate restriction")
    comp = symplectic_orthogonal(omega, nil)
    if not is_subalgebra(alg, comp):
        raise SplitInvariantFailedError("complement subalgebra")
    if not (nil.intersect(comp).is_zero() and nil.dim + comp.dim == alg.dim):
        raise SplitInvariantFailedError("direct sum")

    attractive = None
    for v in diagram.vertices[pivot + 1 :]:
        if v.is_singular:
            attractive = v
            break
    if attractive is None or attractive.vclass is not VertexClass.SINGULAR_ATTRACTIVE:
        raise SplitInvariantFailedError("adjacent attractive vertex")
    iso = attractive.member.intersect(comp)
    if not iso.contains(kernel(omega)):
        raise SplitInvariantFailedError("kernel inside isotropic part")
    if not is_isotropic(omega, iso):
        raise SplitInvariantFailedError("isotropic part")
    return SemidirectSplit(
        nil_ideal=nil, complement=comp, iso_part=iso, attractive_member=attractive.member
    )


@dataclass(frozen=True)
class DescentChain:
    """Members of the descent, ascending from half to full nil-ideal dimension,
    and their kernels h_1 .. h_m (also ascending)."""

    members: tuple[Subspace, ...]
    kernels: tuple[Subspace, ...]


def _simultaneous_eigencovector_families(mats, dim: int) -> list[Subspace]:
    """All joint rational eigencovector spaces of the actions whose transposes
    are mats (row i the image of e_i), as spaces of row vectors on Q^dim."""
    families = [Subspace.full(dim)]
    for m in mats:
        eigenspaces = [Subspace(dim, e) for e in _eigenspaces(m, dim)]
        families = [space.intersect(eig) for space in families for eig in eigenspaces]
        families = [f for f in families if not f.is_zero()]
        if not families:
            break
    return families


def equivariant_descent(
    alg: LieAlgebra, omega: TwoForm, split: SemidirectSplit
) -> DescentChain:
    """Halve the nil-ideal through hyperplanes invariant under the complement.

    Each stage shrinks the current member by one dimension.  The hyperplane
    must contain the previous kernel plus the member's derived subalgebra;
    modulo that forced part, invariant hyperplanes are kernels of joint
    rational eigencovectors of the complement action.  Among the candidate
    hyperplanes the canonically least one is taken.  No rational joint
    eigencovector at some stage means the descent cannot be certified.
    """
    n = alg.dim
    nil = split.nil_ideal
    if nil.dim % 2:
        raise SolvdiagError("nil ideal of odd dimension despite nondegenerate form")
    m = nil.dim // 2
    t = nil
    h = Subspace.zero(n)
    members_desc = [nil]
    kernels: list[Subspace] = []
    for j in range(1, m + 1):
        forced = h.sum(alg.derived_span(t))
        if not t.contains(forced):
            raise DescentStuckError("derived part escapes the member")
        if forced.dim >= t.dim:
            raise DescentStuckError("no room for an invariant hyperplane")
        # t = forced + quot, quot spanned by the echelon rows of t at the
        # pivots forced lacks; quot's coordinates are those of t / forced
        quot = Subspace(n, [r for r, p in zip(t.int_rows, t.pivots) if p not in forced.pivots])
        # the action on integer rows (brackets with quot's rows at their common
        # pivot, reduced modulo forced's as L*v - sum of v[p] row_p) is a positive
        # multiple of the true one: same eigenspaces in the same order
        lcm, reducers = forced._common_pivot_rows()
        rows = _sparse(quot._common_pivot_rows()[1])
        induced = []
        for z in _sparse(split.complement.int_rows):
            cols = []
            for r in rows:
                v = _ibracket(alg.consts, z, r)
                hits = [(v[p], row) for p, row in zip(forced.pivots, reducers) if v[p]]
                img = [lcm * x - sum(c * row[k] for c, row in hits) for k, x in enumerate(v)]
                if not quot._has(img):
                    raise DescentStuckError("complement action leaves the member")
                cols.append([img[p] for p in quot.pivots])
            induced.append(cols)

        # the greedy hyperplane over a family's annihilator adds e_p at the pivots
        # of all but the family's last echelon row, in order: that row's kernel
        candidates = []
        for covectors in _simultaneous_eigencovector_families(induced, quot.dim):
            hyper = Subspace(quot.dim, covectors.int_rows[-1:]).annihilator()
            candidates.append(forced.sum(quot.lift(hyper)))
        if not candidates:
            raise IrrationalSpectrumError(
                f"no rational joint eigencovector at stage {j}"
            )
        t = min(candidates, key=lambda s: s.sort_key())
        h_new = radical(omega, t)
        if h_new.dim != j or not h_new.contains(h):
            raise DescentStuckError(f"kernel did not grow by one at stage {j}")
        if not h_new.contains(alg.bracket_spans(split.complement, h_new)):
            raise DescentStuckError("kernel is not invariant under the complement")
        if not t.contains(alg.bracket_spans(split.complement, t)):
            raise DescentStuckError("member is not invariant under the complement")
        if not is_isotropic(omega, h_new.sum(split.iso_part)):
            raise DescentStuckError("kernel is not isotropic against the complement part")
        h = h_new
        members_desc.append(t)
        kernels.append(h)
    if m and h != t:
        raise DescentStuckError("descent did not end in a fully degenerate member")
    return DescentChain(members=tuple(reversed(members_desc)), kernels=tuple(kernels))


def _assemble_flag(
    alg: LieAlgebra, split: SemidirectSplit, descent: DescentChain
) -> Flag:
    n = alg.dim
    a = split.iso_part
    members: list[Subspace] = []

    if a.dim:
        cert = complete_solvability_certificate(subalgebra_as_algebra(alg, a))
        if cert.verdict is SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM:
            raise IrrationalSpectrumError("isotropic part has irrational spectrum")
        if cert.verdict is SolvabilityVerdict.NOT_SOLVABLE:
            raise SolvdiagError("isotropic part is not solvable")
        members.extend(a.lift(mem) for mem in cert.witness)

    for h_j in descent.kernels:
        members.append(h_j.sum(a))
    for t_mem in descent.members[1:]:
        members.append(t_mem.sum(a))

    comp = split.complement
    comp_flag = complete_flag_through(subalgebra_as_algebra(alg, comp), [comp.coordinates(a)])
    for mem in comp_flag.members:
        if mem.dim > a.dim:
            members.append(split.nil_ideal.sum(comp.lift(mem)))

    out = [Subspace.zero(n)]
    for s in members:
        if s != out[-1]:
            out.append(s)
    flag = Flag(out)
    dims = flag.dims
    if dims != tuple(range(n + 1)):
        raise SolvdiagError(f"assembled chain has dimension profile {dims}")
    return flag


def deform_to_simple(alg: LieAlgebra, omega: TwoForm, flag: Flag) -> Flag:
    """Rebuild the chain until its diagram has a single attractive vertex.

    A chain whose diagram is already simple is returned unchanged.  The
    input diagram must have nilpotent ideals at all its zero-kernel
    singular vertices and exactly one attractive vertex per component;
    anything else cannot be deformed by this construction.
    """
    current = flag
    for _ in range(alg.dim + 1):
        d = kernel_chain(alg, omega, current)
        preds = predicates(alg, d)
        if preds.simple:
            return current
        if not (preds.semi_simple and preds.semi_nilpotent):
            raise NotSemisimpleError(
                "diagram components are not simple with nilpotent cut members"
            )
        split = split_at_repulsive(alg, omega, d)
        descent = equivariant_descent(alg, omega, split)
        current = _assemble_flag(alg, split, descent)
    raise SolvdiagError("deformation did not terminate")


@dataclass(frozen=True)
class ReductionReport:
    direction: StepDirection | None
    ok: bool
    failures: tuple[str, ...]


def audit_step(
    alg: LieAlgebra,
    omega: TwoForm,
    low_member: Subspace,
    low_kernel: Subspace,
    high_member: Subspace,
    high_kernel: Subspace,
) -> ReductionReport:
    """Check one step of a kernel chain, taking the kernels as claims.

    Every violated clause is reported; a corrupted chain therefore fails
    loudly instead of silently reclassifying.
    """
    failures: list[str] = []
    if not (high_member.contains(low_member) and high_member.dim == low_member.dim + 1):
        failures.append("member nesting")
    low_radical, high_radical = radicals(omega, [low_member, high_member])
    if low_radical != low_kernel:
        failures.append("left kernel is the radical")
    if high_radical != high_kernel:
        failures.append("right kernel is the radical")

    direction: StepDirection | None = None
    if high_kernel.dim == low_kernel.dim + 1:
        direction = StepDirection.UP
        if not high_kernel.contains(low_kernel):
            failures.append("kernel nesting")
        if low_member.sum(high_kernel) != high_member:
            failures.append("member recovered from kernel")
        if (low_member.dim - low_kernel.dim) != (high_member.dim - high_kernel.dim):
            failures.append("reduced dimension preserved")
    elif high_kernel.dim == low_kernel.dim - 1:
        direction = StepDirection.DOWN
        if not low_kernel.contains(high_kernel):
            failures.append("kernel nesting")
        # the ideal relation between consecutive kernels is only promised
        # when the larger kernel is bracket-closed
        elif is_subalgebra(alg, low_kernel) and not is_ideal_in(
            alg, high_kernel, low_kernel
        ):
            failures.append("codimension-1 ideal")
        if (low_member.dim - low_kernel.dim) != (high_member.dim - high_kernel.dim) - 2:
            failures.append("reduced dimension drops by two")
    else:
        failures.append("kernel dimensions differ by one")
    return ReductionReport(direction=direction, ok=not failures, failures=tuple(failures))


def step_audit(alg: LieAlgebra, omega: TwoForm, flag: Flag, k: int) -> ReductionReport:
    """Audit the step between the members of dimension k and k+1."""
    by_dim = {m.dim: m for m in flag.members}
    if k not in by_dim or k + 1 not in by_dim:
        raise ValueError(f"the chain has no step from dimension {k}")
    low, high = by_dim[k], by_dim[k + 1]
    return audit_step(alg, omega, low, radical(omega, low), high, radical(omega, high))
