"""Weighted diagrams of a closed 2-form along a full chain.

Each chain member carries the radical of the restricted form.  Adjacent
radicals always differ by exactly one dimension and one contains the
other; the direction of that step is the whole combinatorial content.
`kernel_chain` returns the diagram classified: every vertex carries its
weight and class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import (
    LieAlgebra,
    SolvdiagError,
    Subspace,
    is_ideal_in,
    is_nilpotent_subalgebra,
)
from .flags import ChainNotNestedError, Flag, chain_shape
from .forms import NotClosedError, TwoForm, is_closed, radicals


class NestingViolationError(SolvdiagError):
    code = "NESTING_VIOLATION"


class StepDirection(Enum):
    UP = "U"
    DOWN = "D"


class VertexClass(Enum):
    ENDPOINT_LEFT = "endpoint-left"
    ENDPOINT_RIGHT = "endpoint-right"
    REGULAR_REDUCIBLE = "regular-reducible"
    REGULAR_NON_REDUCIBLE = "regular-non-reducible"
    SINGULAR_ATTRACTIVE = "singular-attractive"
    SINGULAR_REPULSIVE = "singular-repulsive"


SINGULAR_CLASSES = (VertexClass.SINGULAR_ATTRACTIVE, VertexClass.SINGULAR_REPULSIVE)


@dataclass(frozen=True)
class Vertex:
    index: int  # dimension of the member
    member: Subspace
    kernel: Subspace
    weight: Fraction | None = None
    vclass: VertexClass | None = None

    @property
    def is_singular(self) -> bool:
        return self.vclass in SINGULAR_CLASSES


@dataclass(frozen=True)
class WeightedDiagram:
    vertices: tuple[Vertex, ...]
    steps: tuple[StepDirection, ...]

    @property
    def kernel_dims(self) -> tuple[int, ...]:
        return tuple(v.kernel.dim for v in self.vertices)

    @property
    def member_dims(self) -> tuple[int, ...]:
        return tuple(v.member.dim for v in self.vertices)

    def singular_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.is_singular)


def kernel_chain(alg: LieAlgebra, omega: TwoForm, flag: Flag) -> WeightedDiagram:
    """Radicals of the restricted form along the chain, with step directions.

    The chain must have consecutive dimensions, be nested, and end at the
    full algebra; members need not be bracket-closed (the radicals are
    still well defined).  Adjacent radicals must nest one way or the other;
    anything else is reported as NESTING_VIOLATION rather than guessed.
    The radicals come from one `radicals` pass along the chain, each
    member adding one row, and the diagram comes back classified.
    """
    if not is_closed(alg, omega):
        raise NotClosedError("the 2-form is not closed")
    shape = chain_shape(alg, flag)
    if not shape.dims_consecutive:
        raise ChainNotNestedError("chain dimensions are not consecutive")
    if not shape.ends_at_full:
        raise ChainNotNestedError("chain does not end at the full algebra")
    if not all(shape.nesting):
        raise ChainNotNestedError("chain members are not nested")

    members = flag.members
    kernels = radicals(omega, members)
    steps = []
    for a, b, ha, hb in zip(members, members[1:], kernels, kernels[1:]):
        if hb.dim == ha.dim + 1 and hb.contains(ha):
            steps.append(StepDirection.UP)
        elif hb.dim == ha.dim - 1 and ha.contains(hb):
            steps.append(StepDirection.DOWN)
        else:
            raise NestingViolationError(
                f"radicals at dims {a.dim} and {b.dim} do not nest by one"
            )
    vertices = [(m.dim, m, h) for m, h in zip(members, kernels)]
    return _classified(vertices, tuple(steps))


def classify_vertices(diagram: WeightedDiagram) -> WeightedDiagram:
    """Attach weights and vertex classes.

    weight = dim kernel / (dim member - dim kernel + 1).  Interior classes
    by adjacent step pair: (U,D) attractive, (D,U) repulsive, (U,U)
    reducible regular, (D,D) non-reducible regular.  Endpoints are a class
    of their own and never singular.  A diagram whose every vertex carries
    a weight and a class, as `kernel_chain` returns it, comes back as it is.
    """
    vs = diagram.vertices
    if all(v.weight is not None and v.vclass is not None for v in vs):
        return diagram
    return _classified([(v.index, v.member, v.kernel) for v in vs], diagram.steps)


def _classified(vertices, steps: tuple[StepDirection, ...]) -> WeightedDiagram:
    """The classified diagram of (index, member, kernel) triples and steps."""
    out = []
    last = len(vertices) - 1
    for i, (index, member, ker) in enumerate(vertices):
        weight = Fraction(ker.dim, member.dim - ker.dim + 1)
        if i == 0:
            cls = VertexClass.ENDPOINT_LEFT
        elif i == last:
            cls = VertexClass.ENDPOINT_RIGHT
        else:
            pair = (steps[i - 1], steps[i])
            if pair == (StepDirection.UP, StepDirection.DOWN):
                cls = VertexClass.SINGULAR_ATTRACTIVE
            elif pair == (StepDirection.DOWN, StepDirection.UP):
                cls = VertexClass.SINGULAR_REPULSIVE
            elif pair == (StepDirection.UP, StepDirection.UP):
                cls = VertexClass.REGULAR_REDUCIBLE
            else:
                cls = VertexClass.REGULAR_NON_REDUCIBLE
        out.append(Vertex(index, member, ker, weight, cls))
    return WeightedDiagram(vertices=tuple(out), steps=steps)


def contract(diagram: WeightedDiagram) -> tuple[tuple[StepDirection, int], ...]:
    """Run-length encoding of the step sequence."""
    runs: list[tuple[StepDirection, int]] = []
    for s in diagram.steps:
        if runs and runs[-1][0] is s:
            runs[-1] = (s, runs[-1][1] + 1)
        else:
            runs.append((s, 1))
    return tuple(runs)


def weight_zero_singulars(diagram: WeightedDiagram) -> tuple[int, ...]:
    """Positions (into vertices) of singular vertices with zero kernel."""
    return tuple(
        i for i, v in enumerate(diagram.vertices) if v.is_singular and v.kernel.is_zero()
    )


def components(diagram: WeightedDiagram) -> tuple[tuple[int, int], ...]:
    """Maximal subpaths cut at zero-weight singular vertices.

    Returned as (start, end) vertex positions, inclusive; the cutting
    vertices belong to both neighbors.
    """
    cuts = weight_zero_singulars(diagram)
    bounds = [0, *cuts, len(diagram.vertices) - 1]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        if b > a:
            out.append((a, b))
    if not out:
        out.append((0, len(diagram.vertices) - 1))
    return tuple(out)


@dataclass(frozen=True)
class DiagramPredicates:
    connected: bool
    simple: bool
    semi_normal: bool
    semi_nilpotent: bool
    semi_simple: bool


def predicates(alg: LieAlgebra, diagram: WeightedDiagram) -> DiagramPredicates:
    cuts = weight_zero_singulars(diagram)
    connected = not cuts
    singulars = diagram.singular_vertices()
    simple = (
        connected
        and len(singulars) == 1
        and singulars[0].vclass is VertexClass.SINGULAR_ATTRACTIVE
    )

    cut_members = [diagram.vertices[i].member for i in cuts]
    full = Subspace.full(alg.dim)
    semi_normal = all(is_ideal_in(alg, m, full) for m in cut_members)
    semi_nilpotent = all(is_nilpotent_subalgebra(alg, m) for m in cut_members)

    semi_simple = semi_normal
    for start, end in components(diagram):
        inner = [
            v
            for v in diagram.vertices[start + 1 : end]
            if v.is_singular and not v.kernel.is_zero()
        ]
        if len(inner) != 1 or inner[0].vclass is not VertexClass.SINGULAR_ATTRACTIVE:
            semi_simple = False
            break
    return DiagramPredicates(
        connected=connected,
        simple=simple,
        semi_normal=semi_normal,
        semi_nilpotent=semi_nilpotent,
        semi_simple=semi_simple,
    )


def equivalence_key(diagram: WeightedDiagram):
    """Multiset of (member, kernel) pairs at singular vertices."""
    return tuple(
        sorted(
            (v.member.sort_key(), v.kernel.sort_key())
            for v in diagram.singular_vertices()
        )
    )


def equivalent(d1: WeightedDiagram, d2: WeightedDiagram) -> bool:
    return equivalence_key(d1) == equivalence_key(d2)


class Template(Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    DELTA = "delta"
    DISCONNECTED = "disconnected"
    OTHER = "other"


_TEMPLATES = {
    ("U", "D"): Template.DELTA,
    ("U", "D", "U"): Template.GAMMA,
    ("U", "D", "U", "D"): Template.BETA,
    ("U", "D", "U", "D", "U"): Template.ALPHA,
}


def match_template(diagram: WeightedDiagram) -> Template:
    """Classify the contracted shape of the step sequence."""
    if weight_zero_singulars(diagram):
        return Template.DISCONNECTED
    pattern = tuple(direction.value for direction, _ in contract(diagram))
    return _TEMPLATES.get(pattern, Template.OTHER)
