"""Weighted diagrams of a closed 2-form along a full chain.

Each chain member carries the radical of the restricted form.  Adjacent
radicals always differ by exactly one dimension and one contains the
other; the direction of that step is the whole combinatorial content.
`kernel_chain` returns the diagram classified: every vertex carries its
class, and derives its index and weight from its member and kernel.
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

# the class of an interior vertex, by the steps into and out of it;
# endpoints are a class of their own and never singular
_INTERIOR_CLASSES = {
    (StepDirection.UP, StepDirection.DOWN): VertexClass.SINGULAR_ATTRACTIVE,
    (StepDirection.DOWN, StepDirection.UP): VertexClass.SINGULAR_REPULSIVE,
    (StepDirection.UP, StepDirection.UP): VertexClass.REGULAR_REDUCIBLE,
    (StepDirection.DOWN, StepDirection.DOWN): VertexClass.REGULAR_NON_REDUCIBLE,
}


@dataclass(frozen=True)
class Vertex:
    """A chain member, the radical of the form on it, and the vertex's class."""

    member: Subspace
    kernel: Subspace
    vclass: VertexClass

    @property
    def index(self) -> int:
        """The dimension of the member."""
        return self.member.dim

    @property
    def weight(self) -> Fraction:
        """dim kernel / (dim member - dim kernel + 1)."""
        return Fraction(self.kernel.dim, self.member.dim - self.kernel.dim + 1)

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
    member adding one row, and each vertex is classified as it is built.
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
    classes = [VertexClass.ENDPOINT_LEFT] + [_INTERIOR_CLASSES[p] for p in zip(steps, steps[1:])]
    if len(members) > 1:  # a one-member chain is its left endpoint only
        classes.append(VertexClass.ENDPOINT_RIGHT)
    return WeightedDiagram(tuple(map(Vertex, members, kernels, classes)), tuple(steps))


def classify_vertices(diagram: WeightedDiagram) -> WeightedDiagram:
    """The diagram as it is: `kernel_chain` classifies every vertex as it
    builds it, and a Vertex is not built without its class."""
    return diagram


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
