"""Lagrangian subalgebras of a closed 2-form and their chains.

A verified candidate is a bracket-closed subspace containing the form's
kernel, isotropic, and of the maximal possible dimension for that
((n + dim ker)/2, as rank = n - dim ker).  Searches only ever report
verified candidates and say how complete they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import (
    InputError,
    LieAlgebra,
    SolvdiagError,
    Subspace,
    complete_solvability_certificate,
    derived_subalgebra,
    is_subalgebra,
    subalgebra_closure,
    vector_sort_key,
)
from .diagram import (
    WeightedDiagram,
    kernel_chain,
    predicates,
)
from .flags import Flag, complete_flag_through
from .forms import NotClosedError, TwoForm, is_closed, is_isotropic, kernel, radicals


class NotLagrangianError(InputError):
    code = "NOT_LAGRANGIAN"


class NotSimpleError(SolvdiagError):
    code = "NOT_SIMPLE"


@dataclass(frozen=True)
class LagrangianCandidate:
    subspace: Subspace
    reasons: tuple[str, ...] = ()

    @property
    def verified(self) -> bool:
        return not self.reasons

    @property
    def status(self) -> str:
        return "VERIFIED" if self.verified else "REJECTED"


def verify_lagrangian(alg: LieAlgebra, omega: TwoForm, s: Subspace) -> LagrangianCandidate:
    ker = kernel(omega)
    return _verify(alg, omega, s, ker, (alg.dim + ker.dim) // 2)


def _verify(alg, omega, s: Subspace, ker: Subspace, target: int) -> LagrangianCandidate:
    """`verify_lagrangian` given the form's kernel and the Lagrangian dimension."""
    reasons = []
    if not is_subalgebra(alg, s):
        reasons.append("not a subalgebra")
    if not s.contains(ker):
        reasons.append("does not contain the kernel of the form")
    if not is_isotropic(omega, s):
        reasons.append("not isotropic")
    if s.dim != target:
        reasons.append(f"dimension {s.dim} instead of {target}")
    return LagrangianCandidate(subspace=s, reasons=tuple(reasons))


def vergne_candidate(alg: LieAlgebra, omega: TwoForm, flag: Flag) -> LagrangianCandidate:
    """Sum of the radicals of the restrictions along the chain, then verified.

    On a full flag of ideals g_0 < g_1 < ... < g_n = g, for any closed omega,
    the sum V of the rad(omega|g_k) is a Lagrangian subalgebra containing
    ker omega = rad(omega|g) (M. Vergne, C. R. Acad. Sci. Paris 270, 1970).
    That V is isotropic of dimension (n + dim ker omega)/2 is linear algebra
    on any full flag of subspaces (Bernat et al., Representations des
    groupes de Lie resolubles, Dunod, 1972).  It is a subalgebra: take x in
    rad(omega|g_i), y in rad(omega|g_j), i <= j, and z in g_i.  Then [x, y]
    is in g_i, and by d omega = 0, omega([x,y],z) + omega([y,z],x) +
    omega([z,x],y) = 0.  [y,z] is in g_i, an ideal, so omega([y,z],x) = 0;
    [z,x] is in g_i, inside g_j, so omega([z,x],y) = 0.  So [x, y] is in
    rad(omega|g_i), inside V.  The proof needs closedness only, so on a
    flag of ideals a rejected candidate is a fault, not a miss.  The
    radicals come from one `radicals` pass along the flag; any sequence of
    subspaces is accepted, a member that does not contain its predecessor
    starting the pass afresh.
    """
    rows = [r for rad in radicals(omega, flag.members) for r in rad.int_rows]
    return verify_lagrangian(alg, omega, Subspace(alg.dim, rows))


class SearchCompleteness(Enum):
    EXHAUSTIVE_WITHIN_MODE = "EXHAUSTIVE_WITHIN_MODE"
    HEURISTIC = "HEURISTIC"


@dataclass(frozen=True)
class SearchVerdict:
    found: tuple[Subspace, ...]
    completeness: SearchCompleteness


_MODES = ("vergne", "flag_adapted", "both")


def find_lagrangians(alg: LieAlgebra, omega: TwoForm, mode: str = "both") -> SearchVerdict:
    """Search for Lagrangian subalgebras.

    vergne: radical summation along a normal chain, a Lagrangian by
    Vergne's theorem (`vergne_candidate`), so a rejected candidate there is
    a SolvdiagError.  flag_adapted: backtracking over the echelon
    generators of the normal chain's members, growing bracket-closed
    isotropic subspaces from the form's kernel.  Each closed set is visited
    once, by prefix-preserving closure extension (Uno, Kiyomi & Arimura,
    "LCM ver. 2", FIMI 2004).  The search is exhaustive for the generator
    family it draws from only when the algebra is abelian; otherwise the
    verdict is marked heuristic.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if not is_closed(alg, omega):
        raise NotClosedError("the 2-form is not closed")
    n = alg.dim
    found: set[Subspace] = set()
    normal = complete_solvability_certificate(alg).flag

    if mode in ("vergne", "both") and normal is not None:
        cand = vergne_candidate(alg, omega, normal)
        if not cand.verified:  # pragma: no cover - Vergne's theorem
            raise SolvdiagError("Vergne candidate on a normal flag: " + "; ".join(cand.reasons))
        found.add(cand.subspace)

    ran_adapted = False
    if mode in ("flag_adapted", "both") and normal is not None:
        ran_adapted = True
        ker = kernel(omega)
        target = (n + ker.dim) // 2
        # the primitive integer echelon rows of the members, each once
        rows = (row for member in normal.members for row in member.int_rows)
        gens = sorted(dict.fromkeys(rows), key=vector_sort_key)
        paired = [omega.pair_ints(g) for g in gens]  # denom * omega(g, .)

        def extend(cur: Subspace, start: int) -> None:
            if cur.dim == target:
                if _verify(alg, omega, cur, ker, target).verified:
                    found.add(cur)
                return
            for i in range(start, len(gens)):
                v = gens[i]
                if cur._has(v):
                    continue
                if any(sum(x * y for x, y in zip(r, paired[i]) if x) for r in cur.int_rows):
                    continue
                grown = subalgebra_closure(alg, [v], closed=cur)
                if grown.dim > target:
                    continue
                # prefix-preserving: keep grown only when it gains no generator
                # before i, so each closed set is extended once, from its
                # canonical parent, and no visited set is needed
                if any(grown._has(g) and not cur._has(g) for g in gens[:i]):
                    continue
                if not is_isotropic(omega, grown):
                    continue
                extend(grown, i + 1)

        start = ker
        if is_subalgebra(alg, start) and is_isotropic(omega, start):
            extend(start, 0)

    exhaustive = ran_adapted and derived_subalgebra(alg).is_zero()
    return SearchVerdict(
        found=tuple(sorted(found, key=lambda s: s.sort_key())),
        completeness=(
            SearchCompleteness.EXHAUSTIVE_WITHIN_MODE
            if exhaustive
            else SearchCompleteness.HEURISTIC
        ),
    )


def lagrangian_to_flag(alg: LieAlgebra, omega: TwoForm, lagr: Subspace) -> Flag:
    """Complete kernel < lagrangian < algebra into a full chain.

    The resulting diagram is checked to be simple with its singular vertex
    exactly at the lagrangian.
    """
    cand = verify_lagrangian(alg, omega, lagr)
    if not cand.verified:
        raise NotLagrangianError("; ".join(cand.reasons))
    if omega.is_zero():
        raise NotSimpleError("the zero form admits no singular vertex")
    ker = kernel(omega)
    chain = [s for s in (ker, lagr) if not s.is_zero()]
    flag = complete_flag_through(alg, chain)
    d = kernel_chain(alg, omega, flag)
    singulars = d.singular_vertices()
    if not predicates(alg, d).simple or singulars[0].member != lagr or singulars[0].kernel != lagr:
        raise SolvdiagError(
            "completed chain does not give a simple diagram pinned at the lagrangian"
        )
    return flag


def diagram_to_lagrangian(
    alg: LieAlgebra, omega: TwoForm, diagram: WeightedDiagram
) -> LagrangianCandidate:
    """Read the candidate off a simple diagram's singular vertex.

    The member is handed to verification, so a chain of subspaces that are
    not actually bracket-closed yields an honest rejection.
    """
    if not predicates(alg, diagram).simple:
        raise NotSimpleError("the diagram does not have exactly one attractive vertex")
    return verify_lagrangian(alg, omega, diagram.singular_vertices()[0].member)
