"""Splitting at a repulsive vertex and rebuilding a simple chain."""

import hashlib
from random import Random

import pytest

from solvdiag import (
    Flag,
    LieAlgebra,
    NoRepulsiveVertexError,
    NotSemisimpleError,
    SolvdiagError,
    SplitInvariantFailedError,
    StepDirection,
    Subspace,
    TwoForm,
    audit_step,
    change_basis,
    classify_vertices,
    deform_to_simple,
    equivariant_descent,
    find_normal_flag,
    kernel_chain,
    match_template,
    predicates,
    random_closed_form,
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
    split_at_repulsive,
    step_audit,
)
from solvdiag import Template, deformation
from solvdiag.forms import radical


def two_block_algebra():
    # abelian 4-dim ideal with two hyperbolic planes, scaled by one direction
    return LieAlgebra.from_brackets(
        ("p", "q", "r", "s", "c", "t"),
        {
            ("t", "p"): {"p": 1},
            ("t", "q"): {"q": 1},
            ("t", "r"): {"r": -1},
            ("t", "s"): {"s": -1},
        },
    )


def two_block_form():
    return TwoForm.from_pairs(6, [(0, 3, 1), (1, 2, 1), (5, 4, 1)])


def span6(*idx):
    return Subspace(6, [tuple(1 if i == k else 0 for i in range(6)) for k in idx])


def two_block_flag():
    return Flag(
        [
            Subspace.zero(6),
            span6(0),
            span6(0, 1),
            span6(0, 1, 2),
            span6(0, 1, 2, 3),
            span6(0, 1, 2, 3, 4),
            Subspace.full(6),
        ]
    )


def diagram_of(doc, flag_name="F"):
    return classify_vertices(
        kernel_chain(doc.algebra, doc.two_forms["omega"], doc.flags[flag_name])
    )


class TestSplit:
    def test_d1_split(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        d = diagram_of(d1, "F2comp")
        split = split_at_repulsive(alg, w, d)
        assert split.nil_ideal == Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert split.complement == Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        assert split.iso_part == Subspace(4, [(0, 0, 1, 0)])
        assert split.attractive_member.dim == 3

    def test_no_repulsive_vertex(self, e1):
        d = diagram_of(e1)
        with pytest.raises(NoRepulsiveVertexError) as err:
            split_at_repulsive(e1.algebra, e1.two_forms["omega"], d)
        assert err.value.code == "NO_REPULSIVE_VERTEX"

    def test_x3_f2_member_not_nilpotent(self, x3):
        # the zero-kernel repulsive member there is a subalgebra with a
        # diagonalizable inner action, so the first named check trips
        d = diagram_of(x3, "F2")
        with pytest.raises(SplitInvariantFailedError) as err:
            split_at_repulsive(x3.algebra, x3.two_forms["omega"], d)
        assert err.value.check == "nilpotent"
        assert err.value.code == "SPLIT_INVARIANT_FAILED"


class TestDescent:
    def test_two_stage_descent(self):
        alg = two_block_algebra()
        w = two_block_form()
        d = classify_vertices(kernel_chain(alg, w, two_block_flag()))
        split = split_at_repulsive(alg, w, d)
        assert split.nil_ideal == span6(0, 1, 2, 3)
        assert split.iso_part == span6(4)
        chain = equivariant_descent(alg, w, split)
        assert [m.dim for m in chain.members] == [2, 3, 4]
        assert chain.members[0] == span6(0, 1)
        assert chain.members[1] == span6(0, 1, 2)
        assert chain.kernels == (span6(0), span6(0, 1))
        # kernels ascend h_1..h_m while members ascend t_m..t_0, so the
        # dim-(n-j) member carries the dim-j kernel
        for mem, ker in zip(chain.members, reversed(chain.kernels)):
            assert radical(w, mem) == ker


class TestDeform:
    def test_d1_full_rebuild(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        out = deform_to_simple(alg, w, d1.flags["F2comp"])
        expected = [
            Subspace.zero(4),
            Subspace(4, [(0, 0, 1, 0)]),
            Subspace(4, [(1, 0, 0, 0), (0, 0, 1, 0)]),
            Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
            Subspace.full(4),
        ]
        assert list(out.members) == expected
        d = classify_vertices(kernel_chain(alg, w, out))
        assert predicates(alg, d).simple
        assert match_template(d) is Template.DELTA

    def test_two_block_rebuild(self):
        alg = two_block_algebra()
        w = two_block_form()
        out = deform_to_simple(alg, w, two_block_flag())
        assert list(out.members) == [
            Subspace.zero(6),
            span6(4),
            span6(0, 4),
            span6(0, 1, 4),
            span6(0, 1, 2, 4),
            span6(0, 1, 2, 3, 4),
            Subspace.full(6),
        ]
        d = classify_vertices(kernel_chain(alg, w, out))
        assert d.kernel_dims == (0, 1, 2, 3, 2, 1, 0)
        assert predicates(alg, d).simple

    def test_simple_input_returned_unchanged(self, e1, x1):
        for doc in (e1, x1):
            out = deform_to_simple(doc.algebra, doc.two_forms["omega"], doc.flags["F"])
            assert out == doc.flags["F"]

    def test_rejects_non_semisimple_shape(self, x3):
        with pytest.raises(NotSemisimpleError):
            deform_to_simple(x3.algebra, x3.two_forms["omega"], x3.flags["F2"])


def _deformation_records(monkeypatch):
    """One line per generated instance: deform_to_simple's chain (every
    member's echelon rows) or the code of the typed error it raised, and
    the number of equivariant descents run.

    Dims 4-6, both generator families, a random unimodular basis for every
    odd seed, a random closed form and the normal chain; dims 3, 7 and 8
    reach no descent with these seeds.
    """
    descents = []
    run = deformation.equivariant_descent

    def counting(*args):
        descents.append(1)
        return run(*args)

    monkeypatch.setattr(deformation, "equivariant_descent", counting)
    lines = []
    for dim in (4, 5, 6):
        for make in (random_completely_solvable, random_nilpotent):
            for seed in range(60):
                rng = Random(100 * dim + seed)
                alg = make(rng, dim)
                if seed % 2:
                    alg = change_basis(alg, random_unimodular(rng, dim))
                form = random_closed_form(rng, alg)
                try:
                    out = deform_to_simple(alg, form, find_normal_flag(alg).flag)
                except SolvdiagError as exc:
                    lines.append(exc.code)
                    continue
                rows = ("; ".join(" ".join(map(str, r)) for r in m.rows) for m in out.members)
                lines.append(" | ".join(rows))
    return lines, len(descents)


# SHA-256 of _deformation_records() as computed by the descent that built its
# induced matrices from Fraction brackets, reduce_vector and coordinates_of
GOLDEN_DEFORMATION_DIGEST = "b850ffb9e1f1129ff95534467179f2ab024ed6d0f41f9a40dcfdc85d37a9f119"


def test_deformation_results_unchanged(monkeypatch):
    records, descents = _deformation_records(monkeypatch)
    assert len(records) == 360
    assert descents == 20
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_DEFORMATION_DIGEST


class TestStepAudit:
    def test_corpus_steps_all_ok(self, e1, e2, x1, x2, d1):
        for doc in (e1, e2, x1, x2, d1):
            alg = doc.algebra
            w = doc.two_forms["omega"]
            for f in doc.flags.values():
                dims = f.dims
                for k in dims[:-1]:
                    rep = step_audit(alg, w, f, k)
                    assert rep.ok, (doc.name, k, rep.failures)

    def test_direction_matches_diagram(self, e1):
        f = e1.flags["F"]
        d = diagram_of(e1)
        for k, step in zip(f.dims, d.steps):
            rep = step_audit(e1.algebra, e1.two_forms["omega"], f, k)
            assert rep.direction is step

    def test_missing_dimension_rejected(self, e1):
        with pytest.raises(ValueError):
            step_audit(e1.algebra, e1.two_forms["omega"], e1.flags["F"], 7)

    def test_wrong_kernel_claim_up(self, e1):
        alg = e1.algebra
        w = e1.two_forms["omega"]
        f = e1.flags["F"]
        low, high = f.members[0], f.members[1]
        c, a = alg.basis_vector("c"), alg.basis_vector("a")
        claimed = Subspace(5, [c, a])
        rep = audit_step(alg, w, low, radical(w, low), high, claimed)
        assert not rep.ok
        assert rep.direction is StepDirection.UP
        assert "right kernel is the radical" in rep.failures
        assert "member recovered from kernel" in rep.failures

    def test_wrong_kernel_claim_down(self, e1):
        alg = e1.algebra
        w = e1.two_forms["omega"]
        f = e1.flags["F"]
        low, high = f.members[2], f.members[3]
        b, a = alg.basis_vector("b"), alg.basis_vector("a")
        claimed = Subspace(5, [b, a])  # not an ideal in the dim-3 kernel
        rep = audit_step(alg, w, low, radical(w, low), high, claimed)
        assert not rep.ok
        assert rep.direction is StepDirection.DOWN
        assert "right kernel is the radical" in rep.failures
        assert "codimension-1 ideal" in rep.failures

    def test_kernel_dim_gap_has_no_direction(self, e1):
        alg = e1.algebra
        w = e1.two_forms["omega"]
        f = e1.flags["F"]
        low, high = f.members[0], f.members[1]
        rep = audit_step(alg, w, low, Subspace.zero(5), high, radical(w, high))
        assert rep.direction is StepDirection.UP or rep.direction is None
        bad = audit_step(alg, w, low, Subspace.zero(5), high, Subspace(5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]))
        assert bad.direction is None
        assert "kernel dimensions differ by one" in bad.failures

    @pytest.mark.parametrize(
        "low, high, claimed, direction, failures",
        [
            ("cb", "cav", None, "D", ("member nesting",)),
            (
                "c",
                "cb",
                "ba",
                "U",
                ("right kernel is the radical", "kernel nesting", "member recovered from kernel"),
            ),
            ("cba", "cbav", "cv", "D", ("right kernel is the radical", "kernel nesting")),
            (
                "c",
                "cba",
                "cb",
                "U",
                (
                    "member nesting",
                    "right kernel is the radical",
                    "member recovered from kernel",
                    "reduced dimension preserved",
                ),
            ),
            (
                "cba",
                "cbavu",
                "cb",
                "D",
                ("member nesting", "right kernel is the radical", "reduced dimension drops by two"),
            ),
        ],
        ids=["member-nesting", "kernel-nesting-up", "kernel-nesting-down", "preserved", "drops"],
    )
    def test_each_clause_is_reported(self, e1, low, high, claimed, direction, failures):
        # members and kernels by the E1 basis names they span; claimed None
        # takes the true radical of the high member
        alg = e1.algebra
        w = e1.two_forms["omega"]

        def span(names):
            return Subspace(5, [alg.basis_vector(n) for n in names])

        low, high = span(low), span(high)
        high_kernel = radical(w, high) if claimed is None else span(claimed)
        rep = audit_step(alg, w, low, radical(w, low), high, high_kernel)
        assert (rep.direction, rep.ok, rep.failures) == (StepDirection(direction), False, failures)
