"""Kernel chains along flags: steps, classes, weights, templates."""

from fractions import Fraction

import pytest

from solvdiag import (
    Flag,
    LieAlgebra,
    NestingViolationError,
    NotClosedError,
    StepDirection,
    Subspace,
    Template,
    TwoForm,
    Vertex,
    VertexClass,
    classify_vertices,
    components,
    contract,
    equivalence_key,
    equivalent,
    kernel_chain,
    match_template,
    predicates,
    weight_zero_singulars,
)

U = StepDirection.UP
D = StepDirection.DOWN


def diagram_of(doc, flag_name="F"):
    return classify_vertices(
        kernel_chain(doc.algebra, doc.two_forms["omega"], doc.flags[flag_name])
    )


class TestKernelChain:
    def test_e1(self, e1):
        d = diagram_of(e1)
        assert d.kernel_dims == (1, 2, 3, 2, 1)
        assert d.steps == (U, U, D, D)
        assert d.member_dims == (1, 2, 3, 4, 5)

    def test_e2(self, e2):
        d = diagram_of(e2)
        assert d.kernel_dims == (1, 0, 1, 2)
        assert d.steps == (D, U, U)

    def test_x1_x2(self, x1, x2):
        assert diagram_of(x1).kernel_dims == (1, 2, 1, 0)
        assert diagram_of(x2).kernel_dims == (0, 1, 2, 1, 0)

    def test_x3_chains(self, x3):
        assert diagram_of(x3, "F1").kernel_dims == (1, 2, 3, 2, 1)
        assert diagram_of(x3, "F2").kernel_dims == (1, 2, 1, 0, 1)
        assert diagram_of(x3, "F3").kernel_dims == (1, 2, 1, 2, 1)

    def test_kernels_are_recorded_subspaces(self, e1):
        d = diagram_of(e1)
        alg = e1.algebra
        assert d.vertices[3].kernel == Subspace(
            5, [alg.basis_vector("c"), alg.basis_vector("b")]
        )

    def test_requires_closed_form(self, d1):
        w = TwoForm.from_pairs(4, [(0, 2, 1)])  # pairs x with c: not closed here
        with pytest.raises(NotClosedError):
            kernel_chain(d1.algebra, w, d1.flags["F2comp"])

    def test_requires_complete_chain(self, d1):
        gap = Flag([Subspace.zero(4), Subspace.full(4)])
        from solvdiag import ChainNotNestedError

        with pytest.raises(ChainNotNestedError):
            kernel_chain(d1.algebra, d1.two_forms["omega"], gap)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[], [(1, 0, 0)], [(1, 0, 0), (0, 1, 0)]], "chain does not end at the full algebra"),
            ([[], [(1, 0, 0)], [(0, 1, 0), (0, 0, 1)], None], "chain members are not nested"),
        ],
    )
    def test_chain_shape_refusals(self, rows, message):
        from solvdiag import ChainNotNestedError

        alg = LieAlgebra.from_brackets(("a", "b", "c"), {("a", "b"): {"c": 1}})
        flag = Flag([Subspace.full(3) if r is None else Subspace(3, r) for r in rows])
        with pytest.raises(ChainNotNestedError) as err:
            kernel_chain(alg, TwoForm.zero(3), flag)
        assert str(err.value) == message

    def test_nesting_violation_guard(self, d1, monkeypatch):
        # adjacent radicals of a restricted skew form always nest by exactly
        # one dimension, so the guard can only fire on a broken radical
        # computation; simulate one to pin the error code
        import solvdiag.diagram as diagram_mod

        def broken_radical(s):
            if s.dim == 2:
                return Subspace(4, [(0, 0, 0, 1)])
            return Subspace.zero(4) if s.dim % 2 == 0 else Subspace(4, [(1, 0, 0, 0)])

        def broken_radicals(omega, members):
            return [broken_radical(s) for s in members]

        monkeypatch.setattr(diagram_mod, "_chain_radicals", broken_radicals)
        with pytest.raises(NestingViolationError) as err:
            kernel_chain(d1.algebra, d1.two_forms["omega"], d1.flags["F2comp"])
        assert err.value.code == "NESTING_VIOLATION"


@pytest.mark.parametrize("doc, flag", [("e1", "F"), ("d1", "F2comp")])
def test_each_link_of_the_chain_is_tested_for_containment_once(doc, flag, request, monkeypatch):
    # chain_shape tests each adjacent pair of members, and the step check
    # each adjacent pair of radicals; the radicals' pass runs on the nesting
    # chain_shape has tested and tests it no more
    d = request.getfixturevalue(doc)
    calls, contains = [], Subspace.contains

    def counting(self, other):
        calls.append((self.dim, other.dim))
        return contains(self, other)

    monkeypatch.setattr(Subspace, "contains", counting)
    kernel_chain(d.algebra, d.two_forms["omega"], d.flags[flag])
    assert len(calls) == 2 * (len(d.flags[flag].members) - 1)


class TestClassification:
    def test_e1_classes_and_weights(self, e1):
        d = diagram_of(e1)
        classes = [v.vclass for v in d.vertices]
        assert classes == [
            VertexClass.ENDPOINT_LEFT,
            VertexClass.REGULAR_REDUCIBLE,
            VertexClass.SINGULAR_ATTRACTIVE,
            VertexClass.REGULAR_NON_REDUCIBLE,
            VertexClass.ENDPOINT_RIGHT,
        ]
        assert [v.weight for v in d.vertices] == [1, 2, 3, Fraction(2, 3), Fraction(1, 5)]
        assert [v.index for v in d.singular_vertices()] == [3]

    def test_a_classified_diagram_comes_back_as_it_is(self, e1, x3):
        # kernel_chain classifies each vertex as it builds it, and a vertex
        # derives its index and weight from its member and kernel
        cases = (
            (
                e1,
                "F",
                ["endpoint-left", "regular-reducible", "singular-attractive",
                 "regular-non-reducible", "endpoint-right"],
                [1, 2, 3, Fraction(2, 3), Fraction(1, 5)],
            ),
            (
                x3,
                "F3",
                ["endpoint-left", "singular-attractive", "singular-repulsive",
                 "singular-attractive", "endpoint-right"],
                [1, 2, Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)],
            ),
        )
        for doc, name, classes, weights in cases:
            d = kernel_chain(doc.algebra, doc.two_forms["omega"], doc.flags[name])
            assert [v.vclass.value for v in d.vertices] == classes
            assert [v.weight for v in d.vertices] == weights
            assert [v.index for v in d.vertices] == [v.member.dim for v in d.vertices]
            assert classify_vertices(d) is d

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a_one_member_chain_is_its_left_endpoint(self, n):
        alg = LieAlgebra(tuple("ab"[:n]), [[[0] * n for _ in range(n)] for _ in range(n)])
        d = kernel_chain(alg, TwoForm.zero(n), Flag([Subspace.full(n)]))
        assert d.steps == ()
        full = Subspace.full(n)
        assert d.vertices == (Vertex(full, full, VertexClass.ENDPOINT_LEFT),)
        assert d.vertices[0].weight == n

    def test_x3_f3_weights(self, x3):
        d = diagram_of(x3, "F3")
        singular = d.singular_vertices()
        assert [v.index for v in singular] == [2, 3, 4]
        assert [v.weight for v in singular] == [2, Fraction(1, 3), Fraction(2, 3)]
        assert [v.vclass for v in singular] == [
            VertexClass.SINGULAR_ATTRACTIVE,
            VertexClass.SINGULAR_REPULSIVE,
            VertexClass.SINGULAR_ATTRACTIVE,
        ]

    def test_endpoints_never_singular(self, e2, x2, d1):
        for doc, name in ((e2, "F"), (x2, "F"), (d1, "F2comp")):
            d = diagram_of(doc, name)
            assert d.vertices[0].vclass is VertexClass.ENDPOINT_LEFT
            assert d.vertices[-1].vclass is VertexClass.ENDPOINT_RIGHT


class TestContraction:
    def test_contract_runs(self, e1):
        d = diagram_of(e1)
        assert contract(d) == ((U, 2), (D, 2))


class TestComponents:
    def test_d1_cut_points(self, d1):
        d = diagram_of(d1, "F2comp")
        assert weight_zero_singulars(d) == (2,)
        assert components(d) == ((0, 2), (2, 4))

    def test_connected_single_component(self, e1):
        d = diagram_of(e1)
        assert weight_zero_singulars(d) == ()
        assert components(d) == ((0, 4),)


class TestPredicates:
    def test_corpus_predicates(self, e1, e2, x1, x2, x3, d1):
        p = predicates(e1.algebra, diagram_of(e1))
        assert p.connected and p.simple

        p = predicates(e2.algebra, diagram_of(e2))
        assert not p.connected and not p.simple

        p = predicates(x1.algebra, diagram_of(x1))
        assert p.simple
        p = predicates(x2.algebra, diagram_of(x2))
        assert p.simple

        p = predicates(x3.algebra, diagram_of(x3, "F3"))
        assert p.connected and not p.simple and not p.semi_simple

        p = predicates(d1.algebra, diagram_of(d1, "F2comp"))
        assert not p.connected
        assert p.semi_simple and p.semi_nilpotent and p.semi_normal

    def test_weight_zero_singulars_are_repulsive(self, e2, x2, x3, d1):
        for doc, name in ((e2, "F"), (x2, "F"), (x3, "F2"), (d1, "F2comp")):
            d = diagram_of(doc, name)
            for i in weight_zero_singulars(d):
                assert d.vertices[i].vclass is VertexClass.SINGULAR_REPULSIVE


class TestTemplates:
    def test_corpus_templates(self, e1, e2, x1, x2, x3, d1):
        assert match_template(diagram_of(e1)) is Template.DELTA
        assert match_template(diagram_of(e2)) is Template.DISCONNECTED
        assert match_template(diagram_of(x1)) is Template.DELTA
        assert match_template(diagram_of(x2)) is Template.DELTA
        assert match_template(diagram_of(x3, "F1")) is Template.DELTA
        assert match_template(diagram_of(x3, "F2")) is Template.DISCONNECTED
        assert match_template(diagram_of(x3, "F3")) is Template.BETA
        assert match_template(diagram_of(d1, "F2comp")) is Template.DISCONNECTED

    def test_other_template(self):
        # abelian with zero form: kernels grow monotonically, pattern (U,)
        alg = LieAlgebra.from_brackets(("x", "y"), {})
        w = TwoForm.zero(2)
        flag = Flag(
            [Subspace.zero(2), Subspace(2, [(1, 0)]), Subspace.full(2)]
        )
        d = classify_vertices(kernel_chain(alg, w, flag))
        assert match_template(d) is Template.OTHER


class TestEquivalence:
    def test_same_singular_data_is_equivalent(self, x1):
        # two chains through the same singular member
        alg = x1.algebra
        w = x1.two_forms["omega"]
        f1 = x1.flags["F"]
        # replace the dim-3 member: another subalgebra over the same dim-2 member
        alt3 = Subspace(
            4, [alg.basis_vector("ev"), alg.basis_vector("ew"), alg.basis_vector("t")]
        )
        f2 = Flag([f1.members[0], f1.members[1], alt3, f1.members[3]])
        d1_ = classify_vertices(kernel_chain(alg, w, f1))
        d2_ = classify_vertices(kernel_chain(alg, w, f2))
        assert equivalent(d1_, d2_)
        assert equivalence_key(d1_) == equivalence_key(d2_)

    def test_different_singular_member_not_equivalent(self, x3):
        d_f1 = diagram_of(x3, "F1")
        d_f3 = diagram_of(x3, "F3")
        assert not equivalent(d_f1, d_f3)
