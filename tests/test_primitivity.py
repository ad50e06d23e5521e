"""Transitive-subalgebra tests, degree bounds, consistency audits."""

import time
from fractions import Fraction
from random import Random

import pytest

from solvdiag import (
    LieAlgebra,
    NotSolvableError,
    NotSubalgebraError,
    PairPresentation,
    PrimitivityStatus,
    Subspace,
    TwoForm,
    UndecidedSpectrumError,
    change_basis,
    classify_vertices,
    degrees,
    derived_subalgebra,
    ideal_closure_audit,
    kernel,
    kernel_chain,
    primitive_test,
    quasi_primitive_test,
    random_closed_form,
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
    singular_count_audit,
    transitive_test,
)
from solvdiag.primitivity import _family_provably_empty, _ideal_hyperplane_witness
from oracles import oracle_family_provably_empty, oracle_ideal_hyperplane_witness


def kernel_pair(doc, *names):
    alg = doc.algebra
    h = Subspace(alg.dim, [alg.basis_vector(n) for n in names])
    return PairPresentation(alg, h)


def two_weight_algebra():
    return LieAlgebra.from_brackets(
        ("x", "y", "t"), {("t", "x"): {"x": 1}, ("t", "y"): {"y": 2}}
    )


class TestPresentation:
    def test_isotropy_must_be_closed(self, x3):
        alg = x3.algebra
        bad = x3.flags["F1"].members[2]
        with pytest.raises(NotSubalgebraError):
            PairPresentation(alg, bad)

    def test_transitive_test_refuses_a_candidate_not_bracket_closed(self, x3):
        pair = PairPresentation(x3.algebra, Subspace.zero(x3.algebra.dim))
        with pytest.raises(NotSubalgebraError, match="^candidate is not bracket-closed$"):
            transitive_test(pair, x3.flags["F1"].members[2])

    def test_ambient_mismatch(self, e1):
        with pytest.raises(ValueError):
            PairPresentation(e1.algebra, Subspace.zero(3))

    def test_rank_ratio(self, e1, e2):
        assert degrees(kernel_pair(e1, "c")).ratio == Fraction(1, 5)
        assert degrees(kernel_pair(e2, "a", "u")).ratio == Fraction(2, 3)


class TestPrimitive:
    def test_e1_primitive(self, e1):
        v = primitive_test(kernel_pair(e1, "c"))
        assert v.status is PrimitivityStatus.PRIMITIVE
        assert v.witness is None
        assert v.searched == ("ideal-hyperplanes",)

    def test_e2_not_primitive_with_witness(self, e2):
        pair = kernel_pair(e2, "a", "u")
        v = primitive_test(pair)
        assert v.status is PrimitivityStatus.NOT_PRIMITIVE
        alg = e2.algebra
        assert v.witness == Subspace(
            4, [alg.basis_vector("c"), alg.basis_vector("b"), alg.basis_vector("a")]
        )
        assert transitive_test(pair, v.witness)

    def test_needs_solvable(self):
        sl2 = LieAlgebra.from_brackets(
            ("e", "f", "h"),
            {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
        )
        pair = PairPresentation(sl2, Subspace(3, [(1, 0, 0)]))
        with pytest.raises(NotSolvableError):
            primitive_test(pair)


class TestQuasiPrimitive:
    def test_e1_certified(self, e1):
        v = quasi_primitive_test(kernel_pair(e1, "c"))
        assert v.status is PrimitivityStatus.QUASI_PRIMITIVE
        assert v.searched == (
            "ideal-hyperplanes",
            "hyperplane-pencils",
            "emptiness-certificate",
        )

    def test_budget_truncation_is_reported_unknown(self, e1):
        v = quasi_primitive_test(kernel_pair(e1, "c"), pencil_budget=0)
        assert v.status is PrimitivityStatus.UNKNOWN
        assert v.searched == ("ideal-hyperplanes", "hyperplane-pencils")

    def test_e2_witness_from_ideal_stage(self, e2):
        pair = kernel_pair(e2, "a", "u")
        v = quasi_primitive_test(pair)
        assert v.status is PrimitivityStatus.NOT_QUASI_PRIMITIVE
        assert v.searched == ("ideal-hyperplanes",)
        assert transitive_test(pair, v.witness)

    def test_pencil_witness(self):
        # kernel of x* + t* is a transitive non-ideal hyperplane subalgebra
        alg = two_weight_algebra()
        pair = PairPresentation(alg, Subspace(3, [(1, 0, 0)]))
        v = quasi_primitive_test(pair)
        assert v.status is PrimitivityStatus.NOT_QUASI_PRIMITIVE
        assert "hyperplane-pencils" in v.searched
        assert v.witness == Subspace(3, [(1, 0, -1), (0, 1, 0)])
        assert transitive_test(pair, v.witness)

    def test_nilpotent_shortcut(self):
        heis = LieAlgebra.from_brackets(("p", "q", "z"), {("p", "q"): {"z": 1}})
        pair = PairPresentation(heis, Subspace(3, [(0, 0, 1)]))
        v = quasi_primitive_test(pair)
        assert v.status is PrimitivityStatus.QUASI_PRIMITIVE
        assert v.searched == ("ideal-hyperplanes",)

    def test_zero_isotropy_trivially_quasi_primitive(self, d1):
        pair = PairPresentation(d1.algebra, Subspace.zero(4))
        assert (
            quasi_primitive_test(pair).status is PrimitivityStatus.QUASI_PRIMITIVE
        )

    def test_needs_completely_solvable(self):
        # solvable, but ad r has eigenvalues +-i: the certificate is undecided
        rot = LieAlgebra.from_brackets(
            ("r", "x", "y"), {("r", "x"): {"y": 1}, ("r", "y"): {"x": -1}}
        )
        pair = PairPresentation(rot, Subspace(3, [(0, 1, 0), (0, 0, 1)]))
        with pytest.raises(UndecidedSpectrumError):
            quasi_primitive_test(pair)

    def test_irrational_real_spectrum_is_undecided_not_unsolvable(self):
        # [t,x]=y, [t,y]=2x is solvable; ad t has eigenvalues +-sqrt(2)
        alg = LieAlgebra.from_brackets(
            ("t", "x", "y"), {("t", "x"): {"y": 1}, ("t", "y"): {"x": 2}}
        )
        pair = PairPresentation(alg, Subspace(3, [(0, 1, 0)]))
        with pytest.raises(UndecidedSpectrumError) as info:
            quasi_primitive_test(pair)
        assert info.value.code == "UNDECIDED_IRRATIONAL_SPECTRUM"
        assert not isinstance(info.value, NotSolvableError)

    def test_not_solvable_keeps_its_code(self):
        sl2 = LieAlgebra.from_brackets(
            ("e", "f", "h"),
            {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
        )
        pair = PairPresentation(sl2, Subspace(3, [(1, 0, 0)]))
        with pytest.raises(NotSolvableError) as info:
            quasi_primitive_test(pair)
        assert info.value.code == "NOT_SOLVABLE"

    def test_pencils_on_a_rescaled_basis(self):
        # seed 133 reaches the pencil search; rescaling its last basis vector
        # by N puts N^2 and N^3 into the charpolys and N into the pencil
        # quadratics, which trial division could not factor in a day
        rng = Random(133)
        alg = random_completely_solvable(rng, 4)
        form = random_closed_form(rng, alg)
        small = quasi_primitive_test(PairPresentation(alg, kernel(form)))
        assert small.searched == ("ideal-hyperplanes", "hyperplane-pencils")

        scale = (1, 1, 1, 2**60 + 33)
        basis = [[Fraction(s if i == j else 0) for j in range(4)] for i, s in enumerate(scale)]
        big = change_basis(alg, basis)
        big_form = TwoForm(
            [[form.entries[i][j] * scale[i] * scale[j] for j in range(4)] for i in range(4)]
        )
        big_pair = PairPresentation(big, kernel(big_form))
        t0 = time.perf_counter()
        verdict = quasi_primitive_test(big_pair)
        elapsed = time.perf_counter() - t0
        assert verdict.status is small.status
        assert verdict.searched == small.searched
        assert transitive_test(big_pair, verdict.witness)
        assert elapsed < 2.0


@pytest.mark.parametrize("run", [quasi_primitive_test, degrees], ids=["quasi", "degrees"])
def test_a_negative_pencil_budget_is_refused_before_any_verdict(run):
    # the isotropy span(e_3) has an ideal hyperplane witness, so neither
    # function reaches the pencil search: the budget is checked at entry
    alg = random_completely_solvable(Random(3), 4)
    pair = PairPresentation(alg, Subspace(4, [alg.basis_vector("e3")]))
    run(pair, pencil_budget=0)
    with pytest.raises(ValueError, match="negative pencil budget -1"):
        run(pair, pencil_budget=-1)


def test_emptiness_certificate_matches_the_definition():
    """The certificate read from the wedge table against the definition: some
    wedge coefficient is a nonzero constant on {phi : phi(w) = 1}.  w is
    drawn from the derived subalgebra, where quasi_primitive_test asks."""
    outcomes = []
    for seed in range(100):
        rng = Random(23000 + seed)
        dim = rng.randint(3, 5)
        alg = (random_completely_solvable if seed % 3 else random_nilpotent)(rng, dim)
        if seed % 2:
            alg = change_basis(alg, random_unimodular(rng, dim))
        derived = derived_subalgebra(alg).int_rows
        w = [sum(rng.choice((-1, 0, 1, 2)) * r[i] for r in derived) for i in range(dim)]
        if any(w):
            outcomes.append(_family_provably_empty(alg, w))
            assert outcomes[-1] == oracle_family_provably_empty(alg, w), seed
    assert 0 < sum(outcomes) < len(outcomes)


class TestDegrees:
    def test_e1_no_descent(self, e1):
        d = degrees(kernel_pair(e1, "c"))
        assert d.ratio == Fraction(1, 5)
        assert d.d_lower == Fraction(1, 5)
        assert d.d_within_search == Fraction(1, 5)
        assert d.witness_chain == ()

    def test_e2_descends_to_zero(self, e2):
        d = degrees(kernel_pair(e2, "a", "u"))
        assert d.ratio == Fraction(2, 3)
        assert d.d_lower == 0
        assert d.d_within_search == 0
        assert [s.dim for s in d.witness_chain] == [3, 2]
        # chain members are nested subalgebras of the original algebra
        prev = Subspace.full(4)
        for s in d.witness_chain:
            assert prev.contains(s)
            prev = s

    def test_zero_isotropy(self, d1):
        pair = PairPresentation(d1.algebra, Subspace.zero(4))
        d = degrees(pair)
        assert d.ratio == 0 and d.d_lower == 0 and d.witness_chain == ()


class TestIdealClosureAudit:
    def test_e1_both_sides_false(self, e1):
        rep = ideal_closure_audit(kernel_pair(e1, "c"), e1.two_forms["omega"])
        assert not rep.derived_plus_isotropy_full
        assert not rep.ideal_closure_full
        assert rep.agree

    def test_e2_both_sides_true(self, e2):
        rep = ideal_closure_audit(kernel_pair(e2, "a", "u"), e2.two_forms["omega"])
        assert rep.derived_plus_isotropy_full
        assert rep.ideal_closure_full
        assert rep.agree

    def test_isotropy_must_match_kernel(self, e1):
        with pytest.raises(ValueError):
            ideal_closure_audit(kernel_pair(e1, "b"), e1.two_forms["omega"])

    @pytest.mark.parametrize("dim", [4, 6])
    def test_a_form_of_another_dimension_is_refused(self, e1, dim):
        # refused as a form on the wrong space, not as a kernel mismatch
        form = TwoForm.from_pairs(dim, [(0, 1, 1)])
        with pytest.raises(ValueError, match=rf"^a form on Q\^{dim} for an algebra on Q\^5$"):
            ideal_closure_audit(kernel_pair(e1, "c"), form)

    def test_zero_kernel_rejected(self, d1):
        pair = PairPresentation(d1.algebra, Subspace.zero(4))
        with pytest.raises(ValueError):
            ideal_closure_audit(pair, d1.two_forms["omega"])


class TestSingularCountAudit:
    def test_e1_connected_within_bounds(self, e1):
        pair = kernel_pair(e1, "c")
        d = classify_vertices(
            kernel_chain(e1.algebra, e1.two_forms["omega"], e1.flags["F"])
        )
        (entry,) = singular_count_audit([d], quasi_primitive_test(pair))
        assert entry.connected
        assert entry.singular_count == 1
        assert entry.within_connected_bound
        assert entry.within_quasi_primitive_bound

    def test_disconnected_skipped(self, e2):
        pair = kernel_pair(e2, "a", "u")
        d = classify_vertices(
            kernel_chain(e2.algebra, e2.two_forms["omega"], e2.flags["F"])
        )
        verdict = quasi_primitive_test(pair)
        (entry,) = singular_count_audit([d], quasi_verdict=verdict)
        assert not entry.connected
        assert entry.within_connected_bound is None
        assert entry.within_quasi_primitive_bound is None

    def test_non_quasi_primitive_bound_not_applied(self, x3):
        # kernel is not a subalgebra claim-holder here; use a zero-kernel pair
        alg = x3.algebra
        pair = PairPresentation(alg, Subspace(5, [alg.basis_vector("e5")]))
        d = classify_vertices(
            kernel_chain(alg, x3.two_forms["omega"], x3.flags["F3"])
        )
        verdict = quasi_primitive_test(pair)
        (entry,) = singular_count_audit([d], quasi_verdict=verdict)
        assert entry.connected
        assert entry.singular_count == 3
        assert entry.within_connected_bound
        if verdict.status is not PrimitivityStatus.QUASI_PRIMITIVE:
            assert entry.within_quasi_primitive_bound is None


@pytest.mark.parametrize("seed", range(60))
def test_the_ideal_hyperplane_witness_is_the_kernel_of_the_reduction_at_c(seed):
    # the witness as a span (the derived rows and the unit vectors off their
    # pivots but c) against its definition as the kernel of a covector; dims
    # 2-8, both generators, a third of the algebras in a unimodular basis,
    # and h spanned by one to three small integer vectors, or by rows of
    # [g, g] for a quarter of the seeds
    rng = Random(seed)
    n = rng.randint(2, 8)
    make = random_completely_solvable if seed % 2 else random_nilpotent
    alg = make(rng, n)
    if seed % 3 == 0:
        alg = change_basis(alg, random_unimodular(rng, n))
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    if seed % 4 == 0:  # inside [g, g]: no witness
        rows = [list(r) for r in derived_subalgebra(alg).int_rows][:2]
    witness = _ideal_hyperplane_witness(alg, Subspace(n, rows))
    expected = oracle_ideal_hyperplane_witness(alg, rows)
    assert (witness is None) == (expected is None)
    if witness is not None:
        assert witness.rows == expected
