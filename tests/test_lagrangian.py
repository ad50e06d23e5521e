"""Isotropic middle-dimension subalgebras: verification, search, chains."""

import hashlib
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import (
    Covector,
    LagrangianCandidate,
    LieAlgebra,
    NotClosedError,
    NotLagrangianError,
    NotSimpleError,
    SearchCompleteness,
    SolvdiagError,
    Subspace,
    TwoForm,
    ce_differential_covector,
    change_basis,
    classify_vertices,
    complete_solvability_certificate,
    diagram_to_lagrangian,
    find_lagrangians,
    find_normal_flag,
    kernel,
    kernel_chain,
    lagrangian_to_flag,
    predicates,
    random_closed_form,
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
    vergne_candidate,
    verify_lagrangian,
)
from solvdiag import lagrangian
from oracles import oracle_find_lagrangians


def named_span(alg, *names):
    return Subspace(alg.dim, [alg.basis_vector(n) for n in names])


class TestVerify:
    def test_d1_pinned_examples(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        for name in ("L1", "L2", "L3", "L4"):
            cand = verify_lagrangian(alg, w, d1.subspaces[name])
            assert cand.verified, (name, cand.reasons)
            assert cand.status == "VERIFIED"

    def test_e1_witness(self, e1):
        cand = verify_lagrangian(
            e1.algebra, e1.two_forms["omega"], named_span(e1.algebra, "c", "b", "a")
        )
        assert cand.verified

    def test_x1_witness(self, x1):
        assert verify_lagrangian(
            x1.algebra, x1.two_forms["omega"], x1.subspaces["L"]
        ).verified

    def test_x3_witness(self, x3):
        alg = x3.algebra
        v = [0] * 5
        v[alg.index_of("e3")] = 1
        v[alg.index_of("e1")] = -1
        s = Subspace(
            5, [alg.basis_vector("e5"), alg.basis_vector("e4"), tuple(v)]
        )
        assert verify_lagrangian(alg, x3.two_forms["omega"], s).verified

    def test_reasons_accumulate(self, e2):
        alg = e2.algebra
        w = e2.two_forms["omega"]
        # pairs nontrivially under the form and misses the kernel
        bad = named_span(alg, "c", "b")
        cand = verify_lagrangian(alg, w, bad)
        assert not cand.verified
        assert "not isotropic" in cand.reasons
        assert "does not contain the kernel of the form" in cand.reasons
        assert any(r.startswith("dimension") for r in cand.reasons)


class TestVergne:
    def test_verified_on_corpus_chains(self, e1, e2, x1, x2, d1):
        for doc, name in ((e1, "F"), (e2, "F"), (x1, "F"), (x2, "F"), (d1, "F2comp")):
            cand = vergne_candidate(doc.algebra, doc.two_forms["omega"], doc.flags[name])
            assert cand.verified, (doc.name, cand.reasons)

    def test_e1_value(self, e1):
        cand = vergne_candidate(e1.algebra, e1.two_forms["omega"], e1.flags["F"])
        assert cand.subspace == named_span(e1.algebra, "c", "b", "a")

    def test_x1_value(self, x1):
        cand = vergne_candidate(x1.algebra, x1.two_forms["omega"], x1.flags["F"])
        assert cand.subspace == x1.subspaces["L"]

    def test_x3_first_chain_rejected(self, x3):
        # the radical sum is the non-bracket-closed dim-3 member
        cand = vergne_candidate(x3.algebra, x3.two_forms["omega"], x3.flags["F1"])
        assert not cand.verified
        assert cand.reasons == ("not a subalgebra",)

    def test_x3_other_chains_verified(self, x3):
        for name in ("F2", "F3"):
            cand = vergne_candidate(x3.algebra, x3.two_forms["omega"], x3.flags[name])
            assert cand.verified

    def test_x3_printed_chain_rejected(self, x3):
        cand = vergne_candidate(
            x3.algebra, x3.two_forms["omega"], x3.flags["F3_printed"]
        )
        assert "not isotropic" in cand.reasons


class TestSearch:
    def test_d1_finds_all_four(self, d1):
        v = find_lagrangians(d1.algebra, d1.two_forms["omega"], mode="both")
        assert v.completeness is SearchCompleteness.HEURISTIC
        expected = {d1.subspaces[n] for n in ("L1", "L2", "L3", "L4")}
        assert set(v.found) == expected

    def test_e1_pinned(self, e1):
        alg = e1.algebra
        v = find_lagrangians(alg, e1.two_forms["omega"])
        assert set(v.found) == {
            named_span(alg, "c", "b", "a"),
            named_span(alg, "c", "b", "v"),
            named_span(alg, "c", "a", "u"),
        }

    def test_x1_pinned(self, x1):
        alg = x1.algebra
        v = find_lagrangians(alg, x1.two_forms["omega"])
        assert set(v.found) == {
            named_span(alg, "eu", "ev"),
            named_span(alg, "eu", "t"),
            named_span(alg, "ev", "ew"),
            named_span(alg, "ew", "t"),
        }

    def test_modes_subset(self, e1):
        alg = e1.algebra
        w = e1.two_forms["omega"]
        only_vergne = find_lagrangians(alg, w, mode="vergne")
        both = find_lagrangians(alg, w, mode="both")
        assert set(only_vergne.found) <= set(both.found)
        assert len(only_vergne.found) == 1

    def test_every_found_verifies(self, e1, e2, x1, x3, d1):
        for doc in (e1, e2, x1, x3, d1):
            alg = doc.algebra
            w = doc.two_forms["omega"]
            for s in find_lagrangians(alg, w).found:
                assert verify_lagrangian(alg, w, s).verified

    def test_abelian_search_exhaustive(self):
        alg = LieAlgebra.from_brackets(("x", "y"), {})
        w = TwoForm.from_pairs(2, [(0, 1, 1)])
        v = find_lagrangians(alg, w)
        assert v.completeness is SearchCompleteness.EXHAUSTIVE_WITHIN_MODE
        assert len(v.found) == 2

    def test_bad_mode_rejected(self, d1):
        with pytest.raises(ValueError):
            find_lagrangians(d1.algebra, d1.two_forms["omega"], mode="all")

    def test_non_closed_form_rejected(self, d1):
        w = TwoForm.from_pairs(4, [(0, 2, 1)])
        with pytest.raises(NotClosedError):
            find_lagrangians(d1.algebra, w)


class TestChains:
    def test_d1_roundtrip(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        for name in ("L1", "L2", "L3", "L4"):
            lagr = d1.subspaces[name]
            flag = lagrangian_to_flag(alg, w, lagr)
            assert lagr in flag.members
            d = classify_vertices(kernel_chain(alg, w, flag))
            assert predicates(alg, d).simple
            back = diagram_to_lagrangian(alg, w, d)
            assert back.verified
            assert back.subspace == lagr

    def test_e1_roundtrip(self, e1):
        alg = e1.algebra
        w = e1.two_forms["omega"]
        lagr = named_span(alg, "c", "b", "a")
        flag = lagrangian_to_flag(alg, w, lagr)
        assert flag.dims == (0, 1, 2, 3, 4, 5)
        d = classify_vertices(kernel_chain(alg, w, flag))
        assert diagram_to_lagrangian(alg, w, d).subspace == lagr

    def test_rejected_candidate_raises(self, e1):
        alg = e1.algebra
        with pytest.raises(NotLagrangianError):
            lagrangian_to_flag(alg, e1.two_forms["omega"], named_span(alg, "c", "b"))

    def test_zero_form_has_no_simple_chain(self):
        alg = LieAlgebra.from_brackets(("x", "y"), {})
        w = TwoForm.zero(2)
        with pytest.raises(NotSimpleError):
            lagrangian_to_flag(alg, w, Subspace.full(2))

    def test_non_simple_diagram_rejected(self, e2):
        d = classify_vertices(
            kernel_chain(e2.algebra, e2.two_forms["omega"], e2.flags["F"])
        )
        with pytest.raises(NotSimpleError):
            diagram_to_lagrangian(e2.algebra, e2.two_forms["omega"], d)


def _bounded_height(rng, k, r):
    """The strictly upper triangular k x k matrix units E_ij and r diagonal
    matrices with entries in -2..3, under the commutator, in a random
    unimodular basis, with the exact form d(xi) of a random integer xi."""
    units = [(i, j) for i in range(k) for j in range(i + 1, k)]
    brackets = {}
    for a in range(r):
        d = [rng.randint(-2, 3) for _ in range(k)]
        for i, j in units:
            if d[i] != d[j]:
                brackets[(f"d{a}", f"e{i}{j}")] = {f"e{i}{j}": d[i] - d[j]}
    for i, j in units:
        for q in range(j + 1, k):
            brackets[(f"e{i}{j}", f"e{j}{q}")] = {f"e{i}{q}": 1}
    names = [f"d{a}" for a in range(r)] + [f"e{i}{j}" for i, j in units]
    n = len(names)
    alg = change_basis(LieAlgebra.from_brackets(names, brackets), random_unimodular(rng, n))
    xi = Covector.from_entries([rng.randint(-2, 2) for _ in range(n)])
    return alg, ce_differential_covector(alg, xi)


@pytest.mark.parametrize("r", [3, 4])
def test_vergnes_lagrangian_of_a_bounded_height_algebra_has_a_simple_chain(r):
    # n = 13 and 14, seeds 1-4, fixed in advance and not chosen to pass: the
    # covector search of flag completion refused all eight as INCOMPLETE.
    # 0.55 s (r = 3) and 0.76 s (r = 4) of CPU time for the four (2-CPU
    # x86-64 machine, Python 3.11.7); the bound leaves room for a slower one
    start = time.process_time()
    for seed in range(1, 5):
        alg, omega = _bounded_height(Random(seed), 5, r)
        flag = complete_solvability_certificate(alg).flag
        lagr = vergne_candidate(alg, omega, flag).subspace
        chain = lagrangian_to_flag(alg, omega, lagr)
        assert chain.dims == tuple(range(alg.dim + 1))
        assert lagr in chain.members
    assert time.process_time() - start < 6


def _search_records():
    """find_lagrangians on generated instances: completely solvable algebras
    of dimension 4 to 8, every other one in a random unimodular basis, each
    with a random closed form; one line per instance with the completeness
    and every subspace found."""
    lines = []
    for dim in (4, 5, 6, 7, 8):
        for seed in range(5):
            rng = Random(9000 + 100 * dim + seed)
            alg = random_completely_solvable(rng, dim)
            if seed % 2:
                alg = change_basis(alg, random_unimodular(rng, dim))
            v = find_lagrangians(alg, random_closed_form(rng, alg))
            found = " | ".join("; ".join(" ".join(map(str, r)) for r in s.rows) for s in v.found)
            lines.append(f"{v.completeness.value}: {found}")
    return lines


# SHA-256 of _search_records() as computed by the flag-adapted search before
# it kept a visited set; skipping revisits must not move a found subspace
GOLDEN_SEARCH_DIGEST = "2491d0a7ffbb10b766f71e704b8f79c9817c8b9ee3cbf9bca62984ae105ca09a"


def test_search_results_unchanged():
    records = _search_records()
    assert len(records) == 25
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_SEARCH_DIGEST


# SHA-256 of the n = 12, seed 1 search's record, as _search_records writes
# one; the search before its closures became semi-naive found the same
N12_SEED1_DIGEST = "a811a1a1dad06892cad2ff2130bc651e9d414ce2a0ca214b8a4a6a103ee571c3"


def test_the_n12_seed1_search_stays_fast():
    # 16 s of CPU time with closures recomputed from scratch on Fraction
    # rows, under 1 s with semi-naive closures on integer rows (2-CPU x86-64
    # machine, Python 3.11.7); the bound leaves room for a slower machine
    alg = random_completely_solvable(Random(1), 12)
    omega = random_closed_form(Random(1), alg)
    start = time.process_time()
    v = find_lagrangians(alg, omega)
    assert time.process_time() - start < 8
    found = " | ".join("; ".join(" ".join(map(str, r)) for r in s.rows) for s in v.found)
    record = f"{v.completeness.value}: {found}"
    assert hashlib.sha256(record.encode()).hexdigest() == N12_SEED1_DIGEST


# The search's oracle test (marked search_oracle) draws Hypothesis's default
# budget, 100 examples, and never fewer than 60, or the profile's budget when
# it is larger: CI runs it once more with
# -m search_oracle --hypothesis-profile=search-oracle.
@pytest.mark.search_oracle
@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(
    dim=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    rebased=st.booleans(),
)
def test_search_matches_the_visited_set_search(dim, seed, rebased):
    rng = Random(seed)
    alg = random_completely_solvable(rng, dim)
    if rebased:
        alg = change_basis(alg, random_unimodular(rng, dim))
    omega = random_closed_form(rng, alg)
    assert find_lagrangians(alg, omega) == oracle_find_lagrangians(alg, omega)


@pytest.mark.parametrize("dim", range(3, 13))
@pytest.mark.parametrize("make", [random_completely_solvable, random_nilpotent])
def test_vergnes_candidate_on_a_normal_flag_is_a_lagrangian(make, dim):
    # Vergne's theorem: on a full flag of ideals, any closed form's candidate
    # is a Lagrangian, of dimension (n + dim ker)/2; seeds 0-4, fixed in
    # advance and not chosen to pass, odd seeds in a unimodular basis
    for seed in range(5):
        rng = Random(seed * 100 + dim)
        alg = make(rng, dim)
        if seed % 2:
            alg = change_basis(alg, random_unimodular(rng, dim))
        w = random_closed_form(rng, alg)
        cand = vergne_candidate(alg, w, find_normal_flag(alg).flag)
        assert cand.verified, (seed, cand.reasons)
        assert cand.subspace.dim == (dim + kernel(w).dim) // 2


def test_a_rejected_vergne_candidate_on_a_normal_flag_raises(d1, monkeypatch):
    # by Vergne's theorem a rejection there is a fault, not a miss to drop
    alg, w = d1.algebra, d1.two_forms["omega"]
    rejected = LagrangianCandidate(Subspace.zero(alg.dim), ("not isotropic",))
    monkeypatch.setattr(lagrangian, "vergne_candidate", lambda *args: rejected)
    says = "^Vergne candidate on a normal flag: not isotropic$"
    for mode in ("vergne", "both"):
        with pytest.raises(SolvdiagError, match=says):
            find_lagrangians(alg, w, mode=mode)
    assert find_lagrangians(alg, w, mode="flag_adapted").found
