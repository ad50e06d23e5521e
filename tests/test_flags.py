"""Chain validation, normal-chain search, gap completion."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import (
    ChainNotNestedError,
    Flag,
    IncompleteError,
    LieAlgebra,
    NormalFlagStatus,
    NotSubalgebraError,
    Subspace,
    complete_flag_through,
    find_normal_flag,
    is_ideal_in,
    is_subalgebra,
    validate_flag,
)
from solvdiag import flags
from solvdiag.generators import random_completely_solvable, random_full_chain
from oracles import oracle_validate_flag


class TestFlagObject:
    def test_immutable(self, e1):
        f = e1.flags["F"]
        with pytest.raises(AttributeError):
            f.members = ()

    def test_dims_and_nonzero(self, d1):
        f = d1.flags["F2comp"]
        assert f.dims == (0, 1, 2, 3, 4)
        assert len(f.nonzero_members) == 4

    def test_needs_consistent_ambient(self):
        with pytest.raises(ValueError):
            Flag([Subspace.zero(2), Subspace.zero(3)])

    def test_needs_a_member(self):
        with pytest.raises(ValueError):
            Flag([])


class TestValidation:
    def test_corpus_chains_ok(self, e1, e2, x1, x2, d1):
        for doc in (e1, e2, x1, x2, d1):
            for f in doc.flags.values():
                rep = validate_flag(doc.algebra, f)
                assert rep.chain_ok

    def test_x3_chains(self, x3):
        alg = x3.algebra
        for name in ("F1", "F2", "F3"):
            assert validate_flag(alg, x3.flags[name]).chain_ok

        rep = validate_flag(alg, x3.flags["F3_printed"])
        # first member has dimension 2: shape breaks but is only reported
        assert rep.dims == (2, 2, 3, 4, 5)
        assert not rep.dims_consecutive
        assert not all(rep.nesting)
        assert not rep.chain_ok

    def test_x3_f1_subalgebra_column(self, x3):
        rep = validate_flag(x3.algebra, x3.flags["F1"])
        # the dim-3 member is not bracket-closed; chain_ok does not care
        assert rep.chain_ok
        assert rep.subalgebra[2] is False
        assert not rep.subalgebras_ok

    def test_composition_and_normal_flags(self, e2):
        rep = validate_flag(e2.algebra, e2.flags["F"])
        assert rep.composition_ok
        assert rep.all_normal


def _columns(rep):
    return (
        rep.dims,
        rep.dims_consecutive,
        rep.ends_at_full,
        rep.nesting,
        rep.subalgebra,
        rep.ideal_in_next,
        rep.normal_in_algebra,
    )


@st.composite
def algebras_with_chains(draw):
    """(algebra, rows spanning each member): the normal flag of the
    certificate, a random full chain, or a normal flag with one member
    replaced by random rows of its size (so, mostly, neither nested nor a
    subalgebra)."""
    n = draw(st.integers(1, 6))
    alg = random_completely_solvable(Random(draw(st.integers(0, 10**6))), n)
    rng = Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["normal", "random", "replaced"]))
    flag = random_full_chain(rng, n) if kind == "random" else find_normal_flag(alg).flag
    members = [[list(r) for r in m.int_rows] for m in flag.members]
    if kind == "replaced":
        k = rng.randrange(len(members))
        members[k] = [[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in members[k]]
    return alg, members


class TestValidationOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=algebras_with_chains())
    def test_report_matches_the_column_by_column_oracle(self, case):
        alg, members = case
        flag = Flag([Subspace(alg.dim, rows) for rows in members])
        assert _columns(validate_flag(alg, flag)) == oracle_validate_flag(alg, members)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=algebras_with_chains())
    def test_chain_shape_matches_the_oracle(self, case):
        # the shape alone, as the corpus evaluator's chain_ok entries read it,
        # also of the chain without its top member, which stops short of g
        alg, members = case
        for chain in (members, members[:-1] or members):
            shape = flags.chain_shape(alg, Flag([Subspace(alg.dim, rows) for rows in chain]))
            expected = oracle_validate_flag(alg, chain)[:4]
            got = (shape.dims, shape.dims_consecutive, shape.ends_at_full, shape.nesting)
            assert got == expected
            assert shape.chain_ok == (expected[1] and expected[2] and all(expected[3]))

    def test_corpus_flags_match_the_oracle(self, e1, e2, x1, x2, x3, d1):
        for doc in (e1, e2, x1, x2, x3, d1):
            for f in doc.flags.values():
                members = [m.int_rows for m in f.members]
                assert _columns(validate_flag(doc.algebra, f)) == oracle_validate_flag(
                    doc.algebra, members
                )

    def test_a_normal_full_flag_costs_one_ideal_test_per_member(self, monkeypatch):
        calls = []
        for name in ("is_ideal_in", "is_subalgebra"):
            real = getattr(flags, name)
            monkeypatch.setattr(
                flags, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        for n in range(1, 7):
            alg = random_completely_solvable(Random(n), n)
            flag = find_normal_flag(alg).flag
            calls.clear()
            assert validate_flag(alg, flag).composition_ok
            assert calls == ["is_ideal_in"] * (n + 1)


class TestNormalFlag:
    def test_e1_normal_chain(self, e1):
        res = find_normal_flag(e1.algebra)
        assert res.status is NormalFlagStatus.FOUND
        f = res.flag
        assert f.dims == (0, 1, 2, 3, 4, 5)
        full = Subspace.full(5)
        for m in f.nonzero_members:
            assert is_ideal_in(e1.algebra, m, full)

    def test_not_solvable_gives_none(self):
        sl2 = LieAlgebra.from_brackets(
            ("e", "f", "h"),
            {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
        )
        res = find_normal_flag(sl2)
        assert res.status is NormalFlagStatus.NONE
        assert res.flag is None

    def test_irrational_spectrum_undecided(self):
        rot = LieAlgebra.from_brackets(
            ("r", "x", "y"), {("r", "x"): {"y": 1}, ("r", "y"): {"x": -1}}
        )
        assert find_normal_flag(rot).status is NormalFlagStatus.UNDECIDED


class TestCompletion:
    def test_complete_from_nothing(self, e1):
        f = complete_flag_through(e1.algebra, [])
        assert f.dims == tuple(range(6))
        rep = validate_flag(e1.algebra, f)
        assert rep.chain_ok and rep.subalgebras_ok

    def test_prescribed_members_kept(self, d1):
        alg = d1.algebra
        mid = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)], 4)  # x, c
        assert is_subalgebra(alg, mid)
        f = complete_flag_through(alg, [mid])
        assert mid in f.members
        assert f.dims == (0, 1, 2, 3, 4)
        assert validate_flag(alg, f).subalgebras_ok

    def test_rejects_non_nested(self, d1):
        a = Subspace.span([(1, 0, 0, 0)], 4)
        b = Subspace.span([(0, 1, 0, 0), (0, 0, 1, 0)], 4)
        with pytest.raises(ChainNotNestedError):
            complete_flag_through(d1.algebra, [a, b])

    def test_rejects_non_subalgebra(self, x3):
        bad = x3.flags["F1"].members[2]  # not bracket-closed
        with pytest.raises(NotSubalgebraError):
            complete_flag_through(x3.algebra, [bad])

    def test_all_corpus_algebras_complete(self, e1, e2, x1, x3, d1):
        for doc in (e1, e2, x1, x3, d1):
            f = complete_flag_through(doc.algebra, [])
            rep = validate_flag(doc.algebra, f)
            assert rep.chain_ok and rep.subalgebras_ok
