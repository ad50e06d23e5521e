"""Seeded random instance builders: determinism and advertised guarantees."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from solvdiag import (
    LieAlgebra,
    SolvabilityVerdict,
    Subspace,
    change_basis,
    complete_solvability_certificate,
    is_closed,
    is_ideal_in,
    is_nilpotent,
    random_closed_form,
    random_completely_solvable,
    random_full_chain,
    random_nilpotent,
    random_unimodular,
    validate_algebra,
    validate_flag,
)
from solvdiag.linalg import charpoly


def det(m):
    # constant coefficient of det(tI - m) is (-1)^n det(m)
    n = len(m)
    return charpoly(m)[0] * (-1) ** n


class TestDeterminism:
    def test_same_seed_same_algebra(self):
        a = random_completely_solvable(Random(7), 5)
        b = random_completely_solvable(Random(7), 5)
        assert a.names == b.names
        assert a.table == b.table

    def test_different_seeds_eventually_differ(self):
        tables = {
            str(random_completely_solvable(Random(seed), 4).table)
            for seed in range(6)
        }
        assert len(tables) > 1

    def test_forms_and_chains_are_seed_determined(self):
        alg = random_completely_solvable(Random(3), 4)
        f1 = random_closed_form(Random(11), alg)
        f2 = random_closed_form(Random(11), alg)
        assert f1 == f2
        c1 = random_full_chain(Random(11), 4)
        c2 = random_full_chain(Random(11), 4)
        assert [m.rows for m in c1.members] == [m.rows for m in c2.members]


class TestCompletelySolvable:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_and_completely_solvable(self, seed):
        alg = random_completely_solvable(Random(seed), 5)
        assert alg.dim == 5
        assert validate_algebra(alg).ok
        cert = complete_solvability_certificate(alg)
        assert cert.verdict is SolvabilityVerdict.COMPLETELY_SOLVABLE

    def test_certificate_witness_is_a_chain_of_ideals(self):
        alg = random_completely_solvable(Random(2), 5)
        chain = complete_solvability_certificate(alg).witness
        assert tuple(s.dim for s in chain) == (1, 2, 3, 4, 5)
        full = Subspace.full(alg.dim)
        for small in chain:
            assert is_ideal_in(alg, small, full)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            random_completely_solvable(Random(0), 0)


class TestNilpotent:
    @pytest.mark.parametrize("seed", range(8))
    def test_nilpotent(self, seed):
        alg = random_nilpotent(Random(seed), 5)
        assert validate_algebra(alg).ok
        assert is_nilpotent(alg)


class TestClosedForms:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_form_is_closed(self, seed):
        rng = Random(seed)
        alg = random_completely_solvable(rng, 5)
        form = random_closed_form(rng, alg)
        assert is_closed(alg, form)

    def test_usually_nonzero(self):
        hits = 0
        for seed in range(10):
            rng = Random(seed)
            alg = random_completely_solvable(rng, 4)
            if not random_closed_form(rng, alg).is_zero():
                hits += 1
        assert hits >= 8


class TestUnimodular:
    @pytest.mark.parametrize("seed", range(10))
    def test_determinant_is_unit(self, seed):
        m = random_unimodular(Random(seed), 5)
        assert det(m) in (Fraction(1), Fraction(-1))

    def test_entries_are_integers(self):
        m = random_unimodular(Random(4), 4)
        assert all(type(c) is int for row in m for c in row)


class TestChangeBasis:
    @pytest.mark.parametrize("seed", range(6))
    def test_preserves_validity_and_solvability(self, seed):
        rng = Random(seed)
        alg = random_completely_solvable(rng, 4)
        moved = change_basis(alg, random_unimodular(rng, 4))
        assert validate_algebra(moved).ok
        assert (
            complete_solvability_certificate(moved).verdict
            is SolvabilityVerdict.COMPLETELY_SOLVABLE
        )

    def test_identity_matrix_is_a_rename(self):
        alg = random_completely_solvable(Random(1), 3)
        ident = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
        )
        moved = change_basis(alg, ident)
        assert moved.table == alg.table
        assert moved.names == ("f0", "f1", "f2")

    def test_singular_matrix_rejected(self):
        # rows span only (a, b) but [a, b] = c escapes that span
        alg = LieAlgebra.from_brackets(("a", "b", "c"), {("a", "b"): {"c": 1}})
        rows = (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0)),
        )
        with pytest.raises(ValueError):
            change_basis(alg, rows)

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 0, 1), (0, 0, 1), (0, 0, 2)),  # rank 1, inside the centre
            ((1, 0, 0), (1, 0, 0), (0, 0, 1)),  # rank 2, a bracket-closed plane
        ],
    )
    def test_singular_matrix_with_closed_span_rejected(self, rows):
        # the brackets of the rows stay in their span, so every solve succeeds
        heis = LieAlgebra.from_brackets(("x", "y", "z"), {("x", "y"): {"z": 1}})
        with pytest.raises(ValueError, match="basis matrix is singular"):
            change_basis(heis, rows)

    def test_too_few_rows_rejected(self):
        abelian = LieAlgebra.from_brackets(("a", "b", "c"), {})
        with pytest.raises(ValueError, match="basis matrix is singular"):
            change_basis(abelian, ((1, 0, 0), (0, 1, 0)))


class TestFullChains:
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_is_full_and_nested(self, seed):
        alg = random_completely_solvable(Random(seed + 100), 5)
        flag = random_full_chain(Random(seed), 5)
        rep = validate_flag(alg, flag)
        assert rep.chain_ok
        assert rep.dims == tuple(range(6))


def _generator_records():
    """(names, denom, consts) of generated algebras and the integer rows of
    generated chains.

    Completely solvable and nilpotent algebras of dimension 1 to 10, each
    as drawn, after `change_basis` by a random unimodular matrix, and after
    `change_basis` by a diagonal matrix of fractions whose last entry is
    large, as in the benchmark's rescale; then the `int_rows` of every
    member of one `random_full_chain`.
    """

    def record(alg):
        return repr((alg.names, alg.denom, alg.consts))

    lines = []
    for make in (random_completely_solvable, random_nilpotent):
        for dim in range(1, 11):
            for seed in range(3):
                rng = Random(17000 + 100 * dim + seed)
                alg = make(rng, dim)
                lines.append(record(alg))
                lines.append(record(change_basis(alg, random_unimodular(rng, dim))))
                diag = [
                    Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 7))) * rng.choice((1, -1))
                    for _ in range(dim - 1)
                ] + [Fraction(2**40 + rng.randrange(2**20), 3)]
                scale = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
                lines.append(record(change_basis(alg, scale)))
                chain = random_full_chain(rng, dim)
                lines.append(repr([m.int_rows for m in chain.members]))
    return lines


# SHA-256 of _generator_records() as computed when the derivation towers and
# changes of basis were solved over Fraction; computing them on the integer
# constants must not move a constant, a denominator or a chain
GOLDEN_GENERATOR_DIGEST = "07cdd2de8e848fd2141be31a0243cd0fc4a66cb697c5bc15410bcf6043e53a39"


def test_generated_algebras_unchanged():
    records = _generator_records()
    assert len(records) == 240
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_GENERATOR_DIGEST
