"""Transverse pairs, the adapted connection, curvature."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import (
    BilagrangianPair,
    ConnectionTable,
    DegenerateFormError,
    LieAlgebra,
    NotSubalgebraError,
    NotTransverseError,
    Subspace,
    TwoForm,
    audit_connection,
    connection,
    curvature,
    curvature_flatness,
    d_zero,
    linalg,
)
from solvdiag.generators import (
    change_basis,
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
)
from oracles import oracle_connection, oracle_curvature_is_zero


def d1_pair(d1, a="L1", b="L2"):
    return BilagrangianPair(d1.subspaces[a], d1.subspaces[b])


class TestPair:
    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            BilagrangianPair(Subspace.zero(2), Subspace.zero(3))


class TestConnection:
    def test_d1_values(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        table = connection(alg, w, d1_pair(d1))
        x, y, t = alg.basis_vector("x"), alg.basis_vector("y"), alg.basis_vector("t")
        ti = alg.index_of("t")
        assert table.entries[ti][alg.index_of("x")] == x
        assert table.apply(t, y) == tuple(-c for c in y)
        # every other basis pair is sent to zero
        nonzero = [
            (i, j)
            for i in range(4)
            for j in range(4)
            if any(c != 0 for c in table.entries[i][j])
        ]
        assert sorted(nonzero) == [(ti, alg.index_of("x")), (ti, alg.index_of("y"))]

    def test_d1_audit_and_flatness(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        pair = d1_pair(d1)
        table = connection(alg, w, pair)
        audit = audit_connection(alg, w, pair, table)
        assert audit.torsion_free
        assert audit.parallel_form
        assert audit.preserves_left
        assert audit.preserves_right
        assert audit.ok
        assert curvature_flatness(alg, table)
        assert oracle_curvature_is_zero(alg, table)

    def test_swap_gives_same_connection(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        assert connection(alg, w, d1_pair(d1, "L1", "L2")) == connection(
            alg, w, d1_pair(d1, "L2", "L1")
        )

    def test_other_transverse_pair_also_flat(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        pair = d1_pair(d1, "L3", "L4")
        table = connection(alg, w, pair)
        assert audit_connection(alg, w, pair, table).ok
        assert curvature_flatness(alg, table)

    def test_abelian_connection_is_zero(self):
        alg = LieAlgebra.from_brackets(("p1", "p2", "q1", "q2"), {})
        w = TwoForm.from_pairs(4, [(0, 2, 1), (1, 3, 1)])
        pair = BilagrangianPair(
            Subspace.span([(1, 0, 0, 0), (0, 1, 0, 0)], 4),
            Subspace.span([(0, 0, 1, 0), (0, 0, 0, 1)], 4),
        )
        table = connection(alg, w, pair)
        assert all(
            all(c == 0 for c in table.entries[i][j]) for i in range(4) for j in range(4)
        )
        assert audit_connection(alg, w, pair, table).ok
        assert curvature_flatness(alg, table)

    def test_non_transverse_pair_rejected(self, d1):
        with pytest.raises(NotTransverseError):
            connection(d1.algebra, d1.two_forms["omega"], d1_pair(d1, "L1", "L3"))

    def test_non_subalgebra_member_rejected(self, d1):
        left = Subspace.span([(1, 0, 1, 0), (0, 0, 0, 1)], 4)  # x+c, t: not closed
        right = d1.subspaces["L3"]
        with pytest.raises(NotSubalgebraError):
            connection(d1.algebra, d1.two_forms["omega"], BilagrangianPair(left, right))

    def test_degenerate_form_rejected(self, e2):
        alg = e2.algebra
        pair = BilagrangianPair(
            Subspace.span([alg.basis_vector("c"), alg.basis_vector("b")], 4),
            Subspace.span([alg.basis_vector("a"), alg.basis_vector("u")], 4),
        )
        with pytest.raises(DegenerateFormError):
            connection(alg, e2.two_forms["omega"], pair)


def rebased(alg, omega, members, p):
    """The algebra, form and members presented on the basis given by the
    rows of p: the form becomes p omega p^T and a member row l becomes
    l p^-1."""
    pt = linalg.transpose(p)
    w = [[omega.apply(a, b) for b in p] for a in p]
    return (
        change_basis(alg, p),
        TwoForm(w),
        [Subspace(alg.dim, [linalg.solve(pt, row) for row in m.rows]) for m in members],
    )


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("names", [("L1", "L2"), ("L2", "L1"), ("L3", "L4")])
    def test_d1_pairs_in_a_random_basis(self, d1, names, seed):
        p = random_unimodular(Random(seed), 4)
        members = [d1.subspaces[nm] for nm in names]
        alg, w, (left, right) = rebased(d1.algebra, d1.two_forms["omega"], members, p)
        pair = BilagrangianPair(left, right)
        table = connection(alg, w, pair)
        assert table == oracle_connection(alg, w, pair)
        assert audit_connection(alg, w, pair, table).ok

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_abelian_standard_form(self, m, seed):
        n = 2 * m
        alg = LieAlgebra.from_brackets(tuple(f"e{i}" for i in range(n)), {})
        w = TwoForm.from_pairs(n, [(i, m + i, 1) for i in range(m)])
        members = [
            Subspace(n, [linalg.unit_vec(n, i) for i in range(m)]),
            Subspace(n, [linalg.unit_vec(n, m + i) for i in range(m)]),
        ]
        if seed is not None:
            alg, w, members = rebased(alg, w, members, random_unimodular(Random(seed), n))
        pair = BilagrangianPair(*members)
        assert connection(alg, w, pair) == oracle_connection(alg, w, pair)


def test_connection_solves_twice_per_dimension(d1, monkeypatch):
    calls = []
    solve = linalg.solve

    def counting(a, b):
        calls.append(1)
        return solve(a, b)

    monkeypatch.setattr(linalg, "solve", counting)
    connection(d1.algebra, d1.two_forms["omega"], d1_pair(d1))
    assert len(calls) <= 2 * d1.algebra.dim


class TestDZero:
    def test_leafwise_derivative_stays_in_member(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        left = d1.subspaces["L2"]  # y, t
        for a in left.rows:
            for b in left.rows:
                assert left.contains_vector(d_zero(alg, w, a, b))

    def test_defining_identity(self, d1):
        alg = d1.algebra
        w = d1.two_forms["omega"]
        t, y = alg.basis_vector("t"), alg.basis_vector("y")
        out = d_zero(alg, w, t, y)
        for k in range(4):
            z = tuple(1 if i == k else 0 for i in range(4))
            assert w.apply(out, z) == -w.apply(y, alg.bracket(t, z))

    def test_degenerate_form_raises_on_every_basis_pair(self, e2):
        alg, w = e2.algebra, e2.two_forms["omega"]
        units = [linalg.unit_vec(alg.dim, i) for i in range(alg.dim)]
        for x in units:
            for y in units:
                with pytest.raises(DegenerateFormError):
                    d_zero(alg, w, x, y)


class TestCurvature:
    def test_hand_built_non_flat_table(self):
        # D_x y = z, D_y x = z keeps torsion zero over an abelian bracket,
        # but D_x D_y x does not match D_y D_x x
        alg = LieAlgebra.from_brackets(("x", "y", "z"), {})
        zero = (0, 0, 0)
        z = (0, 0, 1)
        x_row = [zero, z, (1, 0, 0)]
        y_row = [z, zero, zero]
        z_row = [zero, zero, zero]
        table = ConnectionTable([x_row, y_row, z_row])
        assert not curvature_flatness(alg, table)
        r = curvature(alg, table, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert any(c != 0 for c in r)

    def test_table_shape_enforced(self):
        with pytest.raises(ValueError):
            ConnectionTable([[(0, 0)], [(0, 0)]])


@st.composite
def algebra_and_random_table(draw):
    """An abelian or generated algebra of dimension 1-5 and a connection
    table of small rationals, zero with a drawn density (so flat tables,
    the zero table among them, turn up as well as curved ones)."""
    dim = draw(st.integers(min_value=1, max_value=5))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    make = draw(st.sampled_from(("abelian", random_completely_solvable, random_nilpotent)))
    names = tuple(f"e{i}" for i in range(dim))
    alg = LieAlgebra.from_brackets(names, {}) if make == "abelian" else make(rng, dim)
    density = draw(st.sampled_from((0, 0.05, 0.2, 1)))
    values = (-1, 1, 2, Fraction(1, 2), Fraction(-2, 3))
    entries = [
        [[rng.choice(values) if rng.random() < density else 0 for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)
    ]
    return alg, ConnectionTable(entries)


@settings(max_examples=80, deadline=None)
@given(algebra_and_random_table())
def test_flatness_matches_the_oracle_on_random_tables(case):
    alg, table = case
    assert curvature_flatness(alg, table) is oracle_curvature_is_zero(alg, table)


def test_flatness_matches_the_oracle_on_the_hand_built_table():
    alg = LieAlgebra.from_brackets(("x", "y", "z"), {})
    zero, z = (0, 0, 0), (0, 0, 1)
    table = ConnectionTable([[zero, z, (1, 0, 0)], [z, zero, zero], [zero, zero, zero]])
    assert curvature_flatness(alg, table) is oracle_curvature_is_zero(alg, table) is False
