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
from solvdiag import algebra, bilagrangian
from solvdiag.algebra import change_basis
from solvdiag.generators import (
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
)
from oracles import (
    oracle_audit_connection,
    oracle_connection,
    oracle_curvature_is_zero,
    transpose,
)


small_frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def d1_pair(d1, a="L1", b="L2"):
    return BilagrangianPair(d1.subspaces[a], d1.subspaces[b])


class TestPair:
    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            BilagrangianPair(Subspace.zero(2), Subspace.zero(3))


ABELIAN3 = LieAlgebra.from_brackets("abc", {})
TABLE2 = ConnectionTable([[[0, 0]] * 2] * 2)
FORM_ON_Q2 = "a form on Q^2 for an algebra on Q^3"
TABLE_ON_Q2 = "a connection on Q^2 for an algebra on Q^3"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: d_zero(ABELIAN3, TwoForm.zero(2), [1, 0, 0], [0, 1, 0]), FORM_ON_Q2),
        (
            lambda: connection(
                ABELIAN3, TwoForm.zero(3), BilagrangianPair(Subspace.zero(2), Subspace.full(2))
            ),
            "pair does not match the algebra",
        ),
        (
            lambda: connection(
                ABELIAN3, TwoForm.zero(2), BilagrangianPair(Subspace.zero(3), Subspace.full(3))
            ),
            FORM_ON_Q2,
        ),
        (lambda: curvature(ABELIAN3, TABLE2, [1, 0], [0, 1], [1, 1]), TABLE_ON_Q2),
        (lambda: curvature_flatness(ABELIAN3, TABLE2), TABLE_ON_Q2),
    ],
    ids=["d_zero", "connection-pair", "connection-form", "curvature", "curvature_flatness"],
)
def test_a_dimension_mismatch_is_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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
            Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
            Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
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
        left = Subspace(4, [(1, 0, 1, 0), (0, 0, 0, 1)])  # x+c, t: not closed
        right = d1.subspaces["L3"]
        with pytest.raises(NotSubalgebraError):
            connection(d1.algebra, d1.two_forms["omega"], BilagrangianPair(left, right))

    def test_degenerate_form_rejected(self, e2):
        alg = e2.algebra
        pair = BilagrangianPair(
            Subspace(4, [alg.basis_vector("c"), alg.basis_vector("b")]),
            Subspace(4, [alg.basis_vector("a"), alg.basis_vector("u")]),
        )
        with pytest.raises(DegenerateFormError):
            connection(alg, e2.two_forms["omega"], pair)


def rebased(alg, omega, members, p):
    """The algebra, form and members presented on the basis given by the
    rows of p: the form becomes p omega p^T and a member row l becomes
    l p^-1."""
    pt = transpose(p)
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

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
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


def test_connection_eliminations_do_not_grow_with_the_dimension(d1, monkeypatch):
    # four in all: the change of basis to the pair's basis (which also
    # decides transversality), the solve for the leafwise derivatives (which
    # also decides nondegeneracy), the inverse basis and the change of basis
    # back, on D1 and on the standard forms of dims 2-10
    calls = []
    echelon = linalg.echelon

    def counting(rows):
        calls.append(1)
        return echelon(rows)

    cases = [(d1.algebra, d1.two_forms["omega"], d1_pair(d1))]
    for m in range(1, 6):
        n = 2 * m
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        cases.append(
            (
                LieAlgebra.from_brackets(tuple(f"e{i}" for i in range(n)), {}),
                TwoForm.from_pairs(n, [(i, m + i, 1) for i in range(m)]),
                BilagrangianPair(Subspace(n, units[:m]), Subspace(n, units[m:])),
            )
        )
    monkeypatch.setattr(linalg, "echelon", counting)
    counts = []
    for case in cases:
        calls.clear()
        connection(*case)
        counts.append(len(calls))
    assert counts == [4] * len(cases)


def test_connection_and_d_zero_build_no_ad_matrix(d1, monkeypatch):
    # the leafwise right-hand sides are read off the structure constants,
    # not off an n x n ad matrix built (and transposed) for every pair
    calls = []
    ad = algebra._ad
    for module in (algebra, bilagrangian):  # wherever the name may be bound
        monkeypatch.setattr(module, "_ad", lambda *a: calls.append(1) or ad(*a), raising=False)
    alg, w, pair = d1.algebra, d1.two_forms["omega"], d1_pair(d1)
    table = connection(alg, w, pair)
    x, y = pair.left.rows
    assert pair.left.contains_vector(d_zero(alg, w, x, y))
    assert calls == []
    assert table == oracle_connection(alg, w, pair)


@pytest.mark.parametrize("offset", [-1, 1], ids=["n-1", "n+1"])
def test_connection_refuses_a_form_of_another_dimension(d1, offset):
    # a form on Q^5 for D1 (Q^4) once gave a table, and one on Q^3 a
    # DegenerateFormError
    m = d1.algebra.dim + offset
    form = TwoForm.from_pairs(m, [(i, i + 1, 1) for i in range(0, m - 1, 2)])
    with pytest.raises(ValueError, match=f"^a form on Q\\^{m} for an algebra on Q\\^4$"):
        connection(d1.algebra, form, d1_pair(d1))


NOT_CLOSED = "^pair members must be bracket-closed$"
NOT_TRANSVERSE = "^pair members do not decompose the algebra$"
DEGENERATE = "^the form must be nondegenerate$"


@pytest.mark.parametrize(
    "left, right, degenerate, error, message",
    [
        # x+c, t is not bracket-closed: that is reported before anything else
        ("x+c,t", "L3", False, NotSubalgebraError, NOT_CLOSED),
        ("x+c,t", "L3", True, NotSubalgebraError, NOT_CLOSED),
        ("x+c,t", "L1", True, NotSubalgebraError, NOT_CLOSED),
        # dimensions that add up to 4, members that meet in c
        ("L1", "L3", False, NotTransverseError, NOT_TRANSVERSE),
        ("L1", "L3", True, NotTransverseError, NOT_TRANSVERSE),
        ("L1", "L1", True, NotTransverseError, NOT_TRANSVERSE),
        # dimensions that do not add up to 4
        ("L1", "zero", False, NotTransverseError, NOT_TRANSVERSE),
        ("L1", "zero", True, NotTransverseError, NOT_TRANSVERSE),
        # a transverse pair and the zero form
        ("L1", "L2", True, DegenerateFormError, DEGENERATE),
        ("L3", "L4", True, DegenerateFormError, DEGENERATE),
    ],
)
def test_connection_errors_and_their_precedence(d1, left, right, degenerate, error, message):
    spaces = {
        **d1.subspaces,
        "x+c,t": Subspace(4, [(1, 0, 1, 0), (0, 0, 0, 1)]),
        "zero": Subspace.zero(4),
    }
    omega = TwoForm.from_pairs(4, []) if degenerate else d1.two_forms["omega"]
    pair = BilagrangianPair(spaces[left], spaces[right])
    with pytest.raises(error, match=message):
        connection(d1.algebra, omega, pair)


def test_a_degenerate_form_names_itself_in_the_leafwise_derivative(e2):
    alg = e2.algebra
    with pytest.raises(DegenerateFormError, match=DEGENERATE):
        d_zero(alg, e2.two_forms["omega"], alg.basis_vector("c"), alg.basis_vector("b"))


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(small_frac, min_size=4, max_size=4),
        st.lists(small_frac, min_size=4, max_size=4),
    )
    def test_defining_identity_in_a_rebased_d1(self, d1, seed, x, y):
        p = random_unimodular(Random(seed), 4)
        alg, w, _ = rebased(d1.algebra, d1.two_forms["omega"], [], p)
        out = d_zero(alg, w, x, y)
        for k in range(4):
            z = tuple(int(i == k) for i in range(4))
            assert w.apply(out, z) == -w.apply(y, alg.bracket(x, z))

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


def _perturbed_d1(d1, *changes):
    """D1's algebra, form and (L1, L2) pair, and its connection table with
    (i, j, k, c) adding c to the e_k coefficient of D_{e_i} e_j."""
    alg, w, pair = d1.algebra, d1.two_forms["omega"], d1_pair(d1)
    entries = [[list(v) for v in row] for row in connection(alg, w, pair).entries]
    for i, j, k, c in changes:
        entries[i][j][k] += c
    return alg, w, pair, ConnectionTable(entries)


# on the basis (x, y, c, t) of D1, with L1 = <x, c> and L2 = <y, t>
PERTURBATIONS = {
    # D_t scaled by x -> 2x, y -> -2y: still in sp(omega) and preserving
    # both members, but D_t x - D_x t = 2x is not [t, x] = x
    "torsion_free": ((3, 0, 0, 1), (3, 1, 1, -1)),
    # D_x x = x: omega(D_x x, y) = 1 but omega(D_x y, x) = 0
    "parallel_form": ((0, 0, 0, 1),),
    # D_x x = y leaves L1
    "preserves_left": ((0, 0, 1, 1),),
    # D_y y = x leaves L2
    "preserves_right": ((1, 1, 0, 1),),
}


@pytest.mark.parametrize("broken", sorted(PERTURBATIONS))
def test_a_perturbed_d1_connection_fails_exactly_one_property(d1, broken):
    alg, w, pair, table = _perturbed_d1(d1, *PERTURBATIONS[broken])
    audit = audit_connection(alg, w, pair, table)
    assert audit == oracle_audit_connection(alg, w, pair, table)
    assert not audit.ok
    assert [f for f, v in vars(audit).items() if not v] == [broken]


def test_audit_refuses_a_table_form_or_pair_of_another_dimension(d1):
    alg, w, pair = d1.algebra, d1.two_forms["omega"], d1_pair(d1)
    table = connection(alg, w, pair)
    small = ConnectionTable([[(0, 0, 0)] * 3] * 3)
    plane = BilagrangianPair(Subspace.zero(3), Subspace.full(3))
    for args in ((w, pair, small), (TwoForm.zero(3), pair, table), (w, plane, table)):
        with pytest.raises(ValueError):
            audit_connection(alg, *args)


@st.composite
def audit_case(draw):
    """An abelian or generated algebra of dimension 1-5, in a unimodular
    basis half the time; a skew form, two subspaces and a table of small
    rationals, zero with drawn densities.  Half the tables are made
    torsion-free: a symmetric table plus half the bracket."""
    dim = draw(st.integers(min_value=1, max_value=5))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    make = draw(st.sampled_from(("abelian", random_completely_solvable, random_nilpotent)))
    names = tuple(f"e{i}" for i in range(dim))
    alg = LieAlgebra.from_brackets(names, {}) if make == "abelian" else make(rng, dim)
    if draw(st.booleans()):
        alg = change_basis(alg, random_unimodular(rng, dim))
    values = (-1, 1, 2, Fraction(1, 2), Fraction(-2, 3))

    def pick(density):
        return rng.choice(values) if rng.random() < density else 0

    density = draw(st.sampled_from((0, 0.2, 1)))
    upper = [(i, j, pick(density)) for i in range(dim) for j in range(i + 1, dim)]
    omega = TwoForm.from_pairs(dim, upper)
    left, right = (
        Subspace(dim, [[pick(0.6) for _ in range(dim)] for _ in range(rng.randrange(dim + 1))])
        for _ in range(2)
    )
    density = draw(st.sampled_from((0, 0.05, 0.2, 1)))
    entries = [[[pick(density) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    if draw(st.booleans()):
        sym, br = entries, alg.table
        entries = [
            [[(a + b + c) / 2 for a, b, c in zip(sym[i][j], sym[j][i], br[i][j])] for j in range(dim)]
            for i in range(dim)
        ]
    return alg, omega, BilagrangianPair(left, right), ConnectionTable(entries)


@settings(max_examples=150, deadline=None)
@given(audit_case())
def test_audit_matches_the_oracle_on_random_tables(case):
    alg, omega, pair, table = case
    audit = audit_connection(alg, omega, pair, table)
    expected = oracle_audit_connection(alg, omega, pair, table)
    assert audit.torsion_free is expected.torsion_free
    assert audit.parallel_form is expected.parallel_form
    assert audit.preserves_left is expected.preserves_left
    assert audit.preserves_right is expected.preserves_right
