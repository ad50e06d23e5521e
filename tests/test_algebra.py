"""Structure-constant algebras, canonical subspaces, solvability."""

import hashlib
import math
import time
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solvdiag import (
    ConnectionTable,
    Flag,
    LieAlgebra,
    NotAnIdealError,
    NotSubalgebraError,
    SolvabilityVerdict,
    SolvdiagError,
    Subspace,
    SubspaceNotNestedError,
    ThreeForm,
    TwoForm,
    complete_solvability_certificate,
    derived_subalgebra,
    ideal_closure,
    is_ideal_in,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    quotient,
    solvability_verdict,
    subalgebra_as_algebra,
    subalgebra_closure,
    validate_algebra,
)
from solvdiag import algebra, forms, linalg
from solvdiag.corpus import list_corpus, load_corpus
from solvdiag.algebra import VectorTable, change_basis, is_nilpotent_subalgebra
from solvdiag.generators import (
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
)
from oracles import (
    above_2_64_basis,
    coordinates_of,
    faddeev_leverrier_charpoly,
    fraction_rref,
    is_common_eigenvector,
    matvec,
    oracle_bracket,
    oracle_common_eigenvector,
    oracle_derived_rows,
    oracle_is_solvable,
    oracle_nullspace,
    oracle_validation,
    rank_test_hyperplane,
    reduce_vector,
    spans_equal,
    trial_division_rational_roots,
)


def heisenberg():
    return LieAlgebra.from_brackets(("p", "q", "z"), {("p", "q"): {"z": 1}})


def sl2():
    # not solvable; the classic e, f, h triple
    return LieAlgebra.from_brackets(
        ("e", "f", "h"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def rot2d():
    # solvable but with irrational (complex) adjoint spectrum
    return LieAlgebra.from_brackets(
        ("r", "x", "y"), {("r", "x"): {"y": 1}, ("r", "y"): {"x": -1}}
    )


class TestSubspace:
    def test_rows_are_canonical(self):
        s = Subspace(3, [(2, 4, 0), (1, 2, 1)])
        t = Subspace(3, [(1, 2, 0), (0, 0, 3)])
        assert s == t
        assert s.rows == ((1, 2, 0), (0, 0, 1))
        assert s.pivots == (0, 2)

    def test_span_contains_intersect(self):
        s = Subspace(3, [(1, 0, 1), (0, 1, 0)])
        assert s.contains_vector((2, 3, 2))
        assert not s.contains_vector((1, 0, 0))
        t = Subspace(3, [(1, 0, 1)])
        assert s.contains(t)
        assert s.intersect(t) == t

    def test_sum_and_annihilator(self):
        s = Subspace(3, [(1, 0, 0)])
        t = Subspace(3, [(0, 1, 0)])
        assert s.sum(t).dim == 2
        ann = s.sum(t).annihilator()
        assert ann.rows == ((0, 0, 1),)

    def test_coordinates_roundtrip(self):
        s = Subspace(3, [(1, 2, 0), (0, 0, 1)])
        v = (3, 6, -2)
        coords = coordinates_of(s, v)
        assert coords == (3, -2)
        assert coordinates_of(s, (0, 1, 0)) is None

    @pytest.mark.parametrize(
        "v", [(1, 0), (1, 0, 0, 0), (1, 0, 0, 7)], ids=["short", "long", "long-tail"]
    )
    @pytest.mark.parametrize("method", ["reduce_vector", "contains_vector", "coordinates_of"])
    def test_a_vector_of_the_wrong_length_is_rejected(self, method, v):
        s = Subspace(3, [[1, 0, 0]])
        entry = {
            "reduce_vector": reduce_vector,
            "contains_vector": Subspace.contains_vector,
            "coordinates_of": coordinates_of,
        }[method]
        with pytest.raises(ValueError, match="length"):
            entry(s, v)

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(3, [[1, 0, 0], [1, 0]])
        # a zero row of the wrong length is refused too, though rref drops it
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(3, [[0, 0, 0, 0]])

    def test_sort_key_prefers_early_pivots(self):
        a = Subspace(3, [(1, 0, 0)])
        b = Subspace(3, [(0, 1, 0)])
        assert a.sort_key() < b.sort_key()

    def test_zero_and_full(self):
        assert Subspace.zero(4).is_zero()
        assert Subspace.full(4).dim == 4


class TestLieAlgebra:
    def test_from_brackets_antisymmetry_fill(self):
        h = heisenberg()
        assert h.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
        assert h.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)

    def test_contradictory_duplicate_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(
                ("a", "b"), {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}}
            )

    @pytest.mark.parametrize(
        "entries, unknown",
        [({("a", "b"): {"c": 1}}, "'c'"), ({("a", "c"): {"a": 1}}, "'c'"), ({("d", "a"): {}}, "'d'")],
        ids=["in-a-value", "in-a-key", "first-in-a-key"],
    )
    def test_a_name_outside_the_basis_is_a_value_error(self, entries, unknown):
        with pytest.raises(ValueError, match=f"names {unknown}, which is not a basis name"):
            LieAlgebra.from_brackets(("a", "b"), entries)

    @pytest.mark.parametrize(
        "names, entries, error, message",
        [
            (
                ("a", "a", "b"),
                {("a", "b"): {"c": 1}},
                ValueError,
                "bracket [a,b] names 'c', which is not a basis name",
            ),
            (("a", "a", "b"), {("a", "b"): {"b": 1}}, ValueError, "basis names must be distinct"),
            (
                ("a", "b"),
                {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}},
                ValueError,
                "brackets [b,a] and [a,b] are not antisymmetric",
            ),
            (("a", "b"), {("a", "b"): {"a": 0.5}}, TypeError, "not an exact rational: 0.5"),
            (("a", "b"), {("a", "a"): {"a": 0.5}}, ValueError, "bracket [a,a] must be zero, not given"),
        ],
        ids=["unknown-before-duplicate-names", "duplicate-names", "contradictory", "float", "self"],
    )
    def test_from_brackets_refusals_and_their_order(self, names, entries, error, message):
        with pytest.raises(error) as err:
            LieAlgebra.from_brackets(names, entries)
        assert str(err.value) == message

    def test_from_brackets_accepts_an_explicit_zero_against_an_absent_entry(self):
        entries = {("a", "b"): {"a": 0, "b": "1/2"}, ("b", "a"): {"b": Fraction(-2, 4)}}
        a = LieAlgebra.from_brackets(("a", "b"), entries)
        assert a.consts == (((), ((1, 1),)), (((1, -1),), ())) and a.denom == 2

    def test_validate_flags_jacobi_violation(self):
        # [a,b]=c, [a,c]=a breaks Jacobi on (a,b,c)
        bad = LieAlgebra.from_brackets(
            ("a", "b", "c"), {("a", "b"): {"c": 1}, ("a", "c"): {"a": 1}}
        )
        rep = validate_algebra(bad)
        assert not rep.ok
        assert (0, 1, 2) in rep.jacobi_failures

    def test_validate_flags_antisymmetry_violation(self):
        h = heisenberg()
        table = [list(list(v) for v in row) for row in h.table]
        table[0][1] = [0, 0, -1]  # now equals table[1][0]: antisymmetry broken
        broken = LieAlgebra(h.names, table)
        rep = validate_algebra(broken)
        assert (0, 1) in rep.antisymmetry_failures

    def test_ad_matrix_columns(self):
        h = heisenberg()
        ad_p = h.ad_matrix((1, 0, 0))
        # ad_p sends q to z
        assert ad_p[2][1] == 1
        assert all(ad_p[i][0] == 0 for i in range(3))


small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def algebra_and_two_vectors(draw):
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=6))
    alg = make(Random(draw(st.integers(min_value=0, max_value=10**6))), dim)
    vector = st.lists(small_frac, min_size=dim, max_size=dim).map(linalg.vec)
    return alg, draw(vector), draw(vector)


@settings(max_examples=60, deadline=None)
@given(algebra_and_two_vectors())
def test_ad_matrix_agrees_with_bracket(case):
    alg, x, y = case
    assert matvec(alg.ad_matrix(x), y) == alg.bracket(x, y)


@st.composite
def exact_entry(draw):
    """A small rational as a Fraction, a 'p/q' string or, when whole, an int."""
    x = draw(small_frac)
    kind = draw(st.sampled_from(("fraction", "string", "int")))
    if kind == "string":
        return f"{x.numerator}/{x.denominator}"
    if kind == "int" and x.denominator == 1:
        return int(x)
    return x


@st.composite
def rebased_algebra(draw):
    """A generated algebra of dimension 1-7 in a random unimodular basis."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=7))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    return change_basis(make(rng, dim), random_unimodular(rng, dim))


@st.composite
def rebased_algebra_and_mixed_vectors(draw):
    alg = draw(rebased_algebra())
    zero = st.just([0] * alg.dim)
    vector = st.one_of(zero, st.lists(exact_entry(), min_size=alg.dim, max_size=alg.dim))
    return alg, draw(vector), draw(vector)


@st.composite
def perturbed_algebra(draw):
    """A rebased algebra, or one with a single structure constant moved,
    which breaks antisymmetry when it is off the diagonal pairs' mirror."""
    alg = draw(rebased_algebra())
    if not draw(st.booleans()):
        return alg
    n = alg.dim
    i, j, k = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(3))
    table = [[list(v) for v in row] for row in alg.table]
    table[i][j][k] += draw(small_frac.filter(bool))
    return LieAlgebra(alg.names, table)


@settings(max_examples=80, deadline=None)
@given(rebased_algebra_and_mixed_vectors())
def test_bracket_and_ad_matrix_match_the_oracle(case):
    alg, x, y = case
    expected = oracle_bracket(alg, [Fraction(a) for a in x], [Fraction(b) for b in y])
    assert alg.bracket(x, y) == expected
    assert matvec(alg.ad_matrix(x), linalg.vec(y)) == expected


@settings(max_examples=80, deadline=None)
@given(perturbed_algebra())
def test_validate_algebra_matches_the_oracle(alg):
    report = validate_algebra(alg)
    assert (report.antisymmetry_failures, report.jacobi_failures) == oracle_validation(alg)


@settings(max_examples=40, deadline=None)
@given(perturbed_algebra())
def test_consts_list_the_nonzero_table_entries(alg):
    assert len(alg.consts) == alg.dim
    for row, nz_row in zip(alg.table, alg.consts, strict=True):
        for v, nz in zip(row, nz_row, strict=True):
            assert tuple((k, Fraction(c, alg.denom)) for k, c in nz) == tuple(
                (k, c) for k, c in enumerate(v) if c != 0
            )
            assert all(type(c) is int for _, c in nz)


def test_consts_coerce_int_and_string_constants_once():
    alg = LieAlgebra(("a", "b"), [[[0, 0], ["1/2", 0]], [[Fraction(-1, 2), 0], [0, 0]]])
    assert (alg.consts, alg.denom) == ((((), ((0, 1),)), (((0, -1),), ())), 2)
    assert alg.table[1][0] == (Fraction(-1, 2), 0)


def test_bracket_takes_int_fraction_and_string_entries():
    h = heisenberg()
    assert h.bracket(("2", 0, 0), (0, Fraction(1, 2), 0)) == (0, 0, 1)
    assert h.bracket((1, 0, 0), (0, "3/2", 0)) == (0, 0, Fraction(3, 2))
    assert h.bracket((0, 0, 0), (0, 1, 0)) == (0, 0, 0)


@pytest.mark.parametrize(
    "x, y",
    [((1.0, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0.5, 0)), ((0.0, 0, 0), (0, 1, 0))],
    ids=["x", "y", "zero"],
)
def test_bracket_and_ad_matrix_refuse_a_float(x, y):
    h = heisenberg()
    with pytest.raises(TypeError, match="not an exact rational"):
        h.bracket(x, y)
    with pytest.raises(TypeError, match="not an exact rational"):
        h.ad_matrix(x if isinstance(x[0], float) else y)


@st.composite
def rebased_algebra_and_subspace(draw):
    """A generated algebra of dimension 2-7 in a random unimodular basis,
    plus the span of a few random vectors in it."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=2, max_value=7))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    alg = change_basis(make(rng, dim), random_unimodular(rng, dim))
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    rows = draw(st.lists(vector, min_size=1, max_size=dim))
    return alg, Subspace(dim, rows)


@settings(max_examples=40, deadline=None)
@given(rebased_algebra_and_subspace())
def test_common_eigenvector_is_an_eigenvector_of_every_ad(case):
    alg, _ = case
    ad = [alg.ad_matrix(linalg.unit_vec(alg.dim, i)) for i in range(alg.dim)]
    v = algebra.common_eigenvector(alg.consts)
    assert v is not None  # the spectrum of a generated algebra is rational
    assert is_common_eigenvector(v, ad)


def _normalized(v):
    """The descent's integer vector divided by its pivot entry, as the oracle
    returns it; None stays None."""
    return None if v is None else linalg.divided(v, next(x for x in v if x))


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _rational_diagonal(rng, dim):
    """A diagonal basis change with fractional entries of both signs."""
    diag = [
        Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 7))) * rng.choice((1, -1))
        for _ in range(dim)
    ]
    return [[diag[i] if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]


@st.composite
def acting_algebra_and_rep(draw):
    """A generated algebra of dimension 1-7, rescaled by a rational diagonal
    matrix and rebased by a unimodular one or not, with its adjoint
    representation."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=7))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    alg = make(rng, dim)
    if draw(st.booleans()):
        alg = change_basis(alg, _rational_diagonal(rng, dim))
    if draw(st.booleans()):
        alg = change_basis(alg, random_unimodular(rng, dim))
    rep = [alg.ad_matrix(linalg.unit_vec(dim, i)) for i in range(dim)]
    return alg, rep


# The descent's oracle tests (marked descent_oracle) draw their own budget each,
# or the profile's when it is larger: CI runs them once more with
# -m descent_oracle --hypothesis-profile=descent-oracle.
@pytest.mark.descent_oracle
@settings(max_examples=max(80, settings.default.max_examples), deadline=None)
@given(acting_algebra_and_rep())
def test_common_eigenvector_matches_the_fraction_descent(case):
    alg, rep = case
    v = algebra.common_eigenvector(alg.consts)
    assert v is not None
    assert _normalized(v) == oracle_common_eigenvector(alg, rep, alg.dim)
    assert all(type(x) is int for x in v)
    assert math.gcd(*v) == 1 and next(x for x in v if x) > 0  # primitive, positive at its pivot
    assert is_common_eigenvector(v, rep)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_common_eigenvector_matches_the_fraction_descent_above_2_64(dim, seed):
    # a nilpotent algebra on a basis with entries above 2^64: the descent's
    # line check, restricted action, invariance back-check and change of
    # coordinates multiply big integers, and every weight is zero, so the
    # oracle's trial division stays cheap
    rng = Random(seed)
    alg = change_basis(random_nilpotent(rng, dim), above_2_64_basis(rng, dim))
    rep = [alg.ad_matrix(linalg.unit_vec(dim, i)) for i in range(dim)]
    v = algebra.common_eigenvector(alg.consts)
    assert _normalized(v) == oracle_common_eigenvector(alg, rep, dim)
    assert is_common_eigenvector(v, rep)


@st.composite
def square_matrices(draw):
    """A matrix of dimension 1-6 with int or Fraction entries: upper or
    lower triangular, diagonal with repeated entries, dense (mostly with an
    irrational or complex spectrum), or an upper triangular one conjugated
    by a unimodular matrix (dense, with a rational spectrum)."""
    dim = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from(("upper", "lower", "diagonal", "dense", "conjugated")))
    ints = draw(st.booleans())
    if ints:
        entry, zero = st.integers(min_value=-3, max_value=3), 0
    else:
        entry, zero = st.fractions(min_value=-2, max_value=2, max_denominator=3), Fraction(0)
    if shape == "diagonal":
        values = draw(st.lists(entry, min_size=1, max_size=2))  # few values, so repeats
        diag = [draw(st.sampled_from(values)) for _ in range(dim)]
        return [[diag[i] if i == j else zero for j in range(dim)] for i in range(dim)]
    m = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
    if shape in ("upper", "conjugated"):
        m = [[x if j >= i else zero for j, x in enumerate(row)] for i, row in enumerate(m)]
    elif shape == "lower":
        m = [[x if j <= i else zero for j, x in enumerate(row)] for i, row in enumerate(m)]
    if shape == "conjugated":
        p = random_unimodular(Random(draw(st.integers(min_value=0, max_value=10**6))), dim)
        red, _ = fraction_rref([list(row) + list(linalg.unit_vec(dim, i)) for i, row in enumerate(p)])
        m = _matmul(_matmul(p, m), [row[dim:] for row in red])
        if ints:  # the inverse of a unimodular matrix is integer
            m = [[int(x) for x in row] for row in m]
    return m


@pytest.mark.descent_oracle
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(square_matrices())
@example([[0, -1], [1, 0]])  # spectrum +-i
@example([[0, 2], [1, 0]])  # spectrum +-sqrt(2)
@example([[1, 2, 0], [0, 1, 0], [0, 3, 1]])  # neither triangular: one eigenvalue, thrice
def test_eigenspaces_match_the_charpoly_oracle(m):
    dim = len(m)
    spectrum = trial_division_rational_roots(faddeev_leverrier_charpoly(m))
    spaces = algebra._eigenspaces(m, dim)
    # the eigenvalue of each space, read off its first vector at its pivot
    weights = []
    for space in spaces:
        assert all(type(x) is int for v in space for x in v)
        v = space[0]
        p = next(i for i, x in enumerate(v) if x)
        weights.append(Fraction(sum(x * y for x, y in zip(m[p], v))) / v[p])
    assert weights == spectrum
    for mu, space in zip(spectrum, spaces):
        shifted = [[x - mu * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert spans_equal(space, oracle_nullspace(shifted, dim), dim)


@pytest.mark.descent_oracle
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(
    st.sampled_from((random_completely_solvable, random_nilpotent)),
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.data(),
)
def test_directions_in_the_derived_algebra_act_nilpotently(make, dim, seed, rebase, data):
    # the premise of the descent's [q, q] rule: the weights of a solvable
    # algebra vanish on [g, g], so ad z has the charpoly t^n for z in it
    rng = Random(seed)
    alg = make(rng, dim)
    if rebase:
        alg = change_basis(alg, random_unimodular(rng, dim))
    derived = derived_subalgebra(alg)
    assume(derived.dim)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=derived.dim, max_size=derived.dim))
    z = [sum(c * r[j] for c, r in zip(coeffs, derived.int_rows)) for j in range(dim)]
    assert faddeev_leverrier_charpoly(alg.ad_matrix(z)) == [0] * dim + [1]


@st.composite
def nilpotent_matrices(draw):
    """A strictly upper triangular integer matrix of dimension 1-6, conjugated
    by a unimodular one, so dense and nilpotent."""
    dim = draw(st.integers(min_value=1, max_value=6))
    m = [[draw(st.integers(-3, 3)) if j > i else 0 for j in range(dim)] for i in range(dim)]
    p = random_unimodular(Random(draw(st.integers(min_value=0, max_value=10**6))), dim)
    red, _ = fraction_rref([list(row) + list(linalg.unit_vec(dim, i)) for i, row in enumerate(p)])
    return [[int(x) for x in row] for row in _matmul(_matmul(p, m), [row[dim:] for row in red])]


@pytest.mark.descent_oracle
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(nilpotent_matrices())
@example([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # triangular: the diagonal scan's route
@example([[1, 1], [-1, -1]])  # dense: the charpoly's route
def test_the_nilpotent_route_matches_the_charpoly_route(m):
    dim = len(m)
    assert trial_division_rational_roots(faddeev_leverrier_charpoly(m)) == [0]
    spaces = algebra._eigenspaces(m, dim, nilpotent=True)
    assert spaces == algebra._eigenspaces(m, dim)
    assert spans_equal(spaces[0], oracle_nullspace(m, dim), dim)


@pytest.mark.descent_oracle
@settings(max_examples=max(80, settings.default.max_examples), deadline=None)
@given(acting_algebra_and_rep())
def test_the_descents_nilpotent_route_matches_the_charpoly_route(case):
    # each matrix the descent takes as nilpotent, from a direction in
    # [q, q], has the eigenspaces the charpoly route gives it
    alg, rep = case
    eigenspaces = algebra._eigenspaces

    def checking(m, dim, nilpotent=False):
        if nilpotent:
            assert eigenspaces(m, dim, True) == eigenspaces(m, dim)
        return eigenspaces(m, dim, nilpotent)

    with mock.patch.object(algebra, "_eigenspaces", checking):
        v = algebra.common_eigenvector(alg.consts)
    assert _normalized(v) == oracle_common_eigenvector(alg, rep, alg.dim)


def test_the_descent_builds_no_subspace(monkeypatch):
    # every stage works on the (rows, pivots) of linalg.echelon
    built = []
    init = Subspace.__init__

    def counting(self, n, rows):
        built.append(n)
        init(self, n, rows)

    monkeypatch.setattr(Subspace, "__init__", counting)
    for seed in range(1, 5):
        for make in (random_completely_solvable, random_nilpotent):
            alg = change_basis(make(Random(seed), 6), random_unimodular(Random(seed), 6))
            built.clear()
            assert algebra.common_eigenvector(alg.consts) is not None
            assert built == []


def test_common_eigenvector_of_a_table():
    # [a, b] = b: the common eigenvector is b, and an empty table has no
    # space to act on
    alg = LieAlgebra.from_brackets(("a", "b"), {("a", "b"): {"b": 1}})
    assert algebra.common_eigenvector(alg.consts) == [0, 1]
    with pytest.raises(ValueError, match="dimension >= 1"):
        algebra.common_eigenvector(())


def test_forced_spectra_skip_the_charpoly(monkeypatch):
    # a 1x1 or triangular restriction has its spectrum read off its entries,
    # and a direction in [q, q] acts nilpotently, so only 31 of the 219
    # restrictions of these 22 certificates need a charpoly and its rational
    # roots (51 before the [q, q] rule); the count is deterministic
    calls = []
    eigenvalues = linalg.rational_eigenvalues

    def counting(m):
        calls.append(len(m))
        return eigenvalues(m)

    monkeypatch.setattr(linalg, "rational_eigenvalues", counting)
    algs = [random_completely_solvable(Random(s), n) for s in range(1, 5) for n in range(3, 7)]
    algs += [load_corpus(name).algebra for name in list_corpus()]
    for alg in algs:
        complete_solvability_certificate(alg)
    assert len(calls) == 31


@pytest.mark.parametrize("make", [sl2, rot2d])
def test_common_eigenvector_is_none_without_a_rational_descent(make):
    # sl2 is not solvable; rot2d has the spectrum +-i
    alg = make()
    ad = [alg.ad_matrix(linalg.unit_vec(alg.dim, i)) for i in range(alg.dim)]
    assert algebra.common_eigenvector(alg.consts) is None
    assert oracle_common_eigenvector(alg, ad, alg.dim) is None


@settings(max_examples=40, deadline=None)
@given(rebased_algebra_and_subspace())
def test_derived_span_equals_all_ordered_pairs(case):
    alg, s = case
    for space in (s, Subspace.full(alg.dim)):
        derived = alg.derived_span(space)
        assert spans_equal(derived.rows, oracle_derived_rows(alg, space.rows), alg.dim)


@settings(max_examples=40, deadline=None)
@given(rebased_algebra_and_subspace())
def test_hyperplane_in_matches_rank_test(case):
    # along the descent's own chain, each stage's hyperplane must contain
    # [sub, sub], and again [sub, sub] plus the drawn subspace's part in sub
    alg, s = case
    sub = Subspace.full(alg.dim)
    while not sub.is_zero():
        derived = alg.derived_span(sub)
        assert derived.dim < sub.dim  # generated algebras are solvable
        extra = derived.sum(s.intersect(sub))
        for containing in (derived, extra):
            if containing.dim >= sub.dim:
                continue
            rows, pivots = algebra._hyperplane_in(sub.int_rows, containing.int_rows, containing.pivots)
            hyper = Subspace(alg.dim, rows)
            assert (rows, pivots) == linalg.echelon(rows)  # already canonical
            expected = rank_test_hyperplane(sub.rows, containing.rows)
            assert hyper.dim == sub.dim - 1
            assert spans_equal(hyper.rows, expected, alg.dim)
        sub = Subspace(alg.dim, algebra._hyperplane_in(sub.int_rows, derived.int_rows, derived.pivots)[0])


class TestClosures:
    def test_subalgebra_closure_grows_to_bracket(self):
        h = heisenberg()
        c = subalgebra_closure(h, [(1, 0, 0), (0, 1, 0)])
        assert c.dim == 3

    def test_ideal_closure(self):
        a = LieAlgebra.from_brackets(
            ("x", "y", "t"), {("t", "x"): {"x": 1}, ("t", "y"): {"y": -1}}
        )
        only_x = Subspace(3, [(1, 0, 0)])
        assert ideal_closure(a, only_x) == only_x  # already an ideal
        t_line = Subspace(3, [(0, 0, 1)])
        assert ideal_closure(a, t_line).dim == 3

    def test_is_ideal_requires_nesting(self):
        h = heisenberg()
        s = Subspace(3, [(1, 0, 0)])
        t = Subspace(3, [(0, 1, 0)])
        with pytest.raises(SubspaceNotNestedError):
            is_ideal_in(h, s, t)

    def test_only_a_proper_t_is_tested_for_nesting(self, monkeypatch):
        # the whole space contains every subspace of its dimension, so only
        # a proper t costs a containment test; a proper t that does not
        # contain s is still refused
        h, calls = heisenberg(), []
        contains = Subspace.contains

        def counting(self, other):
            calls.append(self.dim)
            return contains(self, other)

        monkeypatch.setattr(Subspace, "contains", counting)
        s, t = Subspace(3, [(0, 0, 1)]), Subspace(3, [(1, 0, 0), (0, 0, 1)])
        assert is_ideal_in(h, s, Subspace.full(3)) and calls == []
        assert is_ideal_in(h, s, t) and calls == [2]
        with pytest.raises(SubspaceNotNestedError):
            is_ideal_in(h, Subspace(3, [(0, 1, 0)]), t)


@st.composite
def insertion_rows(draw):
    """Integer rows of one length 1-8, entries up to 2^60 in size: free rows,
    zero rows and combinations of the rows before them."""
    n = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**60), 2**60))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("free", "zero", "dependent")), max_size=10)):
        if kind == "free":
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif kind == "zero" or not rows:
            rows.append([0] * n)
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
    return rows


@pytest.mark.descent_oracle
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(insertion_rows())
@example([[0, 0, 0], [0, 2, 4], [3, 0, 0], [1, 1, 2]])
def test_insert_row_matches_echelon(vectors):
    # rows inserted one at a time from the empty basis are, after each, the
    # echelon of all rows so far, and an insertion reports whether it grew
    rows, pivots = [], []
    for k, v in enumerate(vectors):
        rank = len(rows)
        grew = algebra._insert_row(rows, pivots, v)
        ech, piv = linalg.echelon(vectors[: k + 1])
        assert ([tuple(r) for r in rows], pivots) == ([tuple(r) for r in ech], piv)
        assert grew == (len(piv) > rank)


@st.composite
def grown_cases(draw):
    """A generated algebra of dimension 3-8, rebased when its seed is odd,
    with two subspaces spanned by a few small integer vectors."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=3, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = Random(seed)
    alg = make(rng, dim)
    if seed % 2:
        alg = change_basis(alg, random_unimodular(rng, dim))
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    a, b = (draw(st.lists(vector, max_size=dim)) for _ in range(2))
    return alg, Subspace(dim, a), Subspace(dim, b)


def _closed_by_echelon(alg, s, ideal):
    """The subalgebra (or ideal) generated by s, by eliminating the brackets
    stacked on its rows until the span stops growing: the route before rows
    were inserted."""
    while True:
        others = [linalg.unit_vec(alg.dim, i) for i in range(alg.dim)] if ideal else s.int_rows
        grown = Subspace(alg.dim, list(s.int_rows) + [alg.bracket(x, y) for x in others for y in s.int_rows])
        if grown == s:
            return s
        s = grown


@settings(max_examples=100, deadline=None)
@given(grown_cases())
def test_inserted_rows_match_the_echelon_route(case):
    # sums, closures and hyperplanes grow canonical rows by `_insert_row`;
    # each equals, rows and pivots, what eliminating the stacked rows gives
    alg, a, b = case
    total, stacked = a.sum(b), Subspace(alg.dim, a.int_rows + b.int_rows)
    assert (total.int_rows, total.pivots) == (stacked.int_rows, stacked.pivots)
    assert subalgebra_closure(alg, a.int_rows) == _closed_by_echelon(alg, a, ideal=False)
    assert ideal_closure(alg, a) == _closed_by_echelon(alg, a, ideal=True)
    if a.dim < total.dim:
        kept = list(a.int_rows)
        for row in total.int_rows:
            if len(kept) < total.dim - 1 and not Subspace(alg.dim, kept).contains_vector(row):
                kept.append(row)
        rows, pivots = algebra._hyperplane_in(total.int_rows, a.int_rows, a.pivots)
        ech, piv = linalg.echelon(kept)
        assert ([tuple(r) for r in rows], pivots) == ([tuple(r) for r in ech], piv)


class TestSolvability:
    def test_heisenberg_nilpotent(self):
        assert is_nilpotent(heisenberg())
        assert is_solvable(heisenberg())

    def test_sl2_not_solvable(self):
        assert not is_solvable(sl2())
        cert = complete_solvability_certificate(sl2())
        assert cert.verdict is SolvabilityVerdict.NOT_SOLVABLE
        assert cert.witness is None

    def test_rotation_undecided(self):
        cert = complete_solvability_certificate(rot2d())
        assert cert.verdict is SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM

    def test_certificate_chain_is_ideal_flag(self):
        a = LieAlgebra.from_brackets(
            ("x", "y", "t"), {("t", "x"): {"x": 1}, ("t", "y"): {"y": -1}}
        )
        cert = complete_solvability_certificate(a)
        assert cert.verdict is SolvabilityVerdict.COMPLETELY_SOLVABLE
        full = Subspace.full(3)
        prev = Subspace.zero(3)
        for k, member in enumerate(cert.witness, start=1):
            assert member.dim == k
            assert member.contains(prev)
            assert is_ideal_in(a, member, full)
            prev = member

    def test_certificate_with_a_huge_weight(self):
        # ad x has eigenvalue N; finding it must not factor N
        n = 10**30 + 57
        a = LieAlgebra.from_brackets(("x", "y"), {("x", "y"): {"y": n}})
        t0 = time.perf_counter()
        cert = complete_solvability_certificate(a)
        elapsed = time.perf_counter() - t0
        assert cert.verdict is SolvabilityVerdict.COMPLETELY_SOLVABLE
        assert cert.witness == (Subspace(2, [(0, 1)]), Subspace.full(2))
        assert elapsed < 1.0


def _witness_records():
    """One line per certificate: the verdict and every member's echelon rows.

    Each generated algebra appears twice: in its triangular basis, where
    the ideals are spanned by leading basis vectors, and in a random
    unimodular basis, where they are not.
    """
    algs = [
        sl2(),
        LieAlgebra.from_brackets(
            ("t", "x", "y"), {("t", "x"): {"y": 1}, ("t", "y"): {"x": 2}}
        ),
    ]
    for make in (random_completely_solvable, random_nilpotent):
        for dim, seeds in ((3, 7), (4, 7), (5, 7), (6, 7), (7, 1), (8, 1)):
            for seed in range(seeds):
                rng = Random(1000 * dim + seed)
                alg = make(rng, dim)
                algs += [alg, change_basis(alg, random_unimodular(rng, dim))]
    lines = []
    for alg in algs:
        cert = complete_solvability_certificate(alg)
        members = [
            "; ".join(" ".join(map(str, row)) for row in m.rows)
            for m in cert.witness or ()
        ]
        lines.append(f"{cert.verdict.value}: " + " | ".join(members))
    return lines


# SHA-256 of _witness_records() as computed by the certificate that built
# each quotient algebra afresh; reducing the table in place must not move a
# verdict or a witness
GOLDEN_WITNESS_DIGEST = "8433f417b5523432e12e1d22e3a854fd87338fa64fb0a505c396b59509ab6742"


def test_certificate_witnesses_unchanged():
    records = _witness_records()
    assert len(records) == 122
    assert records[0] == "NOT_SOLVABLE: "
    assert records[1] == "UNDECIDED_IRRATIONAL_SPECTRUM: "
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_WITNESS_DIGEST


def _large_witness_records():
    """As _witness_records, on one completely solvable algebra per dimension
    9-12: in its triangular basis, and rescaled by a rational diagonal
    matrix (not unimodular), so that its constants are fractional."""
    algs = []
    for dim in (9, 10, 11, 12):
        rng = Random(2000 * dim)
        alg = random_completely_solvable(rng, dim)
        algs += [alg, change_basis(alg, _rational_diagonal(rng, dim))]
    lines = []
    for alg in algs:
        cert = complete_solvability_certificate(alg)
        members = [
            "; ".join(" ".join(map(str, row)) for row in m.rows)
            for m in cert.witness or ()
        ]
        lines.append(f"{cert.verdict.value}: " + " | ".join(members))
    return lines


# SHA-256 of _large_witness_records() as computed by the certificate that
# built a Fraction quotient algebra per level
GOLDEN_LARGE_WITNESS_DIGEST = "0d35531300219596301b1de09af98abbb35f57a7beca47cf90a7b1720e3e85a8"


def test_large_certificate_witnesses_unchanged():
    records = _large_witness_records()
    assert len(records) == 8
    assert all(r.startswith("COMPLETELY_SOLVABLE: ") for r in records)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_LARGE_WITNESS_DIGEST


def _divides_out(poly, roots) -> bool:
    """Whether poly (lowest degree first) divided exactly by t - r, once for
    each r in roots, leaves 1; synthetic division from the top."""
    for r in roots:
        quo, carry = [], Fraction(0)
        for c in reversed(poly):
            carry = carry * r + c
            quo.append(carry)
        if quo.pop() != 0:
            return False
        poly = quo[::-1]
    return poly == [1]


@pytest.mark.parametrize("seed", range(32))
def test_the_certificate_weights(seed):
    # dims 1-8 on both generators, odd seeds rebased: lambda_k vanishes on
    # [g, g] and on I_k, the multiset of weights moves with the dual map
    # under a change of basis, and the lambda_k(e_i) are the eigenvalues of
    # ad(e_i) with multiplicity
    rng = Random(9100 + seed)
    n = 1 + (seed // 2) % 8
    alg = (random_completely_solvable if seed < 16 else random_nilpotent)(rng, n)
    if seed % 2:
        alg = change_basis(alg, random_unimodular(rng, n))
    cert = complete_solvability_certificate(alg)
    assert len(cert.weights) == n and cert.weight_denom > 0
    assert all(type(x) is int for row in cert.weights for x in row)
    assert math.gcd(cert.weight_denom, *(x for row in cert.weights for x in row)) == 1
    lam = [[Fraction(x, cert.weight_denom) for x in row] for row in cert.weights]
    derived = derived_subalgebra(alg).int_rows
    for weight, member in zip(lam, cert.witness):
        assert not any(matvec([*derived, *member.int_rows], weight))
    for i in range(n):
        ad = alg.ad_matrix([int(j == i) for j in range(n)])
        assert _divides_out(faddeev_leverrier_charpoly(ad), [w[i] for w in lam]), i
    m = random_unimodular(rng, n)
    moved = complete_solvability_certificate(change_basis(alg, m))
    dual = sorted(tuple(x * moved.weight_denom for x in matvec(m, w)) for w in lam)
    assert dual == sorted(moved.weights)


def test_a_certificate_without_witness_has_no_weights():
    for alg in (sl2(), rot2d()):
        cert = complete_solvability_certificate(alg)
        assert (cert.witness, cert.weights, cert.weight_denom) == (None, None, 1)


def test_certificate_checks_each_member_is_an_ideal(monkeypatch):
    # a descent that returned a non-eigenvector would make a non-ideal
    # member; the certificate must refuse rather than report it
    monkeypatch.setattr(
        algebra, "common_eigenvector", lambda consts: [1] + [0] * (len(consts) - 1)
    )
    with pytest.raises(NotAnIdealError):
        complete_solvability_certificate(heisenberg())  # [q, p] = -z


def _certificate_line(alg):
    """The verdict and every member's echelon rows, as _witness_records has it."""
    cert = complete_solvability_certificate(alg)
    members = ["; ".join(" ".join(map(str, row)) for row in m.rows) for m in cert.witness or ()]
    return f"{cert.verdict.value}: " + " | ".join(members)


# SHA-256 of the two dimension-16 records as computed by the descent that
# solved each weight space as one stacked system
GOLDEN_N16_WITNESS_DIGEST = "993870f049c0b959a5984bb745bc10ef222dbac26dca212728eca3219f569dc0"


def test_n16_certificate_witnesses_unchanged():
    records = [_certificate_line(random_completely_solvable(Random(s), 16)) for s in (1, 7)]
    assert all(r.startswith("COMPLETELY_SOLVABLE: ") for r in records)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_N16_WITNESS_DIGEST


def _adjoint(consts):
    """The integer matrices ad(e_i) of a level's table."""
    n = len(consts)
    return [algebra._ad(consts, [int(j == i) for j in range(n)]) for i in range(n)]


def _non_eigenvector(rep, dim):
    """A unit vector or a sum of two, as ints, that is not a common
    eigenvector of rep, or None: one exists unless every matrix is scalar."""
    units = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    sums = [tuple(a + b for a, b in zip(u, v)) for i, u in enumerate(units) for v in units[i + 1 :]]
    return next((v for v in units + sums if not is_common_eigenvector(v, rep)), None)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_non_eigenvector_at_any_level_is_refused(data):
    # a level checks [e_i, q] only for e_i off the new member's pivots; a
    # descent that returns a non-eigenvector at any one level must still
    # make the certificate refuse
    make = data.draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = data.draw(st.integers(min_value=3, max_value=7))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    rebase = data.draw(st.booleans())

    def build():  # a new object per run: each keeps the certificate it built
        rng = Random(seed)
        alg = make(rng, dim)
        return change_basis(alg, random_unimodular(rng, dim)) if rebase else alg

    alg = build()
    descent = algebra.common_eigenvector
    wrong = []  # per level, a vector the action does not fix, or None

    def recording(consts):
        wrong.append(_non_eigenvector(_adjoint(consts), len(consts)))
        return descent(consts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "common_eigenvector", recording)
        complete_solvability_certificate(alg)
    levels = [k for k, v in enumerate(wrong) if v is not None]
    assume(levels)
    level = data.draw(st.sampled_from(levels))
    calls = []

    def patched(consts):
        calls.append(consts)
        if len(calls) == level + 1:
            assert not is_common_eigenvector(wrong[level], _adjoint(consts))
            return list(wrong[level])
        return descent(consts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "common_eigenvector", patched)
        with pytest.raises(NotAnIdealError):
            complete_solvability_certificate(build())
    assert len(calls) == level + 1


def test_the_certificate_hands_each_level_table_to_the_descent(monkeypatch):
    # through the module attribute, once per member: level k's table is that
    # of g / I_(k-1), of dimension n - k + 1, in integer constants
    descent, tables = algebra.common_eigenvector, []

    def recording(consts):
        tables.append(consts)
        return descent(consts)

    monkeypatch.setattr(algebra, "common_eigenvector", recording)
    for make, seed in [(random_completely_solvable, 1), (random_nilpotent, 2), (heisenberg, None)]:
        alg = make() if seed is None else make(Random(seed), 6)
        tables.clear()
        cert = complete_solvability_certificate(alg)
        assert len(tables) == len(cert.witness) == alg.dim
        assert [len(t) for t in tables] == [alg.dim - k for k in range(alg.dim)]
        assert all(len(row) == len(t) for t in tables for row in t)
        assert all(type(c) is int for t in tables for row in t for cs in row for _, c in cs)
    assert tables[0] == [list(map(list, row)) for row in heisenberg().consts]


SL2 = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}
NON_SOLVABLE = {
    "sl2": (("e", "f", "h"), SL2),
    "Q+sl2": (("z", "e", "f", "h"), SL2),
    "sl2+Q": (("e", "f", "h", "z"), SL2),
    # sl2 acting on Q^2 = <u, v> by its standard representation
    "sl2|Q2": (
        ("e", "f", "h", "u", "v"),
        {**SL2, ("e", "v"): {"u": 1}, ("f", "u"): {"v": 1}, ("h", "u"): {"u": 1}, ("h", "v"): {"v": -1}},
    ),
    # gl2 on its matrix units a = E11, b = E12, c = E21, d = E22
    "gl2": (
        ("a", "b", "c", "d"),
        {
            ("a", "b"): {"b": 1},
            ("a", "c"): {"c": -1},
            ("b", "c"): {"a": 1, "d": -1},
            ("b", "d"): {"b": 1},
            ("c", "d"): {"c": -1},
        },
    ),
}
IRRATIONAL = {
    # ad t on <x, y> has the spectrum +-sqrt(2)
    "sqrt2": (("t", "x", "y"), {("t", "x"): {"y": 1}, ("t", "y"): {"x": 2}}),
    # Q acting on Q^2 by a rotation: the spectrum +-i
    "rotation": (("r", "x", "y"), {("r", "x"): {"y": 1}, ("r", "y"): {"x": -1}}),
    # by a rotation with a dilation: the spectrum 1 +- i
    "dilation": (("s", "x", "y"), {("s", "x"): {"x": 1, "y": 1}, ("s", "y"): {"x": -1, "y": 1}}),
    # the oscillator algebra: the center z is rational, then +-i on g/<z>
    "oscillator": (
        ("t", "p", "q", "z"),
        {("t", "p"): {"q": 1}, ("t", "q"): {"p": -1}, ("p", "q"): {"z": 1}},
    ),
    # a rotation r beside a rational torus s: ad s splits, ad r does not
    "torus+rotation": (
        ("s", "r", "x", "y"),
        {("s", "x"): {"x": 1}, ("s", "y"): {"y": 1}, ("r", "x"): {"y": 1}, ("r", "y"): {"x": -1}},
    ),
}


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", [*NON_SOLVABLE, *IRRATIONAL])
def test_non_solvable_and_irrational_verdicts(name, seed):
    # the certificate asks solvability_verdict only once a descent finds no
    # rational eigenvector; the verdicts must stay those of the derived series
    names, brackets = {**NON_SOLVABLE, **IRRATIONAL}[name]
    alg = LieAlgebra.from_brackets(names, brackets)
    assert validate_algebra(alg).ok
    if seed is not None:
        alg = change_basis(alg, random_unimodular(Random(seed), alg.dim))
    assert oracle_is_solvable(alg) == (name in IRRATIONAL)
    cert = complete_solvability_certificate(alg)
    expected = "UNDECIDED_IRRATIONAL_SPECTRUM" if name in IRRATIONAL else "NOT_SOLVABLE"
    assert cert.verdict is SolvabilityVerdict(expected)
    assert cert.witness is None
    assert solvability_verdict(alg) is cert.verdict


def _direct_sum(a, b):
    """a + b, the brackets of each kept and those between them zero."""
    n, table = a.dim + b.dim, []
    for alg, at in ((a, 0), (b, a.dim)):
        for row in alg.table:
            table.append([[0] * n for _ in range(n)])
            for j, v in enumerate(row):
                table[-1][at + j][at : at + alg.dim] = v
    return LieAlgebra([f"e{i}" for i in range(n)], table)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_verdict_agrees_with_the_certificate(data):
    # solvability_verdict reads the spectra of the ad(e_i) where the
    # certificate builds the flag of ideals; the verdicts must agree on
    # generated algebras in their triangular basis, rebased and rescaled,
    # alone or beside an algebra that is not solvable or whose spectrum
    # leaves Q, so that a unimodular rebasing mixes the two
    dim = data.draw(st.integers(min_value=0, max_value=8))
    rng = Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    make = data.draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    alg = make(rng, dim) if dim else LieAlgebra((), [])
    if dim <= 4 and data.draw(st.booleans()):
        names, brackets = data.draw(st.sampled_from([*NON_SOLVABLE.values(), *IRRATIONAL.values()]))
        alg = _direct_sum(alg, LieAlgebra.from_brackets(names, brackets))
    shape = data.draw(st.sampled_from(("triangular", "unimodular", "diagonal")))
    if alg.dim and shape == "unimodular":
        alg = change_basis(alg, random_unimodular(rng, alg.dim))
    if alg.dim and shape == "diagonal":
        alg = change_basis(alg, _rational_diagonal(rng, alg.dim))
    assert solvability_verdict(alg) is complete_solvability_certificate(alg).verdict


def test_a_descent_that_finds_nothing_on_a_split_spectrum_is_refused(monkeypatch):
    # the certificate asks solvability_verdict only where a descent returns
    # None; a COMPLETELY_SOLVABLE answer there is a fault of the descent,
    # not an UNDECIDED verdict, while the other two verdicts stand
    monkeypatch.setattr(algebra, "common_eigenvector", lambda consts: None)
    with pytest.raises(SolvdiagError, match="no rational eigenvector"):
        complete_solvability_certificate(heisenberg())
    cert = complete_solvability_certificate(sl2())
    assert (cert.verdict, cert.witness) == (SolvabilityVerdict.NOT_SOLVABLE, None)
    cert = complete_solvability_certificate(rot2d())
    assert (cert.verdict, cert.witness) == (SolvabilityVerdict.UNDECIDED_IRRATIONAL_SPECTRUM, None)


# each fact an algebra object keeps, by its slot
KEPT_FACTS = {
    "_certificate": complete_solvability_certificate,
    "_derived": derived_subalgebra,
    "_verdict": solvability_verdict,
    "_report": validate_algebra,
    "_table": lambda alg: alg.table,
    "_d": lambda alg: algebra._kept(alg, "_d", forms._d_rows),  # as is_closed reads it
}


def _analysed(alg):
    """alg, with every fact it keeps built."""
    for fact in KEPT_FACTS.values():
        fact(alg)
    return alg


@pytest.mark.parametrize(
    "make",
    [
        lambda: LieAlgebra(("p", "q", "z"), heisenberg().table),
        lambda: LieAlgebra._of(heisenberg().consts, 1, names=("p", "q", "z")),
        heisenberg,
        lambda: change_basis(_analysed(heisenberg()), [(1, 1, 0), (0, 1, 0), (0, 0, 1)]),
        lambda: quotient(_analysed(heisenberg()), Subspace(3, [(0, 0, 1)]))[0],
        lambda: subalgebra_as_algebra(_analysed(heisenberg()), Subspace(3, [(1, 0, 0), (0, 0, 1)])),
        lambda: random_completely_solvable(Random(3), 5),
        lambda: random_nilpotent(Random(3), 5),
    ],
    ids=["init", "_of", "from_brackets", "change_basis", "quotient", "subalgebra",
         "completely_solvable", "nilpotent"],
)
def test_a_new_algebra_keeps_no_fact_yet(make):
    # no construction path sets a kept fact, nor hands on its source's; the
    # first call keeps it and every later call returns that same object
    alg = make()
    assert [getattr(alg, slot, None) for slot in KEPT_FACTS] == [None] * len(KEPT_FACTS)
    for slot, fact in KEPT_FACTS.items():
        value = fact(alg)
        assert getattr(alg, slot) is value and fact(alg) is value


@pytest.mark.parametrize(
    "make",
    [
        lambda: Subspace(3, [(2, 4, 0), (0, 0, -3)]),
        lambda: Subspace._of(3, [(1, 2, 0), (0, 0, 1)], (0, 2)),
        lambda: Subspace.full(3),
        lambda: Subspace.zero(3),
    ],
    ids=["init", "_of", "full", "zero"],
)
def test_a_new_subspace_keeps_no_rows_yet(make):
    # the reduced Fraction rows are kept on the first read of `rows`
    s = make()
    assert getattr(s, "_rows", None) is None
    rows = s.rows
    assert s._rows is rows and s.rows is rows


def test_a_new_connection_table_keeps_no_table_yet():
    for table in (ConnectionTable([[[1, 0], [0, 0]], [[0, 0], [0, 2]]]),
                  ConnectionTable._of([[[(0, 1)], []], [[], [(1, 2)]]], 3)):
        assert getattr(table, "_table", None) is None
        view = table.table
        assert table._table is view and table.entries is view


@pytest.mark.parametrize(
    "value, attr",
    [
        (Subspace.full(2), "pivots"),
        (Subspace.full(2), "_rows"),
        (Flag([Subspace.full(2)]), "members"),
        (VectorTable([[[1]]]), "denom"),
        (heisenberg(), "names"),
        (heisenberg(), "_certificate"),
        (_analysed(heisenberg()), "_d"),  # kept, so set
        (ConnectionTable([[[1]]]), "consts"),
        (TwoForm.zero(2), "numer"),
        (TwoForm.zero(2), "_kernel"),
        (ThreeForm(3, {}), "entries"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_a_value_is_immutable(value, attr):
    # every value type shares the one guard of algebra._Frozen; a slot is set
    # only by the constructors and by `_kept`, and is never deleted, whether
    # set or not
    before = getattr(value, attr, None)
    for change in (lambda: setattr(value, attr, None), lambda: delattr(value, attr)):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            change()
    assert getattr(value, attr, None) is before


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: Subspace.full(2).contains(Subspace.full(3)),
            "subspaces of different ambient spaces",
        ),
        (lambda: LieAlgebra(("a", "a"), [[[0, 0]] * 2] * 2), "basis names must be distinct"),
        (
            lambda: LieAlgebra(("a", "b", "c"), [[[0, 0]] * 2] * 2),
            "a bracket table of size 2 for 3 basis names",
        ),
    ],
    ids=["contains", "duplicate-names", "table-size"],
)
def test_a_refused_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_certificate_eliminations_stay_within_the_basis_pairs(monkeypatch):
    # no elimination of a dim-n certificate has more rows than the n(n-1)/2
    # brackets of the basis pairs: each descent stage reads its weight space
    # off the stage below instead of stacking a system over the hyperplane's
    # actions (up to twice as many rows), and a 1-dimensional stage has no
    # [sub, sub] to eliminate (780 calls before); the canonical hyperplane
    # and the carried member grow by `_insert_row` and are not eliminated
    # again ((722, 2100) before); the counts are deterministic
    algs = [random_completely_solvable(Random(s), n) for s in range(1, 5) for n in range(3, 7)]
    algs += [load_corpus(name).algebra for name in list_corpus()]
    algs.append(random_completely_solvable(Random(1), 12))
    sizes = []
    echelon = linalg.echelon

    def counting(rows):
        sizes.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(linalg, "echelon", counting)
    calls = rows = 0
    for alg in algs:
        sizes.clear()
        complete_solvability_certificate(alg)
        assert max(sizes) <= alg.dim * (alg.dim - 1) // 2
        if alg.dim < 12:
            calls, rows = calls + len(sizes), rows + sum(sizes)
    assert (calls, rows) == (511, 1545)


class TestQuotient:
    def test_quotient_by_center(self):
        h = heisenberg()
        z = Subspace(3, [(0, 0, 1)])
        q, proj = quotient(h, z)
        assert q.dim == 2
        assert q.names == ("p", "q")
        # the quotient of the Heisenberg algebra by its center is abelian
        assert derived_subalgebra(q).is_zero()
        assert len(proj) == 2 and len(proj[0]) == 3

    def test_quotient_requires_ideal(self):
        h = heisenberg()
        p_line = Subspace(3, [(1, 0, 0)])
        with pytest.raises(NotAnIdealError):
            quotient(h, p_line)

    def test_subalgebra_as_algebra_preserves_brackets(self):
        h = heisenberg()
        s = Subspace(3, [(1, 0, 0), (0, 0, 1)])
        sub = subalgebra_as_algebra(h, s)
        assert sub.dim == 2
        assert derived_subalgebra(sub).is_zero()

    def test_subalgebra_as_algebra_refuses_a_subspace_not_bracket_closed(self, x3):
        bad = x3.flags["F1"].members[2]
        with pytest.raises(NotSubalgebraError, match="^subspace is not bracket-closed$"):
            subalgebra_as_algebra(x3.algebra, bad)

    def test_is_nilpotent_subalgebra(self):
        a = LieAlgebra.from_brackets(
            ("x", "y", "t"), {("t", "x"): {"x": 1}, ("t", "y"): {"y": -1}}
        )
        assert is_nilpotent_subalgebra(a, Subspace(3, [(1, 0, 0), (0, 1, 0)]))
        assert not is_nilpotent_subalgebra(a, Subspace.full(3))


def _quotient_records():
    """One line per (algebra, certificate member): the quotient's names,
    constants and denominator, and the rows of its projection.  Both
    generators, dims 2-7, ten seeds each, the odd seeds rebased."""
    lines = []
    for make in (random_completely_solvable, random_nilpotent):
        for dim in range(2, 8):
            for seed in range(10):
                rng = Random(3000 * dim + seed)
                alg = make(rng, dim)
                if seed % 2:
                    alg = change_basis(alg, random_unimodular(rng, dim))
                for ideal in complete_solvability_certificate(alg).witness:
                    q, proj = quotient(alg, ideal)
                    rows = "; ".join(" ".join(map(str, r)) for r in proj)
                    lines.append(f"{' '.join(q.names)} {q.consts} {q.denom} | {rows}")
    return lines


# SHA-256 of _quotient_records() as computed by the quotient that built its
# projection by hand from the ideal's rows scaled to their common pivot
GOLDEN_QUOTIENT_DIGEST = "2c253d81a5b6cc982a085d2e782517504de8745f2ba23bd01cd33a64cb945abc"


def test_quotients_unchanged():
    records = _quotient_records()
    assert len(records) == 540
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_QUOTIENT_DIGEST


@st.composite
def algebra_ideal_and_two_vectors(draw):
    """A generated algebra of dimension 1-6, in a random unimodular basis
    half the time, one member of its certificate, and two small rational
    vectors."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=6))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    alg = make(rng, dim)
    if draw(st.booleans()):
        alg = change_basis(alg, random_unimodular(rng, dim))
    ideal = draw(st.sampled_from(complete_solvability_certificate(alg).witness))
    vector = st.lists(small_frac, min_size=dim, max_size=dim)
    return alg, ideal, draw(vector), draw(vector)


@settings(max_examples=80, deadline=None)
@given(algebra_ideal_and_two_vectors())
def test_quotient_projection_is_a_homomorphism(case):
    alg, ideal, x, y = case
    q, proj = quotient(alg, ideal)
    assert q.dim == alg.dim - ideal.dim
    assert all(matvec(proj, r) == (0,) * q.dim for r in ideal.rows)
    assert matvec(proj, alg.bracket(x, y)) == q.bracket(matvec(proj, x), matvec(proj, y))


def test_corpus_e1_structure(e1):
    alg = e1.algebra
    assert validate_algebra(alg).ok
    assert is_solvable(alg) and not is_nilpotent(alg)
    derived = derived_subalgebra(alg)
    # derived part: the three lowered directions
    assert derived == Subspace(
        5, [alg.basis_vector("c"), alg.basis_vector("b"), alg.basis_vector("a")]
    )
    cert = complete_solvability_certificate(alg)
    assert cert.verdict is SolvabilityVerdict.COMPLETELY_SOLVABLE


def test_corpus_x3_is_subalgebra_facts(x3):
    alg = x3.algebra
    f1 = x3.flags["F1"]
    # the dim-3 member of the first chain is not bracket-closed
    assert not is_subalgebra(alg, f1.members[2])
    assert is_subalgebra(alg, f1.members[3])


@pytest.mark.parametrize(
    "x, y",
    [((1, 0), (0, 1, 0)), ((1, 0, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1)), ((1, 0, 0), (0, 1, 0, 1))],
    ids=["short-x", "long-x", "short-y", "long-y"],
)
def test_bracket_refuses_a_vector_of_the_wrong_length(x, y):
    with pytest.raises(ValueError, match="length"):
        heisenberg().bracket(x, y)


@pytest.mark.parametrize("x", [(1, 0), (1, 0, 0, 1)], ids=["short", "long"])
def test_ad_matrix_refuses_a_vector_of_the_wrong_length(x):
    with pytest.raises(ValueError, match="length"):
        heisenberg().ad_matrix(x)


def _entries_on_a_subspace():
    """Each entry that takes a subspace of the algebra's or the form's space,
    as (what the subspace is checked against, a call on (alg, w, s))."""
    from solvdiag.forms import is_isotropic, radical, restrict, symplectic_orthogonal
    from solvdiag.lagrangian import verify_lagrangian

    return {
        "is_subalgebra": ("algebra", lambda alg, w, s: is_subalgebra(alg, s)),
        "is_ideal_in": ("algebra", lambda alg, w, s: is_ideal_in(alg, s, s)),
        "is_nilpotent_subalgebra": ("algebra", lambda alg, w, s: is_nilpotent_subalgebra(alg, s)),
        "ideal_closure": ("algebra", lambda alg, w, s: ideal_closure(alg, s)),
        "subalgebra_as_algebra": ("algebra", lambda alg, w, s: subalgebra_as_algebra(alg, s)),
        "bracket_spans": ("algebra", lambda alg, w, s: alg.bracket_spans(s, s)),
        "derived_span": ("algebra", lambda alg, w, s: alg.derived_span(s)),
        "subalgebra_closure": ("algebra", lambda alg, w, s: subalgebra_closure(alg, [], closed=s)),
        "verify_lagrangian": ("algebra", lambda alg, w, s: verify_lagrangian(alg, w, s)),
        "radical": ("form", lambda alg, w, s: radical(w, s)),
        "restrict": ("form", lambda alg, w, s: restrict(w, s)),
        "symplectic_orthogonal": ("form", lambda alg, w, s: symplectic_orthogonal(w, s)),
        "is_isotropic": ("form", lambda alg, w, s: is_isotropic(w, s)),
    }


@pytest.mark.parametrize("entry", sorted(_entries_on_a_subspace()))
@pytest.mark.parametrize("offset", [-1, 1], ids=["n-1", "n+1"])
def test_a_subspace_of_another_dimension_is_refused(e1, entry, offset):
    # each of these once answered for a subspace of Q^4 or Q^6 on E1 (Q^5):
    # a wrong verdict, a subspace of the wrong space, or an IndexError
    against, call = _entries_on_a_subspace()[entry]
    m = e1.algebra.dim + offset
    says = f"^a subspace of Q\\^{m} for an? {against} on Q\\^5$"
    with pytest.raises(ValueError, match=says):
        call(e1.algebra, e1.two_forms["omega"], Subspace.full(m))
