"""Structure-constant algebras, canonical subspaces, solvability."""

import hashlib
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import (
    LieAlgebra,
    NotAnIdealError,
    SolvabilityVerdict,
    Subspace,
    SubspaceNotNestedError,
    complete_solvability_certificate,
    derived_subalgebra,
    ideal_closure,
    is_ideal_in,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    quotient,
    subalgebra_as_algebra,
    subalgebra_closure,
    validate_algebra,
)
from solvdiag import algebra, linalg
from solvdiag.algebra import is_nilpotent_subalgebra
from solvdiag.generators import (
    change_basis,
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
)
from oracles import (
    fraction_rref,
    is_common_eigenvector,
    oracle_bracket,
    oracle_common_eigenvector,
    oracle_derived_rows,
    oracle_validation,
    rank_test_hyperplane,
    spans_equal,
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
        s = Subspace.span([(1, 0, 1), (0, 1, 0)], 3)
        assert s.contains_vector((2, 3, 2))
        assert not s.contains_vector((1, 0, 0))
        t = Subspace.span([(1, 0, 1)], 3)
        assert s.contains(t)
        assert s.intersect(t) == t

    def test_sum_and_annihilator(self):
        s = Subspace.span([(1, 0, 0)], 3)
        t = Subspace.span([(0, 1, 0)], 3)
        assert s.sum(t).dim == 2
        ann = s.sum(t).annihilator()
        assert ann.rows == ((0, 0, 1),)

    def test_coordinates_roundtrip(self):
        s = Subspace.span([(1, 2, 0), (0, 0, 1)], 3)
        v = (3, 6, -2)
        coords = s.coordinates_of(v)
        assert coords == (3, -2)
        assert s.coordinates_of((0, 1, 0)) is None

    @pytest.mark.parametrize(
        "v", [(1, 0), (1, 0, 0, 0), (1, 0, 0, 7)], ids=["short", "long", "long-tail"]
    )
    @pytest.mark.parametrize("method", ["reduce_vector", "contains_vector", "coordinates_of"])
    def test_a_vector_of_the_wrong_length_is_rejected(self, method, v):
        s = Subspace(3, [[1, 0, 0]])
        with pytest.raises(ValueError, match="length"):
            getattr(s, method)(v)

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(3, [[1, 0, 0], [1, 0]])
        # a zero row of the wrong length is refused too, though rref drops it
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(3, [[0, 0, 0, 0]])

    def test_sort_key_prefers_early_pivots(self):
        a = Subspace.span([(1, 0, 0)], 3)
        b = Subspace.span([(0, 1, 0)], 3)
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
    assert linalg.matvec(alg.ad_matrix(x), y) == alg.bracket(x, y)


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
    assert linalg.matvec(alg.ad_matrix(x), linalg.vec(y)) == expected


@settings(max_examples=80, deadline=None)
@given(perturbed_algebra())
def test_validate_algebra_matches_the_oracle(alg):
    report = validate_algebra(alg)
    assert (report.antisymmetry_failures, report.jacobi_failures) == oracle_validation(alg)


@settings(max_examples=40, deadline=None)
@given(perturbed_algebra())
def test_nonzero_lists_the_nonzero_table_entries(alg):
    assert len(alg.nonzero) == alg.dim
    for row, nz_row in zip(alg.table, alg.nonzero, strict=True):
        for v, nz in zip(row, nz_row, strict=True):
            assert nz == tuple((k, c) for k, c in enumerate(v) if c != 0)
            assert all(type(c) is Fraction for _, c in nz)


def test_nonzero_coerces_int_and_string_constants_once():
    alg = LieAlgebra(("a", "b"), [[[0, 0], ["1/2", 0]], [[Fraction(-1, 2), 0], [0, 0]]])
    assert alg.nonzero == (((), ((0, Fraction(1, 2)),)), (((0, Fraction(-1, 2)),), ()))
    assert alg.nonzero[1][0][0][1] is alg.table[1][0][0]


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
    v = algebra.common_eigenvector(alg, ad, alg.dim)
    assert v is not None  # the spectrum of a generated algebra is rational
    assert is_common_eigenvector(v, ad)


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


@settings(max_examples=40, deadline=None)
@given(rebased_algebra_and_subspace(), st.integers(min_value=0, max_value=10**6))
def test_common_eigenvector_of_a_conjugated_adjoint(case, seed):
    # rep[i] = P ad(e_i) P^-1 is a representation that is not the adjoint
    # one, with dense rows and the same rational spectrum
    alg, _ = case
    n = alg.dim
    p = random_unimodular(Random(seed), n)
    red, _ = fraction_rref([list(row) + list(linalg.unit_vec(n, i)) for i, row in enumerate(p)])
    p_inv = [row[n:] for row in red]
    ad = [alg.ad_matrix(linalg.unit_vec(n, i)) for i in range(n)]
    rep = [tuple(map(tuple, _matmul(_matmul(p, m), p_inv))) for m in ad]
    v = algebra.common_eigenvector(alg, rep, n)
    assert v is not None
    assert is_common_eigenvector(v, rep)


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
    representation, conjugated by a unimodular P or not."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=7))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    alg = make(rng, dim)
    if draw(st.booleans()):
        alg = change_basis(alg, _rational_diagonal(rng, dim))
    if draw(st.booleans()):
        alg = change_basis(alg, random_unimodular(rng, dim))
    rep = [alg.ad_matrix(linalg.unit_vec(dim, i)) for i in range(dim)]
    if draw(st.booleans()):
        p = random_unimodular(rng, dim)
        red, _ = fraction_rref([list(row) + list(linalg.unit_vec(dim, i)) for i, row in enumerate(p)])
        p_inv = [row[dim:] for row in red]
        rep = [tuple(map(tuple, _matmul(_matmul(p, m), p_inv))) for m in rep]
    return alg, rep


@settings(max_examples=80, deadline=None)
@given(acting_algebra_and_rep())
def test_common_eigenvector_matches_the_fraction_descent(case):
    alg, rep = case
    v = algebra.common_eigenvector(alg, rep, alg.dim)
    assert v is not None
    assert v == oracle_common_eigenvector(alg, rep, alg.dim)
    assert all(type(x) is Fraction for x in v)
    assert is_common_eigenvector(v, rep)


@pytest.mark.parametrize("make", [sl2, rot2d])
def test_common_eigenvector_is_none_without_a_rational_descent(make):
    # sl2 is not solvable; rot2d has the spectrum +-i
    alg = make()
    ad = [alg.ad_matrix(linalg.unit_vec(alg.dim, i)) for i in range(alg.dim)]
    assert algebra.common_eigenvector(alg, ad, alg.dim) is None
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
            hyper = algebra._hyperplane_in(sub, containing)
            expected = rank_test_hyperplane(sub.rows, containing.rows)
            assert hyper.dim == sub.dim - 1
            assert spans_equal(hyper.rows, expected, alg.dim)
        sub = algebra._hyperplane_in(sub, derived)


class TestClosures:
    def test_subalgebra_closure_grows_to_bracket(self):
        h = heisenberg()
        c = subalgebra_closure(h, [(1, 0, 0), (0, 1, 0)])
        assert c.dim == 3

    def test_ideal_closure(self):
        a = LieAlgebra.from_brackets(
            ("x", "y", "t"), {("t", "x"): {"x": 1}, ("t", "y"): {"y": -1}}
        )
        only_x = Subspace.span([(1, 0, 0)], 3)
        assert ideal_closure(a, only_x) == only_x  # already an ideal
        t_line = Subspace.span([(0, 0, 1)], 3)
        assert ideal_closure(a, t_line).dim == 3

    def test_is_ideal_requires_nesting(self):
        h = heisenberg()
        s = Subspace.span([(1, 0, 0)], 3)
        t = Subspace.span([(0, 1, 0)], 3)
        with pytest.raises(SubspaceNotNestedError):
            is_ideal_in(h, s, t)


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
        assert cert.witness == (Subspace.span([(0, 1)], 2), Subspace.full(2))
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


def test_certificate_checks_each_member_is_an_ideal(monkeypatch):
    # a descent that returned a non-eigenvector would make a non-ideal
    # member; the certificate must refuse rather than report it
    monkeypatch.setattr(
        algebra, "common_eigenvector", lambda alg, rep, dim: linalg.unit_vec(dim, 0)
    )
    with pytest.raises(NotAnIdealError):
        complete_solvability_certificate(heisenberg())  # [q, p] = -z


class TestQuotient:
    def test_quotient_by_center(self):
        h = heisenberg()
        z = Subspace.span([(0, 0, 1)], 3)
        q, proj = quotient(h, z)
        assert q.dim == 2
        assert q.names == ("p", "q")
        # the quotient of the Heisenberg algebra by its center is abelian
        assert derived_subalgebra(q).is_zero()
        assert len(proj) == 2 and len(proj[0]) == 3

    def test_quotient_requires_ideal(self):
        h = heisenberg()
        p_line = Subspace.span([(1, 0, 0)], 3)
        with pytest.raises(NotAnIdealError):
            quotient(h, p_line)

    def test_subalgebra_as_algebra_preserves_brackets(self):
        h = heisenberg()
        s = Subspace.span([(1, 0, 0), (0, 0, 1)], 3)
        sub, rows = subalgebra_as_algebra(h, s)
        assert sub.dim == 2
        assert derived_subalgebra(sub).is_zero()
        assert rows == s.rows

    def test_is_nilpotent_subalgebra(self):
        a = LieAlgebra.from_brackets(
            ("x", "y", "t"), {("t", "x"): {"x": 1}, ("t", "y"): {"y": -1}}
        )
        assert is_nilpotent_subalgebra(a, Subspace.span([(1, 0, 0), (0, 1, 0)], 3))
        assert not is_nilpotent_subalgebra(a, Subspace.full(3))


def test_corpus_e1_structure(e1):
    alg = e1.algebra
    assert validate_algebra(alg).ok
    assert is_solvable(alg) and not is_nilpotent(alg)
    derived = derived_subalgebra(alg)
    # derived part: the three lowered directions
    assert derived == Subspace.span(
        [alg.basis_vector("c"), alg.basis_vector("b"), alg.basis_vector("a")], 5
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
