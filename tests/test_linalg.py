"""Exact linear algebra over Fractions."""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import Subspace, linalg
from oracles import (
    bareiss_rank,
    faddeev_leverrier_charpoly,
    fraction_rref,
    matvec,
    oracle_nullspace,
    spans_equal,
    trial_division_rational_roots,
)

def fmat(rows):
    """The matrix with each entry as a Fraction."""
    return [[Fraction(x) for x in row] for row in rows]


small_frac = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def matrices(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_frac, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def square_matrices(max_n=3):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_frac, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def test_frac_accepts_ints_and_strings():
    assert linalg.frac(3) == Fraction(3)
    assert linalg.frac("2/4") == Fraction(1, 2)
    assert linalg.frac(Fraction(-7, 3)) == Fraction(-7, 3)
    assert [linalg.frac(s) for s in ("+3", "-0/5", "006/4")] == [3, 0, Fraction(3, 2)]


@pytest.mark.parametrize(
    "spelling",
    ["1.5", " 3 ", "1e2", "\u0663", "3\n", "1_000", "", "1/2/3", "0x10"],
    ids=[
        "decimal",
        "spaces",
        "exponent",
        "arabic-indic-digit",
        "newline",
        "underscore",
        "empty",
        "two-slashes",
        "hex",
    ],
)
def test_a_string_outside_the_rational_format_is_refused(spelling):
    # the library reads a string by the rule the document reader applies:
    # ASCII digits, an optional sign, an optional '/' and ASCII digits
    from solvdiag import LieAlgebra, TwoForm

    says = "not an integer or 'p/q'"
    with pytest.raises(ValueError, match=says):
        linalg.frac(spelling)
    with pytest.raises(ValueError, match=says):
        LieAlgebra.from_brackets(("a", "b"), {("a", "b"): {"b": spelling}})
    with pytest.raises(ValueError, match=says):
        TwoForm.from_pairs(2, [(0, 1, spelling)])


OVERLONG = "1" * (sys.get_int_max_str_digits() + 1)  # one digit past int()'s limit


@pytest.mark.parametrize(
    "spelling, says",
    [
        ("1/0", "'1/0' has a zero denominator"),
        ("-0/0", "'-0/0' has a zero denominator"),
        (OVERLONG, repr(OVERLONG)[: linalg._QUOTE_CHARS] + "... has too many digits"),
    ],
    ids=["zero-denominator", "zero-over-zero", "too-many-digits"],
)
@pytest.mark.parametrize(
    "entry",
    ["frac", "scaled_ints", "from_brackets", "from_pairs", "Subspace", "change_basis"],
)
def test_a_string_that_names_no_rational_is_a_quoted_value_error(entry, spelling, says):
    # every entry reads a string by `linalg._ratio`: a ValueError that quotes
    # the string, never a ZeroDivisionError or the interpreter's own advice
    from solvdiag import LieAlgebra, TwoForm
    from solvdiag.algebra import change_basis

    names = ("a", "b")
    alg = LieAlgebra.from_brackets(names, {("a", "b"): {"b": 1}})
    call = {
        "frac": lambda: linalg.frac(spelling),
        "scaled_ints": lambda: linalg.scaled_ints([1, spelling]),
        "from_brackets": lambda: LieAlgebra.from_brackets(names, {("a", "b"): {"b": spelling}}),
        "from_pairs": lambda: TwoForm.from_pairs(2, [(0, 1, spelling)]),
        "Subspace": lambda: Subspace(2, [[spelling, 1]]),
        "change_basis": lambda: change_basis(alg, [[1, 0], [spelling, 1]]),
    }[entry]
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == says
    assert sys.get_int_max_str_digits() == limit


def test_rref_known_matrix():
    m = [[2, 4, 0], [1, 2, 1]]
    reduced, pivots = linalg.rref(m)
    assert pivots == (0, 2)
    assert reduced[0] == (1, 2, 0)
    assert reduced[1] == (0, 0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rref([[1, 2, 3], [1, 2]]),
        lambda: linalg.rref([[0, 0, 0], ["1/2", 0], [Fraction(1, 3), 0, 1]]),
        lambda: linalg.nullspace([[1, 2, 3], [1, 2]]),
        lambda: linalg.nullspace([[1, 2], [1, 2, 3]], 3),
        lambda: linalg.solve([[1, 2, 3], [1, 2]], (1, 1)),
    ],
    ids=["rref", "rref-after-a-zero-row", "nullspace", "nullspace-short-first", "solve"],
)
def test_ragged_rows_are_a_value_error(call):
    with pytest.raises(ValueError, match="unequal length"):
        call()


def test_nullspace_rejects_a_wrong_ncols():
    with pytest.raises(ValueError, match="ncols"):
        linalg.nullspace([[1, 2]], 3)
    assert linalg.nullspace([[1, 2]], 2) == [(-2, 1)]


def test_int_nullspace_and_int_solve_refuse_a_wrong_shape():
    with pytest.raises(ValueError) as err:
        linalg.int_nullspace([])
    assert str(err.value) == "nullspace of empty matrix needs ncols"
    with pytest.raises(ValueError) as err:
        linalg.int_solve([[1, 2]], [[1]])
    assert str(err.value) == "int_solve needs a square matrix"


def test_solve_with_no_equations():
    # no rows: x = () solves 0 = b exactly when b is zero
    assert linalg.solve([], []) == ()
    assert linalg.solve([], [1]) is None


def test_primitive_at():
    # a row in the form of echelon's rows is returned as the object given
    row = [0, 3, -6]
    assert linalg.primitive_at(row, 1) == [0, 1, -2]
    assert linalg.primitive_at([0, -3, 6], 1) == [0, 1, -2]
    assert linalg.primitive_at([0, -1, 2], 2) == [0, -1, 2]
    kept = (0, 2, -3)
    assert linalg.primitive_at(kept, 1) is kept
    assert linalg.primitive_at([4, -2], 1) == [-2, 1]


def test_solve_unique():
    a = [[1, 2], [3, 5]]
    x = linalg.solve(a, (5, 13))
    assert x == (Fraction(1), Fraction(2))


def test_solve_inconsistent_is_none():
    a = [[1, 1], [2, 2]]
    assert linalg.solve(a, (1, 3)) is None


def test_charpoly_companion():
    # x^2 - 5x + 6 has roots 2 and 3
    m = [[0, -6], [1, 5]]
    cp = linalg.charpoly(fmat(m))
    roots = linalg.rational_roots(cp)
    assert sorted(roots) == [2, 3]


def test_rational_roots_with_fractional_root():
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    roots = linalg.rational_roots([Fraction(-3), Fraction(5), Fraction(2)])
    assert sorted(roots) == [Fraction(-3), Fraction(1, 2)]


def test_rational_eigenvalues_triangular():
    m = fmat([[2, 1, 0], [0, 2, 5], [0, 0, -1]])
    assert sorted(linalg.rational_eigenvalues(m)) == [-1, 2]


BIG = 2**60 + 33


@st.composite
def rational_entries(draw):
    """An exact rational given as an int, a Fraction or a 'p/q' string;
    small, or with numerator and denominator near BIG."""
    x = draw(
        st.one_of(
            st.just(Fraction(0)),
            st.integers(min_value=-6, max_value=6).map(Fraction),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            st.builds(
                lambda sign, a, b, den: Fraction(sign * (BIG + a), BIG + b if den else 1),
                st.sampled_from((1, -1)),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
            ),
        )
    )
    form = draw(st.sampled_from(("int", "fraction", "string")))
    if form == "string":
        return f"{x.numerator}/{x.denominator}"
    if form == "int" and x.denominator == 1:
        return x.numerator
    return x


@st.composite
def echelon_inputs(draw, min_rows=0):
    """0-8 columns, with zero, duplicate, negated and dependent rows mixed in."""
    ncols = draw(st.integers(min_value=0, max_value=8))
    row = st.lists(rational_entries(), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=min_rows, max_size=5))
    for kind in draw(st.lists(st.sampled_from(("zero", "dup", "neg", "sum")), max_size=3)):
        if kind == "zero":
            rows.append([0] * ncols)
        elif rows:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            if kind == "dup":
                rows.append(list(a))
            elif kind == "neg":
                rows.append([-Fraction(x) for x in a])
            else:
                rows.append([Fraction(x) + Fraction(y) for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(echelon_inputs())
def test_rref_matches_the_fraction_oracle(rows):
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == fraction_rref(rows)
    assert all(type(x) is Fraction for row in red for x in row)


def test_rref_of_nothing():
    assert linalg.rref([]) == ((), ())
    assert linalg.rref([[], []]) == ((), ())
    assert linalg.rref([[0, 0], [0, 0]]) == ((), ())


@settings(max_examples=100, deadline=None)
@given(echelon_inputs())
def test_nullspace_and_subspace_match_the_fraction_oracle(rows):
    ncols = len(rows[0]) if rows else 3
    assert linalg.nullspace(rows, ncols) == oracle_nullspace(rows, ncols)
    sub = Subspace(ncols, rows)
    assert (sub.rows, sub.pivots) == fraction_rref(rows)


@settings(max_examples=80, deadline=None)
@given(echelon_inputs(min_rows=1), st.data())
def test_solve_matches_the_fraction_oracle(rows, data):
    n = len(rows[0])
    if data.draw(st.booleans(), label="consistent"):
        x = data.draw(st.lists(rational_entries(), min_size=n, max_size=n))
        b = matvec(fmat(rows), linalg.vec(x))
    else:
        b = data.draw(st.lists(rational_entries(), min_size=len(rows), max_size=len(rows)))
    red, pivots = fraction_rref([list(row) + [bi] for row, bi in zip(rows, b)])
    if n in pivots:
        expected = None
    else:
        expected = [Fraction(0)] * n
        for r, p in enumerate(pivots):
            expected[p] = red[r][n]
        expected = tuple(expected)
    assert linalg.solve(rows, b) == expected


@pytest.mark.parametrize("bad", [0.5, None, 1j, b"1/2"], ids=["float", "none", "complex", "bytes"])
def test_rref_rejects_a_non_rational_entry(bad):
    with pytest.raises(TypeError, match="not an exact rational"):
        linalg.rref([[1, 2], [Fraction(1, 3), bad]])
    with pytest.raises(TypeError, match="not an exact rational"):
        Subspace(2, [[bad, 1]])
    with pytest.raises(TypeError, match="not an exact rational"):
        linalg.nullspace([[1, 2], [Fraction(1, 3), bad]])
    with pytest.raises(TypeError, match="not an exact rational"):
        linalg.solve([[1, 2], [Fraction(1, 3), bad]], [1, 2])
    with pytest.raises(TypeError, match="not an exact rational"):
        linalg.solve([[1, 2], [Fraction(1, 3), 1]], [1, bad])


def assert_echelon_matches_the_oracle(rows):
    """echelon's rows are ints, primitive, positive at their pivots, and
    each is its reduced echelon row from `fraction_rref` times that row's lcm."""
    ech, pivots = linalg.echelon(rows)
    red, expected_pivots = fraction_rref(rows)
    assert tuple(pivots) == expected_pivots and len(ech) == len(red)
    for row, c, reduced in zip(ech, pivots, red):
        assert all(type(x) is int for x in row)
        assert row[c] > 0 and math.gcd(*row) == 1
        assert tuple(Fraction(x, row[c]) for x in row) == reduced


KERNEL_CASES = {
    # one nonzero row: returned at once, divided by its content, pivot made positive
    "one-row-negative-content-2": [[0, -6, 4, 0]],
    "one-row-among-zero-rows": [[0, 0, 0], [0, -9, 3], [0, 0, 0]],
    "one-row-primitive": [(0, 3, -2)],
    "one-row-fraction": [[Fraction(-4, 3), "2/3", 0]],
    # unit pivots: no gcd or multiply on the multiplier side
    "unit-pivot": [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
    "unit-multiplier": [[6, 4, 2], [1, 5, 7]],
    "pivot-divides-entry": [[2, 1, 0], [6, 0, 5]],
    "swap-needed": [[0, 0, 5], [0, 3, 1], [2, 1, 1]],
    "dependent": [[2, 4, 6], [-1, -2, -3], [3, 6, 9]],
    # int rows mixed with other exact rows, in both orders
    "int-then-fraction": [[2, 0, 4], [Fraction(1, 2), Fraction(1, 3), 0]],
    "fraction-then-int": [[Fraction(1, 2), Fraction(1, 3), 0], [2, 0, 4]],
    "int-then-string": [[3, -6, 9], ["1/2", "-3/4", "0"]],
    "string-then-int": [["1/2", "-3/4", "0"], [3, -6, 9]],
    "int-then-bool": [[2, 4, 0], [True, False, True]],
    "bool-then-int": [[True, False, True], [2, 4, 0]],
    "bool-alone": [[False, True, True]],
    "mixed-within-a-row": [[1, Fraction(1, 2), "1/3"], [0, True, 2]],
}


@pytest.mark.parametrize("rows", list(KERNEL_CASES.values()), ids=list(KERNEL_CASES))
def test_echelon_fast_paths_match_the_fraction_oracle(rows):
    assert_echelon_matches_the_oracle(rows)


def test_echelon_of_one_row_and_of_nothing():
    assert linalg.echelon([[0, -6, 4, 0]]) == ([[0, 3, -2, 0]], [1])
    assert linalg.echelon([[0, 0], [0, 0]]) == ([], [])
    assert linalg.echelon([]) == ([], [])
    assert linalg.echelon([[], []]) == ([], [])
    ech, pivots = linalg.echelon([(0, 3, -2)])  # already final: a row of ints as it is
    assert [list(r) for r in ech] == [[0, 3, -2]] and pivots == [1]


def test_echelon_takes_a_generator_of_rows():
    rows = [[2, 4, 6], [0, Fraction(1, 2), 1], [1, 1, 1]]
    assert linalg.echelon(r for r in rows) == linalg.echelon(rows)
    assert Subspace(3, (r for r in rows)) == Subspace(3, rows)
    assert Subspace(3, iter([])) == Subspace.zero(3)


@pytest.mark.parametrize(
    "rows",
    [[[1, 2], [1, 2, 3]], [[1, 2, 3], [1, 2]], [[0, 0], [1, 2, 3]], [["1/2", 1], [1, 2, 3]]],
    ids=["long-second", "short-second", "after-a-zero-row", "after-a-string-row"],
)
def test_echelon_unequal_rows_are_a_value_error(rows):
    with pytest.raises(ValueError, match="^rows of unequal length$"):
        linalg.echelon(rows)


@pytest.mark.parametrize(
    "rows",
    [[[0.5, 1]], [[1, 2], [3, 0.0]], [[1.0, 2], [1, 2]], [[Fraction(1, 2), 2.5]]],
    ids=["float-alone", "float-zero-after-ints", "float-first", "float-after-a-fraction"],
)
def test_echelon_a_float_is_a_type_error(rows):
    with pytest.raises(TypeError, match="not an exact rational"):
        linalg.echelon(rows)


def test_subspace_keeps_its_own_length_message():
    good = [(1, 0, 0), (0, 1, 0)]
    for bad in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="row length does not match ambient dimension"):
            Subspace(3, good + [bad])
        with pytest.raises(ValueError, match="row length does not match ambient dimension"):
            Subspace(3, [(0, 0, 0)] + [bad])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_rank_matches_bareiss(rows):
    _, pivots = linalg.rref(rows)
    assert len(pivots) == bareiss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_annihilates_and_has_right_dim(rows):
    ncols = len(rows[0])
    null = linalg.nullspace(rows, ncols)
    for v in null:
        assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in rows)
    assert len(null) == ncols - len(linalg.rref(rows)[1])
    # the reference elimination produces the same span
    ref = oracle_nullspace(rows, ncols)
    assert spans_equal(null, ref, ncols)


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_solve_recovers_products(rows):
    n = len(rows[0])
    x = tuple(Fraction(i + 1) for i in range(n))
    b = matvec(fmat(rows), x)
    sol = linalg.solve(rows, b)
    assert sol is not None
    assert matvec(fmat(rows), sol) == b


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_charpoly_is_monic_of_degree_n(rows):
    cp = linalg.charpoly(fmat(rows))
    assert len(cp) == len(rows) + 1
    assert cp[-1] == 1
    for lam in linalg.rational_eigenvalues(fmat(rows)):
        assert linalg.poly_eval(cp, lam) == 0


sparse_frac = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_frac)


def sparse_square_matrices(max_n=8):
    """Mostly-zero matrices: zero subdiagonal entries and pivot swaps are common."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(sparse_frac, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@settings(max_examples=100, deadline=None)
@given(sparse_square_matrices())
def test_charpoly_matches_faddeev_leverrier(rows):
    assert linalg.charpoly(fmat(rows)) == faddeev_leverrier_charpoly(rows)


@settings(max_examples=40, deadline=None)
@given(sparse_square_matrices())
def test_charpoly_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    smat = sympy.Matrix(
        len(rows), len(rows), [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    )
    expected = [Fraction(int(c.p), int(c.q)) for c in reversed(smat.charpoly(t).all_coeffs())]
    assert linalg.charpoly(fmat(rows)) == expected


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# quadratics c0 + c1 t + c2 t^2 with no rational root
IRREDUCIBLE_QUADRATICS = ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (-3, 0, 2), (3, -1, 5))


@st.composite
def polys_with_known_roots(draw):
    """Scaled products of (t - r) over small rational roots r (repeats and
    0 allowed), times t^k and an optional irreducible quadratic; degree <= 8.
    """
    quad = draw(st.none() | st.sampled_from(IRREDUCIBLE_QUADRATICS))
    zeros = draw(st.integers(min_value=0, max_value=2))
    room = 8 - zeros - (2 if quad else 0)
    roots = draw(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=room)
    )
    scale = draw(
        st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)
    )
    poly = [scale]
    for r in roots:
        poly = poly_mul(poly, [-r, Fraction(1)])
    if quad:
        poly = poly_mul(poly, [Fraction(c) for c in quad])
    poly = [Fraction(0)] * zeros + poly
    return poly, sorted(set(roots) | ({Fraction(0)} if zeros else set()))


@settings(max_examples=100, deadline=None)
@given(polys_with_known_roots())
def test_rational_roots_match_trial_division(case):
    poly, roots = case
    assert linalg.rational_roots(poly) == roots
    assert trial_division_rational_roots(poly) == roots


@settings(max_examples=60, deadline=None)
@given(polys_with_known_roots())
def test_rational_roots_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    poly, _ = case
    t = sympy.Symbol("t")
    spoly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)],
        t,
        domain=sympy.QQ,
    )
    expected = sorted(Fraction(int(r.p), int(r.q)) for r in spoly.ground_roots())
    assert linalg.rational_roots(poly) == expected


def test_rational_roots_of_zero_and_constants():
    assert linalg.rational_roots([]) == []
    assert linalg.rational_roots([Fraction(0), Fraction(0)]) == []
    assert linalg.rational_roots([Fraction(7)]) == []
    assert linalg.rational_roots([Fraction(0), Fraction(0), Fraction(3)]) == [0]


BIG = 10**30 + 57


@pytest.mark.parametrize(
    "coeffs, roots",
    [
        ([-BIG, 1], [BIG]),
        ([0, -BIG, 1], [0, BIG]),
        ([BIG * BIG, -2 * BIG, 1], [BIG]),
        (
            poly_mul([Fraction(-3), Fraction(2)], [Fraction(BIG), Fraction(1)]),
            [-BIG, Fraction(3, 2)],
        ),
    ],
    ids=["t-N", "t^2-Nt", "(t-N)^2", "(2t-3)(t+N)"],
)
def test_rational_roots_large_coefficients(coeffs, roots):
    t0 = time.perf_counter()
    found = linalg.rational_roots([Fraction(c) for c in coeffs])
    elapsed = time.perf_counter() - t0
    assert found == roots
    assert elapsed < 1.0
