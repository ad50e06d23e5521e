"""The integer representation against Fraction references.

A Subspace stores primitive integer echelon rows, a LieAlgebra integer
constants over one denominator, a TwoForm an integer matrix over one
denominator; brackets, closures, radicals and the differential run on
those.  Each is held here to an oracle in tests/oracles.py that computes
over Fraction, on algebras whose constants are not integers.
"""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import (
    ConnectionTable,
    Covector,
    LieAlgebra,
    Subspace,
    SubspaceNotNestedError,
    TwoForm,
    ce_differential,
    ce_differential_covector,
    complete_solvability_certificate,
    d_zero,
    derived_subalgebra,
    find_lagrangians,
    ideal_closure,
    is_isotropic,
    is_nilpotent,
    is_subalgebra,
    radical,
    random_closed_form,
    restrict,
    subalgebra_as_algebra,
    subalgebra_closure,
)
from solvdiag.algebra import change_basis, is_nilpotent_subalgebra
from solvdiag import generators, linalg
from solvdiag.primitivity import _cocycle_witness
from solvdiag.generators import (
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
)
from oracles import (
    _unit,
    above_2_64_basis,
    bareiss_rank,
    coordinates_of,
    fraction_rref,
    lincomb,
    matvec,
    oracle_bracket,
    oracle_d_two_form,
    oracle_find_lagrangians,
    oracle_ideal_closure,
    oracle_nullspace,
    oracle_radical_rows,
    oracle_subalgebra_as_algebra,
    oracle_subalgebra_closure,
    rebased_form_entries,
    reduce_vector,
    spans_equal,
)

small_frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_frac = small_frac.filter(bool)


@st.composite
def fractional_algebra(draw):
    """A generated algebra of dimension 1-6 on a basis of unimodular rows
    scaled by small nonzero fractions, so its constants are fractions."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=6))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    scales = draw(st.lists(nonzero_frac, min_size=dim, max_size=dim))
    m = [[c * x for x in row] for c, row in zip(scales, random_unimodular(rng, dim))]
    return change_basis(make(rng, dim), m)


def vectors(dim, max_size=None):
    return st.lists(
        st.lists(small_frac, min_size=dim, max_size=dim), max_size=dim if max_size is None else max_size
    )


def dense_rows(dim):
    """One to dim rows with no zero entry, so that pivots other than 1 are common."""
    return st.lists(st.lists(nonzero_frac, min_size=dim, max_size=dim), min_size=1, max_size=dim)


@st.composite
def algebra_form_and_rows(draw):
    """A fractional algebra, a skew form with fractional entries, some rows."""
    alg = draw(fractional_algebra())
    n = alg.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    upper = draw(st.lists(small_frac, min_size=len(pairs), max_size=len(pairs)))
    form = TwoForm.from_pairs(n, [(i, j, c) for (i, j), c in zip(pairs, upper)])
    return alg, form, draw(vectors(n))


def _spellings(rows):
    """The same rows as ints (each scaled by the lcm of its denominators),
    as Fractions and as 'p/q' strings."""
    ints = [[x * math.lcm(*(y.denominator for y in r)) for x in r] for r in rows]
    ints = [[int(x) for x in r] for r in ints]
    strings = [[f"{x.numerator}/{x.denominator}" for x in r] for r in rows]
    return ints, rows, strings


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(st.just(n), vectors(n, 6))))
def test_subspace_is_one_object_whatever_the_spelling(case):
    n, rows = case
    spaces = [Subspace(n, r) for r in _spellings(rows)]
    assert spaces[0] == spaces[1] == spaces[2]
    assert len({hash(s) for s in spaces}) == 1
    ref_rows, ref_pivots = fraction_rref(rows) if rows else ((), ())
    for s in spaces:
        assert s.rows == ref_rows
        assert s.pivots == ref_pivots
        for r, p, red in zip(s.int_rows, s.pivots, s.rows):
            assert all(type(x) is int for x in r)
            assert r[p] > 0 and math.gcd(*r) == 1
            assert tuple(Fraction(x, r[p]) for x in r) == red


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_contains_vector_agrees_with_a_rank_test(n, data):
    rows = data.draw(vectors(n))
    v = data.draw(st.lists(small_frac, min_size=n, max_size=n))
    s = Subspace(len(v), rows)
    inside = bareiss_rank(list(rows) + [v]) == bareiss_rank(rows) if rows else not any(v)
    assert s.contains_vector(v) == inside
    assert s.contains_vector([f"{x.numerator}/{x.denominator}" for x in v]) == inside
    assert (not any(reduce_vector(s, v))) == inside
    assert s.contains(Subspace(len(v), [v])) == inside


@settings(max_examples=60, deadline=None)
@given(algebra_form_and_rows())
def test_radical_and_restrict_match_the_oracle(case):
    _, form, rows = case
    n = form.dim
    s = Subspace(n, rows)
    assert spans_equal(radical(form, s).rows, oracle_radical_rows(form, s.rows, n), n)
    r = restrict(form, s)
    e = form.entries
    for i, x in enumerate(s.rows):
        for j, y in enumerate(s.rows):
            want = sum((x[a] * y[b] * e[a][b] for a in range(n) for b in range(n)), Fraction(0))
            assert r.entries[i][j] == want
    assert is_isotropic(form, s) == all(x == 0 for row in r.entries for x in row)


@settings(max_examples=60, deadline=None)
@given(algebra_form_and_rows())
def test_bracket_ad_matrix_and_differential_match_the_oracle(case):
    alg, form, rows = case
    for x in rows:
        for y in rows:
            expected = oracle_bracket(alg, x, y)
            assert alg.bracket(x, y) == expected
            assert matvec(alg.ad_matrix(x), linalg.vec(y)) == expected
    ref = oracle_d_two_form(alg, form)
    assert ce_differential(alg, form).entries == {t: v for t, v in ref.items() if v != 0}
    units = [linalg.unit_vec(alg.dim, i) for i in range(alg.dim)]
    for phi in rows:
        dphi = ce_differential_covector(alg, Covector(linalg.vec(phi)))
        for i, x in enumerate(units):
            for j, y in enumerate(units):
                want = -sum((c * b for c, b in zip(phi, oracle_bracket(alg, x, y))), Fraction(0))
                assert dphi.entries[i][j] == want


@settings(max_examples=60, deadline=None)
@given(algebra_form_and_rows())
def test_stored_numbers_are_in_lowest_terms(case):
    alg, form, _ = case
    consts = [c for row in alg.consts for cs in row for _, c in cs]
    assert alg.denom > 0 and math.gcd(alg.denom, *consts) == 1
    for i, row in enumerate(alg.consts):
        for j, cs in enumerate(row):
            assert alg.table[i][j] == tuple(
                Fraction(dict(cs).get(k, 0), alg.denom) for k in range(alg.dim)
            )
    assert form.denom > 0 and math.gcd(form.denom, *(x for r in form.numer for x in r)) == 1
    assert TwoForm(form.entries) == form
    assert hash(TwoForm([[str(x) for x in r] for r in form.entries])) == hash(form)
    assert form.scaled(Fraction(1, 3)).plus(form.scaled(Fraction(2, 3))) == form


@settings(max_examples=60, deadline=None)
@given(fractional_algebra(), st.data())
def test_closures_match_the_from_scratch_closure(alg, data):
    n = alg.dim
    rows = data.draw(vectors(n, 3))
    closed = subalgebra_closure(alg, rows)
    assert closed.rows == oracle_subalgebra_closure(alg, rows)
    # a closed part plus new vectors: only the new directions are bracketed
    more = data.draw(vectors(n, 2))
    grown = subalgebra_closure(alg, more, closed=closed)
    assert grown.rows == oracle_subalgebra_closure(alg, list(closed.rows) + more)
    assert grown == subalgebra_closure(alg, rows + more)
    assert ideal_closure(alg, Subspace(n, rows)).rows == oracle_ideal_closure(alg, rows)


@settings(max_examples=60, deadline=None)
@given(fractional_algebra(), st.data())
def test_coordinates_and_lift_are_inverse(alg, data):
    n = alg.dim
    rows = data.draw(dense_rows(n))
    s = data.draw(st.sampled_from([Subspace(n, rows), subalgebra_closure(alg, rows)]))
    coeffs = data.draw(st.lists(st.lists(nonzero_frac, min_size=s.dim, max_size=s.dim), max_size=3))
    t = Subspace(n, [lincomb(c, s.rows) for c in coeffs])
    u = s.coordinates(t)
    assert u.ambient_dim == s.dim
    assert u == Subspace(s.dim, [coordinates_of(s, r) for r in t.rows])
    assert s.lift(u) == t
    # the lift of a reduced echelon basis is the reduced echelon basis of the lift
    assert s.lift(u).rows == tuple(lincomb(r, s.rows) for r in u.rows)


@settings(max_examples=60, deadline=None)
@given(fractional_algebra(), st.data())
def test_coordinates_refuse_an_outside_subspace_and_lift_a_wrong_dimension(alg, data):
    n = alg.dim
    rows = data.draw(dense_rows(n))
    s = data.draw(st.sampled_from([Subspace(n, rows), subalgebra_closure(alg, rows)]))
    t = Subspace(n, data.draw(dense_rows(n)))
    if s.contains(t):
        assert s.lift(s.coordinates(t)) == t
    else:
        with pytest.raises(SubspaceNotNestedError):
            s.coordinates(t)
    with pytest.raises(ValueError):
        s.lift(Subspace.zero(s.dim + 1))


@settings(max_examples=60, deadline=None)
@given(fractional_algebra(), st.data())
def test_is_nilpotent_subalgebra_matches_the_standalone_algebra(alg, data):
    n = alg.dim
    closed = [subalgebra_closure(alg, data.draw(vectors(n, 3))), Subspace.full(n)]
    for s in closed + [ideal_closure(alg, Subspace(n, [r])) for r in Subspace.full(n).rows]:
        if s.is_zero():  # a LieAlgebra needs a basis
            assert is_nilpotent_subalgebra(alg, s)
        else:
            assert is_nilpotent_subalgebra(alg, s) == is_nilpotent(subalgebra_as_algebra(alg, s))
    units = Subspace.full(n).rows
    for i in range(n):
        for j in range(i + 1, n):
            plane = Subspace(n, [units[i], units[j]])
            if not is_subalgebra(alg, plane):
                assert not is_nilpotent_subalgebra(alg, plane)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10**6), st.data())
def test_subalgebra_as_algebra_matches_the_fraction_construction(dim, seed, data):
    rng = Random(seed)
    make = data.draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    scales = data.draw(st.lists(nonzero_frac, min_size=dim, max_size=dim))
    m = [[c * x for x in row] for c, row in zip(scales, random_unimodular(rng, dim))]
    alg = change_basis(make(rng, dim), m)
    closures = [subalgebra_closure(alg, data.draw(vectors(dim, 3))) for _ in range(2)]
    for s in closures + [Subspace.zero(dim), Subspace.full(dim)]:
        sub, ref = subalgebra_as_algebra(alg, s), oracle_subalgebra_as_algebra(alg, s)
        assert (sub.consts, sub.denom, sub.names) == (ref.consts, ref.denom, ref.names)
        assert sub.denom > 0
        assert math.gcd(sub.denom, *(c for row in sub.consts for cs in row for _, c in cs)) == 1


def _heisenberg():
    return LieAlgebra.from_brackets(("p", "q", "z"), {("p", "q"): {"z": "1/2"}})


FLOAT_ENTRIES = {
    "Subspace": lambda h, w: Subspace(3, [(0.5, 0, 0)]),
    "contains_vector": lambda h, w: Subspace.full(3).contains_vector((0, 0.5, 0)),
    "LieAlgebra": lambda h, w: LieAlgebra(("a",), [[[0.0]]]),
    "bracket": lambda h, w: h.bracket((1, 0, 0), (0, 0.5, 0)),
    "ad_matrix": lambda h, w: h.ad_matrix((0.0, 0, 0)),
    "subalgebra_closure": lambda h, w: subalgebra_closure(h, [(0.5, 0, 0)]),
    "TwoForm": lambda h, w: TwoForm([[0, 0.5], [-0.5, 0]]),
    "TwoForm.from_pairs": lambda h, w: TwoForm.from_pairs(3, [(0, 1, 0.5)]),
    "pairing_with": lambda h, w: w.pairing_with((0.5, 0, 0)),
    "apply": lambda h, w: w.apply((1, 0, 0), (0, 0.5, 0)),
    "scaled": lambda h, w: w.scaled(0.5),
    "Covector": lambda h, w: Covector.from_entries((0.5, 0, 0)),
    "rref": lambda h, w: linalg.rref([(1, 0.5)]),
    "echelon": lambda h, w: linalg.echelon([(1, 0.5)]),
    "nullspace": lambda h, w: linalg.nullspace([(1, 0.5)]),
    "solve": lambda h, w: linalg.solve([(1, 0)], (0.5,)),
    "rank": lambda h, w: linalg.rank([(0.0, 1)]),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
def test_a_float_is_a_type_error_at_every_public_entry(entry):
    h = _heisenberg()
    w = TwoForm.from_pairs(3, [(0, 1, "1/2")])
    with pytest.raises(TypeError, match="not an exact rational"):
        FLOAT_ENTRIES[entry](h, w)


# -- the shared table of LieAlgebra and ConnectionTable ----------------------


def _connection_values():
    """A 2 x 2 table of vectors of Q^2, as ints and as the same values in Fraction."""
    return [[(0, 1), (2, 0)], [(0, 0), (-3, 1)]], [
        [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))],
        [(Fraction(0), Fraction(0)), (Fraction(-3), Fraction(1))],
    ]


def test_a_connection_table_from_ints_equals_one_from_fractions():
    ints, fracs = _connection_values()
    a, b = ConnectionTable(ints), ConnectionTable(fracs)
    assert a == b and hash(a) == hash(b)
    assert a.entries == b.entries == tuple(tuple(map(tuple, row)) for row in fracs)
    halves = ConnectionTable([[[Fraction(x, 2) for x in v] for v in row] for row in ints])
    assert halves != a and halves.denom == 2
    assert halves.apply((2, 0), (0, 1)) == a.apply((1, 0), (0, 1)) == (2, 0)


def test_a_float_is_a_type_error_in_a_connection_table():
    ints, _ = _connection_values()
    with pytest.raises(TypeError, match="not an exact rational"):
        ConnectionTable([[(0, 1.0), (2, 0)], [(0, 0), (-3, 1)]])
    with pytest.raises(TypeError, match="not an exact rational"):
        ConnectionTable(ints).apply((1, 0), (0.5, 0))


@pytest.mark.parametrize("rows", [1, 3])
def test_a_bracket_table_of_another_size_than_the_names_is_refused(rows):
    # rows of two zero vectors of Q^2 for two names: one row short, or one extra
    table = [[[0, 0], [0, 0]] for _ in range(rows)]
    with pytest.raises(ValueError):
        LieAlgebra(("a", "b"), table)


# Dense integer dot products are written sum(map(mul, a, b)).  Each site is
# held here to a Fraction computation on entries above 2^64, so that the
# products run on big integers; the descent's sites are held to the Fraction
# descent in tests/test_algebra.py, the radicals' and restrictions' in
# tests/test_forms.py.

BIG = 1 << 64
# an integer above 2^64 in absolute value, of either sign
big_int = st.integers(-(1 << 70), 1 << 70).map(lambda x: x + BIG if x >= 0 else x - BIG)
big_frac = st.builds(Fraction, big_int, big_int)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_lift_matches_the_fraction_combination_above_2_64(n, data):
    # each row of u combines the reduced echelon rows of s
    rows = st.lists(st.lists(big_int, min_size=n, max_size=n), min_size=1, max_size=n)
    s = Subspace(n, data.draw(rows))
    row = st.lists(big_int, min_size=s.dim, max_size=s.dim)
    u = Subspace(s.dim, data.draw(st.lists(row, max_size=s.dim)))
    assert s.lift(u) == Subspace(n, [lincomb(r, s.rows) for r in u.rows])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_apply_matches_the_fraction_sum_above_2_64(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    values = data.draw(st.lists(big_frac, min_size=len(pairs), max_size=len(pairs)))
    upper = dict(zip(pairs, values))
    w = TwoForm.from_pairs(n, [(i, j, c) for (i, j), c in upper.items()])
    x, y = (data.draw(st.lists(big_frac, min_size=n, max_size=n)) for _ in range(2))
    entry = {**upper, **{(j, i): -c for (i, j), c in upper.items()}}
    expected = sum(x[i] * entry.get((i, j), 0) * y[j] for i in range(n) for j in range(n))
    assert w.apply(x, y) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.lists(big_frac, min_size=4, max_size=4),
    st.lists(big_frac, min_size=4, max_size=4),
)
def test_d_zero_matches_the_fraction_identity_above_2_64(d1, seed, x, y):
    # omega(D, z) = -omega(y, [x, z]) for z = e_k, on D1 moved to a basis
    # with entries above 2^64: the Gram step of bilagrangian._derivatives
    m = above_2_64_basis(Random(seed), 4)
    alg, w = change_basis(d1.algebra, m), rebased_form_entries(d1.two_forms["omega"], m)
    out = d_zero(alg, TwoForm(w), x, y)
    for k in range(4):
        b = oracle_bracket(alg, x, _unit(4, k))
        lhs = sum(out[i] * w[i][k] for i in range(4))
        assert lhs == -sum(y[i] * w[i][j] * b[j] for i in range(4) for j in range(4))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((random_completely_solvable, random_nilpotent)),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_cocycle_witness_matches_the_fraction_cocycles_above_2_64(make, dim, seed, data):
    # a witness exactly when some cocycle of a nonzero weight, over Fraction,
    # does not vanish on h (h in [g, g]); the witness is a hyperplane
    # subalgebra that misses h
    rng = Random(seed)
    alg = change_basis(make(rng, dim), above_2_64_basis(rng, dim))
    derived = derived_subalgebra(alg)
    coeffs = st.lists(st.integers(-2, 2), min_size=derived.dim, max_size=derived.dim)
    drawn = data.draw(st.lists(coeffs, max_size=2)) if derived.dim else []
    h = subalgebra_closure(alg, [lincomb(c, derived.rows) for c in drawn])
    cert = complete_solvability_certificate(alg)
    missing = []
    for a in set(cert.weights) - {(0,) * dim}:
        alpha = [Fraction(x, cert.weight_denom) for x in a]
        rows = []
        for i, j in itertools.combinations(range(dim), 2):
            rows.append(list(alg.table[i][j]))
            rows[-1][j] -= alpha[i]
            rows[-1][i] += alpha[j]
        for beta in oracle_nullspace(rows, dim):
            if any(sum(p * q for p, q in zip(beta, r)) for r in h.rows):
                missing.append(beta)
    witness = _cocycle_witness(alg, h, cert)
    assert (witness is None) == (not missing)
    if witness is not None:
        (phi,) = witness.annihilator().rows
        assert witness.dim == dim - 1
        assert any(sum(p * q for p, q in zip(phi, r)) for r in h.rows)
        for u, v in itertools.combinations(witness.rows, 2):
            assert sum(p * q for p, q in zip(phi, oracle_bracket(alg, u, v))) == 0


class _BigChoices(Random):
    """A Random whose `choice` is an integer above 2^64 of either sign,
    recorded in `drawn`."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def choice(self, seq):
        self.drawn.append((BIG + self.randrange(1, 1 << 16)) * (-1) ** self.randrange(2))
        return self.drawn[-1]


@settings(max_examples=30, deadline=None)
@given(
    st.booleans(),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_a_generated_extension_matches_the_fraction_combination_above_2_64(strict, dim, seed):
    # the new basis vector e_n acts by sum_i c_i D_i / last_i, for the
    # triangular derivations D_i of the algebra before it, each over its
    # last nonzero entry, and coefficients c_i above 2^64
    before, after = _BigChoices(seed), _BigChoices(seed)
    small = generators._grow(before, dim - 1, strict)
    alg = generators._grow(after, dim, strict)
    n = dim - 1
    slots = [(a, b) for b in range(n) for a in range(b + (0 if strict else 1))]
    basis = generators._triangular_derivations(small, slots)
    cs = after.drawn[len(before.drawn) :]
    assert len(cs) == len(basis)
    d = {
        slot: sum(Fraction(c * v[k], next(x for x in reversed(v) if x)) for c, v in zip(cs, basis))
        for k, slot in enumerate(slots)
    }
    for b in range(n):
        assert alg.table[n][b] == tuple(d.get((a, b), 0) for a in range(dim))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_search_matches_the_visited_set_search_above_2_64(dim, seed):
    # the search's isotropy test of a generator against the current
    # subspace, on an algebra and form moved to a basis with entries above 2^64
    rng = Random(seed)
    alg = random_completely_solvable(rng, dim)
    omega = random_closed_form(rng, alg)
    m = above_2_64_basis(rng, dim)
    alg, omega = change_basis(alg, m), TwoForm(rebased_form_entries(omega, m))
    assert find_lagrangians(alg, omega) == oracle_find_lagrangians(alg, omega)
