"""Invariant forms, the differential, radicals and orthogonals."""

import hashlib
import itertools
from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvdiag import (
    Covector,
    LieAlgebra,
    PairPresentation,
    SolvdiagError,
    Subspace,
    ThreeForm,
    TwoForm,
    ce_differential,
    ce_differential_covector,
    change_basis,
    closed_two_form_basis,
    complete_flag_through,
    degrees,
    is_closed,
    is_isotropic,
    kernel,
    quasi_primitive_test,
    radical,
    random_closed_form,
    random_completely_solvable,
    random_nilpotent,
    random_unimodular,
    restrict,
    subalgebra_closure,
    symplectic_orthogonal,
    wedge_with_covector,
)
from solvdiag import linalg
from solvdiag.forms import radicals
from oracles import (
    oracle_d_covector,
    oracle_d_two_form,
    oracle_is_closed,
    oracle_radical_dim,
    oracle_radical_rows,
    spans_equal,
)


def printed_variant_e1():
    # same basis as E1 but with the degree actions attached to the other pair
    return LieAlgebra.from_brackets(
        ("c", "b", "a", "v", "u"),
        {
            ("a", "b"): {"c": 1},
            ("u", "c"): {"c": 1},
            ("v", "c"): {"c": 1},
            ("u", "a"): {"a": 1},
            ("v", "b"): {"b": 1},
        },
    )


class TestTwoForm:
    def test_from_pairs_fills_antisymmetry(self):
        w = TwoForm.from_pairs(3, [(0, 1, 2)])
        assert w.entries[0][1] == 2
        assert w.entries[1][0] == -2
        assert w.apply((1, 0, 0), (0, 1, 0)) == 2
        assert w.apply((0, 1, 0), (1, 0, 0)) == -2

    @pytest.mark.parametrize(
        "x, y",
        [
            ((1, 0, 0), (0, 1)),
            ((1, 0), (0, 1, 0)),
            ((1, 0, 0), (0, 1, 0, 0)),
            ((1, 0, 0, 0), (0, 1, 0)),
        ],
        ids=["short-y", "short-x", "long-y", "long-x"],
    )
    def test_apply_rejects_a_wrong_length(self, x, y):
        w = TwoForm.from_pairs(3, [(0, 1, 1)])
        with pytest.raises(ValueError, match="lengths"):
            w.apply(x, y)

    def test_from_pairs_rejects_contradiction(self):
        with pytest.raises(ValueError):
            TwoForm.from_pairs(3, [(0, 1, 1), (1, 0, 1)])
        with pytest.raises(ValueError):
            TwoForm.from_pairs(3, [(1, 1, 1)])
        # a value given as zero is given: a later nonzero one contradicts it
        for pairs in ([(0, 1, 0), (0, 1, 5)], [(0, 1, 5), (0, 1, 0)], [(0, 1, 0), (1, 0, 5)]):
            with pytest.raises(ValueError, match="contradictory duplicate"):
                TwoForm.from_pairs(2, pairs)

    def test_from_pairs_accepts_a_consistent_repeat(self):
        for pairs in ([(0, 1, 2), (1, 0, -2)], [(0, 1, 0), (1, 0, 0)], [(0, 1, 2), (0, 1, 2)]):
            assert TwoForm.from_pairs(2, pairs) == TwoForm.from_pairs(2, pairs[:1])

    @pytest.mark.parametrize("pair", [(-1, 0, 1), (0, 5, 1), (0, -2, 1)])
    def test_from_pairs_rejects_an_index_outside_the_dimension(self, pair):
        # Python would wrap -1 to the last row and send (0, -2) onto the
        # diagonal, so the range is checked before any indexing
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            TwoForm.from_pairs(2, [pair])

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            ([(5, 5, 1), (0, 0, 1)], ValueError, "two-form index pair (5, 5) outside range(3)"),
            ([(5, 0, 0.5)], ValueError, "two-form index pair (5, 0) outside range(3)"),
            ([(0, 0, 0.5)], TypeError, "not an exact rational: 0.5"),
            ([(1, 1, 1), (5, 0, 1)], ValueError, "diagonal entry in a two-form"),
            ([(0, 1, 1), (1, 0, 1), (2, 2, 1)], ValueError, "contradictory duplicate entry (1,0)"),
            (
                [(0, 1, "1/2"), (1, 0, "-2/4"), (0, 2, "1/3"), (0, 2, 1)],
                ValueError,
                "contradictory duplicate entry (0,2)",
            ),
        ],
        ids=["range", "range-first", "value-first", "diagonal", "contradiction", "after-a-repeat"],
    )
    def test_from_pairs_refusals_and_their_order(self, pairs, error, message):
        with pytest.raises(error) as err:
            TwoForm.from_pairs(3, pairs)
        assert str(err.value) == message

    def test_matrix_constructor_requires_antisymmetry(self):
        with pytest.raises(ValueError):
            TwoForm([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            TwoForm([[1, 0], [0, 0]])

    def test_rank_and_pairing(self):
        w = TwoForm.from_pairs(4, [(0, 1, 1), (2, 3, 1)])
        assert w.rank() == 4
        assert w.pairing_with((1, 0, 0, 0)) == (0, 1, 0, 0)

    @pytest.mark.parametrize("x", [(1, 0), (1, 0, 0, 5)], ids=["short", "long"])
    def test_pairing_rejects_a_wrong_length(self, x):
        w = TwoForm.from_pairs(3, [(0, 1, 1)])
        assert w.pairing_with((1, 0, 0)) == (0, 1, 0)
        with pytest.raises(ValueError, match="length"):
            w.pairing_with(x)

    def test_pairing_and_apply_take_int_fraction_and_string_entries(self):
        w = TwoForm.from_pairs(3, [(0, 1, 2)])
        assert w.pairing_with(("1/2", 0, Fraction(3))) == (0, 1, 0)
        assert w.apply((Fraction(1, 2), 0, 0), (0, "3/2", 7)) == Fraction(3, 2)

    @pytest.mark.parametrize(
        "x, y",
        [((1.0, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0.5, 0)), ((1, 0.0, 0), (0, 1, 0))],
        ids=["x", "y", "zero"],
    )
    def test_pairing_and_apply_refuse_a_float(self, x, y):
        w = TwoForm.from_pairs(3, [(0, 1, 1)])
        with pytest.raises(TypeError, match="not an exact rational"):
            w.apply(x, y)
        with pytest.raises(TypeError, match="not an exact rational"):
            w.pairing_with(x if any(isinstance(a, float) for a in x) else y)

    def test_algebraic_ops(self):
        w = TwoForm.from_pairs(2, [(0, 1, 1)])
        assert w.scaled(3).entries[0][1] == 3
        assert w.plus(w.scaled(-1)).is_zero()


@pytest.mark.parametrize("v", [(1, 1), (1, 1, 1, 5)], ids=["short", "long"])
def test_covector_apply_rejects_a_wrong_length(v):
    phi = Covector.from_entries((1, 2, 3))
    assert phi.apply((1, 1, 1)) == 6
    with pytest.raises(ValueError):
        phi.apply(v)


class TestDifferential:
    def test_covector_differential_sign(self, e2):
        # pairing dual to the lowered direction: d(c*) = u* ^ c* up to sign
        alg = e2.algebra
        phi = Covector.from_entries((1, 0, 0, 0))
        d = ce_differential_covector(alg, phi)
        u, c = alg.index_of("u"), alg.index_of("c")
        # [u, c] = -c, so d(c*)(u, c) = -c*([u,c]) = 1
        assert d.entries[u][c] == 1
        assert d.entries[c][u] == -1

    def test_differential_matches_reference(self, e1, x3):
        for doc in (e1, x3):
            alg = doc.algebra
            w = doc.two_forms["omega"]
            d = ce_differential(alg, w)
            ref = oracle_d_two_form(alg, w)
            n = alg.dim
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        assert d.coefficient(i, j, k) == ref.get((i, j, k), 0)

    def test_d_squared_is_zero(self, e1, e2, x1, x3, d1):
        for doc in (e1, e2, x1, x3, d1):
            alg = doc.algebra
            for i in range(alg.dim):
                phi = Covector.from_entries(
                    tuple(1 if t == i else 0 for t in range(alg.dim))
                )
                dphi = ce_differential_covector(alg, phi)
                assert ce_differential(alg, dphi).is_zero()

    def test_corpus_forms_closed(self, e1, e2, x1, x2, x3, d1):
        for doc in (e1, e2, x1, x2, x3, d1):
            w = doc.two_forms["omega"]
            assert is_closed(doc.algebra, w)
            assert oracle_is_closed(doc.algebra, w)

    def test_printed_actor_variant_not_closed(self, e1):
        # with the actions attached the other way the same form is not closed
        alg = printed_variant_e1()
        w = e1.two_forms["omega"]
        assert not is_closed(alg, w)

    def test_wedge_with_covector(self):
        d = TwoForm.from_pairs(3, [(0, 1, 1)])
        phi = Covector.from_entries((0, 0, 1))
        w3 = wedge_with_covector(d, phi)
        assert w3.coefficient(0, 1, 2) == 1
        assert not w3.is_zero()


@pytest.mark.parametrize("key", [(0, 1, 5), (-1, 0, 1), (0, 1, 2)])
def test_three_form_keys_outside_the_dimension_are_refused(key):
    with pytest.raises(ValueError, match="outside range"):
        ThreeForm(2, {key: 1})
    assert ThreeForm(3, {(0, 1, 2): 1}).coefficient(0, 1, 2) == 1


@pytest.mark.parametrize("triple", [(1, 0, 2), (0, 2, 1), (0, 1, 1), (0, 1, 3), (-1, 0, 1)])
def test_three_form_coefficient_refuses_a_triple_it_does_not_store(triple):
    # the value at (1, 0, 2) is -5 by alternation, not the 0 a lookup gives
    with pytest.raises(ValueError, match=r"unordered or outside range\(3\)"):
        ThreeForm(3, {(0, 1, 2): 5}).coefficient(*triple)


class TestRadicals:
    def test_kernel_of_corpus_forms(self, e1, x3, d1):
        w1 = e1.two_forms["omega"]
        k1 = kernel(w1)
        assert k1 == Subspace(5, [e1.algebra.basis_vector("c")])

        w3 = x3.two_forms["omega"]
        k3 = kernel(w3)
        v = [Fraction(0)] * 5
        v[x3.algebra.index_of("e1")] = Fraction(1)
        v[x3.algebra.index_of("e3")] = Fraction(-1)
        assert k3 == Subspace(5, [v])

        assert kernel(d1.two_forms["omega"]).is_zero()

    def test_kernel_matches_reference(self, e1, e2, x1, x2, x3, d1):
        for doc in (e1, e2, x1, x2, x3, d1):
            w = doc.two_forms["omega"]
            n = w.dim
            ref = oracle_radical_rows(w, [r for r in Subspace.full(n).rows], n)
            assert spans_equal(kernel(w).rows, ref, n)

    def test_radical_of_member(self, x1):
        w = x1.two_forms["omega"]
        member = x1.flags["F"].members[2]  # dim 3
        rad = radical(w, member)
        assert rad == Subspace(4, [x1.algebra.basis_vector("ev")])

    def test_restrict_shape(self, d1):
        w = d1.two_forms["omega"]
        s = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        r = restrict(w, s)
        assert r.dim == 2
        assert r.entries[0][1] == 1

    def test_symplectic_orthogonal(self, d1):
        w = d1.two_forms["omega"]
        xy = Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        perp = symplectic_orthogonal(w, xy)
        assert perp == Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        # on a nondegenerate form the orthogonal complements dimensions
        assert perp.dim == 4 - xy.dim


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TwoForm([[0, 1]]), "two-form matrix must be square"),
        (lambda: ThreeForm(3, {(1, 0, 2): 1}), "three-form keys must be strictly ordered"),
        (
            lambda: ce_differential(LieAlgebra.from_brackets("abc", {}), TwoForm.zero(2)),
            "form dimension does not match the algebra",
        ),
        (
            lambda: is_closed(LieAlgebra.from_brackets("abc", {}), TwoForm.zero(4)),
            "form dimension does not match the algebra",
        ),
    ],
    ids=["two-form-not-square", "three-form-unordered", "ce-differential-dims", "is-closed-dims"],
)
def test_a_refused_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestKeptKernel:
    """`kernel` builds the form's kernel once per form object and keeps it."""

    def test_a_second_call_returns_the_same_object(self):
        w = TwoForm.from_pairs(4, [(0, 1, 1), (1, 2, 3)])
        k = kernel(w)
        assert kernel(w) is k
        assert k == Subspace(4, [(3, 0, 1, 0), (0, 0, 0, 1)])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TwoForm([[0, 1], [-1, 0]]),
            lambda: TwoForm._of([[0, 2], [-2, 0]], 4),
            lambda: TwoForm.from_pairs(3, [(0, 2, "1/2")]),
            lambda: TwoForm.zero(3),
            lambda: TwoForm.from_pairs(3, [(0, 2, 1)]).scaled(2),
            lambda: TwoForm.zero(2).plus(TwoForm([[0, 1], [-1, 0]])),
        ],
        ids=["init", "_of", "from_pairs", "zero", "scaled", "plus"],
    )
    def test_a_new_form_has_no_kernel_yet(self, make):
        # nor its Fraction entries: each kept fact's slot is unset until the
        # first read, which keeps it; a second read returns the same object
        w = make()
        facts = {"_entries": lambda w: w.entries, "_kernel": kernel}
        assert [getattr(w, slot, None) for slot in facts] == [None, None]
        for slot, fact in facts.items():
            value = fact(w)
            assert getattr(w, slot) is value and fact(w) is value

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["lagrangians", "--form", "omega"], 0),
            (["primitivity", "--form", "omega"], 1),
            (["audit"], 1),
            (["diagram", "--form", "omega", "--flag", "{flag}"], 0),
            (["deform", "--form", "omega", "--flag", "{flag}"], 0),
        ],
        ids=["lagrangians", "primitivity", "audit", "diagram", "deform"],
    )
    def test_one_full_space_radical_per_form(self, argv, built, monkeypatch, capsys):
        # a build is a pass of `radicals` that starts at the full space, as
        # `kernel`'s does; a chain's pass reaches it from the member before
        # and keeps it, so a `kernel` after a chain (Vergne's candidate, the
        # split of D1's repulsive vertex) builds nothing; primitivity and
        # audit ask for the kernel before any chain
        import sys
        from importlib import resources

        from solvdiag import forms
        from solvdiag.cli import main

        builds, original = Counter(), forms.radicals

        def counting_radicals(omega, members):
            if members and members[0] == Subspace.full(omega.dim):
                builds[id(omega)] += 1
            return original(omega, members)

        for modname, mod in list(sys.modules.items()):
            if modname == "solvdiag" or modname.startswith("solvdiag."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting_radicals)
        for doc, flag in (("E1", "F"), ("D1", "F2comp")):
            path = str(resources.files("solvdiag") / "corpus_data" / f"{doc}.json")
            builds.clear()
            assert main([argv[0], path, *(a.format(flag=flag) for a in argv[1:])]) == 0
            capsys.readouterr()
            assert sorted(builds.values()) == [1] * built, doc


@st.composite
def radical_cases(draw):
    """A skew form on Q^n, n = 1..10, closed or not, and, when drawn,
    rescaled as `bits-ladder` does (one basis vector times N of 41-44
    bits); with a sequence of subspaces for `radicals`: a nested chain with
    gaps that may start above zero, subspaces drawn one by one, or a chain
    with one member swapped for a drawn subspace."""
    n = draw(st.integers(1, 10))
    rng = Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        omega = random_closed_form(rng, random_completely_solvable(rng, n))
    else:
        upper = draw(st.lists(st.integers(-3, 3), min_size=comb(n, 2), max_size=comb(n, 2)))
        pairs = itertools.combinations(range(n), 2)
        omega = TwoForm.from_pairs(n, [(i, j, c) for (i, j), c in zip(pairs, upper)])
    if draw(st.booleans()):
        k, big = rng.randrange(n), rng.getrandbits(44) | 1 << 40
        s = [big if i == k else 1 for i in range(n)]
        omega = TwoForm._of(
            [[x * s[i] * s[j] for j, x in enumerate(r)] for i, r in enumerate(omega.numer)],
            omega.denom,
        )
    basis = random_unimodular(rng, n)
    sizes = sorted(draw(st.sets(st.integers(0, n), min_size=1, max_size=n + 1)))
    chain = [Subspace(n, basis[:k]) for k in sizes]
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    drawn = st.lists(row, max_size=n).map(lambda rows: Subspace(n, rows))
    kind = draw(st.sampled_from(("chain", "drawn", "swapped")))
    if kind == "drawn":
        return omega, draw(st.lists(drawn, min_size=1, max_size=4))
    if kind == "swapped":
        chain[draw(st.integers(0, len(chain) - 1))] = draw(drawn)
    return omega, chain


# The radical's oracle test (marked radical_oracle) draws 100 examples, or the
# profile's budget when it is larger: CI runs it once more with
# -m radical_oracle --hypothesis-profile=radical-oracle.
@pytest.mark.radical_oracle
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(radical_cases())
def test_radicals_match_the_fraction_oracle(case):
    # the pass along the whole sequence and `radical` on each member alone
    # give the canonical rows of the oracle's span, of the oracle's dimension
    omega, members = case
    n = omega.dim
    for m, rad in zip(members, radicals(omega, members), strict=True):
        ref_rows = oracle_radical_rows(omega, m.int_rows, n)
        ref = Subspace(n, ref_rows)
        assert spans_equal(rad.rows, ref_rows, n)
        assert rad.dim == oracle_radical_dim(omega, m.int_rows, n)
        for got in (rad, radical(omega, m)):
            assert (got.int_rows, got.pivots) == (ref.int_rows, ref.pivots)


@settings(max_examples=40, deadline=None)
@given(radical_cases(), st.data())
def test_radicals_and_restrictions_match_the_fraction_oracle_above_2_64(case, data):
    # the pairings of the radicals' pass and the Gram rows of restrict and
    # is_isotropic on big integers: the form's entry (i, j) and column j of
    # every member row times integers t_i t_j and t_j above 2^64, which
    # keeps chains nested
    omega, members = case
    n = omega.dim
    t = data.draw(st.lists(st.integers(1 << 64, 1 << 70), min_size=n, max_size=n))
    omega = TwoForm._of(
        [[x * t[i] * t[j] for j, x in enumerate(r)] for i, r in enumerate(omega.numer)], omega.denom
    )
    members = [Subspace(n, [[x * c for x, c in zip(r, t)] for r in m.int_rows]) for m in members]
    w = omega.entries
    for m, rad in zip(members, radicals(omega, members), strict=True):
        assert rad == Subspace(n, oracle_radical_rows(omega, m.int_rows, n)) == radical(omega, m)
        gram = tuple(
            tuple(sum(x[a] * w[a][b] * y[b] for a in range(n) for b in range(n)) for y in m.rows)
            for x in m.rows
        )
        assert restrict(omega, m).entries == gram
        assert is_isotropic(omega, m) == (not any(map(any, gram)))


class TestClosedBasis:
    def test_every_member_closed(self, e1, x3):
        for doc in (e1, x3):
            for w in closed_two_form_basis(doc.algebra):
                assert is_closed(doc.algebra, w)

    def test_corpus_form_in_span(self, e1):
        alg = e1.algebra
        basis = closed_two_form_basis(alg)
        w = e1.two_forms["omega"]
        n = alg.dim
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

        def flat(form):
            return [form.entries[i][j] for i, j in pairs]

        rows = [flat(b) for b in basis]
        target = Subspace(len(pairs), rows)
        assert target.contains_vector(flat(w))

    def test_abelian_case_everything_closed(self):
        abelian = LieAlgebra.from_brackets(("x", "y", "z"), {})
        basis = closed_two_form_basis(abelian)
        assert len(basis) == 3


@st.composite
def algebra_and_covector(draw):
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=2, max_value=6))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    alg = change_basis(make(rng, dim), random_unimodular(rng, dim))
    entry = st.integers(min_value=-2, max_value=2) | st.fractions(-2, 2, max_denominator=3)
    return alg, draw(st.lists(entry, min_size=dim, max_size=dim).map(linalg.vec))


@settings(max_examples=40, deadline=None)
@given(algebra_and_covector())
def test_wedge_with_covector_matches_the_definition(case):
    """d(phi) ^ phi through `ce_differential_covector` and
    `wedge_with_covector`, against the oracle's d(phi) and the definition."""
    alg, phi = case
    n = alg.dim
    d = oracle_d_covector(alg, phi)
    ref = [
        d[i][j] * phi[k] - d[i][k] * phi[j] + d[j][k] * phi[i]
        for i, j, k in itertools.combinations(range(n), 3)
    ]
    covector = Covector(phi)
    wedge = wedge_with_covector(ce_differential_covector(alg, covector), covector)
    triples = itertools.combinations(range(n), 3)
    assert wedge.entries == {t: v for t, v in zip(triples, ref) if v}


def _rows(s: Subspace) -> str:
    return "; ".join(" ".join(map(str, row)) for row in s.rows)


def _hyperplane_records():
    """One line per use of a hyperplane-subalgebra result.

    Each algebra is completely solvable, of dimension 3 to 5, and given in
    a random unimodular basis.  It is paired with the subalgebras generated
    by one and by two random vectors.  For each pair, the lines record the
    flag completed through the subalgebra, then the quasi-primitivity
    verdict and the degree bounds, with every witness.
    """
    lines = []
    for dim in (3, 4, 5):
        for seed in range(12):
            rng = Random(7000 + 100 * dim + seed)
            alg = random_completely_solvable(rng, dim)
            alg = change_basis(alg, random_unimodular(rng, dim))
            subs = []
            for k in (1, 2):
                vs = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(dim)] for _ in range(k)]
                s = subalgebra_closure(alg, vs)
                if 0 < s.dim < dim and s not in subs:
                    subs.append(s)
            for s in subs:
                try:
                    flag = complete_flag_through(alg, [s])
                    lines.append("flag: " + " | ".join(_rows(m) for m in flag.members))
                except SolvdiagError as exc:
                    lines.append(f"flag: {exc.code}")
                pair = PairPresentation(alg, s)
                v = quasi_primitive_test(pair)
                wit = _rows(v.witness) if v.witness is not None else "-"
                lines.append(f"quasi: {v.status.value} {','.join(v.searched)} {wit}")
                d = degrees(pair)
                chain = " | ".join(_rows(m) for m in d.witness_chain)
                lines.append(f"degrees: {d.ratio} {d.d_lower} {d.d_within_search} {chain}")
    return lines


# SHA-256 of _hyperplane_records(): 156 records, 52 pairs of three.  The flag
# lines are those of the completion through the flag of ideals.  The quasi and
# degrees lines are those of the exact test on the certificate's weights,
# which replaced the search over dual-basis pencils; against that search's
# lines at no budget, every verdict it decided kept its status and stages.
# Record 80, Random(7408) with the line through (0, 2, 1, 0), went from
# UNKNOWN to NOT_QUASI_PRIMITIVE, and its degrees from 1/4, 1/4, 1/4 to
# 1/4, 0, 0 (record 81).  The witness of record 38 moved to another one.  The
# other 13 changed degrees lines descend through other witnesses to the same
# values.
GOLDEN_HYPERPLANE_DIGEST = "c190124d1ce699cbd9816584ccafb97fa7cf9b0dd390195cf29914bca336ce98"


def test_hyperplane_witnesses_unchanged():
    records = _hyperplane_records()
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_HYPERPLANE_DIGEST


@st.composite
def algebra_and_form(draw):
    """A generated algebra of dimension 1 to 7 in a random unimodular basis,
    with an arbitrary antisymmetric integer form (closed or not)."""
    make = draw(st.sampled_from((random_completely_solvable, random_nilpotent)))
    dim = draw(st.integers(min_value=1, max_value=7))
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    alg = change_basis(make(rng, dim), random_unimodular(rng, dim))
    upper = draw(st.lists(st.integers(-3, 3), min_size=comb(dim, 2), max_size=comb(dim, 2)))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return alg, TwoForm.from_pairs(dim, [(i, j, c) for (i, j), c in zip(pairs, upper)])


@settings(max_examples=60, deadline=None)
@given(algebra_and_form())
def test_differential_matches_the_definition(case):
    alg, w = case
    ref = oracle_d_two_form(alg, w)
    assert ce_differential(alg, w).entries == {t: v for t, v in ref.items() if v != 0}
    assert is_closed(alg, w) == oracle_is_closed(alg, w)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((random_completely_solvable, random_nilpotent)),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10**6),
)
def test_is_closed_agrees_with_the_differential(make, dim, seed):
    # is_closed stops at the first nonzero row of the kept matrix of d; on
    # a closed form, and on it moved by one basis 2-form (closed or not),
    # it says what ce_differential's ThreeForm says, and neither builds d again
    rng = Random(seed)
    alg = make(rng, dim)
    if seed % 2:
        alg = change_basis(alg, random_unimodular(rng, dim))
    w = random_closed_form(rng, alg)
    d = alg._d
    assert is_closed(alg, w) and ce_differential(alg, w).is_zero()
    for i, j in itertools.combinations(range(dim), 2):
        moved = w.plus(TwoForm.from_pairs(dim, [(i, j, rng.choice((-2, -1, 1, 3)))]))
        assert is_closed(alg, moved) == ce_differential(alg, moved).is_zero()
    assert alg._d is d


@settings(max_examples=40, deadline=None)
@given(algebra_and_form(), st.data())
def test_restrict_matches_the_pairwise_definition(case, data):
    alg, w = case
    n = alg.dim
    entry = st.integers(min_value=-2, max_value=2)
    vs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    s = Subspace(n, vs)
    r = restrict(w, s)
    assert r.dim == s.dim
    for i, x in enumerate(s.rows):
        for j, y in enumerate(s.rows):
            pairwise = sum(
                x[a] * w.entries[a][b] * y[b] for a in range(n) for b in range(n)
            )
            assert r.entries[i][j] == pairwise


def _closed_form_records():
    """Closed 2-form bases and random closed forms of generated algebras.

    Completely solvable and nilpotent algebras of dimension 1 to 7, every
    other one in a random unimodular basis: the entries of each basis form,
    then of one random_closed_form drawn after it.
    """

    def flat(w):
        return " ".join(str(x) for row in w.entries for x in row)

    lines = []
    for make in (random_completely_solvable, random_nilpotent):
        for dim in range(1, 8):
            for seed in range(6):
                rng = Random(11000 + 100 * dim + seed)
                alg = make(rng, dim)
                if seed % 2:
                    alg = change_basis(alg, random_unimodular(rng, dim))
                lines.append("basis: " + " | ".join(flat(w) for w in closed_two_form_basis(alg)))
                lines.append("form: " + flat(random_closed_form(rng, alg)))
    return lines


# SHA-256 of _closed_form_records() as computed when closed_two_form_basis
# built its own copy of the matrix of d; sharing one matrix with
# ce_differential must not move a basis form or a generated form
GOLDEN_CLOSED_FORM_DIGEST = "8fdbc915c6db22d52c0bdef44e80dbbf84f03f3064b1716696f55ef0212c5db8"


def test_closed_forms_unchanged():
    records = _closed_form_records()
    assert len(records) == 168
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_CLOSED_FORM_DIGEST
