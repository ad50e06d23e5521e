"""The reader and the two sparse builders against the Fraction route.

`parse_document` writes each vector, bracket and form straight into the
integer stores, and `LieAlgebra.from_brackets` and `TwoForm.from_pairs`
build theirs over one denominator with no dense table.  Each must store
exactly what the dense constructors store when handed the same values as a
Fraction table (`oracles.oracle_read_document`), whatever the spelling of
the values, the scaling of the vectors and the zero coefficients written.
"""

import json
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_read_document
from solvdiag import LieAlgebra, TwoForm, find_normal_flag, parse_document
from solvdiag.generators import random_closed_form, random_completely_solvable, random_full_chain


def _spell(rng, c):
    """The rational c as a JSON int, a string of an int, or 'p/q' not always
    in lowest terms."""
    p, q = Fraction(c).as_integer_ratio()
    if q == 1 and rng.random() < 0.5:
        return rng.choice([p, str(p)] + ([f"+{p}"] if p >= 0 else []))
    k = rng.choice((1, 1, 2, 3))
    return f"{p * k}/{q * k}"


def _coeffs(rng, names, v):
    """A coefficient map of v, written with its nonzero entries and a few zeros."""
    out = {}
    for nm, c in zip(names, v):
        if c or rng.random() < 0.2:
            out[nm] = _spell(rng, c) if c else rng.choice((0, "0", "0/3", "-0"))
    return out


def _vectors(rng, names, rows):
    """rows as coefficient maps, each scaled by a random nonzero rational,
    with now and then a sum of two of them added, so the span is unchanged."""
    rows = [list(r) for r in rows]
    if len(rows) >= 2 and rng.random() < 0.3:
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    out = []
    for r in rows:
        s = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 7)))
        out.append(_coeffs(rng, names, [s * x for x in r]))
    return out


@st.composite
def documents(draw):
    """A document on a random completely solvable algebra of dimension 0-7,
    its constants scaled by a random rational, with random closed forms, the
    normal flag, a random full chain and random subspaces."""
    n = draw(st.integers(0, 7))
    rng = Random(draw(st.integers(0, 10**9)))
    names = [f"{rng.choice('abxyz')}{i}" for i in range(n)]
    if n:
        alg = random_completely_solvable(rng, n)
        scale = Fraction(rng.choice((1, 1, -2, 3)), rng.choice((1, 1, 2, 5)))
    else:
        alg, scale = LieAlgebra.from_brackets((), {}), 1
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [scale * c for c in alg.table[i][j]]
            if any(v) or rng.random() < 0.1:
                x, y = (i, j) if rng.random() < 0.5 else (j, i)
                sign = 1 if x == i else -1
                brackets.append([names[x], names[y], _coeffs(rng, names, [sign * c for c in v])])
    rng.shuffle(brackets)
    two_forms = {}
    for t in range(rng.randrange(3) if n else 0):
        form = random_closed_form(rng, alg).scaled(Fraction(rng.choice((1, 3)), rng.choice((1, 4))))
        items = []
        for i in range(n):
            for j in range(i + 1, n):
                c = form.entries[i][j]
                if c or rng.random() < 0.1:
                    x, y, c = (i, j, c) if rng.random() < 0.5 else (j, i, -c)
                    items.append([names[x], names[y], _spell(rng, c)])
        two_forms[f"w{t}"] = items
    flags = {}
    if n:
        flags["N"] = [_vectors(rng, names, m.int_rows) for m in find_normal_flag(alg).flag.members]
        chain = random_full_chain(rng, n).members[rng.randrange(2) :]
        flags["R"] = [_vectors(rng, names, m.int_rows) for m in chain]
    subspaces = {}
    for t in range(rng.randrange(3)):
        entries = (-2, -1, 0, 0, 1, 3)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randrange(4))]
        subspaces[f"S{t}"] = _vectors(rng, names, rows)
    doc = {"name": "G", "dim": n, "basis": names, "brackets": brackets, "two_forms": two_forms}
    return json.dumps(dict(doc, flags=flags, subspaces=subspaces))


def _subspace_store(s):
    return s.ambient_dim, s.int_rows, s.pivots


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=documents())
def test_the_reader_stores_what_the_fraction_route_stores(text):
    doc = parse_document(text)
    alg, forms, flags, subspaces = oracle_read_document(text)
    assert (doc.algebra.names, doc.algebra.consts, doc.algebra.denom) == (
        alg.names,
        alg.consts,
        alg.denom,
    )
    assert {f: (w.numer, w.denom) for f, w in doc.two_forms.items()} == {
        f: (w.numer, w.denom) for f, w in forms.items()
    }
    assert {g: [_subspace_store(m) for m in f.members] for g, f in doc.flags.items()} == {
        g: [_subspace_store(m) for m in members] for g, members in flags.items()
    }
    assert {s: _subspace_store(v) for s, v in doc.subspaces.items()} == {
        s: _subspace_store(v) for s, v in subspaces.items()
    }


_VALUES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=-4, max_value=4, max_denominator=12).map(str),
    st.sampled_from(["0", "0/5", "-2/6", "3"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(0, 5), data=st.data())
def test_from_brackets_stores_what_the_table_constructor_stores(n, data):
    names = tuple(f"e{i}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    entries, table = {}, [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in chosen:
        val = data.draw(st.dictionaries(st.sampled_from(names), _VALUES, max_size=n))
        v = [Fraction(val.get(nm, 0)) for nm in names]
        table[i][j], table[j][i] = v, [-c for c in v]
        orientations = data.draw(st.sampled_from(["ij", "ji", "both"]))
        if orientations != "ji":
            entries[(names[i], names[j])] = val
        if orientations != "ij":
            entries[(names[j], names[i])] = {k: -Fraction(c) for k, c in val.items()}
    built = LieAlgebra.from_brackets(names, entries)
    dense = LieAlgebra(names, table)
    assert (built.consts, built.denom) == (dense.consts, dense.denom)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(0, 5), data=st.data())
def test_from_pairs_stores_what_the_matrix_constructor_stores(n, data):
    m = [[Fraction(0)] * n for _ in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                c = data.draw(_VALUES)
                m[i][j], m[j][i] = Fraction(c), -Fraction(c)
                for _ in range(data.draw(st.integers(1, 2))):  # a consistent repeat now and then
                    flip = data.draw(st.booleans())
                    pairs.append((j, i, -Fraction(c)) if flip else (i, j, c))
    built = TwoForm.from_pairs(n, data.draw(st.permutations(pairs)))
    dense = TwoForm(m)
    assert (built.numer, built.denom) == (dense.numer, dense.denom)
