"""A fuzzer for `parse_document`: corpus documents mutated one to three
times, in the `[x, y, value]` items of `brackets` and of each two-form, in
the vectors of the flags and subspaces, and in the entries of
`metadata.expected`.

Whatever the mutation, the parser returns a Document or raises one of its
four typed errors; a bare ValueError or any other exception would reach
`cli.main` as `error[VALUE]`.  The messages of the pair lists are pinned
too.  Each fuzzer draws 400 examples; a hypothesis profile with a larger
budget raises that (`--hypothesis-profile=reader-fuzz`, see conftest.py).

A last fuzzer reads strings both ways, by the document reader and by the
library, which share one rule (`linalg._ratio`).
"""

import copy
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvdiag import (
    Document,
    ParseError,
    RationalFormatError,
    SchemaError,
    corpus_text,
    linalg,
    list_corpus,
    parse_document,
    parse_rational,
)
from solvdiag.document import UnknownNameError

CORPUS = {name: json.loads(corpus_text(name)) for name in list_corpus()}
TYPED = (ParseError, SchemaError, RationalFormatError, UnknownNameError)
BAD_VALUES = (True, False, 0.5, "1/0", None, "x")
BAD_NAMES = (1, None, True, ["x"], "", "zz")
EXAMPLES = max(400, settings.default.max_examples)


def _lists(doc):
    """The item lists a mutation may touch: brackets and every two-form."""
    return [doc["brackets"], *doc.get("two_forms", {}).values()]


@st.composite
def mutated_item_lists(draw):
    """A corpus document with one to three items of its pair lists mutated."""
    doc = copy.deepcopy(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    names = doc["basis"]
    for _ in range(draw(st.integers(1, 3))):
        items = draw(st.sampled_from(_lists(doc)))
        if not items:
            items.append([names[0], names[-1], {} if items is doc["brackets"] else 1])
        i = draw(st.integers(0, len(items) - 1))
        item = items[i]
        if not isinstance(item, list):  # an earlier mutation replaced it
            continue
        how = draw(
            st.sampled_from(["arity", "name", "self", "duplicate", "reversed", "value", "not_a_list"])
        )
        if how == "arity":
            cut = draw(st.integers(0, 4))
            items[i] = item[:cut] if cut < 3 else item + [draw(st.sampled_from(BAD_VALUES))]
        elif how == "name" and len(item) >= 2:
            item[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_NAMES + tuple(names)))
        elif how == "self" and len(item) >= 2:
            item[1] = item[0]
        elif how == "duplicate":
            items.insert(draw(st.integers(0, len(items))), copy.deepcopy(item))
        elif how == "reversed" and len(item) == 3:
            items.append([item[1], item[0], copy.deepcopy(item[2])])
        elif how == "value" and len(item) == 3:
            bad = draw(st.sampled_from(BAD_VALUES))
            if isinstance(item[2], dict) and item[2] and draw(st.booleans()):
                item[2][draw(st.sampled_from(sorted(item[2])))] = bad
            else:
                item[2] = bad
        elif how == "not_a_list":
            items[i] = draw(st.sampled_from(BAD_VALUES))
    return doc


def _parses_or_raises_a_typed_error(doc):
    try:
        out = parse_document(json.dumps(doc))
    except TYPED:
        return
    assert isinstance(out, Document)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(doc=mutated_item_lists())
def test_mutated_pair_lists_parse_or_raise_a_typed_error(doc):
    _parses_or_raises_a_typed_error(doc)


def _member_slots(doc):
    """(container, key) of every list of coefficient maps: each member of
    each flag, and each subspace."""
    slots = [(chain, i) for chain in doc.get("flags", {}).values() for i in range(len(chain))]
    return slots + [(doc["subspaces"], name) for name in doc.get("subspaces", {})]


@st.composite
def mutated_vectors(draw):
    """A corpus document with one to three flag or subspace vectors mutated."""
    doc = copy.deepcopy(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    names = doc["basis"]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["value", "symbol", "not_a_dict", "not_a_list", "empty_flag"]))
        if how == "empty_flag":
            doc.setdefault("flags", {})[draw(st.sampled_from(["F", "G"]))] = []
            continue
        slots = _member_slots(doc)
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        vectors = container[key]
        if how == "not_a_list" or not isinstance(vectors, list):
            container[key] = draw(st.sampled_from(BAD_VALUES + ({"x": 1}, {})))
            continue
        if not vectors:
            vectors.append({})
        i = draw(st.integers(0, len(vectors) - 1))
        vec = vectors[i]
        if how == "not_a_dict" or not isinstance(vec, dict):
            vectors[i] = draw(st.sampled_from(BAD_VALUES + ([1, 0],)))
        elif how == "value":
            vec[draw(st.sampled_from(names))] = draw(st.sampled_from(BAD_VALUES))
        else:  # an unknown symbol, before or after the names already there
            bad = {draw(st.sampled_from(("zz", "", names[0].upper() + "?"))): 1}
            vectors[i] = {**bad, **vec} if draw(st.booleans()) else {**vec, **bad}
    return doc


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(doc=mutated_vectors())
def test_mutated_vectors_parse_or_raise_a_typed_error(doc):
    _parses_or_raises_a_typed_error(doc)


@st.composite
def mutated_expected(draw):
    """A corpus document with one to three entries of metadata.expected mutated."""
    doc = copy.deepcopy(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    entries = doc["metadata"]["expected"]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        if not isinstance(entries[i], dict):  # an earlier mutation replaced it
            continue
        entry = entries[i]
        how = draw(
            st.sampled_from(["missing", "tag", "agrees", "form", "flag", "args", "not_a_dict"])
        )
        if how == "missing":
            entry.pop(draw(st.sampled_from(["check", "value", "tag"])), None)
        elif how == "tag":
            entry["tag"] = draw(st.sampled_from(["guessed", "", 1, None, ["printed"]]))
        elif how == "agrees":
            entry["agrees"] = draw(st.sampled_from(["yes", 1, 0, None, []]))
        elif how in ("form", "flag"):
            args = entry.setdefault("args", {})
            if isinstance(args, dict):
                args[how] = draw(st.sampled_from(["nope", "", 1, None, True]))
        elif how == "args":
            entry["args"] = draw(st.sampled_from([[], "form", 1, None]))
        else:
            entries[i] = draw(st.sampled_from(BAD_VALUES + ([entry],)))
    return doc


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(doc=mutated_expected())
def test_mutated_expected_entries_parse_or_raise_a_typed_error(doc):
    _parses_or_raises_a_typed_error(doc)


def _minimal(**overrides):
    raw = {"name": "T", "dim": 2, "basis": ["x", "y"], "brackets": []}
    raw.update(overrides)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "items, error, message",
    [
        ([["x", "y"]], SchemaError, "brackets[0]: expected [x, y, coefficients]"),
        ([["x", 1, {}]], SchemaError, "brackets[0][1]: expected str, got int"),
        ([["x", "z", {}]], SchemaError, "brackets[0]: unknown basis symbol 'z'"),
        ([["x", "x", {}]], SchemaError, "brackets[0]: bracket of 'x' with itself"),
        (
            [["x", "y", {}], ["y", "x", {}]],
            SchemaError,
            "brackets[1]: duplicate bracket for ('y', 'x')",
        ),
        ([["x", "y", 1]], SchemaError, "brackets[0][2]: expected dict, got int"),
        ([["x", "y", {"z": 1}]], SchemaError, "brackets[0]: unknown basis symbol 'z'"),
        (
            [["x", "y", {"x": True}]],
            RationalFormatError,
            "brackets[0][2]['x']: boolean is not a rational",
        ),
    ],
)
def test_bracket_messages(items, error, message):
    with pytest.raises(error) as err:
        parse_document(_minimal(brackets=items))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "items, error, message",
    [
        ([["x", "y"]], SchemaError, "two_forms['w'][0]: expected [x, y, value]"),
        ([[None, "y", 1]], SchemaError, "two_forms['w'][0][0]: expected str, got NoneType"),
        ([["x", "z", 1]], SchemaError, "two_forms['w'][0]: unknown basis symbol 'z'"),
        ([["x", "x", 1]], SchemaError, "two_forms['w'][0]: pairing of 'x' with itself"),
        (
            [["x", "y", 1], ["y", "x", -1]],
            SchemaError,
            "two_forms['w'][1]: duplicate entry for ('y', 'x')",
        ),
        (
            [["x", "y", "1/0"]],
            RationalFormatError,
            "two_forms['w'][0][2]: '1/0' has a zero denominator",
        ),
    ],
)
def test_two_form_messages(items, error, message):
    with pytest.raises(error) as err:
        parse_document(_minimal(two_forms={"w": items}))
    assert str(err.value) == message


SPELLINGS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="+-/0123456789 \n\u0663", max_size=10),
    st.from_regex(r"[+-]?[0-9]{1,5}(/[0-9]{1,4})?", fullmatch=True),
)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(spelling=SPELLINGS)
@example("1/0")
@example("1" * (sys.get_int_max_str_digits() + 1))
def test_the_reader_and_the_library_read_a_string_alike(spelling):
    # the same value, or the library's ValueError behind the reader's location
    try:
        value = linalg.frac(spelling)
    except ValueError as exc:
        with pytest.raises(RationalFormatError) as err:
            parse_rational(spelling, "x")
        assert str(err.value) == f"x: {exc}"
    else:
        assert parse_rational(spelling, "x") == value
