"""The JSON document format: parsing, canonical output, recorded values."""

import json

import pytest

from solvdiag import (
    ParseError,
    RationalFormatError,
    SchemaError,
    corpus_text,
    evaluate_expected,
    list_corpus,
    load_corpus,
    parse_document,
    parse_rational,
    rational_repr,
    serialize_document,
)

CORPUS = ("D1", "E1", "E2", "X1", "X2", "X3")


def minimal(**overrides):
    raw = {
        "name": "T",
        "dim": 2,
        "basis": ["x", "y"],
        "brackets": [],
    }
    raw.update(overrides)
    return json.dumps(raw)


class TestRationals:
    def test_parse_accepts_ints_and_strings(self):
        assert parse_rational(3, "here") == 3
        assert parse_rational("-7", "here") == -7
        assert parse_rational("2/4", "here") == parse_rational("1/2", "here")

    def test_zero_denominator(self):
        with pytest.raises(RationalFormatError):
            parse_rational("1/0", "here")

    def test_bool_rejected(self):
        with pytest.raises(RationalFormatError):
            parse_rational(True, "here")

    def test_float_rejected(self):
        with pytest.raises(RationalFormatError):
            parse_rational(0.5, "here")

    def test_garbage_string_rejected(self):
        with pytest.raises(RationalFormatError):
            parse_rational("1.5", "here")

    def test_repr_roundtrip(self):
        assert rational_repr(parse_rational("6/4", "x")) == "3/2"
        assert rational_repr(parse_rational("4/2", "x")) == 2


class TestParsing:
    def test_invalid_json_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_document("{\n  broken")
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_unknown_top_field(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(extra=1))

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            parse_document('{"name": "T", "dim": 1, "basis": ["x"]}')

    def test_basis_count_mismatch(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(basis=["x"]))

    def test_duplicate_basis_name(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(basis=["x", "x"]))

    def test_unknown_bracket_symbol(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(brackets=[["x", "z", {"x": 1}]]))

    def test_duplicate_bracket_pair(self):
        bad = minimal(brackets=[["x", "y", {"x": 1}], ["y", "x", {"x": -1}]])
        with pytest.raises(SchemaError):
            parse_document(bad)

    def test_self_bracket(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(brackets=[["x", "x", {"y": 1}]]))

    def test_jacobi_violation_rejected(self):
        bad = json.dumps(
            {
                "name": "T",
                "dim": 3,
                "basis": ["a", "b", "c"],
                "brackets": [["a", "b", {"c": 1}], ["a", "c", {"a": 1}]],
            }
        )
        with pytest.raises(SchemaError):
            parse_document(bad)

    def test_unknown_form_symbol(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(two_forms={"w": [["x", "z", 1]]}))

    def test_duplicate_form_pair(self):
        bad = minimal(two_forms={"w": [["x", "y", 1], ["y", "x", -1]]})
        with pytest.raises(SchemaError):
            parse_document(bad)

    def test_empty_flag_rejected(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(flags={"F": []}))

    def test_dim_must_be_int(self):
        with pytest.raises(SchemaError):
            parse_document(minimal(dim=True))

    def test_bad_expected_tag(self):
        bad = minimal(
            metadata={"expected": [{"check": "algebra_valid", "value": True, "tag": "guessed"}]}
        )
        with pytest.raises(SchemaError):
            parse_document(bad)


def schema_message(text):
    with pytest.raises(SchemaError) as err:
        parse_document(text)
    return str(err.value)


def expected_entry(**fields):
    entry = {"check": "algebra_valid", "value": True, "tag": "derived"}
    entry.update(fields)
    return minimal(metadata={"expected": [entry]})


class TestSchemaMessages:
    """The exact text of each reader refusal that no corpus document reaches."""

    def test_unknown_symbol_in_a_flag_vector(self):
        text = minimal(flags={"F": [[{"x": 1}], [{"z": 1}]]})
        assert schema_message(text) == "flags['F'][1][0]: unknown basis symbol 'z'"

    def test_unknown_symbol_in_a_subspace_vector(self):
        text = minimal(subspaces={"S": [{"y": 1}, {"z": "1/2"}]})
        assert schema_message(text) == "subspaces['S'][1]: unknown basis symbol 'z'"

    def test_negative_dim(self):
        assert schema_message(minimal(dim=-1, basis=[])) == "dim: must be nonnegative"

    def test_empty_basis_name(self):
        assert schema_message(minimal(basis=["x", ""])) == "basis: names must be nonempty"

    def test_unknown_metadata_field(self):
        text = minimal(metadata={"source": "s", "author": "a"})
        assert schema_message(text) == "metadata: unknown field 'author'"

    def test_unknown_field_in_an_expected_entry(self):
        text = expected_entry(note="n")
        assert schema_message(text) == "metadata.expected[0]: unknown field 'note'"

    def test_missing_field_in_an_expected_entry(self):
        text = minimal(metadata={"expected": [{"check": "algebra_valid", "tag": "derived"}]})
        assert schema_message(text) == "metadata.expected[0]: missing field 'value'"

    def test_unknown_field_is_reported_before_a_missing_one(self):
        text = minimal(metadata={"expected": [{"check": "algebra_valid", "extra": 1}]})
        assert schema_message(text) == "metadata.expected[0]: unknown field 'extra'"

    def test_agrees_must_be_a_bool(self):
        text = expected_entry(agrees="yes")
        assert schema_message(text) == "metadata.expected[0].agrees: expected bool"


class TestSerialization:
    def test_corpus_files_are_canonical(self):
        for name in CORPUS:
            text = corpus_text(name)
            doc = parse_document(text)
            assert serialize_document(doc) == text

    def test_serialize_parse_fixed_point(self):
        doc = parse_document(
            minimal(
                brackets=[["y", "x", {"x": "1/3"}]],
                two_forms={"w": [["x", "y", "2/5"]]},
            )
        )
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text

    def test_output_is_sorted_and_indented(self, e1):
        text = serialize_document(e1)
        assert text.endswith("\n")
        obj = json.loads(text)
        assert list(obj) == sorted(obj)

    def test_written_from_the_integer_stores(self):
        # the Fraction views of the brackets and the forms are left unbuilt
        for name in CORPUS:
            doc = parse_document(corpus_text(name))
            serialize_document(doc)
            assert doc.algebra._table is None
            assert all(form._entries is None for form in doc.two_forms.values())


class TestCorpus:
    def test_listing(self):
        assert list_corpus() == CORPUS

    def test_e1_shape(self, e1):
        assert e1.algebra.dim == 5
        assert e1.algebra.names == ("c", "b", "a", "v", "u")
        nonzero = [
            (i, j)
            for i in range(5)
            for j in range(i + 1, 5)
            if any(c != 0 for c in e1.algebra.table[i][j])
        ]
        assert len(nonzero) == 5
        assert set(e1.flags) == {"F"}
        assert e1.flags["F"].dims == (1, 2, 3, 4, 5)

    def test_all_expected_entries_hold(self):
        for name in CORPUS:
            doc = load_corpus(name)
            for res in evaluate_expected(doc):
                assert res.ok, (name, res.entry.check, res.entry.args, res.computed)

    def test_disagreements_are_marked(self):
        # X2 carries transcription values that deliberately differ
        doc = load_corpus("X2")
        marked = [e for e in doc.metadata.expected if not e.agrees]
        assert len(marked) == 2
        for res in evaluate_expected(doc):
            if not res.entry.agrees:
                assert not res.matched

    def test_form_kernel_dim_check(self):
        # no bundled document records this check; E1's omega has a kernel of dim 1
        obj = json.loads(corpus_text("E1"))
        obj["metadata"]["expected"] = [
            {"check": "form_kernel_dim", "args": {"form": "omega"}, "value": v, "tag": "derived"}
            for v in (1, 2)
        ]
        results = evaluate_expected(parse_document(json.dumps(obj)))
        assert [(r.computed, r.matched) for r in results] == [(1, True), (1, False)]

    def test_every_document_names_a_source(self):
        for name in CORPUS:
            assert load_corpus(name).metadata.source
