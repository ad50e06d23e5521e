"""The JSON document format: parsing, canonical output, recorded values."""

import json
from fractions import Fraction

import pytest

from solvdiag import (
    ParseError,
    RationalFormatError,
    SchemaError,
    Subspace,
    corpus_text,
    evaluate_expected,
    list_corpus,
    load_corpus,
    parse_document,
    parse_rational,
    rational_repr,
    serialize_document,
)
from solvdiag.document import _parse_metadata, subspace_obj

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

    @pytest.mark.parametrize(
        "spelling",
        ["3\n", "1/2\n", "\u0663/\u0664", "\uff13"],
        ids=["int-newline", "ratio-newline", "arabic-indic-digits", "fullwidth-digit"],
    )
    def test_only_the_whole_string_of_ascii_digits_is_read(self, spelling):
        # "$" matched before a final newline and "\d" any Unicode digit
        with pytest.raises(RationalFormatError) as err:
            parse_rational(spelling, "here")
        assert str(err.value) == f"here: {spelling!r} is not an integer or 'p/q'"

    def test_a_sign_and_an_unreduced_ratio_are_read(self):
        assert parse_rational("+3", "here") == 3
        assert parse_rational("-0/5", "here") == 0
        assert parse_rational("006/4", "here") == Fraction(3, 2)

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


def refusal(text):
    with pytest.raises((SchemaError, RationalFormatError)) as err:
        parse_document(text)
    return type(err.value).__name__, str(err.value)


class TestPinnedRefusals:
    """The code, message and precedence of the refusals inside vectors,
    bracket coefficients and metadata entries."""

    @pytest.mark.parametrize(
        "bad, says",
        [
            (True, "boolean is not a rational"),
            (0.5, "0.5 is not an exact rational"),
            (None, "None is not an exact rational"),
        ],
        ids=["bool", "float", "none"],
    )
    def test_a_bad_coefficient_in_a_vector(self, bad, says):
        flag = minimal(flags={"F": [[{"x": 1}], [{"y": 1}, {"x": bad}]]})
        assert refusal(flag) == ("RationalFormatError", f"flags['F'][1][1]['x']: {says}")
        sub = minimal(subspaces={"S": [{"y": 1}, {"x": bad}]})
        assert refusal(sub) == ("RationalFormatError", f"subspaces['S'][1]['x']: {says}")

    def test_a_vector_reports_its_first_bad_key_in_order(self):
        # an unknown symbol before a bad value wins, and a bad value before one
        assert refusal(minimal(subspaces={"S": [{"z": 1, "x": 0.5}]})) == (
            "SchemaError",
            "subspaces['S'][0]: unknown basis symbol 'z'",
        )
        assert refusal(minimal(subspaces={"S": [{"x": 0.5, "z": 1}]})) == (
            "RationalFormatError",
            "subspaces['S'][0]['x']: 0.5 is not an exact rational",
        )
        assert refusal(minimal(flags={"F": [[{"z": 1, "x": 0.5}]]})) == (
            "SchemaError",
            "flags['F'][0][0]: unknown basis symbol 'z'",
        )
        assert refusal(minimal(flags={"F": [[{"x": None, "z": 1}]]})) == (
            "RationalFormatError",
            "flags['F'][0][0]['x']: None is not an exact rational",
        )

    def test_a_vector_or_member_of_the_wrong_type(self):
        assert refusal(minimal(subspaces={"S": [[1, 0]]})) == (
            "SchemaError",
            "subspaces['S'][0]: expected dict, got list",
        )
        assert refusal(minimal(subspaces={"S": {"x": 1}})) == (
            "SchemaError",
            "subspaces['S']: expected list, got dict",
        )
        assert refusal(minimal(flags={"F": [{"x": 1}]})) == (
            "SchemaError",
            "flags['F'][0]: expected list, got dict",
        )

    def test_bracket_coefficients_are_read_before_their_names(self):
        # unlike a vector, every value of a bracket is read before any name
        for coeffs in ({"x": 0.5}, {"z": 1, "x": 0.5}):
            assert refusal(minimal(brackets=[["x", "y", coeffs]])) == (
                "RationalFormatError",
                "brackets[0][2]['x']: 0.5 is not an exact rational",
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"args": {1: "x"}}, "metadata.expected[0].args key: expected str, got int"),
            ({"check": 1}, "metadata.expected[0].check: expected str, got int"),
            ({"tag": 1}, "metadata.expected[0].tag: expected str, got int"),
            ({"tag": None, "check": 1}, "metadata.expected[0].check: expected str, got int"),
        ],
        ids=["args-key", "check", "tag", "check-before-tag"],
    )
    def test_a_metadata_entry_of_the_wrong_type(self, fields, message):
        # JSON keys are strings, so a non-string args key only reaches the
        # metadata reader from Python
        entry = dict({"check": "c", "value": 1, "tag": "derived"}, **fields)
        with pytest.raises(SchemaError) as err:
            _parse_metadata({"expected": [entry]}, {}, {})
        assert str(err.value) == message


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


    def test_subspaces_written_as_their_reduced_rows(self):
        # subspace_obj reads int_rows over each pivot entry; the reduced
        # Fraction view gives the same text
        names = ("a", "b", "c", "d")
        spaces = [Subspace(4, [(2, 4, -6, 0), (0, 3, 1, 5)]), Subspace(4, [(0, 0, 7, -3)])]
        spaces += [Subspace(4, [(Fraction(1, 3), 0, 2, 1)]), Subspace.zero(4), Subspace.full(4)]
        for space in spaces:
            expected = [
                {names[i]: rational_repr(c) for i, c in enumerate(row) if c} for row in space.rows
            ]
            assert subspace_obj(names, space) == expected


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
