"""JSON documents describing an algebra with named forms, flags, subspaces.

The format is deliberately small: a basis of distinct names, sparse bracket
triples (antisymmetry implied), named two-forms as sparse pair lists, named
flags and subspaces as lists of coefficient maps, and a metadata block that
can carry expected values for regression checks.  All rationals are exact:
JSON integers or strings "p/q".
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import getitem
from typing import Any, Mapping

from . import linalg
from .algebra import Flag, InputError, LieAlgebra, Subspace, validate_algebra
from .forms import TwoForm


class ParseError(InputError):
    code = "PARSE_ERROR"


class SchemaError(InputError):
    code = "SCHEMA_ERROR"


class RationalFormatError(InputError):
    code = "RATIONAL_FORMAT_ERROR"


class UnknownNameError(InputError):
    code = "UNKNOWN_NAME"


def named(table: Mapping, name: str, what: str):
    """table[name], or an UnknownNameError that lists the known names."""
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise UnknownNameError(f"no {what} named {name!r} (known: {known})")
    return table[name]


_TOP_KEYS = {"name", "dim", "basis", "brackets", "two_forms", "flags", "subspaces", "metadata"}
_META_KEYS = {"source", "notes", "expected"}
_EXPECTED_KEYS = {"check", "args", "value", "tag", "agrees"}
_TAGS = ("printed", "derived")
_MAX_NESTING = 100  # levels of lists and dicts in a recorded value or args, later read recursively


def _parse_ratio(value: object, where: str) -> tuple[int, int]:
    """(p, q), q > 0, with value = p/q: a JSON int or string, read by
    `linalg._ratio`, whose refusal follows where.  A refusal quotes the value."""
    if isinstance(value, bool):
        raise RationalFormatError(f"{where}: boolean is not a rational")
    if isinstance(value, (int, str)):
        try:
            return linalg._ratio(value)
        except ValueError as exc:
            raise RationalFormatError(f"{where}: {exc}") from None
    raise RationalFormatError(f"{where}: {linalg._quoted(value)} is not an exact rational")


def parse_rational(value: object, where: str) -> Fraction:
    """Exact rational from a JSON scalar: int, or string 'p/q'."""
    return Fraction(*_parse_ratio(value, where))


def rational_repr(value) -> object:
    """Canonical JSON spelling: int when integral, else 'p/q'."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class ExpectedEntry:
    """One recorded value: a check id, its arguments, and the value itself.

    tag says where the value comes from ("printed" for transcribed values,
    "derived" for recomputed ones); agrees=False marks a transcription that
    is known to differ from what the implementation computes.
    """

    check: str
    args: Mapping[str, Any]
    value: Any
    tag: str
    agrees: bool = True


@dataclass(frozen=True)
class Metadata:
    source: str = ""
    notes: tuple[str, ...] = ()
    expected: tuple[ExpectedEntry, ...] = ()


@dataclass(frozen=True)
class Document:
    name: str
    algebra: LieAlgebra
    two_forms: Mapping[str, TwoForm] = field(default_factory=dict)
    flags: Mapping[str, Flag] = field(default_factory=dict)
    subspaces: Mapping[str, Subspace] = field(default_factory=dict)
    metadata: Metadata = field(default_factory=Metadata)


def _at(where: str, path) -> str:
    """A location: where, then [p] for each int p of path and each str p as it is."""
    return where + "".join(f"[{p}]" if type(p) is int else p for p in path)


def _expect(obj: object, kind: type, where: str, *path):
    """obj, if it is a `kind` (a bool is not an int); `_at` runs only on a refusal."""
    if type(obj) is kind:
        return obj
    if kind is int and isinstance(obj, bool):
        raise SchemaError(f"{_at(where, path)}: expected {kind.__name__}, got bool")
    if not isinstance(obj, kind):
        raise SchemaError(f"{_at(where, path)}: expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _expect_fields(raw: object, allowed, required, where: str, *path) -> None:
    """That raw is a dict with no field outside `allowed` and every `required` one."""
    _expect(raw, dict, where, *path)
    for key in raw:
        if key not in allowed:
            raise SchemaError(f"{_at(where, path)}: unknown field {key!r}")
    for key in required:
        if key not in raw:
            raise SchemaError(f"{_at(where, path)}: missing field {key!r}")


def _parse_member_list(raw: object, index: Mapping[str, int], where: str) -> Subspace:
    """The span of the coefficient maps listed at `where`, each read straight into
    an integer row over the lcm of its denominators (a name before its value)."""
    rows = []
    for i, coeffs in enumerate(_expect(raw, list, where)):
        _expect(coeffs, dict, where, i)
        row, scale = [0] * len(index), 1
        for key, val in coeffs.items():
            k = index.get(key)
            if k is None:
                raise SchemaError(f"{where}[{i}]: unknown basis symbol {key!r}")
            p, q = (val, 1) if type(val) is int else _parse_ratio(val, f"{where}[{i}][{key!r}]")
            if scale % q:
                up = q // math.gcd(scale, q)
                row = [x * up for x in row]
                scale *= up
            row[k] = p * (scale // q)
        rows.append(row)
    return Subspace(len(index), rows)


def _parse_pair_list(raw: object, index: Mapping[str, int], where: str, words, parse_value):
    """The items [x, y, value] of the list at `where`, as (x, y, parsed value).

    x and y must be distinct basis names and each unordered pair may occur
    once; `parse_value(value, where, i)` reads the value of item i.  words =
    (the value's slot, what an item is, what a duplicate is) in the messages.
    """
    slot, item_noun, duplicate_noun = words
    out = []
    seen: set[frozenset[str]] = set()
    for i, item in enumerate(_expect(raw, list, where)):
        if len(_expect(item, list, where, i)) != 3:
            raise SchemaError(f"{where}[{i}]: expected [x, y, {slot}]")
        x = _expect(item[0], str, where, i, 0)
        y = _expect(item[1], str, where, i, 1)
        for nm in (x, y):
            if nm not in index:
                raise SchemaError(f"{where}[{i}]: unknown basis symbol {nm!r}")
        if x == y:
            raise SchemaError(f"{where}[{i}]: {item_noun} of {x!r} with itself")
        pair = frozenset((x, y))
        if pair in seen:
            raise SchemaError(f"{where}[{i}]: duplicate {duplicate_noun} for ({x!r}, {y!r})")
        seen.add(pair)
        out.append((x, y, parse_value(item[2], where, i)))
    return out


def parse_document(text: str) -> Document:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply to read") from exc
    except ValueError as exc:  # an integer of more digits than int() reads
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: a number of more than {limit} digits") from exc
    _expect_fields(raw, _TOP_KEYS, ("name", "dim", "basis", "brackets"), "document")

    name = _expect(raw["name"], str, "name")
    dim = _expect(raw["dim"], int, "dim")
    if dim < 0:
        raise SchemaError("dim: must be nonnegative")
    basis_raw = _expect(raw["basis"], list, "basis")
    names = tuple(_expect(nm, str, "basis", i) for i, nm in enumerate(basis_raw))
    if len(names) != dim:
        raise SchemaError(f"basis: expected {dim} names, got {len(names)}")
    if len(set(names)) != len(names):
        raise SchemaError("basis: names must be distinct")
    if any(not nm for nm in names):
        raise SchemaError("basis: names must be nonempty")
    index = {nm: i for i, nm in enumerate(names)}

    def coefficients(coeffs: object, where: str, i: int) -> dict[str, object]:
        # every value is read before any name is checked
        _expect(coeffs, dict, where, i, 2)
        out = {
            k: v if type(v) is int else parse_rational(v, f"{where}[{i}][2][{k!r}]")
            for k, v in coeffs.items()
        }
        for k in out:
            if k not in index:
                raise SchemaError(f"{where}[{i}]: unknown basis symbol {k!r}")
        return out

    def value(v: object, where: str, i: int) -> object:
        return v if type(v) is int else parse_rational(v, f"{where}[{i}][2]")

    words = ("coefficients", "bracket", "bracket")
    triples = _parse_pair_list(raw["brackets"], index, "brackets", words, coefficients)
    # the checks above leave from_brackets nothing to refuse
    algebra = LieAlgebra.from_brackets(names, {(x, y): cs for x, y, cs in triples})
    report = validate_algebra(algebra)
    if not report.ok:
        raise SchemaError("brackets: structure constants violate the Jacobi identity")

    two_forms: dict[str, TwoForm] = {}
    for fname, pairs_raw in _expect(raw.get("two_forms", {}), dict, "two_forms").items():
        where = f"two_forms[{fname!r}]"
        items = _parse_pair_list(pairs_raw, index, where, ("value", "pairing", "entry"), value)
        two_forms[fname] = TwoForm.from_pairs(dim, [(index[x], index[y], c) for x, y, c in items])

    flags: dict[str, Flag] = {}
    for gname, chain_raw in _expect(raw.get("flags", {}), dict, "flags").items():
        where = f"flags[{gname!r}]"
        _expect(chain_raw, list, where)
        if not chain_raw:
            raise SchemaError(f"{where}: a flag needs at least one member")
        members = [
            _parse_member_list(m, index, f"{where}[{i}]") for i, m in enumerate(chain_raw)
        ]
        flags[gname] = Flag(members)

    subspaces: dict[str, Subspace] = {}
    for sname, vecs_raw in _expect(raw.get("subspaces", {}), dict, "subspaces").items():
        subspaces[sname] = _parse_member_list(vecs_raw, index, f"subspaces[{sname!r}]")

    metadata = _parse_metadata(raw.get("metadata", {}), two_forms, flags)

    return Document(
        name=name,
        algebra=algebra,
        two_forms=two_forms,
        flags=flags,
        subspaces=subspaces,
        metadata=metadata,
    )


def _nesting(obj: object) -> int:
    """How deep lists and dicts nest in obj (0 for a scalar): level by level, so no stack."""
    depth, level = 0, [obj]
    while level := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        level = [y for x in level for y in (x.values() if isinstance(x, dict) else x)]
    return depth


def _parse_metadata(raw: object, two_forms: Mapping, flags: Mapping) -> Metadata:
    _expect_fields(raw, _META_KEYS, (), "metadata")
    source = _expect(raw.get("source", ""), str, "metadata.source")
    notes_raw = _expect(raw.get("notes", []), list, "metadata.notes")
    notes = tuple(
        _expect(n, str, "metadata.notes", i) for i, n in enumerate(notes_raw)
    )
    expected_raw = _expect(raw.get("expected", []), list, "metadata.expected")
    expected = []
    for i, item in enumerate(expected_raw):
        _expect_fields(item, _EXPECTED_KEYS, ("check", "value", "tag"), "metadata.expected", i)
        check = _expect(item["check"], str, "metadata.expected", i, ".check")
        args = _expect(item.get("args", {}), dict, "metadata.expected", i, ".args")
        for k in args:
            _expect(k, str, "metadata.expected", i, ".args key")
        # names are strings, the form and flag defined; a member dimension is an int
        for key, kind in (("form", str), ("flag", str), ("name", str), ("member_dim", int)):
            if key in args:
                _expect(args[key], kind, "metadata.expected", i, ".args.", key)
        if "form" in args:
            named(two_forms, args["form"], "form")
        if "flag" in args:
            named(flags, args["flag"], "flag")
        tag = _expect(item["tag"], str, "metadata.expected", i, ".tag")
        if tag not in _TAGS:
            raise SchemaError(f"metadata.expected[{i}].tag: expected one of {_TAGS}, got {tag!r}")
        agrees = item.get("agrees", True)
        if not isinstance(agrees, bool):
            raise SchemaError(f"metadata.expected[{i}].agrees: expected bool")
        for key in ("args", "value"):
            if _nesting(item.get(key)) > _MAX_NESTING:
                raise SchemaError(f"metadata.expected[{i}].{key}: over {_MAX_NESTING} levels deep")
        expected.append(
            ExpectedEntry(check=check, args=dict(args), value=item["value"], tag=tag, agrees=agrees)
        )
    return Metadata(source=source, notes=notes, expected=tuple(expected))


def _entry_obj(names: tuple[str, ...], cs, denom: int) -> dict[str, object]:
    """Canonical JSON encoding of a table entry: its nonzero (k, c), over denom."""
    return {names[k]: c if denom == 1 else rational_repr(Fraction(c, denom)) for k, c in cs}


def subspace_obj(names: tuple[str, ...], space: Subspace) -> list[dict[str, object]]:
    """Canonical JSON encoding of a subspace: each of `int_rows` over its pivot entry."""
    return [
        {names[i]: c if d == 1 else rational_repr(Fraction(c, d)) for i, c in enumerate(row) if c}
        for row, d in zip(space.int_rows, map(getitem, space.int_rows, space.pivots))
    ]


def document_obj(doc: Document) -> dict[str, object]:
    """Plain-JSON object for a document, canonical and sparse, read off the integer stores."""
    alg = doc.algebra
    names = alg.names
    n = alg.dim
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            if cs := alg.consts[i][j]:
                brackets.append([names[i], names[j], _entry_obj(names, cs, alg.denom)])
    two_forms = {}
    for fname, form in doc.two_forms.items():
        m = form.numer
        two_forms[fname] = [
            [names[i], names[j], rational_repr(Fraction(m[i][j], form.denom))]
            for i in range(n) for j in range(i + 1, n) if m[i][j]
        ]
    flags = {
        gname: [subspace_obj(names, m) for m in flag.members]
        for gname, flag in doc.flags.items()
    }
    subspaces = {
        sname: subspace_obj(names, space) for sname, space in doc.subspaces.items()
    }
    expected = [
        {
            "check": e.check,
            "args": e.args,
            "value": e.value,
            "tag": e.tag,
            "agrees": e.agrees,
        }
        for e in doc.metadata.expected
    ]
    return {
        "name": doc.name,
        "dim": n,
        "basis": list(names),
        "brackets": brackets,
        "two_forms": two_forms,
        "flags": flags,
        "subspaces": subspaces,
        "metadata": {
            "source": doc.metadata.source,
            "notes": list(doc.metadata.notes),
            "expected": expected,
        },
    }


def serialize_document(doc: Document) -> str:
    """Deterministic text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(document_obj(doc), indent=2, sort_keys=True) + "\n"
