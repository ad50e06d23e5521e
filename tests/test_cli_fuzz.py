"""A fuzzer for the command line: corpus documents with fields replaced,
deleted or retyped, run through every subcommand in-process.

Whatever the document, `cli.main` must return 0, 2 or 3, exit 2 must print
a typed `error[CODE]`, and no exception may escape.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solvdiag import corpus_text, list_corpus
from solvdiag.cli import main

CORPUS = {name: json.loads(corpus_text(name)) for name in list_corpus()}

# JSON values a mutation writes: scalars of every JSON type, names that do
# and do not occur in the corpus, and small containers of them
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["", "1/2", "-3", "0/0", "1.5", "x", "c", "omega", "F", "L1", "simple"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["c", "x", "form", "flag", "name"]), inner, max_size=3),
    max_leaves=6,
)


def commands(doc):
    """One argv tail per subcommand, naming what the unmutated doc defines."""
    form = next(iter(doc.get("two_forms", {})), "omega")
    flag = next(iter(doc.get("flags", {})), "F")
    spaces = list(doc.get("subspaces", {})) + ["L1", "L2"]
    return [
        ["validate"],
        ["audit"],
        ["audit", "--json"],
        ["diagram", "--form", form, "--flag", flag, "--contract"],
        ["deform", "--form", form, "--flag", flag],
        ["lagrangians", "--form", form],
        ["bilagrangian", "--form", form, "--left", spaces[0], "--right", spaces[1]],
        ["primitivity", "--form", form, "--json"],
    ]


def _children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


@st.composite
def mutated_documents(draw):
    """(document object, argv tail): one to three mutations of a corpus document."""
    doc = copy.deepcopy(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    argv = draw(st.sampled_from(commands(doc)))
    for _ in range(draw(st.integers(1, 3))):
        # a random walk down from the root picks the field to mutate; it
        # goes one level deeper three times in four, so leaves are common
        parent, key = None, None
        node = doc
        while _children(node) and (parent is None or draw(st.integers(0, 3))):
            parent, key = node, draw(st.sampled_from(_children(node)))
            node = parent[key]
        if parent is None:
            continue
        how = draw(st.sampled_from(["replace", "delete", "retype"]))
        if how == "delete":
            del parent[key]
        elif how == "replace":
            parent[key] = draw(VALUES)
        else:
            parent[key] = draw(
                st.sampled_from([[node], {"x": node}, json.dumps(node), str(node), 1, None])
            )
    return doc, argv


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _without(name, *keys):
    doc = copy.deepcopy(CORPUS[name])
    for key in keys:
        del doc[key]
    return doc


def _with_expected_arg(name, key, value):
    doc = copy.deepcopy(CORPUS[name])
    for entry in doc["metadata"]["expected"]:
        if key in entry["args"]:
            entry["args"][key] = value
    return doc


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=mutated_documents())
@example(case=(_without("E1", "two_forms"), ["audit"]))
@example(case=(_with_expected_arg("E1", "flag", ["F"]), ["audit"]))
@example(case=(_with_expected_arg("E1", "name", ["simple"]), ["audit"]))
def test_mutated_documents_exit_with_a_typed_error(doc_path, case):
    doc, argv = case
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(doc_path), *argv[1:]])
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error[")
