"""Bundled example documents and the evaluator for their recorded values.

Each document's metadata can carry "expected" entries: a named check, its
arguments, and a recorded value tagged "printed" (transcribed from an outside
source) or "derived" (recomputed here).  agrees=True entries must match what
the implementation computes; agrees=False entries record a transcription that
is known to differ, and must keep differing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from typing import Any

from .algebra import validate_algebra
from .diagram import (
    DiagramPredicates,
    WeightedDiagram,
    kernel_chain,
    match_template,
    predicates,
)
from .document import Document, ExpectedEntry, parse_document, rational_repr, subspace_obj
from .flags import validate_flag
from .forms import is_closed, kernel


def list_corpus() -> tuple[str, ...]:
    base = resources.files(__package__) / "corpus_data"
    return tuple(sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json")))


def corpus_text(name: str) -> str:
    path = resources.files(__package__) / "corpus_data" / f"{name}.json"
    return path.read_text(encoding="utf-8")


def load_corpus(name: str) -> Document:
    return parse_document(corpus_text(name))


@dataclass(frozen=True)
class ExpectedResult:
    entry: ExpectedEntry
    computed: Any
    matched: bool

    @property
    def ok(self) -> bool:
        return self.matched == self.entry.agrees


def _diagram_for(doc: Document, args, diagrams: dict) -> WeightedDiagram:
    key = (_arg(args, "form"), _arg(args, "flag"))
    if key not in diagrams:
        diagrams[key] = kernel_chain(doc.algebra, doc.two_forms[key[0]], doc.flags[key[1]])
    return diagrams[key]


def _arg(args, key: str):
    if key not in args:
        raise ValueError(f"expected entry is missing argument {key!r}")
    return args[key]


def compute_check(doc: Document, check: str, args, diagrams: dict) -> Any:
    """Recompute the value an expected entry refers to, as plain JSON data;
    diagrams holds the kernel chains computed so far, by (form, flag)."""
    alg = doc.algebra
    names = alg.names
    if check == "algebra_valid":
        return validate_algebra(alg).ok
    if check == "form_closed":
        return is_closed(alg, doc.two_forms[_arg(args, "form")])
    if check == "form_kernel":
        return subspace_obj(names, kernel(doc.two_forms[_arg(args, "form")]))
    if check == "form_kernel_dim":
        return kernel(doc.two_forms[_arg(args, "form")]).dim
    if check == "chain_ok":
        return validate_flag(alg, doc.flags[_arg(args, "flag")]).chain_ok
    if check == "kernel_dims":
        return list(_diagram_for(doc, args, diagrams).kernel_dims)
    if check == "kernel_member":
        want = _arg(args, "member_dim")
        for v in _diagram_for(doc, args, diagrams).vertices:
            if v.member.dim == want:
                return subspace_obj(names, v.kernel)
        raise ValueError(f"no flag member of dimension {want}")
    if check == "step_directions":
        return [s.value for s in _diagram_for(doc, args, diagrams).steps]
    if check == "template":
        return match_template(_diagram_for(doc, args, diagrams)).value
    if check == "predicate":
        name = _arg(args, "name")
        if name not in {f.name for f in fields(DiagramPredicates)}:
            raise ValueError(f"unknown predicate {name!r}")
        return getattr(predicates(alg, _diagram_for(doc, args, diagrams)), name)
    if check == "singular_member_dims":
        return [v.member.dim for v in _diagram_for(doc, args, diagrams).singular_vertices()]
    if check == "singular_weights":
        singular = _diagram_for(doc, args, diagrams).singular_vertices()
        return [rational_repr(v.weight) for v in singular]
    raise ValueError(f"unknown check {check!r}")


def evaluate_expected(doc: Document) -> tuple[ExpectedResult, ...]:
    return _evaluated(doc, {})


def _evaluated(doc: Document, diagrams: dict) -> tuple[ExpectedResult, ...]:
    """The expected entries, checked in order; they share `diagrams`, the
    kernel chains by (form, flag), as most name one pair."""
    results = []
    for entry in doc.metadata.expected:
        computed = compute_check(doc, entry.check, entry.args, diagrams)
        results.append(
            ExpectedResult(entry=entry, computed=computed, matched=computed == entry.value)
        )
    return tuple(results)
