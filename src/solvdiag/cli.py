"""Command-line surface over document files.

Exit codes: 0 = computed, 2 = invalid input (malformed file, unknown
name, precondition failure of the requested operation), 3 = a structural
hypothesis failed while computing (non-nesting radicals, stuck descent,
and the like, or a failed audit check).  All output is deterministic
byte-for-byte for a given input; --json switches the verdict commands to
machine-readable output.

Each cmd_* takes the loaded document and the parsed arguments and returns
the human lines and the JSON object; main loads the document, prints one
of the two, and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .algebra import (
    SolvdiagError,
    Subspace,
    complete_solvability_certificate,
    is_subalgebra,
    validate_algebra,
)
from .bilagrangian import BilagrangianPair, audit_connection, connection, curvature_flatness
from .corpus import evaluate_expected
from .deformation import deform_to_simple, step_audit
from .diagram import (
    contract,
    kernel_chain,
    match_template,
    predicates,
    weight_zero_singulars,
)
from .document import Document, parse_document, rational_repr, serialize_document, subspace_obj
from .flags import validate_flag
from .forms import is_closed, kernel
from .lagrangian import find_lagrangians
from .primitivity import (
    PairPresentation,
    degrees,
    ideal_closure_audit,
    primitive_test,
    quasi_primitive_test,
    singular_count_audit,
)
from .render import STYLES, contracted_text, render_dot


class UnknownNameError(SolvdiagError):
    code = "UNKNOWN_NAME"


# Codes that indicate a problem with what the user handed in, as opposed
# to a structural hypothesis failing mid-computation.
INPUT_ERROR_CODES = frozenset(
    {
        "PARSE_ERROR",
        "SCHEMA_ERROR",
        "RATIONAL_FORMAT_ERROR",
        "UNKNOWN_NAME",
        "CHAIN_NOT_NESTED",
        "SUBSPACE_NOT_NESTED",
        "NOT_SUBALGEBRA",
        "NOT_AN_IDEAL",
        "NOT_CLOSED",
        "DEGENERATE_FORM",
        "NOT_LAGRANGIAN",
        "NOT_TRANSVERSE",
        "NOT_SOLVABLE",
    }
)


def _get(table: dict, name: str, what: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise UnknownNameError(f"no {what} named {name!r} (known: {known})")
    return table[name]


def _vec_str(names, v) -> str:
    terms = []
    for name, c in zip(names, v):
        if c == 0:
            continue
        if c == 1:
            t = name
        elif c == -1:
            t = f"-{name}"
        else:
            t = f"{rational_repr(c)}*{name}"
        terms.append(t)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _space_str(names, s: Subspace) -> str:
    if s.is_zero():
        return "(zero)"
    return ", ".join(_vec_str(names, r) for r in s.rows)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _asked(doc: Document, args) -> tuple[str, dict]:
    """The human header line and the JSON keys: the document and each name asked for."""
    obj = {"document": doc.name}
    for key in ("form", "flag", "mode", "left", "right"):
        if getattr(args, key, None) is not None:
            obj[key] = getattr(args, key)
    return "  ".join(f"{key}: {value}" for key, value in obj.items()), obj


def _vertex_obj(names, v) -> dict:
    return {
        "index": v.index,
        "member_dim": v.member.dim,
        "kernel_dim": v.kernel.dim,
        "class": v.vclass.value,
        "weight": rational_repr(v.weight),
        "member": subspace_obj(names, v.member),
        "kernel": subspace_obj(names, v.kernel),
    }


def cmd_validate(doc: Document, args):
    alg = doc.algebra
    names = alg.names
    report = validate_algebra(alg)
    cert = complete_solvability_certificate(alg)
    head, obj = _asked(doc, args)
    lines = [
        head,
        f"dim: {alg.dim}",
        f"algebra: ok={_bool(report.ok)} solvability={cert.verdict.value}",
    ]
    obj.update(
        dim=alg.dim,
        algebra_ok=report.ok,
        solvability=cert.verdict.value,
        forms={},
        flags={},
        subspaces={},
    )
    for fname in sorted(doc.two_forms):
        form = doc.two_forms[fname]
        closed = is_closed(alg, form)
        ker = kernel(form)
        lines.append(f"form {fname}: closed={_bool(closed)} kernel_dim={ker.dim}")
        obj["forms"][fname] = {
            "closed": closed,
            "kernel_dim": ker.dim,
            "kernel": subspace_obj(names, ker),
        }
    for gname in sorted(doc.flags):
        rep = validate_flag(alg, doc.flags[gname])
        lines.append(
            f"flag {gname}: dims={list(rep.dims)} chain_ok={_bool(rep.chain_ok)}"
            f" subalgebras={_bool(rep.subalgebras_ok)}"
            f" composition={_bool(rep.composition_ok)}"
        )
        obj["flags"][gname] = {
            "dims": list(rep.dims),
            "chain_ok": rep.chain_ok,
            "subalgebras_ok": rep.subalgebras_ok,
            "composition_ok": rep.composition_ok,
            "normal_in_algebra": list(rep.normal_in_algebra),
        }
    for sname in sorted(doc.subspaces):
        s = doc.subspaces[sname]
        lines.append(f"subspace {sname}: dim={s.dim}")
        obj["subspaces"][sname] = subspace_obj(names, s)
    return lines, obj


def cmd_diagram(doc: Document, args):
    form = _get(doc.two_forms, args.form, "form")
    flag = _get(doc.flags, args.flag, "flag")
    d = kernel_chain(doc.algebra, form, flag)
    preds = asdict(predicates(doc.algebra, d))
    head, obj = _asked(doc, args)
    obj.update(
        vertices=[_vertex_obj(doc.algebra.names, v) for v in d.vertices],
        steps=[s.value for s in d.steps],
        template=match_template(d).value,
        predicates=preds,
    )
    lines = [head, "vertices:"]
    for v in obj["vertices"]:
        lines.append(
            "  k={index} member_dim={member_dim} kernel_dim={kernel_dim}"
            " class={class} weight={weight}".format(**v)
        )
    lines.append("steps: " + " ".join(obj["steps"]))
    lines.append(f"template: {obj['template']}")
    lines.append("predicates:" + "".join(f" {k}={_bool(v)}" for k, v in preds.items()))
    if args.contract:
        lines.append(f"contracted: {contracted_text(d)}")
        obj["contracted"] = [[s.value, n] for s, n in contract(d)]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(render_dot(d, style=args.dot_style))
        lines.append(f"dot: written to {args.dot}")
        obj["dot"] = args.dot
    return lines, obj


def cmd_deform(doc: Document, args):
    names = doc.algebra.names
    form = _get(doc.two_forms, args.form, "form")
    flag = _get(doc.flags, args.flag, "flag")
    out = deform_to_simple(doc.algebra, form, flag)
    lines = ["deformed chain:"]
    for m in out.members:
        lines.append(f"  dim {m.dim}: {_space_str(names, m)}")
    lines.append("simple: true")
    _, obj = _asked(doc, args)
    obj.update(
        members=[subspace_obj(names, m) for m in out.members],
        member_dims=list(out.dims),
        simple=True,
    )
    return lines, obj


def cmd_lagrangians(doc: Document, args):
    names = doc.algebra.names
    form = _get(doc.two_forms, args.form, "form")
    verdict = find_lagrangians(doc.algebra, form, mode=args.mode.replace("-", "_"))
    head, obj = _asked(doc, args)
    lines = [
        head,
        f"completeness: {verdict.completeness.value}",
        f"found: {len(verdict.found)}",
    ]
    for i, s in enumerate(verdict.found):
        lines.append(f"  L{i}: dim {s.dim}: {_space_str(names, s)}")
    obj.update(
        completeness=verdict.completeness.value,
        found=[subspace_obj(names, s) for s in verdict.found],
    )
    return lines, obj


def cmd_bilagrangian(doc: Document, args):
    names = doc.algebra.names
    form = _get(doc.two_forms, args.form, "form")
    left = _get(doc.subspaces, args.left, "subspace")
    right = _get(doc.subspaces, args.right, "subspace")
    pair = BilagrangianPair(left=left, right=right)
    table = connection(doc.algebra, form, pair)
    verdicts = {
        **asdict(audit_connection(doc.algebra, form, pair, table)),
        "flat": curvature_flatness(doc.algebra, table),
    }
    head, obj = _asked(doc, args)
    lines = [head, "connection (nonzero basis entries):"]
    entries = []
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            v = table.entries[i][j]
            if any(c != 0 for c in v):
                lines.append(f"  D[{ni}, {nj}] = {_vec_str(names, v)}")
                entries.append(
                    {"x": ni, "y": nj, "value": {n: rational_repr(c) for n, c in zip(names, v) if c != 0}}
                )
    lines += [f"{key}: {_bool(value)}" for key, value in verdicts.items()]
    obj.update(connection=entries, **verdicts)
    return lines, obj


def cmd_primitivity(doc: Document, args):
    names = doc.algebra.names
    form = _get(doc.two_forms, args.form, "form")
    pair = PairPresentation(algebra=doc.algebra, isotropy=kernel(form))
    prim = primitive_test(pair)
    quasi = quasi_primitive_test(pair)
    degs = degrees(pair)
    head, obj = _asked(doc, args)
    lines = [head, f"isotropy: kernel of the form, dim {pair.isotropy.dim}"]
    obj["isotropy_dim"] = pair.isotropy.dim
    for key, witness_key, verdict in (
        ("primitive", "primitive_witness", prim),
        ("quasi_primitive", "quasi_witness", quasi),
    ):
        lines.append(f"{key}: {verdict.status.value}")
        obj[key] = verdict.status.value
        obj[witness_key] = None
        if verdict.witness is not None:
            lines.append(f"  witness: {_space_str(names, verdict.witness)}")
            obj[witness_key] = subspace_obj(names, verdict.witness)
    lines.append(f"searched: {', '.join(quasi.searched)}")
    obj["searched"] = list(quasi.searched)
    for key, q in (
        ("ratio", degs.ratio),
        ("degree_lower", degs.d_lower),
        ("degree_within_search", degs.d_within_search),
    ):
        obj[key] = rational_repr(q)
        lines.append(f"{key}: {obj[key]}")
    return lines, obj


def _audit_checks(doc: Document):
    """Every cross-module invariant the document is expected to satisfy.

    Yields (name, ok, detail).  Reported-but-not-required facts (a chain
    with structural defects, a non-closed form) only gate the checks that
    depend on them; recorded expectations and structural invariants fail
    the audit outright.
    """
    alg = doc.algebra
    yield ("algebra jacobi", validate_algebra(alg).ok, "")

    canon = serialize_document(doc)
    reparsed = serialize_document(parse_document(canon))
    yield ("serialize/parse round trip", canon == reparsed, "")

    closed_forms = {}
    for fname in sorted(doc.two_forms):
        form = doc.two_forms[fname]
        closed = is_closed(alg, form)
        yield (f"form {fname} closedness recorded", True, f"closed={_bool(closed)}")
        if not closed:
            continue
        closed_forms[fname] = form
        ker = kernel(form)
        yield (
            f"form {fname} kernel is a subalgebra",
            is_subalgebra(alg, ker),
            f"dim {ker.dim}",
        )

    diagrams = []
    for gname in sorted(doc.flags):
        flag = doc.flags[gname]
        rep = validate_flag(alg, flag)
        yield (
            f"flag {gname} validated",
            True,
            f"chain_ok={_bool(rep.chain_ok)} subalgebras={_bool(rep.subalgebras_ok)}",
        )
        if not rep.chain_ok:
            continue
        for fname, form in closed_forms.items():
            d = kernel_chain(alg, form, flag)
            diagrams.append(d)
            wz = weight_zero_singulars(d)
            ok_rep = all(
                d.vertices[i].vclass.value == "singular-repulsive" for i in wz
            )
            yield (f"diagram {fname}/{gname} weight-zero singulars repulsive", ok_rep, "")
            step_ok = True
            detail = ""
            for k in d.member_dims[:-1]:
                r = step_audit(alg, form, flag, k)
                if not r.ok:
                    step_ok = False
                    detail = f"step {k}: {', '.join(r.failures)}"
                    break
            yield (f"diagram {fname}/{gname} step audit", step_ok, detail)
            preds = predicates(alg, d)
            consistent = (not preds.simple or preds.connected) and (
                not preds.semi_simple or preds.semi_normal
            )
            yield (f"diagram {fname}/{gname} predicate consistency", consistent, "")

    solvable = (
        complete_solvability_certificate(alg).verdict.value == "COMPLETELY_SOLVABLE"
    )
    if solvable:
        for fname in sorted(closed_forms):
            form = closed_forms[fname]
            ker = kernel(form)
            if ker.is_zero() or not is_subalgebra(alg, ker):
                continue
            pair = PairPresentation(algebra=alg, isotropy=ker)
            rep = ideal_closure_audit(pair, form)
            yield (f"form {fname} ideal-closure audit agrees", rep.agree, "")

    if (
        solvable
        and diagrams
        and all(is_subalgebra(alg, kernel(f)) for f in closed_forms.values())
    ):
        first = sorted(closed_forms)[0]
        pair = PairPresentation(algebra=alg, isotropy=kernel(closed_forms[first]))
        quasi = quasi_primitive_test(pair)
        entries = singular_count_audit(pair, diagrams, quasi_verdict=quasi)
        ok_counts = all(
            e.within_connected_bound is not False
            and e.within_quasi_primitive_bound is not False
            for e in entries
        )
        counts = ",".join(str(e.singular_count) for e in entries)
        yield ("singular-count bounds", ok_counts, f"counts={counts}")

    results = evaluate_expected(doc)
    bad = [r for r in results if not r.ok]
    detail = "" if not bad else (
        f"first mismatch: {bad[0].entry.check} {bad[0].entry.args} "
        f"recorded={bad[0].entry.value!r} computed={bad[0].computed!r}"
    )
    yield (f"recorded expectations ({len(results)} entries)", not bad, detail)


def cmd_audit(doc: Document, args):
    head, obj = _asked(doc, args)
    lines = [head]
    checks = []
    ok = True
    for name, passed, detail in _audit_checks(doc):
        checks.append({"name": name, "ok": passed, "detail": detail})
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{'ok  ' if passed else 'FAIL'} {name}{suffix}")
        ok = ok and passed
    lines.append(f"audit result: {'ok' if ok else 'FAIL'} ({len(checks)} checks)")
    obj.update(checks=checks, ok=ok)
    return lines, obj


@functools.cache  # built on first use; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solvdiag",
        description="Kernel-chain diagrams of closed 2-forms on solvable Lie algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, form=False, flag=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="document JSON file")
        if form:
            sp.add_argument("--form", required=True, help="name of a 2-form in the document")
        if flag:
            sp.add_argument("--flag", required=True, help="name of a chain in the document")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(handler=handler)
        return sp

    add("validate", cmd_validate, "parse a document and report its structure")

    sp = add("diagram", cmd_diagram, "kernel chain along a flag", form=True, flag=True)
    sp.add_argument("--contract", action="store_true", help="also print the contracted shape")
    sp.add_argument("--dot", metavar="PATH", help="write a DOT rendering to PATH")
    sp.add_argument("--dot-style", choices=STYLES, default="graph", help="DOT layout")

    add("deform", cmd_deform, "deform a chain until its diagram is simple", form=True, flag=True)

    sp = add("lagrangians", cmd_lagrangians, "search for Lagrangian subalgebras", form=True)
    sp.add_argument(
        "--mode",
        choices=("vergne", "flag-adapted", "both"),
        default="both",
        help="search strategy",
    )

    sp = add("bilagrangian", cmd_bilagrangian, "connection of a transverse pair", form=True)
    sp.add_argument("--left", required=True, help="name of a subspace in the document")
    sp.add_argument("--right", required=True, help="name of a subspace in the document")

    add("primitivity", cmd_primitivity, "primitivity of the pair (algebra, form kernel)", form=True)

    add("audit", cmd_audit, "run the full invariant suite on a document")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = parse_document(fh.read())
        lines, obj = args.handler(doc, args)
        print(json.dumps(obj, indent=2, sort_keys=True) if args.json else "\n".join(lines))
        return 3 if args.command == "audit" and not obj["ok"] else 0
    except SolvdiagError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2 if exc.code in INPUT_ERROR_CODES else 3
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[VALUE]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
