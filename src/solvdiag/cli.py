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
    InputError,
    SolvdiagError,
    is_subalgebra,
    solvability_verdict,
    validate_algebra,
)
from .bilagrangian import BilagrangianPair, audit_connection, connection, curvature_flatness
from .corpus import _evaluated
from .deformation import audit_step, deform_to_simple
from .diagram import (
    contract,
    kernel_chain,
    match_template,
    predicates,
    weight_zero_singulars,
)
from .document import (
    Document,
    _entry_obj,
    document_obj,
    named,
    parse_document,
    rational_repr,
    subspace_obj,
)
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


def _vec_str(vec: dict) -> str:
    """A nonzero vector's text, from its map {name: rational_repr(c)} of nonzero c."""
    out = ""
    for name, c in vec.items():
        if c == 1:
            t = name
        elif c == -1:
            t = f"-{name}"
        else:
            t = f"{c}*{name}"
        if out:
            t = f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        out += t
    return out


def _space_str(rows: list) -> str:
    return ", ".join(map(_vec_str, rows)) or "(zero)"


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
    head, obj = _asked(doc, args)
    obj.update(
        dim=alg.dim,
        algebra_ok=validate_algebra(alg).ok,
        solvability=solvability_verdict(alg).value,
        forms={},
        flags={},
        subspaces={},
    )
    lines = [
        head,
        f"dim: {obj['dim']}",
        f"algebra: ok={json.dumps(obj['algebra_ok'])} solvability={obj['solvability']}",
    ]
    for fname in sorted(doc.two_forms):
        form = doc.two_forms[fname]
        ker = kernel(form)
        rec = obj["forms"][fname] = {
            "closed": is_closed(alg, form),
            "kernel_dim": ker.dim,
            "kernel": subspace_obj(alg.names, ker),
        }
        lines.append(
            f"form {fname}: closed={json.dumps(rec['closed'])} kernel_dim={rec['kernel_dim']}"
        )
    for gname in sorted(doc.flags):
        rep = validate_flag(alg, doc.flags[gname])
        rec = obj["flags"][gname] = {
            "dims": list(rep.dims),
            "chain_ok": rep.chain_ok,
            "subalgebras_ok": rep.subalgebras_ok,
            "composition_ok": rep.composition_ok,
            "normal_in_algebra": list(rep.normal_in_algebra),
        }
        lines.append(
            f"flag {gname}: dims={rec['dims']} chain_ok={json.dumps(rec['chain_ok'])}"
            f" subalgebras={json.dumps(rec['subalgebras_ok'])}"
            f" composition={json.dumps(rec['composition_ok'])}"
        )
    for sname in sorted(doc.subspaces):
        rows = obj["subspaces"][sname] = subspace_obj(alg.names, doc.subspaces[sname])
        lines.append(f"subspace {sname}: dim={len(rows)}")
    return lines, obj


def cmd_diagram(doc: Document, args):
    form = named(doc.two_forms, args.form, "form")
    flag = named(doc.flags, args.flag, "flag")
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
    lines.append("predicates:" + "".join(f" {k}={json.dumps(v)}" for k, v in preds.items()))
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
    form = named(doc.two_forms, args.form, "form")
    flag = named(doc.flags, args.flag, "flag")
    out = deform_to_simple(doc.algebra, form, flag)
    _, obj = _asked(doc, args)
    obj.update(
        members=[subspace_obj(doc.algebra.names, m) for m in out.members],
        member_dims=list(out.dims),
        simple=True,
    )
    lines = ["deformed chain:"]
    for dim, member in zip(obj["member_dims"], obj["members"]):
        lines.append(f"  dim {dim}: {_space_str(member)}")
    lines.append("simple: true")
    return lines, obj


def cmd_lagrangians(doc: Document, args):
    form = named(doc.two_forms, args.form, "form")
    verdict = find_lagrangians(doc.algebra, form, mode=args.mode.replace("-", "_"))
    head, obj = _asked(doc, args)
    obj.update(
        completeness=verdict.completeness.value,
        found=[subspace_obj(doc.algebra.names, s) for s in verdict.found],
    )
    lines = [head, f"completeness: {obj['completeness']}", f"found: {len(obj['found'])}"]
    for i, rows in enumerate(obj["found"]):
        lines.append(f"  L{i}: dim {len(rows)}: {_space_str(rows)}")
    return lines, obj


def cmd_bilagrangian(doc: Document, args):
    names = doc.algebra.names
    form = named(doc.two_forms, args.form, "form")
    left = named(doc.subspaces, args.left, "subspace")
    right = named(doc.subspaces, args.right, "subspace")
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
            if vec := _entry_obj(names, table.consts[i][j], table.denom):
                lines.append(f"  D[{ni}, {nj}] = {_vec_str(vec)}")
                entries.append({"x": ni, "y": nj, "value": vec})
    lines += [f"{key}: {json.dumps(value)}" for key, value in verdicts.items()]
    obj.update(connection=entries, **verdicts)
    return lines, obj


def cmd_primitivity(doc: Document, args):
    names = doc.algebra.names
    form = named(doc.two_forms, args.form, "form")
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
            obj[witness_key] = subspace_obj(names, verdict.witness)
            lines.append(f"  witness: {_space_str(obj[witness_key])}")
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

    # compact texts, equal exactly when `serialize_document`'s indented ones
    # are: both encodings are injective with the same key order
    canon = json.dumps(document_obj(doc), sort_keys=True)
    reparsed = json.dumps(document_obj(parse_document(canon)), sort_keys=True)
    yield ("serialize/parse round trip", canon == reparsed, "")

    closed_forms = {}  # name -> (form, its kernel, whether that is a subalgebra)
    for fname in sorted(doc.two_forms):
        form = doc.two_forms[fname]
        closed = is_closed(alg, form)
        yield (f"form {fname} closedness recorded", True, f"closed={json.dumps(closed)}")
        if not closed:
            continue
        ker = kernel(form)
        closed_forms[fname] = form, ker, is_subalgebra(alg, ker)
        yield (f"form {fname} kernel is a subalgebra", closed_forms[fname][2], f"dim {ker.dim}")

    diagrams = {}  # (form, flag) -> its kernel chain, reused by the recorded expectations
    for gname in sorted(doc.flags):
        flag = doc.flags[gname]
        rep = validate_flag(alg, flag)
        yield (
            f"flag {gname} validated",
            True,
            f"chain_ok={json.dumps(rep.chain_ok)} subalgebras={json.dumps(rep.subalgebras_ok)}",
        )
        if not rep.chain_ok:
            continue
        for fname, (form, _, _) in closed_forms.items():
            d = diagrams[fname, gname] = kernel_chain(alg, form, flag)
            wz = weight_zero_singulars(d)
            ok_rep = all(
                d.vertices[i].vclass.value == "singular-repulsive" for i in wz
            )
            yield (f"diagram {fname}/{gname} weight-zero singulars repulsive", ok_rep, "")
            step_ok = True
            detail = ""
            for low, high in zip(d.vertices, d.vertices[1:]):
                r = audit_step(alg, form, low.member, low.kernel, high.member, high.kernel)
                if not r.ok:
                    step_ok = False
                    detail = f"step {low.index}: {', '.join(r.failures)}"
                    break
            yield (f"diagram {fname}/{gname} step audit", step_ok, detail)
            preds = predicates(alg, d)
            consistent = (not preds.simple or preds.connected) and (
                not preds.semi_simple or preds.semi_normal
            )
            yield (f"diagram {fname}/{gname} predicate consistency", consistent, "")

    solvable = solvability_verdict(alg).value == "COMPLETELY_SOLVABLE"
    if solvable:
        for fname, (form, ker, sub) in closed_forms.items():  # in name order
            if ker.is_zero() or not sub:
                continue
            pair = PairPresentation(algebra=alg, isotropy=ker)
            rep = ideal_closure_audit(pair, form)
            yield (f"form {fname} ideal-closure audit agrees", rep.agree, "")

    if solvable and diagrams and all(sub for _, _, sub in closed_forms.values()):
        first = sorted(closed_forms)[0]
        pair = PairPresentation(algebra=alg, isotropy=closed_forms[first][1])
        quasi = quasi_primitive_test(pair)
        entries = singular_count_audit(diagrams.values(), quasi_verdict=quasi)
        ok_counts = all(
            e.within_connected_bound is not False
            and e.within_quasi_primitive_bound is not False
            for e in entries
        )
        counts = ",".join(str(e.singular_count) for e in entries)
        yield ("singular-count bounds", ok_counts, f"counts={counts}")

    results = _evaluated(doc, diagrams)
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
        return 2 if isinstance(exc, InputError) else 3
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[VALUE]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
