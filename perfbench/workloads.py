"""The benchmark workloads.

A workload is a sequence of passes.  Pass i of seed s is built from
(s, i) alone, so a seed fixes every input of a run.  Building a pass is the
set-up step (generation, loading); the pass itself is a list of ops, each a
timed call into solvdiag followed by an untimed check that returns the
op's answer.  Each op belongs to a rung (an input-size class); the largest
rung of a pass is its top rung.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from random import Random
from typing import Callable

# Library functions are called as sd.<name> and cli.main, looked up at call
# time, so that a traced run (tracer.py rebinds those attributes) sees them.
import solvdiag as sd
from solvdiag import (
    Covector,
    Flag,
    NestingViolationError,
    PairPresentation,
    SolvdiagError,
    Subspace,
    TwoForm,
    VertexClass,
)
from solvdiag import cli

import checks
from checks import require, rows_text

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "corpus_cli.json"
# Relative to the repository root, which run.py makes the working
# directory, so that `diagram --dot` prints the same path everywhere.
DOT_PATH = "perfbench/.work/diagram.dot"

SINGULAR = ("singular-attractive", "singular-repulsive")


@dataclass
class Op:
    rung: int
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    name: str
    build_pass: Callable[[int, int, bool], list]
    min_passes: int  # every run makes at least this many; the digest covers them
    trace_passes: int  # a traced run makes exactly this many, four times


def _rng(workload: str, seed: int, *parts) -> Random:
    return Random(":".join(str(p) for p in (workload, seed, *parts)))


# ---------------------------------------------------------------------------
# corpus-cli


def corpus_path(name: str) -> str:
    return str(resources.files("solvdiag") / "corpus_data" / f"{name}.json")


def corpus_commands(docs) -> list:
    """(key, dim, argv) for every subcommand over every name each document holds."""
    out = []
    for name, doc in docs.items():
        path = corpus_path(name)
        cmds = [["validate", path], ["validate", path, "--json"], ["audit", path]]
        for form in sorted(doc.two_forms):
            for flag in sorted(doc.flags):
                f = ["--form", form, "--flag", flag]
                cmds.append(["diagram", path, *f, "--contract", "--dot", DOT_PATH])
                cmds.append(["deform", path, *f])
            cmds.append(["lagrangians", path, "--form", form])
            cmds.append(["primitivity", path, "--form", form])
            for left, right in itertools.combinations(sorted(doc.subspaces), 2):
                cmds.append(
                    ["bilagrangian", path, "--form", form, "--left", left, "--right", right]
                )
        for argv in cmds:
            key = " ".join(name if a == path else a for a in argv)
            out.append((key, doc.algebra.dim, argv))
    return out


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout, DOT text or None)."""
    out, err = io.StringIO(), io.StringIO()
    Path(DOT_PATH).parent.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # looked up per call, so a traced run sees it
    dot = None
    if "--dot" in argv and code == 0:
        dot = Path(DOT_PATH).read_text(encoding="utf-8")
    return code, out.getvalue(), dot


def digest_text(text) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def cli_answer(result) -> dict:
    code, stdout, dot = result
    return {"exit": code, "stdout_sha256": digest_text(stdout), "dot_sha256": digest_text(dot)}


def corpus_pass(seed: int, index: int, tiny: bool) -> list:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    names = sd.list_corpus()[:2] if tiny else sd.list_corpus()
    docs = {name: sd.load_corpus(name) for name in names}
    commands = corpus_commands(docs)
    _rng("corpus-cli", seed, index).shuffle(commands)

    def op(key, dim, argv):
        def check(result):
            answer = cli_answer(result)
            require(key in reference, f"no reference for {key!r}")
            require(answer == reference[key], f"{key}: output differs from the reference")
            require(argv[0] != "audit" or answer["exit"] == 0, f"{key}: audit failed")
            return {"cmd": key, **answer}

        return Op(rung=dim, call=lambda: run_cli(argv), check=check)

    return [op(*c) for c in commands]


# ---------------------------------------------------------------------------
# sweep


def diagram_answer(alg, form, d) -> dict:
    """Check a classified diagram against the oracle and summarise it."""
    n = alg.dim
    dims = [v.kernel.dim for v in d.vertices]
    classes = [v.vclass.value for v in d.vertices]
    require(
        all(abs(b - a) == 1 for a, b in zip(dims, dims[1:])),
        "kernel dimensions do not step by one",
    )
    for v in d.vertices:
        member = list(v.member.rows)
        require(
            v.kernel.dim == checks.oracles.oracle_radical_dim(form, member, n),
            f"radical at dim {v.member.dim} has the wrong dimension",
        )
        require(checks.spans_contain(member, v.kernel.rows), "radical leaves its member")
        require(
            all(checks.pairing(form, k, m) == 0 for k in v.kernel.rows for m in member),
            f"radical at dim {v.member.dim} pairs with its member",
        )
        if v.kernel.dim == 0 and v.vclass.value in SINGULAR:
            require(v.vclass.value == "singular-repulsive", "weight-zero singular attracts")
    return {"kernel_dims": dims, "classes": classes}


def sweep_cs(alg, form, flag):
    """Criterion-6 invariants (a)-(d), then deform the normal chain."""
    out = {}
    try:
        d = sd.classify_vertices(sd.kernel_chain(alg, form, flag))
    except NestingViolationError:
        d = None
    out["diagram"] = d
    if d is not None:
        out["b"] = all(
            d.vertices[i].vclass is VertexClass.SINGULAR_REPULSIVE
            for i in sd.weight_zero_singulars(d)
        )
        out["c"] = sd.is_subalgebra(alg, sd.kernel(form)) and all(
            sd.is_subalgebra(alg, sd.radical(form, member))
            for member in sd.complete_solvability_certificate(alg).witness[:2]
        )
        out["d"] = all(
            sd.ce_differential(
                alg, sd.ce_differential_covector(alg, Covector.from_entries(row))
            ).is_zero()
            for row in Subspace.full(alg.dim).rows
        )
    normal = sd.find_normal_flag(alg)
    out["normal"] = normal.flag
    try:
        deformed = sd.deform_to_simple(alg, form, normal.flag)
    except SolvdiagError as exc:
        out["deform"] = exc.code
    else:
        dd = sd.classify_vertices(sd.kernel_chain(alg, form, deformed))
        out["deform"] = (deformed, sd.predicates(alg, dd).simple)
    return out


def check_sweep_cs(alg, form, result) -> dict:
    answer = {"kind": "cs", "dim": alg.dim}
    d = result["diagram"]
    if d is None:
        answer["diagram"] = "NESTING_VIOLATION"
    else:
        answer["diagram"] = diagram_answer(alg, form, d)
        require(result["b"] and result["c"] and result["d"], "criterion-6 invariant failed")
    normal = result["normal"]
    require(normal is not None, "no normal chain for a completely solvable algebra")
    checks.check_ideal_chain(alg, normal.members[1:])
    deform = result["deform"]
    if isinstance(deform, str):
        answer["deform"] = deform
    else:
        flag, simple = deform
        require(simple, "deformed chain is not simple")
        require(
            [checks.rank(list(m.rows)) for m in flag.members] == list(range(alg.dim + 1)),
            "deformed chain has the wrong dimensions",
        )
        answer["deform"] = [rows_text(m) for m in flag.members]
    return answer


def sweep_nil(alg, form):
    """Criterion-6 invariant (e) on a nilpotent instance."""
    verdict = sd.find_lagrangians(alg, form, mode="vergne")
    if not verdict.found:
        return verdict, None
    chain = [s for s in (sd.kernel(form), verdict.found[0]) if not s.is_zero()]
    if not chain:
        return verdict, None
    flag = sd.complete_flag_through(alg, chain)
    return verdict, sd.classify_vertices(sd.kernel_chain(alg, form, flag))


def check_sweep_nil(alg, form, result) -> dict:
    verdict, d = result
    for s in verdict.found:
        checks.check_lagrangian(alg, form, s.rows)
    answer = {"kind": "nil", "dim": alg.dim, "found": [rows_text(s) for s in verdict.found]}
    if d is not None:
        answer["diagram"] = diagram_answer(alg, form, d)
        singular = [c for c in answer["diagram"]["classes"] if c in SINGULAR]
        require(len(singular) <= 2, "more than two singular vertices")
        require(
            len(singular) != 1 or singular[0] == "singular-attractive",
            "a lone singular vertex repels",
        )
    return answer


SWEEP_DIMS = (3, 4, 5, 6)
SWEEP_MIX = (("cs", 3), ("nil", 1))  # per dimension and pass


def sweep_pass(seed: int, index: int, tiny: bool) -> list:
    ops = []
    dims = SWEEP_DIMS[:2] if tiny else SWEEP_DIMS
    for dim in dims:
        for kind, count in SWEEP_MIX:
            for k in range(count):
                rng = _rng("sweep", seed, index, dim, kind, k)
                if kind == "cs":
                    alg = sd.random_completely_solvable(rng, dim)
                    form = sd.random_closed_form(rng, alg)
                    flag = sd.random_full_chain(rng, dim)
                    call = lambda a=alg, f=form, g=flag: sweep_cs(a, f, g)
                    check = lambda r, a=alg, f=form: check_sweep_cs(a, f, r)
                else:
                    alg = sd.random_nilpotent(rng, dim)
                    form = sd.random_closed_form(rng, alg)
                    call = lambda a=alg, f=form: sweep_nil(a, f)
                    check = lambda r, a=alg, f=form: check_sweep_nil(a, f, r)
                ops.append(Op(rung=dim, call=call, check=check))
    return ops


# ---------------------------------------------------------------------------
# bits-ladder: the four pipelines on one instance per rung


def pipeline_ops(rung: int, alg, form, flag, shapes: dict) -> list:
    """validate + certificate, diagram, lagrangians, quasi-primitivity.

    shapes collects the basis-independent verdicts (certificate, diagram,
    decided primitivity); isomorphic instances sharing it must agree.
    """

    def same_shape(key, shape):
        require(shapes.setdefault(key, shape) == shape, f"{key} differs across rungs")

    def certificate():
        return sd.validate_algebra(alg), sd.complete_solvability_certificate(alg)

    def check_certificate(result):
        report, cert = result
        require(report.ok, "generated algebra fails validation")
        require(cert.verdict.value == "COMPLETELY_SOLVABLE", "certificate refused")
        checks.check_ideal_chain(alg, cert.witness)
        same_shape("certificate", cert.verdict.value)
        return {"verdict": cert.verdict.value, "witness": [rows_text(m) for m in cert.witness]}

    def diagram():
        try:
            return sd.classify_vertices(sd.kernel_chain(alg, form, flag))
        except NestingViolationError:
            return None

    def check_diagram(d):
        answer = "NESTING_VIOLATION" if d is None else diagram_answer(alg, form, d)
        same_shape("diagram", answer)
        return answer

    def check_lagrangians(verdict):
        for s in verdict.found:
            checks.check_lagrangian(alg, form, s.rows)
        return {
            "completeness": verdict.completeness.value,
            "found": [rows_text(s) for s in verdict.found],
        }

    def primitivity():
        return sd.quasi_primitive_test(PairPresentation(algebra=alg, isotropy=sd.kernel(form)))

    def check_primitivity(verdict):
        status = verdict.status.value
        require(status != "UNKNOWN" or "hyperplane-pencils" in verdict.searched, "bare UNKNOWN")
        if verdict.witness is not None:
            rows = list(verdict.witness.rows)
            checks.check_subalgebra(alg, rows, "primitivity witness")
            iso = checks.form_kernel(form)
            require(checks.rank(rows) < alg.dim, "primitivity witness is not proper")
            require(checks.rank(rows + iso) == alg.dim, "primitivity witness not transitive")
        if status != "UNKNOWN":  # a decided verdict does not depend on the basis
            same_shape("primitivity", status)
        witness = None if verdict.witness is None else rows_text(verdict.witness)
        return {"status": status, "witness": witness, "searched": list(verdict.searched)}

    return [
        Op(rung, certificate, check_certificate),
        Op(rung, diagram, check_diagram),
        Op(rung, lambda: sd.find_lagrangians(alg, form, mode="both"), check_lagrangians),
        Op(rung, primitivity, check_primitivity),
    ]


BITS_DIM = 4
BITS_RUNGS = (4, 16, 28, 36, 42)


def bits_instance(rng: Random, dim: int):
    """An algebra, the one nonzero weight of its last basis vector, and a
    closed form, such that rescaling that vector by N keeps every constant
    term rational_roots factors at about N times the weight.

    That holds when the last vector has exactly one nonzero weight (diagonal
    entry of its ad matrix in the triangular basis), the certificate's chain
    of ideals stays inside the span of the other vectors (so the descent
    meets the scaled eigenvalue), and quasi-primitivity is decided without
    the pencil search (whose quadratics grow like N squared: at 42 bits the
    current trial division takes minutes to hours there).
    """
    while True:
        alg = sd.random_completely_solvable(rng, dim)
        last = alg.table[dim - 1]
        weights = [last[b][b] for b in range(dim - 1) if last[b][b] != 0]
        if len(weights) != 1:
            continue
        witness = sd.complete_solvability_certificate(alg).witness
        if any(row[-1] != 0 for m in witness[:-1] for row in m.rows):
            continue
        form = sd.random_closed_form(rng, alg)
        pair = PairPresentation(algebra=alg, isotropy=sd.kernel(form))
        if "hyperplane-pencils" not in sd.quasi_primitive_test(pair).searched:
            return alg, weights[0], form


def rescale_last(alg, form, flag, factor: int):
    """The same algebra, form and chain on the basis (e0, ..., N e_{n-1})."""
    n = alg.dim
    scale = [Fraction(1)] * (n - 1) + [Fraction(factor)]
    basis = [[scale[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    big = sd.change_basis(alg, basis)
    entries = [[form.entries[i][j] * scale[i] * scale[j] for j in range(n)] for i in range(n)]
    members = [
        Subspace(n, [[c / s for c, s in zip(row, scale)] for row in m.rows])
        for m in flag.members
    ]
    return big, TwoForm(entries), Flag(members)


def bits_ladder_pass(seed: int, index: int, tiny: bool) -> list:
    """Rung b rescales so that the numerator of N * weight has b + 1 bits."""
    rng = _rng("bits-ladder", seed, index)
    base, weight, form = bits_instance(rng, BITS_DIM)
    flag = sd.random_full_chain(rng, BITS_DIM)
    shapes: dict = {}
    ops = []
    for bits in BITS_RUNGS[:2] if tiny else BITS_RUNGS:
        factor = max(1, (2**bits + rng.randrange(2 ** (bits - 4))) // abs(weight.numerator))
        ops += pipeline_ops(bits, *rescale_last(base, form, flag, factor), shapes)
    return ops


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-cli", corpus_pass, min_passes=2, trace_passes=1),
        Workload("sweep", sweep_pass, min_passes=7, trace_passes=2),
        Workload("bits-ladder", bits_ladder_pass, min_passes=5, trace_passes=1),
    )
}
