"""End-to-end checks of the command-line surface.

Runs main() in-process for speed; one test shells out to the installed
console script to confirm the packaging entry point works.
"""

import hashlib
import importlib
import itertools
import json
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import solvdiag
from dot_parser import parse_dot
from solvdiag import (
    Flag,
    LieAlgebra,
    Subspace,
    TwoForm,
    classify_vertices,
    corpus_text,
    kernel_chain,
    list_corpus,
    load_corpus,
    render_dot,
)
from solvdiag import algebra
from solvdiag.cli import main


def corpus_path(name):
    return str(resources.files("solvdiag") / "corpus_data" / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_doc(tmp_path, obj, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


SL2_DOC = {
    "name": "sl2doc",
    "dim": 3,
    "basis": ["e", "f", "h"],
    "brackets": [["h", "e", {"e": 2}], ["h", "f", {"f": -2}], ["e", "f", {"h": 1}]],
    "two_forms": {"omega": [["e", "f", 1]]},
    "flags": {},
    "subspaces": {},
    "metadata": {"source": "test"},
}


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out, err = run(capsys, "validate", corpus_path("E1"))
        assert code == 0
        assert err == ""

    def test_unknown_form_name(self, capsys):
        code, out, err = run(capsys, "diagram", corpus_path("E1"), "--form", "nope", "--flag", "F")
        assert code == 2
        assert err == "error[UNKNOWN_NAME]: no form named 'nope' (known: omega)\n"

    def test_unknown_flag_name(self, capsys):
        code, _, err = run(capsys, "diagram", corpus_path("E1"), "--form", "omega", "--flag", "G")
        assert code == 2
        assert "error[UNKNOWN_NAME]" in err

    def test_unknown_subspace_name(self, capsys):
        code, _, err = run(
            capsys, "bilagrangian", corpus_path("D1"),
            "--form", "omega", "--left", "L9", "--right", "L2",
        )
        assert code == 2
        assert "error[UNKNOWN_NAME]" in err
        assert "L1, L2, L3, L4" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 2
        assert err.startswith("error[IO]:")

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2
        assert err.startswith("error[PARSE_ERROR]:")
        assert "line 1" in err

    def test_schema_error(self, capsys, tmp_path):
        obj = json.loads(corpus_text("E1"))
        obj["bogus"] = 1
        code, _, err = run(capsys, "validate", write_doc(tmp_path, obj))
        assert code == 2
        assert err.startswith("error[SCHEMA_ERROR]:")

    def test_expected_entry_naming_an_undefined_form(self, capsys, tmp_path):
        obj = json.loads(corpus_text("E1"))
        del obj["two_forms"]
        code, out, err = run(capsys, "audit", write_doc(tmp_path, obj))
        assert (code, out) == (2, "")
        assert err == "error[UNKNOWN_NAME]: no form named 'omega' (known: none)\n"

    def test_expected_entry_with_a_list_valued_flag(self, capsys, tmp_path):
        obj = json.loads(corpus_text("E1"))
        entry = next(e for e in obj["metadata"]["expected"] if "flag" in e["args"])
        entry["args"]["flag"] = ["F"]
        code, _, err = run(capsys, "audit", write_doc(tmp_path, obj))
        assert code == 2
        assert err.startswith("error[SCHEMA_ERROR]: metadata.expected[")
        assert ".args.flag: expected str, got list" in err

    def test_expected_entry_with_a_list_valued_predicate_name(self, capsys, tmp_path):
        obj = json.loads(corpus_text("E1"))
        entry = next(e for e in obj["metadata"]["expected"] if e["check"] == "predicate")
        entry["args"]["name"] = ["simple"]
        code, _, err = run(capsys, "validate", write_doc(tmp_path, obj))
        assert code == 2
        assert err.startswith("error[SCHEMA_ERROR]: metadata.expected[")
        assert ".args.name: expected str, got list" in err

    def test_structural_failure_is_exit_3(self, capsys):
        # X3/F2 deforms into a split whose components are not all simple
        code, _, err = run(
            capsys, "deform", corpus_path("X3"), "--form", "omega", "--flag", "F2"
        )
        assert code == 3
        assert err.startswith("error[NOT_SEMISIMPLE]:")

    def test_precondition_failure_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "bilagrangian", corpus_path("D1"),
            "--form", "omega", "--left", "L1", "--right", "L3",
        )
        assert code == 2
        assert err.startswith("error[NOT_TRANSVERSE]:")

    def test_not_solvable_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "primitivity", write_doc(tmp_path, SL2_DOC), "--form", "omega"
        )
        assert code == 2
        assert err.startswith("error[NOT_SOLVABLE]:")

    def test_irrational_spectrum_is_exit_3(self, capsys, tmp_path):
        obj = {
            "name": "sqrt2",
            "dim": 3,
            "basis": ["t", "x", "y"],
            "brackets": [["t", "x", {"y": 1}], ["t", "y", {"x": 2}]],
            "two_forms": {"omega": [["x", "y", 1]]},
            "flags": {},
            "subspaces": {},
            "metadata": {"source": "test"},
        }
        code, out, err = run(capsys, "primitivity", write_doc(tmp_path, obj), "--form", "omega")
        assert code == 3
        assert out == ""
        assert err.startswith("error[UNDECIDED_IRRATIONAL_SPECTRUM]:")

    def test_audit_failure_is_exit_3(self, capsys, tmp_path):
        obj = json.loads(corpus_text("E1"))
        for ent in obj["metadata"]["expected"]:
            if ent["check"] == "template":
                ent["value"] = "alpha"
        code, out, _ = run(capsys, "audit", write_doc(tmp_path, obj))
        assert code == 3
        assert any(line.startswith("FAIL recorded expectations") for line in out.splitlines())
        assert "audit result: FAIL" in out

    def test_audit_of_an_unknown_check_is_a_value_error(self, capsys, tmp_path):
        # validate reads no recorded expectation, so it passes the same file
        obj = json.loads(corpus_text("E1"))
        obj["metadata"]["expected"].append({"check": "nope", "value": 0, "tag": "derived"})
        path = write_doc(tmp_path, obj)
        assert run(capsys, "audit", path) == (2, "", "error[VALUE]: unknown check 'nope'\n")
        assert run(capsys, "validate", path)[0] == 0

    def test_bad_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["lagrangians", corpus_path("D1"), "--form", "omega", "--mode", "fastest"])

    def test_bad_dot_style_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "diagram", corpus_path("E1"), "--form", "omega", "--flag", "F",
                "--dot", "/tmp/x.dot", "--dot-style", "circular",
            ])


class TestValidate:
    def test_e1_human_output(self, capsys):
        code, out, _ = run(capsys, "validate", corpus_path("E1"))
        assert code == 0
        assert out.splitlines() == [
            "document: E1",
            "dim: 5",
            "algebra: ok=true solvability=COMPLETELY_SOLVABLE",
            "form omega: closed=true kernel_dim=1",
            "flag F: dims=[1, 2, 3, 4, 5] chain_ok=true subalgebras=true composition=true",
        ]

    def test_x3_reports_defective_flags_without_failing(self, capsys):
        code, out, _ = run(capsys, "validate", corpus_path("X3"))
        assert code == 0
        lines = out.splitlines()
        assert "flag F1: dims=[1, 2, 3, 4, 5] chain_ok=true subalgebras=false composition=false" in lines
        assert "flag F3_printed: dims=[2, 2, 3, 4, 5] chain_ok=false subalgebras=true composition=false" in lines

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "validate", corpus_path("E1"), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["document"] == "E1"
        assert obj["algebra_ok"] is True
        assert obj["solvability"] == "COMPLETELY_SOLVABLE"
        assert obj["forms"]["omega"] == {
            "closed": True,
            "kernel_dim": 1,
            "kernel": [{"c": 1}],
        }
        assert obj["flags"]["F"]["dims"] == [1, 2, 3, 4, 5]


class TestDiagram:
    def test_e1_human_output(self, capsys):
        code, out, _ = run(
            capsys, "diagram", corpus_path("E1"), "--form", "omega", "--flag", "F", "--contract"
        )
        assert code == 0
        assert out.splitlines() == [
            "document: E1  form: omega  flag: F",
            "vertices:",
            "  k=1 member_dim=1 kernel_dim=1 class=endpoint-left weight=1",
            "  k=2 member_dim=2 kernel_dim=2 class=regular-reducible weight=2",
            "  k=3 member_dim=3 kernel_dim=3 class=singular-attractive weight=3",
            "  k=4 member_dim=4 kernel_dim=2 class=regular-non-reducible weight=2/3",
            "  k=5 member_dim=5 kernel_dim=1 class=endpoint-right weight=1/5",
            "steps: U U D D",
            "template: delta",
            "predicates: connected=true simple=true semi_normal=true"
            " semi_nilpotent=true semi_simple=true",
            "contracted: O[1] -> O[3] <=> O[5]",
        ]

    def test_d1_contracted_alternates(self, capsys):
        code, out, _ = run(
            capsys, "diagram", corpus_path("D1"), "--form", "omega", "--flag", "F2comp",
            "--contract",
        )
        assert code == 0
        assert "contracted: O[0] -> O[1] <=> O[2] -> O[3] <=> O[4]" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "diagram", corpus_path("E1"), "--form", "omega", "--flag", "F",
            "--contract", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["steps"] == ["U", "U", "D", "D"]
        assert obj["template"] == "delta"
        assert obj["contracted"] == [["U", 2], ["D", 2]]
        assert obj["predicates"]["simple"] is True
        v0 = obj["vertices"][0]
        assert v0["index"] == 1
        assert v0["class"] == "endpoint-left"
        assert v0["weight"] == 1
        assert obj["vertices"][3]["weight"] == "2/3"
        assert v0["kernel"] == [{"c": 1}]


class TestDot:
    def test_graph_style_e1(self, capsys, tmp_path):
        dot = tmp_path / "e1.dot"
        code, out, _ = run(
            capsys, "diagram", corpus_path("E1"), "--form", "omega", "--flag", "F",
            "--dot", str(dot), "--dot-style", "graph",
        )
        assert code == 0
        assert f"dot: written to {dot}" in out
        g = parse_dot(dot.read_text(encoding="utf-8"))
        # three rows of five: kernels, members, symplectic quotients
        assert set(g.nodes) == {
            f"{p}{k}" for p in ("H", "G", "M") for k in range(1, 6)
        }
        for k in range(1, 6):
            assert (f"H{k}", f"G{k}") in g.edge_pairs()
            assert (f"G{k}", f"M{k}") in g.edge_pairs()
        for k in range(1, 5):
            assert (f"G{k}", f"G{k + 1}") in g.edge_pairs()
        mw = [(a, b) for a, b, attrs in g.edges if attrs.get("label") == "mw"]
        # exactly one reduction edge per descending step, pointing left
        assert mw == [("M4", "M3"), ("M5", "M4")]
        assert ("H2", "H1") not in g.edge_pairs()
        assert ("H4", "H3") in g.edge_pairs()

    def test_diagram_style_x3(self, capsys, tmp_path):
        dot = tmp_path / "x3.dot"
        code, _, _ = run(
            capsys, "diagram", corpus_path("X3"), "--form", "omega", "--flag", "F1",
            "--dot", str(dot), "--dot-style", "diagram",
        )
        assert code == 0
        g = parse_dot(dot.read_text(encoding="utf-8"))
        assert set(g.nodes) == {f"S{k}" for k in range(1, 6)}
        # U steps one edge, D steps a pair of opposite edges
        assert sorted(g.edge_pairs()) == [
            ("S1", "S2"),
            ("S2", "S3"),
            ("S3", "S4"),
            ("S4", "S3"),
            ("S4", "S5"),
            ("S5", "S4"),
        ]

    def test_node_labels_carry_class_and_weight(self, capsys, tmp_path):
        dot = tmp_path / "e1.dot"
        run(
            capsys, "diagram", corpus_path("E1"), "--form", "omega", "--flag", "F",
            "--dot", str(dot),
        )
        g = parse_dot(dot.read_text(encoding="utf-8"))
        assert g.nodes["G3"]["label"] == "G3\\ndim 3, ker 3\\nsingular-attractive, w=3"
        assert g.nodes["H1"]["label"] == "H1\\ndim 1"
        assert g.nodes["M5"]["label"] == "M5\\ndim 4"

    def test_single_vertex(self):
        alg = LieAlgebra.from_brackets(("z",), {})
        d = classify_vertices(kernel_chain(alg, TwoForm.zero(1), Flag([Subspace.full(1)])))
        for style in ("graph", "diagram"):
            g = parse_dot(render_dot(d, style=style))
            assert list(g.nodes) == ["S1"]
            assert g.edges == []

    def test_bad_style_value(self, e1):
        d = classify_vertices(
            kernel_chain(e1.algebra, e1.two_forms["omega"], e1.flags["F"])
        )
        with pytest.raises(ValueError):
            render_dot(d, style="circular")


class TestDeform:
    def test_d1_output(self, capsys):
        code, out, _ = run(
            capsys, "deform", corpus_path("D1"), "--form", "omega", "--flag", "F2comp"
        )
        assert code == 0
        assert out.splitlines() == [
            "deformed chain:",
            "  dim 0: (zero)",
            "  dim 1: c",
            "  dim 2: x, c",
            "  dim 3: x, y, c",
            "  dim 4: x, y, c, t",
            "simple: true",
        ]

    def test_already_simple_input_passes_through(self, capsys):
        code, out, _ = run(
            capsys, "deform", corpus_path("E1"), "--form", "omega", "--flag", "F"
        )
        assert code == 0
        assert "simple: true" in out
        assert "  dim 1: c" in out.splitlines()

    def test_json_member_dims(self, capsys):
        code, out, _ = run(
            capsys, "deform", corpus_path("D1"), "--form", "omega", "--flag", "F2comp",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["member_dims"] == [0, 1, 2, 3, 4]
        assert obj["simple"] is True


class TestLagrangians:
    def test_d1_both_modes(self, capsys):
        code, out, _ = run(capsys, "lagrangians", corpus_path("D1"), "--form", "omega")
        assert code == 0
        assert out.splitlines() == [
            "document: D1  form: omega  mode: both",
            "completeness: HEURISTIC",
            "found: 4",
            "  L0: dim 2: x, c",
            "  L1: dim 2: x, t",
            "  L2: dim 2: y, c",
            "  L3: dim 2: y, t",
        ]

    def test_vergne_mode_is_narrower(self, capsys):
        code, out, _ = run(
            capsys, "lagrangians", corpus_path("D1"), "--form", "omega", "--mode", "vergne"
        )
        assert code == 0
        assert "found: 1" in out
        assert "  L0: dim 2: x, c" in out

    def test_json_lists_subspaces(self, capsys):
        code, out, _ = run(
            capsys, "lagrangians", corpus_path("E1"), "--form", "omega", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["completeness"] == "HEURISTIC"
        assert len(obj["found"]) == 3


class TestBilagrangian:
    def test_d1_connection(self, capsys):
        code, out, _ = run(
            capsys, "bilagrangian", corpus_path("D1"),
            "--form", "omega", "--left", "L1", "--right", "L2",
        )
        assert code == 0
        assert out.splitlines() == [
            "document: D1  form: omega  left: L1  right: L2",
            "connection (nonzero basis entries):",
            "  D[t, x] = x",
            "  D[t, y] = -y",
            "torsion_free: true",
            "parallel_form: true",
            "preserves_left: true",
            "preserves_right: true",
            "flat: true",
        ]

    def test_json_entries(self, capsys):
        code, out, _ = run(
            capsys, "bilagrangian", corpus_path("D1"),
            "--form", "omega", "--left", "L1", "--right", "L2", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["flat"] is True
        assert obj["connection"] == [
            {"x": "t", "y": "x", "value": {"x": 1}},
            {"x": "t", "y": "y", "value": {"y": -1}},
        ]


class TestPrimitivity:
    def test_e1_output(self, capsys):
        code, out, _ = run(capsys, "primitivity", corpus_path("E1"), "--form", "omega")
        assert code == 0
        assert out.splitlines() == [
            "document: E1  form: omega",
            "isotropy: kernel of the form, dim 1",
            "primitive: PRIMITIVE",
            "quasi_primitive: QUASI_PRIMITIVE",
            "searched: ideal-hyperplanes, hyperplane-pencils, emptiness-certificate",
            "ratio: 1/5",
            "degree_lower: 1/5",
            "degree_within_search: 1/5",
        ]

    def test_e2_witness_line(self, capsys):
        code, out, _ = run(capsys, "primitivity", corpus_path("E2"), "--form", "omega")
        assert code == 0
        assert "primitive: NOT_PRIMITIVE" in out
        assert "  witness: c, b, a" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "primitivity", corpus_path("E2"), "--form", "omega", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["primitive"] == "NOT_PRIMITIVE"
        assert obj["quasi_primitive"] == "NOT_QUASI_PRIMITIVE"
        assert obj["primitive_witness"] is not None
        assert obj["ratio"] == "2/3"


class TestAudit:
    @pytest.mark.parametrize("name", ["D1", "E1", "E2", "X1", "X2", "X3"])
    def test_corpus_documents_pass(self, capsys, name):
        code, out, _ = run(capsys, "audit", corpus_path(name))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"document: {name}"
        assert all(l.startswith("ok  ") for l in lines[1:-1])
        assert lines[-1].startswith("audit result: ok (")

    def test_json_checks(self, capsys):
        code, out, _ = run(capsys, "audit", corpus_path("E2"), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert all(c["ok"] for c in obj["checks"])
        names = [c["name"] for c in obj["checks"]]
        assert "algebra jacobi" in names
        assert "serialize/parse round trip" in names
        assert "singular-count bounds" in names


class TestDeterminism:
    COMMANDS = [
        ("validate", []),
        ("diagram", ["--form", "omega", "--flag", "F", "--contract"]),
        ("lagrangians", ["--form", "omega"]),
        ("primitivity", ["--form", "omega"]),
        ("audit", []),
    ]

    @pytest.mark.parametrize("cmd,extra", COMMANDS, ids=[c for c, _ in COMMANDS])
    def test_repeat_runs_byte_identical(self, capsys, cmd, extra):
        argv = [cmd, corpus_path("E1")] + extra
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        codej1, outj1, _ = run(capsys, *argv, "--json")
        codej2, outj2, _ = run(capsys, *argv, "--json")
        assert codej1 == codej2 == 0
        assert outj1 == outj2

    def test_module_entry_matches_in_process(self, capsys):
        argv = ["diagram", corpus_path("E1"), "--form", "omega", "--flag", "F", "--json"]
        _, expected, _ = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "solvdiag"] + argv,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected


def _golden_argvs():
    """Every subcommand over every name each corpus document holds, plus errors.

    Paths other than the bundled corpus are relative, so that no output
    depends on where the test runs.
    """
    argvs = []
    for name in list_corpus():
        doc = load_corpus(name)
        path = corpus_path(name)
        argvs += [["validate", path], ["audit", path]]
        for form in sorted(doc.two_forms):
            f = ["--form", form]
            for flag in sorted(doc.flags):
                ff = [*f, "--flag", flag]
                argvs.append(["diagram", path, *ff])
                for style in ("graph", "diagram"):
                    argvs.append(
                        ["diagram", path, *ff, "--contract", "--dot", "out.dot", "--dot-style", style]
                    )
                argvs.append(["deform", path, *ff])
            for mode in ("vergne", "flag-adapted", "both"):
                argvs.append(["lagrangians", path, *f, "--mode", mode])
            argvs.append(["primitivity", path, *f])
            for left, right in itertools.permutations(sorted(doc.subspaces), 2):
                argvs.append(["bilagrangian", path, *f, "--left", left, "--right", right])
    e1, d1 = corpus_path("E1"), corpus_path("D1")
    argvs += [
        ["diagram", e1, "--form", "nope", "--flag", "F"],
        ["deform", e1, "--form", "omega", "--flag", "nope"],
        ["bilagrangian", d1, "--form", "omega", "--left", "L9", "--right", "L2"],
        ["bilagrangian", d1, "--form", "omega", "--left", "L1", "--right", "L3"],
        ["primitivity", "sl2.json", "--form", "omega"],
        ["audit", "bad_template.json"],
        ["validate", "missing.json"],
    ]
    return argvs + [[*argv, "--json"] for argv in argvs]


# SHA-256 of (exit, stdout, stderr, DOT text) over every run of a
# subcommand, human and --json output apart.
GOLDEN_CLI_DIGESTS = {
    "audit": "8ec7c89ba0ecbab5de19775846f07fd5a859d132411ba050cc4fc1640c39df65",
    "audit --json": "1ffa00ab55c18fa5a4fe24ce7b1907bf98261bd5b7d55523e76dbe23ee3423b8",
    "bilagrangian": "d156e18d307489ce85e694e583f274484d42e4dc996a37f1d3d822f954c2b468",
    "bilagrangian --json": "b9593f1c2e5f7ef00a5510c3392d3e097800fd7a3f25e792f0249d84bd381fc0",
    "deform": "6f29cdac676dbffb4e81e340abb68dce4dc4f45d6ef46c1d18e80e6b381c25e6",
    "deform --json": "18b687029f1b8fce1fa3bf02bb8a098b21a1e6870097dd8ea7b569c6cc124b50",
    "diagram": "7efd1ec72855a467da27f9067788384e17313c1adb5ff8abbd9b7beb57a4a1b4",
    "diagram --json": "cd7605a13b5a0a18fbe1178b44120eb7a611273b91a68c276276403ea7373d25",
    "lagrangians": "c6076e367129a1effb19a653b6779429d49db5e28a4461226f165722febe16e8",
    "lagrangians --json": "576013a67c31350c20fb59564f8a2e8541c0b0d9af12400380129853a5a4ad51",
    "primitivity": "c7d30924778a798dc37ddeb86b69990294f9f6a0842128d372939373c0a8cb74",
    "primitivity --json": "8b8283847a60601b492509a115dfe51a090cacddcda5484c4f34ce1270adb771",
    "validate": "e02628f164623057254448641a0402c30a404fe963636ca3d1209813fe53298f",
    "validate --json": "1a02217f49d0430813935ee011943697500d70aed6c4d80e2ceeb9f024b38d11",
}


def test_every_command_output_unchanged(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("sl2.json").write_text(json.dumps(SL2_DOC), encoding="utf-8")
    bad = json.loads(corpus_text("E1"))
    for ent in bad["metadata"]["expected"]:
        if ent["check"] == "template":
            ent["value"] = "alpha"
    Path("bad_template.json").write_text(json.dumps(bad), encoding="utf-8")
    records = {}
    for argv in _golden_argvs():
        dot = Path("out.dot")
        dot.unlink(missing_ok=True)
        code, out, err = run(capsys, *argv)
        text = dot.read_text(encoding="utf-8") if dot.exists() else None
        group = argv[0] + (" --json" if "--json" in argv else "")
        records.setdefault(group, []).append(json.dumps([code, out, err, text]))
    digests = {
        group: hashlib.sha256("\n".join(runs).encode()).hexdigest()
        for group, runs in records.items()
    }
    assert sum(len(runs) for runs in records.values()) == 182
    assert digests == GOLDEN_CLI_DIGESTS


def test_verdict_only_commands_build_no_certificate(capsys, monkeypatch):
    # validate, primitivity and audit read only the solvability verdict,
    # which solvability_verdict gives from the spectra of the ad(e_i);
    # lagrangians builds its normal flag from exactly one certificate
    calls = []
    original = algebra.complete_solvability_certificate

    def counting(alg):
        calls.append(alg.dim)
        return original(alg)

    bound = 0
    for modname, mod in list(sys.modules.items()):
        if modname == "solvdiag" or modname.startswith("solvdiag."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
                    bound += 1
    assert bound >= 2  # the algebra module and flags, at least
    for name in list_corpus():
        path = corpus_path(name)
        argvs = [(["validate", path], 0), (["audit", path], 0)]
        for form in sorted(load_corpus(name).two_forms):
            argvs += [(["primitivity", path, "--form", form], 0)]
            argvs += [(["lagrangians", path, "--form", form], 1)]
        for argv, expected in argvs:
            for json_flag in ([], ["--json"]):
                calls.clear()
                code, _, err = run(capsys, *argv, *json_flag)
                assert (code, err) == (0, ""), argv
                assert len(calls) == expected, argv


def test_audit_validates_each_flag_once(capsys, monkeypatch):
    # X3 has four flags and two chain_ok entries; the entries read the
    # chain's shape (flags.chain_shape), not a second validate_flag report
    calls = []
    original = solvdiag.flags.validate_flag

    def counting(alg, flag):
        calls.append(flag)
        return original(alg, flag)

    for modname, mod in list(sys.modules.items()):
        if modname == "solvdiag" or modname.startswith("solvdiag."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    code, _, err = run(capsys, "audit", corpus_path("X3"))
    assert (code, err) == (0, "")
    assert len(load_corpus("X3").flags) == 4
    assert len(calls) == 4


@pytest.mark.parametrize("spelling", ["1/2\n", "\uff13"], ids=["newline", "fullwidth"])
def test_a_rational_outside_the_format_exits_2(capsys, tmp_path, spelling):
    doc = dict(SL2_DOC, subspaces={"S": [{"e": spelling}]})
    code, out, err = run(capsys, "validate", write_doc(tmp_path, doc))
    assert (code, out) == (2, "")
    says = f"{spelling!r} is not an integer or 'p/q'"
    assert err == f"error[RATIONAL_FORMAT_ERROR]: subspaces['S'][0]['e']: {says}\n"


# Every code a solvdiag error carries, by the exit status the CLI gives it:
# 2 for an InputError (what was handed in is at fault), 3 for the rest (a
# structural hypothesis failed while computing).  A new error class must be
# added to one of the two on purpose.
EXIT_2_CODES = {
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
EXIT_3_CODES = {
    "ERROR",
    "INCOMPLETE",
    "NESTING_VIOLATION",
    "NOT_SIMPLE",
    "UNDECIDED_IRRATIONAL_SPECTRUM",
    "NO_REPULSIVE_VERTEX",
    "SPLIT_INVARIANT_FAILED",
    "IRRATIONAL_SPECTRUM",
    "DESCENT_STUCK",
    "NOT_SEMISIMPLE",
}


def _error_classes():
    """SolvdiagError and every subclass of it defined in a solvdiag module."""
    for info in pkgutil.iter_modules(solvdiag.__path__):
        if info.name != "__main__":
            importlib.import_module(f"solvdiag.{info.name}")
    found, todo = [], [solvdiag.SolvdiagError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return [cls for cls in found if cls.__module__.startswith("solvdiag")]


def test_every_error_code_has_its_exit_status(capsys, monkeypatch):
    from solvdiag import cli

    exits = {}
    for cls in _error_classes():
        if "code" not in vars(cls):  # a category such as InputError, raised by nothing
            continue
        assert cls.code not in exits, f"two classes carry {cls.code}"

        def refuse(text, cls=cls):
            raise cls("refused")

        monkeypatch.setattr(cli, "parse_document", refuse)
        code, out, err = run(capsys, "validate", corpus_path("E1"))
        assert out == "" and err.startswith(f"error[{cls.code}]: "), (cls, err)
        assert code == (2 if issubclass(cls, solvdiag.InputError) else 3), cls
        exits[cls.code] = code
    assert {c for c, code in exits.items() if code == 2} == EXIT_2_CODES
    assert {c for c, code in exits.items() if code == 3} == EXIT_3_CODES


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert solvdiag.__version__ == project["version"]
