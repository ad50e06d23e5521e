"""Sign-off suite: nine timed criteria, one test each.

Every test runs inside the criterion() context manager from conftest, which
enforces the runtime bound and prints one PASS/FAIL line per criterion at
the end of the run.  All comparisons are exact.
"""

import json
from fractions import Fraction
from importlib import resources
from random import Random

from conftest import criterion
from dot_parser import parse_dot
from oracles import oracle_curvature_is_zero, oracle_radical_rows, spans_equal

from solvdiag import (
    BilagrangianPair,
    Covector,
    LieAlgebra,
    NestingViolationError,
    PairPresentation,
    PrimitivityStatus,
    StepDirection,
    Subspace,
    TwoForm,
    VertexClass,
    audit_connection,
    ce_differential,
    ce_differential_covector,
    classify_vertices,
    complete_flag_through,
    complete_solvability_certificate,
    connection,
    corpus_text,
    curvature_flatness,
    deform_to_simple,
    diagram_to_lagrangian,
    evaluate_expected,
    find_lagrangians,
    is_closed,
    is_subalgebra,
    kernel,
    kernel_chain,
    lagrangian_to_flag,
    list_corpus,
    load_corpus,
    parse_document,
    predicates,
    primitive_test,
    quasi_primitive_test,
    radical,
    random_closed_form,
    random_completely_solvable,
    random_full_chain,
    random_nilpotent,
    render_dot,
    restrict,
    serialize_document,
    transitive_test,
    validate_flag,
    weight_zero_singulars,
)
from solvdiag import equivalent, ideal_closure_audit, singular_count_audit
from solvdiag.cli import main

D = StepDirection.DOWN
SINGULAR = (VertexClass.SINGULAR_ATTRACTIVE, VertexClass.SINGULAR_REPULSIVE)


def diagram_of(doc, flag_name="F"):
    return classify_vertices(
        kernel_chain(doc.algebra, doc.two_forms["omega"], doc.flags[flag_name])
    )


def span(ambient, *rows):
    return Subspace(ambient, [tuple(Fraction(x) for x in r) for r in rows])


def test_criterion_1_e1_kernels_and_descending_tail(e1):
    with criterion(1, 1.0):
        alg, omega = e1.algebra, e1.two_forms["omega"]
        n = alg.dim  # basis (c, b, a, v, u)
        assert kernel(omega) == span(n, (1, 0, 0, 0, 0))
        d = diagram_of(e1)
        by_dim = {v.member.dim: v for v in d.vertices}
        assert by_dim[4].kernel == span(n, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
        assert restrict(omega, by_dim[3].member).is_zero()
        assert by_dim[3].kernel == by_dim[3].member
        assert d.steps[2] is D and d.steps[3] is D
        # the printed shape: two descending reduction arrows in the rendering
        g = parse_dot(render_dot(d, style="graph"))
        mw = [(a, b) for a, b, attrs in g.edges if attrs.get("label") == "mw"]
        assert mw == [("M4", "M3"), ("M5", "M4")]


def test_criterion_2_x3_three_chains(x3):
    with criterion(2, 1.0):
        alg, omega = x3.algebra, x3.two_forms["omega"]
        n = alg.dim  # basis (e1 .. e5)
        assert spans_equal(kernel(omega).rows, [(1, 0, -1, 0, 0)], n)

        d1 = diagram_of(x3, "F1")
        assert predicates(alg, d1).simple
        singulars = [v for v in d1.vertices if v.vclass in SINGULAR]
        assert len(singulars) == 1
        assert singulars[0].vclass is VertexClass.SINGULAR_ATTRACTIVE

        d2 = diagram_of(x3, "F2")
        v4 = {v.member.dim: v for v in d2.vertices}[4]
        assert v4.weight == 0
        assert v4.vclass is VertexClass.SINGULAR_REPULSIVE
        assert radical(omega, v4.member).is_zero()  # restriction nondegenerate

        d3 = diagram_of(x3, "F3")
        p = predicates(alg, d3)
        assert p.connected is True
        assert p.semi_simple is False
        by_dim = {v.member.dim: v for v in d3.vertices}
        assert spans_equal(by_dim[2].kernel.rows, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)], n)
        assert spans_equal(by_dim[3].kernel.rows, [(0, 0, 0, 1, 0)], n)
        assert spans_equal(
            by_dim[4].kernel.rows, [(1, 0, -1, 0, 0), (0, 0, 0, 1, 0)], n
        )


def test_criterion_3_x1_verdict_against_oracle(x1):
    with criterion(3, 1.0):
        alg, omega = x1.algebra, x1.two_forms["omega"]
        d = diagram_of(x1)
        assert predicates(alg, d).simple is True
        assert d.kernel_dims == (1, 2, 1, 0)
        for v in d.vertices:
            ref = oracle_radical_rows(omega, list(v.member.rows), alg.dim)
            assert spans_equal(v.kernel.rows, ref, alg.dim)
        # the transcribed dim-3 kernel is recorded as a known mismatch,
        # packaged so that it must keep differing from the computed value
        recorded = [
            r
            for r in evaluate_expected(x1)
            if r.entry.check == "kernel_member"
            and r.entry.args.get("member_dim") == 3
            and r.entry.tag == "printed"
        ]
        assert len(recorded) == 1
        assert recorded[0].entry.agrees is False
        assert recorded[0].matched is False
        assert recorded[0].ok


def test_criterion_4_d1_end_to_end(d1):
    with criterion(4, 1.0):
        alg, omega = d1.algebra, d1.two_forms["omega"]
        n = alg.dim  # basis (x, y, c, t)
        d = diagram_of(d1, "F2comp")
        p = predicates(alg, d)
        assert p.semi_simple and p.semi_nilpotent

        out = deform_to_simple(alg, omega, d1.flags["F2comp"])
        nonzero = [m for m in out.members if not m.is_zero()]
        assert nonzero == [
            span(n, (0, 0, 1, 0)),
            span(n, (1, 0, 0, 0), (0, 0, 1, 0)),
            span(n, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
            Subspace.full(n),
        ]
        d_new = classify_vertices(kernel_chain(alg, omega, out))
        assert predicates(alg, d_new).simple
        singulars = [v for v in d_new.vertices if v.vclass in SINGULAR]
        assert len(singulars) == 1
        v = singulars[0]
        assert restrict(omega, v.member).is_zero()  # isotropic
        assert v.member.contains(kernel(omega))
        assert v.member.dim == omega.rank() // 2 == 2


def test_criterion_5_lagrangian_round_trip():
    with criterion(5, 5.0):
        distinct_second_flags = 0
        for name in ("E1", "X1", "X3", "D1"):
            doc = load_corpus(name)
            alg, omega = doc.algebra, doc.two_forms["omega"]
            ker = kernel(omega)
            verdict = find_lagrangians(alg, omega)
            assert verdict.found, name
            for L in verdict.found:
                flag1 = lagrangian_to_flag(alg, omega, L)
                d1 = classify_vertices(kernel_chain(alg, omega, flag1))
                back = diagram_to_lagrangian(alg, omega, d1)
                assert back.verified and back.subspace == L

                # a second chain through the same lagrangian, forced through
                # a different interior member when one exists
                flag2 = None
                for r in L.rows:
                    w = ker.sum(Subspace(alg.dim, [r]))
                    if ker.dim < w.dim < L.dim and is_subalgebra(alg, w):
                        cand = complete_flag_through(alg, [w, L])
                        if cand.members != flag1.members:
                            flag2 = cand
                            break
                    w = Subspace(alg.dim, [r])
                    if 0 < w.dim < L.dim and w.contains(ker) and is_subalgebra(alg, w):
                        cand = complete_flag_through(alg, [w, L])
                        if cand.members != flag1.members:
                            flag2 = cand
                            break
                if flag2 is None:
                    continue
                distinct_second_flags += 1
                d2 = classify_vertices(kernel_chain(alg, omega, flag2))
                assert equivalent(d1, d2), (name, L.rows)
                back2 = diagram_to_lagrangian(alg, omega, d2)
                assert back2.verified and back2.subspace == L
        # fixed seeds and corpus make this deterministic: every lagrangian
        # in the corpus admits a genuinely different second chain
        assert distinct_second_flags == 13


def test_criterion_6_property_suite():
    with criterion(6, 15.0):
        instances = 0

        for seed in range(400):
            rng = Random(seed)
            dim = rng.choice((3, 4, 5, 6))
            alg = random_completely_solvable(rng, dim)
            form = random_closed_form(rng, alg)
            flag = random_full_chain(rng, dim)
            instances += 1
            # (a) the step dichotomy resolves, or the dedicated error is
            # raised; any other outcome fails the test
            try:
                d = classify_vertices(kernel_chain(alg, form, flag))
            except NestingViolationError:
                continue
            assert all(
                abs(b - a) == 1 for a, b in zip(d.kernel_dims, d.kernel_dims[1:])
            )
            # (b) weight-zero singular vertices are repulsive
            for i in weight_zero_singulars(d):
                assert d.vertices[i].vclass is VertexClass.SINGULAR_REPULSIVE
            # (c) radicals of the closed form are bracket-closed
            assert is_subalgebra(alg, kernel(form))
            wit = complete_solvability_certificate(alg).witness
            for member in wit[:2]:
                assert is_subalgebra(alg, radical(form, member))
            # (d) the differential squares to zero
            for i in range(alg.dim):
                phi = Covector.from_entries(
                    tuple(1 if j == i else 0 for j in range(alg.dim))
                )
                assert ce_differential(alg, ce_differential_covector(alg, phi)).is_zero()

        # (e) nilpotent instances: the chain through the summed-radical
        # lagrangian has at most two singular vertices; a lone one attracts
        for seed in range(150):
            rng = Random(10_000 + seed)
            dim = rng.choice((3, 4, 5, 6))
            alg = random_nilpotent(rng, dim)
            form = random_closed_form(rng, alg)
            instances += 1
            verdict = find_lagrangians(alg, form, mode="vergne")
            if not verdict.found:
                continue
            chain = [s for s in (kernel(form), verdict.found[0]) if not s.is_zero()]
            if not chain:
                continue
            flag = complete_flag_through(alg, chain)
            d = classify_vertices(kernel_chain(alg, form, flag))
            singulars = [v for v in d.vertices if v.vclass in SINGULAR]
            assert len(singulars) <= 2, seed
            if len(singulars) == 1:
                assert singulars[0].vclass is VertexClass.SINGULAR_ATTRACTIVE, seed

        assert instances >= 500


def test_criterion_7_bilagrangian_connection(d1):
    with criterion(7, 1.0):
        # flat model: abelian, standard symplectic pairing, axis pair
        alg = LieAlgebra.from_brackets(("q1", "q2", "p1", "p2"), {})
        omega = TwoForm.from_pairs(4, [(0, 2, 1), (1, 3, 1)])
        pair = BilagrangianPair(
            left=span(4, (1, 0, 0, 0), (0, 1, 0, 0)),
            right=span(4, (0, 0, 1, 0), (0, 0, 0, 1)),
        )
        table = connection(alg, omega, pair)
        assert all(
            all(c == 0 for c in table.entries[i][j]) for i in range(4) for j in range(4)
        )
        assert audit_connection(alg, omega, pair, table).ok
        assert curvature_flatness(alg, table) is True
        assert oracle_curvature_is_zero(alg, table)

        alg2, omega2 = d1.algebra, d1.two_forms["omega"]
        pair2 = BilagrangianPair(left=d1.subspaces["L1"], right=d1.subspaces["L2"])
        table2 = connection(alg2, omega2, pair2)
        audit2 = audit_connection(alg2, omega2, pair2, table2)
        assert audit2.torsion_free
        assert audit2.parallel_form
        assert audit2.preserves_left
        assert audit2.preserves_right
        assert curvature_flatness(alg2, table2) is oracle_curvature_is_zero(alg2, table2) is True


def test_criterion_8_primitivity(e1, e2, d1, x1):
    with criterion(8, 1.0):
        alg2, omega2 = e2.algebra, e2.two_forms["omega"]
        pair2 = PairPresentation(algebra=alg2, isotropy=kernel(omega2))
        verdict = primitive_test(pair2)
        assert verdict.status is PrimitivityStatus.NOT_PRIMITIVE
        witness = span(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))  # (c, b, a)
        assert verdict.witness == witness
        assert transitive_test(pair2, witness)

        # trivial isotropy forces both verdicts positive
        for doc in (d1, x1):
            ker = kernel(doc.two_forms["omega"])
            assert ker.is_zero()
            pair = PairPresentation(algebra=doc.algebra, isotropy=ker)
            assert primitive_test(pair).status is PrimitivityStatus.PRIMITIVE
            assert (
                quasi_primitive_test(pair).status is PrimitivityStatus.QUASI_PRIMITIVE
            )

        for doc in (e1, e2):
            pair = PairPresentation(algebra=doc.algebra, isotropy=kernel(doc.two_forms["omega"]))
            assert ideal_closure_audit(pair, doc.two_forms["omega"]).agree

        # singular-count bounds across every corpus diagram
        for name in list_corpus():
            doc = load_corpus(name)
            alg, omega = doc.algebra, doc.two_forms["omega"]
            diagrams = [
                classify_vertices(kernel_chain(alg, omega, flag))
                for flag in doc.flags.values()
                if validate_flag(alg, flag).chain_ok
            ]
            if not diagrams:
                continue
            pair = PairPresentation(algebra=alg, isotropy=kernel(omega))
            quasi = quasi_primitive_test(pair)
            for entry in singular_count_audit(diagrams, quasi_verdict=quasi):
                assert entry.within_connected_bound is not False
                assert entry.within_quasi_primitive_bound is not False


def test_criterion_9_cli_determinism(capsys):
    with criterion(9, 30.0):
        for name in list_corpus():
            text = corpus_text(name)
            assert serialize_document(parse_document(text)) == text
            path = str(resources.files("solvdiag") / "corpus_data" / f"{name}.json")
            outputs = []
            for _ in range(2):
                assert main(["audit", path]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            assert outputs[0].splitlines()[-1].startswith("audit result: ok")
            runs = []
            for _ in range(2):
                assert main(["validate", path, "--json"]) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
            json.loads(runs[0])
