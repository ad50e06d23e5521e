"""Every subcommand on small valid documents, dims 0-3, in-process.

The documents are seeded: the empty algebra, abelian algebras, and
generated completely solvable and nilpotent algebras (half of those in a
random unimodular basis), each with a random closed form, the zero form, a
random full chain and a transverse pair of subspaces split from one
unimodular matrix.  Whatever the document, `cli.main` must return 0, 2 or
3, and exit 2 must print a typed input error; the zero form in particular
must get a primitivity answer.
"""

import contextlib
import io
from random import Random

import pytest

from solvdiag import (
    InputError,
    LieAlgebra,
    PairPresentation,
    Subspace,
    TwoForm,
    degrees,
    is_subalgebra,
    kernel,
    subalgebra_as_algebra,
)
from solvdiag.cli import main
from solvdiag.document import Document, serialize_document
from solvdiag.algebra import change_basis
from solvdiag.generators import (
    random_closed_form,
    random_completely_solvable,
    random_full_chain,
    random_nilpotent,
    random_unimodular,
)

# the codes of the typed input errors, the ones the CLI exits 2 on
INPUT_CODES = {cls.code for cls in InputError.__subclasses__()}


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(tuple(f"e{i}" for i in range(dim)), {})


MAKERS = {
    "abelian": lambda rng, n: abelian(n),
    "solvable": random_completely_solvable,
    "nilpotent": random_nilpotent,
}
# (kind, dim, in a random unimodular basis); the seed is the index
CASES = [("abelian", n, False) for n in range(4)] + [
    (kind, n, turn)
    for n in range(1, 4)
    for kind in ("solvable", "nilpotent")
    for turn in (False, True)
]


def small_document(seed: int, kind: str, dim: int, unimodular: bool) -> Document:
    rng = Random(seed)
    alg = MAKERS[kind](rng, dim)
    if unimodular:
        alg = change_basis(alg, random_unimodular(rng, dim))
    m = random_unimodular(rng, dim)
    cut = rng.randint(0, dim)
    return Document(
        name=f"small{dim}",
        algebra=alg,
        two_forms={"omega": random_closed_form(rng, alg), "zero": TwoForm.zero(dim)},
        flags={"F": random_full_chain(rng, dim)},
        subspaces={"L": Subspace(dim, m[:cut]), "R": Subspace(dim, m[cut:])},
    )


def run(path, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "seed, case", enumerate(CASES), ids=[f"{k}-{n}{'-unimodular' * u}" for k, n, u in CASES]
)
def test_every_subcommand_exits_cleanly(tmp_path, seed, case):
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(small_document(seed, *case)), encoding="utf-8")
    runs = [["validate"], ["audit"]]
    for form in ("omega", "zero"):
        runs += [
            ["diagram", "--form", form, "--flag", "F"],
            ["deform", "--form", form, "--flag", "F"],
            ["lagrangians", "--form", form],
            ["bilagrangian", "--form", form, "--left", "L", "--right", "R"],
            ["primitivity", "--form", form],
        ]
    for argv in runs:
        code, err = run(path, argv)
        assert code in (0, 2, 3), (argv, err)
        if code == 2:
            assert err.startswith("error["), (argv, err)
            assert err[len("error[") : err.index("]")] in INPUT_CODES, (argv, err)
    # the kernel of the zero form is the whole algebra, a valid isotropy
    assert run(path, ["primitivity", "--form", "zero"]) == (0, "")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degrees_of_the_zero_form(n):
    alg = random_completely_solvable(Random(n), n)
    d = degrees(PairPresentation(algebra=alg, isotropy=kernel(TwoForm.zero(n))))
    assert (d.ratio, d.d_lower, d.d_within_search) == (n, 0, 0)
    assert [s.dim for s in d.witness_chain] == list(range(n - 1, -1, -1))
    assert all(a.contains(b) for a, b in zip(d.witness_chain, d.witness_chain[1:]))
    assert all(is_subalgebra(alg, s) for s in d.witness_chain)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_the_zero_subalgebra_as_an_algebra(n):
    alg = random_completely_solvable(Random(n), n) if n else abelian(0)
    sub = subalgebra_as_algebra(alg, Subspace.zero(n))
    assert (sub.dim, sub.names, sub.consts, sub.table) == (0, (), (), ())
