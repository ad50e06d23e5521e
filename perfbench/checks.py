"""Answer checks that do not trust the code under test.

Every check here recomputes its fact from the definition, with the
fraction-free Bareiss elimination of tests/oracles.py and brackets read
straight from the structure-constant table, so no check calls a solvdiag
function and none of them shows up in a traced run.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()
bareiss_rank = oracles.bareiss_rank


class CheckFailed(Exception):
    """An answer that contradicts its definition."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def bracket(alg, x, y):
    """[x, y] from the structure constants alone."""
    n = alg.dim
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    f = xi * yj
                    for k, c in enumerate(alg.table[i][j]):
                        if c:
                            out[k] += f * c
    return out


def pairing(omega, x, y):
    e = omega.entries
    return sum(
        xi * yj * e[i][j] for i, xi in enumerate(x) if xi for j, yj in enumerate(y) if yj
    )


def rank(rows) -> int:
    return bareiss_rank(rows) if rows else 0


def spans_contain(rows, vectors) -> bool:
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return True
    return rank(list(rows) + vectors) == rank(rows)


def _unit(n: int, i: int):
    return [Fraction(int(i == j)) for j in range(n)]


def form_kernel(omega):
    return oracles.oracle_nullspace(omega.entries, omega.dim)


def check_subalgebra(alg, rows, what: str) -> None:
    products = [bracket(alg, a, b) for a in rows for b in rows]
    require(spans_contain(rows, products), f"{what} is not bracket-closed")


def check_ideal_chain(alg, witness) -> None:
    """A certificate witness: ideals of the algebra with dims 1..n, nested."""
    n = alg.dim
    require(witness is not None and len(witness) == n, "witness has the wrong length")
    prev: list = []
    for k, member in enumerate(witness, start=1):
        rows = list(member.rows)
        require(rank(rows) == k, f"witness member {k} has the wrong dimension")
        require(spans_contain(rows, prev), f"witness member {k} does not contain {k - 1}")
        images = [bracket(alg, _unit(n, i), r) for i in range(n) for r in rows]
        require(spans_contain(rows, images), f"witness member {k} is not an ideal")
        prev = rows


def check_lagrangian(alg, omega, rows) -> None:
    """Bracket-closed, isotropic, contains the kernel, dim = rank/2 + dim ker."""
    n = alg.dim
    rows = list(rows)
    check_subalgebra(alg, rows, "lagrangian")
    require(
        all(pairing(omega, a, b) == 0 for a in rows for b in rows),
        "lagrangian is not isotropic",
    )
    require(spans_contain(rows, form_kernel(omega)), "lagrangian misses the kernel")
    r = rank(omega.entries)
    require(rank(rows) == r // 2 + (n - r), "lagrangian has the wrong dimension")


def rows_text(space) -> list:
    return [[str(c) for c in row] for row in space.rows]
