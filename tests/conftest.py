import time

import pytest
from hypothesis import settings

from solvdiag import load_corpus

# The reader fuzzers (tests/test_document_fuzz.py) draw 400 examples each, or
# the profile's budget when it is larger: CI runs them once more with
#   python -m pytest tests/test_document_fuzz.py --hypothesis-profile=reader-fuzz
settings.register_profile("reader-fuzz", max_examples=4000)
# The descent's oracle tests (tests/test_algebra.py, marked descent_oracle in
# pyproject.toml) draw 100-150 examples each in tier-1, or the profile's budget
# when it is larger, about ten times theirs:
#   python -m pytest tests/test_algebra.py -m descent_oracle --hypothesis-profile=descent-oracle
settings.register_profile("descent-oracle", max_examples=1000)
# The search's oracle test (tests/test_lagrangian.py, marked search_oracle)
# draws 100 examples in tier-1, or the profile's budget when it is larger:
#   python -m pytest tests/test_lagrangian.py -m search_oracle --hypothesis-profile=search-oracle
settings.register_profile("search-oracle", max_examples=1500)
# The primitivity oracle test (tests/test_primitivity.py, marked
# primitivity_oracle) draws 100 examples in tier-1, or the profile's budget
# when it is larger:
#   python -m pytest tests/test_primitivity.py -m primitivity_oracle --hypothesis-profile=primitivity-oracle
settings.register_profile("primitivity-oracle", max_examples=1000)
# The radicals' oracle test (tests/test_forms.py, marked radical_oracle) draws
# 100 examples in tier-1, or the profile's budget when it is larger:
#   python -m pytest tests/test_forms.py -m radical_oracle --hypothesis-profile=radical-oracle
settings.register_profile("radical-oracle", max_examples=1000)

# registry for the acceptance suite: number -> (description, passed, seconds)
ACCEPTANCE_RESULTS = {}

_DESCRIPTIONS = {
    1: "E1 kernels, restrictions, and descending tail",
    2: "X3 kernel and three chains, repaired F3 verdicts",
    3: "X1 simple verdict and derived kernels vs oracle",
    4: "D1 end to end: classify, deform, verify output",
    5: "round trip chain <-> lagrangian on all corpus lagrangians",
    6: "500+ random instances: dichotomy, repulsive cuts, closure",
    7: "bilagrangian connection audits and flatness",
    8: "primitivity verdicts, witnesses, and audits",
    9: "CLI determinism, exit codes, corpus round trip",
}


class criterion:
    """Context manager that times a criterion and records its outcome."""

    def __init__(self, num: int, bound_seconds: float):
        self.num = num
        self.bound = bound_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed <= self.bound
        ACCEPTANCE_RESULTS[self.num] = (_DESCRIPTIONS[self.num], ok, elapsed)
        if exc_type is None and elapsed > self.bound:
            pytest.fail(
                f"criterion {self.num} exceeded its {self.bound}s budget: {elapsed:.2f}s"
            )
        return False


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in range(1, 10):
        if num in ACCEPTANCE_RESULTS:
            desc, ok, elapsed = ACCEPTANCE_RESULTS[num]
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(
                f"criterion {num}: {status}  ({elapsed:.2f}s)  {desc}"
            )
        else:
            terminalreporter.write_line(f"criterion {num}: not run")


@pytest.fixture(scope="session")
def e1():
    return load_corpus("E1")


@pytest.fixture(scope="session")
def e2():
    return load_corpus("E2")


@pytest.fixture(scope="session")
def x1():
    return load_corpus("X1")


@pytest.fixture(scope="session")
def x2():
    return load_corpus("X2")


@pytest.fixture(scope="session")
def x3():
    return load_corpus("X3")


@pytest.fixture(scope="session")
def d1():
    return load_corpus("D1")
