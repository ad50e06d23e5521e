"""Each demo in demos/ prints exactly what it printed when its digest was
recorded: the SHA-256 of its stdout, run with PYTHONPATH=src."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_document_tour.py": "d3c2fc613442f47e3872741ff8762dea5879709f0540928330400398623b2d26",
    "02_kernel_chain_diagrams.py": "ccce0490f277be0b94ae32c58214dd01da043792707483bb0325e1630dafd6b4",
    "03_deform_to_simple.py": "a418aea8514b271f7d5c25a799ff10f5e3985bc0d2fc38b0ad8ce0afd40c5b00",
    "04_lagrangian_round_trip.py": "03c73c4d6c8f3f1185ba2902ea82ca53b4a24f79578f7020c63d7b5f35578dcc",
    "05_bilagrangian_connection.py": "c601d613f8b9e513d8b52223b99a66cf95b4712a4603363e56b730e07a0ec5c8",
    "06_random_instances.py": "0fdfb56bb6f56ab5f9412eac0b0abfa6a972d5b9c38c25395ee08d3cad5d10ac",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]
