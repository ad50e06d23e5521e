#!/usr/bin/env python3
"""Record the corpus-cli reference: exit code and output digests per command.

    python3 perfbench/capture_reference.py

The corpus-cli workload fails any command whose exit code, stdout or DOT
file differs from this record.  CLI output must stay byte-identical, so
re-capture only for a change that is meant to alter the output, and say so.
"""

import json
import sys

import run

workloads = run.load_program()
from solvdiag import list_corpus, load_corpus  # noqa: E402  (path set by load_program)

docs = {name: load_corpus(name) for name in list_corpus()}
reference = {}
for key, _, argv in workloads.corpus_commands(docs):
    reference[key] = workloads.cli_answer(workloads.run_cli(argv))
workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
print(f"{len(reference)} commands recorded in {workloads.REFERENCE}", file=sys.stderr)
