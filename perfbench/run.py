#!/usr/bin/env python3
"""solvdiag benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

runs one workload in this process (one closed-loop caller, no threads) and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  --out FILE appends the
result, with the answer digest, to a JSON-lines file;
--compare OLD NEW compares two such files.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20020256
PROBE_REPEATS = 6
PROBE_EVERY = 0.25  # seconds between probes
PROBE_S = 0.00125  # probe() on an idle core of the machine the bounds were set on
PROBE_MATRIX = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]  # Hilbert



def load_spec() -> dict:
    """BENCHMARK.json: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_program():
    """Put the checkout's sources on the path; fail without a result if absent."""
    for needed in (ROOT / "src" / "solvdiag" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            sys.exit(f"perfbench: {needed.relative_to(ROOT)} not found; run from a solvdiag checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.chdir(ROOT)
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# running


def run_passes(workload, seed, tiny, *, seconds=None, passes=None):
    """Closed loop over passes until the time is up and the minimum is met
    (or exactly `passes` passes).  Returns one record per pass."""
    from checks import CheckFailed

    need = 1 if tiny else workload.min_passes
    deadline = perf_counter() + (seconds or 0)
    pace = Pace()
    records = []
    while True:
        rec = {"lat": [], "rung": [], "pace": [], "answers": [], "failed": 0}
        rec["setup_pace"] = pace.tick()
        t0 = perf_counter()
        ops = workload.build_pass(seed, len(records), tiny)
        rec["setup"] = perf_counter() - t0
        for op in ops:
            rec["pace"].append(pace.tick())
            rec["rung"].append(op.rung)
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception:  # an untyped error is a failed op, not a crash
                rec["lat"].append(perf_counter() - t0)
                rec["failed"] += 1
                rec["answers"].append({"error": traceback.format_exc(limit=1).splitlines()[-1]})
                traceback.print_exc(file=sys.stderr)
                continue
            rec["lat"].append(perf_counter() - t0)
            try:
                rec["answers"].append(op.check(result))
            except CheckFailed as exc:
                rec["failed"] += 1
                rec["answers"].append({"check_failed": str(exc)})
                print(f"perfbench: check failed: {exc}", file=sys.stderr)
        records.append(rec)
        if passes is not None:
            if len(records) == passes:
                break
        elif len(records) >= need and perf_counter() >= deadline:
            break
    pace.finish(records)
    return records


def probe() -> float:
    """Seconds per Gaussian elimination of an 8x8 Hilbert matrix over Q:
    a fixed job in exact arithmetic that shares no code with solvdiag."""
    t0 = perf_counter()
    for _ in range(PROBE_REPEATS):
        m = [row[:] for row in PROBE_MATRIX]
        for k in range(len(m)):
            for i in range(k + 1, len(m)):
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return (perf_counter() - t0) / PROBE_REPEATS


class Pace:
    """How fast the machine runs, probed every PROBE_EVERY seconds.

    The machine the benchmark was written on shares its cores with other
    tenants: the same work runs up to 1.8 times slower, for seconds or
    minutes at a time.  Each op is timed between two probes, and every time
    is reported at the speed where the probe takes PROBE_S (an idle core),
    so that the neighbours' load does not read as a slower program.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.last = perf_counter()

    def tick(self) -> int:
        """Probe if due; the index of the latest probe."""
        if perf_counter() - self.last >= PROBE_EVERY:
            self.probes.append(probe())
            self.last = perf_counter()
        return len(self.probes) - 1

    def finish(self, records) -> None:
        """Replace each probe index by the mean of the probes around it."""
        self.probes.append(probe())
        around = [(a + b) / 2 for a, b in zip(self.probes, self.probes[1:])]
        for rec in records:
            rec["pace"] = [around[i] for i in rec["pace"]]
            rec["setup_pace"] = around[rec["setup_pace"]]


def answer_digest(records, count) -> str:
    answers = [a for rec in records[:count] for a in rec["answers"]]
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def end_to_end(records) -> dict:
    """The end-to-end metrics, with every time scaled by PROBE_S / pace."""
    attempted = sum(len(rec["lat"]) for rec in records)
    failed = sum(rec["failed"] for rec in records)
    records = [
        {**rec, "lat": [x * PROBE_S / p for x, p in zip(rec["lat"], rec["pace"])],
         "setup": rec["setup"] * PROBE_S / rec["setup_pace"]}
        for rec in records
    ]
    lat = [x for rec in records for x in rec["lat"]]

    def top(rec):
        peak = max(rec["rung"])
        return sum(x for x, r in zip(rec["lat"], rec["rung"]) if r == peak)

    values = {
        "ops_per_s": statistics.median(len(rec["lat"]) / sum(rec["lat"]) for rec in records),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "top_rung_s": statistics.median(top(rec) for rec in records),
        "ladder_s": statistics.median(sum(rec["lat"]) for rec in records),
        "ok_share": 1 - failed / attempted,
        "setup_s": statistics.median(rec["setup"] for rec in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in load_spec()["end_to_end"]}


def measure(workload, args):
    records = run_passes(workload, args.seed, args.tiny, seconds=args.seconds)
    need = 1 if args.tiny else workload.min_passes
    ops = sum(len(rec["lat"]) for rec in records)
    probes = sorted(p for rec in records for p in rec["pace"])
    op_time = sum(sum(rec["lat"]) for rec in records)
    print(
        f"{workload.name}: seed={args.seed} passes={len(records)} ops={ops}"
        f" unscaled ops_per_s={ops / op_time:.4g}"
        f" probe_ms={1e3 * probes[0]:.2f}..{1e3 * probes[-1]:.2f}"
    )
    digest = answer_digest(records, need)
    print(f"answers: first {need} passes sha256={digest}")
    failed = sum(rec["failed"] for rec in records)
    return end_to_end(records), ops, failed, digest, True


def at_probe_speed(seconds, records) -> float:
    """A wall time scaled like the end-to-end times, by the mean pace."""
    paces = [p for rec in records for p in rec["pace"]]
    return seconds * PROBE_S * len(paces) / sum(paces)


def trace(workload, args):
    """Two untraced (the first a warm-up) and two traced runs of the same passes."""
    from tracer import Tracer, metric_names

    count = 1 if args.tiny else workload.trace_passes
    run_passes(workload, args.seed, args.tiny, passes=count)  # warm-up
    t0 = perf_counter()
    plain = run_passes(workload, args.seed, args.tiny, passes=count)
    untraced_s = at_probe_speed(perf_counter() - t0, plain)

    tracer = Tracer()
    runs = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            t0 = perf_counter()
            records = run_passes(workload, args.seed, args.tiny, passes=count)
            wall = at_probe_speed(perf_counter() - t0, records)
            runs.append((records, wall, tracer.summary()))
    finally:
        tracer.uninstall()

    digests = {answer_digest(r, count) for r in (plain, runs[0][0], runs[1][0])}
    counts = [{k: v for k, v in s.items() if k.endswith(".calls")} for _, _, s in runs]
    unstable = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    correct = len(digests) == 1 and not unstable
    if unstable:
        print(f"perfbench: call counts differ between traced runs: {unstable}", file=sys.stderr)
    if len(digests) != 1:
        print("perfbench: tracing changed the answers", file=sys.stderr)

    first, second = runs[0][2], runs[1][2]
    metrics = {}
    for name, unit in metric_names():
        if name == "trace.overhead_s":
            value = (runs[0][1] + runs[1][1]) / 2 - untraced_s
        elif name.endswith("_s"):
            value = (first[name] + second[name]) / 2
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    all_records = plain + runs[0][0] + runs[1][0]
    attempted = sum(len(rec["lat"]) for rec in all_records)
    failed = sum(rec["failed"] for rec in all_records)
    wall = sum(w for _, w, _ in runs) / 2
    print(f"{workload.name}: {count} passes at probe speed: untraced {untraced_s:.3f}s, traced {wall:.3f}s")
    return metrics, attempted, failed, digests.pop() if correct else None, correct


# ---------------------------------------------------------------------------
# comparing two result files


def read_results(path) -> dict:
    """(workload, seed) -> record, untraced runs only; the last run wins."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out[(rec["workload"], rec["seed"])] = rec
    return out


def verdict(old, new, better, bound, wins, pairs) -> str:
    """improved / unchanged / worse / unresolved, by the README's rule."""
    sign = 1 if better == "higher" else -1
    mo, mn = statistics.median(old), statistics.median(new)
    if sign * (mn - mo) < -bound * abs(mo):
        return "worse"
    q = statistics.quantiles(old, n=4) if len(old) > 1 else [mo, mo, mo]
    spread = q[2] - q[0]
    if pairs and wins >= 0.9 * pairs and sign * (mn - mo) > spread:
        return "improved"
    all_better = min(sign * x for x in new) > max(sign * x for x in old)
    if mo and spread / abs(mo) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def describe(values) -> str:
    """Median [first quartile, third quartile]."""
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(old_path, new_path) -> int:
    old, new = read_results(old_path), read_results(new_path)
    for workload in sorted({w for w, _ in old} | {w for w, _ in new}):
        olds = {s: rec for (w, s), rec in old.items() if w == workload}
        news = {s: rec for (w, s), rec in new.items() if w == workload}
        seeds = sorted(olds.keys() & news.keys())
        print(f"== {workload}: {len(seeds)} paired seeds")
        if not olds or not news:
            continue
        for metric in load_spec()["end_to_end"]:
            name, better = metric["name"], metric["better"]
            a = {s: rec["result"]["metrics"][name]["value"] for s, rec in olds.items()}
            b = {s: rec["result"]["metrics"][name]["value"] for s, rec in news.items()}
            sign = 1 if better == "higher" else -1
            wins = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
            call = verdict(list(a.values()), list(b.values()), better, metric["bound"], wins, len(seeds))
            print(
                f"  {name:<12} {metric['unit']:<6} old {describe(list(a.values())):<34}"
                f" new {describe(list(b.values())):<34} won {wins}/{len(seeds)}  {call}"
            )
        changed = [s for s in seeds if olds[s]["digest"] != news[s]["digest"]]
        if not seeds:
            print("  answers: no seed in common")
        else:
            print(f"  answers: {'DIFFER on seeds ' + str(changed) if changed else 'identical'}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="corpus-cli, sweep or bits-ladder")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    p.add_argument("--out", help="append the result to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    out = args.out and os.path.abspath(args.out)  # before load_program changes directory
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run = trace if args.trace else measure
    metrics, attempted, failed, digest, correct = run(workload, args)
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if out:
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "tiny": args.tiny, "digest": digest, "result": result}
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
