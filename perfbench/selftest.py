#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that

* an untraced and a traced run print exactly the metrics BENCHMARK.json
  names, each with its unit, with no failed op and every answer correct;
* the traced run recorded calls on every span the workload is meant to
  reach, its answers equal the untraced ones, and its wrappers were removed;
* two traced runs with the same seed give identical work counts;
* in this process, after a traced run every binding is the original object
  again and the library returns the same answers as before it.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_json(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(result, spec, problems, label):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")


def counts(result, spec):
    return {m["name"]: result["metrics"][m["name"]]["value"]
            for m in spec if m["unit"] in ("count", "frac")}


def in_process(problems):
    """Bindings and answers are unchanged by a traced run."""
    sys.path.insert(0, str(HERE))
    import run

    run.setup("certify", SEED, True)  # puts src/ on the path and imports ncfield
    import tracer
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        before = tracer.binding_snapshot()
        answers = [run.execute(op, run.direct).digest for op in workload.build(SEED, 0, True)]
        args = Namespace(workload=name, seed=SEED, seconds=1.0, trace=1, size="tiny")
        report, _ = run.run_traced(args, True)
        after = tracer.binding_snapshot()
        moved = [key for key, val in before.items() if after.get(key) is not val]
        if moved or not report["wrappers_removed"]:
            problems.append(f"{name}: bindings not restored: {moved[:5]}")
        again = [run.execute(op, run.direct).digest for op in workload.build(SEED, 0, True)]
        if again != answers:
            problems.append(f"{name}: answers changed after a traced run")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        _, plain = run_json(workload, 0)
        check_metrics(plain, spec["end_to_end"], problems, f"{workload} --trace 0")
        report, traced = run_json(workload, 1)
        check_metrics(traced, spec["per_layer"], problems, f"{workload} --trace 1")
        if report["coverage_missing"]:
            problems.append(f"{workload}: no calls on {report['coverage_missing']}")
        if not (report["traced_equals_untraced"] and report["wrappers_removed"]):
            problems.append(f"{workload}: traced answers differ or wrappers left behind")
        _, repeat = run_json(workload, 1)
        first, second = counts(traced, spec["per_layer"]), counts(repeat, spec["per_layer"])
        changed = sorted(k for k in first if first[k] != second[k])
        if changed:
            problems.append(f"{workload}: work counts differ between traced runs: {changed}")
        print(f"{workload}: checked", flush=True)
    in_process(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
