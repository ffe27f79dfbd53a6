#!/usr/bin/env python3
"""ncfield benchmark: closed-loop workloads with construction-checked answers.

One process, one caller: each op is issued after the previous one returns.
An op is one user-level call (a rank or fullness decision, a spectrum, an
evaluation, or a dualcheck).  Inputs come from ``--seed``; the library only
ever sees those generated inputs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` runs whole passes of the workload's op mix, each pass on the
same inputs rebuilt as fresh objects and in a new order, until ``--seconds``
of op time have been measured (at least two passes, three for dualcheck),
and reports the end-to-end metrics.  The machine this was written on changes speed by up to
2x for tens of seconds at a time, so every op is bracketed by a fixed
reference kernel (probe.py) and its latency is reported at the kernel's
reference speed, as the median over passes; the unscaled figures are in the
report line.  ``--trace 1`` runs the first pass three times, the middle
time with spans installed around every public function of every module, and
reports the per-layer metrics, the tracing overhead, and whether the traced
answers equal the untraced ones.  The last line of standard output is the
result object; the line before it is a report with the provenance, the
failed op ids and the latency sample counts.

The default seed is 1.  Seed 7919 is held out: use it only to confirm a
claim made on other seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOAD_NAMES = ("certify", "spectra", "numeric", "dualcheck")
SETUP_PROBES = 3
# Stop starting passes once the run would exceed this much wall time.
RUN_BUDGET_S = 120.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MACHINE_LIMIT = (
    "shared 2-core VM with threaded OpenBLAS; no CPU pinning or frequency "
    "control, so compare medians of several runs"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_NAMES = (
    "scalars.rank_exact.calls", "scalars.rank_exact.busy_s",
    "scalars.rank_exact.entries", "scalars.rank_exact.max_rows",
    "scalars.rank_exact.full_ratio",
    "scalars.kernel_exact.calls", "scalars.kernel_exact.busy_s",
    "scalars.colspace_exact.calls", "scalars.colspace_exact.busy_s",
    "ncrank.fullness_scaling.calls", "ncrank.fullness_scaling.self_s",
    "ncrank.fullness_scaling.iterations",
    "ncrank.verdict.full", "ncrank.verdict.nonfull", "ncrank.verdict.hollow",
    "ncrank.inconclusive",
    "ncrank.linearize_matrix.busy_s", "ncrank.linearize_matrix.border",
    "ncrank.homogenize.calls", "ncrank.homogenize.busy_s",
    "ncrank.ncrank.calls", "ncrank.ncrank.self_s",
    "ncrank.rank_by_substitution.calls", "ncrank.rank_by_substitution.self_s",
    "spectra.central_eigs_pencil.calls", "spectra.central_eigs_pencil.self_s",
    "spectra.central_eigs_polymatrix.calls", "spectra.central_eigs_polymatrix.self_s",
    "spectra.candidates", "spectra.atoms_certified", "spectra.uncertified",
    "randmat.sample.calls", "randmat.sample.busy_s",
    "randmat.empirical_rank.calls", "randmat.empirical_rank.busy_s",
    "randmat.empirical_rank.unclean",
    "ncpoly.NcMatrix.evaluate.calls", "ncpoly.NcMatrix.evaluate.busy_s",
    "ncpoly.LinearPencil.evaluate.calls", "ncpoly.LinearPencil.evaluate.busy_s",
    "ratexpr.parse.busy_s", "realization.realize.busy_s",
    "realization.domain_check.calls", "realization.domain_check.busy_s",
    "realization.eval_rep.self_s",
    "freegroup.build_ball.busy_s",
    "freegroup.commutator_defect.calls", "freegroup.commutator_defect.busy_s",
    "freegroup.SparseOp.apply.calls", "freegroup.SparseOp.apply.entries_scanned",
    "cli.main.calls", "cli.main.self_s",
    "trace.op_s", "trace.overhead_s",
)


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat == "full_ratio":
        return "frac"
    return "count"


# ---------------------------------------------------------------------------
# set-up


def setup(name: str, seed: int, tiny: bool):
    """Imports, first-pass input generation and the first LAPACK calls."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ncfield

    if Path(ncfield.__file__).resolve().parent != (SRC / "ncfield").resolve():
        raise RuntimeError(f"imported ncfield from {ncfield.__file__}, not {SRC}")
    import workloads

    ops = workloads.WORKLOADS[name].build(seed, 0, tiny)
    a = np.eye(6, dtype=complex) + 0.25j
    np.linalg.svd(a)
    np.linalg.eigh(a + a.conj().T)
    np.linalg.eigvals(a)
    np.linalg.qr(a)
    np.linalg.solve(a, a)
    return time.perf_counter() - t0, ops


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    if tiny:
        cmd += ["--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# running ops


class Outcome:
    __slots__ = ("id", "kind", "latency", "status", "detail", "digest")

    def __init__(self, op, latency, status, detail, digest):
        self.id, self.kind = op.id, op.kind
        self.latency, self.status, self.detail, self.digest = latency, status, detail, digest


def execute(op, call):
    """Time one op; then, outside the timed region, check its answer."""
    import workloads

    refusals = workloads.REFUSALS + (workloads.CliRefused,)
    t0 = time.perf_counter()
    try:
        result = call(op)
    except refusals as exc:
        latency = time.perf_counter() - t0
        return Outcome(op, latency, "refused", f"{type(exc).__name__}: {exc}",
                       f"refused:{type(exc).__name__}")
    except Exception as exc:  # a crash is a failed op, not a crashed benchmark
        latency = time.perf_counter() - t0
        return Outcome(op, latency, "error", repr(exc), f"error:{type(exc).__name__}")
    latency = time.perf_counter() - t0
    digest = op.digest(result)
    try:
        reason = op.check(result)
    except refusals as exc:
        return Outcome(op, latency, "refused", f"check: {type(exc).__name__}: {exc}", digest)
    except Exception as exc:
        return Outcome(op, latency, "error", f"check raised {exc!r}", digest)
    if reason is not None:
        return Outcome(op, latency, "wrong", reason, digest)
    return Outcome(op, latency, "ok", None, digest)


def direct(op):
    return op.run()


def run_pass(ops, call, kernel: str):
    """Run ops in order, each bracketed by the speed kernel.

    Returns (outcome, latency at reference speed) pairs: the latency times
    nominal / the mean kernel time measured just before and just after.
    """
    import probe

    nominal = probe.NOMINAL_S[kernel]
    done = []
    before = probe.measure(kernel)
    for op in ops:
        outcome = execute(op, call)
        after = probe.measure(kernel)
        done.append((outcome, outcome.latency * nominal / ((before + after) / 2.0)))
        before = after
    return done


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with ten of the n samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def summarize(outcomes):
    failed = [o for o in outcomes if o.status != "ok"]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong_or_error": sum(o.status in ("wrong", "error") for o in failed),
        "failed_ops": [
            {"id": o.id, "status": o.status, "detail": o.detail} for o in failed[:50]
        ],
    }


def kind_medians(outcomes):
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o.latency * 1000.0)
    return {k: round(statistics.median(v), 3) for k, v in sorted(by_kind.items())}


# ---------------------------------------------------------------------------
# provenance


def blas_info():
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    threads = None
    try:
        import ctypes

        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    except (ImportError, OSError):
        pass
    info["blas_threads"] = threads
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def provenance(seed: int):
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ncfield").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    out = {
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine_limit": MACHINE_LIMIT,
        "loop": "closed loop, one process, one caller",
    }
    out.update(blas_info())
    return out


# ---------------------------------------------------------------------------
# the two run modes


def run_untraced(args, tiny: bool):
    setup_main, ops = setup(args.workload, args.seed, tiny)
    import random

    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setups = [setup_main] + [probe_setup(args.workload, args.seed, tiny)
                             for _ in range(SETUP_PROBES)]
    samples = {}  # op id -> [(outcome, latency at reference speed)] over passes
    measured = 0.0
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for outcome, scaled in run_pass(ops, direct, workload.kernel):
            samples.setdefault(outcome.id, []).append((outcome, scaled))
            measured += outcome.latency
        passes += 1
        elapsed = time.perf_counter() - start
        if measured >= args.seconds and passes >= workload.min_passes:
            break
        if elapsed + (time.perf_counter() - pass_start) > RUN_BUDGET_S:
            break
        # Same inputs as fresh objects, in a new order (neither is timed).
        ops = workload.build(args.seed, 0, tiny)
        random.Random(f"order/{args.seed}/{passes}").shuffle(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for runs in samples.values() for o, _ in runs]
    # Each op's latency: the median over passes at reference speed.
    scaled_ms = {i: 1000.0 * statistics.median(v for _, v in runs)
                 for i, runs in samples.items()}
    fastest_ms = {i: 1000.0 * min(o.latency for o, _ in runs) for i, runs in samples.items()}
    tail_p = tail_percentile(len(samples))

    def latency_metrics(per_op_ms):
        lat_ms = np.array(sorted(per_op_ms.values()))
        return {
            "ops_per_s": len(lat_ms) / (lat_ms.sum() / 1000.0),
            "op_p50_ms": float(np.median(lat_ms)),
            "op_tail_ms": float(np.percentile(lat_ms, tail_p)),
        }

    summary = summarize(outcomes)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(latency_metrics(scaled_ms))
    metrics["ok_frac"] = 1.0 - summary["failed"] / summary["attempted"]
    metrics["peak_rss_mb"] = peak_rss_mb
    kind_of = {o.id: o.kind for o in outcomes}
    slowest = sorted(scaled_ms.items(), key=lambda item: item[1], reverse=True)[:25]
    report = {
        "workload": args.workload,
        "why": workload.why,
        "mode": "untraced",
        "passes": passes,
        "ops_per_pass": len(samples),
        "loop_s": measured,
        "raw_ops_per_s": len(outcomes) / measured,
        "speed_kernel": workload.kernel,
        "unscaled_fastest_pass": latency_metrics(fastest_ms),
        "latency_samples": len(scaled_ms),
        "op_tail_percentile": tail_p,
        "op_tail_samples_beyond": sum(v > metrics["op_tail_ms"] for v in scaled_ms.values()),
        "failed_frac": summary["failed"] / summary["attempted"],
        "setup_samples_s": setups,
        "kind_p50_ms": kind_medians(outcomes),
        "slowest_ops_ms": [[kind_of[i], round(v, 3)] for i, v in slowest],
        "provenance": provenance(args.seed),
    }
    report.update(summary)
    result = {
        "correct": summary["wrong_or_error"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    return report, result


def layer_metrics(table, counters, extra):
    values = {}
    for name in PER_LAYER_NAMES:
        head, stat = name.rsplit(".", 1)
        if name in extra:
            values[name] = extra[name]
        elif stat == "full_ratio":
            calls = table.get(head, {}).get("calls", 0)
            values[name] = counters.get(f"{head}.full", 0) / calls if calls else 0.0
        elif stat in ("calls", "busy_s", "self_s"):
            values[name] = table.get(head, {}).get(stat, 0)
        else:
            values[name] = counters.get(name, 0)
    return values


def run_traced(args, tiny: bool):
    _, ops = setup(args.workload, args.seed, tiny)
    import tracer as tr
    import workloads

    workload = workloads.WORKLOADS[args.workload]

    # Untraced, traced, untraced again: the mean of the two untraced passes
    # cancels warm-up and drift in the overhead estimate.  Every pass gets
    # freshly built inputs, so nothing cached on an input object carries over.
    untraced = run_pass(ops, direct, workload.kernel)
    before = tr.binding_snapshot()
    t = tr.Tracer()
    span_names = t.install()
    try:
        traced = run_pass(workload.build(args.seed, 0, tiny),
                          lambda op: t.op(op.id, op.run), workload.kernel)
    finally:
        t.restore()
    after = tr.binding_snapshot()
    restored = all(after.get(key) is val for key, val in before.items())
    untraced_again = run_pass(workload.build(args.seed, 0, tiny), direct, workload.kernel)
    mismatched = [u.id for (u, _), (v, _), (w, _) in zip(untraced, traced, untraced_again)
                  if not u.digest == v.digest == w.digest]

    def scaled_s(done):
        return sum(v for _, v in done)

    table = t.per_function()
    op_s = table.get(tr.OP_SPAN, {}).get("busy_s", 0.0)
    overhead_s = scaled_s(traced) - (scaled_s(untraced) + scaled_s(untraced_again)) / 2.0
    extra = {"trace.op_s": op_s, "trace.overhead_s": overhead_s}
    values = layer_metrics(table, t.counters, extra)
    missing = [n for n in workload.coverage if table.get(n, {}).get("calls", 0) == 0]
    if missing:
        print(f"warning: no calls recorded for {missing}", file=sys.stderr)
    top_self = sorted(((row["self_s"], name) for name, row in table.items()
                       if name != tr.OP_SPAN), reverse=True)[:10]
    shares = {
        name: table[name]["busy_s"] / op_s
        for name in ("scalars.rank_exact", "freegroup.commutator_defect",
                     "randmat.empirical_rank", "realization.domain_check")
        if name in table and op_s > 0
    }
    summary = summarize([o for done in (untraced, traced, untraced_again) for o, _ in done])
    report = {
        "workload": args.workload,
        "why": workload.why,
        "mode": "traced",
        "ops": len(ops),
        "passes_s_at_reference_speed": [scaled_s(untraced), scaled_s(traced),
                                        scaled_s(untraced_again)],
        "traced_op_s": op_s,
        "tracing_overhead_s": overhead_s,
        "spans": len(t.spans),
        "wrapped_functions": len(span_names),
        "wrappers_removed": restored,
        "traced_equals_untraced": not mismatched,
        "mismatched_ops": mismatched[:50],
        "coverage_missing": missing,
        "busy_share_of_op_time": shares,
        "top_self_s": [[name, s] for s, name in top_self],
        "provenance": provenance(args.seed),
    }
    report.update(summary)
    correct = summary["wrong_or_error"] == 0 and not mismatched and restored
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()},
    }
    return report, result


def run_all(args):
    """Every workload in both modes, each in its own process, as a table."""
    results = {}
    ok = True
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                raise RuntimeError(f"{name} --trace {trace} exited {done.returncode}")
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                results[f"{name}.{metric}"] = entry
                print(f"{name:10s} {metric:45s} {entry['value']:>14.6g} {entry['unit']}")
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="op time to measure in an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every op kind at small sizes (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ncfield" / "__init__.py").is_file():
        print(f"error: no ncfield sources under {SRC}", file=sys.stderr)
        return 2
    # Pin the BLAS pool to the default of this 2-core machine before numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(min(2, os.cpu_count() or 1)))
    tiny = args.size == "tiny"
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.setup_probe:
        elapsed, _ = setup(args.workload, args.seed, tiny)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    report, result = (run_traced if args.trace else run_untraced)(args, tiny)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
