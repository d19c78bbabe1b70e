#!/usr/bin/env python3
"""Benchmark of the ahrenvol audit pipeline, run from the repository root.

    python3 perfbench/run.py --workload radial-audit --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 15 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics: time of one pass
rescaled to a fixed machine speed (median over the passes that fit in
``--seconds``, at least one; see ``workloads.SpeedProbe``), set-up time
(median over fresh interpreters), peak RSS, the share of audits that passed
and the oracle headroom.  With ``--trace 1`` it runs each operation
untraced and then traced, and prints per-layer counts and self times from the
traced runs, plus the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process and prints them all.

The program is imported from ``src/`` of the checkout this file sits in; the
run exits 2 without a result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("radial-audit", "torus-audit", "flow")

# One BLAS thread: the workloads are single-process, single-threaded audits.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_REF_S = 0.25

# What a CLI user pays on every invocation: a fresh interpreter importing the
# CLI (numpy, scipy), loading the config and building the geometry.
SETUP_CODE = """
import json, sys
from ahrenvol import cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        cli.AuditConfig.from_dict(json.load(handle)).geometry()
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(ctx) -> tuple:
    """Raw and speed-rescaled wall times of SETUP_REPEATS fresh interpreters.

    The benchmark and its children share one CPU meanwhile, so the speed
    kernel, run just before and just after each child, times the CPU the child
    ran on.  Each child's time is rescaled like a pass (see ``speed``).
    """
    from speed import REF_NOMINAL_S, reference_per_call

    cmd = [sys.executable, "-c", SETUP_CODE, *(ctx.config_path(label) for label in ctx.raw)]
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    raw, scaled = [], []
    try:
        for _ in range(SETUP_REPEATS):
            before = reference_per_call(SETUP_REF_S)
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=120)
            elapsed = time.perf_counter() - start
            after = reference_per_call(SETUP_REF_S)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
            raw.append(elapsed)
            scaled.append(elapsed * 2.0 * REF_NOMINAL_S / (before + after))
    finally:
        os.sched_setaffinity(0, affinity)
    return raw, scaled


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_raw, setup_scaled) -> tuple:
    from workloads import graded, row_headroom

    ops = [op for p in passes for op in p.ops]
    rows = [row for op in ops for row in op.rows if graded(row) and row["passed"]]
    attempted = len(ops)
    failed = sum(op.failed for op in ops)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": metric(statistics.median(p.adjusted_seconds for p in passes), "s"),
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "peak_rss_mb": metric(rss_mib, "MiB"),
        "passed_audits_pct": metric(100.0 * (attempted - failed) / attempted, "%"),
        "oracle_headroom": metric(min(map(row_headroom, rows), default=0.0), "decades"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes at reference speed; raw wall time "
                  f"{statistics.median(p.seconds for p in passes):.3f} s",
        "setup_s": f"median of {len(setup_scaled)} fresh interpreters at reference speed; "
                   f"raw {statistics.median(setup_raw):.3f} s",
        "peak_rss_mb": "max RSS of this process",
        "passed_audits_pct": f"failed_audits {failed}/{attempted} attempted",
        "oracle_headroom": f"min over {len(rows)} graded passing rows",
    }
    return metrics, notes


def cli_layer(pass_result) -> dict:
    """cli.<subcommand>.{s,headroom} and cli.report_bytes of one pass."""
    from ahrenvol import cli
    from workloads import graded, row_headroom

    out = {}
    for sub in cli.SUBCOMMANDS:
        ops = [op for op in pass_result.ops if op.subcommand == sub]
        rows = [row for op in ops for row in op.rows if graded(row) and row["passed"]]
        out[f"cli.{sub}.s"] = metric(sum((op.seconds for op in ops), 0.0), "s")
        # 0 where the workload does not run the subcommand or it has no graded row
        out[f"cli.{sub}.headroom"] = metric(min(map(row_headroom, rows), default=0.0), "decades")
    out["cli.report_bytes"] = metric(sum(op.report_bytes for op in pass_result.ops), "bytes")
    return out


def per_layer(plain, traced, tracer) -> dict:
    """Per-layer metrics of a traced pass, and the tracing overhead."""
    metrics = {k: metric(v, layer_unit(k)) for k, v in tracer.layer_metrics().items()}
    metrics.update(cli_layer(traced))
    metrics["trace.untraced_wall_s"] = metric(plain.seconds, "s")
    metrics["trace.traced_wall_s"] = metric(traced.seconds, "s")
    metrics["trace.overhead_s"] = metric(traced.seconds - plain.seconds, "s")
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith((".self_s", ".median_s")):
        return "s"
    if name.endswith(".median_ms"):
        return "ms"
    return "count"


def run_workload(args) -> int:
    if not (SRC / "ahrenvol" / "cli.py").is_file():
        print(f"error: no ahrenvol source tree at {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:  # before numpy is first imported
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import Context, run_paired_pass, run_pass, warm_up

    print("machine: " + json.dumps(machine_record(args.seed), sort_keys=True))
    workdir = ROOT / ".perfbench-tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = Context(args.workload, args.seed, str(workdir))
        if args.trace:
            warm_up(ctx)
            tracer = Tracer()
            plain, traced = run_paired_pass(ctx, tracer)
            passes = [plain, traced]
            metrics, notes = per_layer(plain, traced, tracer), {}
        else:
            setup_raw, setup_scaled = measure_setup(ctx)
            warm_up(ctx)
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(ctx))
            metrics, notes = end_to_end(passes, setup_raw, setup_scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    problems = [p for pass_result in passes for p in pass_result.problems]
    for problem in problems:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']:8s} {notes.get(name, '')}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; all metrics printed together."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
