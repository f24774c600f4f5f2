#!/usr/bin/env python3
"""Benchmark of the genrep CLI on seeded workloads.

    python3 perfbench/run.py --workload generic-modules --seed 1 --seconds 10 --trace 0

Run from the repository root.  One client runs a closed loop: jobs call
``genrep.cli.main(argv)`` back to back in this process, with no threads.
Each job's stdout is checked against the digest recorded in
``digests.json``.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass (see ``tracing.py``).  Anchor jobs (the
ROADMAP ladder) are reported as rows before the last line.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from quantiles import hd_quantile  # noqa: E402

SETUP_REPEATS = 9
# The machine's speed drifts by tens of percent over seconds (other tenants,
# CPU frequency).  A calibration slice runs before every job; times are
# scaled to a reference slice time, which removes that common factor.
CALIBRATION_LOOP = 20000
REFERENCE_SLICE_S = 1.4e-3
VERSION_LINE = re.compile(r'^  "version": .*$\n?', re.MULTILINE)
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def stdout_digest(text: str) -> str:
    """sha256 of a job's stdout without its top-level "version" entry."""
    return hashlib.sha256(VERSION_LINE.sub("", text).encode()).hexdigest()


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def execute(cli, argv) -> tuple[object, float, str]:
    """(exit code, seconds in ``cli.main``, stdout) of one in-process job.

    ``cli`` is the ``genrep.cli`` module; ``main`` is looked up per call so
    that a traced run sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed job, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue()


class Runner:
    """Runs jobs and checks exit code 0 and the recorded stdout digest."""

    def __init__(self, cli, directory: str, expected: dict):
        self.cli = cli
        self.directory = directory
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, job) -> tuple[bool, float, str]:
        """(ok, seconds in main, stdout) for one job."""
        code, seconds, text = execute(self.cli, workloads.argv_for(job, self.directory))
        ok = code == 0 and self.expected.get(job.key) == stdout_digest(text)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{job.key} {' '.join(job.argv)}: exit {code}")
        return ok, seconds, text


# Runs in a fresh interpreter: the import is scaled by slices taken in that
# process, which may run on another core than the benchmark.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {here!r})
from run import calibration_slice, normalize
before = calibration_slice()
start = time.perf_counter()
import genrep.cli
seconds = time.perf_counter() - start
print(normalize([seconds], [before, calibration_slice()])[0])
"""


def setup(workload: str, seed: int, base: str):
    """``import genrep.cli`` in a fresh interpreter plus generating and
    writing the run's input files, repeated; returns (median scaled
    seconds, plan, directory)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = IMPORT_PROBE.format(here=HERE)
    # later repetitions rewrite the same files: creating hundreds of new
    # files took 45 to 140 ms on the baseline VM, varying with the file
    # system's state
    directory = os.path.join(base, "inputs")
    os.makedirs(directory)
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                               capture_output=True, text=True)
        slices = [calibration_slice()]
        start = time.perf_counter()
        plan = workloads.plan(workload, seed)
        jobs = list(plan.warmup) + [j for r in plan.rounds for j in r] + [j for _, j in plan.anchors]
        workloads.write_inputs(jobs, directory)
        seconds = time.perf_counter() - start
        slices.append(calibration_slice())
        times.append(float(child.stdout) + normalize([seconds], slices)[0])
    return statistics.median(times), plan, directory


def pass_stats(times: list[float], oks: list[bool]) -> dict:
    """Throughput over the summed job times, and per-job percentiles."""
    return {"jobs": len(times), "jobs_per_s": sum(oks) / sum(times),
            "job_p50_s": hd_quantile(times, 0.5), "job_p90_s": hd_quantile(times, 0.9)}


def calibration_slice() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine-speed probe."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def normalize(times: list[float], slices: list[float]) -> list[float]:
    """Job times at reference machine speed: ``slices[i]`` ran just before
    job i and ``slices[i + 1]`` just after it; the speed changes within
    seconds, so each job is scaled by the mean of those two."""
    return [t * 2 * REFERENCE_SLICE_S / (slices[i] + slices[i + 1])
            for i, t in enumerate(times)]


def timed_pass(runner: Runner, rounds, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` of job time at reference speed have
    passed; returns (raw times, scaled times, oks, stdout bytes)."""
    times, slices, oks, nbytes = [], [calibration_slice()], [], 0
    for jobs in rounds:
        for job in jobs:
            if tracer is not None:
                tracer.begin_job(runner.attempted)
            ok, dt, text = runner.run(job)
            slices.append(calibration_slice())
            times.append(dt)
            oks.append(ok)
            nbytes += len(text.encode())
        if sum(normalize(times, slices)) >= seconds:
            break
    return times, normalize(times, slices), oks, nbytes


def benchmark_metric_names() -> tuple[set, set]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


def check_names(metrics: dict, declared: set) -> None:
    bad = [n for n in metrics if not METRIC_NAME.match(n) or n not in declared]
    if bad or set(metrics) != declared:
        raise RuntimeError(f"emitted metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ declared) or bad}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "genrep", "cli.py")):
        print(f"error: no genrep sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = benchmark_metric_names()
    expected = load_digests()[args.workload]

    base = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    try:
        setup_s, plan, directory = setup(args.workload, args.seed, base)
        sys.path.insert(0, SRC)
        import genrep.cli
        runner = Runner(genrep.cli, directory, expected)
        for job in plan.warmup:
            runner.run(job)
        # the benchmark's own objects (digests, job lists) stay out of the
        # collector's way, as they would in a CLI process
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced_run(runner, plan, args)
            declared = per_layer
        else:
            metrics = untraced_run(runner, plan, args, setup_s)
            declared = end_to_end
    finally:
        shutil.rmtree(base, ignore_errors=True)
    check_names(metrics, declared)
    for failure in runner.failures:
        print("FAILED", failure)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def untraced_run(runner: Runner, plan, args, setup_s: float) -> dict:
    raw, times, oks, _ = timed_pass(runner, plan.rounds, args.seconds)
    stats, wall = pass_stats(times, oks), pass_stats(raw, oks)
    print(f"timed pass: {stats['jobs']} jobs, {sum(raw):.3f} s of job time; "
          f"fail_ratio {oks.count(False) / len(oks):.4f}; unscaled jobs_per_s "
          f"{wall['jobs_per_s']:.4f}, job_p50_s {wall['job_p50_s']:.5f}, "
          f"job_p90_s {wall['job_p90_s']:.5f}")
    for name, job in plan.anchors:
        before = calibration_slice()
        ok, dt, _ = runner.run(job)
        scaled = normalize([dt], [before, calibration_slice()])[0]
        print(f"anchor {name}: {scaled:.4f} s (unscaled {dt:.4f} s){'' if ok else ' FAILED'}")
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (stats["jobs_per_s"], "1/s"),
        "job_p50_s": (stats["job_p50_s"], "s"),
        "job_p90_s": (stats["job_p90_s"], "s"),
        "ok_ratio": (sum(oks) / len(oks), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(runner: Runner, plan, args) -> dict:
    """Round 0 untraced, round 1 traced: each job of one round is paired with
    a job of the other of about the same recorded time, so the ratio of
    their throughputs is the tracing overhead.  The traced job set is fixed
    for a seed, so its counts repeat exactly."""
    from tracing import Tracer, metric_units
    _, plain, plain_oks, _ = timed_pass(runner, plan.rounds[:1], float("inf"))
    tracer = Tracer()
    try:
        tracer.install()
        _, times, oks, nbytes = timed_pass(runner, plan.rounds[1:2], float("inf"), tracer)
    finally:
        tracer.uninstall()
    spans = os.path.join(HERE, ".work", f"spans-{args.workload}-{args.seed}.tsv.gz")
    tracer.write_spans(spans)
    print(f"traced pass: {len(times)} jobs, {len(tracer.span_name)} spans written to {spans}")
    units = metric_units()
    values = tracer.layer_metrics()
    values["cli.stdout_bytes"] = nbytes
    values["trace.overhead"] = (pass_stats(times, oks)["jobs_per_s"]
                                / pass_stats(plain, plain_oks)["jobs_per_s"])
    return {name: (value, units[name]) for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
