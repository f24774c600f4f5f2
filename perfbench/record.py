#!/usr/bin/env python3
"""Record the stdout digest of every job the benchmark can run.

    python3 perfbench/record.py [workload ...]

Runs each universe job and anchor of the named workloads (default: all)
in-process, ``PASSES`` times, and writes their digests to ``digests.json``
and their median times at reference speed to ``costs.json`` (which
``workloads.plan`` uses to pair jobs of equal size).
Run it only when an output change is intended and explained; a digest
that changes otherwise is a behaviour change.  Prints per-stratum times.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

import run
import workloads

# passes over every job: digests must agree, costs are the median
PASSES = 3


def record(workload: str, directory: str) -> tuple[dict, dict]:
    import genrep.cli
    jobs = workloads.universe(workload) + [job for _, job in workloads.anchors(workload)]
    workloads.write_inputs(jobs, directory)
    digests, times = {}, {job.key: [] for job in jobs}
    for _ in range(PASSES):
        for job in jobs:
            before = run.calibration_slice()
            code, dt, text = run.execute(genrep.cli, workloads.argv_for(job, directory))
            if code != 0:
                raise SystemExit(f"job {' '.join(job.argv)} exited {code} while recording")
            digest = run.stdout_digest(text)
            if digests.setdefault(job.key, digest) != digest:
                raise SystemExit(f"job {' '.join(job.argv)} printed different output on "
                                 "two passes")
            times[job.key].append(run.normalize([dt], [before, run.calibration_slice()])[0])
    costs = {key: round(statistics.median(ts), 5) for key, ts in times.items()}
    by_stratum = {}
    for job in jobs:
        by_stratum.setdefault(job.stratum, []).append(costs[job.key])
    for stratum, ts in sorted(by_stratum.items()):
        print(f"{workload} {stratum}: n={len(ts)} median={statistics.median(ts):.4f} "
              f"max={max(ts):.4f} sum={sum(ts):.2f}", flush=True)
    return digests, costs


def _load(path) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    digest_path = os.path.join(run.HERE, "digests.json")
    digests, costs = _load(digest_path), _load(workloads.COSTS_PATH)
    sys.path.insert(0, run.SRC)
    directory = os.path.join(run.HERE, ".work", f"record-{os.getpid()}")
    os.makedirs(directory)
    try:
        for name in names:
            digests[name], costs[name] = record(name, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    _dump(digest_path, digests)
    _dump(workloads.COSTS_PATH, costs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
