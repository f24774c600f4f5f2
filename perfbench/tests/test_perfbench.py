"""Tests of the benchmark itself: generator, output check and tracing.

    python3 -m pytest perfbench/tests
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def job_list(workload, seed):
    p = workloads.plan(workload, seed)
    jobs = list(p.warmup) + [j for r in p.rounds for j in r] + [j for _, j in p.anchors]
    return json.dumps([[j.argv, j.files] for j in jobs])


@pytest.fixture(scope="module")
def digests():
    return run.load_digests()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)


def test_generator_never_imports_genrep():
    tree = ast.parse(open(os.path.join(BENCH, "workloads.py"), encoding="utf-8").read())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "genrep"]
    code = ("import sys, workloads; workloads.plan('sifting-points', 0); "
            "sys.exit(any(m.split('.')[0] == 'genrep' for m in sys.modules))")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                   env=dict(os.environ, PYTHONPATH=BENCH))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_default_seed_jobs_distinct_and_recorded(workload, digests):
    p = workloads.plan(workload, 0)
    jobs = list(p.warmup) + [j for r in p.rounds for j in r] + [j for _, j in p.anchors]
    assert len({j.argv for j in jobs}) == len(jobs)
    assert len(p.rounds[0]) >= 10
    # every job any seed can select has a recorded digest
    every = workloads.universe(workload) + [j for _, j in workloads.anchors(workload)]
    assert all(j.key in digests[workload] for j in every)


def test_module_point_layering_is_self_contained():
    S = workloads.point_layering("relay", workloads.GENERIC_POINT_14)
    assert S == workloads.RELAY_FIXTURE[14]
    assert workloads.skeleton_count("relay", S) == 360
    assert workloads.point_layering("six_vertex", workloads.WORKED_MODULE_9) == [
        [2, 1, 1, 0, 0, 0], [0, 0, 0, 2, 1, 0], [0, 0, 0, 0, 0, 2]]


def test_generator_layering_matches_genrep():
    import random
    from genrep.algebra_core import algebra_from_json
    from genrep.matrix_rep import RATIONALS, module_point_from_json, radical_layering
    rng = random.Random(1)
    for alg in ("relay", "double_back", "six_vertex"):
        algebra = algebra_from_json(workloads.algebra_json(alg))
        for _ in range(5):
            module = workloads.random_module_point(rng, alg, 4, 4)
            rep = module_point_from_json(module, algebra, RATIONALS)
            assert [list(r) for r in radical_layering(rep).layers] == \
                workloads.point_layering(alg, module)


def test_version_key_does_not_change_digest():
    a = '{\n  "hom_dim": 9,\n  "seed": 0,\n  "version": "0.1.0"\n}'
    assert run.stdout_digest(a) == run.stdout_digest(a.replace("0.1.0", "9.9.9"))
    assert run.stdout_digest(a) != run.stdout_digest(a.replace("9,", "8,"))


@pytest.fixture
def cheap_jobs(tmp_path):
    jobs = [j for j in workloads.universe("paths-syzygies")
            if j.stratum in ("skeleta", "critical", "projdim-L6")][:4]
    workloads.write_inputs(jobs, str(tmp_path))
    return jobs, str(tmp_path)


def test_corrupted_digest_is_a_failure(cheap_jobs, digests):
    import genrep.cli
    jobs, directory = cheap_jobs
    expected = {j.key: digests["paths-syzygies"][j.key] for j in jobs}
    runner = run.Runner(genrep.cli, directory, expected)
    assert all(runner.run(j)[0] for j in jobs) and runner.failed == 0
    bad = jobs[1]
    expected[bad.key] = expected[bad.key][::-1]
    assert runner.run(bad)[0] is False
    assert (runner.attempted, runner.failed) == (len(jobs) + 1, 1)
    missing = run.Runner(genrep.cli, directory, {})
    assert missing.run(jobs[0])[0] is False


def test_tracing_wraps_everything_and_keeps_output(cheap_jobs, digests):
    import genrep.cli
    import genrep.matrix_rep
    from tracing import Tracer, metric_units
    jobs, directory = cheap_jobs
    original_add = genrep.matrix_rep.RowSpace.add
    tracer = Tracer()
    tracer.install()
    try:
        assert genrep.matrix_rep.RowSpace.add is not original_add
        assert genrep.cli.count_skeleta is tracer.wrappers["skeleta.count_skeleta"]
        runner = run.Runner(genrep.cli, directory, digests["paths-syzygies"])
        for i, job in enumerate(jobs):
            tracer.begin_job(i)
            assert runner.run(job)[0]
    finally:
        tracer.uninstall()
    assert genrep.matrix_rep.RowSpace.add is original_add
    assert tracer.stats["cli.main.calls"] == len(jobs)
    assert len(tracer.span_name) > len(jobs)
    assert all(e >= s for s, e in zip(tracer.span_start, tracer.span_end))
    assert tracer.span_parent[0] == -1 and tracer.names[tracer.span_name[0]] == "cli.main"
    names = set(metric_units())
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert set(tracer.layer_metrics()) == names - {"cli.stdout_bytes", "trace.overhead"}


def test_install_rejects_a_leftover_original():
    import genrep.cli
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        genrep.cli.main = genrep.cli.main.__wrapped__
        with pytest.raises(RuntimeError, match="genrep.cli.main"):
            tracer.check_installed()
    finally:
        tracer.uninstall()


def test_harrell_davis_quantile():
    import statistics
    from quantiles import beta_cdf, hd_quantile
    assert beta_cdf(0.3, 2, 5) == pytest.approx(0.579825, abs=1e-9)
    assert beta_cdf(0.7, 5, 2) == pytest.approx(1 - 0.579825, abs=1e-9)
    values = [(i * 7919) % 1001 / 1000 for i in range(1001)]
    assert hd_quantile(values, 0.5) == pytest.approx(statistics.median(values), abs=2e-3)
    assert hd_quantile(values, 0.9) == pytest.approx(0.9, abs=2e-3)
    assert hd_quantile([3.0] * 17, 0.9) == pytest.approx(3.0)
