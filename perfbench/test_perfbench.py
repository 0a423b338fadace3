"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, seed=7, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_runner_emits():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(run_tiny(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_on_one_seed_give_identical_counts(workload):
    first, second = (result_of(run_tiny(workload, 1))["metrics"] for _ in range(2))
    counts = [name for name, unit, _ in METRICS
              if unit in ("count", "B") or name.endswith("_per_form")
              or name.endswith("_per_check")]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_traced_and_untraced_ops_give_identical_stdout(tmp_path):
    from quadboson import cli

    for workload in workloads.WORKLOADS:
        ops, _ = workloads.build(workload, 3, str(tmp_path / workload), tiny=True)
        plain = [bench.call(cli, op.argv)[:2] for op in ops]
        tracer = Tracer()
        tracer.install()
        try:
            traced = []
            for i, op in enumerate(ops):
                tracer.begin_op(i)
                traced.append(bench.call(cli, op.argv)[:2])
                tracer.end_op()
        finally:
            tracer.uninstall()
        assert traced == plain, workload
        assert tracer.calls["cli"] > 0


def traced_op(argv):
    from quadboson import cli

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        rc = bench.call(cli, argv)[0]
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer.snapshot()


def test_traced_counts_match_the_pipeline(tmp_path):
    fx = workloads.Fixtures(str(tmp_path), 0)
    pd = fx.random("pd", 8, "pd")
    plain = traced_op(["analyze", pd])
    assert (plain["spectral.eigensolves"], plain["spectral.forms"]) == (2, 1)
    emit = traced_op(["analyze", pd, "--emit-modes"])
    assert emit["spectral.eigensolves_per_form"] == 3.0
    oracle = traced_op(["oracle", "--input", fx.random("pd2", 2, "pd"), "--nmax", "8"])
    assert oracle["oracle.fock_builds_per_check"] == 4.0
    assert oracle["spectral.eigensolves_per_form"] == 2.0
    assert oracle["oracle.fock_bytes_computed"] == 16 * sum((m + 1) ** 4 for m in (4, 6, 8, 8))
    evolve = traced_op(["evolve", fx.bcs("jordan", workloads.EPS), "--t", "0:1:11"])
    assert evolve["evolution.expm_calls"] == evolve["linalg.expm_calls"] == 11


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("analyze-mix", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
