"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

WORKLOADS = ("audit", "derive", "sample")
SEED = 1  # pinned in refs.json, so the sample reports are checked digest by digest


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    res, lines = result(bench("--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", "0", "--tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END_UNITS
    for name, unit in run.END_TO_END_UNITS.items():
        value = res["metrics"][name]["value"]
        assert value > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_ratio = 0 ratio") for line in lines)
    context = json.loads(lines[-1][len("context: "):])
    for w in context["workers"]:
        assert w["run_wall_s"] > 0 and w["slices_per_s"] > 0
    assert context["reference_check"] == ["pinned"]


def test_unpinned_sample_seed_says_so_and_is_still_checked():
    res, lines = result(bench("--workload", "sample", "--seed", "987654321",
                              "--seconds", "1", "--trace", "0", "--tiny"))
    assert res["correct"] is True and res["failed"] == 0
    context = json.loads(lines[-1][len("context: "):])
    [note] = context["reference_check"]
    assert note.startswith("no pinned sample reports for seed 987654321")


def test_traced_run_gives_every_layer_metric_and_repeatable_counts():
    res, lines = result(bench("--workload", "audit", "--seed", str(SEED),
                              "--seconds", "1", "--trace", "1", "--tiny"))
    assert res["correct"] is True, lines[-1]
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER_UNITS
    # derivation counts do not depend on the trial count
    assert metrics["connection.make_connection_calls"]["value"] == 196
    assert metrics["connection.levi_civita_calls"]["value"] == 255
    context = json.loads(lines[-1][len("context: "):])
    assert set(context["layer_times"]) == set(run.CONTEXT_LAYER_UNITS)
    assert all(v > 0 for v in context["layer_times"].values())
    spans = os.path.join(BENCH, "out", f"spans-audit-seed{SEED}-run1.jsonl")
    with open(spans, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"name", "start", "end", "parent", "run"}


def _corrupt(refs):
    refs["audit"]["verdicts"]["G1/bott/codazzi"] = "holds-always"
    first = sorted(refs["derive"])[0]
    refs["derive"] = {k: "0" * 16 for k in refs["derive"]} | {first: refs["derive"][first]}
    refs["sample"]["seeds"][str(SEED)] = {k: "0" * 16 for k in refs["sample"]["seeds"][str(SEED)]}
    return refs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_drives_failed_ratio_above_zero(workload, tmp_path):
    with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
        refs = _corrupt(json.load(fh))
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs), encoding="utf-8")
    res, lines = result(bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                              "--tiny", "--refs", str(bad)))
    assert res["correct"] is False
    assert res["failed"] > 0
    context = json.loads(lines[-1][len("context: "):])
    assert context["failed_ratio"] > 0


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "derive", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
