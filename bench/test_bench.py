"""Tests of the benchmark itself, at test size.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from resilient_cluster import lp  # noqa: E402
from resilient_cluster.core import Clustering  # noqa: E402

RECORD_KEYS = {"seed", "commit", "python", "numpy", "nproc", "cpu_model", "classes",
               "samples", "tail_percentile", "failed_frac"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric_with_its_unit(name, trace):
    code, lines, err = bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                             "--trace", trace, "--tiny")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else spans.LAYER_METRICS
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    assert RECORD_KEYS <= set(record)
    assert record["failed_frac"] == {"value": 0.0, "unit": "ratio"}


def test_same_seed_same_corpus():
    w = workloads.WORKLOADS["certify-exact"]
    first, _ = workloads.build_corpus(w, 5, tiny=True)
    again, _ = workloads.build_corpus(w, 5, tiny=True)
    other, _ = workloads.build_corpus(w, 6, tiny=True)
    dists = [item.args["dist"] for item in first]
    assert dists == [item.args["dist"] for item in again]
    assert dists != [item.args["dist"] for item in other]


def _wrong_partition(clus: Clustering) -> Clustering:
    """Move one non-center point to another cluster."""
    assignment = list(clus.assignment)
    u = next(u for u, g in enumerate(assignment) if g >= 0 and u not in clus.centers)
    assignment[u] = (assignment[u] + 1) % clus.k
    return Clustering(tuple(assignment), clus.centers)


def test_corrupted_verdict_counts_in_failed_frac():
    w = workloads.WORKLOADS["certify-exact"]
    items, _ = workloads.build_corpus(w, 5, tiny=True)
    planted = [item for item in items if item.planted is not None]
    results = run.run_items(planted, w.run)
    assert run.evaluate(w, results) == []
    verdict = results[0].output
    results[0].output = lp.CertifierVerdict(
        verdict.kind, _wrong_partition(verdict.clustering), verdict.lp_radius, None)
    failures = run.evaluate(w, results)
    assert len(failures) == 1 and "partition" in failures[0]

    class Args:
        seed, seconds, trace, tiny, workload = 5, 0.0, 0, True, w.name

    record = run.run_record(Args, w, items, results, len(results), failures)
    assert record["failed_frac"]["value"] == pytest.approx(1 / len(results))


def test_cli_check_rejects_a_wrong_radius():
    w = workloads.WORKLOADS["cli-certify"]
    items, _ = workloads.build_corpus(w, 5, tiny=True)
    item = items[0]
    report = {"verdict": "OPTIMAL", "radius": item.extra["radius"] + 1,
              "clustering": {"assignment": list(item.planted.assignment),
                             "centers": list(item.planted.centers)}}
    assert "radius" in w.check(item, (0, json.dumps(report), 0), {})
    report["radius"] = item.extra["radius"]
    assert w.check(item, (0, json.dumps(report), 0), {}) is None
    assert "exit code 1" in w.check(item, (1, "error", 0), {})


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, err = bench("--workload", "falsify", "--seed", "1", "--seconds", "1",
                             cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
    assert "cannot import resilient_cluster" in err
