import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(hf, tmp_path, name, trace, reference=None):
    return bench.run(hf, bench.WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace,
                     work_dir=tmp_path, watch_root=run.ROOT, reference=reference)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(hf, tmp_path, name, trace):
    result = tiny_run(hf, tmp_path, name, trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == bench.MIN_ROUNDS * (2 if trace else 1)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert not list(tmp_path.glob("tmp/*"))
    if not trace:
        setups = result["attempted"] * (1 + bench.SETUP_REPEATS)
        assert result["samples"]["setup_s"]["n"] == setups


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_corrupted_reference_digest_fails_every_bundle(hf, tmp_path, name):
    good = tiny_run(hf, tmp_path, name, False)
    assert tiny_run(hf, tmp_path, name, False, reference=good["digest"])["correct"]
    bad = tiny_run(hf, tmp_path, name, False, reference="0" * 64)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0
    assert "reference" in bad["failures"][0]


def test_traced_counts_match_the_interval_loop(hf, tmp_path):
    result = tiny_run(hf, tmp_path, "wind-diag", True)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    workload = bench.WORKLOADS["wind-diag"].tiny()
    intervals = workload.arms * workload.horizon
    assert metrics["engine.interval.calls"] == intervals
    assert metrics["seriesio.write_pddf_dump.calls"] == workload.horizon
    assert metrics["aggregator.calls_per_interval"] == 11
    assert metrics["seriesio.files_written"] == workload.horizon + 6
    # the root spans cover the bundle, so the self times add up to its wall time
    assert result["samples"]["max_unattributed_frac"] <= 0.01
    assert 0.0 < metrics["trace.catchall_frac"] < 1.0


def test_peak_rss_is_read_at_the_end_of_the_first_bundle(hf, tmp_path):
    result = tiny_run(hf, tmp_path, "track-1k", False)
    rss = result["samples"]["peak_rss_kb"]
    assert result["metrics"]["peak_rss_mb"]["value"] == rss["first"] / 1024
    assert rss["first"] <= rss["last"]


def test_track_reference_is_the_committed_default_bundle():
    references = json.loads(run.REFERENCE_FILE.read_text())
    assert references["seed"] == run.DEFAULT_SEED
    committed = bench.output_digest(run.ROOT / "heatfleet_out")
    assert references["digests"]["track-1k"] == committed
    assert set(references["digests"]) == set(bench.WORKLOADS)


def test_benchmark_file_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


def test_tree_snapshot_sees_changes_outside_ignored_dirs(tmp_path):
    (tmp_path / "a.txt").write_text("a")
    (tmp_path / "__pycache__").mkdir()
    before = bench.tree_snapshot(tmp_path)
    (tmp_path / "__pycache__" / "x.pyc").write_text("x")
    assert bench.tree_snapshot(tmp_path) == before
    (tmp_path / "a.txt").write_text("b")
    assert bench.tree_snapshot(tmp_path) != before


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
