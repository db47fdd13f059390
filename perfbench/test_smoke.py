"""Smoke test of the benchmark: every workload for a few rounds.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import spans

bench.import_dsba()
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def few_rounds(name):
    # any run meets a target of 0.99 at its first metric row
    return dataclasses.replace(bench.WORKLOADS[name], target=0.99, instances=1)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_emits_every_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    wl = few_rounds(name)
    result, tally = bench.measure(wl, seed=0, seconds=0)
    assert tally.failed == 0, tally.failures
    assert set(result["metrics"]) == set(bench.END_TO_END)

    traced, tally = bench.measure_traced(wl, seed=0)
    assert tally.failed == 0, tally.failures
    assert set(traced["metrics"]) == set(bench.PER_LAYER)
    assert traced["metrics"]["simulator.loop.s"] > 0
    assert spans.leftover_wrappers() == []
    assert (tmp_path / f"trace-{name}-seed0.json").is_file()


def test_every_traced_name_exists():
    # installed() skips a missing attribute, so a renamed function would
    # otherwise read as a layer that is never called
    sites, counted, _ = spans._targets()
    assert [f"{o.__name__}.{a}" for o, a, _ in sites + counted if a not in vars(o)] == []


def test_wrappers_removed_when_traced_run_raises():
    from dsba import simulator

    with pytest.raises(RuntimeError):
        with spans.installed(spans.Trace()):
            assert spans.leftover_wrappers()
            raise RuntimeError("traced run failed")
    assert spans.leftover_wrappers() == []
    assert not hasattr(simulator.run_sparse, spans.WRAPPED_MARK)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ridge-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
