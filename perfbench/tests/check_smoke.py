"""Smoke test of the benchmark: every workload at tiny scale.

Kept out of the repository's own test collection (the file name does not
match ``test_*.py``); run it with::

    python -m pytest perfbench/tests/check_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 0.1
SECONDS = 2.0

# Counted per-layer metrics that must repeat exactly for one seed.
COUNTED = ("storage.decode.calls", "core.merge.calls",
           "core.propagate.calls", "db.resolve.calls",
           "txn.checkpoint.calls", "txn.wal.fsyncs", "core.delta_entries")


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    """The benchmark writes its scratch files under the working
    directory."""
    monkeypatch.chdir(tmp_path)


def test_spec_lists_every_workload():
    assert set(WORKLOADS) == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics(name):
    _, result = bench.run(name, seed=3, seconds=SECONDS, traced=False,
                          scale=TINY)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(E2E_UNITS)
    for metric, reading in metrics.items():
        assert reading["unit"] == E2E_UNITS[metric]
        assert reading["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_metrics_and_exact_counts(name):
    runs = [bench.run(name, seed=5, seconds=SECONDS, traced=True,
                      scale=TINY)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"], result
        metrics = result["metrics"]
        assert set(metrics) == set(LAYER_UNITS)
        for metric, reading in metrics.items():
            assert reading["unit"] == LAYER_UNITS[metric]
        assert metrics["exec.remote_jobs"]["value"] == 0
        assert metrics["error_rate"]["value"] == 0
    for metric in COUNTED:
        assert runs[0]["metrics"][metric] == runs[1]["metrics"][metric], \
            metric


def _drop_last_row(method):
    def corrupted(*args, **kwargs):
        rel = method(*args, **kwargs)
        if rel.num_rows == 0:
            return rel
        return rel.take(np.arange(rel.num_rows - 1))
    return corrupted


# Where each workload's reads return results to the client.
READ_PATHS = {
    "scan_mix": ("repro.db.database", "Database", "query_range"),
    "write_mix": ("repro.db.database", "Database", "query_point"),
    "tpch_refresh": ("repro.service.cursor", "StreamingCursor",
                     "to_relation"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrong_result_counts_as_failure(name, monkeypatch):
    module, cls_name, method = READ_PATHS[name]
    cls = getattr(sys.modules[module], cls_name)
    monkeypatch.setattr(cls, method, _drop_last_row(getattr(cls, method)))
    _, result = bench.run(name, seed=7, seconds=SECONDS, traced=False,
                          scale=TINY)
    assert result["failed"] > 0
    assert not result["correct"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark files, the command exits
    non-zero and prints no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
