"""Ablation — vectorized bulk-update path vs per-row scalar updates.

The write-side twin of the block-merge ablation: the same scattered
update stream applied through the tuple-at-a-time scalar updater kept in
``tests/core/scalar_updater.py`` (one index-probed MergeScan restart per
operation, walking the granule row by row — the original per-row path,
now the differential oracle) and through :class:`PositionalUpdater` as
one batch (sort the batch, resolve every target position in one
index-guided sweep with per-block ``searchsorted``, ingest the run with
one bulk PDT append). The paper's update-throughput results (Figure 16)
hinge on batch application; Krueger et al. make the same point for delta
ingestion generally.

The acceptance configuration is the 100k-row stable table with a
10k-operation batch (10 updates/100), where the bulk path must be ≥ 3×
the scalar path; the final report prints the measured speedup per rate.

Run from the repository root (the scalar leg imports the oracle from
``tests/``): ``python -m pytest benchmarks/bench_ablation_bulk_updates.py
-q -s``
"""

from __future__ import annotations

import time

import pytest

from repro.bench import Report, scaled
from repro.core.pdt import PDT
from repro.workloads import apply_ops_pdt, build_workload
from tests.core.scalar_updater import ScalarUpdater, apply_ops

N_ROWS = scaled(100_000)
RATES = [0.5, 2.0, 10.0]  # 10.0 == the 10k-op acceptance point
GRANULARITY = 4096

_report = Report(
    f"Ablation: bulk vs scalar update application ({N_ROWS} rows), ms",
    ["updates_per_100", "variant", "ms"],
)
_times: dict[tuple, float] = {}


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if not _report.rows:
        return
    _report.print()
    _report.save("ablation_bulk_updates")
    speedup = Report(
        "Ablation: bulk update path speedup over scalar per-row path",
        ["updates_per_100", "speedup_x"],
    )
    for rate in RATES:
        scalar_ms = _times.get((rate, "scalar"))
        bulk_ms = _times.get((rate, "bulk"))
        if scalar_ms is None or bulk_ms is None:
            continue
        speedup.add(rate, scalar_ms / bulk_ms)
    if speedup.rows:
        speedup.print()
        speedup.save("ablation_bulk_updates_speedup")


@pytest.fixture(scope="module")
def cases():
    cache = {}
    for rate in RATES:
        cache[rate] = build_workload(
            N_ROWS, updates_per_100=rate, seed=int(rate * 3) + 1,
            granularity=GRANULARITY,
        )
    return cache


def _apply_scalar(wl):
    """The scalar leg: every op through the tuple-at-a-time oracle."""
    pdt = PDT(wl.table.schema)
    apply_ops(ScalarUpdater(wl.table, [pdt], wl.sparse_index), wl.ops)
    return pdt


def _best_of(fn, n):
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.parametrize("rate", RATES)
def test_bulk_path(cases, rate):
    wl = cases[rate]
    secs, pdt = _best_of(
        lambda: apply_ops_pdt(wl.table, wl.ops, wl.sparse_index, bulk=True),
        n=3,
    )
    assert pdt.count() > 0
    _report.add(rate, "bulk", secs * 1000)
    _times[(rate, "bulk")] = secs * 1000


@pytest.mark.parametrize("rate", RATES)
def test_scalar_path(cases, rate):
    wl = cases[rate]
    secs, pdt = _best_of(
        lambda: _apply_scalar(wl),
        n=1,
    )
    assert pdt.count() > 0
    _report.add(rate, "scalar", secs * 1000)
    _times[(rate, "scalar")] = secs * 1000


def test_acceptance_speedup(cases):
    """The PR's acceptance bar, asserted: ≥ 3× at 100k stable rows with a
    10k-operation batch. Both paths produce identical PDTs (the property
    suite proves it); here only the clock differs."""
    wl = cases[10.0]
    bulk_s, bulk_pdt = _best_of(
        lambda: apply_ops_pdt(wl.table, wl.ops, wl.sparse_index, bulk=True),
        n=3,
    )
    scalar_s, scalar_pdt = _best_of(
        lambda: _apply_scalar(wl),
        n=1,
    )
    assert bulk_pdt.count() == scalar_pdt.count()
    ratio = scalar_s / bulk_s
    print(f"\nacceptance: bulk {bulk_s*1e3:.1f} ms, "
          f"scalar {scalar_s*1e3:.1f} ms, speedup {ratio:.2f}x "
          f"({len(wl.ops)} ops over {wl.table.num_rows} rows)")
    assert ratio >= 3.0
