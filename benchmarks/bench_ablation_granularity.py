"""Ablation — sparse-index granularity vs update positioning cost.

Value-addressed updates locate their RIDs with a sparse-index-restricted
MergeScan (paper section 3.2). Finer granules mean less scanning per
update but a larger index; this ablation measures the trade-off that
single-row statements inherit: each op is applied as a batch of one
through ``PositionalUpdater``, whose resolution sweep starts at the
granule the index selects.

Run: ``pytest benchmarks/bench_ablation_granularity.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.bench import Report, scaled
from repro.storage.sparse_index import SparseIndex
from repro.workloads import apply_ops_pdt, build_table, generate_ops

N_ROWS = scaled(100_000)
GRANULES = [64, 256, 1024, 4096, 16384]
RATE = 1.0

_report = Report(
    f"Ablation: sparse-index granularity ({N_ROWS} rows, "
    f"{RATE}/100 updates)",
    ["granularity", "index_entries", "apply_ms"],
)


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    if _report.rows:
        _report.print()
        _report.save("ablation_granularity")


@pytest.fixture(scope="module")
def base():
    table = build_table(N_ROWS, seed=17)
    ops = generate_ops(table, RATE, seed=18)
    return table, ops


@pytest.mark.parametrize("granularity", GRANULES)
def test_positioning_cost(benchmark, base, granularity):
    table, ops = base
    index = SparseIndex(table, granularity=granularity)

    benchmark.pedantic(
        lambda: apply_ops_pdt(table, ops, index),
        rounds=3, iterations=1,
    )
    _report.add(granularity, index.memory_entries(),
                benchmark.stats["mean"] * 1000)
