"""Ablation — stacked-layer depth and Propagate cost.

The three-layer architecture (Trans/Write/Read) buys lock-free isolation;
this ablation measures what the stacking itself costs: merge-scan time
through 1, 2, or 3 layers holding the same total update volume, and the
cost of Propagate folding the top layer down (the operation that bounds
Write-PDT size; paper section 3.3).

Run: ``pytest benchmarks/bench_ablation_layers.py --benchmark-only``
"""

from __future__ import annotations

import random

import pytest

from repro.bench import Report, consume, scaled
from repro.core import merge_scan_layers, propagate
from repro.core.pdt import PDT
from repro.db.update_processor import PositionalUpdater
from repro.storage.sparse_index import SparseIndex
from repro.workloads import build_table, generate_ops

N_ROWS = scaled(50_000)
TOTAL_RATE = 2.4  # updates per 100 tuples across the whole stack
LAYER_COUNTS = [1, 2, 3]

_report = Report(
    f"Ablation: layered merge ({N_ROWS} rows, {TOTAL_RATE}/100 updates "
    f"total), ms",
    ["n_layers", "merge_ms", "propagate_top_ms"],
)
_results = {}


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    for n_layers in sorted(_results):
        cell = _results[n_layers]
        if "merge" in cell and "propagate" in cell:
            _report.add(n_layers, cell["merge"], cell["propagate"])
    if _report.rows:
        _report.print()
        _report.save("ablation_layers")


def _build_stack(n_layers: int):
    """Split one op volume across ``n_layers`` stacked PDTs; each op is a
    single-row statement (a batch of one through ``PositionalUpdater``)
    resolved against the whole stack built so far."""
    table = build_table(N_ROWS, seed=3)
    index = SparseIndex(table, granularity=256)
    per_layer_rate = TOTAL_RATE / n_layers
    layers = []
    rng = random.Random(11)
    for i in range(n_layers):
        pdt = PDT(table.schema)
        layers.append(pdt)
        updater = PositionalUpdater(table, layers, index)
        ops = generate_ops(table, per_layer_rate, seed=rng.randrange(10**6))
        for op in ops:
            try:
                if op[0] == "ins":
                    updater.insert(op[1])
                elif op[0] == "del":
                    updater.delete_by_key(op[1])
                else:
                    updater.modify_by_key(op[1], op[2], op[3])
            except (KeyError, ValueError):
                # Op streams for different layers may collide on a key
                # (deleted below, re-used above): skip those.
                continue
    return table, layers


@pytest.fixture(scope="module")
def stacks():
    return {n: _build_stack(n) for n in LAYER_COUNTS}


@pytest.mark.parametrize("n_layers", LAYER_COUNTS)
def test_layered_merge_scan(benchmark, stacks, n_layers):
    table, layers = stacks[n_layers]
    cols = [c for c in table.schema.column_names
            if c not in table.schema.sort_key]
    benchmark.pedantic(
        lambda: consume(
            merge_scan_layers(table, layers, columns=cols, batch_rows=4096)
        ),
        rounds=3, iterations=1,
    )
    _results.setdefault(n_layers, {})["merge"] = (
        benchmark.stats["mean"] * 1000
    )


@pytest.mark.parametrize("n_layers", LAYER_COUNTS)
def test_propagate_top_layer(benchmark, stacks, n_layers):
    table, layers = stacks[n_layers]
    if len(layers) < 2:
        base_proto, top = layers[0], None
    else:
        base_proto, top = layers[-2], layers[-1]

    def setup():
        if top is None:
            return (PDT(table.schema), layers[0]), {}
        return (base_proto.copy(), top), {}

    def run(base, upper):
        propagate(base, upper)

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    _results.setdefault(n_layers, {})["propagate"] = (
        benchmark.stats["mean"] * 1000
    )
