"""``scan_mix``: the read path over PDT-laden tables (paper Fig. 17).

A 200k-row int-key table in four range shards on memory storage, its
unbounded buffer pool warmed before timing, carries 1.5% scattered deltas
(``generate_ops``, 40/30/30 ins/del/mod) resident in the PDT layers. One
client interleaves point lookups, ~2,000-row ranges, all-column full
scans and pushed filter+aggregate queries. No I/O, writes or maintenance
run, so positional merge, planning, push-down and shard pruning do nearly
all the work. Every result is checked against a numpy oracle of the
generated table with its deltas applied.

The op mix is a chosen design parameter, not a measured trace. Point
lookups are most of the ops because they are the cheap, frequent request
of a read path, and a 99th percentile needs thousands of them per run;
ranges come next; full scans and aggregates are 6% each, which at ~40 and
~20 ms still makes them most of the client's time and gives each over a
hundred samples in a 20-second run. One point lookup in ten asks for a key
that may be absent, so misses run too.
"""

from __future__ import annotations

import numpy as np

from repro import Database
from repro.engine import expr as ex
from repro.workloads.generator import build_table, canonical_ops, \
    generate_ops

from .harness import Workload, relation_bytes

ROWS = 200_000
DELTA_PER_100 = 1.5
SHARDS = 4
DATA_COLS = 4
RANGE_ROWS = 2_000          # keys are even, so a 2*N key span holds ~N rows
AGG_WINDOW = 200_000        # v0 is uniform in [0, 1e6): ~20% selectivity
MIX = (("point", 0.70), ("range", 0.18), ("scan", 0.06), ("agg", 0.06))
MAX_OPS = 100_000
AGG = ex.AggSpec((), {"total": ("v1", "sum"), "rows": ("*", "count")})


class ScanMix(Workload):
    name = "scan_mix"
    tails = {"point": 99, "range": None, "scan": 90, "agg": 90}
    trace_ops_per_second = 130.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.rows = max(int(ROWS * scale), 4 * SHARDS * 256)
        table = build_table(self.rows, n_data_cols=DATA_COLS, seed=seed)
        self.schema = table.schema
        self.columns = list(self.schema.column_names)
        self.arrays = {c: table.column(c).values for c in self.columns}
        self.deltas = canonical_ops(
            generate_ops(table, DELTA_PER_100, seed=seed + 1))
        self.oracle = _apply(self.arrays, self.deltas)
        self.ops = self._generate_ops(seed + 2)

    def _generate_ops(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        keys = self.oracle["k0"]
        top = 2 * self.rows
        kinds = rng.choice(len(MIX), size=MAX_OPS, p=[p for _, p in MIX])
        live = keys[rng.integers(0, len(keys), size=MAX_OPS)]
        anywhere = rng.integers(0, top, size=MAX_OPS)
        use_live = rng.random(MAX_OPS) < 0.9
        starts = rng.integers(0, top - 2 * RANGE_ROWS, size=MAX_OPS)
        windows = rng.integers(0, 1_000_000 - AGG_WINDOW, size=MAX_OPS)
        ops = []
        for i, k in enumerate(kinds):
            kind = MIX[k][0]
            if kind == "point":
                key = live[i] if use_live[i] else anywhere[i]
                ops.append(("point", int(key)))
            elif kind == "range":
                lo = int(starts[i])
                ops.append(("range", lo, lo + 2 * RANGE_ROWS - 1))
            elif kind == "scan":
                ops.append(("scan",))
            else:
                lo = int(windows[i])
                ops.append(("agg", lo, lo + AGG_WINDOW))
        return ops

    # -- set-up -------------------------------------------------------------

    def setup(self, root: str):
        db = Database(storage="memory", executor="thread")
        db.create_sharded_table_from_arrays("t", self.schema, self.arrays,
                                            shards=SHARDS)
        db.apply_batch("t", self.deltas)
        return db

    def warm(self, db) -> None:
        db.warm("t")

    # -- ops ------------------------------------------------------------------

    def execute(self, db, op):
        kind = op[0]
        if kind == "point":
            return db.query("t", sk=(op[1],))
        if kind == "range":
            return db.query_range("t", (op[1],), (op[2],))
        if kind == "scan":
            return db.query("t")
        return db.query("t", where=ex.between("v0", op[1], op[2]),
                        aggregate=AGG)

    def is_read(self, op) -> bool:
        return True

    def check(self, db, index, op, out):
        oracle = self.oracle
        keys = oracle["k0"]
        kind = op[0]
        if kind == "agg":
            mask = (oracle["v0"] >= op[1]) & (oracle["v0"] <= op[2])
            want = (int(oracle["v1"][mask].sum()), int(mask.sum()))
            got = (int(out["total"][0]), int(out["rows"][0])) \
                if out.num_rows == 1 else None
            return None if got == want else f"aggregate {got} != {want}"
        if kind == "point":
            lo = int(np.searchsorted(keys, op[1]))
            hi = lo + int(lo < len(keys) and keys[lo] == op[1])
        elif kind == "range":
            lo = int(np.searchsorted(keys, op[1], side="left"))
            hi = int(np.searchsorted(keys, op[2], side="right"))
        else:
            lo, hi = 0, len(keys)
        if out.num_rows != hi - lo:
            return f"{out.num_rows} rows, expected {hi - lo}"
        for column in self.columns:
            if not np.array_equal(out[column], oracle[column][lo:hi]):
                return f"column {column} differs from the oracle"
        return None

    def digest(self, op, out) -> bytes:
        return relation_bytes(out)

    def sizes(self) -> dict:
        return {
            "rows": self.rows,
            "shards": SHARDS,
            "delta_pct": DELTA_PER_100,
            "delta_ops": len(self.deltas),
            "storage": "memory",
            "buffer_cap": "unbounded, warmed before timing",
            "decoded_bytes": int(sum(a.nbytes for a in self.arrays.values())),
            "mix": dict(MIX),
            "range_rows": RANGE_ROWS,
            "agg_selectivity": AGG_WINDOW / 1_000_000,
        }


def _apply(arrays: dict, ops) -> dict:
    """The generated table with its delta ops applied: the oracle."""
    rows = {}
    columns = list(arrays)
    keys = arrays["k0"]
    deleted = set()
    modified = {}
    for op in ops:
        if op[0] == "ins":
            rows[int(op[1][0])] = op[1]
        elif op[0] == "del":
            deleted.add(int(op[1][0]))
        else:
            modified.setdefault(int(op[1][0]), {})[op[2]] = op[3]
    keep = ~np.isin(keys, np.fromiter(deleted, dtype=np.int64))
    out = {c: arrays[c].copy() for c in columns}
    for key, changes in modified.items():
        pos = int(np.searchsorted(keys, key))
        for column, value in changes.items():
            out[column][pos] = value
    out = {c: out[c][keep] for c in columns}
    if rows:
        inserted = [rows[k] for k in sorted(rows)]
        for j, column in enumerate(columns):
            extra = np.asarray([r[j] for r in inserted], dtype=np.int64)
            out[column] = np.concatenate([out[column], extra])
        order = np.argsort(out["k0"], kind="stable")
        out = {c: out[c][order] for c in columns}
    return out
