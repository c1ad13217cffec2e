"""``tpch_refresh``: TPC-H at SF 0.01 under refresh streams (paper Fig. 19).

lineitem (~60k rows, composite key) sits in four range shards on
``storage="mmap"``; every buffer pool is capped well below the bytes a
report touches, so blocks are decoded again from segment files. One
client alternates two steps through the query service: apply one refresh
pair (RF1 and RF2 as ``submit_batch`` calls, waited), then run one report
(Q1, Q6 and Q14 through ``submit_query`` with their push-down hints). A
checkpoint policy folds every table's deltas every ``CHECKPOINT_PAIRS``
pairs, all inside one pair; that pair's latency is sampled as its own
kind, ``checkpoint``, and a timed run ends only after such a pair, so
every run holds whole maintenance periods. At fixed cycles the service
results are compared with the inline ``PdtSource`` results on the same
state.

The alternation of one refresh pair with one report is the paper's
Fig. 19 setting, one client doing both so that neither starves the other.
"""

from __future__ import annotations

import time

from repro.tpch import queries
from repro.tpch.dbgen import generate
from repro.tpch.loader import load_database
from repro.tpch.sources import PdtSource
from repro.tpch.updates import RefreshApplier
from repro.txn.scheduler import DO_NOTHING, CheckpointPolicy, Decision, \
    MaintenanceAction

from .harness import Workload, relation_bytes, relations_equal

SCALE = 0.01
SHARDS = 4
PAIRS = 150
POOL_CAP = 512 * 1024       # bytes per buffer pool (main + one per shard)
CHECKPOINT_PAIRS = 12       # every table folds once per 12 refresh pairs
CHECK_EVERY = 16            # cycles between service-vs-inline comparisons
REPORT = (queries.q01, queries.q06, queries.q14)
# Columns each report query reads: the decoded bytes a report touches.
REPORT_COLUMNS = (
    ("lineitem", ("l_returnflag", "l_linestatus", "l_quantity",
                  "l_extendedprice", "l_discount", "l_tax", "l_shipdate")),
    ("lineitem", ("l_shipdate", "l_discount", "l_quantity",
                  "l_extendedprice")),
    ("lineitem", ("l_partkey", "l_shipdate", "l_extendedprice",
                  "l_discount")),
    ("part", ("p_partkey", "p_type")),
)


class EveryNPairs(CheckpointPolicy):
    """Full checkpoint of every table once per ``pairs`` refresh pairs.

    The clock is ``orders``, which each refresh half commits exactly once.
    Its first commit of every ``pairs``-th pair opens a maintenance epoch,
    and each table folds at its first commit in the epoch, so all folds
    land in that one pair. A per-table commit count would not align
    them: a lineitem shard that no order of one refresh half touched
    falls a commit behind the others.
    """

    name = "every-pairs"

    def __init__(self, pairs: int, clock: str = "orders"):
        self.period = 2 * pairs
        self.clock = clock
        self.clock_commits = 0
        self.epoch = 0
        self.folded: dict[str, int] = {}

    def decide(self, load) -> Decision:
        if load.table == self.clock:
            self.clock_commits += 1
            if self.clock_commits % self.period == 1 \
                    and self.clock_commits > 1:
                self.epoch += 1
        if self.epoch and self.folded.get(load.table) != self.epoch \
                and load.total_entries:
            self.folded[load.table] = self.epoch
            return Decision(MaintenanceAction.CHECKPOINT,
                            reason=f"maintenance epoch {self.epoch}")
        return DO_NOTHING


class ServiceSource:
    """TPC-H scan source over a :class:`~repro.service.QueryService`,
    accounting rows delivered and the wait from submit to first block."""

    def __init__(self, service):
        self.service = service
        self.rows = 0
        self.wait_s = 0.0

    def scan(self, table, columns=None, where=None):
        t0 = time.perf_counter()
        cursor = self.service.submit_query(table, columns=columns,
                                           where=where)
        rel = cursor.to_relation()
        first = cursor.stats.first_block_at
        self.wait_s += (first if first is not None
                        else time.perf_counter()) - t0
        self.rows += rel.num_rows
        return rel


class TpchRefresh(Workload):
    name = "tpch_refresh"
    # About 30 reports and 30 pairs in a 20 s run: the 75th percentile is
    # the highest with some ten samples beyond it.
    tails = {"report": 75, "batch": 75, "checkpoint": None}
    # 28 ops per pass at the default 20 s: 14 pairs, one of them carrying
    # the policy's checkpoint.
    trace_ops_per_second = 2.8

    def __init__(self, seed: int, scale: float = 1.0):
        self.scale = SCALE * scale
        self.data = generate(scale=self.scale, seed=seed,
                             refresh_pairs=PAIRS)
        applier = RefreshApplier(self.data)
        self.refreshes = [applier.refresh_ops(pair)
                          for pair in self.data.refreshes]
        self.ops = [op for i in range(PAIRS)
                    for op in (("refresh", i), ("report", i))]
        self.source = None
        self._rows_before = 0
        self._checkpoints = 0
        self._carried = False

    # -- set-up -------------------------------------------------------------

    def setup(self, root: str):
        return load_database(
            self.data, buffer_capacity=POOL_CAP, lineitem_shards=SHARDS,
            storage="mmap", storage_path=root, executor="thread",
            checkpoint_policy=EveryNPairs(CHECKPOINT_PAIRS))

    def warm(self, db) -> None:
        self.source = ServiceSource(db.serve())

    # -- ops ------------------------------------------------------------------

    def before(self, db, op) -> None:
        self._rows_before = self.source.rows
        self._checkpoints = db.scheduler.stats.checkpoints
        if op[0] == "refresh":
            # A report's pin lease is released just after its cursor
            # ends; wait for it so the pair's commits find no pin and
            # run the policy's checkpoints inline, every run alike.
            give_up = time.perf_counter() + 5.0
            while db.manager.pin_count() and time.perf_counter() < give_up:
                time.sleep(0.0005)

    def execute(self, db, op):
        if op[0] == "report":
            return tuple(query(self.source) for query in REPORT)
        service = self.source.service
        applied = 0
        for half in self.refreshes[op[1]]:
            for table, ops in half.items():
                if ops:
                    applied += service.submit_batch(table, ops).result()
        return applied

    def kind(self, db, op) -> str:
        self._carried = db.scheduler.stats.checkpoints > self._checkpoints
        if self._carried:
            return "checkpoint"
        return "report" if op[0] == "report" else "batch"

    def can_stop(self) -> bool:
        return self._carried

    def is_read(self, op) -> bool:
        return op[0] == "report"

    def write_units(self, op) -> int:
        if op[0] == "report":
            return 0
        return sum(len(ops) for half in self.refreshes[op[1]]
                   for ops in half.values())

    def returned_rows(self, op, out) -> int:
        return self.source.rows - self._rows_before

    def check(self, db, index, op, out):
        if op[0] == "refresh":
            want = self.write_units(op)
            return None if out == want else f"applied {out} of {want} ops"
        if op[1] % CHECK_EVERY:
            return None
        inline = PdtSource(db)
        for query, served in zip(REPORT, out):
            if not relations_equal(served, query(inline)):
                return f"{query.__name__} via the service differs from " \
                       f"the inline PdtSource result"
        return None

    def digest(self, op, out) -> bytes:
        if op[0] == "refresh":
            return str(out).encode()
        return b"".join(relation_bytes(rel) for rel in out)

    def service_wait_s(self) -> float:
        return self.source.wait_s

    def sizes(self) -> dict:
        tables = self.data.tables
        touched = sum(tables[t][c].nbytes for t, cols in REPORT_COLUMNS
                      for c in cols)
        return {
            "scale_factor": self.scale,
            "lineitem_rows": self.data.row_count("lineitem"),
            "orders_rows": self.data.row_count("orders"),
            "lineitem_shards": SHARDS,
            "storage": "mmap, file WAL",
            "buffer_cap_per_pool": POOL_CAP,
            "buffer_pools": 1 + SHARDS,
            "report_decoded_bytes_touched": int(touched),
            "refresh_pairs_generated": PAIRS,
            "refresh_ops_per_pair": round(
                sum(self.write_units(op) for op in self.ops
                    if op[0] == "refresh") / PAIRS, 1),
            "flush_policy": "group commit (default policy): one WAL fsync "
                            "per commit group; one client, so one per "
                            "commit",
            "checkpoint_policy": f"full checkpoint of every table once "
                                 f"per {CHECKPOINT_PAIRS} refresh pairs",
            "service_workers": "default",
            "check_every_cycles": CHECK_EVERY,
        }
