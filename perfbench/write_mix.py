"""``write_mix``: the write path, with reads beside the writes.

A 100k-row int-key table on durable ``storage="mmap"`` with a file WAL and
default group commit. One client mixes autocommit ``insert``/``modify``/
``delete`` (most ops), 100-op ``apply_batch`` calls and point reads of
just-written keys. A commit-count policy runs a full checkpoint inline in
every ``CHECKPOINT_COMMITS``-th commit, so maintenance takes the same
share of every run: the timed loop ends only after an op that carried a
checkpoint, and that op's latency is sampled as its own kind,
``checkpoint``, not among the commits or batches. After the run the
client checkpoints, applies a fixed tail of ops (the log recovery
replays), closes the database and times several ``Database.recover``
reopens.

The op mix is a chosen design parameter, not a measured trace: mostly
single-row autocommits, the write path's common case and the one a
per-commit cost shows on; a few 100-op batches, so the batch path runs
too (with one in 20 ops a batch, a 20-second run still holds over a
hundred of them); a quarter reads of just-written keys, so reads land on
deltas. Inserts, modifies and deletes split 40/30/30, as in the
repository's ``generate_ops``, so the table neither grows nor shrinks
much.

Point reads are checked against the benchmark's own model of the table,
and every reopen against the model's row count and full-scan checksum.
"""

from __future__ import annotations

import random
import time
from collections import deque

from repro import Database
from repro.txn.scheduler import DO_NOTHING, CheckpointPolicy, Decision, \
    MaintenanceAction
from repro.workloads.generator import build_table

from .harness import Recorder, Workload, drive, relation_bytes, row_hash, \
    table_checksum

ROWS = 100_000
DATA_COLS = 4
MIX = (("single", 0.70), ("batch", 0.05), ("read", 0.25))
SINGLE_MIX = (("ins", 0.4), ("mod", 0.3), ("del", 0.3))
BATCH_OPS = 100
RECENT = 64                 # reads target one of the last RECENT writes
MAX_OPS = 30_000
# Commits between full checkpoints: about 1,300 ops, ~5 s of them on a
# 2-vCPU VM, then a ~2 s full checkpoint of 100k rows; checkpoints take a
# quarter to a third of a run.
CHECKPOINT_COMMITS = 1_000
TAIL_OPS = 400              # ops after the final checkpoint: the log to replay
REOPENS = 9


class EveryNCommits(CheckpointPolicy):
    """Full checkpoint of a table at every ``n``-th commit to it."""

    name = "every-commits"

    def __init__(self, n: int):
        self.n = n

    def decide(self, load) -> Decision:
        if load.commits_since_maintenance >= self.n:
            return Decision(MaintenanceAction.CHECKPOINT,
                            reason=f"{self.n} commits")
        return DO_NOTHING


class WriteMix(Workload):
    name = "write_mix"
    # A set-up takes ~20 ms of CPU: more repeats steady its median.
    setup_repeats = 9
    tails = {"commit": 99, "batch": 90, "point": 99, "checkpoint": None,
             "recover": None}
    # Two passes of 2,000 ops at the default 20 s: each holds a policy
    # checkpoint.
    trace_ops_per_second = 200.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.rows = max(int(ROWS * scale), 1_000)
        self.checkpoint_commits = max(int(CHECKPOINT_COMMITS * scale), 50)
        self._checkpoints = 0
        self._carried = False
        table = build_table(self.rows, n_data_cols=DATA_COLS, seed=seed)
        self.schema = table.schema
        self.columns = list(self.schema.column_names)
        self.arrays = {c: table.column(c).values for c in self.columns}
        self.ops, self.expected = self._generate(
            seed + 1, max(int(MAX_OPS * scale), 2_000))

    def _generate(self, seed: int, n_ops: int):
        """The op stream plus, after each op, the model's ``(row count,
        checksum)`` — simulated here, before anything is timed."""
        rng = random.Random(seed)
        data_cols = self.columns[1:]
        live = {}
        for row in zip(*(self.arrays[c].tolist() for c in self.columns)):
            live[row[0]] = row
        keys = list(live)
        where = {k: i for i, k in enumerate(keys)}
        checksum = table_checksum([self.arrays[c] for c in self.columns])
        mask = (1 << 64) - 1
        recent: deque = deque(maxlen=RECENT)
        top = 2 * self.rows

        def put(row):
            nonlocal checksum
            key = row[0]
            old = live.get(key)
            if old is None:
                where[key] = len(keys)
                keys.append(key)
            else:
                checksum = (checksum - row_hash(old)) & mask
            live[key] = row
            checksum = (checksum + row_hash(row)) & mask
            recent.append(key)

        def drop(key):
            nonlocal checksum
            checksum = (checksum - row_hash(live.pop(key))) & mask
            i = where.pop(key)
            last = keys.pop()
            if last != key:
                keys[i] = last
                where[last] = i
            recent.append(key)

        def live_key(taken):
            while True:
                key = keys[rng.randrange(len(keys))]
                if key not in taken:
                    return key

        def new_key(taken):
            while True:
                key = rng.randrange(top)
                if key not in live and key not in taken:
                    return key

        def update(taken):
            roll = rng.random()
            if roll < SINGLE_MIX[0][1]:
                key = new_key(taken)
                row = (key,) + tuple(rng.randrange(1_000_000)
                                     for _ in data_cols)
                return ("ins", row), lambda: put(row)
            if roll < SINGLE_MIX[0][1] + SINGLE_MIX[1][1]:
                key = live_key(taken)
                col = rng.randrange(len(data_cols))
                value = rng.randrange(1_000_000)
                row = list(live[key])
                row[col + 1] = value
                return ("mod", key, data_cols[col], value), \
                    lambda: put(tuple(row))
            key = live_key(taken)
            return ("del", key), lambda: drop(key)

        ops, expected = [], []
        p_single, p_batch = MIX[0][1], MIX[1][1]
        for _ in range(n_ops):
            roll = rng.random()
            if roll < p_single:
                op, apply = update(())
                apply()
            elif roll < p_single + p_batch:
                taken: set = set()
                batch, applies = [], []
                for _ in range(BATCH_OPS):
                    sub, apply = update(taken)
                    taken.add(sub[1][0] if sub[0] == "ins" else sub[1])
                    batch.append(_batch_form(sub))
                    applies.append(apply)
                for apply in applies:
                    apply()
                op = ("batch", batch)
            else:
                key = recent[rng.randrange(len(recent))] if recent \
                    else keys[rng.randrange(len(keys))]
                op = ("read", key, live.get(key))
            ops.append(op)
            expected.append((len(live), checksum))
        return ops, expected

    # -- set-up -------------------------------------------------------------

    def policy(self) -> EveryNCommits:
        return EveryNCommits(self.checkpoint_commits)

    def setup(self, root: str):
        db = Database(storage="mmap", storage_path=root, executor="thread",
                      checkpoint_policy=self.policy())
        db.create_table_from_arrays("t", self.schema, self.arrays)
        return db

    def warm(self, db) -> None:
        db.warm("t")

    # -- ops ------------------------------------------------------------------

    def execute(self, db, op):
        kind = op[0]
        if kind == "read":
            return db.query("t", sk=(op[1],))
        if kind == "batch":
            return db.apply_batch("t", op[1])
        if kind == "ins":
            db.insert("t", op[1])
        elif kind == "mod":
            db.modify("t", (op[1],), op[2], op[3])
        else:
            db.delete("t", (op[1],))
        return kind

    def before(self, db, op) -> None:
        self._checkpoints = db.scheduler.stats.checkpoints

    def kind(self, db, op) -> str:
        self._carried = db.scheduler.stats.checkpoints > self._checkpoints
        if self._carried:
            return "checkpoint"
        return {"read": "point", "batch": "batch"}.get(op[0], "commit")

    def can_stop(self) -> bool:
        return self._carried

    def is_read(self, op) -> bool:
        return op[0] == "read"

    def write_units(self, op) -> int:
        if op[0] == "read":
            return 0
        return len(op[1]) if op[0] == "batch" else 1

    def check(self, db, index, op, out):
        if op[0] == "batch":
            return None if out == len(op[1]) else f"applied {out} ops"
        if op[0] != "read":
            return None
        want = op[2]
        got = out.rows()
        if want is None:
            return None if not got else f"deleted key returned {got}"
        if len(got) != 1 or tuple(int(v) for v in got[0]) != want:
            return f"read {got}, expected {want}"
        return None

    def digest(self, op, out) -> bytes:
        return relation_bytes(out) if op[0] == "read" else op[0].encode()

    # -- recovery -------------------------------------------------------------

    def finish(self, db, root: str, rec: Recorder, next_op: int) -> None:
        """Checkpoint, apply a fixed tail of ops (the log the reopens
        replay), close, then time ``REOPENS`` recoveries and check each
        against the model."""
        db.checkpoint("t")
        tail = Recorder()
        end = drive(self, db, tail, start=next_op, limit=TAIL_OPS)
        db.close()
        rec.attempted += tail.attempted
        rec.failed += tail.failed
        rec.errors.extend(tail.errors)
        rec.absorb(tail.checksum.encode())
        want_rows, want_sum = self.expected[end - 1]
        for _ in range(REOPENS):
            rec.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            reopened = Database.recover(root, executor="thread",
                                        checkpoint_policy=self.policy())
            rec.sample("recover", time.perf_counter() - t0,
                       time.process_time() - c0)
            try:
                rel = reopened.query("t")
                got = (reopened.row_count("t"),
                       table_checksum([rel[c] for c in self.columns]))
            finally:
                reopened.close()
            if got != (want_rows, want_sum):
                rec.fail(f"reopen found {got}, expected "
                         f"{(want_rows, want_sum)}")
            rec.absorb(repr(got).encode())

    def sizes(self) -> dict:
        return {
            "rows": self.rows,
            "storage": "mmap, file WAL",
            "flush_policy": "group commit (default policy): one WAL fsync "
                            "per commit group; one client, so one per "
                            "commit",
            "checkpoint_policy": f"full checkpoint every "
                                 f"{self.checkpoint_commits} commits",
            "buffer_cap": "unbounded, warmed before timing",
            "mix": dict(MIX),
            "single_mix": dict(SINGLE_MIX),
            "batch_ops": BATCH_OPS,
            "tail_ops": TAIL_OPS,
            "reopens": REOPENS,
        }


def _batch_form(op) -> tuple:
    """A generated single-row op in ``apply_batch`` form."""
    if op[0] == "ins":
        return op
    if op[0] == "mod":
        return ("mod", (op[1],), op[2], op[3])
    return ("del", (op[1],))
