"""The traced run: transparent wrappers around each layer's public
functions, installed from the benchmark's own files.

Each wrapper replaces a function at every name its callers resolve it by
(every ``repro`` module binding of the function object, or the class
attribute of a method), so the program runs unchanged underneath. A
wrapped call, and each ``next()`` on a wrapped block stream, becomes a
span ``(id, parent, name, start, end, request)``. Parents come from a
per-thread stack, so a span's children are the wrapped calls made while
it was open on the same thread; self time is a span's duration minus its
children's. Work fanned out to pool threads is a root span of that
thread, and its self time is summed with the caller's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

_perf = time.perf_counter

# (layer metric stem, module, attribute, mode). Modes: "call" — one span
# per call; "stream" — the call returns a block iterator and every next()
# on it is a span; "rows" — a stream whose yielded rows count as rows
# examined while a read runs; "count" — calls counted, no span (hot,
# cheap functions); "route"/"route1" — shards a read's routing selected.
TARGETS = (
    ("storage.get_block", "repro.storage.buffer", "BufferPool.get_block",
     "count"),
    ("storage.decode", "repro.storage.blocks", "BlockStore.read_block",
     "call"),
    ("storage.sync", "repro.storage.blocks", "BlockStore.sync", "call"),
    ("core.merge", "repro.core.merge", "BlockMerger.merge_batches",
     "stream"),
    ("core.propagate", "repro.core.propagate", "propagate_batch", "call"),
    ("engine.scan", "repro.engine.scan", "scan_pdt", "call"),
    ("engine.scan", "repro.core.stack", "merge_scan_layers", "rows"),
    ("engine.pushdown", "repro.engine.expr", "pushdown_stream", "stream"),
    ("engine.materialize", "repro.engine.relation", "Relation.from_batches",
     "call"),
    ("db.resolve", "repro.db.update_processor", "PositionalUpdater.insert",
     "call"),
    ("db.resolve", "repro.db.update_processor",
     "PositionalUpdater.delete_by_key", "call"),
    ("db.resolve", "repro.db.update_processor",
     "PositionalUpdater.modify_by_key", "call"),
    ("db.resolve", "repro.db.update_processor", "resolve_batch_positions",
     "call"),
    ("txn.commit", "repro.txn.manager", "TransactionManager.commit", "call"),
    ("txn.wal.append", "repro.txn.wal", "WriteAheadLog.append_commit",
     "call"),
    ("txn.wal.wait", "repro.txn.wal", "WriteAheadLog.wait_durable", "call"),
    ("txn.checkpoint", "repro.txn.checkpoint", "checkpoint_table", "call"),
    ("txn.checkpoint", "repro.txn.checkpoint", "checkpoint_table_range",
     "call"),
    ("txn.pin", "repro.txn.manager", "TransactionManager.pin_snapshot",
     "call"),
    ("txn.recover", "repro.txn.recovery", "recover_persistent", "call"),
    ("shard.route", "repro.shard.router", "ShardRouter.shards_for_range",
     "route"),
    ("shard.route", "repro.shard.sharded", "ShardedTable.physical_for",
     "route1"),
    ("shard.rebalance", "repro.shard.sharded",
     "ShardedTable.maybe_rebalance", "call"),
    ("service.plan", "repro.service.plan", "plan_scan", "call"),
    ("service.cursor", "repro.service.cursor", "StreamingCursor.to_relation",
     "call"),
    ("exec.stream", "repro.exec.router", "ExecutorRouter.stream_blocks",
     "stream"),
    ("exec.stream", "repro.exec.router", "ExecutorRouter.spec_runner",
     "call"),
    ("exec.stream", "repro.engine.scan", "fanout_scan_blocks", "stream"),
)


class Tracer:
    """In-memory span store plus the call counters of the wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.routed: list[int] = []   # shards selected per routed read
        self.examined = 0             # rows out of MergeScan during reads
        self.request = 0              # id of the client op in progress
        self.reading = False          # the client op in progress is a read
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1

    def _span(self, name: str, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        request = self.request
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _perf()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, request))

    def _segments(self, name: str, iterator, count_rows: bool = False):
        """Re-yield ``iterator`` with each ``next()`` as a span."""
        try:
            while True:
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                request = self.request
                t0 = _perf()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    t1 = _perf()
                    stack.pop()
                    self.spans.append((sid, parent, name, t0, t1, request))
                if count_rows and self.reading:
                    arrays = item[1]
                    if arrays:
                        with self._lock:  # fanned-out shards count too
                            self.examined += len(
                                next(iter(arrays.values())))
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, mode: str):
        tracer = self
        if mode == "call":
            def wrapper(*args, **kwargs):
                tracer._count(name)
                return tracer._span(name, fn, args, kwargs)
        elif mode in ("stream", "rows"):
            rows = mode == "rows"

            def wrapper(*args, **kwargs):
                tracer._count(name)
                return tracer._segments(name, iter(fn(*args, **kwargs)),
                                        count_rows=rows)
        elif mode == "count":
            def wrapper(*args, **kwargs):
                tracer._count(name)
                return fn(*args, **kwargs)
        elif mode == "route":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.reading:
                    tracer.routed.append(len(result))
                return result
        elif mode == "route1":
            def wrapper(*args, **kwargs):
                if tracer.reading:
                    tracer.routed.append(1)
                return fn(*args, **kwargs)
        else:
            raise ValueError(f"unknown wrapper mode {mode!r}")
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for name, module_name, attr, mode in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[member]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__,
                                                     mode))
                else:
                    wrapped = self._wrap(name, raw, mode)
                self._set(owner, member, wrapped)
                continue
            original = getattr(module, member)
            wrapped = self._wrap(name, original, mode)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """``(self_seconds, total_seconds)`` by span name."""
        children: dict[int, float] = {}
        for sid, parent, _name, t0, t1, _req in self.spans:
            if parent:
                children[parent] = children.get(parent, 0.0) + (t1 - t0)
        own: dict[str, float] = {}
        total: dict[str, float] = {}
        for sid, _parent, name, t0, t1, _req in self.spans:
            dur = t1 - t0
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - children.get(sid, 0.0)
        return own, total

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (times in microseconds from the
        first span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["id", "parent", "name",
                                             "start_us", "end_us",
                                             "request"]}) + "\n")
            for sid, parent, name, t0, t1, req in self.spans:
                out.write(json.dumps([
                    sid, parent, name, round((t0 - base) * 1e6, 1),
                    round((t1 - base) * 1e6, 1), req]) + "\n")


def wal_bytes(db) -> int:
    """Bytes in the database's WAL files (0 for an in-memory log)."""
    path = db.manager.wal.path
    if path is None:
        return 0
    folder, stem = os.path.split(os.path.abspath(path))
    total = 0
    for entry in os.scandir(folder):
        if entry.name.startswith(stem) and entry.is_file():
            total += entry.stat().st_size
    return total


def db_counters(db) -> dict:
    """The database's own cumulative counters the layer metrics diff."""
    sources = db.metrics()["sources"]
    pools = {id(db.pool): db.pool}
    for name in db.sharded_names():
        for state in db.sharded(name).shard_states():
            pool = state.stable.pool
            if pool is not None:
                pools[id(pool)] = pool
    service = sources.get("service", {})
    return {
        "hits": sum(p.hits for p in pools.values()),
        "misses": sum(p.misses for p in pools.values()),
        "bytes_read": sources["io"]["bytes_read"],
        "fsyncs": sources.get("group_commit", {}).get("fsyncs", 0),
        "remote_jobs": sources["exec"]["remote_jobs"],
        "rows_scanned": service.get("rows_scanned", 0),
        "rows_pushed_down": service.get("rows_pushed_down", 0),
    }


def end_state(db) -> dict:
    """Space and delta footprint at the end of the traced run."""
    entries = 0
    for table in db.table_names():
        entries += sum(layer.count()
                       for layer in db.manager.latest_layers(table))
    stores = {id(db.store): db.store}
    for name in db.sharded_names():
        for state in db.sharded(name).shard_states():
            if state.stable.pool is not None:
                store = state.stable.pool.store
                stores[id(store)] = store
    stored = sum(store.column_stored_bytes(table, column)
                 for store in stores.values()
                 for table, column in store.columns())
    shards = {shard for name in db.sharded_names()
              for shard in db.sharded(name).shard_names}
    logical = [t for t in db.table_names() if t not in shards]
    logical += db.sharded_names()
    rows = sum(db.row_count(t) for t in logical)
    return {
        "delta_entries": entries,
        "delta_bytes": sum(db.delta_bytes(t) for t in logical),
        "bytes_per_row": stored / rows if rows else 0.0,
    }


class LayerProbe:
    """Per-op bookkeeping of the traced run, done outside each op's timed
    interval: request ids, the read flag, checkpoint stalls, WAL growth
    and rows returned to the client. ``own_s`` is the time this
    bookkeeping took, which the tracing overhead leaves out."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.own_s = 0.0
        self.stall_max_s = 0.0
        self.wal_grown = 0
        self.wal_units = 0
        self.returned = 0
        self._checkpoints = 0
        self._wal_before = 0

    def op_start(self, workload, db, op) -> None:
        t0 = time.perf_counter()
        tracer = self.tracer
        tracer.request += 1
        tracer.reading = workload.is_read(op)
        self._checkpoints = tracer.calls.get("txn.checkpoint", 0)
        if workload.write_units(op):
            self._wal_before = wal_bytes(db)
        self.own_s += time.perf_counter() - t0

    def op_end(self, workload, db, op, out, elapsed: float) -> None:
        t0 = time.perf_counter()
        tracer = self.tracer
        checkpointed = tracer.calls.get("txn.checkpoint", 0) \
            > self._checkpoints
        if checkpointed:
            self.stall_max_s = max(self.stall_max_s, elapsed)
        units = workload.write_units(op)
        if units and out is not None and not checkpointed:
            grown = wal_bytes(db) - self._wal_before
            if grown >= 0:
                self.wal_grown += grown
                self.wal_units += units
        if tracer.reading and out is not None:
            self.returned += workload.returned_rows(op, out)
        tracer.reading = False
        self.own_s += time.perf_counter() - t0


def layer_metrics(tracer: Tracer, probe: LayerProbe, before: dict,
                  after: dict, state: dict, service_wait_s: float,
                  overhead: float, error_rate: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``; 0 where the
    workload bypasses the layer."""
    own, total = tracer.self_times()
    calls = tracer.calls

    def ms(name):
        return own.get(name, 0.0) * 1e3

    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    scanned = after["rows_scanned"] - before["rows_scanned"]
    pushed = after["rows_pushed_down"] - before["rows_pushed_down"]
    return {
        "storage.get_block.calls": (calls.get("storage.get_block", 0),
                                    "count"),
        "storage.decode.calls": (calls.get("storage.decode", 0), "count"),
        "storage.decode.self_ms": (ms("storage.decode"), "ms"),
        "storage.buffer.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "storage.bytes_read": (after["bytes_read"] - before["bytes_read"],
                               "bytes"),
        "storage.sync.self_ms": (ms("storage.sync"), "ms"),
        "storage.bytes_per_row": (state["bytes_per_row"], "B/row"),
        "core.merge.calls": (calls.get("core.merge", 0), "count"),
        "core.merge.self_ms": (ms("core.merge"), "ms"),
        "core.propagate.calls": (calls.get("core.propagate", 0), "count"),
        "core.propagate.self_ms": (ms("core.propagate"), "ms"),
        "core.delta_entries": (state["delta_entries"], "count"),
        "core.delta_bytes": (state["delta_bytes"], "bytes"),
        "engine.scan.self_ms": (ms("engine.scan"), "ms"),
        "engine.pushdown.self_ms": (ms("engine.pushdown"), "ms"),
        "engine.materialize.self_ms": (ms("engine.materialize"), "ms"),
        "engine.rows_examined_per_row": (
            tracer.examined / probe.returned if probe.returned else 0.0,
            "ratio"),
        "db.resolve.calls": (calls.get("db.resolve", 0), "count"),
        "db.resolve.self_ms": (ms("db.resolve"), "ms"),
        "txn.commit.self_ms": (ms("txn.commit"), "ms"),
        "txn.wal.append.self_ms": (ms("txn.wal.append"), "ms"),
        "txn.wal.wait_ms": (total.get("txn.wal.wait", 0.0) * 1e3, "ms"),
        "txn.wal.fsyncs": (after["fsyncs"] - before["fsyncs"], "count"),
        "txn.wal.bytes_per_op": (
            probe.wal_grown / probe.wal_units if probe.wal_units else 0.0,
            "B/op"),
        "txn.checkpoint.calls": (calls.get("txn.checkpoint", 0), "count"),
        "txn.checkpoint.self_ms": (ms("txn.checkpoint"), "ms"),
        "txn.checkpoint.stall_max_ms": (probe.stall_max_s * 1e3, "ms"),
        "txn.pin.self_ms": (ms("txn.pin"), "ms"),
        "txn.recover.self_ms": (ms("txn.recover"), "ms"),
        "shard.shards_per_read": (
            sum(tracer.routed) / len(tracer.routed) if tracer.routed
            else 0.0, "shards"),
        "shard.rebalance.self_ms": (ms("shard.rebalance"), "ms"),
        "service.plan.self_ms": (ms("service.plan"), "ms"),
        "service.wait_ms": (service_wait_s * 1e3, "ms"),
        "service.cursor.self_ms": (ms("service.cursor"), "ms"),
        "service.pushdown_ratio": (pushed / scanned if scanned else 0.0,
                                   "ratio"),
        "exec.stream.self_ms": (ms("exec.stream"), "ms"),
        "exec.remote_jobs": (after["remote_jobs"] - before["remote_jobs"],
                             "count"),
        "trace_overhead_ratio": (overhead, "ratio"),
        "error_rate": (error_rate, "ratio"),
    }
