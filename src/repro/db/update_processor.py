"""Translate value-addressed (SQL-style) updates into positional ones.

Deletion and modification requests identify tuples by value; inserts must
find their SK-ordered position. The paper (section 3.2) resolves both with
a query: a MergeScan restricted by the sparse index produces the RIDs, and
Algorithm 6 (``sk_rid_to_sid``) then pins inserts relative to ghost tuples.
This module implements that machinery over a stack of PDT layers.

:class:`PositionalUpdater` is the one update path. A batch is sorted by
sort key, every target RID is resolved in *one* index-guided sweep of the
merged key columns (:func:`resolve_batch_positions`, ``np.searchsorted``
per block), and the updates are ingested into the top PDT — in one
``bulk_append_entries`` run when the top layer starts empty, through the
scalar PDT primitives (with positions precomputed) otherwise. Single-row
statements (:meth:`~PositionalUpdater.insert`,
:meth:`~PositionalUpdater.delete_by_key`,
:meth:`~PositionalUpdater.modify_by_key`) are batches of one. The
tuple-at-a-time scalar resolver the batch path replaced lives on in the
test suite as its differential oracle.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..core.stack import merge_scan_layers
from ..core.types import KIND_DEL, KIND_INS
from ..storage.sparse_index import SparseIndex


class KeyNotFound(KeyError):
    """No live tuple carries the requested sort key."""


class DuplicateKey(ValueError):
    """An insert would duplicate the sort key of a live tuple."""


def _image_size(stable, layers) -> int:
    size = stable.num_rows
    for layer in layers:
        size += layer.total_delta()
    return size


def resolve_batch_positions(stable, layers, sparse_index, keys):
    """Resolve ``keys`` (sorted, distinct SK tuples) against the merged
    image in one forward sweep.

    Returns a parallel list of ``(found, pos)``: ``pos`` is the RID of the
    live tuple carrying the key when ``found``, else the RID of the first
    live tuple with a greater key (the insert-before position; the image
    size when the key sorts last). The sparse index prunes the sweep's
    start for the smallest key; within each merged block keys are located
    with ``searchsorted``/``bisect`` instead of a per-row walk.
    """
    if not keys:
        return []
    key_cols = list(stable.schema.sort_key)
    if sparse_index is not None:
        start = sparse_index.sid_range_for_key_range(keys[0], None).start
    else:
        start = 0
    single = len(key_cols) == 1
    resolved: list[tuple[bool, int]] = []
    ki = 0
    for first_rid, arrays in merge_scan_layers(
        stable, layers, columns=key_cols, start=start, batch_rows=4096
    ):
        if ki >= len(keys):
            break
        columns = [arrays[c] for c in key_cols]
        n = len(columns[0])
        if n == 0:
            continue
        if single:
            col = columns[0]
            last_key = (col[n - 1],)
            block_keys = None
        else:
            block_keys = list(zip(*columns))
            last_key = block_keys[-1]
        while ki < len(keys) and keys[ki] <= last_key:
            key = keys[ki]
            if single:
                idx = int(np.searchsorted(col, key[0], side="left"))
                hit = idx < n and bool(col[idx] == key[0])
            else:
                idx = bisect.bisect_left(block_keys, key)
                hit = idx < n and tuple(block_keys[idx]) == key
            resolved.append((hit, first_rid + idx))
            ki += 1
    size = _image_size(stable, layers)
    while ki < len(keys):
        resolved.append((False, size))
        ki += 1
    return resolved


class PositionalUpdater:
    """Applies value-addressed updates to the *top* PDT layer of a stack.

    ``layers`` is the full bottom-up stack used for reads (e.g.
    ``[read, write_snapshot, trans]``, plus a Query-PDT inside a
    statement scope); positions are resolved against all of it, so a
    transaction sees its own earlier writes, and updates land in
    ``layers[-1]``.

    Takes a whole batch of ``("ins", row) | ("del", sk) |
    ("mod", sk, column, value)`` operations and produces exactly the PDT
    state that applying them one at a time, in order, would (the property
    suite asserts so against the scalar oracle). The batch is validated
    up front: on :class:`KeyNotFound` / :class:`DuplicateKey` /
    sort-key-modify errors *nothing* is applied.

    The amortization: the batch is sorted by sort key, so all target
    positions come out of one index-guided sweep of the merged key
    columns (:func:`resolve_batch_positions`) instead of one restarted
    MergeScan per operation, and RID shifts caused by the batch's own
    inserts and deletes are replayed with a running delta instead of
    being re-discovered by later scans.
    """

    def __init__(self, stable, layers, sparse_index: SparseIndex | None):
        if not layers:
            raise ValueError("need at least one PDT layer to update")
        self.stable = stable
        self.layers = list(layers)
        self.sparse_index = sparse_index
        self.schema = stable.schema

    @property
    def top(self):
        return self.layers[-1]

    # -- single-row statements (batches of one) ----------------------------

    def insert(self, row) -> int:
        """Insert a full tuple; returns the RID it received."""
        return self._apply_one(("ins", row))

    def delete_by_key(self, sk) -> int:
        """Delete the live tuple with key ``sk``; returns its former RID."""
        return self._apply_one(("del", sk))

    def modify_by_key(self, sk, column: str, value) -> int:
        """Set ``column`` of the live tuple with key ``sk``; returns its RID.

        Sort-key columns cannot be modified in place; per the paper such
        updates are a delete followed by an insert, which the caller must
        issue explicitly (it has to supply the full new tuple anyway).
        """
        return self._apply_one(("mod", sk, column, value))

    def _apply_one(self, op) -> int:
        staged = self.prepare([op])
        self.commit_staged(staged)
        _, resolved, _ = staged
        # One op, no running delta: the resolved position is the RID the
        # insert received, or the RID of the deleted/modified tuple.
        return resolved[0][1]

    # -- batches -----------------------------------------------------------

    def apply(self, ops) -> int:
        """Apply the batch; returns the number of operations applied."""
        return self.commit_staged(self.prepare(ops))

    def prepare(self, ops):
        """Normalize, resolve, and validate the batch *without* touching
        the PDT; returns the staged state :meth:`commit_staged` ingests.

        Splitting application in two lets callers that fan one logical
        batch out over several independent targets (shards) validate
        every sub-batch before mutating any — keeping the whole fan-out
        all-or-nothing.
        """
        normalized = self._normalize(ops)
        if not normalized:
            return None
        # Stable sort by key: same-key operations keep batch order.
        normalized.sort(key=lambda item: item[0])
        runs = [
            [normalized[0]],
        ]
        for item in normalized[1:]:
            if item[0] == runs[-1][0][0]:
                runs[-1].append(item)
            else:
                runs.append([item])
        keys = [run[0][0] for run in runs]
        resolved = resolve_batch_positions(
            self.stable, self.layers, self.sparse_index, keys
        )
        self._validate(runs, resolved)
        return runs, resolved, len(normalized)

    def commit_staged(self, staged) -> int:
        """Ingest a batch staged by :meth:`prepare` into the top PDT."""
        if staged is None:
            return 0
        runs, resolved, n_ops = staged
        simple = all(len(run) == 1 for run in runs)
        if simple and self.top.is_empty():
            self._apply_bulk(runs, resolved)
        else:
            self._apply_scalar(runs, resolved)
        return n_ops

    # -- batch preparation -------------------------------------------------

    def _normalize(self, ops) -> list:
        """Coerce to ``(key, op_tag, payload)`` items; payload is the
        coerced row (ins), None (del), or ``(col_no, value)`` (mod)."""
        out = []
        for op in ops:
            tag = op[0]
            if tag == "ins":
                row = self.schema.coerce_row(op[1])
                out.append((self.schema.sk_of(row), "ins", list(row)))
            elif tag == "del":
                out.append((tuple(op[1]), "del", None))
            elif tag == "mod":
                column = op[2]
                if self.schema.is_sk_column(column):
                    raise ValueError(
                        f"column {column!r} is part of the sort key; "
                        f"delete and re-insert instead"
                    )
                out.append((
                    tuple(op[1]), "mod",
                    (self.schema.column_index(column), op[3]),
                ))
            else:
                raise ValueError(f"unknown batch operation {tag!r}")
        return out

    @staticmethod
    def _validate(runs, resolved) -> None:
        """Replay each same-key run's liveness transitions; raises before
        anything has been applied (batches are all-or-nothing)."""
        for run, (found, _) in zip(runs, resolved):
            live = found
            for key, tag, _ in run:
                if tag == "ins":
                    if live:
                        raise DuplicateKey(
                            f"live tuple with key {key!r} already exists"
                        )
                    live = True
                else:
                    if not live:
                        raise KeyNotFound(
                            f"no live tuple with key {key!r}"
                        )
                    if tag == "del":
                        live = False

    # -- application paths -------------------------------------------------

    def _apply_bulk(self, runs, resolved) -> None:
        """Empty-top fast path: emit the whole batch as one SID-ordered
        entry run.

        With no pre-existing entries in the top layer, an operation's SID
        is exactly its pre-batch resolved position (the batch's own ghost
        tuples at a boundary all carry smaller keys, so Algorithm 6's
        skip equals the running-delta arithmetic), so the run can be
        built without touching the tree until one bulk append at the end.
        """
        entries = []
        for run, (found, pos) in zip(runs, resolved):
            key, tag, payload = run[0]
            if tag == "ins":
                entries.append((pos, KIND_INS, payload))
            elif tag == "del":
                entries.append((pos, KIND_DEL, key))
            else:
                entries.append((pos, payload[0], payload[1]))
        self.top.bulk_append_entries(entries)

    def _apply_scalar(self, runs, resolved) -> None:
        """General path: scalar PDT primitives with precomputed positions.

        Still one resolution sweep for the whole batch; the running
        ``delta`` maps pre-batch positions to current RIDs (every earlier
        operation targets a smaller-or-equal position, so its shift
        applies wholesale)."""
        top = self.top
        delta = 0
        for run, (found, pos) in zip(runs, resolved):
            live = found
            live_rid = pos + delta if found else None
            insert_pos = pos + delta + (1 if found else 0)
            for key, tag, payload in run:
                if tag == "ins":
                    sid = top.sk_rid_to_sid(key, insert_pos)
                    top.add_insert(sid, insert_pos, payload)
                    live, live_rid = True, insert_pos
                    insert_pos += 1
                    delta += 1
                elif tag == "del":
                    top.add_delete(live_rid, key)
                    live = False
                    insert_pos = live_rid
                    delta -= 1
                else:
                    top.add_modify(live_rid, payload[0], payload[1])

    def image_size(self) -> int:
        return _image_size(self.stable, self.layers)
