"""Tuple-at-a-time update resolution: the differential oracle.

A literal reading of the paper's section 3.2: each value-addressed update
restarts a sparse-index-bounded MergeScan and walks the merged key
columns one tuple at a time until it finds its RID (deletes, modifies)
or its insert-before position (inserts, which Algorithm 6 then pins
relative to ghost tuples). Slow but close to the pseudocode, so the
runtime's batch resolver
(:class:`~repro.db.update_processor.PositionalUpdater`) is checked
against it entry for entry.
"""

from __future__ import annotations

from repro.core.stack import merge_scan_layers
from repro.db import DuplicateKey, KeyNotFound


def _scan_keys_from(stable, layers, sparse_index, sk):
    """Yield ``(rid, key_tuple)`` of the merged image starting near ``sk``.

    Uses the (possibly stale) sparse index to skip granules that cannot
    contain ``sk``; thanks to ghost-respecting SIDs the index stays valid
    under any update load.
    """
    sk = tuple(sk)
    if sparse_index is not None:
        start = sparse_index.sid_range_for_key_range(sk, None).start
    else:
        start = 0
    key_cols = list(stable.schema.sort_key)
    for first_rid, arrays in merge_scan_layers(
        stable, layers, columns=key_cols, start=start, batch_rows=512
    ):
        columns = [arrays[c] for c in key_cols]
        for i in range(len(columns[0])):
            yield first_rid + i, tuple(col[i] for col in columns)


def find_insert_position(stable, layers, sparse_index, sk) -> int:
    """RID of the first live tuple with sort key > ``sk`` (the insert-before
    position); equals the image row count when ``sk`` sorts last.

    Raises :class:`DuplicateKey` if a live tuple already carries ``sk``.
    """
    sk = tuple(sk)
    rid = None
    for rid, key in _scan_keys_from(stable, layers, sparse_index, sk):
        if key == sk:
            raise DuplicateKey(f"live tuple with key {sk!r} already exists")
        if key > sk:
            return rid
    if rid is None:
        # Started past every key (or empty table): position = image size.
        return _image_size(stable, layers)
    return rid + 1


def find_rid_by_key(stable, layers, sparse_index, sk) -> int:
    """RID of the live tuple whose sort key equals ``sk``."""
    sk = tuple(sk)
    for rid, key in _scan_keys_from(stable, layers, sparse_index, sk):
        if key == sk:
            return rid
        if key > sk:
            break
    raise KeyNotFound(f"no live tuple with key {sk!r}")


def _image_size(stable, layers) -> int:
    size = stable.num_rows
    for layer in layers:
        size += layer.total_delta()
    return size


class ScalarUpdater:
    """Applies value-addressed updates to the *top* PDT layer of a stack.

    ``layers`` is the full bottom-up stack used for reads (e.g.
    ``[read, write_snapshot, trans]``); updates land in ``layers[-1]``.
    """

    def __init__(self, stable, layers, sparse_index):
        if not layers:
            raise ValueError("need at least one PDT layer to update")
        self.stable = stable
        self.layers = list(layers)
        self.sparse_index = sparse_index
        self.schema = stable.schema

    @property
    def top(self):
        return self.layers[-1]

    def insert(self, row) -> int:
        """Insert a full tuple; returns the RID it received."""
        row = self.schema.coerce_row(row)
        sk = self.schema.sk_of(row)
        rid = find_insert_position(
            self.stable, self.layers, self.sparse_index, sk
        )
        sid = self.top.sk_rid_to_sid(sk, rid)
        self.top.add_insert(sid, rid, list(row))
        return rid

    def delete_by_key(self, sk) -> int:
        """Delete the live tuple with key ``sk``; returns its former RID."""
        sk = tuple(sk)
        rid = find_rid_by_key(self.stable, self.layers, self.sparse_index, sk)
        self.top.add_delete(rid, sk)
        return rid

    def modify_by_key(self, sk, column: str, value) -> int:
        """Set ``column`` of the live tuple with key ``sk``.

        Sort-key columns cannot be modified in place; per the paper such
        updates are a delete followed by an insert, which the caller must
        issue explicitly (it has to supply the full new tuple anyway).
        """
        if self.schema.is_sk_column(column):
            raise ValueError(
                f"column {column!r} is part of the sort key; delete and "
                f"re-insert instead"
            )
        sk = tuple(sk)
        rid = find_rid_by_key(self.stable, self.layers, self.sparse_index, sk)
        self.top.add_modify(rid, self.schema.column_index(column), value)
        return rid

    def image_size(self) -> int:
        return _image_size(self.stable, self.layers)


def apply_ops(updater, ops) -> list[int]:
    """Apply ``ops`` one at a time through ``updater``'s single-row
    methods; returns the RID each operation resolved to."""
    rids = []
    for op in ops:
        if op[0] == "ins":
            rids.append(updater.insert(op[1]))
        elif op[0] == "del":
            rids.append(updater.delete_by_key(op[1]))
        else:
            rids.append(updater.modify_by_key(op[1], op[2], op[3]))
    return rids
