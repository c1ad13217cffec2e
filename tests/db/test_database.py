"""Database facade and update-processor tests."""

import pytest

from repro import Database, DataType, Schema
from repro.db import DuplicateKey, KeyNotFound, PositionalUpdater
from repro.core import PDT
from repro.storage import SparseIndex, StableTable

from ..core.scalar_updater import find_insert_position, find_rid_by_key


def schema3():
    return Schema.build(
        ("k", DataType.INT64),
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        sort_key=("k",),
    )


def make_db(n=20, **kwargs):
    db = Database(compressed=False, **kwargs)
    db.create_table("t", schema3(), [(i * 10, i, f"s{i}") for i in range(n)])
    return db


class TestDatabaseFacade:
    def test_create_query_roundtrip(self):
        db = make_db(5)
        rel = db.query("t")
        assert rel.num_rows == 5
        assert rel.rows()[0] == (0, 0, "s0")

    def test_autocommit_ops(self):
        db = make_db(5)
        db.insert("t", (5, 9, "new"))
        db.modify("t", (10,), "a", 77)
        db.delete("t", (20,))
        rows = db.image_rows("t")
        assert (5, 9, "new") in rows
        assert (10, 77, "s1") in rows
        assert all(r[0] != 20 for r in rows)
        assert db.row_count("t") == 5

    def test_insert_many_single_commit(self):
        db = make_db(5)
        db.insert_many("t", [(1, 0, "a"), (2, 0, "b"), (3, 0, "c")])
        assert len(db.manager.wal) == 1
        assert db.row_count("t") == 8

    def test_duplicate_insert_rejected(self):
        db = make_db(5)
        with pytest.raises(DuplicateKey):
            db.insert("t", (10, 0, "dup"))

    def test_delete_missing_key_rejected(self):
        db = make_db(5)
        with pytest.raises(KeyNotFound):
            db.delete("t", (999,))

    def test_sk_modify_rejected(self):
        db = make_db(5)
        with pytest.raises(ValueError, match="sort key"):
            db.modify("t", (10,), "k", 11)

    def test_query_projection_skips_key_io(self):
        db = make_db(100)
        db.insert("t", (5, 1, "x"))
        db.make_cold()
        db.io.reset()
        db.query("t", columns=["a"])
        assert ("t", "k") not in db.io.bytes_by_column
        assert ("t", "a") in db.io.bytes_by_column

    def test_cold_vs_hot_io(self):
        db = make_db(500)
        db.make_cold()
        db.io.reset()
        db.query("t", columns=["a"])
        cold = db.io.bytes_read
        assert cold > 0
        db.io.reset()
        db.query("t", columns=["a"])  # pool is now warm
        assert db.io.bytes_read == 0

    def test_unknown_table(self):
        db = make_db(1)
        with pytest.raises(KeyError):
            db.query("missing")

    def test_empty_table_operations(self):
        db = Database(compressed=False)
        db.create_table("e", schema3(), [])
        db.insert("e", (1, 1, "first"))
        assert db.image_rows("e") == [(1, 1, "first")]
        db.delete("e", (1,))
        assert db.image_rows("e") == []


class TestUpdateProcessor:
    def make_parts(self, n=50, granularity=8):
        rows = [(i * 2, i, f"s{i}") for i in range(n)]  # even keys
        stable = StableTable.bulk_load("t", schema3(), rows)
        index = SparseIndex(stable, granularity=granularity)
        pdt = PDT(stable.schema)
        return stable, index, pdt

    def test_find_insert_position_basics(self):
        stable, index, pdt = self.make_parts()
        assert find_insert_position(stable, [pdt], index, (-5,)) == 0
        assert find_insert_position(stable, [pdt], index, (1,)) == 1
        assert find_insert_position(stable, [pdt], index, (997,)) == 50

    def test_find_insert_position_sees_pdt_inserts(self):
        stable, index, pdt = self.make_parts()
        up = PositionalUpdater(stable, [pdt], index)
        up.insert((1, 0, "one"))
        # Image is now 0, 1, 2, 4, ...: key 3 goes at rid 3 (the insert at
        # rid 1 shifted everything after it).
        assert find_insert_position(stable, [pdt], index, (3,)) == 3
        with pytest.raises(DuplicateKey):
            find_insert_position(stable, [pdt], index, (1,))

    def test_find_rid_by_key(self):
        stable, index, pdt = self.make_parts()
        assert find_rid_by_key(stable, [pdt], index, (0,)) == 0
        assert find_rid_by_key(stable, [pdt], index, (98,)) == 49
        with pytest.raises(KeyNotFound):
            find_rid_by_key(stable, [pdt], index, (1,))

    def test_rids_shift_after_deletes(self):
        stable, index, pdt = self.make_parts()
        up = PositionalUpdater(stable, [pdt], index)
        up.delete_by_key((0,))
        assert find_rid_by_key(stable, [pdt], index, (2,)) == 0

    def test_stale_sparse_index_still_correct(self):
        """Heavy updates never invalidate the TABLE0 sparse index thanks to
        ghost-respecting SID assignment."""
        stable, index, pdt = self.make_parts(n=100, granularity=10)
        up = PositionalUpdater(stable, [pdt], index)
        for k in range(0, 200, 4):  # delete half the even keys
            if k % 4 == 0 and k < 200 and k % 2 == 0:
                try:
                    up.delete_by_key((k,))
                except KeyNotFound:
                    pass
        for k in range(1, 200, 8):  # scatter odd inserts
            up.insert((k, 0, f"odd{k}"))
        # Every remaining live key must still be findable via the index.
        from repro.core.stack import image_rows

        for row in image_rows(stable, [pdt]):
            rid = find_rid_by_key(stable, [pdt], index, (row[0],))
            assert image_rows(stable, [pdt])[rid] == row

    def test_image_size(self):
        stable, index, pdt = self.make_parts(n=10)
        up = PositionalUpdater(stable, [pdt], index)
        assert up.image_size() == 10
        up.insert((1, 0, "x"))
        up.delete_by_key((0,))
        up.delete_by_key((2,))
        assert up.image_size() == 9

    def test_updater_requires_layers(self):
        stable, index, pdt = self.make_parts(n=5)
        with pytest.raises(ValueError):
            PositionalUpdater(stable, [], index)

    def test_works_without_sparse_index(self):
        stable, _, pdt = self.make_parts(n=10)
        up = PositionalUpdater(stable, [pdt], None)
        up.insert((1, 0, "x"))
        assert find_rid_by_key(stable, [pdt], None, (1,)) == 1


def test_query_results_cannot_corrupt_storage_via_aliasing():
    """Pass-through blocks alias storage; writes must raise, not corrupt."""
    import numpy as np
    import pytest

    from repro import Database, DataType, Schema

    schema = Schema.build(("k", DataType.INT64), ("v", DataType.INT64),
                          sort_key=("k",))
    db = Database(block_rows=1024)
    db.create_table("t", schema, [(i, i) for i in range(100)])
    rel = db.query("t", columns=["v"])
    with pytest.raises(ValueError):
        rel["v"][0] = 777_777
    again = db.query("t", columns=["v"])
    assert int(again["v"][0]) == 0  # storage unharmed
