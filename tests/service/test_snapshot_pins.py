"""Database-wide snapshot pins: one commit point, held against the world.

The contract under test: a reader holding a :class:`repro.SnapshotPin`
observes byte-identical results forever — across concurrent commits,
Write→Read propagations (copy-on-write under pins), full and incremental
checkpoint folds (old stable images detach instead of dying), and shard
rebalancer splits/merges (retired shard storage is dropped only once the
pins that captured it drain). Live readers meanwhile see every new commit
and the new layouts.
"""

import pytest

from repro import Database, DataType, Schema
from repro.shard import merge_adjacent, split_shard
from repro.txn.checkpoint import checkpoint_table_range


def make_schema():
    return Schema.build(
        ("k", DataType.INT64), ("v", DataType.INT64),
        ("tag", DataType.STRING), sort_key=("k",),
    )


def seed_rows(n=800):
    return [(i * 2, i, f"t{i % 5}") for i in range(n)]


def snapshot_bytes(db, table, pin=None, low=None, high=None):
    if low is None and high is None:
        rel = db.query(table, pin=pin)
    else:
        rel = db.query_range(table, low=low, high=high, pin=pin)
    return {
        c: rel[c].tolist() if rel[c].dtype == object else rel[c].tobytes()
        for c in rel.column_names
    }


@pytest.fixture
def sharded_db():
    db = Database(compressed=False)
    db.create_sharded_table("t", make_schema(), seed_rows(), shards=4)
    yield db
    db.close()


class TestPinBasics:
    def test_pin_freezes_version_against_writers(self, sharded_db):
        db = sharded_db
        pin = db.pin_snapshot()
        before = snapshot_bytes(db, "t", pin=pin)
        db.apply_batch("t", [("mod", (10,), "v", 777),
                             ("ins", (3,), ),][:1])
        db.insert("t", (3, -1, "new"))
        db.delete("t", (20,))
        assert snapshot_bytes(db, "t", pin=pin) == before
        live = db.query("t")
        assert 777 in live["v"]
        assert -1 in live["v"]
        pin.release()

    def test_lsn_vector_names_every_shard(self, sharded_db):
        db = sharded_db
        db.modify("t", (10,), "v", 1)
        pin = db.pin_snapshot()
        vector = pin.lsn_vector()
        shard_names = db.sharded("t").shard_names
        assert set(shard_names) <= set(vector)
        # the shard owning key 10 committed at a later LSN than the rest
        hot = db.sharded("t").physical_for((10,))
        assert vector[hot] == max(vector.values())
        pin.release()

    def test_context_manager_and_idempotent_release(self, sharded_db):
        db = sharded_db
        with db.pin_snapshot() as pin:
            assert db.manager.pin_count() == 1
            assert db.manager.is_pinned(db.sharded("t").shard_names[0])
        assert db.manager.pin_count() == 0
        pin.release()  # second release is a no-op
        assert db.manager.pin_count() == 0

    def test_unknown_table_raises(self, sharded_db):
        pin = sharded_db.pin_snapshot()
        with pytest.raises(KeyError):
            sharded_db.query("nope", pin=pin)
        pin.release()

    def test_pin_on_unsharded_table(self):
        with Database(compressed=False) as db:
            db.create_table("u", make_schema(), seed_rows(100))
            pin = db.pin_snapshot()
            before = snapshot_bytes(db, "u", pin=pin)
            db.apply_batch("u", [("mod", (0,), "v", 123)])
            assert snapshot_bytes(db, "u", pin=pin) == before
            assert db.query("u")["v"][0] == 123
            pin.release()

    def test_pin_scoped_to_named_tables(self, sharded_db):
        """A one-table read pins only that table's physical tables (and
        a sharded table's layout), whatever else the database holds."""
        db = sharded_db
        db.create_table("u", make_schema(), seed_rows(10))
        with db.manager.pin_snapshot(["t"]) as pin:
            assert set(pin.tables) == set(db.sharded("t").shard_names)
            assert set(pin.layouts) == {"t"}
            assert not db.manager.is_pinned("u")
            assert snapshot_bytes(db, "t", pin=pin) == snapshot_bytes(db, "t")
        with db.manager.pin_snapshot(["u"]) as pin:
            assert set(pin.tables) == {"u"} and not pin.layouts
        whole = db.pin_snapshot()
        assert set(whole.tables) == set(db.sharded("t").shard_names) | {"u"}
        whole.release()

    def test_pins_share_write_loans_at_one_lsn(self, sharded_db):
        db = sharded_db
        db.modify("t", (10,), "v", 5)  # non-empty Write-PDT
        copies_before = db.manager.stats.snapshot_copies
        a = db.pin_snapshot()
        b = db.pin_snapshot()
        # Pinning loans the master Write-PDT by reference: both pins hold
        # the same object and no copy is taken at pin time.
        assert db.manager.stats.snapshot_copies == copies_before
        shared = [
            (a.tables[n].write_pdt, b.tables[n].write_pdt)
            for n in a.tables if a.tables[n].write_pdt is not None
        ]
        assert shared and all(x is y for x, y in shared)
        # A commit on a pinned shard must copy-on-commit, not mutate the
        # loaned object under the pins.
        before = snapshot_bytes(db, "t", pin=a)
        db.modify("t", (10,), "v", 6)
        assert db.manager.stats.snapshot_copies > copies_before
        assert snapshot_bytes(db, "t", pin=a) == before
        assert snapshot_bytes(db, "t", pin=b) == before
        a.release()
        b.release()

    def test_pinned_range_query_prunes_and_matches(self, sharded_db):
        db = sharded_db
        pin = db.pin_snapshot()
        oracle = snapshot_bytes(db, "t", low=(100,), high=(300,))
        db.apply_batch("t", [("mod", (150,), "v", -99)])
        assert snapshot_bytes(db, "t", pin=pin, low=(100,),
                              high=(300,)) == oracle
        pin.release()


class TestPinsVsMaintenance:
    def test_propagate_is_copy_on_write_under_pins(self, sharded_db):
        db = sharded_db
        db.apply_batch("t", [("mod", (k,), "v", k) for k in range(0, 60, 2)])
        pin = db.pin_snapshot()
        before = snapshot_bytes(db, "t", pin=pin)
        shard = db.sharded("t").shard_names[0]
        pinned_read = pin.table(shard).read_pdt
        db.manager.propagate_write_to_read(shard)
        # the live Read-PDT was migrated into a fresh copy, not mutated
        assert db.manager.state_of(shard).read_pdt is not pinned_read
        assert snapshot_bytes(db, "t", pin=pin) == before
        pin.release()

    def test_full_checkpoint_fold_under_pin(self, sharded_db):
        db = sharded_db
        db.apply_batch("t", [("mod", (k,), "v", -k) for k in range(0, 80, 2)])
        pin = db.pin_snapshot()
        before = snapshot_bytes(db, "t", pin=pin)
        live_before = snapshot_bytes(db, "t")
        db.checkpoint("t")  # rewrites every shard's stable image
        assert snapshot_bytes(db, "t", pin=pin) == before
        assert snapshot_bytes(db, "t") == live_before
        for state in db.sharded("t").shard_states():
            assert state.read_pdt.is_empty() and state.write_pdt.is_empty()
        pin.release()

    def test_incremental_range_fold_under_pin(self):
        with Database(compressed=False, block_rows=128) as db:
            db.create_table("u", make_schema(), seed_rows(600))
            db.apply_batch("u", [("mod", (k,), "v", 1)
                                 for k in range(0, 100, 2)])
            pin = db.pin_snapshot()
            before = snapshot_bytes(db, "u", pin=pin)
            folded = checkpoint_table_range(db.manager, "u", 0, 256)
            assert folded > 0
            assert snapshot_bytes(db, "u", pin=pin) == before
            pin.release()

    def test_scheduler_defers_folds_until_pins_drain(self):
        with Database(compressed=False, checkpoint_policy="updates:10") as db:
            db.create_sharded_table("t", make_schema(), seed_rows(),
                                    shards=2)
            pin = db.pin_snapshot()
            db.apply_batch("t", [("mod", (k,), "v", 9)
                                 for k in range(0, 80, 2)])
            # the policy fired but every fold was deferred by the pin
            assert db.scheduler.pending()
            assert db.scheduler.stats.checkpoints == 0
            db.query("t")  # between-queries drain: still pinned, still deferred
            assert db.scheduler.pending()
            pin.release()
            db.query("t")  # pin drained: the fold runs now
            assert not db.scheduler.pending()
            assert db.scheduler.stats.checkpoints > 0


class TestPinsVsRebalance:
    def test_pinned_reads_identical_across_split_and_fold(self, sharded_db):
        """The acceptance criterion: a pin-holding reader sees identical
        results before and after a concurrent rebalancer split *and* a
        concurrent checkpoint fold — no torn cross-shard reads."""
        db = sharded_db
        sharded = db.sharded("t")
        db.apply_batch("t", [("ins", (k, k, "hot")) for k in range(1, 200, 2)])
        pin = db.pin_snapshot()
        before_full = snapshot_bytes(db, "t", pin=pin)
        before_range = snapshot_bytes(db, "t", pin=pin, low=(50,),
                                      high=(500,))
        n_before = sharded.num_shards
        assert split_shard(sharded, 0)  # concurrent split (explicit)
        assert sharded.num_shards == n_before + 1
        assert snapshot_bytes(db, "t", pin=pin) == before_full
        assert snapshot_bytes(db, "t", pin=pin, low=(50,),
                              high=(500,)) == before_range
        db.checkpoint("t")  # concurrent fold of every (new) shard
        assert snapshot_bytes(db, "t", pin=pin) == before_full
        assert snapshot_bytes(db, "t", pin=pin, low=(50,),
                              high=(500,)) == before_range
        # live readers see the same logical data through the new layout
        assert db.query("t")["k"].tobytes() == before_full["k"]
        pin.release()

    def test_pinned_reads_identical_across_merge(self, sharded_db):
        db = sharded_db
        sharded = db.sharded("t")
        pin = db.pin_snapshot()
        before = snapshot_bytes(db, "t", pin=pin)
        assert merge_adjacent(sharded, 1)
        assert snapshot_bytes(db, "t", pin=pin) == before
        pin.release()

    def test_retired_storage_deferred_until_pins_drain(self, sharded_db):
        db = sharded_db
        sharded = db.sharded("t")
        pin = db.pin_snapshot()
        retired = sharded.shard_names[0]
        retired_store = db.manager.state_of(retired).stable.pool.store
        assert split_shard(sharded, 0)
        # the retired shard's blocks are still alive for the pin
        assert sharded.drain_retired() == 1
        assert retired_store.has_column(retired, "k")
        pin.release()
        assert sharded.drain_retired() == 0
        assert not retired_store.has_column(retired, "k")

    def test_autonomous_rebalancer_defers_under_pins(self, sharded_db):
        db = sharded_db
        sharded = db.sharded("t")
        sharded.split_rows = 100  # every shard is over threshold
        pin = db.pin_snapshot()
        assert sharded.maybe_rebalance() == 0
        pin.release()
        assert sharded.maybe_rebalance() > 0

    def test_split_then_release_then_query_is_consistent(self, sharded_db):
        db = sharded_db
        sharded = db.sharded("t")
        pin = db.pin_snapshot()
        assert split_shard(sharded, 1)
        expected = snapshot_bytes(db, "t", pin=pin)
        pin.release()
        assert snapshot_bytes(db, "t") == expected  # no data was lost
        db.query("t")  # rebalance/maintenance point drains retired storage
        assert sharded.drain_retired() == 0
