"""Sharded scaling: a range-partitioned table splitting under skew.

Creates a range-sharded table, drives a heavily skewed update stream at
one corner of the key space, and shows the autonomous rebalancer splitting
the hot shard between queries — while every query keeps seeing the full,
consistent logical image and cold shards are never touched. Finishes with
the per-shard layout, the aggregated I/O counters, and a WAL-recovery
round trip that restores the shard boundaries.

Run: ``python examples/sharded_scaling.py``
"""

import sys

from repro import Database, DataType, Schema
from repro.txn import recover_database


def layout_line(sharded) -> str:
    parts = []
    for i, state in enumerate(sharded.shard_states()):
        low, high = sharded.router.key_range(i)
        lo = "-inf" if low is None else low[0]
        hi = "+inf" if high is None else high[0]
        entries = state.read_pdt.count() + state.write_pdt.count()
        parts.append(
            f"[{lo}, {hi}): {state.stable.num_rows} rows, {entries} deltas"
        )
    return "\n    ".join(parts)


def main() -> None:
    n_rows = 4000
    schema = Schema.build(
        ("user_id", DataType.INT64),
        ("score", DataType.INT64),
        ("region", DataType.STRING),
        sort_key=("user_id",),
    )
    rows = [(i * 10, i % 997, f"r{i % 7}") for i in range(n_rows)]

    db = Database(compressed=True, checkpoint_policy="updates:600")
    sharded = db.create_sharded_table(
        "users", schema, rows,
        shards=4,
        split_rows=n_rows // 2,   # split a shard outgrowing half the load
        merge_rows=n_rows // 8,   # merge neighbours that fall underfull
    )
    print(f"initial layout ({sharded.num_shards} shards):")
    print("   ", layout_line(sharded))

    # --- skewed stream: every new user lands in the lowest key range --------
    hot_keys = iter(range(1, 10 * n_rows, 2))  # odd keys, ascending
    expected = n_rows
    for burst in range(8):
        batch = [("ins", (next(hot_keys), burst, "hot")) for _ in range(150)]
        db.apply_batch("users", batch)
        expected += len(batch)
        rel = db.query("users", columns=["user_id"])  # rebalance runs here
        assert len(rel["user_id"]) == expected, "torn read!"
    print(f"\nafter {8 * 150} skewed inserts "
          f"({sharded.num_shards} shards — hot range split):")
    print("   ", layout_line(sharded))

    # --- cold shards stayed cold --------------------------------------------
    db.make_cold()
    db.io.reset()
    db.query_range("users", low=(30_000,), high=(35_000,), columns=["score"])
    touched = {t for t, _ in db.io.bytes_by_column}
    print(f"\nrange query touched shards: {sorted(touched)} "
          f"of {sharded.num_shards}")

    # --- crash recovery restores boundaries ---------------------------------
    recovered = Database(compressed=True)
    for shard in sharded.shard_names:
        recovered.create_table(
            shard, schema, db.manager.state_of(shard).stable.rows()
        )
    recover_database(recovered, db.manager.wal)
    assert recovered.sharded("users").boundaries == sharded.boundaries
    assert recovered.row_count("users") == expected
    print(f"\nrecovered from WAL: {recovered.sharded('users').num_shards} "
          f"shards, boundaries intact, {recovered.row_count('users')} rows")

    # release both databases' storage and executors so the interpreter
    # exits cleanly (Database is also usable as a context manager)
    recovered.close()
    db.close()


if __name__ == "__main__":
    sys.argv = sys.argv[:1]  # scale-factor args of sibling examples ignored
    main()
