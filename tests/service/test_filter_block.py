"""Property test: a plan's key trim equals the row-wise predicate.

``ScanPlan.filter_block`` finds the qualifying rows of a sort-key-ordered
block by binary search on the leading key column, comparing the other
key columns only inside that slice. The oracle evaluates the inclusive,
prefix-aware ``[low, high]`` predicate row by row with the tuple
comparisons SQL prefix ranges mean.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.plan import ScanPlan

SORT_KEY = ("a", "b", "c")

rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from("abcd"), st.integers(0, 2)),
    max_size=40,
).map(sorted)

bound_strategy = st.one_of(
    st.none(),
    st.tuples(st.integers(-1, 5), st.sampled_from("abcde"),
              st.integers(-1, 3)).flatmap(
        lambda full: st.integers(1, 3).map(lambda n: full[:n])),
)


def qualifies(row, low, high) -> bool:
    """Inclusive prefix-aware range test: a bound compares only as many
    leading key columns as it names."""
    if low is not None and row[:len(low)] < low:
        return False
    return high is None or row[:len(high)] <= high


@settings(max_examples=300, deadline=None)
@given(rows=rows_strategy, low=bound_strategy, high=bound_strategy)
def test_filter_block_matches_row_predicate(rows, low, high):
    arrays = {
        "a": np.array([r[0] for r in rows], dtype=np.int64),
        "b": np.array([r[1] for r in rows], dtype=object),
        "c": np.array([r[2] for r in rows], dtype=np.int32),
        "v": np.arange(len(rows), dtype=np.int64),
    }
    plan = ScanPlan("t", ("v", "b"), ("a", "b", "c", "v"), SORT_KEY, (),
                    low=low, high=high)
    block = plan.filter_block(arrays)
    want = [i for i, row in enumerate(rows) if qualifies(row, low, high)]
    got = [] if block is None else block["v"].tolist()
    assert got == want
    if block is not None:
        assert list(block) == ["v", "b"]
        assert block["b"].tolist() == [rows[i][1] for i in want]
