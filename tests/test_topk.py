"""Space Saving sketch: exactness under capacity, eviction bounds, guarantees."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from accelbrake.topk import SpaceSavingSketch


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SpaceSavingSketch(0)


def test_rejects_negative_bytes():
    sk = SpaceSavingSketch(4)
    with pytest.raises(ValueError):
        sk.record("a", -1)


def test_exact_below_capacity():
    sk = SpaceSavingSketch(4)
    sk.record("a", 100)
    sk.record("b", 50)
    sk.record("a", 25)
    assert sk.counts() == {"a": 125, "b": 50}
    assert sk.errors() == {"a": 0, "b": 0}


def test_eviction_inherits_minimum_count():
    sk = SpaceSavingSketch(2)
    sk.record("a", 100)
    sk.record("b", 10)
    sk.record("c", 5)  # evicts b (the minimum), inherits its 10
    counts, errors = sk.counts(), sk.errors()
    assert "b" not in counts
    assert counts["c"] == 15
    assert errors["c"] == 10
    assert len(sk) == 2


def test_min_eviction_breaks_ties_deterministically():
    sk = SpaceSavingSketch(2)
    sk.record("b", 10)
    sk.record("a", 10)
    sk.record("c", 1)
    # Equal minima: the lexicographically first id goes.
    assert set(sk.counts()) == {"b", "c"}


def test_top_rates_orders_and_converts():
    sk = SpaceSavingSketch(4)
    sk.record("slow", 1_000)
    sk.record("fast", 5_000)
    rates = sk.top_rates(interval_us=100_000)
    assert [fid for fid, _ in rates] == ["fast", "slow"]
    # 5000 bytes over 100 ms = 400 kbit/s.
    assert rates[0][1] == pytest.approx(400_000)


def test_top_rates_rejects_bad_interval():
    with pytest.raises(ValueError):
        SpaceSavingSketch(2).top_rates(0)


def test_clear_resets_state():
    sk = SpaceSavingSketch(2)
    sk.record("a", 10)
    sk.clear()
    assert len(sk) == 0
    assert sk.counts() == {}


@given(
    stream=st.lists(
        st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 1000)),
        min_size=1, max_size=200,
    ),
    k=st.integers(1, 5),
)
def test_summary_bounds_hold_on_any_stream(stream, k):
    """Estimates never undercount, and (estimate - error) never overcounts."""
    sk = SpaceSavingSketch(k)
    truth = Counter()
    for fid, n in stream:
        sk.record(fid, n)
        truth[fid] += n
    counts, errors = sk.counts(), sk.errors()
    assert len(counts) <= k
    for fid, est in counts.items():
        assert est >= truth[fid]
        assert est - errors[fid] <= truth[fid]
    # Any flow heavier than total/k must still be tracked.
    total = sum(truth.values())
    for fid, true_count in truth.items():
        if true_count > total / k:
            assert fid in counts


@given(
    ops=st.lists(st.one_of(
        st.tuples(st.sampled_from("abcdefghij"), st.integers(0, 1500)),
        st.just("clear"),
    ), max_size=200),
    k=st.integers(1, 4),
)
def test_counts_sum_to_the_bytes_recorded_since_clear(ops, k):
    """The router reads a queue's bytes per weight interval from this sum."""
    sk = SpaceSavingSketch(k)
    recorded = 0
    for op in ops:
        if op == "clear":
            sk.clear()
            recorded = 0
        else:
            sk.record(*op)
            recorded += op[1]
        total = sum(sk.counts().values())
        assert type(total) is int and total == recorded
