"""Bottleneck discipline: target rate, marking meter, dual queue, weights."""

import pytest
from hypothesis import given, strategies as st

from accelbrake.core import EcnCodepoint, Packet
from accelbrake.router import (
    ABC_QUEUE,
    LEGACY_QUEUE,
    AbcParams,
    AbcRouter,
    MarkerState,
    accel_fraction,
    target_rate,
    water_fill,
)


def _pkt(fid="f", seq=0, size=1500, ecn=EcnCodepoint.ACCEL, t=0):
    return Packet(fid, seq, size, ecn, t)


class _FixedCapacity:
    def __init__(self, bps):
        self.bps = bps

    def capacity(self, now):
        return self.bps


# ---------------------------------------------------------------- parameters

def test_params_validation():
    AbcParams().validate()
    with pytest.raises(ValueError):
        AbcParams(eta=0).validate()
    with pytest.raises(ValueError):
        AbcParams(eta=1.5).validate()
    with pytest.raises(ValueError):
        AbcParams(delta_us=0).validate()
    with pytest.raises(ValueError):
        AbcParams(target_delay_us=-1).validate()
    with pytest.raises(ValueError):
        AbcParams(token_limit=0.5).validate()
    with pytest.raises(ValueError):
        AbcParams(demand_smoothing=0).validate()
    with pytest.raises(ValueError):
        AbcParams(demand_memory=0).validate()


# --------------------------------------------------------------- target rate

def test_target_rate_below_delay_threshold():
    params = AbcParams(eta=0.98, delta_us=133_000, target_delay_us=50_000)
    assert target_rate(params, 12e6, 0) == pytest.approx(0.98 * 12e6)
    assert target_rate(params, 12e6, 50_000) == pytest.approx(0.98 * 12e6)


def test_target_rate_drains_excess_delay():
    params = AbcParams(eta=0.98, delta_us=133_000, target_delay_us=50_000)
    # 10 ms over target subtracts mu/delta * 10 ms of capacity.
    want = 0.98 * 12e6 - (12e6 / 133_000) * 10_000
    assert target_rate(params, 12e6, 60_000) == pytest.approx(want)


def test_target_rate_clamps_at_zero():
    params = AbcParams(delta_us=10_000, target_delay_us=0)
    assert target_rate(params, 12e6, 500_000) == 0.0


def test_accel_fraction_half_ratio():
    assert accel_fraction(6e6, 12e6) == pytest.approx(0.25)
    assert accel_fraction(12e6, 12e6) == pytest.approx(0.5)


def test_accel_fraction_caps_and_idles():
    assert accel_fraction(48e6, 12e6) == 1.0  # capped
    assert accel_fraction(1e6, 0.0) == 1.0    # idle link accelerates all
    with pytest.raises(ValueError):
        accel_fraction(-1, 1)


# --------------------------------------------------------------- rate window

def test_dequeue_rate_measures_and_evicts():
    # The current-rate column of the router's rows: ABC bytes dequeued in
    # the last 10 ms, the packet just served included.
    r = AbcRouter("r", AbcParams(rate_window_us=10_000), _FixedCapacity(24e6),
                  buffer_pkts=16, log_rows=True)
    for i in range(6):
        r.enqueue(_pkt("f", i), 0)
    r.enqueue(_pkt("g", 0, ecn=EcnCodepoint.NOT_ECT), 0)
    rates = {}
    for now in (1_000, 5_000, 10_999, 11_000, 15_001, 21_000):
        r.on_dequeue(now)
        rates[now] = r.rows[-1][4]
    # 3000 bytes over 10 ms = 2.4 Mbit/s.  The first packet ages out at
    # 11_000, once it is a full window old.
    assert rates == {1_000: 1.2e6, 5_000: 2.4e6, 10_999: 3.6e6, 11_000: 3.6e6,
                     15_001: 3.6e6, 21_000: 2.4e6}
    # Legacy dequeues leave the rate alone.
    r.on_dequeue(21_500)
    assert r.rows[-1][1] == LEGACY_QUEUE and r.rows[-1][4] == ""


def test_rejects_bad_rate_window():
    with pytest.raises(ValueError, match="rate_window_us"):
        AbcRouter("r", AbcParams(rate_window_us=0), _FixedCapacity(1e6))


# -------------------------------------------------------------- marking meter

class TestMarkerState:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarkerState(token_limit=0.9)
        with pytest.raises(ValueError):
            MarkerState().mark(_pkt(), 1.5)

    def test_half_fraction_pattern(self):
        # At f=0.5 starting empty the bucket holds an accelerate only on
        # every second chance once it has banked a full token.
        m = MarkerState(token_limit=2.0)
        out = [m.mark(_pkt(seq=i), 0.5).ecn for i in range(6)]
        assert out == [
            EcnCodepoint.BRAKE, EcnCodepoint.BRAKE, EcnCodepoint.ACCEL,
            EcnCodepoint.BRAKE, EcnCodepoint.ACCEL, EcnCodepoint.BRAKE,
        ]

    def test_brakes_are_never_promoted(self):
        m = MarkerState()
        for i in range(5):
            pkt = m.mark(_pkt(seq=i, ecn=EcnCodepoint.BRAKE), 1.0)
            assert pkt.ecn is EcnCodepoint.BRAKE

    def test_non_abc_traffic_passes_untouched(self):
        m = MarkerState()
        assert m.mark(_pkt(ecn=EcnCodepoint.NOT_ECT), 1.0).ecn is EcnCodepoint.NOT_ECT
        assert m.mark(_pkt(ecn=EcnCodepoint.ECN_SET), 1.0).ecn is EcnCodepoint.ECN_SET
        # The bucket still accrues, so a following accelerate can spend it.
        assert m.mark(_pkt(ecn=EcnCodepoint.ACCEL), 0.0).ecn is EcnCodepoint.ACCEL

    @given(
        fracs=st.lists(st.floats(0, 1), min_size=1, max_size=300),
        limit=st.floats(1, 4),
    )
    def test_accelerates_never_exceed_budget(self, fracs, limit):
        m = MarkerState(token_limit=limit)
        survived = 0
        for i, f in enumerate(fracs):
            if m.mark(_pkt(seq=i), f).ecn is EcnCodepoint.ACCEL:
                survived += 1
        assert survived <= sum(fracs) + limit + 1e-9


# ---------------------------------------------------------------- dual queue

def _legacy(fid="l", seq=0):
    return _pkt(fid, seq, ecn=EcnCodepoint.NOT_ECT)


def _dual(buffer_pkts, weight_abc=1.0):
    """A router whose queues tests fill directly: flow "a" is ABC, "l" legacy."""
    return AbcRouter("r", AbcParams(), _FixedCapacity(24e6), buffer_pkts=buffer_pkts,
                     initial_weight=weight_abc)


class TestDualQueue:
    def test_rejects_tiny_buffer(self):
        with pytest.raises(ValueError, match="buffer capacity"):
            _dual(0)

    def test_even_weights_alternate_service(self):
        r = _dual(16, weight_abc=0.5)
        for i in range(4):
            assert r.enqueue(_pkt("a", i), 0) is None
            assert r.enqueue(_legacy("l", i), 0) is None
        order = [r.on_dequeue(0)[0].flow_id for _ in range(8)]
        assert order == ["a", "l"] * 4

    def test_service_follows_weight(self):
        r = _dual(200, weight_abc=0.75)
        served = {"a": 0, "l": 0}
        backlog = {"a": 0, "l": 0}
        seq = 0
        for _ in range(64):
            # Keep both queues backlogged so the scheduler never bypasses.
            for fid, make in (("a", _pkt), ("l", _legacy)):
                while backlog[fid] < 2:
                    r.enqueue(make(fid, seq), 0)
                    backlog[fid] += 1
                    seq += 1
            fid = r.on_dequeue(0)[0].flow_id
            served[fid] += 1
            backlog[fid] -= 1
        assert served["a"] == pytest.approx(48, abs=1)

    def test_lone_queue_is_served_regardless_of_weight(self):
        r = _dual(8, weight_abc=1.0)  # legacy weight is zero
        r.enqueue(_legacy(), 0)
        assert r.on_dequeue(0)[0].flow_id == "l"

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            _dual(4).on_dequeue(0)

    def test_hogging_queue_drops_while_slack_remains(self):
        r = _dual(12)
        for i in range(8):
            assert r.enqueue(_pkt("a", i), 0) is None
        # 8 queued, 4 free: the hog is at twice the free space and must
        # shed its own arrivals, but the other queue still gets in.
        victim = r.enqueue(_pkt("a", 99), 0)
        assert victim is not None and victim.seq == 99
        assert r.enqueue(_legacy(), 0) is None
        assert len(r._queues[0]) == 8  # the ABC queue
        assert r.backlog() == 9

    def test_full_buffer_drops_everything(self):
        r = _dual(4)
        for i in range(2):
            r.enqueue(_pkt("a", i), 0)
            r.enqueue(_legacy("l", i), 0)
        assert r.enqueue(_pkt("a", 9), 0) is not None
        assert r.enqueue(_legacy("l", 9), 0) is not None


# ---------------------------------------------------------------- water fill

def test_water_fill_splits_contended_capacity():
    assert water_fill([5.5, 5.5], 10) == [5.0, 5.0]


def test_water_fill_caps_single_demand():
    assert water_fill([11.0], 10) == [10.0]


def test_water_fill_grants_small_demands_first():
    assert water_fill([3.0, 9.0, 9.0], 12) == [3.0, 4.5, 4.5]


def test_water_fill_underload_grants_everything():
    assert water_fill([2.0, 4.0], 10) == [2.0, 4.0]


def test_water_fill_empty_and_zero():
    assert water_fill([], 10) == []
    assert water_fill([1.0, 2.0], 0) == [0.0, 0.0]


def test_water_fill_rejects_negative_inputs():
    with pytest.raises(ValueError):
        water_fill([1.0], -1)
    with pytest.raises(ValueError):
        water_fill([-1.0], 1)


@given(
    demands=st.lists(st.floats(0, 100), min_size=1, max_size=8),
    capacity=st.floats(0, 150),
)
def test_water_fill_is_max_min_fair(demands, capacity):
    alloc = water_fill(demands, capacity)
    assert sum(alloc) <= min(capacity, sum(demands)) + 1e-6
    for a, d in zip(alloc, demands):
        assert a <= d + 1e-9
    if sum(demands) <= capacity:
        assert alloc == pytest.approx(demands)
    else:
        # Max-min: every capped entity gets at least as much as anyone.
        peak = max(alloc)
        for a, d in zip(alloc, demands):
            if a < d - 1e-9:
                assert a >= peak - 1e-6


# -------------------------------------------------------------------- router

def _drive_epoch(router, counts, t0, interval=100_000):
    """Enqueue/dequeue `counts[(tag, fid)]` MTU packets inside one interval."""
    seq = 0
    for (tag, fid), n in counts.items():
        ecn = EcnCodepoint.ACCEL if tag == ABC_QUEUE else EcnCodepoint.NOT_ECT
        for _ in range(n):
            assert router.enqueue(_pkt(fid, seq, ecn=ecn, t=t0), t0) is None
            seq += 1
    total = sum(counts.values())
    for _ in range(total):
        router.on_dequeue(t0 + interval // 2)
    return router.update_weights(t0 + interval)


class TestAbcRouter:
    def test_enqueue_classifies_by_codepoint(self):
        r = AbcRouter("r", AbcParams(), _FixedCapacity(1e6))
        for ecn, tag in ((EcnCodepoint.ACCEL, ABC_QUEUE), (EcnCodepoint.BRAKE, ABC_QUEUE),
                         (EcnCodepoint.NOT_ECT, LEGACY_QUEUE),
                         (EcnCodepoint.ECN_SET, LEGACY_QUEUE)):
            queue = dict(zip((ABC_QUEUE, LEGACY_QUEUE), r._queues))[tag]
            before = len(queue)
            assert r.enqueue(_pkt(ecn=ecn), 0) is None
            assert len(queue) == before + 1

    def test_rejects_bad_fixed_fraction(self):
        with pytest.raises(ValueError):
            AbcRouter("r", AbcParams(), _FixedCapacity(1e6), fixed_fraction=1.5)

    @pytest.mark.parametrize("weight", [-0.1, 1.5, 5.0])
    def test_rejects_initial_weight_outside_unit_interval(self, weight):
        with pytest.raises(ValueError, match="initial weight"):
            AbcRouter("r", AbcParams(), _FixedCapacity(1e6), initial_weight=weight)

    def test_fixed_fraction_meters_marks(self):
        r = AbcRouter("r", AbcParams(), _FixedCapacity(24e6), fixed_fraction=0.5)
        for i in range(20):
            r.enqueue(_pkt("f", i), 0)
        accels = sum(
            r.on_dequeue(100 + i)[0].ecn is EcnCodepoint.ACCEL for i in range(20))
        assert accels <= 0.5 * 20 + 2.0
        assert accels >= 0.5 * 20 - 2.0

    def test_log_rows_record_marking_decisions(self):
        r = AbcRouter("r", AbcParams(), _FixedCapacity(24e6), log_rows=True)
        r.enqueue(_pkt("f", 0), 0)
        r.enqueue(_pkt("g", 1, ecn=EcnCodepoint.NOT_ECT), 0)
        r.on_dequeue(500)
        r.on_dequeue(1_000)
        assert len(r.rows) == 2
        tags = {row[1] for row in r.rows}
        assert tags == {ABC_QUEUE, LEGACY_QUEUE}

    def test_symmetric_load_converges_to_even_split(self):
        r = AbcRouter("r", AbcParams(), _FixedCapacity(40e6), buffer_pkts=500,
                      initial_weight=1.0)
        counts = {(ABC_QUEUE, "a0"): 20, (LEGACY_QUEUE, "l0"): 20}
        w1 = _drive_epoch(r, counts, 0)
        w2 = _drive_epoch(r, counts, 100_000)
        assert w1 == pytest.approx(0.5)
        assert w2 == pytest.approx(0.5)

    def test_contended_weights_match_hand_allocation(self):
        # One 4.8 Mbit/s marked flow and one 1.2 Mbit/s legacy flow on a
        # 5 Mbit/s link.  Second interval: smoothed short-flow aggregates
        # (3.6, 0.9) are carved out, the two recurring flows split the
        # remaining 0.5 evenly (0.25 each since neither fits), so the
        # marked share is (3.6 + 0.25) / 5.
        r = AbcRouter("r", AbcParams(), _FixedCapacity(5e6), buffer_pkts=500)
        counts = {(ABC_QUEUE, "a0"): 40, (LEGACY_QUEUE, "l0"): 10}
        w1 = _drive_epoch(r, counts, 0)
        assert w1 == pytest.approx(0.8)  # scaled carve-out: 4.8 of 6 offered
        w2 = _drive_epoch(r, counts, 100_000)
        assert w2 == pytest.approx((3.6e6 + 0.25e6) / 5e6)

    def test_weight_update_needs_elapsed_time(self):
        r = AbcRouter("r", AbcParams(), _FixedCapacity(5e6), initial_weight=0.7)
        assert r.update_weights(0) == 0.7
        assert r.weight_abc == 0.7

    def test_idle_interval_keeps_weight(self):
        r = AbcRouter("r", AbcParams(), _FixedCapacity(5e6), initial_weight=0.6)
        assert r.update_weights(100_000) == 0.6
