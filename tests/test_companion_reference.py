"""The companion tools against the step-at-a-time versions they replaced.

``_reference_integrate`` is the Euler loop that advanced the fluid model
one step at a time, ``backlogged_projection`` and ``instantaneous_rate``
one event's rates, which the estimator works out a block at a time,
``_ReferenceFilter`` the single-series filter the estimator ran once per
series, and ``_reference_generate`` the generator that worked out the
log-normal's parameters on every draw.  The faster
code must give bit-identical results: equal bytes for the trajectories,
equal floats for every event and estimate.
"""

import dataclasses
import math
import random
from bisect import bisect_right
from collections import deque

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from accelbrake.core import US_PER_S
from accelbrake.fluid import FluidParams, integrate
from accelbrake.wifi import (
    AmpduAckEvent,
    EstimatePoint,
    LinkProfile,
    OverheadModel,
    estimate_capacity,
    estimate_capacity_per_user,
    generate_mac_trace,
    merge_user_streams,
)

# ------------------------------------------------------------------- fluid


def _reference_integrate(params, history, horizon_s, step_s):
    lag = max(1, round(params.tau_s / step_s))
    n = int(math.ceil(horizon_s / step_s))
    hist = history if callable(history) else (lambda _t, v=float(history): v)

    t = np.arange(n + 1) * step_s
    x = np.empty(n + 1)
    x[0] = max(0.0, hist(0.0))
    a = params.drift
    inv_delta = 1.0 / params.delta_s
    d_t = params.target_delay_s
    for i in range(n):
        if i - lag >= 0:
            delayed = x[i - lag]
        else:
            delayed = max(0.0, hist((i - lag) * step_s))
        x[i + 1] = max(0.0, x[i] + step_s * (a - inv_delta * max(delayed - d_t, 0.0)))
    return t, x


class _RecordingHistory:
    """x(s) = level + slope * s + swing * sin(s / period), noting every call."""

    def __init__(self, level, slope, swing, period):
        self.level, self.slope, self.swing, self.period = level, slope, swing, period
        self.calls = []

    def __call__(self, s):
        self.calls.append(s)
        return self.level + self.slope * s + self.swing * math.sin(s / self.period)


# Steps per round trip: 50 (the coarsest allowed), the default 100, and
# divisors that leave tau/step off an integer.
_steps_per_tau = st.one_of(st.sampled_from([50.0, 100.0, 77.7, 133.3]),
                           st.floats(50.0, 400.0))
_history = st.one_of(
    st.floats(-0.1, 0.5),
    st.tuples(st.floats(-0.2, 0.4), st.floats(-2.0, 2.0), st.floats(0.0, 0.3),
              st.floats(0.001, 0.1)),
)


@settings(max_examples=200, deadline=None)
@given(eta=st.floats(0.5, 1.2), n_flows=st.integers(0, 64),
       mu_bps=st.floats(1e5, 1e8), tau_s=st.floats(0.005, 0.3),
       delta_per_tau=st.floats(0.05, 3.0), target_delay_s=st.floats(0.0, 0.1),
       ai_interval_s=st.floats(0.01, 0.5), history=_history,
       horizon_per_tau=st.floats(0.05, 40.0), steps_per_tau=_steps_per_tau)
# The queue drains and clamps at 0 (negative drift).
@example(eta=0.9, n_flows=0, mu_bps=24e6, tau_s=0.1, delta_per_tau=1.33,
         target_delay_s=0.05, ai_interval_s=0.1, history=0.3,
         horizon_per_tau=20.0, steps_per_tau=100.0)
# The queue starts empty and stays there for 60 s (one flow, negative drift).
@example(eta=0.98, n_flows=1, mu_bps=24e6, tau_s=0.1, delta_per_tau=1.33,
         target_delay_s=0.05, ai_interval_s=0.1, history=0.0,
         horizon_per_tau=600.0, steps_per_tau=100.0)
# delta < 2 tau / 3: the queue oscillates and empties over and over.
@example(eta=0.98, n_flows=16, mu_bps=24e6, tau_s=0.1, delta_per_tau=0.2,
         target_delay_s=0.05, ai_interval_s=0.1, history=0.0,
         horizon_per_tau=40.0, steps_per_tau=50.0)
# A callable history that goes negative, a horizon shorter than tau.
@example(eta=0.98, n_flows=4, mu_bps=12e6, tau_s=0.1, delta_per_tau=1.0,
         target_delay_s=0.05, ai_interval_s=0.1, history=(0.05, 3.0, 0.2, 0.01),
         horizon_per_tau=0.5, steps_per_tau=77.7)
def test_integrate_matches_reference(eta, n_flows, mu_bps, tau_s, delta_per_tau,
                                     target_delay_s, ai_interval_s, history,
                                     horizon_per_tau, steps_per_tau):
    params = FluidParams(eta=eta, delta_s=delta_per_tau * tau_s,
                         target_delay_s=target_delay_s, n_flows=n_flows,
                         mu_bps=mu_bps, tau_s=tau_s, ai_interval_s=ai_interval_s)
    step_s = tau_s / steps_per_tau
    horizon_s = horizon_per_tau * tau_s
    if isinstance(history, tuple):
        new_hist, ref_hist = _RecordingHistory(*history), _RecordingHistory(*history)
    else:
        new_hist = ref_hist = history
    t, x = integrate(params, new_hist, horizon_s, step_s)
    t_ref, x_ref = _reference_integrate(params, ref_hist, horizon_s, step_s)
    assert t.tobytes() == t_ref.tobytes()
    assert x.tobytes() == x_ref.tobytes()
    if isinstance(history, tuple):
        assert new_hist.calls == ref_hist.calls


# -------------------------------------------------------------------- wifi


def _bits(records):
    """Every field of every event or estimate, floats as their exact hex."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
            for r in records]


def _assert_same(got, want):
    """Assert equal records bit for bit, naming the first one that differs."""
    got, want = _bits(got), _bits(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {i} differs"
    assert len(got) == len(want)


def _check_positive(event):
    """Reject a gap, PHY rate or frame size that is not a positive number.

    NaN fails too.  With all three positive and ``1 <= b <= M``, a full
    batch's airtime ``T_IA + (M-b)*S/R`` is positive as well.
    """
    if not event.inter_ack_us > 0:
        # float(): a gap recomputed from integer times may be an int.
        raise ValueError(f"inter-ACK time must be positive, got {float(event.inter_ack_us)}")
    if not event.phy_rate_bps > 0:
        raise ValueError(f"PHY rate must be positive, got {event.phy_rate_bps}")
    if not event.frame_bits > 0:
        raise ValueError(f"frame size must be positive, got {event.frame_bits}")


def instantaneous_rate(event):
    """Throughput of this batch alone: b*S / T_IA, in bits/s."""
    _check_positive(event)
    return event.batch_frames * event.frame_bits * US_PER_S / event.inter_ack_us


def backlogged_projection(event):
    """Rate a full batch would have achieved: M*S / (T_IA + (M-b)*S/R)."""
    _check_positive(event)
    if not 1 <= event.batch_frames <= event.max_batch:
        raise ValueError(
            f"batch of {event.batch_frames} outside [1, {event.max_batch}]")
    pad_us = (event.max_batch - event.batch_frames) * event.frame_bits * US_PER_S / event.phy_rate_bps
    return event.max_batch * event.frame_bits * US_PER_S / (event.inter_ack_us + pad_us)


class _ReferenceFilter:
    def __init__(self, window_us):
        self.window_us = int(window_us)
        self._samples = deque()

    def add(self, time_us, value):
        self._samples.append((time_us, value))

    def value(self, now_us):
        cutoff = now_us - self.window_us
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()
        if not samples:
            return None
        half_life = self.window_us / 2.0
        num = den = 0.0
        for t, v in samples:
            w = 0.5 ** ((now_us - t) / half_life)
            num += w * v
            den += w
        return num / den


def _reference_stream(events, window_us, cap_factor, recompute_inter_ack):
    raw_filter = _ReferenceFilter(window_us)
    rate_filter = _ReferenceFilter(window_us)
    prev_time = None
    out = []
    for ev in events:
        if recompute_inter_ack:
            if prev_time is None:
                prev_time = ev.time_us
                continue
            ev = AmpduAckEvent(ev.time_us, ev.batch_frames, ev.frame_bits,
                               ev.phy_rate_bps, ev.max_batch,
                               ev.time_us - prev_time, ev.user)
            prev_time = ev.time_us
        raw_filter.add(ev.time_us, backlogged_projection(ev))
        rate_filter.add(ev.time_us, instantaneous_rate(ev))
        raw = raw_filter.value(ev.time_us)
        current = rate_filter.value(ev.time_us)
        out.append(EstimatePoint(int(ev.time_us), raw, current,
                                 min(raw, cap_factor * current)))
    return out


def _reference_sample(model, rng):
    if model.std_us == 0:
        return model.mean_us
    m = model.mean_us - model.floor_us
    sigma2 = math.log(1.0 + (model.std_us / m) ** 2)
    mu = math.log(m) - sigma2 / 2.0
    return model.floor_us + rng.lognormvariate(mu, math.sqrt(sigma2))


def _reference_generate(profile, offered_load_bps, duration_s, seed, rate_schedule, user):
    schedule = [(0.0, profile.phy_rate_bps)] if rate_schedule is None \
        else [(float(a), float(b)) for a, b in rate_schedule]
    starts = [s for s, _ in schedule]
    rng = random.Random(seed)
    duration_us = duration_s * US_PER_S
    arrivals_per_us = offered_load_bps / profile.frame_bits / US_PER_S
    backlog_cap = 50.0 * profile.max_batch
    t = 0.0
    backlog = 0.0
    prev_ack = 0.0
    events = []
    while True:
        if backlog < 1.0:
            t += (1.0 - backlog) / arrivals_per_us
            backlog = 1.0
        phy = schedule[bisect_right(starts, t / US_PER_S) - 1][1]
        b = min(profile.max_batch, int(backlog))
        airtime = b * profile.frame_bits * US_PER_S / phy + _reference_sample(profile.overhead, rng)
        t += airtime
        if t > duration_us:
            return events
        backlog = min(backlog + arrivals_per_us * airtime - b, backlog_cap)
        events.append(AmpduAckEvent(int(t), b, profile.frame_bits, phy,
                                    profile.max_batch, t - prev_ack, user))
        prev_ack = t


def _profiles():
    overhead = st.builds(
        lambda floor, excess, std: OverheadModel(floor + excess, std, floor),
        st.floats(0.0, 500.0), st.floats(50.0, 2_000.0),
        st.one_of(st.just(0.0), st.floats(1.0, 800.0)))
    return st.builds(LinkProfile, st.floats(6e6, 300e6), st.integers(1, 64),
                     st.sampled_from([4_000, 8_000, 12_000]), overhead)


_schedules = st.one_of(
    st.none(),
    st.lists(st.tuples(st.floats(0.01, 1.5), st.floats(6e6, 300e6)), min_size=1, max_size=4)
    .map(lambda steps: [(0.0, steps[0][1])] + sorted(steps[1:])),
)

# Shrinking a failing trace of thousands of events takes minutes; the
# first failing example, with the index of its first differing record,
# says enough.
_NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
@given(profile=_profiles(), load_share=st.floats(0.05, 1.9), duration_s=st.floats(0.01, 1.5),
       seed=st.integers(0, 2**32 - 1), schedule=_schedules, user=st.integers(0, 3),
       window_us=st.one_of(st.sampled_from([40_000, 1_000, 1]), st.integers(1, 200_000)),
       cap_factor=st.floats(0.1, 4.0))
def test_generate_and_estimate_match_reference(profile, load_share, duration_s, seed,
                                               schedule, user, window_us, cap_factor):
    rates = [profile.phy_rate_bps] if schedule is None else [r for _, r in schedule]
    load = load_share * min(profile.true_capacity(r) for r in rates)
    events = generate_mac_trace(profile, load, duration_s, seed=seed,
                                rate_schedule=schedule, user=user)
    _assert_same(events, _reference_generate(profile, load, duration_s, seed, schedule, user))
    _assert_same(estimate_capacity(events, window_us, cap_factor),
                 _reference_stream(events, window_us, cap_factor, recompute_inter_ack=False))


def test_constant_overhead_and_short_window_match_reference():
    # std_us = 0 draws nothing from the generator; a 1 ms window is shorter
    # than most inter-ACK gaps here, so each estimate sees one sample.
    profile = LinkProfile(24e6, 8, 12_000, OverheadModel(1_500, 0.0, 300))
    events = generate_mac_trace(profile, 10e6, 2.0, seed=3)
    _assert_same(events, _reference_generate(profile, 10e6, 2.0, 3, None, 0))
    for window_us in (1_000, 40_000):
        _assert_same(estimate_capacity(events, window_us),
                     _reference_stream(events, window_us, 2.0, recompute_inter_ack=False))


def test_rate_step_at_a_tested_time_matches_reference():
    # Every time here is an integer number of microseconds: 1000-bit frames
    # arrive every 1024 us, a frame's airtime is 1000 or 500 us and the
    # overhead is a constant 500 us.  The load exceeds the capacity, so
    # after the first batch the link never idles and the rate is looked up
    # at the previous ACK's time.  A step that starts exactly then applies
    # to the next batch: the lookup is bisect_right's, t >= start.
    profile = LinkProfile(1e6, 4, 1_000, OverheadModel(500.0, 0.0, 0.0))
    load = 1e9 / 1_024
    plain = generate_mac_trace(profile, load, 0.2)
    k = len(plain) // 2
    step_s = plain[k].time_us / US_PER_S
    schedule = [(0.0, 1e6), (step_s, 2e6), (step_s + 0.0123, 1e6)]
    events = generate_mac_trace(profile, load, 0.2, rate_schedule=schedule)
    _assert_same(events, _reference_generate(profile, load, 0.2, 0, schedule, 0))
    assert events[k].time_us == plain[k].time_us
    assert (events[k].phy_rate_bps, events[k + 1].phy_rate_bps) == (1e6, 2e6)


def test_default_profile_minute_matches_reference():
    # The companion benchmark's trace: 60 s at 40 Mbit/s on the default link.
    profile = LinkProfile()
    events = generate_mac_trace(profile, 40e6, 60.0, seed=0)
    assert len(events) > 20_000
    _assert_same(events, _reference_generate(profile, 40e6, 60.0, 0, None, 0))
    _assert_same(estimate_capacity(events, 40_000),
                 _reference_stream(events, 40_000, 2.0, recompute_inter_ack=False))


@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(seeds=st.lists(st.integers(0, 1_000), min_size=2, max_size=4),
       window_us=st.sampled_from([500, 40_000, 100_000]))
def test_per_user_estimates_match_reference(seeds, window_us):
    profile = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    streams = [generate_mac_trace(profile, 8e6, 0.5, seed=s, user=u)
               for u, s in enumerate(seeds)]
    merged = merge_user_streams(*streams)
    by_user = {}
    for ev in merged:
        by_user.setdefault(ev.user, []).append(ev)
    got = estimate_capacity_per_user(merged, window_us)
    assert list(got) == sorted(by_user)
    for u, evs in by_user.items():
        _assert_same(got[u], _reference_stream(evs, window_us, 2.0, recompute_inter_ack=True))


# ------------------------------------------------- wifi: kernel corner cases
#
# estimate_capacity works in blocks of events with a table of weights for
# integer ages; these streams reach the parts of it a generated trace does
# not: times out of order or repeated, float times, tiny windows, streams
# shorter than a block, and events the scalar functions reject.


def _outcome(estimate, *args):
    """What an estimator returns, bit for bit, or the error it raises."""
    try:
        result = estimate(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(result, dict):
        return {u: _bits(points) for u, points in result.items()}
    return _bits(result)


def _reference_per_user(events, window_us, cap_factor):
    by_user = {}
    for ev in events:
        by_user.setdefault(ev.user, []).append(ev)
    return {u: _reference_stream(evs, window_us, cap_factor, recompute_inter_ack=True)
            for u, evs in sorted(by_user.items())}


def _assert_same_outcome(events, window_us, cap_factor=2.0):
    got = _outcome(estimate_capacity, events, window_us, cap_factor)
    want = _outcome(_reference_stream, events, window_us, cap_factor, False)
    assert got == want
    got = _outcome(estimate_capacity_per_user, events, window_us, cap_factor)
    want = _outcome(_reference_per_user, events, window_us, cap_factor)
    assert got == want


def _hand_event(time_us, batch=4, user=0, gap=3_000.0, frame_bits=12_000, phy=24e6, max_batch=8):
    return AmpduAckEvent(time_us, batch, frame_bits, phy, max_batch, gap, user)


_hand_events = st.lists(
    st.builds(_hand_event, time_us=st.integers(0, 120_000), batch=st.integers(1, 8),
              user=st.integers(0, 2), gap=st.floats(1.0, 20_000.0),
              phy=st.sampled_from([6e6, 24e6, 72e6])),
    max_size=1_200)


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(events=_hand_events, window_us=st.sampled_from([1, 2, 1_000, 40_000, 70_000]),
       order=st.sampled_from(["as drawn", "sorted", "reversed"]))
# Repeated times, a 1 us window, an out-of-order sample that outlives later ones.
@example(events=[_hand_event(t) for t in (5, 5, 5, 6, 6, 9, 9, 9, 10)], window_us=1,
         order="as drawn")
@example(events=[_hand_event(t) for t in (0, 100, 30_000, 10, 40_000, 40_000, 80_001)],
         window_us=40_000, order="as drawn")
def test_unordered_and_repeated_times_match_reference(events, window_us, order):
    if order == "sorted":
        events.sort(key=lambda ev: ev.time_us)
    elif order == "reversed":
        events.sort(key=lambda ev: -ev.time_us)
    _assert_same_outcome(events, window_us)


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(steps=st.lists(st.floats(0.0, 5_000.0), max_size=700),
       shuffle_seed=st.one_of(st.none(), st.integers(0, 100)),
       window_us=st.sampled_from([1, 1_000, 40_000]))
@example(steps=[0.25, 0.5, 0.0, 1e-9, 3_000.125], shuffle_seed=None, window_us=1)
def test_float_times_match_reference(steps, shuffle_seed, window_us):
    # Times built through the Python API need not be integers.
    times = np.cumsum([1.5] + steps).tolist()
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(times)
    events = [_hand_event(t, batch=1 + i % 8, user=i % 2) for i, t in enumerate(times)]
    _assert_same_outcome(events, window_us)


@pytest.mark.parametrize("window_us", [1, 1_000, 40_000, 70_000])
def test_long_disordered_stream_matches_reference(window_us):
    # Several blocks of times that mostly rise, with repeats and late
    # arrivals, so the window carried from block to block is out of order.
    rng = random.Random(window_us)
    t, times = 0, []
    for _ in range(3_000):
        t += rng.choice([0, 0, 1, 500, 2_000, 9_000])
        times.append(t - rng.choice([0, 0, 0, 0, 30, 3_000]))
    events = [_hand_event(t, batch=rng.randint(1, 8), user=rng.randint(0, 1),
                          gap=rng.uniform(1.0, 9_000.0)) for t in times]
    _assert_same_outcome(events, window_us)
    # The same stream in time order goes through the weight table.
    events.sort(key=lambda ev: ev.time_us)
    _assert_same_outcome(events, window_us)


@pytest.mark.parametrize("window_us", [1, 2, 1_000, 40_000])
def test_ordered_times_with_repeats_match_reference(window_us):
    # Times in order, many of them repeated, across several blocks: the
    # window front must stop at the first of a run of equal times.
    rng = random.Random(window_us)
    t, times = 0, []
    for _ in range(2_500):
        t += rng.choice([0, 0, 0, 1, 2, 700, 3_000])
        times.append(t)
    events = [_hand_event(t, batch=rng.randint(1, 8), gap=rng.uniform(1.0, 9_000.0))
              for t in times]
    _assert_same_outcome(events, window_us)


@pytest.mark.parametrize("position", [0, 1, 1_023, 1_024, 2_047])
def test_invalid_event_at_block_edges(position):
    # The rejected event may be the first of a block or of the stream.
    events = [_hand_event(1_000 * (i + 1), user=i % 2) for i in range(2_500)]
    events[position] = dataclasses.replace(events[position], batch_frames=9)
    _assert_same_outcome(events, 40_000)
    with pytest.raises(ValueError, match=r"batch of 9 outside \[1, 8\]"):
        estimate_capacity(events)


def test_one_microsecond_window_matches_reference():
    profile = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    events = generate_mac_trace(profile, 40e6, 2.0, seed=5)
    shuffled = list(events)
    random.Random(5).shuffle(shuffled)
    for stream in (events, shuffled, merge_user_streams(events, events[::3])):
        _assert_same_outcome(stream, 1)


def test_empty_and_one_event_streams():
    assert estimate_capacity([]) == []
    assert estimate_capacity_per_user([]) == {}
    one = [_hand_event(1_000)]
    _assert_same_outcome([], 40_000)
    _assert_same_outcome(one, 40_000)
    assert len(estimate_capacity(one)) == 1
    # Per user, an event only seeds the clock for the next one.
    assert estimate_capacity_per_user(one) == {0: []}
    with pytest.raises(ValueError, match="filter window must be positive, got 0"):
        estimate_capacity([], window_us=0)


def test_tied_merge_keeps_per_user_estimates():
    # Three stations' acknowledgments at one microsecond stay in the merge:
    # the shared gap between them is zero, which the shared estimate
    # rejects, while each station's estimates come from its own gaps.
    profile = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    merged = merge_user_streams(*(generate_mac_trace(profile, 8e6, 3.0, seed=s, user=s - 1)
                                  for s in (1, 2, 3)))
    assert (np.diff(merged.columns[0]) == 0).any()
    got = _outcome(estimate_capacity_per_user, merged, 40_000, 2.0)
    assert list(got) == [0, 1, 2]
    assert got == _outcome(_reference_per_user, merged, 40_000, 2.0)
    with pytest.raises(ValueError, match=r"^inter-ACK time must be positive, got 0\.0$"):
        estimate_capacity(merged)


def test_one_event_user_under_per_user():
    profile = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    busy = generate_mac_trace(profile, 20e6, 1.0, seed=2, user=0)
    lone = [_hand_event(busy[len(busy) // 2].time_us + 1, user=1)]
    merged = merge_user_streams(busy, lone)
    got = estimate_capacity_per_user(merged)
    assert list(got) == [0, 1] and got[1] == []
    _assert_same_outcome(merged, 40_000)


@pytest.mark.parametrize("change, shared_raises, per_user_raises", [
    ({"batch_frames": 0}, True, True),
    ({"batch_frames": 17}, True, True),
    ({"phy_rate_bps": 0.0}, True, True),
    ({"phy_rate_bps": -24e6}, True, True),
    ({"phy_rate_bps": math.nan}, True, True),
    ({"inter_ack_us": math.nan}, True, False),
    # Per user the gaps are recomputed from the times.
    ({"inter_ack_us": 0.0}, True, False),
    ({"inter_ack_us": -2.5}, True, False),
    # Two faults: the gap is checked first, and per user only the rate is left.
    ({"inter_ack_us": 0.0, "phy_rate_bps": 0.0}, True, True),
    ({"time_us": None}, False, True),
])
def test_invalid_event_deep_in_stream_raises_same_error(change, shared_raises,
                                                        per_user_raises):
    profile = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    events = list(generate_mac_trace(profile, 40e6, 4.0, seed=9))
    k = len(events) * 3 // 4
    assert k > 1_000
    if "time_us" in change:
        # A repeated time: a zero gap once recomputed per user.
        change = {"time_us": events[k - 1].time_us}
    events[k] = dataclasses.replace(events[k], **change)
    got = _outcome(estimate_capacity, events, 40_000, 2.0)
    assert got == _outcome(_reference_stream, events, 40_000, 2.0, False)
    assert isinstance(got, tuple) == shared_raises
    got = _outcome(estimate_capacity_per_user, events, 40_000, 2.0)
    assert got == _outcome(_reference_per_user, events, 40_000, 2.0)
    assert isinstance(got, tuple) == per_user_raises
