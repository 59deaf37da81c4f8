"""Wireless capacity estimation from block-ACK streams."""

import csv
import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from accelbrake.wifi import (
    AckTraceView,
    AmpduAckEvent,
    EstimatePoint,
    EstimateView,
    LinkProfile,
    OverheadModel,
    estimate_capacity,
    estimate_capacity_per_user,
    generate_mac_trace,
    merge_user_streams,
    read_mac_trace,
    write_estimates,
    write_mac_trace,
)


def _event(t=0, b=4, s=12_000, r=24e6, m=8, gap=3_000.0, user=0):
    return AmpduAckEvent(t, b, s, r, m, gap, user)


# -------------------------------------------------------------- projections

def _rates(ev):
    """An event's backlogged projection and instantaneous rate.

    They are the estimates of a stream of that one event: its sample's
    weight is 1.0, so each weighted mean is the value itself.
    """
    point = estimate_capacity([ev])[0]
    return point.raw_bps, point.current_bps


def test_instantaneous_rate():
    assert _rates(_event())[1] == pytest.approx(16e6)
    with pytest.raises(ValueError):
        _rates(_event(gap=0))


def test_backlogged_projection_pads_to_full_batch():
    # 4 missing frames at 24 Mbit/s add 2000 us of virtual airtime.
    assert _rates(_event())[0] == pytest.approx(19.2e6)


def test_projection_recovers_capacity_from_partial_batch():
    # A half-full batch whose gap is its own airtime plus overhead projects
    # to exactly the backlogged throughput of the link.
    profile = LinkProfile(24e6, 8, 12_000, OverheadModel(1_000, 0, 200))
    airtime = 4 * 12_000 * 1e6 / 24e6 + 1_000
    ev = _event(b=4, gap=airtime)
    assert _rates(ev)[0] == pytest.approx(profile.true_capacity())


def test_projection_validates_batch_size():
    with pytest.raises(ValueError, match=r"batch of 0 outside \[1, 8\]"):
        _rates(_event(b=0))
    with pytest.raises(ValueError, match=r"batch of 9 outside \[1, 8\]"):
        _rates(_event(b=9))  # exceeds the max batch of 8


@pytest.mark.parametrize("bad", [{"r": 0.0}, {"r": -24e6}, {"r": math.nan}, {"gap": math.nan},
                                 {"s": 0}, {"s": -12_000}])
def test_rates_need_a_positive_gap_phy_rate_and_frame_size(bad):
    with pytest.raises(ValueError, match="must be positive"):
        _rates(_event(**bad))


# ------------------------------------------------------------------- filter
# The estimator's smoothing filter: each event adds its backlogged
# projection and its dequeue rate to the window as one sample.

def test_filter_empty_stream_gives_no_estimates():
    assert estimate_capacity([]) == []
    assert estimate_capacity_per_user([]) == {}


def test_filter_rejects_bad_window():
    for window in (0, -1):
        with pytest.raises(ValueError, match="filter window must be positive"):
            estimate_capacity([_event(t=1_000)], window_us=window)


def test_filter_halves_weight_per_half_window():
    events = [_event(t=0, b=2), _event(t=20_000, b=8)]
    point = estimate_capacity(events, window_us=40_000)[1]
    # The older sample is one half-life old: weight 0.5 against 1.0.
    first, second = _rates(events[0]), _rates(events[1])
    assert (point.raw_bps, point.current_bps) == pytest.approx(
        [(0.5 * a + b) / 1.5 for a, b in zip(first, second)])


def test_filter_drops_samples_outside_window():
    events = [_event(t=0, b=2), _event(t=20_000, b=8), _event(t=40_001, b=4)]
    points = estimate_capacity(events, window_us=40_000)
    # At 40,001 the sample at 0 has left; the one at 20,000 is just over a
    # half-life old.
    w = 0.5 ** (20_001 / 20_000)
    assert points[2].raw_bps == pytest.approx(
        (w * _rates(events[1])[0] + _rates(events[2])[0]) / (w + 1))
    # After a silence longer than the window, only the event's own sample is left.
    late = _event(t=100_002, b=2)
    assert estimate_capacity(events + [late])[3].raw_bps == _rates(late)[0]


# ---------------------------------------------------------------- estimator

def test_saturated_stream_estimates_its_own_rate():
    events = [_event(t=5_000 * (i + 1), b=8, gap=5_000.0) for i in range(10)]
    points = estimate_capacity(events)
    assert len(points) == 10
    for p in points:
        assert p.raw_bps == pytest.approx(19.2e6)
        assert p.capped_bps == pytest.approx(19.2e6)


def test_idle_stream_is_capped_at_twice_delivered():
    # Lone frames on an idle link: the projection says 11.3 Mbit/s but the
    # estimator may only publish twice what the link actually carried.
    events = [_event(t=5_000 * (i + 1), b=1, gap=5_000.0) for i in range(10)]
    points = estimate_capacity(events, cap_factor=2.0)
    for p in points:
        assert p.current_bps == pytest.approx(2.4e6)
        assert p.raw_bps > 2 * p.current_bps
        assert p.capped_bps == pytest.approx(4.8e6)


def test_per_user_estimates_use_own_gaps():
    # Two stations alternating on the medium, 10 ms between a station's
    # own ACKs; each sees its contended share, not the raw medium rate.
    events = []
    for i in range(6):
        events.append(_event(t=5_000 * i + 1, b=8, gap=5_000.0, user=i % 2))
    per_user = estimate_capacity_per_user(events)
    assert set(per_user) == {0, 1}
    for stream in per_user.values():
        assert len(stream) == 2  # first event only seeds the clock
        for p in stream:
            assert p.capped_bps == pytest.approx(9.6e6)


def test_merge_recomputes_shared_gaps():
    a = [_event(t=1_000, user=0, gap=999.0), _event(t=3_000, user=0, gap=999.0)]
    b = [_event(t=2_000, user=1, gap=999.0)]
    merged = merge_user_streams(a, b)
    assert [ev.time_us for ev in merged] == [1_000, 2_000, 3_000]
    assert [ev.user for ev in merged] == [0, 1, 0]
    assert [ev.inter_ack_us for ev in merged] == [1_000, 1_000, 1_000]


# ---------------------------------------------------------- synthetic traces

def _overheads(model, seed, duration_s):
    """Each batch's overhead, read from a generated trace's gaps.

    The link is offered almost twice its capacity, so after the first
    batch it is never idle: a gap is the batch's airtime plus its overhead.
    """
    p = LinkProfile(300e6, 1, 4_000, model)
    events = generate_mac_trace(p, 1.9 * p.true_capacity(), duration_s, seed=seed)
    return [ev.inter_ack_us - ev.batch_frames * ev.frame_bits * 1e6 / ev.phy_rate_bps
            for ev in events[1:]]


def test_overhead_model_statistics():
    samples = _overheads(OverheadModel(mean_us=1_000, std_us=300, floor_us=200), 0, 21.0)
    assert len(samples) > 20_000
    assert min(samples) >= 200 - 1e-6
    assert sum(samples) / len(samples) == pytest.approx(1_000, rel=0.02)


def test_overhead_model_degenerate_and_invalid():
    # No deviation: every overhead is the mean, and the seed changes nothing.
    model = OverheadModel(std_us=0)
    samples = _overheads(model, 1, 0.5)
    assert len(samples) > 400
    assert samples == pytest.approx([1000.0] * len(samples), abs=1e-6)
    assert samples == _overheads(model, 2, 0.5)
    with pytest.raises(ValueError):
        OverheadModel(mean_us=100, floor_us=200).validate()
    with pytest.raises(ValueError):
        OverheadModel(std_us=-1).validate()
    for bad in ({"mean_us": math.inf}, {"mean_us": math.nan}, {"std_us": math.nan},
                {"std_us": math.inf}, {"floor_us": math.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            OverheadModel(**bad).validate()


def test_profile_capacity_accounts_for_overhead():
    p = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    batch_bits = 16 * 12_000
    want = batch_bits * 1e6 / (batch_bits * 1e6 / 72e6 + 1_000)
    assert p.true_capacity() == pytest.approx(want)
    assert p.true_capacity(36e6) < want


def test_profile_validation():
    for rate in (0, math.nan):
        with pytest.raises(ValueError):
            LinkProfile(phy_rate_bps=rate)
    with pytest.raises(ValueError):
        LinkProfile(max_batch=0)


def test_generator_input_validation():
    p = LinkProfile(24e6, 8, 12_000, OverheadModel(1_000, 0, 200))
    with pytest.raises(ValueError):
        generate_mac_trace(p, 0, 1.0)
    with pytest.raises(ValueError):
        generate_mac_trace(p, 1e6, 0)
    with pytest.raises(ValueError):
        generate_mac_trace(p, 3.0 * p.true_capacity(), 1.0)
    with pytest.raises(ValueError):
        generate_mac_trace(p, 1e6, 1.0, rate_schedule=[(0.5, 24e6)])
    with pytest.raises(ValueError, match="in order of start time"):
        generate_mac_trace(p, 1e6, 1.0, rate_schedule=[(0.0, 24e6), (0.6, 12e6), (0.3, 24e6)])
    for rate in (0.0, -12e6):
        with pytest.raises(ValueError, match="rate schedule rates must be positive"):
            generate_mac_trace(p, 1e6, 1.0, rate_schedule=[(0.0, 24e6), (0.5, rate)])
    # An infinite duration never ended, a NaN one neither (t > nan is never
    # true), and a NaN load never looked up a PHY rate.
    for value in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            generate_mac_trace(p, 1e6, value)
        with pytest.raises(ValueError, match="offered load must be positive and finite"):
            generate_mac_trace(p, value, 1.0)


def test_overloaded_link_fills_batches():
    p = LinkProfile(24e6, 8, 12_000, OverheadModel(1_000, 200, 200))
    events = generate_mac_trace(p, 1.5 * p.true_capacity(), 5.0, seed=3)
    tail = events[len(events) // 2:]
    assert sum(ev.batch_frames for ev in tail) / len(tail) > 0.9 * 8


def test_light_load_sends_small_batches():
    p = LinkProfile(24e6, 8, 12_000, OverheadModel(1_000, 200, 200))
    events = generate_mac_trace(p, 0.25 * p.true_capacity(), 5.0, seed=3)
    assert sum(ev.batch_frames for ev in events) / len(events) < 4


def test_trace_gaps_match_timestamps():
    p = LinkProfile(24e6, 8, 12_000, OverheadModel(1_000, 200, 200))
    events = generate_mac_trace(p, 10e6, 2.0, seed=1)
    for prev, ev in zip(events, events[1:]):
        assert ev.inter_ack_us == pytest.approx(ev.time_us - prev.time_us, abs=1.0)


def test_rate_schedule_switches_phy_rate():
    p = LinkProfile(72e6, 8, 12_000, OverheadModel(1_000, 200, 200))
    events = generate_mac_trace(p, 10e6, 4.0, seed=2,
                                rate_schedule=[(0.0, 72e6), (2.0, 24e6)])
    rates = [ev.phy_rate_bps for ev in events]
    assert set(rates) == {72e6, 24e6}
    # Once the schedule steps down the rate never steps back.
    switched = False
    for r in rates:
        if r == 24e6:
            switched = True
        elif switched:
            pytest.fail("PHY rate went back up after the scheduled step-down")


# -------------------------------------------------------------------- views

@pytest.fixture(scope="module")
def minute():
    """The companion benchmark's trace and its estimates."""
    events = generate_mac_trace(LinkProfile(phy_rate_bps=72e6), 40e6, 60.0, seed=0)
    return events, estimate_capacity(events)


def test_views_index_like_lists(minute):
    for view, cls, record in ((minute[0], AckTraceView, AmpduAckEvent),
                              (minute[1], EstimateView, EstimatePoint)):
        records = list(view)
        assert isinstance(view, cls) and len(view) == len(records) > 20_000
        assert all(type(r) is record for r in records)
        for i in (0, 1, 1_023, 1_024, -1, -2, -len(records)):
            assert view[i] == records[i]
        for i in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                view[i]
        assert view == records and records == view
        assert view != records[:-1] and view != records[1:] + records[:1]
        # Fields read back as Python numbers, not numpy scalars.
        assert {type(v) for r in records[:3] for v in dataclasses.astuple(r)} <= {int, float}


@pytest.mark.parametrize("cut", [
    lambda n: slice(5, 50),
    lambda n: slice(n // 3, None),  # what the CLI and perfbench average over
    lambda n: slice(-30, None),
    lambda n: slice(None, None, 3),
    lambda n: slice(200, 10, -7),
    lambda n: slice(9, 9),
])
def test_view_slice_is_a_view(minute, cut):
    for view in minute:
        records = list(view)[cut(len(view))]
        part = view[cut(len(view))]
        assert type(part) is type(view)
        assert part == records and len(part) == len(records)
        # No copy: the slice reads the view's own columns.
        if len(part):
            assert all(np.shares_memory(a, b) for a, b in zip(part.columns, view.columns))


def test_list_and_columns_take_one_kernel(minute):
    # A list of records is turned into columns on entry; its estimates are
    # the columnar trace's bit for bit.
    events, points = minute
    from_list = estimate_capacity(list(events))
    for got, want in zip(from_list.columns, points.columns):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    per_user = estimate_capacity_per_user(list(events))
    assert list(per_user) == [0]
    for got, want in zip(per_user[0].columns, estimate_capacity_per_user(events)[0].columns):
        assert got.tobytes() == want.tobytes()


def test_estimate_file_from_columns_matches_records(minute, tmp_path):
    points = minute[1][:5_000]
    write_estimates(points, str(tmp_path / "columns.csv"))
    write_estimates(list(points), str(tmp_path / "records.csv"))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def test_trace_file_from_columns_matches_records(minute, tmp_path):
    # The file csv.writer writes from each record's fields, for a one-station
    # trace (no user column) and a two-station merge.
    p = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    merged = merge_user_streams(generate_mac_trace(p, 8e6, 0.5, seed=1, user=0),
                                generate_mac_trace(p, 8e6, 0.5, seed=2, user=1))
    for view, header in ((minute[0], "time_us,b,S_bits,R_bps,M,T_IA_us"),
                         (merged, "time_us,b,S_bits,R_bps,M,T_IA_us,user")):
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header.split(","))
            for ev in view:
                row = [ev.time_us, ev.batch_frames, ev.frame_bits, f"{ev.phy_rate_bps:.0f}",
                       ev.max_batch, f"{ev.inter_ack_us:.3f}"]
                w.writerow(row + [ev.user] if "user" in header else row)
        for events in (view, list(view)):
            write_mac_trace(events, str(tmp_path / "got.csv"))
            assert (tmp_path / "got.csv").read_bytes() == want.read_bytes()


def test_merge_takes_views_and_lists():
    p = LinkProfile(72e6, 16, 12_000, OverheadModel(1_000, 200, 200))
    a = generate_mac_trace(p, 8e6, 0.5, seed=1, user=0)
    b = generate_mac_trace(p, 8e6, 0.5, seed=2, user=1)
    merged = merge_user_streams(a, list(b))
    assert isinstance(merged, AckTraceView)
    assert merged == merge_user_streams(list(a), b)
    assert len(merged) == len(a) + len(b)
    assert [ev.time_us for ev in merged] == sorted(ev.time_us for ev in merged)
    assert merge_user_streams() == [] and merge_user_streams([], a[:0]) == []


# -------------------------------------------------------------------- files

def test_trace_file_roundtrip(tmp_path):
    events = [_event(t=1_000), _event(t=2_000, b=8, gap=1_000.0)]
    path = tmp_path / "trace.csv"
    write_mac_trace(events, str(path))
    back = read_mac_trace(str(path))
    assert back == events
    # Every user is 0: the file has no user column.
    assert path.read_text().splitlines()[0] == "time_us,b,S_bits,R_bps,M,T_IA_us"


def test_multiuser_trace_keeps_user_column(tmp_path):
    # Two stations, and a lone station that is not station 0.
    path = tmp_path / "mu.csv"
    for events in ([_event(t=1_000, user=0), _event(t=2_000, user=1)],
                   [_event(t=1_000, user=3), _event(t=2_000, user=3)]):
        write_mac_trace(events, str(path))
        back = read_mac_trace(str(path))
        assert back == events
        assert set(estimate_capacity_per_user(back)) == {ev.user for ev in events}


def test_trace_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2\n")
    with pytest.raises(ValueError, match="expected header"):
        read_mac_trace(str(path))
    path.write_text("time_us,b,S_bits,R_bps,M,T_IA_us\n1,2,three,4,5,6\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2"):
        read_mac_trace(str(path))


def test_estimate_file_contains_published_column(tmp_path):
    events = [_event(t=5_000 * (i + 1), b=8, gap=5_000.0) for i in range(3)]
    path = tmp_path / "est.csv"
    write_estimates(estimate_capacity(events), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time_us,mu_hat_bps"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(19.2e6)


@pytest.mark.parametrize("seed", range(3))
def test_estimate_file_bytes_match_csv_writer(tmp_path, seed):
    rng = random.Random(seed)
    rates = [0.0, 1e300, 2.0 ** 70, 123456789.05, 0.05, 0.0499]
    rates += [rng.uniform(0.0, 1e9) for _ in range(200)]
    rates += [rng.lognormvariate(0.0, 30.0) for _ in range(200)]
    points = [EstimatePoint(rng.randrange(0, 10 ** 12), 0.0, 0.0, r) for r in rates]
    path = tmp_path / "est.csv"
    write_estimates(points, str(path))
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_us", "mu_hat_bps"])
        for p in points:
            w.writerow([p.time_us, f"{p.capped_bps:.1f}"])
    assert path.read_bytes() == want.read_bytes()


def test_readme_trace_header_parses(tmp_path):
    # The header documented under "Trace CSV columns", with and without the
    # optional user column, is the one read_mac_trace accepts.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("Trace CSV columns"))
    header = next(line for line in lines[at + 1:] if line and not line.startswith("```"))
    assert header.endswith("[,user]")
    base = header[:-len("[,user]")]
    for columns, row, user in ((base, "1000,4,12000,24000000,8,3000.000", 0),
                               (base + ",user", "1000,4,12000,24000000,8,3000.000,2", 2)):
        path = tmp_path / "trace.csv"
        path.write_text(f"{columns}\n{row}\n")
        assert read_mac_trace(str(path)) == [_event(t=1_000, user=user)]
