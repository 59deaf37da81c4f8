"""Run statistics: utilization, delays, fairness, throughput windows, outputs."""

import os

import pytest

from accelbrake.metrics import (
    DropRecord,
    HopStats,
    MetricsLog,
    delay_percentile,
    delays_by_hop,
    flow_throughputs,
    hop_delays_us,
    jain_index,
    steady_window,
    utilization,
    write_outputs,
)


def _deliver(log, fid, seq, deliver, hops, size=1500, send=0):
    log.record_delivery(fid, seq, size, send, deliver, [x for hop in hops for x in hop])


def _log_with_hop_delays(delays, hop="h"):
    """One delivery per delay value, dequeued at 1000*i."""
    log = MetricsLog(duration_us=1_000_000)
    for i, d in enumerate(delays):
        deq = 1_000 * (i + 1)
        _deliver(log, "f", i, deq + 10, [(hop, deq - d, deq)])
    return log


def test_utilization_ratio_and_errors():
    log = MetricsLog()
    log.hop_stats["h"] = HopStats(opportunity_bytes=10_000, dequeued_bytes=7_500)
    assert utilization(log, "h") == pytest.approx(0.75)
    with pytest.raises(KeyError):
        utilization(log, "nope")
    log.hop_stats["idle"] = HopStats()
    with pytest.raises(ValueError):
        utilization(log, "idle")


def test_hop_delays_filter_by_hop_and_window():
    log = MetricsLog()
    _deliver(log, "f", 0, 900, [("a", 0, 500), ("b", 600, 800)])
    _deliver(log, "f", 1, 2_000, [("a", 900, 1_500)])
    assert hop_delays_us(log, "a") == [500, 600]
    assert hop_delays_us(log, "b") == [200]
    # Window bounds apply to the dequeue instant, inclusive on both ends.
    assert hop_delays_us(log, "a", start=500, end=500) == [500]
    assert hop_delays_us(log, "a", start=501) == [600]


def test_delays_by_hop_matches_per_hop_scan():
    log = MetricsLog()
    for hop in ("a", "b", "idle"):
        log.hop_stats[hop] = HopStats()
    _deliver(log, "f", 0, 900, [("a", 0, 500), ("b", 600, 800)])
    _deliver(log, "f", 1, 2_000, [("a", 900, 1_500), ("x", 1_500, 1_700)])
    # Hops outside hop_stats are skipped; a hop that served nothing gets [].
    assert delays_by_hop(log) == {h: hop_delays_us(log, h) for h in log.hop_stats}
    assert delays_by_hop(log) == {"a": [500, 600], "b": [200], "idle": []}


def test_percentile_uses_nearest_rank():
    log = _log_with_hop_delays(list(range(10, 110, 10)))  # 10..100
    assert delay_percentile(log, "h", 0.5) == 50
    assert delay_percentile(log, "h", 0.95) == 100
    assert delay_percentile(log, "h", 0.91) == 100
    assert delay_percentile(log, "h", 1.0) == 100
    assert delay_percentile(log, "h", 0.01) == 10


def test_percentile_rejects_bad_inputs():
    log = _log_with_hop_delays([10, 20])
    with pytest.raises(ValueError):
        delay_percentile(log, "h", 0.0)
    with pytest.raises(ValueError):
        delay_percentile(log, "h", 0.5, start=999_999)  # empty window


def test_jain_index_values():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([4, 2]) == pytest.approx(36 / (2 * 20))


def test_jain_index_rejects_degenerate_input():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([1, -1])
    with pytest.raises(ValueError):
        jain_index([0, 0])


def test_throughput_window_is_left_open_right_closed():
    log = MetricsLog()
    for deliver in (1_000, 2_000, 3_000):
        _deliver(log, "f", deliver, deliver, [("h", 0, deliver)])
    # Delivery at exactly `start` is excluded, at exactly `end` included.
    got = flow_throughputs(log, 1_000, 3_000)
    assert got["f"] == pytest.approx(2 * 1500 * 8 * 1e6 / 2_000)


def test_throughput_zero_fills_requested_flows():
    log = MetricsLog()
    got = flow_throughputs(log, 0, 1_000, flows=["quiet"])
    assert got == {"quiet": 0.0}


def test_throughput_rejects_empty_window():
    with pytest.raises(ValueError):
        flow_throughputs(MetricsLog(), 5, 5)


def test_steady_window_is_final_two_thirds():
    assert steady_window(MetricsLog(duration_us=60_000_000)) == (20_000_000, 60_000_000)


def test_drop_recording_updates_hop_stats():
    log = MetricsLog()
    log.hop_stats["h"] = HopStats()
    log.record_drop(DropRecord("f", 3, "h", 100))
    log.record_drop(DropRecord("f", 4, "other", 200))  # unknown hop: kept in list only
    assert log.hop_stats["h"].drops == 1
    assert len(log.drops) == 2


def test_write_outputs_layout(tmp_path):
    log = MetricsLog(duration_us=3_000_000, seed=42)
    log.hop_stats["h"] = HopStats(opportunity_bytes=10_000, dequeued_bytes=5_000)
    _deliver(log, "f", 0, 2_500_000, [("h", 0, 400)])
    log.flow_samples["f"] = [(1_000_000, 2.0, 3.0, 1, 1e6)]
    log.router_samples["h"] = [(400, "abc", 0.5, 1e6, 9e5, 400, 1.0, "ACCEL")]
    out = tmp_path / "run"
    write_outputs(log, str(out), extras={"note": "x"})

    summary = (out / "summary.txt").read_text()
    assert "seed=42" in summary
    assert "delivered_packets=1" in summary
    assert "hop.h.utilization=0.500000" in summary
    assert "note=x" in summary

    flow_csv = (out / "flows" / "f.csv").read_text().splitlines()
    assert flow_csv[0] == "time_us,w_abc,w_cubic,inflight,send_rate_bps"
    assert len(flow_csv) == 2
    assert os.path.exists(out / "routers" / "h.csv")


def test_write_outputs_skips_empty_sample_dirs(tmp_path):
    log = MetricsLog(duration_us=3_000_000)
    log.hop_stats["h"] = HopStats(opportunity_bytes=10_000, dequeued_bytes=5_000)
    _deliver(log, "f", 0, 2_500_000, [("h", 0, 400)])
    out = tmp_path / "run"
    write_outputs(log, str(out))
    assert sorted(os.listdir(out)) == ["summary.txt"]
