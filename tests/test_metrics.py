"""Run statistics: utilization, delays, fairness, throughput windows, outputs."""

import os

import pytest

from accelbrake.metrics import (
    DropRecord,
    HopStats,
    MetricsLog,
    delay_percentile,
    flow_throughputs,
    hop_delays_us,
    jain_index,
    nearest_rank,
    report,
    steady_window,
    utilization,
    write_outputs,
)


def _deliver(log, fid, seq, deliver, stamps, size=1500, send=0):
    """Record a delivery; ``stamps`` is one ``(enq, deq)`` per hop of the path."""
    log.record_delivery(fid, seq, size, send, deliver, [t for pair in stamps for t in pair])


def _log_with_hop_delays(delays, hop="h"):
    """A one-hop log with one delivery per delay value, dequeued at 1000*i."""
    log = MetricsLog(duration_us=1_000_000)
    log.hop_stats[hop] = HopStats()
    for i, d in enumerate(delays):
        deq = 1_000 * (i + 1)
        _deliver(log, "f", i, deq + 10, [(deq - d, deq)])
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


def _two_hop_log():
    log = MetricsLog()
    log.hop_stats.update(a=HopStats(), b=HopStats())  # the path: a, then b
    return log


def test_hop_delays_filter_by_hop_and_window():
    log = _two_hop_log()
    _deliver(log, "f", 0, 900, [(0, 500), (600, 800)])
    _deliver(log, "f", 1, 2_000, [(900, 1_500), (1_600, 1_900)])
    assert hop_delays_us(log, "a") == [500, 600]
    assert hop_delays_us(log, "b") == [200, 300]
    assert hop_delays_us(log, "elsewhere") == []
    # Window bounds apply to the dequeue instant, inclusive on both ends.
    assert hop_delays_us(log, "a", start=500, end=500) == [500]
    assert hop_delays_us(log, "a", start=501) == [600]


def test_delivery_needs_one_stamp_pair_per_hop():
    log = _two_hop_log()
    for stamps in ([], [(0, 500)], [(0, 500), (600, 800), (900, 900)]):
        with pytest.raises(ValueError, match="2 stamps for each of 2 hops"):
            _deliver(log, "f", 0, 900, stamps)
    assert len(log.deliveries) == 0
    _deliver(log, "f", 0, 900, [(0, 500), (600, 800)])
    assert log.deliveries[0].hops == (("a", 0, 500), ("b", 600, 800))


def test_report_percentiles_per_hop():
    log = _two_hop_log()
    _deliver(log, "f", 0, 900, [(0, 500), (600, 800)])
    _deliver(log, "f", 1, 2_000, [(900, 1_500), (1_500, 1_700)])
    _deliver(log, "f", 2, 3_000, [(2_000, 2_500), (2_600, 2_700)])
    hops = report(log)["hops"]
    assert list(hops) == ["a", "b"]
    assert [(h["delay_p50_us"], h["delay_p95_us"]) for h in hops.values()] == [
        (500, 600), (200, 200)]


def test_nearest_rank_walks_the_histogram():
    counts = {10: 3, 20: 1, 5: 2}  # the sorted values are 5 5 10 10 10 20
    assert [nearest_rank(counts, p) for p in (1 / 6, 0.34, 0.5, 5 / 6, 0.84, 1.0)] == [
        5, 10, 10, 10, 20, 20]
    with pytest.raises(ValueError, match=r"percentile must be in \(0, 1\], got 0"):
        nearest_rank(counts, 0)
    with pytest.raises(ValueError):
        nearest_rank({}, 0.5)


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
        _deliver(log, "f", deliver, deliver, [])
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


def test_report_counts_drops_per_hop():
    log = MetricsLog(duration_us=3_000_000)
    log.hop_stats.update(h=HopStats(), idle=HopStats())
    log.record_drop(DropRecord("f", 3, "h", 100))
    log.record_drop(DropRecord("f", 5, "h", 150))
    log.record_drop(DropRecord("f", 4, "other", 200))  # unknown hop: kept in the list only
    rep = report(log)
    assert {hop_id: hop["drops"] for hop_id, hop in rep["hops"].items()} == {"h": 2, "idle": 0}
    assert rep["dropped_packets"] == len(log.drops) == 3


def test_write_outputs_layout(tmp_path):
    log = MetricsLog(duration_us=3_000_000, seed=42)
    log.hop_stats["h"] = HopStats(opportunity_bytes=10_000, dequeued_bytes=5_000)
    _deliver(log, "f", 0, 2_500_000, [(0, 400)])
    log.flow_samples["f"] = [(1_000_000, 2.0, 3.0, 1, 1e6)]
    log.router_samples["h"] = [(400, "abc", 0.5, 1e6, 9e5, 400, 1.0, "ACCEL")]
    out = tmp_path / "run"
    assert write_outputs(log, str(out)) == report(log)

    assert (out / "summary.txt").read_text().splitlines() == [
        "duration_s=3.000000", "seed=42", "delivered_packets=1", "dropped_packets=0",
        "hop.h.dequeued_bytes=5000", "hop.h.drops=0", "hop.h.utilization=0.500000",
        "hop.h.delay_p50_ms=0.400", "hop.h.delay_p95_ms=0.400",
        "flow.f.steady_throughput_mbps=0.0060",
    ]
    flow_csv = (out / "flows" / "f.csv").read_text().splitlines()
    assert flow_csv[0] == "time_us,w_abc,w_cubic,inflight,send_rate_bps"
    assert len(flow_csv) == 2
    router_csv = (out / "routers" / "h.csv").read_text().splitlines()
    assert router_csv[0] == ("time_us,queue,accel_fraction,target_rate_bps,dequeue_rate_bps,"
                             "queue_delay_us,token,mark")
    assert len(router_csv) == 2


def test_report_leaves_missing_figures_as_none():
    log = MetricsLog(duration_us=3_000_000, seed=7)
    log.hop_stats["b"] = HopStats(opportunity_bytes=10_000, dequeued_bytes=3_000)
    log.hop_stats["a"] = HopStats()  # no opportunities
    _deliver(log, "early", 0, 900_000, [(0, 700), (800, 800)])  # before the steady window
    _deliver(log, "late", 0, 1_500_000, [(1_000, 1_300), (1_400, 1_400)])
    log.record_drop(DropRecord("late", 1, "b", 1_600_000))
    rep = report(log)
    assert rep == {
        "duration_us": 3_000_000, "seed": 7, "delivered_packets": 2, "dropped_packets": 1,
        "hops": {
            "b": {"dequeued_bytes": 3_000, "drops": 1, "utilization": 0.3,
                  "delay_p50_us": 300, "delay_p95_us": 700},
            "a": {"dequeued_bytes": 0, "drops": 0, "utilization": None,
                  "delay_p50_us": 0, "delay_p95_us": 0},
        },
        "flows": {"late": 1500 * 8 / 2.0},
    }
    assert list(rep["hops"]) == ["b", "a"]  # hop_stats order
    # Before any delivery no hop has a delay to report.
    log = MetricsLog()
    log.hop_stats["h"] = HopStats()
    assert report(log)["hops"]["h"] == {"dequeued_bytes": 0, "drops": 0, "utilization": None,
                                       "delay_p50_us": None, "delay_p95_us": None}
    assert report(MetricsLog())["flows"] == {}  # a zero-length run has no steady window


def test_write_outputs_skips_empty_sample_dirs(tmp_path):
    log = MetricsLog(duration_us=3_000_000)
    log.hop_stats["h"] = HopStats(opportunity_bytes=10_000, dequeued_bytes=5_000)
    _deliver(log, "f", 0, 2_500_000, [(0, 400)])
    out = tmp_path / "run"
    write_outputs(log, str(out))
    assert sorted(os.listdir(out)) == ["summary.txt"]
