"""Link processes: delivery scheduling, opportunity accounting, rate views."""

import pytest

from accelbrake.links import (
    FixedLink,
    OracleRateView,
    StepLink,
    TraceLink,
    load_trace_file,
)


class TestFixedLink:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            FixedLink(0)

    def test_next_delivery_is_one_mtu_time(self):
        link = FixedLink(24e6)  # 500 us per MTU
        assert link.next_delivery(0) == 500
        assert link.next_delivery(12345) == 12845

    def test_opportunity_bytes_linear(self):
        link = FixedLink(24e6)
        # 24 Mbit/s for 1 ms = 24000 bits = 3000 bytes.
        assert link.opportunity_bytes(0, 1000) == pytest.approx(3000)
        assert link.opportunity_bytes(1000, 1000) == 0.0

    def test_rate_at_constant(self):
        assert FixedLink(16e6).rate_at(999) == 16e6


class TestStepLink:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            StepLink([])
        with pytest.raises(ValueError):
            StepLink([(100, 12e6)])  # must start at 0
        with pytest.raises(ValueError):
            StepLink([(0, 12e6), (0, 24e6)])  # starts must increase
        with pytest.raises(ValueError):
            StepLink([(0, 12e6), (1000, -1)])

    def test_rate_lookup_per_segment(self):
        link = StepLink([(0, 12e6), (1_000_000, 24e6)])
        assert link.rate_at(0) == 12e6
        assert link.rate_at(999_999) == 12e6
        assert link.rate_at(1_000_000) == 24e6

    def test_opportunity_spans_rate_change(self):
        link = StepLink([(0, 12e6), (1_000_000, 24e6)])
        # Half a second at each rate: 750000 + 1500000 bytes.
        got = link.opportunity_bytes(500_000, 1_500_000)
        assert got == pytest.approx(2_250_000)

    def test_delivery_within_segment(self):
        link = StepLink([(0, 12e6), (1_000_000, 24e6)])
        assert link.next_delivery(0) == 1000
        assert link.next_delivery(1_000_000) == 1_000_500

    def test_delivery_straddles_rate_change(self):
        link = StepLink([(0, 12e6), (1_000_000, 24e6)])
        # Starting 100 us before the speedup: 1200 bits at 12 Mbit/s,
        # the remaining 10800 bits at 24 Mbit/s take 450 us.
        assert link.next_delivery(999_900) == 1_000_450

    def test_outage_defers_delivery(self):
        link = StepLink([(0, 0.0), (10_000, 12e6)])
        assert link.next_delivery(0) == 11_000

    def test_permanent_outage_returns_none(self):
        link = StepLink([(0, 12e6), (5_000, 0.0)])
        # 12 bits fit before the link dies; the MTU never completes.
        assert link.next_delivery(4_999) is None
        assert link.next_delivery(0) == 1000


class TestTraceLink:
    def test_offset_validation(self):
        with pytest.raises(ValueError):
            TraceLink([])
        with pytest.raises(ValueError):
            TraceLink([0, 5])
        with pytest.raises(ValueError):
            TraceLink([5, 5])

    def test_schedule_loops(self):
        link = TraceLink([5, 10])  # opportunities at 5 ms and 10 ms, period 10 ms
        assert link.period_us == 10_000
        assert link.next_delivery(0) == 5_000
        assert link.next_delivery(5_000) == 5_000  # at-or-after semantics
        assert link.next_delivery(5_000, after=True) == 10_000
        assert link.next_delivery(10_000, after=True) == 15_000
        assert link.next_delivery(23_000) == 25_000

    def test_opportunity_counting(self):
        link = TraceLink([5, 10])
        assert link.opportunity_bytes(0, 10_000) == pytest.approx(2 * 1500)
        assert link.opportunity_bytes(0, 30_000) == pytest.approx(6 * 1500)
        # Window boundaries: (start, end] excludes an opportunity at start.
        assert link.opportunity_bytes(5_000, 9_999) == 0.0
        assert link.opportunity_bytes(4_999, 5_000) == pytest.approx(1500)

    def test_mean_rate(self):
        link = TraceLink([5, 10])
        # Two MTUs per 10 ms = 2.4 Mbit/s.
        assert link.rate_at(0) == pytest.approx(2.4e6)


class TestTraceFile:
    def test_parses_comments_and_blanks(self, tmp_path):
        p = tmp_path / "cell.txt"
        p.write_text("# header\n\n5\n10  # inline note\n\n20\n")
        link = load_trace_file(str(p))
        assert link.period_us == 20_000
        assert link.next_delivery(0) == 5_000

    def test_reports_bad_line_with_location(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("5\nten\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            load_trace_file(str(p))


class TestRateViews:
    def test_oracle_matches_fixed_link(self):
        view = OracleRateView(FixedLink(24e6), window_us=20_000)
        assert view.capacity(50_000) == pytest.approx(24e6)

    @pytest.mark.parametrize("rate", [1e6, 7.3e6, 12e6, 24e6, 36.7e6, 96e6])
    @pytest.mark.parametrize("window", [1, 7_777, 20_000])
    def test_oracle_fixed_link_is_bit_identical_to_window_average(self, rate, window):
        # The fixed-link full-window answer is computed once; it must equal
        # the windowed average exactly, at every instant, early window too.
        link = FixedLink(rate)
        view = OracleRateView(link, window_us=window)
        for now in (1, window - 1, window, window + 1, 3 * window + 5, 60_000_001):
            width = min(window, now)
            if width <= 0:
                continue
            want = link.opportunity_bytes(now - width, now) * 8 * 1_000_000 / width
            assert view.capacity(now) == want

    def test_oracle_uses_nominal_rate_at_time_zero(self):
        view = OracleRateView(StepLink([(0, 12e6), (1_000_000, 24e6)]))
        assert view.capacity(0) == 12e6

    def test_oracle_shrinks_window_early_in_run(self):
        view = OracleRateView(FixedLink(24e6), window_us=20_000)
        assert view.capacity(1_000) == pytest.approx(24e6)

    def test_oracle_averages_across_step(self):
        view = OracleRateView(StepLink([(0, 12e6), (1_000_000, 24e6)]),
                              window_us=20_000)
        # Window straddles the step halfway: mean of 12 and 24 Mbit/s.
        assert view.capacity(1_010_000) == pytest.approx(18e6)

    def test_oracle_rejects_bad_window(self):
        with pytest.raises(ValueError):
            OracleRateView(FixedLink(24e6), window_us=0)
