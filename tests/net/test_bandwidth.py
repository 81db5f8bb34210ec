"""Tests for the uplink bandwidth model."""

import pytest

from repro.net.bandwidth import BandwidthModel


class TestSerialization:
    def test_departure_time_scales_with_size(self):
        bw = BandwidthModel(default_rate=1000.0)  # 1000 bytes/ms
        assert bw.serialize("n", 500, now=0.0) == pytest.approx(0.5)

    def test_zero_size_departs_immediately(self):
        bw = BandwidthModel(default_rate=1000.0)
        assert bw.serialize("n", 0, now=5.0) == 5.0

    def test_queueing_behind_previous_message(self):
        bw = BandwidthModel(default_rate=1000.0)
        first = bw.serialize("n", 1000, now=0.0)   # departs at 1.0
        second = bw.serialize("n", 1000, now=0.0)  # queues behind
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_uplink_does_not_queue(self):
        bw = BandwidthModel(default_rate=1000.0)
        bw.serialize("n", 1000, now=0.0)
        late = bw.serialize("n", 1000, now=10.0)
        assert late == pytest.approx(11.0)

    def test_per_node_isolation(self):
        bw = BandwidthModel(default_rate=1000.0)
        bw.serialize("a", 100_000, now=0.0)
        assert bw.serialize("b", 1000, now=0.0) == pytest.approx(1.0)

    def test_negative_size_rejected(self):
        bw = BandwidthModel()
        with pytest.raises(ValueError):
            bw.serialize("n", -1, now=0.0)


class TestRates:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthModel(default_rate=0.0)


class TestAccounting:
    def test_bytes_sent_accumulates(self):
        bw = BandwidthModel()
        bw.serialize("n", 100, now=0.0)
        bw.serialize("n", 200, now=0.0)
        assert bw.bytes_sent("n") == 300

    def test_backlog(self):
        bw = BandwidthModel(default_rate=100.0)
        bw.serialize("n", 1000, now=0.0)  # busy until t=10
        assert bw.backlog_ms("n", now=4.0) == pytest.approx(6.0)
        assert bw.backlog_ms("n", now=20.0) == 0.0

    def test_reset_clears_counters(self):
        bw = BandwidthModel()
        bw.serialize("n", 100, now=0.0)
        bw.reset()
        assert bw.bytes_sent("n") == 0

    def test_reset_clears_booked_uplink_time(self):
        # Regression: reset() used to leave free_at booked, so post-warmup
        # sends inherited the warmup backlog.
        bw = BandwidthModel(default_rate=100.0)
        bw.serialize("n", 10_000, now=0.0)  # uplink busy until t=100
        assert bw.backlog_ms("n", now=0.0) == pytest.approx(100.0)
        bw.reset()
        assert bw.backlog_ms("n", now=0.0) == 0.0
        # A fresh send right after reset departs with no inherited queueing.
        assert bw.serialize("n", 100, now=0.0) == pytest.approx(1.0)
