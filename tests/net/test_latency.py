"""Tests for the Table 3 latency model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.net.latency import (
    EC2_SITES,
    EC2_TABLE3,
    INTRA_SITE_MS,
    LatencyModel,
    LinkStats,
)


class TestLinkStats:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            LinkStats(avg_ms=100, p9999_ms=50, p99999_ms=200, max_ms=300)

    def test_valid_stats_accepted(self):
        stats = LinkStats(88, 1097, 82190, 166390)
        assert stats.avg_ms == 88


class TestTable3Data:
    def test_all_15_measured_pairs_present(self):
        measured = {frozenset(pair) for pair in EC2_TABLE3}
        assert len(measured) == 15  # C(6,2) pairs from the paper's table

    def test_symmetric(self):
        for (a, b), stats in EC2_TABLE3.items():
            assert EC2_TABLE3[(b, a)] == stats

    def test_paper_values_spot_checks(self):
        # First row of Table 3: VA-CA 88 / 1097 / 82190 / 166390.
        stats = EC2_TABLE3[("VA", "CA")]
        assert (stats.avg_ms, stats.p9999_ms, stats.p99999_ms,
                stats.max_ms) == (88, 1097, 82190, 166390)
        # JP-BR row: 394 / 2496 / 11399 / 94775.
        stats = EC2_TABLE3[("JP", "BR")]
        assert (stats.avg_ms, stats.p9999_ms) == (394, 2496)

    def test_9999_tail_under_2500ms_supports_delta_choice(self):
        # Section 5.1.1: RTT < 2.5 s at the 99.99th percentile for every
        # pair, which is why the paper picks Delta = 1.25 s.
        for stats in EC2_TABLE3.values():
            assert stats.p9999_ms < 2500


class TestLatencyModel:
    def test_ec2_model_covers_all_sites(self):
        model = LatencyModel.ec2()
        for a in EC2_SITES:
            for b in EC2_SITES:
                if a != b:
                    assert model.mean_one_way(a, b) > 0

    def test_same_site_is_intra_site(self):
        model = LatencyModel.ec2()
        assert model.mean_one_way("CA", "CA") == INTRA_SITE_MS

    @pytest.mark.parametrize("site", EC2_SITES)
    def test_every_site_is_intra_site_to_itself(self, site):
        """Mean, independent sample and windowed sample alike."""
        model = LatencyModel.ec2(seed=1)
        assert model.mean_one_way(site, site) == INTRA_SITE_MS
        assert model.sample_one_way(site, site) == INTRA_SITE_MS
        assert model.sample_one_way(site, site, now=10.0) == INTRA_SITE_MS
        assert model.stats(site, site) is None

    def test_flat_tail_samples_the_median(self):
        """A link whose 99.99th percentile equals its average fits a
        zero-spread log-normal: every draw is the median."""
        flat = LinkStats(10.0, 10.0, 10.0, 10.0)
        model = LatencyModel({("A", "B"): flat, ("B", "A"): flat}, seed=4)
        assert not model.deterministic
        for now in (None, 0.0, 300.0):
            assert model.sample_one_way("A", "B", now=now) == \
                pytest.approx(5.0)

    def test_deterministic_mode_returns_median(self):
        model = LatencyModel.ec2(deterministic=True)
        assert model.sample_one_way("VA", "CA") == 44.0  # 88 / 2

    def test_samples_bounded_by_observed_max(self):
        model = LatencyModel.ec2(seed=7)
        ceiling = EC2_TABLE3[("VA", "CA")].max_ms / 2.0
        for _ in range(2000):
            assert 0 < model.sample_one_way("VA", "CA") <= ceiling

    def test_sample_median_tracks_table(self):
        model = LatencyModel.ec2(seed=3)
        samples = sorted(model.sample_one_way("EU", "JP")
                         for _ in range(4001))
        median = samples[len(samples) // 2]
        # Table 3: EU-JP average RTT 287 ms -> one-way median ~143.5 ms.
        assert median == pytest.approx(143.5, rel=0.10)

    def test_tail_heavier_than_median(self):
        model = LatencyModel.ec2(seed=5)
        samples = sorted(model.sample_one_way("VA", "CA")
                         for _ in range(5000))
        p999 = samples[int(0.999 * len(samples))]
        assert p999 > 2 * samples[len(samples) // 2]

    def test_unknown_link_raises(self):
        model = LatencyModel.uniform(["A", "B"])
        with pytest.raises(ConfigurationError):
            model.stats("A", "Z")

    def test_uniform_model(self):
        model = LatencyModel.uniform(["A", "B", "C"], one_way_ms=3.0)
        assert model.sample_one_way("A", "B") == 3.0
        assert model.sample_one_way("B", "C") == 3.0

    def test_rtt_trace_generation(self):
        model = LatencyModel.ec2(seed=11)
        trace = model.rtt_trace("VA", "CA", 100)
        assert len(trace) == 100
        assert all(rtt > 0 for rtt in trace)

    def test_determinism_under_seed(self):
        a = LatencyModel.ec2(seed=9)
        b = LatencyModel.ec2(seed=9)
        assert [a.sample_one_way("VA", "CA") for _ in range(50)] == \
            [b.sample_one_way("VA", "CA") for _ in range(50)]
