"""Tests for the crypto CPU cost model and meter."""

import pytest

from repro.crypto.costs import CostModel, CpuMeter


class TestCostModel:
    def test_defaults_reflect_rsa_vs_hmac_gap(self):
        model = CostModel()
        # The whole point of Figure 8: signing is orders of magnitude more
        # expensive than MACs.
        assert model.sign_cost() > 100 * model.mac_cost(1024)

    def test_mac_cost_scales_with_size(self):
        model = CostModel()
        assert model.mac_cost(4096) > model.mac_cost(1024)

    def test_digest_cost_scales_with_size(self):
        model = CostModel()
        assert model.digest_cost(4096) > model.digest_cost(0)

    def test_free_model_is_zero(self):
        model = CostModel.free()
        assert model.sign_cost() == 0
        assert model.verify_cost() == 0
        assert model.mac_cost(10_000) == 0
        assert model.digest_cost(10_000) == 0


class TestCpuMeter:
    def test_accumulates(self):
        meter = CpuMeter(CostModel())
        meter.charge_sign()
        meter.charge_sign()
        meter.charge_verify()
        assert meter.busy_us == \
            2 * CostModel().sign_us + CostModel().verify_us

    def test_utilisation_percent(self):
        meter = CpuMeter(CostModel())
        # 8000 us busy over 1 ms elapsed = 800% of one core = all 8 cores.
        meter.charge(8_000.0)
        assert meter.utilisation_percent(1.0) == pytest.approx(800.0)

    def test_utilisation_capped_at_core_count(self):
        meter = CpuMeter(CostModel(cores=4))
        meter.charge(1e9)
        assert meter.utilisation_percent(1.0) == 400.0

    def test_utilisation_zero_for_zero_elapsed(self):
        meter = CpuMeter(CostModel())
        meter.charge_sign()
        assert meter.utilisation_percent(0.0) == 0.0

    def test_utilisation_over_measured_window(self):
        # busy_since_us subtracts warmup-time work: 3000 us accumulated in
        # warmup, 2000 us in a 1 ms measured window -> 200%.
        meter = CpuMeter(CostModel())
        meter.charge(3_000.0)
        mark = meter.busy_us
        meter.charge(2_000.0)
        assert meter.utilisation_percent(
            1.0, busy_since_us=mark) == pytest.approx(200.0)

    def test_charge_macs_matches_repeated_charge_mac(self):
        bulk = CpuMeter(CostModel())
        loop = CpuMeter(CostModel())
        bulk.charge_macs(7, 1024)
        for _ in range(7):
            loop.charge_mac(1024)
        assert bulk.busy_us == pytest.approx(loop.busy_us)

    def test_negative_charge_rejected(self):
        meter = CpuMeter(CostModel())
        with pytest.raises(ValueError):
            meter.charge(-1.0)
