"""Tests for deterministic random-stream derivation."""

from repro.common.rng import derive_seed, stream


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_path_sensitivity(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_root_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_streams_are_independent(self):
        a = stream(7, "latency")
        b = stream(7, "faults")
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_stream_replayable(self):
        first = [stream(7, "x").random() for _ in range(1)][0]
        second = stream(7, "x").random()
        assert first == second
