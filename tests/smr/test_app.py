"""Tests for the replicated applications."""

import pytest
from hypothesis import given, strategies as st

from repro.smr.app import KVStore, NullService


class TestNullService:
    def test_reply_size(self):
        service = NullService(reply_size=16)
        assert service.execute("anything") == b"\x00" * 16

    def test_zero_reply(self):
        assert NullService().execute(1) == b""

    def test_negative_reply_size_rejected(self):
        with pytest.raises(ValueError):
            NullService(reply_size=-1)

    def test_digest_tracks_order(self):
        a, b = NullService(), NullService()
        a.execute(1)
        a.execute(2)
        b.execute(2)
        b.execute(1)
        assert a.state_digest() != b.state_digest()

    def test_digest_equal_for_equal_histories(self):
        a, b = NullService(), NullService()
        for op in (1, "x", None):
            a.execute(op)
            b.execute(op)
        assert a.state_digest() == b.state_digest()

    def test_snapshot_restore_preserves_count(self):
        service = NullService()
        for i in range(5):
            service.execute(i)
        snapshot = service.snapshot()
        other = NullService()
        other.restore(snapshot)
        assert other.snapshot()[0] == 5


class TestKVStore:
    def test_put_get(self):
        kv = KVStore()
        assert kv.execute(("put", "k", "v")) is None
        assert kv.execute(("get", "k")) == "v"

    def test_put_returns_previous(self):
        kv = KVStore()
        kv.execute(("put", "k", "v1"))
        assert kv.execute(("put", "k", "v2")) == "v1"

    def test_delete(self):
        kv = KVStore()
        kv.execute(("put", "k", "v"))
        assert kv.execute(("delete", "k")) == "v"
        assert kv.execute(("get", "k")) is None

    def test_delete_missing_returns_none(self):
        assert KVStore().execute(("delete", "nope")) is None

    def test_cas_success_and_failure(self):
        kv = KVStore()
        kv.execute(("put", "k", "a"))
        assert kv.execute(("cas", "k", "a", "b")) is True
        assert kv.execute(("cas", "k", "a", "c")) is False
        assert kv.execute(("get", "k")) == "b"

    def test_malformed_op_raises(self):
        with pytest.raises(ValueError):
            KVStore().execute("not-a-tuple")
        with pytest.raises(ValueError):
            KVStore().execute(("unknown", "k"))

    def test_digest_reflects_content(self):
        a, b = KVStore(), KVStore()
        a.execute(("put", "k", 1))
        b.execute(("put", "k", 2))
        assert a.state_digest() != b.state_digest()

    def test_snapshot_restore_roundtrip(self):
        kv = KVStore()
        kv.execute(("put", "x", 1))
        kv.execute(("put", "y", [1, 2]))
        clone = KVStore()
        clone.restore(kv.snapshot())
        assert clone.state_digest() == kv.state_digest()
        assert clone.get("y") == [1, 2]

    def test_snapshot_is_isolated(self):
        kv = KVStore()
        kv.execute(("put", "x", 1))
        snapshot = kv.snapshot()
        kv.execute(("put", "x", 2))
        clone = KVStore()
        clone.restore(snapshot)
        assert clone.get("x") == 1

    @given(st.lists(st.tuples(st.sampled_from(["put", "delete"]),
                              st.sampled_from(["a", "b", "c"]),
                              st.integers(0, 5)),
                    max_size=30))
    def test_determinism_property(self, script):
        """Two stores fed the same operations end in the same state."""
        a, b = KVStore(), KVStore()
        for verb, key, value in script:
            op = ("put", key, value) if verb == "put" else ("delete", key)
            assert a.execute(op) == b.execute(op)
        assert a.state_digest() == b.state_digest()
