"""Tests for simulated signatures, MACs, and canonical digests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primitives import (
    KeyStore,
    Mac,
    client_principal,
    digest_of,
    replica_principal,
)
from tests.conftest import channel_mac


@pytest.fixture
def keystore():
    return KeyStore()


class TestDigest:
    def test_equal_payloads_equal_digests(self):
        assert digest_of(("a", 1, 2.5)) == digest_of(("a", 1, 2.5))

    def test_different_payloads_differ(self):
        assert digest_of(("a", 1)) != digest_of(("a", 2))

    def test_type_distinctions(self):
        # 1 and "1" and b"1" must hash differently.
        assert digest_of(1) != digest_of("1")
        assert digest_of("1") != digest_of(b"1")
        assert digest_of(True) != digest_of(1)

    def test_nested_structures(self):
        payload = {"k": [1, (2, 3)], "other": None}
        assert digest_of(payload) == digest_of(
            {"other": None, "k": [1, (2, 3)]})

    def test_list_vs_concatenation_ambiguity(self):
        # ["ab"] must differ from ["a", "b"].
        assert digest_of(["ab"]) != digest_of(["a", "b"])

    def test_dataclass_payloads(self):
        from repro.smr.messages import Request

        r1 = Request(op=1, timestamp=1, client=0)
        r2 = Request(op=1, timestamp=1, client=0)
        r3 = Request(op=2, timestamp=1, client=0)
        assert digest_of(r1) == digest_of(r2)
        assert digest_of(r1) != digest_of(r3)

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError):
            digest_of(object())

    @given(st.one_of(st.integers(), st.text(), st.binary(),
                     st.booleans(), st.none()))
    def test_digest_is_stable(self, payload):
        assert digest_of(payload) == digest_of(payload)


class TestSignatures:
    def test_sign_verify_roundtrip(self, keystore):
        sig = keystore.sign("r0", ("hello", 42))
        assert keystore.verify(sig, ("hello", 42))

    def test_verify_rejects_wrong_payload(self, keystore):
        sig = keystore.sign("r0", ("hello", 42))
        assert not keystore.verify(sig, ("hello", 43))

    def test_forgery_fails(self, keystore):
        forged = keystore.forge_attempt("r1", "r0", ("hello", 42))
        assert forged.signer == "r0"  # claims to be r0...
        assert not keystore.verify(forged, ("hello", 42))  # ...but fails

    def test_sign_digest_matches_sign(self, keystore):
        payload = ("x", 1)
        a = keystore.sign("r0", payload)
        b = keystore.sign_digest("r0", digest_of(payload))
        assert a == b

    def test_replayed_signature_still_verifies(self, keystore):
        # Byzantine nodes may replay signatures they saw; that must work
        # (the protocol defends via sequence/view numbers, not the crypto).
        sig = keystore.sign("r0", "msg")
        assert keystore.verify(sig, "msg")
        assert keystore.verify_digest(sig, digest_of("msg"))

    def test_distinct_keystores_are_distinct_pki(self):
        ks_a = KeyStore(secret=b"world-a")
        ks_b = KeyStore(secret=b"world-b")
        sig = ks_a.sign("r0", "msg")
        assert not ks_b.verify(sig, "msg")


class TestMacs:
    def test_mac_roundtrip(self, keystore):
        mac = channel_mac(keystore, "r0", "c1", ("reply", 7))
        assert keystore.verify_mac(mac, ("reply", 7))

    def test_mac_rejects_tampering(self, keystore):
        mac = channel_mac(keystore, "r0", "c1", ("reply", 7))
        assert not keystore.verify_mac(mac, ("reply", 8))

    def test_mac_binds_channel(self, keystore):
        mac_01 = channel_mac(keystore, "r0", "c1", "m")
        mac_02 = channel_mac(keystore, "r0", "c2", "m")
        assert mac_01 != mac_02

    @pytest.mark.parametrize("forge", [
        lambda m: Mac(m.sender, "c2", m.digest, m._token),
        lambda m: Mac("r1", m.receiver, m.digest, m._token),
        lambda m: Mac(m.sender, m.receiver, m.digest, bytes(len(m._token))),
    ], ids=["readdressed", "other-sender", "forged-token"])
    def test_mac_and_digest_checks_agree_on_forgeries(self, keystore, forge):
        # ``verify_mac`` (payload in hand) and ``verify_mac_digest`` (the
        # transport's digest) share one token derivation.
        payload = ("reply", 7)
        mac = channel_mac(keystore, "r0", "c1", payload)
        assert keystore.verify_mac_digest(mac, digest_of(payload))
        forged = forge(mac)
        assert not keystore.verify_mac(forged, payload)
        assert not keystore.verify_mac_digest(forged, digest_of(payload))


class TestPrincipals:
    def test_replica_and_client_namespaces_disjoint(self):
        assert replica_principal(3) != client_principal(3)

    def test_principal_format(self):
        assert replica_principal(0) == "r0"
        assert client_principal(12) == "c12"
