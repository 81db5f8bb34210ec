"""The compiled canonical encoder against the verbatim seed encoder.

``repro.harness.seed_reference.seed_canonical`` is the seed's encoder, kept
unchanged as the reference.  Whatever the current encoder does to be fast
-- exact-type dispatch, per-dataclass plans, encodings kept on frozen
instances -- its output must stay byte-identical, or every signature and
MAC in the goldens would change.
"""

import dataclasses
from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.authenticators import registered_classes
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    _canonical,
    digest_of,
)
from repro.harness.seed_reference import seed_canonical, seed_digest_of
from repro.protocols.registry import PROTOCOL_BUILDERS
from repro.protocols.xpaxos.messages import FastCommit
from repro.smr.log import CommitEntry
from repro.smr.messages import Batch, Request

KEYSTORE = KeyStore()

principals = st.sampled_from(["r0", "r1", "r12", "c0", "c7"])
digests = st.binary(min_size=0, max_size=40).map(Digest)
signatures = st.builds(KEYSTORE.sign_digest, principals, digests)
macs = st.builds(KEYSTORE.mac_digest, principals, principals, digests)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=24),
    digests,
    signatures,
    macs,
)

# Dict keys must be hashable; the encoder sorts items by encoded key.
keys = st.one_of(st.integers(), st.text(max_size=6), st.binary(max_size=6),
                 st.booleans(), st.none())

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=20,
)


@dataclasses.dataclass(frozen=True)
class FrozenEnvelope:
    """A frozen dataclass: its instances keep their encoding."""

    tag: str
    body: Any
    extra: Optional[Any] = None


@dataclasses.dataclass
class MutableEnvelope:
    """A plain dataclass: planned, never memoized."""

    body: Any


@dataclasses.dataclass(frozen=True)
class Empty:
    """No fields at all."""


@dataclasses.dataclass(frozen=True)
class DigestSubclass(Digest):
    """A dataclass that is also a Digest encodes as a Digest."""


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_random_nestings_match_seed_encoder(payload):
    assert _canonical(payload) == seed_canonical(payload)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=8), payloads, payloads)
def test_dataclasses_around_random_payloads_match_seed_encoder(tag, a, b):
    inner = FrozenEnvelope(tag, a)
    for obj in (inner, MutableEnvelope(b), FrozenEnvelope(tag, (inner, b),
                                                          inner)):
        assert _canonical(obj) == seed_canonical(obj)
        # Second pass: frozen instances now answer from the kept encoding.
        assert _canonical(obj) == seed_canonical(obj)


def test_corner_case_dataclasses_match_seed_encoder():
    for obj in (Empty(), DigestSubclass(b"\x05" * 32), MutableEnvelope(None)):
        assert _canonical(obj) == seed_canonical(obj)


def test_percent_in_class_name_is_not_a_format_directive():
    odd = dataclasses.make_dataclass("Odd%bName", [("value", int)],
                                     frozen=True)
    assert _canonical(odd(7)) == seed_canonical(odd(7))


def _sample_values():
    """One value of every kind a wire message holds, nested messages
    included, handed out round-robin to the fields of each class."""
    sig = KEYSTORE.sign("r1", ("sample", 1))
    request = Request.signed(("put", "k", b"v" * 8), 3, 2, 64,
                             lambda body: KEYSTORE.sign("c2", body))
    batch = Batch((request, Request(op=("get", "k"), timestamp=4, client=1)))
    digest = digest_of(("sample", 2))
    fast = FastCommit(0, 5, digest, digest, sig)
    entry = CommitEntry(5, 0, batch, (sig, sig))
    return [7, "text", b"\x01\x02", None, True, 2.5, digest, sig,
            KEYSTORE.mac("r0", "c2", ("sample", 3)), request, batch, fast,
            ((5, entry),), (sig, digest), {"k": (1, b"v")}]


def test_one_instance_of_every_registered_class_matches_seed_encoder():
    values = _sample_values()
    # Importing the five protocols' builders registered their classes.
    assert len(PROTOCOL_BUILDERS) == 5
    classes = [cls for cls in registered_classes()
               if cls.__module__.startswith("repro.")]
    assert len(classes) >= 40
    cursor = 0
    for cls in classes:
        fields = dataclasses.fields(cls)
        args = [values[(cursor + i) % len(values)]
                for i in range(len(fields))]
        cursor += len(fields)
        message = cls(*args)
        assert _canonical(message) == seed_canonical(message), cls
        assert digest_of(message).value == seed_digest_of(message).value
