"""The compiled canonical encoder against the verbatim seed encoder.

``repro.harness.seed_reference.seed_canonical`` is the seed's encoder, kept
unchanged as the reference.  Whatever the current encoder does to be fast
-- exact-type dispatch, per-dataclass plans, encodings kept on frozen
instances -- its output must stay byte-identical, or every signature and
MAC in the goldens would change.

The generated per-dataclass plans encode ``int``, ``bytes``, ``str`` and
``Digest`` field values inline, picked by each value's exact class at run
time.  So every registered wire class and the five classes that travel
inside them are encoded with each field in turn set to a value that only
looks like one of those (a ``bool``, an ``IntEnum``, a ``Digest``
subclass, an int past 64 bits, ...), and one class is encoded with
different value types in two instances.
"""

import dataclasses
import enum
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.authenticators import MAC_VECTOR, POLICIES
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    _canonical,
    digest_of,
    wire,
)
from repro.harness.seed_reference import seed_canonical, seed_digest_of
from repro.protocols import paxos, pbft, xpaxos, zab, zyzzyva
from repro.protocols.xpaxos.messages import FastCommit
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request
from tests.conftest import channel_mac

#: Importing the five protocol packages registered their wire classes.
PROTOCOLS = (paxos, pbft, xpaxos, zab, zyzzyva)

KEYSTORE = KeyStore()

principals = st.sampled_from(["r0", "r1", "r12", "c0", "c7"])
digests = st.binary(min_size=0, max_size=40).map(Digest)
signatures = st.builds(KEYSTORE.sign_digest, principals, digests)
macs = st.builds(MAC_VECTOR.stamp, st.just(KEYSTORE), principals, principals,
                 digests)

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


@wire
class FrozenEnvelope:
    """A wire class: its instances keep their encoding."""

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
                             lambda digest: KEYSTORE.sign_digest("c2", digest))
    batch = Batch((request, Request(op=("get", "k"), timestamp=4, client=1)))
    digest = digest_of(("sample", 2))
    fast = FastCommit(0, 5, digest, digest, sig)
    entry = CommitEntry(5, 0, batch, (sig, sig))
    return [7, "text", b"\x01\x02", None, True, 2.5, digest, sig,
            channel_mac(KEYSTORE, "r0", "c2", ("sample", 3)), request, batch,
            fast,
            ((5, entry),), (sig, digest), {"k": (1, b"v")}]


def test_one_instance_of_every_registered_class_matches_seed_encoder():
    values = _sample_values()
    classes = [cls for cls in POLICIES
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


# -- the generated plans, field by field ---------------------------------

class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class OtherDigest(Digest):
    """A Digest subclass: encodes as a Digest, off the inline path."""


#: Values a plan must not take for the ``int`` / ``bytes`` / ``str`` /
#: ``Digest`` it encodes inline: each goes the general way, or inline
#: with the same bytes.
AWKWARD = [
    True,
    False,
    Level.HIGH,
    OtherDigest(b"\x09" * 32),
    None,
    "héllo ✓ \U0001f600",
    [1, [b"x", "y", (2, None)], ()],
    2 ** 64 + 5,
    -17,
    -(2 ** 70),
]

NESTED_CLASSES = (Digest, Request, Batch, PrepareEntry, CommitEntry)


def _wire_and_nested_classes():
    classes = {cls for cls in POLICIES
               if cls.__module__.startswith("repro.")}
    return sorted(classes | set(NESTED_CLASSES),
                  key=lambda cls: (cls.__module__, cls.__qualname__))


def _same_encoding(obj):
    """``_canonical(obj)`` is the seed's bytes, or both raise alike."""
    try:
        expected = seed_canonical(obj)
    except Exception as error:  # noqa: BLE001 -- compared below
        with pytest.raises(type(error)):
            _canonical(obj)
        return False
    assert _canonical(obj) == expected, obj
    # A frozen instance now answers from its kept encoding.
    assert _canonical(obj) == expected, obj
    return True


def test_every_field_of_every_class_takes_awkward_values():
    values = _sample_values()
    encoded = 0
    for cls in _wire_and_nested_classes():
        names = [f.name for f in dataclasses.fields(cls)]
        base = [values[i % len(values)] for i in range(len(names))]
        for index in range(len(names)):
            for awkward in AWKWARD:
                args = list(base)
                args[index] = awkward
                try:
                    obj = cls(*args)
                except (TypeError, ValueError, AttributeError):
                    continue  # a constructor that refuses the value
                encoded += _same_encoding(obj)
    assert encoded > 1000


def test_one_class_two_instances_with_different_value_types():
    """The plan switches on each value's class at run time: encoding an
    instance with an ``int`` in a field first must not fix the field's
    encoding for the next instance of the class."""
    digest = Digest(b"\x01" * 32)
    sig = KEYSTORE.sign("r1", ("sample", 1))
    kinds = [7, b"bytes", "text", digest, None, True, Level.LOW,
             OtherDigest(b"\x02" * 32), (1, "two"), 2 ** 65, -3, 2.5]
    for first in kinds:
        for second in kinds:
            pair = [FastCommit(first, 5, digest, digest, sig),
                    FastCommit(second, 5, digest, digest, sig)]
            for message in pair:
                assert _canonical(message) == seed_canonical(message)
                assert digest_of(message).value == \
                    seed_digest_of(message).value
