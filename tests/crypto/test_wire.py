"""``wire``: wire messages laid out in slots, without instance dicts.

Every class registered with an authenticator policy, plus the classes
that travel inside them (``Digest``, ``Request``, ``Batch``,
``PrepareEntry``, ``CommitEntry``, ``CheckpointProof``), is laid out by
``repro.crypto.primitives.wire``: a slot per field, per derived value and
for the kept encoding, and the ``__init__`` it generates.  Everything but
the layout and the build must stay the frozen dataclass's own: each class
below is checked for its fields in order, defaults, ``__post_init__``,
equality, hashing, ``FrozenInstanceError`` on assignment,
``dataclasses.replace`` and a pickle round-trip.
"""

import dataclasses
import pickle

import pytest

from repro.crypto.authenticators import POLICIES
from repro.crypto.primitives import Digest, KeyStore, wire
from repro.protocols.registry import PROTOCOL_BUILDERS
from repro.protocols.xpaxos.messages import CheckpointProof
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request

assert len(PROTOCOL_BUILDERS) == 5  # every protocol's classes registered

NESTED = (Digest, Request, Batch, PrepareEntry, CommitEntry,
          CheckpointProof)
CLASSES = sorted(
    {cls for cls in POLICIES
     if cls.__module__.startswith("repro.")} | set(NESTED),
    key=lambda cls: (cls.__module__, cls.__qualname__))

SIGNATURE = KeyStore().sign_digest("r0", Digest(b"s" * 32))
#: Hashable, picklable field values, cycled over a class's fields.
SAMPLES = (7, "text", b"\x01\x02", (1, ("a", b"b")), Digest(b"d" * 32),
           SIGNATURE, 2.5, None)


def sample_args(cls, shift=0):
    """Positional arguments for every field of ``cls``."""
    args = []
    for i, field in enumerate(dataclasses.fields(cls)):
        if cls is Batch:
            value = (Request("op", 1 + shift, 3, 64 + shift),)
        elif cls is Digest:
            value = bytes([shift]) * 32
        else:
            value = SAMPLES[(i + shift) % len(SAMPLES)]
        args.append(value)
    return args


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
class TestEveryWireClass:
    def test_laid_out_by_wire(self, cls):
        assert cls.__init__.__code__.co_filename.startswith("<wire ")
        assert wire(cls) is cls  # idempotent
        assert not hasattr(cls(*sample_args(cls)), "__dict__")

    def test_fields_stored_in_order(self, cls):
        args = sample_args(cls)
        message = cls(*args)
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(cls.__slots__)[:len(names)] == names
        assert [getattr(message, name) for name in names] == args
        assert cls(**dict(zip(names, args))) == message

    def test_defaults_are_the_dataclass_defaults(self, cls):
        required = [f for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING]
        message = cls(*sample_args(cls)[:len(required)])
        for field in dataclasses.fields(cls)[len(required):]:
            assert getattr(message, field.name) is field.default
        with pytest.raises(TypeError):
            cls(*sample_args(cls), "one too many")
        if required:
            with pytest.raises(TypeError):
                cls()

    def test_assignment_still_raises(self, cls):
        message = cls(*sample_args(cls))
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(message, field.name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.extra = 1

    def test_equality_and_hash_by_value(self, cls):
        one, two = cls(*sample_args(cls)), cls(*sample_args(cls))
        other = cls(*sample_args(cls, shift=1))
        assert one == two and one is not two
        assert hash(one) == hash(two)
        assert one != other
        assert repr(one) == repr(two)

    def test_replace(self, cls):
        message = cls(*sample_args(cls))
        first = dataclasses.fields(cls)[0].name
        changed = sample_args(cls, shift=1)[0]
        replaced = dataclasses.replace(message, **{first: changed})
        assert getattr(replaced, first) == changed
        assert replaced == cls(changed, *sample_args(cls)[1:])

    def test_pickle_round_trip(self, cls):
        message = cls(*sample_args(cls))
        copy = pickle.loads(pickle.dumps(message))
        assert copy == message and type(copy) is cls
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, dataclasses.fields(cls)[0].name, 0)


class TestPostInit:
    def test_request_derives_its_rid(self):
        request = Request("op", 5, 2, 64)
        assert request.rid == (2, 5)
        assert dataclasses.replace(request, timestamp=6).rid == (2, 6)
        assert pickle.loads(pickle.dumps(request)).rid == (2, 5)

    def test_batch_derives_its_size_and_refuses_empty(self):
        batch = Batch((Request("a", 1, 0, 64), Request("b", 1, 1, 32)))
        assert batch.size_bytes == 96
        assert "size_bytes" not in {f.name for f in dataclasses.fields(Batch)}
        smaller = dataclasses.replace(batch, requests=batch.requests[:1])
        assert smaller.size_bytes == 64
        with pytest.raises(ValueError):
            Batch(())
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.size_bytes = 0


class TestWhatItRefuses:
    def test_non_frozen_and_plain_classes_are_refused(self):
        @dataclasses.dataclass
        class Mutable:
            x: int

        class Plain:
            def __init__(self, x):
                self.x = x

        for cls in (Mutable, Plain):
            with pytest.raises(TypeError, match=cls.__name__):
                wire(cls)

    def test_field_shapes_it_cannot_build_are_refused(self):
        @dataclasses.dataclass(frozen=True)
        class WithFactory:
            xs: tuple = dataclasses.field(default_factory=tuple)

        with pytest.raises(TypeError, match="xs"):
            wire(WithFactory)

    def test_a_base_with_an_instance_dict_is_refused(self):
        class Base:
            pass

        @dataclasses.dataclass(frozen=True)
        class Child(Base):
            x: int

        with pytest.raises(TypeError, match="__slots__"):
            wire(Child)
