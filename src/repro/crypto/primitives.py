"""Digests, digital signatures and MACs for the simulated system.

Implementation notes
--------------------

* A :class:`Digest` is a real SHA-256 over a canonical encoding of the
  message payload, so content tampering is always detectable.
* A :class:`Signature` is *unforgeable by construction*: it can only be
  created through :meth:`KeyStore.sign`, which requires the signer's private
  capability.  Byzantine behaviour in the tests therefore has exactly the
  power the paper grants it -- replaying, withholding, equivocating with
  fresh signatures of its own, but never forging another machine's.
* Equality of signatures is value-based so they can sit inside frozen
  message dataclasses and travel through the network layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    fields,
    is_dataclass,
)
from operator import itemgetter
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Canonical principal name of machine ``p``: replicas are ``"r<i>"``,
#: clients ``"c<i>"``.
Principal = str


def replica_principal(replica_id: int) -> Principal:
    """Principal name of a replica."""
    return f"r{replica_id}"


def client_principal(client_id: int) -> Principal:
    """Principal name of a client."""
    return f"c{client_id}"


def _canonical(obj: Any) -> bytes:
    """Encode ``obj`` deterministically for hashing (the one encoder).

    Handles the payload types that appear inside protocol messages: scalars,
    bytes, tuples/lists, dicts, dataclasses, signatures and digests.

    The exact-type tests up front are the hot path: wire payloads are
    overwhelmingly tuples of ints/strs/bytes, and a sequence encodes its
    ``int``, ``bytes``, ``str`` and ``Digest`` elements inline, the way
    a dataclass plan encodes its fields (:func:`_compile_encoder`).  Every
    other class is dispatched through ``_ENCODERS`` on its exact type:
    ``Digest``, ``Signature``, ``Mac`` and ``None`` have fixed entries,
    and a dataclass gets a plan compiled on first sight.  Subclasses of
    the structural types (enums, named tuples), bools and dicts route
    through :func:`_canonical_general`.  All paths are byte-identical to
    the seed encoder (``tests/crypto/test_canonical_oracle.py``).
    """
    cls = obj.__class__
    if cls is tuple or cls is list:
        parts = bytearray()
        for item in obj:
            kind = item.__class__
            if kind is int:
                parts += b"i%d" % item
            elif kind is bytes:
                parts += b"b%d:%b" % (len(item), item)
            elif kind is str:
                data = item.encode()
                parts += b"s%d:%b" % (len(data), data)
            elif kind is Digest:
                parts += b"D" + item.value
            else:
                parts += _canonical(item)
        return b"l%d:%b" % (len(obj), parts)
    if cls is int:
        return b"i%d" % obj
    if cls is str:
        data = obj.encode()
        return b"s%d:%b" % (len(data), data)
    if cls is bytes:
        return b"b%d:%b" % (len(obj), obj)
    if cls is float:
        return b"f" + repr(obj).encode()
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        encoder = _compile_encoder(cls)
    return encoder(obj)


#: The public name of the one encoder, for code outside this module that
#: keeps an encoding it will hash later (``Request.body_encoding``).
canonical = _canonical


def _canonical_general(obj: Any) -> bytes:
    """Cold fallback: subclasses of the structural types, bools, dicts.

    Dataclasses never get here -- :func:`_compile_encoder` gives each
    its own plan -- unless they also subclass a structural type, in
    which case the structural encoding wins, as it always has.
    """
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"T" if obj else b"F"
    if isinstance(obj, int):
        return b"i" + str(obj).encode()
    if isinstance(obj, float):
        return b"f" + repr(obj).encode()
    if isinstance(obj, str):
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if isinstance(obj, bytes):
        return b"b" + str(len(obj)).encode() + b":" + obj
    if isinstance(obj, Digest):
        return b"D" + obj.value
    if isinstance(obj, Signature):
        return b"S" + _canonical((obj.signer, obj.digest.value))
    if isinstance(obj, Mac):
        return b"M" + _canonical((obj.sender, obj.receiver, obj.digest.value))
    if isinstance(obj, (tuple, list)):
        parts = b"".join(_canonical(x) for x in obj)
        return b"l" + str(len(obj)).encode() + b":" + parts
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: _canonical(kv[0]))
        parts = b"".join(_canonical(k) + _canonical(v) for k, v in items)
        return b"d" + str(len(obj)).encode() + b":" + parts
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


#: Writes one attribute of an instance, frozen or not: a derived value's
#: first read and a kept encoding (:func:`_compile_encoder`) store
#: through it.
_setattr = object.__setattr__

#: The slot where a wire instance keeps its canonical encoding.
_ENCODING_ATTR = "_canonical_encoding"


def _frozen(self: Any, name: str, *value: Any) -> None:
    """``__setattr__`` and ``__delattr__`` of every wire class."""
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _reduce(self: Any) -> Tuple[Any, ...]:
    """``__reduce__`` of every wire class: rebuild from the fields."""
    return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


def wire(cls: type, keep: bool = True) -> type:
    """Make ``cls``, written as annotated fields and methods, a frozen
    dataclass laid out as a wire class, and return it.

    A wire message is built per send, read by every handler and dropped
    at the next checkpoint, so its instances carry no dict: the class
    returned is a copy of ``cls`` (same name, bases, fields and methods)
    whose instances hold everything in ``__slots__``.
    ``dataclasses.dataclass`` runs once with nothing to generate, for
    the fields themselves (``fields``, ``replace`` and ``is_dataclass``
    read as for any frozen dataclass).  One plan -- those fields, the
    names in the class's ``derived_values`` and, if ``keep``, the kept
    canonical encoding -- then gives:

    * the layout: a slot per field, per derived value and for the
      encoding (:func:`digest_of`; ``keep`` is False only for a class
      with a fixed encoder, :class:`Digest`);
    * one compiled source (``<wire Cls>``) holding ``__init__``, the
      fields as parameters with their defaults, each stored through its
      slot's setter (the class's own ``__setattr__`` raises), the
      encoding slot set to None, then ``__post_init__`` if the class has
      one; and the frozen dataclass's ``__eq__`` (same class, equal
      field tuples), ``__hash__`` (of the field tuple) and ``__repr__``,
      each unless the class defines its own;
    * ``__getattr__``: a derived value's first read calls the method of
      the same name (on the class or a base) and fills the slot --
      derived values are computed from the instance's own fields and
      stay outside equality, hashing and the canonical encoding (one
      without a method is stored by ``__post_init__``, as
      ``Batch.size_bytes``).  A constructor takes no derived value: a
      value handed in could disagree with the fields.  A builder that
      computed one from the same fields a line earlier stores it right
      after construction through the slot's setter,
      ``Cls._set_<name>(instance, value)``, as ``Request.signed`` and
      ``Signed.signed`` do.

    A pickled copy is rebuilt from its fields and derives its values
    afresh (:func:`_reduce`); assignment and deletion raise
    ``FrozenInstanceError``.  Bases must not give instances a dict
    (``__slots__ = ()``), and the class must not be a dataclass already
    nor define ``__init__``; a subclass of a wire class that only
    changes class constants (Zab's ``NewEpoch``) is laid out anew, its
    inherited fields in slots of its own.  The encoder is compiled from
    the same fields on the first encode (:func:`_compile_encoder`).
    Applied by :func:`repro.crypto.authenticators.register` to every
    wire class, and as a decorator to the classes inside them;
    idempotent.
    """
    if cls.__dict__.get("__setattr__") is _frozen:
        return cls
    if "__dataclass_fields__" in cls.__dict__:
        raise TypeError(f"{cls.__name__} is a dataclass already; wire "
                        f"makes the frozen dataclass itself")
    if "__init__" in cls.__dict__:
        raise TypeError(f"wire generates the __init__ of {cls.__name__}; "
                        f"declare its fields instead")
    for base in cls.__bases__:
        if base.__dictoffset__:
            raise TypeError(f"{base.__name__} gives {cls.__name__} an "
                            f"instance dict; declare __slots__ = ()")
    # A subclass of a wire class says frozen, as its base does; anything
    # else skips the two methods dataclass would generate for it.
    dataclass(cls, init=False, repr=False, eq=False,
              frozen=is_dataclass(cls))
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True
    names: List[str] = []
    args: List[str] = []
    defaults: Dict[str, Any] = {}
    for f in fields(cls):
        if (not f.init or f.kw_only or f.default_factory is not MISSING
                or not (f.compare and f.repr) or f.hash is not None):
            raise TypeError(f"wire cannot build field {f.name} of "
                            f"{cls.__name__}")
        names.append(f.name)
        if f.default is MISSING:
            args.append(f.name)
        else:
            defaults[f"_default_{f.name}"] = f.default
            args.append(f"{f.name}=_default_{f.name}")
    derived = list(getattr(cls, "derived_values", ()))
    compute = {name: getattr(cls, name) for name in derived
               if callable(getattr(cls, name, None))}
    slots = names + derived + ([_ENCODING_ATTR] if keep else [])

    init = [f"    _set_{name}(self, {name})" for name in names]
    if keep:
        init.append(f"    _set_{_ENCODING_ATTR}(self, None)")
    if hasattr(cls, "__post_init__"):
        init.append("    self.__post_init__()")
    source = [f"def __init__(self, {', '.join(args)}):",
              *(init or ["    pass"])]
    own = cls.__dict__
    values = "".join(f"self.{name}, " for name in names)
    if "__eq__" not in own:
        others = "".join(f"other.{name}, " for name in names)
        source += ["def __eq__(self, other):",
                   "    if other.__class__ is self.__class__:",
                   f"        return ({values}) == ({others})",
                   "    return NotImplemented"]
    own_hash = own.get("__hash__", MISSING)
    if own_hash is MISSING or (own_hash is None and "__eq__" in own):
        source += ["def __hash__(self):", f"    return hash(({values}))"]
    if "__repr__" not in own:
        shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
        source += ["def __repr__(self):",
                   f'    return f"{{self.__class__.__qualname__}}({shown})"']
    scope = dict(defaults)
    exec(compile("\n".join(source) + "\n", f"<wire {cls.__qualname__}>",
                 "exec"), scope)

    namespace = {key: value for key, value in own.items()
                 if key not in slots and key not in ("__dict__",
                                                     "__weakref__")}
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        if method in scope:
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
            namespace[method] = scope[method]
    namespace["__slots__"] = tuple(slots)
    namespace["__setattr__"] = namespace["__delattr__"] = _frozen
    namespace["__reduce__"] = _reduce
    if compute:
        def __getattr__(self: Any, name: str) -> Any:
            fill = compute.get(name)
            if fill is None:
                raise AttributeError(f"{type(self).__name__!r} object "
                                     f"has no attribute {name!r}")
            value = fill(self)
            _setattr(self, name, value)
            return value

        namespace["__getattr__"] = __getattr__
    new = type(cls)(cls.__name__, cls.__bases__, namespace)
    new.__qualname__ = cls.__qualname__
    # The generated functions find their slot setters as globals; a
    # derived value's is also the class's _set_<name>.
    scope.update((f"_set_{name}", new.__dict__[name].__set__)
                 for name in slots)
    for name in derived:
        setattr(new, f"_set_{name}", scope[f"_set_{name}"])
    return new


class Digest:
    """SHA-256 digest of a canonically encoded payload (the paper's D(m))."""

    value: bytes

    def hex(self) -> str:
        """Hex form for logs and debugging."""
        return self.value.hex()

    def __repr__(self) -> str:
        return f"Digest({self.value.hex()[:12]})"

    # Hand-written equality/hash: digests are compared on every MAC and
    # signature verification, and the generated dataclass __eq__ builds a
    # field tuple per side per compare.  Value semantics are unchanged.
    def __eq__(self, other: Any) -> bool:
        if other.__class__ is Digest:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


#: A digest encodes by a fixed rule (``_ENCODERS``) and keeps nothing.
Digest = wire(Digest, keep=False)  # type: ignore[misc]

_sha256 = hashlib.sha256
#: Precedes every first object in :func:`digest_each`.
_NOTHING = object()

# Digest calls since process start, numbered: the kept-encoding
# branches of the compiled encoders note which call last reused and
# which last kept an encoding, and classify that call once.
# An encode outside any digest call (``canonical``) is charged to the
# call before it.
_calls = 0
_calls_hit = 0
_calls_stored = 0
_hit_call = -1
_store_call = -1


def digest_of(obj: Any) -> Digest:
    """Compute ``D(obj)`` over the canonical encoding.

    Every wire instance (:func:`wire`) met while encoding -- ``obj``
    itself or anything nested in it -- keeps its canonical encoding after
    the first time, so a ``FastCommit`` embedded in sixteen replies, a
    ``ViewChange`` inside every ``VC-FINAL`` set or a cached reply sent
    again is encoded once per object rather than once per digest.  The
    memo is never invalidated: messages are immutable by contract (lint
    rule A002 and the mutation-after-digest guard test).  Payloads whose
    digest is needed at several hops carry it themselves
    (``Request.body_digest``, ``Batch.bodies_digest``, the
    ``payload_digest`` of signed XPaxos messages) and never come back
    here.
    """
    global _calls
    _calls += 1
    cls = obj.__class__
    if cls is bytes:
        # Application results: no dispatch, nothing to keep.
        return Digest(_sha256(b"b%d:%b" % (len(obj), obj)).digest())
    encoder = _ENCODERS.get(cls)
    if encoder is None:  # a sequence, a scalar, or a class not seen yet
        return Digest(_sha256(_canonical(obj)).digest())
    return Digest(_sha256(encoder(obj)).digest())


def encoded_digest(obj: Any) -> Tuple[bytes, Digest]:
    """``digest_of(obj)`` and the encoding it hashed, for a caller that
    keeps the encoding for a later digest (one call, as ``digest_of``
    counts it; ``obj`` is a tuple or a scalar)."""
    global _calls
    _calls += 1
    encoding = _canonical(obj)
    return encoding, Digest(_sha256(encoding).digest())


def digest_of_parts(parts: List[bytes]) -> Digest:
    """``digest_of(tuple(items))`` given each item's canonical encoding,
    kept by the items themselves (one call, as ``digest_of`` counts
    it)."""
    global _calls
    _calls += 1
    return Digest(_sha256(b"l%d:%b" % (len(parts), b"".join(parts)))
                  .digest())


def digest_each(objs: Sequence[Any]) -> List[Digest]:
    """``[digest_of(obj) for obj in objs]``, hashing each run of one
    object once: a slot's results (the reply paths of
    ``repro.protocols``), where the null service answers every request
    of the slot with the same object.  Nothing is kept past the call."""
    digests: List[Digest] = []
    previous: Any = _NOTHING
    digest = None
    for obj in objs:
        if obj is not previous:
            previous, digest = obj, digest_of(obj)
        digests.append(digest)
    return digests


def digest_cache_stats() -> Dict[str, int]:
    """Digest calls by what the encoding memo did for them (``repro
    profile``, docs/profiling.md): ``hits`` reused at least one kept
    encoding, ``stores`` reused none but kept at least one new one,
    ``uncached`` did neither.  The three sum to the number of
    ``digest_of`` calls (:func:`encoded_digest` and
    :func:`digest_of_parts` count as such)."""
    return {
        "hits": _calls_hit,
        "stores": _calls_stored,
        "uncached": _calls - _calls_hit - _calls_stored,
    }


class Signature(tuple):
    """A digital signature ``<D(m)>_{sigma_p}`` by principal ``signer``.

    The private field ``_token`` is derived inside :class:`KeyStore` from the
    signer's secret; holding a Signature object with a valid token is proof
    the signer produced it.

    Implemented as a lean ``tuple`` subclass rather than a frozen
    dataclass: one is minted per sign/stamp on the fan-out hot path, and
    tuple construction and comparison run at C speed while keeping the
    same value semantics and immutability (``__slots__ = ()``).
    """

    __slots__ = ()

    def __new__(cls, signer: Principal, digest: Digest,
                _token: bytes) -> "Signature":
        return tuple.__new__(cls, (signer, digest, _token))

    signer = property(itemgetter(0))
    digest = property(itemgetter(1))
    _token = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Sig({self.signer},{self.digest.hex()[:8]})"


class Mac(tuple):
    """A message authentication code on the channel ``sender -> receiver``.

    Same lean tuple-subclass layout as :class:`Signature`: the transport
    mints one Mac per receiver per fan-out, so constructor cost is paid
    n times per multicast.
    """

    __slots__ = ()

    def __new__(cls, sender: Principal, receiver: Principal,
                digest: Digest, _token: bytes) -> "Mac":
        return tuple.__new__(cls, (sender, receiver, digest, _token))

    sender = property(itemgetter(0))
    receiver = property(itemgetter(1))
    digest = property(itemgetter(2))
    _token = property(itemgetter(3))

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Mac({self.sender}->{self.receiver},{self.digest.hex()[:8]})"


def _encode_signature(sig: Signature) -> bytes:
    signer = sig[0].encode()
    value = sig[1].value
    return b"Sl2:s%d:%bb%d:%b" % (len(signer), signer, len(value), value)


def _encode_mac(mac: Mac) -> bytes:
    sender = mac[0].encode()
    receiver = mac[1].encode()
    value = mac[2].value
    return b"Ml3:s%d:%bs%d:%bb%d:%b" % (len(sender), sender, len(receiver),
                                        receiver, len(value), value)


#: Exact class -> encoder, for everything off ``_canonical``'s inline
#: scalar/sequence tests.  Grows by one entry per class on first sight.
_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda obj: b"N",
    Digest: lambda obj: b"D" + obj.value,
    Signature: _encode_signature,
    Mac: _encode_mac,
}

#: Types whose subclasses encode structurally, dataclass or not
#: (``Signature`` and ``Mac`` are tuples).
_STRUCTURAL = (int, float, str, bytes, tuple, list, dict, Digest)

# One field of a compiled plan: the value's exact class picks an inline
# encoding, else its registered encoder, else ``_canonical``.
_FIELD_SOURCE = """\
    value = obj.{name}
    kind = value.__class__
    if kind is int:
        e{i} = b"i%d" % value
    elif kind is bytes:
        e{i} = b"b%d:%b" % (len(value), value)
    elif kind is Digest:
        e{i} = b"D" + value.value
    elif kind is str:
        e{i} = value.encode()
        e{i} = b"s%d:%b" % (len(e{i}), e{i})
    elif value is None:
        e{i} = b"N"
    else:
        encoder = _ENCODERS.get(kind)
        e{i} = _canonical(value) if encoder is None else encoder(value)
"""

# The kept-encoding branches: classify the current digest call once.
_HIT_SOURCE = """\
    encoding = obj._canonical_encoding
    if encoding is not None:
        if _hit_call != _calls:
            _hit_call = _calls
            _calls_hit += 1
            if _store_call == _calls:
                _calls_stored -= 1
        return encoding
"""
_STORE_SOURCE = """\
    _setattr(obj, "_canonical_encoding", encoding)
    if _store_call != _calls:
        _store_call = _calls
        if _hit_call != _calls:
            _calls_stored += 1
"""


def _plan_source(cls: type, function: str, keep: bool) -> str:
    """Source of a straight-line encoder for dataclass ``cls``: one
    bytes template holding the class name and every field name already
    encoded, filled with the fields' encodings -- no ``fields()`` call,
    no per-field call for the common value classes, no name encoding per
    instance.  ``keep``: the instance keeps its encoding (and reuses a
    kept one)."""
    names = [f.name for f in fields(cls)]
    # Field names are identifiers, so only the class name (which
    # ``type()`` lets be anything) can hold a stray ``%``.
    template = (b"c" + cls.__name__.encode().replace(b"%", b"%%")
                + b"".join(_canonical(name) + b"%b" for name in names))
    lines = [f"def {function}(obj):"]
    if keep:
        lines.append("    global _calls_hit, _calls_stored, _hit_call, "
                     "_store_call")
        lines.append(_HIT_SOURCE.rstrip("\n"))
    for i, name in enumerate(names):
        lines.append(_FIELD_SOURCE.format(name=name, i=i).rstrip("\n"))
    filled = "".join(f"e{i}, " for i in range(len(names)))
    lines.append(f"    encoding = {template!r} % ({filled})")
    if keep:
        lines.append(_STORE_SOURCE.rstrip("\n"))
    lines.append("    return encoding")
    return "\n".join(lines) + "\n"


def _compile_encoder(cls: type) -> Callable[[Any], bytes]:
    """Build, register and return the encoder for instances of ``cls``
    met inside an encoded value.

    A dataclass that is not also a structural type gets a generated
    plan (:func:`_plan_source`): ``<keep Cls>`` for a wire class, whose
    instances keep the result in their encoding slot (see :func:`wire`
    and :func:`digest_of`), else ``<encode Cls>``.  Its globals are this
    module's: the memo counters it bumps, and ``_canonical`` for the
    values it does not encode inline.  Everything else falls back to
    :func:`_canonical_general`.
    """
    if not is_dataclass(cls) or issubclass(cls, _STRUCTURAL):
        encoder = _canonical_general
    else:
        keep = _ENCODING_ATTR in cls.__dict__
        function = "keep" if keep else "encode"
        namespace: Dict[str, Any] = {}
        exec(compile(_plan_source(cls, function, keep),
                     f"<{function} {cls.__qualname__}>", "exec"),
             globals(), namespace)
        encoder = namespace[function]
    _ENCODERS[cls] = encoder
    return encoder


class _PrincipalKeys(dict):
    """principal -> ``prefix`` followed by the principal's name in bytes,
    built on first use: a token derivation looks its principals up here
    instead of encoding their names per token."""

    def __init__(self, prefix: bytes) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, principal: Principal) -> bytes:
        key = self[principal] = self.prefix + principal.encode()
        return key


class KeyStore:
    """The system-wide key infrastructure.

    The paper assumes every machine knows every other machine's public key
    (Section 4.2).  A single KeyStore per experiment plays the role of that
    PKI: ``sign``/``mac`` require the caller to *be* the principal (enforced
    by the protocol runtime, which only hands each node its own signing
    facade), and ``verify`` is available to everyone.

    The checks take what arrives off the wire: anything but an exact
    :class:`Signature` / :class:`Mac` holding a :class:`Digest` and
    principal names that are strings fails verification instead of
    raising.
    """

    def __init__(self, secret: bytes = b"xft-repro") -> None:
        self._secret = secret
        # Domain-separated token prefixes joined with each principal's
        # name once per keystore instead of once per token derivation:
        # a signature token hashes ``_sig_keys[signer] + digest``, a MAC
        # token ``_mac_keys[sender] + _names[receiver] + digest``.
        self._sig_keys = _PrincipalKeys(b"sig" + secret)
        self._mac_keys = _PrincipalKeys(b"mac" + secret)
        self._names = _PrincipalKeys(b"")

    # -- internal token derivations ------------------------------------
    # Single-shot hashing: SHA-256 over one concatenated buffer is
    # byte-identical to the equivalent sequence of h.update() calls, and
    # skips four C-call round trips per token on the fan-out hot path.
    # To skip a frame per stamp / check, two derivations are written out
    # twice; keep each pair in sync: the signature token here and in
    # ``verify_digest``, the MAC token in the transport's
    # ``MAC_VECTOR.stamp`` (the one way to make a MAC) and in
    # ``verify_mac_digest``.
    def _sig_token(self, signer: Principal, digest: Digest) -> bytes:
        return _sha256(self._sig_keys[signer] + digest.value).digest()

    # -- public API -----------------------------------------------------
    def sign(self, signer: Principal, payload: Any) -> Signature:
        """Sign ``payload`` as ``signer`` (requires the signer's identity)."""
        digest = digest_of(payload)
        return Signature(signer, digest, self._sig_token(signer, digest))

    def sign_digest(self, signer: Principal, digest: Digest) -> Signature:
        """Sign an already computed digest."""
        return Signature(signer, digest, self._sig_token(signer, digest))

    def verify(self, signature: Signature, payload: Any) -> bool:
        """Check that ``signature`` is a valid signature of ``payload``."""
        digest = digest_of(payload)
        return self.verify_digest(signature, digest)

    def verify_digest(self, signature: Signature, digest: Digest) -> bool:
        """Check ``signature`` against a digest."""
        if signature.__class__ is not Signature:
            return False
        signer, sig_digest, token = signature
        if sig_digest.__class__ is not Digest or signer.__class__ is not str:
            return False
        return (
            sig_digest.value == digest.value
            and token == _sha256(
                self._sig_keys[signer] + digest.value).digest()
        )

    def verify_mac(self, mac: Mac, payload: Any) -> bool:
        """Check a MAC against a payload (a delivery that bypassed the
        transport, which hands receivers the digest instead)."""
        return self.verify_mac_digest(mac, digest_of(payload))

    def verify_mac_digest(self, mac: Mac, digest: Digest) -> bool:
        """Check a MAC against an already computed payload digest.

        The delivery-time fast path: the transport hashes a fan-out's
        body once and hands the digest to each receiver, which then only
        derives the channel token instead of re-hashing the payload.
        """
        if mac.__class__ is not Mac:
            return False
        sender, receiver, mac_digest, token = mac
        if (mac_digest.__class__ is not Digest
                or sender.__class__ is not str
                or receiver.__class__ is not str):
            return False
        return (
            mac_digest.value == digest.value
            and token == _sha256(self._mac_keys[sender]
                                 + self._names[receiver]
                                 + digest.value).digest()
        )

    def forge_attempt(self, forger: Principal, victim: Principal,
                      payload: Any) -> Signature:
        """Produce the *invalid* signature a Byzantine ``forger`` would get
        when trying to sign as ``victim``.

        The token is derived from the forger's own key, so verification
        against ``victim`` always fails.  Used by the adversary models in the
        test suite to demonstrate unforgeability.
        """
        digest = digest_of(payload)
        return Signature(victim, digest, self._sig_token(forger, digest))
