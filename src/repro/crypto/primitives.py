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
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import wraps
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Tuple

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
    overwhelmingly tuples of ints/strs/bytes.  Every other class is
    dispatched through ``_ENCODERS`` on its exact type: ``Digest``,
    ``Signature``, ``Mac`` and ``None`` have fixed entries, and
    a dataclass gets a plan compiled on first sight
    (:func:`_compile_encoder`).  Subclasses of the structural types
    (enums, named tuples), bools and dicts route through
    :func:`_canonical_general`.  All paths are byte-identical to the
    seed encoder (``tests/crypto/test_canonical_oracle.py``).
    """
    cls = obj.__class__
    if cls is tuple or cls is list:
        parts = b"".join(map(_canonical, obj))
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


def direct_init(cls: type) -> type:
    """Give frozen dataclass ``cls`` an ``__init__`` that writes its
    instance dict directly; returns ``cls``.

    A frozen dataclass's generated ``__init__`` stores every field
    through ``object.__setattr__``, because its own ``__setattr__``
    raises.  A wire message is built per send, and those per-field calls
    were most of what building one cost.  The method installed here
    takes the same parameters with the same defaults, stores the fields
    in declaration order and then runs ``__post_init__``, if the class
    has one.  Everything else stays the dataclass's own: ``__eq__``,
    ``__hash__``, ``__repr__``, ``dataclasses.replace``, pickling, and
    ``FrozenInstanceError`` on assignment.

    This is the one place instance dicts are written: lint rule A002
    flags ``x.__dict__[...] = ...`` and ``vars(x)[...] = ...`` anywhere
    else.  Applied by :func:`repro.crypto.authenticators.register` to
    every wire class, and as a decorator to the classes that travel
    inside them.  Classes that are not frozen dataclasses with an
    instance dict are returned unchanged; idempotent.
    """
    if (not is_dataclass(cls) or not cls.__dataclass_params__.frozen
            or not cls.__dictoffset__
            or getattr(cls.__init__, "__direct_init__", False)):
        return cls
    params: List[str] = []
    body = ["    store = self.__dict__"]
    defaults: Dict[str, Any] = {}
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"direct_init cannot build field {f.name} of "
                            f"{cls.__name__}")
        if f.default is MISSING:
            params.append(f.name)
        else:
            defaults[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    store[{f.name!r}] = {f.name}")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = (f"def __init__(self, {', '.join(params)}):\n"
              + "\n".join(body) + "\n")
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<direct_init {cls.__qualname__}>", "exec"),
         defaults, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__direct_init__ = True
    cls.__init__ = init
    return cls


@direct_init
@dataclass(frozen=True)
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


_sha256 = hashlib.sha256

#: Where a frozen dataclass instance keeps its canonical encoding.
_ENCODING_ATTR = "_canonical_encoding"

# Memo events since process start, bumped by the compiled dataclass
# encoders; ``digest_of`` reads them around each encode to classify the
# call for ``digest_cache_stats``.
_memo_hits = 0
_memo_stores = 0

_calls_hit = 0
_calls_stored = 0
_calls_uncached = 0


def digest_of(obj: Any) -> Digest:
    """Compute ``D(obj)`` over the canonical encoding.

    Every frozen dataclass instance met while encoding -- ``obj`` itself
    or anything nested in it -- keeps its canonical encoding after the
    first time, so a ``FastCommit`` embedded in sixteen replies or a
    ``ViewChange`` inside every ``VC-FINAL`` set is encoded once per
    object rather than once per enclosing digest.  The memo is never
    invalidated: messages are immutable by contract (lint rule A002 and
    the mutation-after-digest guard test).  Payloads whose digest is
    needed at several hops carry it themselves (``Request.body_digest``,
    ``Batch.bodies_digest``, the ``payload_digest`` of signed XPaxos
    messages) and never come back here.
    """
    global _calls_hit, _calls_stored, _calls_uncached
    if obj.__class__ is bytes:
        # Application results: no dispatch, nothing to memoize.
        _calls_uncached += 1
        return Digest(_sha256(b"b%d:%b" % (len(obj), obj)).digest())
    hits = _memo_hits
    stores = _memo_stores
    encoding = _canonical(obj)
    if _memo_hits != hits:
        _calls_hit += 1
    elif _memo_stores != stores:
        _calls_stored += 1
    else:
        _calls_uncached += 1
    return Digest(_sha256(encoding).digest())


def cache_on_instance(obj: Any, attr: str, value: Any) -> None:
    """Memoize a derived value on a frozen instance.

    The sanctioned mutation point for frozen dataclasses: lint rule A002
    flags any other ``object.__setattr__`` on message instances.  Only
    derived values (encodings and digests of immutable fields) may be
    cached -- the attribute must never feed back into equality, hashing,
    or the wire encoding.
    """
    object.__setattr__(obj, attr, value)


def memoized(method: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Compute a zero-argument method of a frozen dataclass once per
    instance and keep the value on it (via :func:`cache_on_instance`).

    For digests derived from the instance's own immutable fields that
    several hops need: every verifier and every client holding the same
    in-process object shares one encode.  The value is only ever computed
    from the instance it is stored on, so two instances never share a
    memo, equal by value or not.

    ``Class.method.seed(instance, value)`` stores a value the caller
    already holds -- for the code that builds the instance and has just
    signed the very payload the method digests, nobody else.
    """
    attr = "_memo_" + method.__name__

    @wraps(method)
    def cached(self: Any) -> Any:
        # getattr, not ``self.__dict__``: touching ``__dict__`` makes
        # CPython materialise a dict per instance (+64 B each).
        value = getattr(self, attr, None)
        if value is None:
            value = method(self)
            cache_on_instance(self, attr, value)
        return value

    def seed(self: Any, value: Any) -> None:
        cache_on_instance(self, attr, value)

    cached.seed = seed
    return cached


def digest_cache_stats() -> Dict[str, int]:
    """``digest_of`` calls by what the encoding memo did for them
    (``repro profile``, docs/profiling.md): ``hits`` reused at least one
    kept encoding, ``stores`` reused none but kept at least one new one,
    ``uncached`` met no frozen dataclass at all.  The three sum to the
    number of ``digest_of`` calls."""
    return {
        "hits": _calls_hit,
        "stores": _calls_stored,
        "uncached": _calls_uncached,
    }


def reset_digest_cache_stats() -> None:
    """Zero the digest-cache counters (profiling harness hook)."""
    global _calls_hit, _calls_stored, _calls_uncached
    _calls_hit = 0
    _calls_stored = 0
    _calls_uncached = 0


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


def _compile_encoder(cls: type) -> Callable[[Any], bytes]:
    """Build, register and return the encoder for instances of ``cls``.

    A dataclass gets a plan: one bytes template holding the class name
    and every field name already encoded, filled with the encoded field
    values -- no ``fields()`` call, no isinstance cascade and no name
    encoding per instance.  Instances of a frozen dataclass also keep
    the result (see :func:`digest_of`).  Everything else falls back to
    :func:`_canonical_general`.
    """
    if not is_dataclass(cls) or issubclass(cls, _STRUCTURAL):
        encoder = _canonical_general
    else:
        names = [f.name for f in fields(cls)]
        # Field names are identifiers, so only the class name (which
        # ``type()`` lets be anything) can hold a stray ``%``.
        template = (b"c" + cls.__name__.encode().replace(b"%", b"%%")
                    + b"".join(_canonical(name) + b"%b" for name in names))
        if len(names) > 1:
            values = attrgetter(*names)
        else:  # attrgetter returns a bare value for one name
            def values(obj: Any) -> Tuple[Any, ...]:
                return tuple(getattr(obj, name) for name in names)

        def encoder(obj: Any) -> bytes:
            return template % tuple(map(_canonical, values(obj)))

        if cls.__dataclass_params__.frozen and cls.__dictoffset__:
            encode = encoder

            def encoder(obj: Any) -> bytes:
                global _memo_hits, _memo_stores
                encoding = getattr(obj, _ENCODING_ATTR, None)
                if encoding is None:
                    encoding = encode(obj)
                    cache_on_instance(obj, _ENCODING_ATTR, encoding)
                    _memo_stores += 1
                else:
                    _memo_hits += 1
                return encoding

    _ENCODERS[cls] = encoder
    return encoder


class KeyStore:
    """The system-wide key infrastructure.

    The paper assumes every machine knows every other machine's public key
    (Section 4.2).  A single KeyStore per experiment plays the role of that
    PKI: ``sign``/``mac`` require the caller to *be* the principal (enforced
    by the protocol runtime, which only hands each node its own signing
    facade), and ``verify`` is available to everyone.
    """

    def __init__(self, secret: bytes = b"xft-repro") -> None:
        self._secret = secret
        # Domain-separated token prefixes, concatenated once per keystore
        # instead of once per token derivation.
        self._sig_prefix = b"sig" + secret
        self._mac_prefix = b"mac" + secret

    # -- internal token derivations ------------------------------------
    # Single-shot hashing: SHA-256 over one concatenated buffer is
    # byte-identical to the equivalent sequence of h.update() calls, and
    # skips four C-call round trips per token on the fan-out hot path.
    # To skip a frame per stamp / check, two derivations are written out
    # twice; keep each pair in sync: the signature token here and in
    # ``verify_digest``, the MAC token in ``mac_digest`` and
    # ``verify_mac_digest``.
    def _sig_token(self, signer: Principal, digest: Digest) -> bytes:
        return _sha256(
            self._sig_prefix + signer.encode() + digest.value
        ).digest()

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
        signer, sig_digest, token = signature
        return (
            sig_digest.value == digest.value
            and token == _sha256(
                self._sig_prefix + signer.encode() + digest.value
            ).digest()
        )

    def mac(self, sender: Principal, receiver: Principal,
            payload: Any) -> Mac:
        """Authenticate ``payload`` on the pairwise channel."""
        return self.mac_digest(sender, receiver, digest_of(payload))

    def mac_digest(self, sender: Principal, receiver: Principal,
                   digest: Digest) -> Mac:
        """MAC an already computed digest.

        The fan-out fast path: an n-way authenticated broadcast hashes the
        payload once and derives n channel tokens from the digest, instead
        of hashing the payload n times.
        """
        token = _sha256(
            self._mac_prefix + sender.encode() + receiver.encode()
            + digest.value
        ).digest()
        return Mac(sender, receiver, digest, token)

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
        sender, receiver, mac_digest, token = mac
        return (
            mac_digest.value == digest.value
            and token == _sha256(
                self._mac_prefix + sender.encode() + receiver.encode()
                + digest.value
            ).digest()
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
