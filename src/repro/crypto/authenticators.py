"""Transport-level authenticator policies (the delivery-time MAC model).

Motivation
----------

XPaxos's common case and its PreChk fault-detection channel authenticate
with *per-receiver* MAC vectors (Section 4.2): the same logical message is
accompanied by a different authenticator on every channel.  Modelling that
by embedding a :class:`~repro.crypto.primitives.Mac` object inside the
payload has two costs:

* every fan-out degenerates into n sequential point-to-point sends (each
  destination needs a different payload object), locking the protocol
  out of the one-call fan-out; and
* the payload digest is recomputed once per receiver, even though the
  MAC token derivation is the only part that actually differs per channel.

This module moves authentication out of the payload and into the
transport.  A message class is registered with an :class:`Authenticator`
policy; :meth:`Network.send` asks the policy for a
per-fan-out context once (typically the payload digest) and stamps the
per-receiver authenticator *at delivery fan-out time*.  The receiver's
runtime verifies the authenticator before the message reaches the
protocol handler, so forged or cross-channel-replayed messages are
dropped at the transport -- exactly where a real deployment's
authenticated channels would drop them.

Policies
--------

* :class:`MacVectorAuthenticator` -- a real per-receiver MAC: the payload
  digest is computed once per fan-out, the channel token once per
  receiver, and every delivery is verified (digest match + token match +
  channel binding).  Used for the channels whose authentication the
  repository actually exercises adversarially (XPaxos PreChk and client
  replies).
* :class:`ModeledMacAuthenticator` -- the baselines' fidelity level: the
  CPU cost and wire bytes of an HMAC vector are accounted, but no token
  is materialised and nothing is verified on delivery (the baselines are
  evaluated under crash faults only, where forgery is not modelled).
* :class:`NullAuthenticator` -- for message classes that are already
  self-authenticating (XPaxos protocol messages embed digital signatures
  in their payloads); the transport adds no bytes and no checks.  The
  transport has no unauthenticated path: a plain send is this policy.

Wire accounting: each receiver is charged the payload's ``wire_bytes``
(stated by its class) ``+ policy.auth_bytes`` -- the authenticator bytes
that receiver actually sees -- by the network layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Type

from repro.crypto.costs import CpuMeter
from repro.crypto.primitives import (
    Digest,
    KeyStore,
    Mac,
    Principal,
    _sha256,
    digest_of,
    wire,
)

#: Wire size of one HMAC-SHA1 authenticator (the paper's channel MAC).
MAC_BYTES = 20


class Authenticator:
    """One authentication policy for a class of messages.

    ``begin`` runs once per payload of a fan-out and returns the shared
    context (a digest, or None); ``stamp`` runs once per receiver and
    returns that channel's authenticator; ``verify`` runs on delivery.
    ``charge_send`` accounts the sender's CPU for an n-way fan-out.
    """

    name = "abstract"
    #: Authenticator bytes each receiver sees on the wire.
    auth_bytes = 0
    #: Does the receiving runtime verify (and drop on failure)?
    verify_on_delivery = False
    #: Does the transport call ``begin`` / ``stamp``?  A policy that
    #: keeps both defaults sets it False, and the transport stamps
    #: ``None`` without asking.
    stamps = True

    def begin(self, keystore: KeyStore, sender: Principal,
              body: Any) -> Any:
        """Per-fan-out shared context (default: none)."""
        return None

    def stamp(self, keystore: KeyStore, sender: Principal,
              receiver: Principal, context: Any) -> Any:
        """Per-receiver authenticator (default: none)."""
        return None

    def context_digest(self, context: Any) -> Optional[Digest]:
        """The body digest carried by a fan-out context, if any.

        The transport publishes it through ``Network.delivery_digest``
        while a delivery callback runs, so the receiving runtime can hand
        it back to :meth:`verify` as ``body_digest`` and skip re-hashing
        a payload the transport itself hashed (default: no digest).
        """
        return None

    def verify(self, keystore: KeyStore, cpu: CpuMeter, sender: Principal,
               receiver: Principal, body: Any, auth: Any,
               size_bytes: int = 0,
               body_digest: Optional[Digest] = None) -> bool:
        """Delivery-time check (default: accept).

        ``body_digest`` is the transport-computed digest of ``body``
        (from ``Network.delivery_digest``); policies may trust it in
        place of re-hashing the payload.  Callers outside the transport
        (e.g. forged-injection tests calling the receiver directly) pass
        ``None`` and get the full check.
        """
        return True

    def charge_send(self, cpu: CpuMeter, receivers: int,
                    size_bytes: int = 0) -> None:
        """Sender-side CPU for stamping an n-way fan-out (default: free)."""


class NullAuthenticator(Authenticator):
    """No transport authentication: the payload is self-authenticating
    (it embeds digital signatures) or the channel is not modelled."""

    name = "null"
    stamps = False


class MacVectorAuthenticator(Authenticator):
    """A real per-receiver MAC vector, stamped at delivery fan-out time.

    The payload digest is computed once per fan-out (``begin``); each
    receiver's MAC reuses it, so an n-way broadcast performs one payload
    hash plus n cheap channel-token derivations instead of n payload
    hashes.  Every delivery is verified: digest match (content), token
    match (key) and channel binding (sender/receiver names).
    """

    name = "mac-vector"
    auth_bytes = MAC_BYTES
    verify_on_delivery = True

    def begin(self, keystore: KeyStore, sender: Principal,
              body: Any) -> Digest:
        return digest_of(body)

    def stamp(self, keystore: KeyStore, sender: Principal,
              receiver: Principal, context: Digest) -> Mac:
        # The one MAC derivation; KeyStore.verify_mac_digest checks the
        # same token (keep in sync).  Derived here, not through a
        # keystore method: stamp runs once per receiver per fan-out, and
        # the delegation frame was the single biggest non-hash cost on
        # the stamping path.
        token = _sha256(keystore._mac_keys[sender]
                        + keystore._names[receiver]
                        + context.value).digest()
        return Mac(sender, receiver, context, token)

    def context_digest(self, context: Digest) -> Optional[Digest]:
        return context

    def verify(self, keystore: KeyStore, cpu: CpuMeter, sender: Principal,
               receiver: Principal, body: Any, auth: Any,
               size_bytes: int = 0,
               body_digest: Optional[Digest] = None) -> bool:
        if not cpu.free:
            cpu.charge_mac(size_bytes)
        # Mac is a tuple subclass laid out (sender, receiver, digest,
        # token); index access skips the property descriptors on the
        # per-delivery path.
        if not (isinstance(auth, Mac) and auth[0] == sender
                and auth[1] == receiver):
            return False
        if body_digest is not None:
            return keystore.verify_mac_digest(auth, body_digest)
        return keystore.verify_mac(auth, body)

    def charge_send(self, cpu: CpuMeter, receivers: int,
                    size_bytes: int = 0) -> None:
        cpu.charge_macs(receivers, size_bytes)


class ModeledMacAuthenticator(Authenticator):
    """The CFT/BFT baselines' channel MACs: CPU and wire bytes are
    accounted, but no token is materialised and deliveries are not
    verified (those protocols are evaluated under crash faults only,
    where nothing can forge a message).  Receiver-side CPU stays in the
    protocol handlers, as it always has for the baselines."""

    name = "modeled-mac"
    auth_bytes = MAC_BYTES
    stamps = False

    def charge_send(self, cpu: CpuMeter, receivers: int,
                    size_bytes: int = 0) -> None:
        cpu.charge_macs(receivers, size_bytes)


#: Shared policy instances (policies are stateless).
NULL = NullAuthenticator()
MAC_VECTOR = MacVectorAuthenticator()
MODELED_MAC = ModeledMacAuthenticator()

#: The registry: message class -> its policy.  Read it directly where a
#: lookup is on the per-message path (the runtime does, per send and per
#: delivery); write it only through :func:`register`.
POLICIES: Dict[Type, Authenticator] = {}


def register(policy: Authenticator) -> Callable[[Type], Type]:
    """Class decorator: lay the class out as a wire class
    (:func:`~repro.crypto.primitives.wire`; a wire message is built per
    send) and bind the class returned to ``policy``.

    Idempotent for the same policy; re-binding to a different policy is a
    programming error (two subsystems disagreeing about a channel's
    authentication would silently weaken one of them).
    """
    def bind(message_class: Type) -> Type:
        message_class = wire(message_class)
        current = POLICIES.get(message_class)
        if current is not None and current is not policy:
            raise ValueError(
                f"{message_class.__name__} already registered with "
                f"{current.name}, refusing {policy.name}")
        POLICIES[message_class] = policy
        return message_class

    return bind
