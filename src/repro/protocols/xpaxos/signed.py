"""The signed-message contract of XPaxos.

A signed message (the paper's ``<m>_sigma``) declares once, on its class,
what its signature covers and which replica must have made it
(:class:`Signed`); :func:`verify_signed` is the one check built on that
declaration (docs/authenticators.md, "Signed payloads").  The message
classes themselves are in :mod:`repro.protocols.xpaxos.messages`.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Callable, ClassVar, Tuple

from repro.crypto.primitives import (
    Digest,
    Signature,
    digest_of,
    replica_principal,
)

#: A node's signing facade (``ReplicaBase.sign``): charges CPU and signs.
Signer = Callable[[Any], Signature]


class Signed:
    """Base of every signed message: the class says once what is signed.

    * ``tag`` and ``covers`` -- the signature is over the tuple
      ``(tag, *values of the covered fields)``, in that order;
    * ``signature_field`` -- the dataclass field that holds it;
    * :meth:`signer` -- the replica that must have made it: the ``sender``
      the message names unless the class names a role of its view.

    Everything else is derived here.  :attr:`payload_digest` (a derived
    value of the wire class, :func:`~repro.crypto.primitives.wire`) is
    stored by :meth:`signed` -- the constructor every honest signer
    uses, where the signature was made over exactly those fields a line
    earlier -- right after the message is built.  No constructor takes
    it, so a message built any other way (a forged or replayed
    signature attached to different fields) computes it from its own
    fields on first read, and verification always compares against
    what the fields really hash to.
    """

    __slots__ = ()

    tag: ClassVar[str]
    covers: ClassVar[Tuple[str, ...]]
    signature_field: ClassVar[str] = "sig"
    derived_values = ("payload_digest",)

    def signer(self, groups: Any) -> int:
        """Id of the replica whose signature this message must carry."""
        return self.sender  # type: ignore[attr-defined]

    @classmethod
    def payload_of(cls, **fields: Any) -> tuple:
        """The signed tuple for bare field values, where no message
        exists (a log entry's signature, one signature of a proof).
        Fields the signature does not cover may be passed and are
        ignored."""
        return (cls.tag, *[fields[name] for name in cls.covers])

    def payload_digest(self) -> Digest:
        """Digest of the payload the signature must cover, shared by
        every verifier holding this object."""
        return digest_of(self.payload_of(
            **{name: getattr(self, name) for name in self.covers}))

    @classmethod
    def signed(cls, sign: Signer, **fields: Any) -> Any:
        """Build the message from its other ``fields`` around a fresh
        signature by ``sign``."""
        signature = sign(cls.payload_of(**fields))
        message = cls(**fields, **{cls.signature_field: signature})
        # The digest just signed is what these fields hash to.
        cls._set_payload_digest(message, signature.digest)
        return message

    def resigned(self, sign: Signer, **changes: Any) -> Any:
        """This message with ``changes`` applied, signed afresh by
        ``sign`` over exactly the fields the result carries."""
        kept = {f.name: getattr(self, f.name) for f in dataclass_fields(self)
                if f.name != self.signature_field}
        return self.signed(sign, **{**kept, **changes})


def verify_signed(node: Any, m: Signed) -> bool:
    """The one signature check of XPaxos, for a replica or a client
    (``node`` brings ``cpu``, ``keystore`` and ``groups``): charge one
    verification, require a :class:`Signature` by the replica the
    message declares as its signer, covering what the message's fields
    hash to (covered values the canonical encoder refuses hash to
    nothing, and fail)."""
    signature = getattr(m, m.signature_field)
    cpu = node.cpu
    if not cpu.free:
        cpu.charge_verify()
    if (signature.__class__ is not Signature
            or signature[0] != replica_principal(m.signer(node.groups))):
        return False
    try:
        digest = m.payload_digest
    except TypeError:
        return False
    return node.keystore.verify_digest(signature, digest)
