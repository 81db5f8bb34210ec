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
    memoized,
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

    Everything else is derived here.  :meth:`payload_digest` is computed
    from the message's own fields on first use, or seeded by
    :meth:`signed` -- the constructor every honest signer uses, where the
    signature was made over exactly those fields a line earlier.  A
    message built any other way (a forged or replayed signature attached
    to different fields) starts unseeded, so verification always compares
    against what the fields really hash to.
    """

    tag: ClassVar[str]
    covers: ClassVar[Tuple[str, ...]]
    signature_field: ClassVar[str] = "sig"

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

    @memoized
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
        cls.payload_digest.seed(message, signature.digest)
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
    verification, require the signature to be by the replica the message
    declares as its signer, and to cover what the message's fields hash
    to."""
    signature = getattr(m, m.signature_field)
    node.cpu.charge_verify()
    return (signature.signer == replica_principal(m.signer(node.groups))
            and node.keystore.verify_digest(signature, m.payload_digest()))
