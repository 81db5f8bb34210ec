"""Client-facing message types shared by every protocol.

A :class:`Request` is the paper's ``<REPLICATE, op, ts_c, c>_{sigma_c}``:
client-signed, carrying an operation and the client's monotonically
increasing timestamp.  A :class:`Batch` is the ordered group of requests
that occupies one sequence number.  Replies are per protocol: the
baselines send ``GenericReply`` (``protocols/base.py``), XPaxos its
MAC-authenticated ``ReplyMsg``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.crypto.primitives import (
    Digest,
    Signature,
    canonical,
    digest_of,
    digest_of_parts,
    encoded_digest,
    wire,
)


@wire
class Request:
    """A signed client request (the paper's ``req``).

    Three values are derived from the fields (``derived_values``: stored
    by :meth:`signed` as the request is built, else computed on first
    read), outside equality, hashing and the canonical encoding:

    * ``rid``, the canonical request identifier ``(client, timestamp)``:
      one tuple per request, shared by everything that files the request
      under its id (dedup set, execution traces, client completions);
    * ``body_encoding``, the canonical encoding of :meth:`body`, which
      ``Batch.bodies_digest`` joins instead of encoding the body again;
    * ``body_digest``, the digest the client's signature must cover.
    """

    op: Any
    timestamp: int
    client: int
    size_bytes: int = 0
    signature: Optional[Signature] = None

    derived_values = ("rid", "body_encoding", "body_digest")

    def body(self) -> Tuple[Any, int, int]:
        """The signed portion (everything but the signature itself)."""
        return (self.op, self.timestamp, self.client)

    def rid(self) -> Tuple[int, int]:
        """``(client, timestamp)``."""
        return (self.client, self.timestamp)

    def body_encoding(self) -> bytes:
        """The canonical encoding of :meth:`body`."""
        return canonical(self.body())

    def body_digest(self) -> Digest:
        """``digest_of(self.body())``, computed once per request object.

        Primary and followers verify the client's signature on the same
        in-process ``Request``, so they share the encode.  Always derived
        from the fields, never from ``signature.digest``: an attached
        signature over some other body must fail verification, not
        redefine what the body hashes to.
        """
        return digest_of(self.body())

    @classmethod
    def signed(cls, op: Any, timestamp: int, client: int, size_bytes: int,
               sign_digest: Callable[[Digest], Signature]) -> "Request":
        """Build a request whose body digest, computed here from the
        fields, is signed by ``sign_digest`` (the client's own signing
        facade); the request keeps the digest and the encoding it
        hashed, stored through their slots' setters."""
        encoding, digest = encoded_digest((op, timestamp, client))
        request = cls(op, timestamp, client, size_bytes, sign_digest(digest))
        cls._set_rid(request, (client, timestamp))
        cls._set_body_encoding(request, encoding)
        cls._set_body_digest(request, digest)
        return request

    def __repr__(self) -> str:
        return f"Request(c{self.client}#{self.timestamp})"


@wire
class Batch:
    """An ordered group of requests occupying one sequence number.

    All evaluated protocols batch with ``B = 20`` (Section 5.1.2); a batch is
    treated as a unit by the ordering layer and unpacked at execution.

    ``size_bytes``, the wire size, is the sum of the request payloads
    (headers are negligible).  It is written by ``__post_init__`` as the
    batch is built; ``bodies_digest`` and ``rids`` on first read.  None
    is a field.
    """

    requests: Tuple[Request, ...]

    derived_values = ("size_bytes", "bodies_digest", "rids")

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch must contain at least one request")
        object.__setattr__(self, "size_bytes",
                           sum([r.size_bytes for r in self.requests]))

    def bodies_digest(self) -> Digest:
        """Digest over the signed request bodies, computed once per batch.

        Byte-identical to ``digest_of(tuple(r.body() for r in batch))``,
        joined from the bodies' kept encodings.  The batch is frozen, and
        in-process delivery shares one Batch object across every replica,
        so the body-tuple hash is computed once per batch instead of once
        per (replica, certificate, history-extension).  Callers still
        charge digest CPU per derivation -- the memo models memoized
        code, not free hashing.
        """
        return digest_of_parts([r.body_encoding for r in self.requests])

    def rids(self) -> Tuple[Tuple[int, int], ...]:
        """The requests' ids in batch order, built once per batch: every
        replica that executes the batch puts this very tuple into its
        execution trace."""
        return tuple([r.rid for r in self.requests])

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __repr__(self) -> str:
        return f"Batch[{len(self.requests)}]"
