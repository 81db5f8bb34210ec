"""Client-facing message types shared by every protocol.

A :class:`Request` is the paper's ``<REPLICATE, op, ts_c, c>_{sigma_c}``:
client-signed, carrying an operation and the client's monotonically
increasing timestamp.  A :class:`Batch` is the ordered group of requests
that occupies one sequence number.  Replies are per protocol: the
baselines send ``GenericReply`` (``protocols/base.py``), XPaxos its
MAC-authenticated ``ReplyMsg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.crypto.primitives import (
    Digest,
    Signature,
    cache_on_instance,
    digest_of,
    direct_init,
    memoized,
)


@direct_init
@dataclass(frozen=True)
class Request:
    """A signed client request (the paper's ``req``).

    ``rid`` is the canonical request identifier ``(client, timestamp)``:
    one tuple per request, built with it and shared by everything that
    files the request under its id (dedup set, execution traces, client
    completions).  It is derived, not a field -- outside equality,
    hashing and the canonical encoding.
    """

    op: Any
    timestamp: int
    client: int
    size_bytes: int = 0
    signature: Optional[Signature] = None

    def __post_init__(self) -> None:
        cache_on_instance(self, "rid", (self.client, self.timestamp))

    def body(self) -> Tuple[Any, int, int]:
        """The signed portion (everything but the signature itself)."""
        return (self.op, self.timestamp, self.client)

    @memoized
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
               sign: Callable[[Any], Signature]) -> "Request":
        """Build a request and sign its body with ``sign`` (the client's
        own signing facade).  The signature was made over exactly this
        body a line earlier, so its digest seeds :meth:`body_digest`."""
        signature = sign((op, timestamp, client))
        request = cls(op, timestamp, client, size_bytes, signature)
        cls.body_digest.seed(request, signature.digest)
        return request

    def __repr__(self) -> str:
        return f"Request(c{self.client}#{self.timestamp})"


@direct_init
@dataclass(frozen=True)
class Batch:
    """An ordered group of requests occupying one sequence number.

    All evaluated protocols batch with ``B = 20`` (Section 5.1.2); a batch is
    treated as a unit by the ordering layer and unpacked at execution.

    ``size_bytes``, the wire size, is the sum of the request payloads
    (headers are negligible).  Like ``Request.rid`` it is derived once,
    when the batch is built, and is not a field.
    """

    requests: Tuple[Request, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch must contain at least one request")
        cache_on_instance(self, "size_bytes",
                          sum(r.size_bytes for r in self.requests))

    @memoized
    def bodies_digest(self) -> Digest:
        """Digest over the signed request bodies, computed once per batch.

        Byte-identical to ``digest_of(tuple(r.body() for r in batch))``.
        The batch is frozen, and in-process delivery shares one Batch
        object across every replica, so the body-tuple hash is computed
        once per batch instead of once per (replica, certificate,
        history-extension).  Callers still charge digest CPU per
        derivation -- the memo models memoized code, not free hashing.
        """
        return digest_of(tuple(r.body() for r in self.requests))

    @memoized
    def rids(self) -> Tuple[Tuple[int, int], ...]:
        """The requests' ids in batch order, built once per batch: every
        replica that executes the batch puts this very tuple into its
        execution trace."""
        return tuple(r.rid for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __repr__(self) -> str:
        return f"Batch[{len(self.requests)}]"
