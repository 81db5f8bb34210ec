"""Simulated cryptography with real integrity semantics and a CPU cost model.

The paper (Section 2) assumes non-crash-faulty machines "cannot break
cryptographic primitives".  We model this directly: a signature object is an
opaque token bound to ``(signer, digest)`` that the verifier checks against
the claimed signer -- a Byzantine replica can replay signatures it has seen
but can never mint one for content another machine did not sign.

The :class:`CostModel` attaches virtual-CPU microsecond costs to each
operation, calibrated to the paper's RSA1024 signatures and HMAC-SHA1 MACs,
which drives the Figure 8 CPU-usage experiment.
"""

from repro.crypto.primitives import (
    Digest,
    KeyStore,
    Mac,
    Signature,
    digest_of,
)
from repro.crypto.authenticators import (
    MAC_VECTOR,
    MODELED_MAC,
    NULL,
    Authenticator,
    authenticator_for,
    register,
)
from repro.crypto.costs import CostModel, CpuMeter

__all__ = [
    "Digest",
    "Signature",
    "Mac",
    "KeyStore",
    "digest_of",
    "CostModel",
    "CpuMeter",
    "Authenticator",
    "authenticator_for",
    "register",
    "MAC_VECTOR",
    "MODELED_MAC",
    "NULL",
]
