"""CPU cost accounting for cryptographic operations (drives Figure 8).

The paper's implementation signs with RSA1024 and authenticates channels
with HMAC-SHA1 (Section 5.1.2) and reports the CPU usage of the most loaded
node (Section 5.3).  We reproduce that study by charging each simulated node
virtual CPU microseconds per operation and computing utilisation as busy
time over wall (virtual) time across the machine's cores.

Default costs are representative mid-2010s numbers for the paper's
primitives on the EC2 instances used (8 vCPUs):

* RSA1024 sign:   ~700 us  (private-key op, the expensive one)
* RSA1024 verify:  ~35 us  (public exponent is small)
* HMAC-SHA1:        ~1 us + ~2.5 us per kB hashed
* SHA-256 digest:   ~0.5 us + ~3 us per kB
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Virtual CPU cost (microseconds) of each cryptographic operation."""

    sign_us: float = 700.0
    verify_us: float = 35.0
    mac_us: float = 1.0
    mac_per_kb_us: float = 2.5
    digest_us: float = 0.5
    digest_per_kb_us: float = 3.0
    cores: int = 8

    def sign_cost(self) -> float:
        """Cost of producing one digital signature."""
        return self.sign_us

    def verify_cost(self) -> float:
        """Cost of verifying one digital signature."""
        return self.verify_us

    def mac_cost(self, size_bytes: int = 0) -> float:
        """Cost of computing or verifying one MAC over ``size_bytes``."""
        return self.mac_us + self.mac_per_kb_us * (size_bytes / 1024.0)

    def digest_cost(self, size_bytes: int = 0) -> float:
        """Cost of hashing ``size_bytes``."""
        return self.digest_us + self.digest_per_kb_us * (size_bytes / 1024.0)

    @classmethod
    def free(cls) -> "CostModel":
        """A zero-cost model for tests that do not study CPU."""
        return cls(sign_us=0.0, verify_us=0.0, mac_us=0.0, mac_per_kb_us=0.0,
                   digest_us=0.0, digest_per_kb_us=0.0)


class CpuMeter:
    """Accumulates per-node CPU busy time, by operation category.

    Utilisation is reported the way ``top`` reports it in the paper's
    Figure 8: percent of one core, so a fully busy 8-core machine shows
    800%.
    """

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self._busy_us: float = 0.0
        self._by_category: Dict[str, float] = {}

    @property
    def busy_us(self) -> float:
        """Total accumulated busy time in microseconds."""
        return self._busy_us

    def charge(self, category: str, cost_us: float) -> None:
        """Record ``cost_us`` of CPU work under ``category``."""
        if not cost_us:
            # Zero-cost models (tests, latency-only studies) charge on
            # every MAC/digest; skip the bookkeeping, which is a no-op.
            # Negative costs are truthy and still reach the raise below.
            return
        if cost_us < 0:
            raise ValueError(f"negative CPU cost {cost_us}")
        self._busy_us += cost_us
        self._by_category[category] = (
            self._by_category.get(category, 0.0) + cost_us
        )

    def charge_sign(self) -> None:
        """Charge one signature generation."""
        self.charge("sign", self.cost_model.sign_cost())

    def charge_verify(self) -> None:
        """Charge one signature verification."""
        self.charge("verify", self.cost_model.verify_cost())

    def charge_mac(self, size_bytes: int = 0) -> None:
        """Charge one MAC computation/verification.

        Flattened (no ``mac_cost``/``charge`` delegation): this is the
        per-delivery charge on the authenticated hot path.
        """
        cm = self.cost_model
        cost_us = cm.mac_us + cm.mac_per_kb_us * (size_bytes / 1024.0)
        if not cost_us:
            return
        if cost_us < 0:
            raise ValueError(f"negative CPU cost {cost_us}")
        self._busy_us += cost_us
        self._by_category["mac"] = (
            self._by_category.get("mac", 0.0) + cost_us
        )

    def charge_macs(self, count: int, size_bytes: int = 0) -> None:
        """Charge ``count`` identical MAC computations in one call (the
        broadcast fast path charges the whole fan-out at once)."""
        if count > 0:
            self.charge("mac", count * self.cost_model.mac_cost(size_bytes))

    def charge_digest(self, size_bytes: int = 0) -> None:
        """Charge one digest computation."""
        self.charge("digest", self.cost_model.digest_cost(size_bytes))

    def utilisation_percent(self, elapsed_ms: float,
                            busy_since_us: float = 0.0) -> float:
        """CPU usage as percent-of-one-core over ``elapsed_ms``.

        ``busy_since_us`` subtracts busy time accumulated before the
        measurement window opened (a snapshot of :attr:`busy_us` taken at
        the end of warmup), so utilisation can be reported over the same
        window as throughput and latency.

        Capped at ``cores * 100`` -- a node cannot use more CPU than it has.
        """
        if elapsed_ms <= 0:
            return 0.0
        raw = 100.0 * ((self._busy_us - busy_since_us) / 1000.0) / elapsed_ms
        return min(max(raw, 0.0), self.cost_model.cores * 100.0)

    def breakdown(self) -> Dict[str, float]:
        """Busy microseconds per operation category."""
        return dict(self._by_category)

    def reset(self) -> None:
        """Zero the meter (used at the end of workload warmup)."""
        self._busy_us = 0.0
        self._by_category.clear()
