"""Geo-replicated latency model calibrated to the paper's Table 3.

Table 3 of the paper reports TCP-ping round-trip latencies between six
Amazon EC2 datacenters collected over three months, as
``average / 99.99% / 99.999% / maximum`` in milliseconds.  We embed those
numbers and sample *one-way* delays from a log-normal distribution whose
median is half the measured average RTT and whose tail is fit to the
99.99th percentile.  This preserves exactly the property the paper's
evaluation relies on: the relative cost of each protocol message pattern
over the measured WAN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import stream

#: Standard-normal quantile of 99.99% -- used to fit the log-normal tail.
_Z_9999 = 3.719

#: One-way delay between two nodes in the same datacenter (ms).
INTRA_SITE_MS = 0.3


@dataclass(frozen=True, slots=True)
class LinkStats:
    """Round-trip statistics of one datacenter pair (Table 3 row format)."""

    avg_ms: float
    p9999_ms: float
    p99999_ms: float
    max_ms: float

    def __post_init__(self) -> None:
        if not (0 < self.avg_ms <= self.p9999_ms <= self.p99999_ms
                <= self.max_ms):
            raise ConfigurationError(
                f"link stats must satisfy 0 < avg <= p9999 <= p99999 <= max,"
                f" got {self}"
            )


def _sym(d: Dict[Tuple[str, str], LinkStats]) -> Dict[Tuple[str, str],
                                                       LinkStats]:
    """Mirror a half-matrix into a full symmetric one."""
    out = dict(d)
    for (a, b), stats in d.items():
        out[(b, a)] = stats
    return out


#: Table 3 of the paper: RTT of TCP ping across EC2 datacenters over three
#: months, ``average / 99.99% / 99.999% / maximum`` (ms).  Datacenter codes:
#: VA = US East (Virginia), CA = US West 1 (California), EU = Europe
#: (Ireland), JP = Tokyo, AU = Sydney, BR = Sao Paulo.
EC2_TABLE3: Mapping[Tuple[str, str], LinkStats] = _sym({
    ("VA", "CA"): LinkStats(88, 1097, 82190, 166390),
    ("VA", "EU"): LinkStats(92, 1112, 85649, 169749),
    ("VA", "JP"): LinkStats(179, 1226, 81177, 165277),
    ("VA", "AU"): LinkStats(268, 1372, 95074, 179174),
    ("VA", "BR"): LinkStats(146, 1214, 85434, 169534),
    ("CA", "EU"): LinkStats(174, 1184, 1974, 15467),
    ("CA", "JP"): LinkStats(120, 1133, 1180, 6210),
    ("CA", "AU"): LinkStats(186, 1209, 6354, 51646),
    ("CA", "BR"): LinkStats(207, 1252, 90980, 169080),
    ("EU", "JP"): LinkStats(287, 1310, 1397, 4798),
    ("EU", "AU"): LinkStats(342, 1375, 3154, 11052),
    ("EU", "BR"): LinkStats(233, 1257, 1382, 9188),
    ("JP", "AU"): LinkStats(137, 1149, 1414, 5228),
    ("JP", "BR"): LinkStats(394, 2496, 11399, 94775),
    ("AU", "BR"): LinkStats(392, 1496, 2134, 10983),
})

#: The t=2 experiment (Section 5.2) additionally uses Oregon (OR) and
#: Singapore (SG); the paper does not tabulate their links, so we use
#: representative public EC2 inter-region RTTs with tails scaled like the
#: measured CA rows.
_EXTra = {
    ("OR", "CA"): LinkStats(22, 310, 1200, 9000),
    ("OR", "VA"): LinkStats(75, 950, 9000, 90000),
    ("OR", "EU"): LinkStats(160, 1150, 2100, 16000),
    ("OR", "JP"): LinkStats(100, 1050, 1300, 7000),
    ("OR", "AU"): LinkStats(175, 1200, 5800, 48000),
    ("OR", "BR"): LinkStats(195, 1240, 80000, 160000),
    ("OR", "SG"): LinkStats(165, 1180, 2500, 20000),
    ("SG", "CA"): LinkStats(175, 1200, 2300, 18000),
    ("SG", "VA"): LinkStats(230, 1300, 8300, 90000),
    ("SG", "EU"): LinkStats(240, 1290, 2900, 15000),
    ("SG", "JP"): LinkStats(73, 920, 1200, 6100),
    ("SG", "AU"): LinkStats(93, 1010, 1900, 9800),
    ("SG", "BR"): LinkStats(330, 1700, 9500, 80000),
}
EC2_SITES: Tuple[str, ...] = ("VA", "CA", "EU", "JP", "AU", "BR", "OR", "SG")

_FULL_TABLE: Dict[Tuple[str, str], LinkStats] = dict(EC2_TABLE3)
_FULL_TABLE.update(_sym(_EXTra))


class LatencyModel:
    """Samples one-way message delays between named sites.

    Two modes:

    * :meth:`ec2` -- the paper's geo-replicated environment, six-to-eight
      datacenters with Table 3 statistics.
    * :meth:`uniform` -- a flat LAN-like model for unit tests.

    Two nodes at the same site are :data:`INTRA_SITE_MS` apart.
    """

    def __init__(
        self,
        links: Mapping[Tuple[str, str], LinkStats],
        seed: int = 0,
        deterministic: bool = False,
        correlation_window_ms: float = 250.0,
    ) -> None:
        self._links = dict(links)
        self._rng = stream(seed, "latency")
        self.deterministic = deterministic
        #: Real WAN latency is burst-correlated: congestion slows a link
        #: for a stretch, not one packet.  When a caller supplies the
        #: current virtual time, all samples of one directed link within a
        #: window share a single deviation draw; the marginal distribution
        #: (and thus the Table 3 regeneration) is unchanged.
        self.correlation_window_ms = correlation_window_ms
        #: Cached *sample* per (directed link, window).  Within one window
        #: the deviation draw is shared, and the fit is fixed per link, so
        #: the finished sample is as shareable as the raw deviation --
        #: caching it keeps ``exp`` off the per-message path.
        self._window_draws: Dict[Tuple[str, str, int], float] = {}
        #: Lazily cached log-normal fit per directed link:
        #: ``(median, mu, sigma, half_max)``.  The fit is a pure function
        #: of the immutable LinkStats, so caching it cannot change a
        #: sample -- it only removes two ``log`` calls per draw from the
        #: send hot path.
        self._fit: Dict[Tuple[str, str], Tuple[float, float, float,
                                               float]] = {}

    # -- constructors ----------------------------------------------------
    @classmethod
    def ec2(cls, seed: int = 0, deterministic: bool = False) -> "LatencyModel":
        """The paper's EC2 WAN (Table 3 plus the t=2 extension sites)."""
        return cls(_FULL_TABLE, seed=seed, deterministic=deterministic)

    @classmethod
    def uniform(cls, sites: Iterable[str], one_way_ms: float = 1.0,
                seed: int = 0, jitter: float = 0.0) -> "LatencyModel":
        """Flat model: every pair has the same RTT ``2 * one_way_ms``.

        ``jitter`` widens the 99.99% tail multiplicatively (0 = none).
        """
        site_list = list(sites)
        rtt = 2.0 * one_way_ms
        tail = rtt * (1.0 + jitter)
        links = {}
        for i, a in enumerate(site_list):
            for b in site_list[i + 1:]:
                links[(a, b)] = LinkStats(rtt, tail, tail, tail)
                links[(b, a)] = LinkStats(rtt, tail, tail, tail)
        return cls(links, seed=seed, deterministic=(jitter == 0.0))

    # -- queries ----------------------------------------------------------
    def stats(self, a: str, b: str) -> Optional[LinkStats]:
        """Raw Table 3 statistics of the pair, or None if same site."""
        if a == b:
            return None
        try:
            return self._links[(a, b)]
        except KeyError:
            raise ConfigurationError(f"no latency data for link {a}-{b}")

    def mean_one_way(self, a: str, b: str) -> float:
        """Average one-way delay (half the measured average RTT)."""
        if a == b:
            return INTRA_SITE_MS
        return self.stats(a, b).avg_ms / 2.0

    def sample_one_way(self, a: str, b: str,
                       now: Optional[float] = None) -> float:
        """Draw one one-way delay for a message from site ``a`` to ``b``.

        Log-normal with median = avg RTT / 2 and 99.99th percentile matched
        to Table 3 (both halved for one-way).  With ``deterministic=True``
        the median is returned, which unit tests use for exact assertions.
        With ``now`` supplied, the deviation draw is shared by all samples
        of this directed link within ``correlation_window_ms``.
        """
        if a == b:
            return INTRA_SITE_MS
        fit = self._fit.get((a, b))
        if fit is None:
            st = self.stats(a, b)
            median = st.avg_ms / 2.0
            p9999 = st.p9999_ms / 2.0
            mu = math.log(median)
            sigma = (math.log(p9999) - mu) / _Z_9999
            fit = (median, mu, sigma, st.max_ms / 2.0)
            self._fit[(a, b)] = fit
        if self.deterministic:
            return fit[0]
        window_ms = self.correlation_window_ms
        if now is not None and window_ms > 0:
            # Correlated mode: one deviation draw -- and therefore one
            # finished sample -- per (directed link, window).
            key = (a, b, int(now // window_ms))
            draws = self._window_draws
            sample = draws.get(key)
            if sample is not None:
                return sample
            if len(draws) > 65_536:
                draws.clear()
            z = self._rng.gauss(0.0, 1.0)
            sample = math.exp(fit[1] + fit[2] * z)
            # Cap at the observed maximum: Table 3's max column bounds
            # reality.
            half_max = fit[3]
            if sample >= half_max:
                sample = half_max
            draws[key] = sample
            return sample
        z = self._rng.gauss(0.0, 1.0)
        sample = math.exp(fit[1] + fit[2] * z)
        half_max = fit[3]
        return sample if sample < half_max else half_max

    def rtt_trace(self, a: str, b: str, n: int) -> "list[float]":
        """Generate ``n`` synthetic RTT samples for the Table 3 regeneration
        benchmark (two independent one-way draws per ping)."""
        return [self.sample_one_way(a, b) + self.sample_one_way(b, a)
                for _ in range(n)]
