"""Closed-form reliability of CFT, BFT and XFT state-machine replication.

This module implements Section 6 of the paper exactly.  The fault states of
machines are i.i.d.:

* ``p_benign``  -- machine is correct or crash-faulty;
* ``p_correct`` -- machine is correct (``p_correct <= p_benign``);
* ``p_crash = p_benign - p_correct``; ``p_noncrash = 1 - p_benign``;
* ``p_synchrony`` -- machine is not partitioned (independent of the above);
* ``p_available = p_correct * p_synchrony``.

Numerical design
----------------

The paper reports results as *nines*, i.e. ``floor(-log10(1 - p))``, and
its tables reach 15+ nines -- far beyond what ``1 - p`` can resolve in
double precision once ``p`` has been accumulated as a sum close to 1.  We
therefore compute *failure probabilities* (``q = 1 - p``) directly as sums
of small positive terms (functions ``q_*``), which never cancel; the
``p_*`` functions and the nines helpers are wrappers.  The ``q_*``
functions take epsilon inputs (``eps_x = 1 - p_x``) so that a grid point
like "8 nines of benignity" enters the computation as exactly ``1e-8``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigurationError

#: Guard added before flooring a nines value: the epsilon inputs carry
#: ~1e-8 relative error after a ``1 - p`` round trip, which perturbs the
#: log10 by well under this margin.
_NINES_GUARD = 1e-6


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


def _check_epsilon(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


def nines_of(p: float) -> float:
    """The paper's ``9of(p) = floor(-log10(1 - p))``; e.g. 9of(0.999) = 3.

    Prefer :func:`nines_of_failure` when the failure probability is
    available directly -- it avoids the ``1 - p`` cancellation.
    """
    _check_probability("p", p)
    return nines_of_failure(1.0 - p)


def nines_of_failure(q: float) -> float:
    """Nines from a failure probability: ``floor(-log10(q))``."""
    _check_probability("q", q)
    if q == 0.0:
        return math.inf
    return float(math.floor(-math.log10(q) + _NINES_GUARD))


def epsilon_from_nines(nines: int) -> float:
    """``k`` nines -> failure probability ``10^-k`` (exact)."""
    if nines < 0:
        raise ConfigurationError("nines must be >= 0")
    return 10.0 ** (-nines)


def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Consistency -- failure forms
# ---------------------------------------------------------------------------


def q_cft_consistent(eps_benign: float, n: int) -> float:
    """``1 - p_benign^n`` without cancellation (Section 6.1)."""
    _check_epsilon("eps_benign", eps_benign)
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if eps_benign == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-eps_benign))


def q_bft_consistent(eps_benign: float, t: int) -> float:
    """Asynchronous BFT (n = 3t+1) fails iff more than ``t`` machines are
    non-crash-faulty: a tail sum of small terms (Section 6.1.2)."""
    _check_epsilon("eps_benign", eps_benign)
    if t < 0:
        raise ConfigurationError("t must be >= 0")
    n = 3 * t + 1
    p_benign = 1.0 - eps_benign
    return math.fsum(
        _binom(n, i) * eps_benign ** i * p_benign ** (n - i)
        for i in range(t + 1, n + 1)
    )


def q_xft_consistent(eps_benign: float, eps_correct: float,
                     eps_synchrony: float, t: int) -> float:
    """XPaxos (n = 2t+1) fails iff at least one machine is non-crash-faulty
    AND the total of non-crash (i), crash (j) and partitioned-correct (k)
    machines exceeds ``t`` (the complement of Section 6.1.1's closed form,
    summed directly)."""
    _check_epsilon("eps_benign", eps_benign)
    _check_epsilon("eps_correct", eps_correct)
    _check_epsilon("eps_synchrony", eps_synchrony)
    if eps_correct < eps_benign - 1e-15:
        raise ConfigurationError(
            "eps_correct must be >= eps_benign (correct implies benign)")
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    n = 2 * t + 1
    p_noncrash = eps_benign
    p_crash = eps_correct - eps_benign
    p_correct = 1.0 - eps_correct
    p_sync = 1.0 - eps_synchrony

    terms = []
    for i in range(1, n + 1):           # non-crash-faulty machines
        weight_i = _binom(n, i) * p_noncrash ** i
        for j in range(0, n - i + 1):   # crash-faulty machines
            weight_j = _binom(n - i, j) * p_crash ** j
            remaining = n - i - j       # correct machines
            weight_c = p_correct ** remaining
            for k in range(0, remaining + 1):  # partitioned correct
                if i + j + k <= t:
                    continue            # consistent: not a failure term
                weight_k = (_binom(remaining, k)
                            * p_sync ** (remaining - k)
                            * eps_synchrony ** k)
                terms.append(weight_i * weight_j * weight_c * weight_k)
    return min(math.fsum(terms), 1.0)


# ---------------------------------------------------------------------------
# Availability -- failure forms
# ---------------------------------------------------------------------------


def q_xft_available(eps_available: float, t: int) -> float:
    """XPaxos unavailable iff at most ``t`` of ``2t+1`` machines are
    available (Section 6.2)."""
    _check_epsilon("eps_available", eps_available)
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    n = 2 * t + 1
    p_available = 1.0 - eps_available
    return math.fsum(
        _binom(n, i) * p_available ** i * eps_available ** (n - i)
        for i in range(0, t + 1)
    )


def q_cft_available(eps_available: float, eps_benign: float,
                    t: int) -> float:
    """CFT (Paxos) unavailable unless a majority is available AND every
    other machine is benign (Section 6.2.1).

    Each machine is in one of three states: available (``p_av``), benign
    but not available (``p_benign - p_av``), or non-benign (``eps_b``).
    The failure terms are all multinomial cells except
    (available >= majority, non-benign == 0).
    """
    _check_epsilon("eps_available", eps_available)
    _check_epsilon("eps_benign", eps_benign)
    if eps_available < eps_benign - 1e-15:
        raise ConfigurationError(
            "eps_available must be >= eps_benign (available implies benign)")
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    n = 2 * t + 1
    majority = n - (n - 1) // 2
    p_av = 1.0 - eps_available
    p_benign_not_av = eps_available - eps_benign
    p_non_benign = eps_benign

    terms = []
    for a in range(0, n + 1):
        for b in range(0, n - a + 1):
            c = n - a - b
            if a >= majority and c == 0:
                continue  # the protocol is available here
            coefficient = math.factorial(n) // (
                math.factorial(a) * math.factorial(b) * math.factorial(c))
            terms.append(coefficient * p_av ** a
                         * p_benign_not_av ** b * p_non_benign ** c)
    return min(math.fsum(terms), 1.0)


def q_bft_available(eps_available: float, t: int) -> float:
    """Asynchronous BFT (n = 3t+1) unavailable iff fewer than ``2t+1``
    machines are available (Section 6.2.2)."""
    _check_epsilon("eps_available", eps_available)
    if t < 0:
        raise ConfigurationError("t must be >= 0")
    n = 3 * t + 1
    threshold = n - (n - 1) // 3
    p_available = 1.0 - eps_available
    return math.fsum(
        _binom(n, i) * p_available ** i * eps_available ** (n - i)
        for i in range(0, threshold)
    )


# ---------------------------------------------------------------------------
# Probability wrappers (the paper's published formulas verbatim)
# ---------------------------------------------------------------------------


def p_cft_consistent(p_benign: float, n: int) -> float:
    """``P[CFT is consistent] = p_benign^n`` (Section 6.1)."""
    _check_probability("p_benign", p_benign)
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return p_benign ** n


def p_bft_consistent(p_benign: float, t: int) -> float:
    """Asynchronous BFT with ``n = 3t + 1``: consistent iff at most ``t``
    non-crash faults (Section 6.1.2)."""
    _check_probability("p_benign", p_benign)
    return 1.0 - q_bft_consistent(1.0 - p_benign, t)


def p_xft_consistent(p_benign: float, p_correct: float,
                     p_synchrony: float, t: int) -> float:
    """XPaxos with ``n = 2t + 1``: Section 6.1.1's closed form."""
    _check_probability("p_benign", p_benign)
    _check_probability("p_correct", p_correct)
    _check_probability("p_synchrony", p_synchrony)
    if p_correct > p_benign + 1e-12:
        raise ConfigurationError("p_correct cannot exceed p_benign")
    return 1.0 - q_xft_consistent(1.0 - p_benign, 1.0 - p_correct,
                                  1.0 - p_synchrony, t)


def p_xft_available(p_available: float, t: int) -> float:
    """XPaxos is available when at least ``t + 1`` of ``2t + 1`` machines
    are available (correct and synchronous), regardless of the rest
    (Section 6.2)."""
    _check_probability("p_available", p_available)
    return 1.0 - q_xft_available(1.0 - p_available, t)


def p_cft_available(p_available: float, p_benign: float, t: int) -> float:
    """CFT (Paxos) is available when a majority is available *and* the
    remaining machines are benign (Section 6.2.1)."""
    _check_probability("p_available", p_available)
    _check_probability("p_benign", p_benign)
    if p_available > p_benign + 1e-12:
        raise ConfigurationError(
            "p_available cannot exceed p_benign (available implies correct)")
    return 1.0 - q_cft_available(1.0 - p_available, 1.0 - p_benign, t)


def p_bft_available(p_available: float, t: int) -> float:
    """Asynchronous BFT with ``n = 3t + 1`` is available when at least
    ``2t + 1`` machines are available (Section 6.2.2)."""
    _check_probability("p_available", p_available)
    return 1.0 - q_bft_available(1.0 - p_available, t)


# ---------------------------------------------------------------------------
# Table 1 -- the fault-tolerance matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultToleranceRow:
    """One row of Table 1: the maximum number of each type of fault a
    protocol class tolerates while preserving the named property.

    ``combined`` marks thresholds that apply to the *sum* of fault types.
    """

    model: str
    property: str
    non_crash: int
    crash: int
    partitioned: int
    combined: bool = False


def fault_tolerance_table(n: int) -> List[FaultToleranceRow]:
    """Regenerate Table 1 for an ``n``-replica deployment.

    Entries are integers (maximum counts) exactly as printed in the paper,
    with the convention that combined rows state the threshold on the sum.
    """
    if n < 3:
        raise ConfigurationError("Table 1 needs n >= 3")
    t_cft = (n - 1) // 2
    t_bft = (n - 1) // 3
    return [
        FaultToleranceRow("async CFT", "consistency", 0, n, n - 1),
        FaultToleranceRow("async CFT", "availability", 0, t_cft, t_cft,
                          combined=True),
        FaultToleranceRow("async BFT", "consistency", t_bft, n, n - 1),
        FaultToleranceRow("async BFT", "availability", t_bft, t_bft, t_bft,
                          combined=True),
        FaultToleranceRow("sync BFT", "consistency", n - 1, n, 0),
        FaultToleranceRow("sync BFT", "availability", n - 1, n - 1, 0,
                          combined=True),
        FaultToleranceRow("XFT", "consistency (no non-crash)", 0, n, n - 1),
        FaultToleranceRow("XFT", "consistency (with non-crash)",
                          t_cft, t_cft, t_cft, combined=True),
        FaultToleranceRow("XFT", "availability", t_cft, t_cft, t_cft,
                          combined=True),
    ]


def anarchy(t: int, tnc: int, tc: int, tp: int) -> bool:
    """Definition 2: anarchy iff ``tnc > 0`` and ``tnc + tc + tp > t``."""
    if min(tnc, tc, tp) < 0:
        raise ConfigurationError("fault counts must be >= 0")
    return tnc > 0 and (tnc + tc + tp) > t
