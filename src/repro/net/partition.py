"""Network partitions and the paper's Definition 1 of partitioned replicas.

A partition is modelled as a set of blocked node pairs: while a pair is
blocked, messages between them are silently dropped (the simulator's
equivalent of "cannot be delivered and processed within delay Delta").

:func:`partitioned_replicas` implements Definition 1: a replica is
partitioned iff it is not in the largest subset of replicas in which every
pair communicates timely.  Ties pick one largest subset arbitrarily (but
deterministically), exactly as the paper allows.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Set, Tuple


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class PartitionController:
    """Mutable record of which node pairs are currently blocked.

    Nodes are identified by their network names (e.g. ``"r0"``, ``"c3"``).
    Supports symmetric pairwise blocking, full isolation of one node, and
    splitting the cluster into named groups.
    """

    def __init__(self) -> None:
        self._blocked: Set[Tuple[str, str]] = set()

    def blocked(self, a: str, b: str) -> bool:
        """True if messages between ``a`` and ``b`` are currently dropped."""
        return _pair(a, b) in self._blocked

    def block_pair(self, a: str, b: str) -> None:
        """Sever the bidirectional link between ``a`` and ``b``."""
        if a == b:
            raise ValueError("cannot partition a node from itself")
        self._blocked.add(_pair(a, b))

    def unblock_pair(self, a: str, b: str) -> None:
        """Heal the link. Idempotent."""
        self._blocked.discard(_pair(a, b))

    @property
    def blocked_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """Snapshot of currently blocked pairs."""
        return frozenset(self._blocked)


def partitioned_replicas(
    replicas: Iterable[str],
    timely: "callable",
) -> FrozenSet[str]:
    """Compute the set of partitioned replicas per Definition 1.

    Args:
        replicas: names of all replicas.
        timely: predicate ``timely(a, b) -> bool`` -- can ``a`` and ``b``
            exchange a message within Delta right now.

    Returns:
        The replicas *not* in the largest clique of pairwise-timely
        replicas.  With multiple maximum cliques, the lexicographically
        smallest is chosen so the result is deterministic (the paper says
        "only one of them is recognized as the largest subset").
    """
    nodes: List[str] = sorted(replicas)
    n = len(nodes)
    best: Tuple[str, ...] = ()
    # n is small (the paper evaluates n in {3, 5, 7}); exhaustive search over
    # subsets, largest first, is exact and fast enough.
    for size in range(n, 0, -1):
        if size <= len(best):
            break
        for combo in itertools.combinations(nodes, size):
            if all(timely(a, b)
                   for a, b in itertools.combinations(combo, 2)):
                best = combo
                break
        if best and len(best) == size:
            break
    return frozenset(nodes) - frozenset(best)
