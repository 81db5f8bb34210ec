"""Synchronous-group selection (Section 4.3.1).

Every view number ``i`` deterministically maps to a *synchronous group*
``sg_i`` of ``t + 1`` active replicas (one primary + ``t`` followers); the
remaining ``t`` replicas are passive.  The paper enumerates all
``C(2t+1, t+1)`` subsets and rotates through them round-robin, so that
"eventually, view change in XPaxos will complete with t + 1 correct and
synchronous active replicas" (Section 4.6, availability).

What the paper fixes is the rotation for ``t = 1``, Table 2, which this
module reproduces exactly:

====================  =====  ======  ======
view (mod 3)            i     i + 1   i + 2
====================  =====  ======  ======
primary                s0     s0      s1
follower               s1     s2      s2
passive                s2     s1      s0
====================  =====  ======  ======

For general ``t`` it asks only for "a mapping known to all replicas"
(Section 4.3.1): which of the combinations follows which is left open,
and it decides what a crash costs.  A view is most often abandoned
because its primary stopped answering, so the order used here moves away
from the suspected group (see :class:`SynchronousGroups`); enumerating
the combinations lexicographically would instead try, at ``t = 2``, five
more groups led by the crashed ``s0`` before the first one without it.
"""

from __future__ import annotations

import itertools
from typing import Collection, List, Tuple

from repro.common.errors import ConfigurationError


def _rotation(n: int, t: int) -> List[Tuple[int, ...]]:
    """All ``C(n, t + 1)`` groups in rotation order (a pure function of
    ``(n, t)``, so every replica computes the same list)."""
    combos = list(itertools.combinations(range(n), t + 1))
    if t == 1:
        return combos  # Table 2
    order, unused = combos[:1], combos[1:]
    while unused:
        primary, abandoned = order[-1][0], set(order[-1])
        # Away from the suspected primary while a group without it is
        # left, and in any case into the group that shares the fewest
        # replicas with the one being abandoned.
        candidates = [g for g in unused if primary not in g] or unused
        following = min(
            candidates, key=lambda g: (len(abandoned.intersection(g)), g))
        unused.remove(following)
        order.append(following)
    return order


class SynchronousGroups:
    """The deterministic ``view -> synchronous group`` mapping.

    Within a group the lowest replica id is the primary.  For ``t = 1``
    the groups rotate as in the paper's Table 2.  For ``t >= 2`` view 0 is
    ``(0, ..., t)`` and each view's group is followed by the one, among
    those not yet used in the cycle, that does not contain its primary and
    shares the fewest replicas with it (ties go to the lexicographically
    smallest; once every unused group contains the primary, the
    fewest-shared rule alone decides).  The order is still a permutation
    of all ``C(2t+1, t+1)`` combinations, so every group gets its turn
    once per cycle -- which is all Section 4.6's availability argument
    needs -- but a crashed replica spoils at most 4 consecutive views at
    ``t = 2`` (7 at ``t = 3``) where the lexicographic enumeration gives
    it 6 (20), and a crashed *primary* is not in the next view.

    Two groups of ``t + 1`` out of ``2t + 1`` always share a replica, so
    the next group may still hold a crashed *follower*.  A replica that
    suspects a view knowing which of its members it could not hear goes
    to :meth:`next_view_avoiding` them, instead of paying the next view's
    2-Delta gather to learn it again.  It knows only behind a guard
    against being the one cut off itself: another member heard for the
    slot it watched (``ProgressWatch``), or at least ``t + 1``
    VIEW-CHANGEs at the end of the gather (``ViewChanger._on_net_timer``).
    Every other ground moves to ``view + 1``.  The skip is safe: entering
    a later view is what a VIEW-CHANGE for it does anyway, the selection
    never reads the views in between, and a skipped view never had a
    NEW-VIEW, so nothing committed in it.  It keeps Section 4.6: a group
    of ``t + 1`` correct, synchronous replicas is never skipped, since
    each of its members is heard within the bound, and with at most ``t``
    replicas to avoid the target lies within one cycle.

    The alternative the paper names is not implemented: "For a large
    number of replicas, the combinatorial number of synchronous groups
    may be inefficient.  To this end, XPaxos can be modified to rotate
    only the leader, which may then resort to deterministic verifiable
    pseudorandom selection of the set of f followers in each view"
    (Section 4.3.1).
    """

    def __init__(self, n: int, t: int) -> None:
        if n != 2 * t + 1:
            raise ConfigurationError(
                f"XPaxos requires n = 2t+1; got n={n}, t={t}"
            )
        self.n = n
        self.t = t
        self._groups = _rotation(n, t)

    @property
    def group_count(self) -> int:
        """Number of distinct synchronous groups, ``C(2t+1, t+1)``."""
        return len(self._groups)

    def group(self, view: int) -> Tuple[int, ...]:
        """Active replicas (sorted ids) of view ``view``."""
        if view < 0:
            raise ValueError(f"view must be >= 0, got {view}")
        return self._groups[view % len(self._groups)]

    def primary(self, view: int) -> int:
        """The primary of view ``view`` (lowest id in the group)."""
        return self.group(view)[0]

    def followers(self, view: int) -> Tuple[int, ...]:
        """The ``t`` followers of view ``view``."""
        return self.group(view)[1:]

    def passive(self, view: int) -> Tuple[int, ...]:
        """The ``t`` passive replicas of view ``view``."""
        active = set(self.group(view))
        return tuple(r for r in range(self.n) if r not in active)

    def is_active(self, view: int, replica: int) -> bool:
        """Is ``replica`` in the synchronous group of ``view``?"""
        return replica in self.group(view)

    def is_primary(self, view: int, replica: int) -> bool:
        """Is ``replica`` the primary of ``view``?"""
        return replica == self.primary(view)

    def next_view_avoiding(self, view: int, silent: Collection[int]) -> int:
        """Smallest view after ``view`` whose group holds no replica of
        ``silent``; ``view + 1`` when ``silent`` is empty or larger than
        ``t`` (then every group holds one of them)."""
        if not silent or len(silent) > self.t:
            return view + 1
        following = view + 1
        while not set(silent).isdisjoint(self.group(following)):
            following += 1
        return following
