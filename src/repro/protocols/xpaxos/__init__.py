"""XPaxos: the first XFT state-machine-replication protocol (Section 4).

Modules:

* :mod:`repro.protocols.xpaxos.groups` -- the view-to-synchronous-group
  mapping (Section 4.3.1).  The paper fixes the rotation for t = 1
  (Table 2, reproduced exactly) and asks only for "a mapping known to all
  replicas" otherwise; for t >= 2 each group is followed by the unused
  one that does not contain its primary and shares the fewest replicas
  with it, so that a crashed primary costs one view change.
* :mod:`repro.protocols.xpaxos.messages` -- every wire message of the
  protocol (common case, view change, fault detection, checkpointing,
  lazy replication, retransmission);
  :mod:`repro.protocols.xpaxos.signed` -- what a signed one declares and
  the one check built on it.
* :mod:`repro.protocols.xpaxos.replica` -- the replica's core: roles,
  dispatch, Algorithms 1-2, replies, recovery.  It hands the rest to five
  components, each of which owns its state and registers its own
  messages:

  * :mod:`repro.protocols.xpaxos.view_change` -- ``ViewChanger``:
    suspicion, Algorithm 3, the hand-off to fault detection (Algorithm
    5), with the selection rule of Section 4.3.3 in
    :mod:`repro.protocols.xpaxos.selection`;
  * :mod:`repro.protocols.xpaxos.checkpoint` -- ``Checkpointer``:
    PRECHK / CHKPT / LAZYCHK, proof validation, ``install`` (4.5.1);
  * :mod:`repro.protocols.xpaxos.lazy` -- ``LazyReplicator``: LAZY-COMMIT,
    FETCH-ENTRIES / FETCH-REPLY (4.5.2);
  * :mod:`repro.protocols.xpaxos.retransmission` -- ``Retransmitter``:
    the replica side of Algorithm 4;
  * :mod:`repro.protocols.xpaxos.progress` -- ``ProgressWatch``: an
    active replica suspects a view whose prepared slot does not commit
    within ``commit_bound_ms`` (Section 4.3.2 without the client).
* :mod:`repro.protocols.xpaxos.detection` -- ``FaultDetector``: Algorithm
  6's predicates (state-loss, fork-I, fork-II) and accusations; built by
  the ``ViewChanger`` only when fault detection is configured.
* :mod:`repro.protocols.xpaxos.client` -- signed requests, the commit rule,
  and the client side of Algorithm 4.
"""

from repro.protocols.xpaxos.groups import SynchronousGroups
from repro.protocols.xpaxos.client import XPaxosClient
from repro.protocols.xpaxos.replica import XPaxosReplica

__all__ = ["SynchronousGroups", "XPaxosReplica", "XPaxosClient"]
