"""Lightweight identifier types used across the package.

All identifiers are plain ``int`` or ``str`` aliases rather than wrapper
classes: they appear in millions of simulated messages, so they must be cheap
to hash, compare, and copy. The aliases exist to make signatures readable
(``def send(self, dst: ReplicaId, ...)``).
"""

from __future__ import annotations

from typing import Tuple

#: Index of a replica within the cluster, ``0 <= ReplicaId < n``.
ReplicaId = int

#: Identifier of a client machine.  Clients are numbered from 0 and live in a
#: separate namespace from replicas (the paper's set ``C``).
ClientId = int

#: XPaxos view number ``i`` (Section 4.1).  Views advance monotonically.
ViewNumber = int

#: Sequence number ``sn`` assigned by a primary to a request.
SequenceNumber = int

#: A request is uniquely identified by ``(client id, client timestamp)``:
#: the client timestamp ``tsc`` increases by one per request (Algorithm 1).
RequestId = Tuple[ClientId, int]
