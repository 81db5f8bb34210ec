"""The coordination service as a replicated state machine.

Wraps :class:`DataTree` in the :class:`StateMachine` interface so any of the
five protocols can replicate it -- which is exactly the paper's ZooKeeper
integration ("the integration of the various protocols inside ZooKeeper was
carried out by replacing the Zab protocol", Section 5.5).

Operations are tuples ``(verb, *args)``; errors are returned as
``("error", code)`` values rather than raised, because a deterministic state
machine must reply identically on every replica.
"""

from __future__ import annotations

from typing import Any

from repro.smr.app import StateMachine
from repro.zk.datatree import DataTree, ZkError


def zk_write_op(client_id: int, seq: int,
                payload_size: int = 1024) -> tuple:
    """The macro-benchmark operation: a 1 kB ``set`` on a per-client znode
    (created on first use).  Matches "each client invokes 1 kB write
    operations in a closed loop" (Section 5.5).

    The payload is represented by its size, not real bytes, so the digest
    stays cheap while the wire-size accounting remains exact.
    """
    return ("bench-write", f"/bench/c{client_id}", seq, payload_size)


class CoordinationService(StateMachine):
    """Replicated ZooKeeper-like service."""

    #: Figure 10's operation: each client writes its own znode.
    benchmark_op = staticmethod(zk_write_op)

    def __init__(self) -> None:
        self.tree = DataTree()
        self.tree.create("/bench", b"")

    # ------------------------------------------------------------------
    def execute(self, operation: Any) -> Any:
        if not isinstance(operation, tuple) or not operation:
            return ("error", "BadArguments")
        verb = operation[0]
        try:
            return self._dispatch(verb, operation)
        except ZkError as err:
            return ("error", err.code)
        except (ValueError, TypeError):
            # A known verb with the wrong number of arguments, or an
            # argument of the wrong type (``bytes(None)``, an unhashable
            # session id).
            return ("error", "BadArguments")

    def _dispatch(self, verb: str, operation: tuple) -> Any:
        if verb == "create":
            _, path, data, *rest = operation
            ephemeral_owner = rest[0] if rest else 0
            sequential = rest[1] if len(rest) > 1 else False
            return ("ok", self.tree.create(path, data, ephemeral_owner,
                                           sequential))
        if verb == "get":
            _, path = operation
            data, version = self.tree.get(path)
            return ("ok", data, version)
        if verb == "set":
            _, path, data, *rest = operation
            version = rest[0] if rest else -1
            return ("ok", self.tree.set(path, data, version))
        if verb == "delete":
            _, path, *rest = operation
            self.tree.delete(path, rest[0] if rest else -1)
            return ("ok",)
        if verb == "exists":
            _, path = operation
            return ("ok", self.tree.exists(path))
        if verb == "children":
            _, path = operation
            return ("ok", tuple(self.tree.get_children(path)))
        if verb == "expire":
            _, session_id = operation
            return ("ok", tuple(self.tree.expire_session(session_id)))
        if verb == "bench-write":
            _, path, seq, size = operation
            if not self.tree.exists(path):
                self.tree.create(path, b"")
            # Store the logical write (seq, size): deterministic and cheap.
            version = self.tree.set(path, f"{seq}:{size}".encode())
            return ("ok", version)
        return ("error", "BadArguments")

    # ------------------------------------------------------------------
    def state_digest(self) -> bytes:
        return self.tree.digest()

    def snapshot(self) -> Any:
        return self.tree.snapshot()

    def restore(self, snapshot: Any) -> None:
        self.tree.restore(snapshot)
