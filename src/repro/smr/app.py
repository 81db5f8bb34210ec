"""Replicated applications (deterministic state machines).

The SMR problem (Section 2) orders opaque client operations; the
applications here give those operations meaning:

* :class:`NullService` -- the paper's microbenchmark service: execution is a
  no-op and the reply has a configurable size (the "1/0" and "4/0"
  benchmarks replicate a null service).
* :class:`KVStore` -- a deterministic key-value store used by the examples
  and the safety checker (divergent states are easy to detect by digest).

Every state machine must be deterministic: the same sequence of operations
from the same initial state yields the same sequence of replies and the same
final state digest.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Sequence


class StateMachine(ABC):
    """Interface every replicated application implements.

    Replicas execute whole slots (:meth:`execute_batch`) and read
    :meth:`state_digest` / :meth:`snapshot` only between slots, so a slot
    boundary is the only place two replicas' states have to compare equal.
    """

    @abstractmethod
    def execute(self, operation: Any) -> Any:
        """Apply ``operation`` and return its reply. Must be deterministic."""

    def execute_batch(self, operations: Sequence[Any]) -> List[Any]:
        """Apply one slot's operations in order and return their replies.
        An application with work to share across a slot overrides this."""
        return [self.execute(operation) for operation in operations]

    @abstractmethod
    def state_digest(self) -> bytes:
        """Digest of the full application state (checkpointing, divergence
        detection)."""

    @abstractmethod
    def snapshot(self) -> Any:
        """Serializable copy of the state (checkpoint payload).  Changes
        nothing, and round-trips: a fresh instance that ``restore``s it
        has this instance's ``state_digest()`` now and after the same
        further slots -- a replica brought up to date by state transfer
        votes in the next checkpoint like any other."""

    @abstractmethod
    def restore(self, snapshot: Any) -> None:
        """Replace the state with ``snapshot`` (state transfer)."""

    def benchmark_op(self, client_id: int, seq: int) -> Any:
        """The operation a benchmark client sends as its ``seq``-th
        request: by default the counter itself."""
        return seq


class NullService(StateMachine):
    """The microbenchmark application: no execution work, sized replies.

    Section 5.1.3: "each server replicates a null service (this means that
    there is no execution of requests)".  The state is the number of
    executed operations and a hash chained over the executed slots, so
    that order divergence is still observable in tests: one 32-byte link
    per slot, which a snapshot can carry (a running ``hashlib`` object
    cannot be resumed elsewhere).
    """

    def __init__(self, reply_size: int = 0) -> None:
        if reply_size < 0:
            raise ValueError("reply_size must be >= 0")
        self.reply_size = reply_size
        self._executed = 0
        self._order = b""

    def execute(self, operation: Any) -> Any:
        return self.execute_batch((operation,))[0]

    def execute_batch(self, operations: Sequence[Any]) -> List[Any]:
        self._executed += len(operations)
        self._order = hashlib.sha256(
            self._order + "".join(map(repr, operations)).encode()).digest()
        return [b"\x00" * self.reply_size] * len(operations)

    def state_digest(self) -> bytes:
        return hashlib.sha256(
            self._order + str(self._executed).encode()).digest()

    def snapshot(self) -> Any:
        return (self._executed, self._order)

    def restore(self, snapshot: Any) -> None:
        self._executed, self._order = snapshot


class KVStore(StateMachine):
    """A deterministic key-value store.

    Operations are tuples:

    * ``("put", key, value)`` -> previous value or None
    * ``("get", key)`` -> value or None
    * ``("delete", key)`` -> deleted value or None
    * ``("cas", key, expected, new)`` -> bool success
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._version = 0

    def execute(self, operation: Any) -> Any:
        if not isinstance(operation, tuple) or not operation:
            raise ValueError(f"malformed KV operation: {operation!r}")
        op = operation[0]
        if op == "put":
            _, key, value = operation
            previous = self._data.get(key)
            self._data[key] = value
            self._version += 1
            return previous
        if op == "get":
            _, key = operation
            return self._data.get(key)
        if op == "delete":
            _, key = operation
            self._version += 1
            return self._data.pop(key, None)
        if op == "cas":
            _, key, expected, new = operation
            if self._data.get(key) == expected:
                self._data[key] = new
                self._version += 1
                return True
            return False
        raise ValueError(f"unknown KV operation: {op!r}")

    def state_digest(self) -> bytes:
        h = hashlib.sha256()
        for key in sorted(self._data):
            h.update(repr(key).encode())
            h.update(repr(self._data[key]).encode())
        h.update(str(self._version).encode())
        return h.digest()

    def snapshot(self) -> Any:
        return (dict(self._data), self._version)

    def restore(self, snapshot: Any) -> None:
        data, version = snapshot
        self._data = dict(data)
        self._version = version

    def get(self, key: str) -> Optional[Any]:
        """Local read helper for tests (bypasses replication)."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)
