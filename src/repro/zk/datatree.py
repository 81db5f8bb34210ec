"""The ZooKeeper data tree: hierarchical znodes with versions.

Implements the subset of ZooKeeper 3.4 semantics exercised by the paper's
macro-benchmark (1 kB ``setData``/``create`` writes) plus the operations a
coordination-service user expects: ``create`` (persistent, ephemeral and
sequential flavours), ``get``/``set`` with version checks, ``delete``,
``exists``, ``get_children``.  All operations are deterministic, which is
what lets the tree sit below any of the replication protocols.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class ZkError(Exception):
    """ZooKeeper-style error, carrying a code string."""

    def __init__(self, code: str, path: str = "") -> None:
        super().__init__(f"{code}: {path}" if path else code)
        self.code = code
        self.path = path


@dataclass
class Znode:
    """One node of the tree."""

    path: str
    data: bytes
    version: int = 0
    cversion: int = 0          # child-list version
    ephemeral_owner: int = 0   # session id, 0 for persistent nodes
    sequential_counter: int = 0
    children: List[str] = field(default_factory=list)

    @property
    def is_ephemeral(self) -> bool:
        """Nodes bound to a session disappear when it expires."""
        return self.ephemeral_owner != 0


def _parent_path(path: str) -> str:
    if path == "/":
        raise ZkError("NoNode", "/..")
    parent = path.rsplit("/", 1)[0]
    return parent or "/"


def _validate_path(path: str) -> None:
    if not path.startswith("/"):
        raise ZkError("BadArguments", path)
    if path != "/" and path.endswith("/"):
        raise ZkError("BadArguments", path)
    if "//" in path:
        raise ZkError("BadArguments", path)


class DataTree:
    """The deterministic znode store."""

    def __init__(self) -> None:
        root = Znode(path="/", data=b"")
        self._nodes: Dict[str, Znode] = {"/": root}
        self._ephemerals: Dict[int, List[str]] = {}

    # ------------------------------------------------------------------
    def create(self, path: str, data: bytes, ephemeral_owner: int = 0,
               sequential: bool = False) -> str:
        """Create a znode; returns the actual path (sequential nodes get a
        zero-padded counter suffix, as in ZooKeeper)."""
        _validate_path(path)
        parent_path = _parent_path(path)
        parent = self._nodes.get(parent_path)
        if parent is None:
            raise ZkError("NoNode", parent_path)
        if parent.is_ephemeral:
            raise ZkError("NoChildrenForEphemerals", parent_path)
        actual = path
        if sequential:
            actual = f"{path}{parent.sequential_counter:010d}"
            parent.sequential_counter += 1
        if actual in self._nodes:
            raise ZkError("NodeExists", actual)
        node = Znode(path=actual, data=bytes(data),
                     ephemeral_owner=ephemeral_owner)
        self._nodes[actual] = node
        parent.children.append(actual.rsplit("/", 1)[1])
        parent.cversion += 1
        if ephemeral_owner:
            self._ephemerals.setdefault(ephemeral_owner, []).append(actual)
        return actual

    def get(self, path: str) -> Tuple[bytes, int]:
        """Return ``(data, version)``."""
        node = self._require(path)
        return node.data, node.version

    def set(self, path: str, data: bytes, version: int = -1) -> int:
        """Overwrite data; ``version = -1`` skips the optimistic check.
        Returns the new version."""
        node = self._require(path)
        if version != -1 and node.version != version:
            raise ZkError("BadVersion", path)
        node.data = bytes(data)
        node.version += 1
        return node.version

    def delete(self, path: str, version: int = -1) -> None:
        """Remove a childless znode."""
        if path == "/":
            raise ZkError("BadArguments", path)
        node = self._require(path)
        if node.children:
            raise ZkError("NotEmpty", path)
        if version != -1 and node.version != version:
            raise ZkError("BadVersion", path)
        del self._nodes[path]
        parent = self._nodes[_parent_path(path)]
        parent.children.remove(path.rsplit("/", 1)[1])
        parent.cversion += 1
        if node.ephemeral_owner:
            owned = self._ephemerals.get(node.ephemeral_owner, [])
            if path in owned:
                owned.remove(path)

    def exists(self, path: str) -> bool:
        """Does ``path`` name a znode?"""
        _validate_path(path)
        return path in self._nodes

    def get_children(self, path: str) -> List[str]:
        """Sorted child names of a znode."""
        return sorted(self._require(path).children)

    def expire_session(self, session_id: int) -> List[str]:
        """Delete all ephemerals of a session; returns the removed paths."""
        removed = []
        for path in list(self._ephemerals.get(session_id, [])):
            if path in self._nodes and not self._nodes[path].children:
                self.delete(path)
                removed.append(path)
        self._ephemerals.pop(session_id, None)
        return removed

    # ------------------------------------------------------------------
    def _require(self, path: str) -> Znode:
        _validate_path(path)
        node = self._nodes.get(path)
        if node is None:
            raise ZkError("NoNode", path)
        return node

    def digest(self) -> bytes:
        """Deterministic digest of the whole tree."""
        h = hashlib.sha256()
        for path in sorted(self._nodes):
            node = self._nodes[path]
            h.update(path.encode())
            h.update(node.data)
            h.update(str((node.version, node.cversion,
                          node.ephemeral_owner,
                          node.sequential_counter)).encode())
        return h.digest()

    def snapshot(self) -> dict:
        """Copyable representation for checkpoints."""
        return {
            path: (node.data, node.version, node.cversion,
                   node.ephemeral_owner, node.sequential_counter,
                   list(node.children))
            for path, node in self._nodes.items()
        }

    def restore(self, snapshot: dict) -> None:
        """Rebuild the tree from :meth:`snapshot` output."""
        self._nodes = {}
        self._ephemerals = {}
        for path, fields_ in snapshot.items():
            data, version, cversion, owner, counter, children = fields_
            node = Znode(path=path, data=bytes(data), version=version,
                         cversion=cversion, ephemeral_owner=owner,
                         sequential_counter=counter,
                         children=list(children))
            self._nodes[path] = node
            if owner:
                self._ephemerals.setdefault(owner, []).append(path)

    def __len__(self) -> int:
        return len(self._nodes)
