"""One execute -> reply core for all five protocols (docs/execution.md).

A duplicate of a request -- in flight or already executed -- is ordered
once and, once executed, answered from the reply cache; and the
application is only ever touched from the core in ``smr/``.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.common.config import ProtocolName
from tests.conftest import make_harness


@pytest.mark.parametrize("protocol", list(ProtocolName),
                         ids=[p.value for p in ProtocolName])
def test_duplicate_request_ordered_once_then_answered_from_cache(protocol):
    harness = make_harness(protocol)
    client, leader = harness.runtime.clients[0], harness.replica(0)
    results = []
    client.on_result = results.append
    replies = []

    def record_replies(src, dst, payload):
        if dst == client.name:
            replies.append((src, payload))
        return True

    harness.runtime.network.send_filter = record_replies

    request = client.propose(("put", "k", "v"), size_bytes=16)
    client.send_request(request)  # duplicates racing the original
    client.send_request(request)
    harness.sim.run(until=500.0)
    assert len(results) == 1 and not client.busy
    times_executed = [
        sum(rid == request.rid for _, rid in replica.execution_trace)
        for replica in harness.replicas]
    assert times_executed[0] == 1 and max(times_executed) == 1
    slots, executed = leader.sn, leader.committed_requests
    cached = leader.cached_reply(request.client, request.timestamp)
    assert cached is not None and cached.timestamp == request.timestamp

    del replies[:]
    client.send_request(request)  # duplicate of an executed request
    harness.sim.run(until=1_000.0)
    assert (leader.sn, leader.committed_requests) == (slots, executed)
    assert [payload for src, payload in replies
            if src == leader.name] == [cached]
    assert len(results) == 1  # the idle client ignores the re-sent reply
    assert harness.checker.violations() == []


def _app_calls(method):
    """``(path, line)`` of every ``<expr>.app.<method>(...)`` call in
    the package source."""
    root = Path(repro.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == method
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "app"):
                sites.append((path.relative_to(root).as_posix(),
                              node.lineno))
    return sites


@pytest.mark.parametrize("method", ["execute", "restore"])
def test_application_is_touched_from_one_site_under_smr(method):
    sites = _app_calls(method)
    assert len(sites) == 1, sites
    assert sites[0][0].startswith("smr/"), sites
