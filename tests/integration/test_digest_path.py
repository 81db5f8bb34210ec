"""The digest path in real cells.

The micro-benchmarks once showed a 9x digest cache that no real cell ever
hit.  These cells pin what the end-to-end ledger (``benchmarks/e2e``)
measures nightly, inside tier-1: the encoding memo engages, and the
common case of XPaxos, PBFT and Zab stays at its per-commit digest
budget -- so a change that re-introduces a per-hop (or even a per-batch)
re-encode, digests a result for a reply nobody reads, or hashes a slot's
one result once per reply, fails here, not a day later.
"""

import dataclasses

import pytest

from repro.common.config import ProtocolName
from repro.crypto.primitives import digest_cache_stats
from repro.harness.matrix import PASS, grade, scenario_cell
from repro.harness.runner import run_cell
from repro.scenarios.library import get_scenario

#: ``digest_of`` calls per committed request in the fault-free common case
#: with 16 closed-loop clients at t = 1 (measured value in brackets).  A
#: slot holds the 16 requests, and a replica that answers it hashes one
#: result per slot (``digest_each``: the null service answers the whole
#: slot with one object), not one per reply.
#:
#: XPaxos [3.38].  Per request: the client's signature, the reply's
#: channel MAC and the result digest at the client (3); per batch of 16:
#: the bodies digest, ``m0``, ``m1``, the two reply-set digests and the
#: primary's result digest (6/16).  The follower and the passive replica
#: digest no result: they build no reply unless Algorithm 4 asks.
#: Everything else (request verification at both replicas, ``m0``/``m1``
#: verification at replicas and all 16 clients) rides on carried digests.
#:
#: PBFT [0.25].  Per batch: the bodies digest and the result digest of
#: each of the 2t + 1 = 3 active replicas (4/16); the clients compare the
#: digests their replies carry.
#:
#: Zab [0.0625].  The leader's result digest, once per batch, and nothing
#: else: channels carry modelled MACs, and a follower contributes none --
#: it caches a pointer, not a reply.
COMMON_CASE_BUDGET = {
    ProtocolName.XPAXOS: 3.4,
    ProtocolName.PBFT: 0.26,
    ProtocolName.ZAB: 0.07,
}


def run_graded(protocol, scenario):
    """Run one cell; returns its grade, the ``digest_of`` calls it made
    by kind, and the number of view changes its replicas completed."""
    cell = scenario_cell(protocol, scenario)
    before = digest_cache_stats()
    record = run_cell(cell)
    after = digest_cache_stats()
    result = grade(protocol, scenario, record)
    assert result.status == PASS, result
    digests = {key: after[key] - before[key] for key in after}
    return result, digests, max(record.view_changes.values())


def common_case_digests(protocol):
    """The fault-free cell's ``digest_of`` calls by kind, and its commits."""
    scenario = dataclasses.replace(
        get_scenario("fault-free"), duration_ms=1_000.0, warmup_ms=100.0,
        num_clients=16)
    result, digests, view_changes = run_graded(protocol, scenario)
    assert result.committed > 1_000 and view_changes == 0
    return digests, result.committed


def test_common_case_stays_within_its_digest_budget():
    digests, committed = common_case_digests(ProtocolName.XPAXOS)
    # Every reply after the first of a batch reuses the FastCommit's
    # kept encoding.
    assert digests["hits"] > committed // 2
    per_commit = sum(digests.values()) / committed
    assert per_commit <= COMMON_CASE_BUDGET[ProtocolName.XPAXOS], per_commit


@pytest.mark.parametrize("protocol", [ProtocolName.PBFT, ProtocolName.ZAB],
                         ids=["pbft", "zab"])
def test_baseline_common_case_stays_within_its_digest_budget(protocol):
    digests, committed = common_case_digests(protocol)
    per_commit = sum(digests.values()) / committed
    assert per_commit <= COMMON_CASE_BUDGET[protocol], per_commit


def test_memo_engages_on_the_general_path_view_change():
    _, digests, view_changes = run_graded(
        ProtocolName.XPAXOS, get_scenario("crash-primary-t2"))
    assert view_changes > 0
    # VIEW-CHANGE messages re-digested inside every VC-FINAL set, and
    # commit-log entries shared between them, answer from the memo.
    assert digests["hits"] > 0
