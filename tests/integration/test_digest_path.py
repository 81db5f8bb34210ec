"""The digest path in real cells.

The micro-benchmarks once showed a 9x digest cache that no real cell ever
hit.  These two cells pin what the end-to-end ledger
(``benchmarks/e2e``) measures nightly, inside tier-1: the encoding memo
engages, and the XPaxos common case stays at its per-commit digest
budget -- so a change that re-introduces a per-hop (or even a per-batch)
re-encode fails here, not a day later.
"""

import dataclasses

from repro.common.config import ProtocolName
from repro.crypto.primitives import digest_cache_stats
from repro.harness.matrix import PASS, MatrixRunner
from repro.scenarios.library import get_scenario

#: ``digest_of`` calls per committed request in the t = 1 common case
#: with 16 closed-loop clients.  Per request: the client's signature, the
#: reply's channel MAC, and the result digest at follower, passive
#: replica, primary and client (6); per batch of 16: the bodies digest,
#: ``m0``, ``m1`` and the two reply-set digests (5/16).  Everything else
#: (request verification at both replicas, ``m0``/``m1`` verification at
#: replicas and all 16 clients) rides on carried digests.
COMMON_CASE_BUDGET = 6.5


def run_xpaxos_cell(scenario):
    """Run one cell; returns its grade, the ``digest_of`` calls it made
    by kind, and the number of view changes its replicas completed."""
    view_changes = []

    def probe(runtime):
        view_changes.append(max(r.view_changes_completed
                                for r in runtime.replicas))

    before = digest_cache_stats()
    result = MatrixRunner(seed=0).run_cell(ProtocolName.XPAXOS, scenario,
                                           probe=probe)
    after = digest_cache_stats()
    assert result.status == PASS, result
    digests = {key: after[key] - before[key] for key in after}
    return result, digests, view_changes[0]


def test_common_case_stays_within_its_digest_budget():
    scenario = dataclasses.replace(
        get_scenario("fault-free"), duration_ms=1_000.0, warmup_ms=100.0,
        num_clients=16)
    result, digests, view_changes = run_xpaxos_cell(scenario)
    assert result.committed > 1_000 and view_changes == 0
    # Every reply after the first of a batch reuses the FastCommit's
    # kept encoding.
    assert digests["hits"] > result.committed // 2
    per_commit = sum(digests.values()) / result.committed
    assert per_commit <= COMMON_CASE_BUDGET, per_commit


def test_memo_engages_on_the_general_path_view_change():
    _, digests, view_changes = run_xpaxos_cell(
        get_scenario("crash-primary-t2"))
    assert view_changes > 0
    # VIEW-CHANGE messages re-digested inside every VC-FINAL set, and
    # commit-log entries shared between them, answer from the memo.
    assert digests["hits"] > 0
