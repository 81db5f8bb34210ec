"""Zyzzyva leader faults: commit-certificate fallback and view change."""

from repro.common.config import ProtocolName
from repro.faults.injector import FaultSchedule
from tests.conftest import make_harness


def run_with_crash(crash_at, downtime, duration=8_000.0, victim=0):
    harness = make_harness(ProtocolName.ZYZZYVA)
    harness.arm(FaultSchedule().crash_for(crash_at, victim, downtime))
    driver = harness.drive(duration_ms=duration)
    return harness, driver


class TestCommitCertFallback:
    def test_follower_crash_degrades_to_certified_commits(self):
        """With a backup down the client cannot gather all 3t + 1
        speculative replies; it must fall back to 2t + 1 matching plus a
        forwarded commit certificate -- no view change required."""
        harness, driver = run_with_crash(1_000.0, 2_000.0, victim=3)
        harness.checker.assert_safe()
        assert driver.throughput.total > 100
        assert sum(c.fallback_commits
                   for c in harness.runtime.clients) > 0
        assert sum(r.certs_received for r in harness.replicas) > 0

    def test_commits_flow_during_the_follower_outage(self):
        harness, _ = run_with_crash(1_000.0, 2_000.0, victim=3)
        during = [t for c in harness.runtime.clients
                  for _, t, _ in c.completions if 1_500.0 < t < 2_500.0]
        assert during, "no commits while the backup was down"

    def test_no_certs_in_fault_free_run(self):
        harness = make_harness(ProtocolName.ZYZZYVA)
        harness.drive(duration_ms=3_000.0)
        assert sum(c.fallback_commits
                   for c in harness.runtime.clients) == 0
        assert all(r.view == 0 for r in harness.replicas)


class TestViewChange:
    def test_progress_resumes_after_primary_crash(self):
        harness, driver = run_with_crash(1_000.0, 2_000.0)
        harness.checker.assert_safe()
        assert driver.throughput.total > 500
        live_views = {r.view for r in harness.replicas if not r.crashed}
        assert max(live_views) >= 1

    def test_commits_continue_after_failover_settles(self):
        harness, driver = run_with_crash(1_000.0, 2_000.0)
        last_commit = max(c.completions[-1][1]
                          for c in harness.runtime.clients
                          if c.completions)
        assert last_commit > 7_000.0, \
            f"commits stopped at t={last_commit:.0f} ms"

    def test_speculative_history_survives_failover(self):
        """The new primary adopts the longest speculative history: every
        client observes gap-free monotone timestamps across views."""
        harness, driver = run_with_crash(1_500.0, 2_000.0)
        harness.checker.assert_safe()
        assert harness.checker.violations() == []
        for client in harness.runtime.clients:
            timestamps = [rid[1] for _, _, rid in client.completions]
            assert timestamps == list(range(1, len(timestamps) + 1))

    def test_quorum_blackout_recovers(self):
        harness = make_harness(ProtocolName.ZYZZYVA)
        harness.arm(FaultSchedule()
                    .crash_for(1_500.0, 1, 1_500.0)
                    .crash_for(1_500.0, 2, 1_500.0))
        driver = harness.drive(duration_ms=8_000.0)
        harness.checker.assert_safe()
        last_commit = max(c.completions[-1][1]
                          for c in harness.runtime.clients
                          if c.completions)
        assert last_commit > 7_000.0
