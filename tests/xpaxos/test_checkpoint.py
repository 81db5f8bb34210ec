"""Tests for checkpointing and lazy replication (Section 4.5)."""

from repro.faults.adversary import Adversary
from repro.faults.injector import FaultSchedule
from repro.protocols.xpaxos import messages as msg
from repro.protocols.xpaxos.selection import select_state
from repro.smr.log import CommitEntry, PrepareEntry
from repro.smr.messages import Batch, Request
from tests.conftest import (
    checkpoint_proof,
    forgeries,
    make_cluster,
    make_harness,
    run_workload,
)


class TestCheckpointing:
    def test_logs_truncated_after_checkpoint(self):
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        primary = runtime.replica(0)
        assert primary.stable_checkpoint is not None
        assert primary.commit_log.low_water >= 10
        # Live entries are bounded by roughly one checkpoint period.
        assert len(primary.commit_log) <= 3 * 10

    def test_checkpoint_carries_t_plus_1_signatures(self):
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        proof = runtime.replica(0).stable_checkpoint
        assert len(proof.sigs) == runtime.config.t + 1
        # What the protocol itself produces passes the receivers' check.
        assert runtime.replica(2).checkpointer.proof_valid(proof)

    def test_checkpoints_advance(self):
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=1_000.0)
        first = runtime.replica(0).stable_checkpoint.seqno
        run_more = run_workload  # keep driving the same runtime
        # Continue the simulation directly: issue more requests.
        from repro.common.config import WorkloadConfig
        from repro.workloads.clients import ClosedLoopDriver

        driver = ClosedLoopDriver(
            runtime, WorkloadConfig(num_clients=len(runtime.clients),
                                    request_size=64, duration_ms=2_000.0,
                                    warmup_ms=1_000.0))
        driver.start()
        runtime.sim.run(until=2_000.0)
        assert runtime.replica(0).stable_checkpoint.seqno > first

    def test_checkpoint_state_digest_matches_across_actives(self):
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        digests = {runtime.replica(i).stable_checkpoint.state_digest
                   for i in (0, 1)}
        assert len(digests) == 1


def untouched(replica):
    """No state transfer happened on this (fresh) replica."""
    return (replica.ex == 0 and replica.app.snapshot()[0] == 0
            and replica.stable_checkpoint is None)


class _ForgedCheckpointAdversary(Adversary):
    """Reports a checkpoint far ahead of everyone, 'proved' by its own
    signature twice, in every VIEW-CHANGE it sends."""

    def mutate_view_change(self, replica, vc):
        forged = checkpoint_proof(
            replica.keystore, seqno=10_000, view=vc.new_view,
            signers=(replica.replica_id, replica.replica_id),
            snapshot=(10_000, b"\xee" * 32))
        return vc.resigned(replica.sign, checkpoint=forged)


class TestCheckpointProofVerification:
    """A checkpoint is installed only on t + 1 distinct signatures by
    members of its view's synchronous group over exactly its (seqno, view,
    state digest) -- on every path that can call ``restore``."""

    def test_honest_proof_installed_by_lazychk(self, xpaxos_t1):
        passive = xpaxos_t1.replica(2)
        proof = checkpoint_proof(xpaxos_t1.keystore)
        passive.checkpointer._on_lazychk("r0", msg.LazyChk(proof))
        assert (passive.ex, passive.sn) == (10, 10)
        assert passive.app.snapshot()[0] == 10
        assert passive.stable_checkpoint is proof

    @forgeries
    def test_forged_proof_rejected_by_lazychk(self, xpaxos_t1, forge):
        passive = xpaxos_t1.replica(2)
        proof = forge(xpaxos_t1.keystore)
        passive.checkpointer._on_lazychk("r0", msg.LazyChk(proof))
        assert untouched(passive)

    @forgeries
    def test_forged_proof_in_view_change_not_selected(self, xpaxos_t1, forge):
        """VIEW-CHANGE entry point: the forged proof claims the highest
        seqno, yet selection falls back to the best proof that verifies."""
        honest = checkpoint_proof(xpaxos_t1.keystore, seqno=5)
        forged = forge(xpaxos_t1.keystore)
        vcset = [msg.ViewChange(new_view=1, sender=sender, commit_entries=(),
                                checkpoint=proof, sig=None)
                 for sender, proof in ((1, honest), (2, forged))]
        _, selected = select_state(
            vcset, xpaxos_t1.replica(0).checkpointer.proof_valid,
            with_prepare_logs=False)
        assert selected is honest

    @forgeries
    def test_forged_proof_in_new_view_rejected_and_suspected(
            self, xpaxos_t1, forge):
        """NEW-VIEW entry point: a primary announcing a proof that does
        not verify is faulty -- the follower moves on instead of adopting
        the view, and restores nothing."""
        follower = xpaxos_t1.replica(2)  # follower of view 1 = (0, 2)
        changer = follower.view_changer
        changer._enter_view(1)
        forged = forge(xpaxos_t1.keystore)
        changer._adopt_new_view(changer._state,
                                msg.NewView(1, (), forged, None))
        assert untouched(follower)
        assert follower.view == 2 and follower.in_view_change

    def test_honest_proof_in_new_view_installed(self, xpaxos_t1):
        follower = xpaxos_t1.replica(2)
        changer = follower.view_changer
        changer._enter_view(1)
        proof = checkpoint_proof(xpaxos_t1.keystore)
        changer._adopt_new_view(changer._state,
                                msg.NewView(1, (), proof, None))
        assert follower.ex == 10 and follower.stable_checkpoint is proof
        assert follower.view == 1 and not follower.in_view_change

    def test_byzantine_view_change_cannot_move_correct_replicas(self):
        """End to end, outside anarchy (one non-crash fault, t = 1): the
        passive replica lies about a checkpoint during a view change; no
        correct replica restores it and the cluster keeps committing."""
        harness = make_harness(num_clients=3, non_crash_faulty=(2,))
        harness.replica(2).byzantine = _ForgedCheckpointAdversary()
        harness.arm(FaultSchedule().suspect(1_000.0, 1))
        driver = harness.drive(duration_ms=3_000.0)
        assert any(r.view_changes_completed for r in harness.replicas)
        for replica in harness.replicas[:2]:
            assert replica.ex < 10_000
            assert replica.stable_checkpoint is None \
                or replica.stable_checkpoint.seqno < 10_000
        late = [done for c in harness.runtime.clients
                for _, done, _ in c.completions if done > 2_000.0]
        assert late and driver.throughput.total > 0
        assert harness.checker.violations() == []


def caught_up(replica, slots):
    """Have ``replica`` commit and execute ``slots`` one-request slots, as
    a passive replica fed by lazy replication does."""
    for seqno in range(1, slots + 1):
        batch = Batch((Request(op="op", timestamp=seqno, client=0),))
        replica.commit_log.put(seqno, CommitEntry(seqno, 0, batch, ()))
        replica.prepare_log.put(seqno, PrepareEntry(seqno, 0, batch, None))
    replica.execute_ready()
    assert replica.ex == slots
    return replica


def observable(replica):
    """Everything adopting a checkpoint may change."""
    return (replica.ex, replica.sn, replica.app.snapshot(),
            replica.stable_checkpoint,
            [sn for sn, _ in replica.commit_log.items()],
            [sn for sn, _ in replica.prepare_log.items()],
            replica.commit_log.low_water, replica.prepare_log.low_water)


class TestCheckpointAdoptionWhenNotBehind:
    """Checkpointing garbage-collects every replica (Section 4.5.1): one
    that lazy replication keeps level with the actives takes no part in
    the PRECHK / CHKPT exchange, so the proof LAZYCHK brings is what
    truncates its logs -- restoring nothing, it needs no state."""

    def test_honest_proof_at_or_below_ex_is_adopted_without_restore(
            self, xpaxos_t1):
        passive = caught_up(xpaxos_t1.replica(2), 12)
        state = passive.app.snapshot()
        proof = checkpoint_proof(xpaxos_t1.keystore)  # seqno 10
        passive.checkpointer._on_lazychk("r0", msg.LazyChk(proof))
        assert passive.stable_checkpoint is proof
        for log in (passive.commit_log, passive.prepare_log):
            assert [sn for sn, _ in log.items()] == [11, 12]
            assert log.low_water == 10
        # Not the snapshot's ten: its own twelve executions.
        assert passive.ex == 12
        assert passive.app.snapshot() == state
        assert passive.app.snapshot()[0] == 12

    def test_proof_exactly_at_ex_is_adopted_without_restore(self, xpaxos_t1):
        passive = caught_up(xpaxos_t1.replica(2), 10)
        state = passive.app.snapshot()
        proof = checkpoint_proof(xpaxos_t1.keystore)
        assert passive.checkpointer.install(proof)
        assert passive.stable_checkpoint is proof
        assert len(passive.commit_log) == len(passive.prepare_log) == 0
        assert passive.app.snapshot() == state

    @forgeries
    def test_forged_proof_at_or_below_ex_changes_nothing(self, xpaxos_t1,
                                                         forge):
        passive = caught_up(xpaxos_t1.replica(2), 60)  # forgeries: 10, 50
        before = observable(passive)
        forged = forge(xpaxos_t1.keystore)
        assert forged.seqno <= passive.ex
        passive.checkpointer._on_lazychk("r0", msg.LazyChk(forged))
        assert observable(passive) == before
        # Not ahead of us, so not grounds to suspect whoever sent it.
        assert passive.checkpointer.install(forged) is True
        assert observable(passive) == before

    def test_proof_no_newer_than_the_stable_one_is_not_even_verified(
            self, xpaxos_t1):
        passive = caught_up(xpaxos_t1.replica(2), 12)
        stable = checkpoint_proof(xpaxos_t1.keystore)
        passive.checkpointer._on_lazychk("r0", msg.LazyChk(stable))
        before = observable(passive)
        checked = []
        passive.checkpointer.proof_valid = \
            lambda proof: checked.append(proof) or True
        same = checkpoint_proof(xpaxos_t1.keystore)
        older = checkpoint_proof(xpaxos_t1.keystore, seqno=5)
        for proof in (stable, same, older, None):
            assert passive.checkpointer.install(proof) is True
        assert checked == [] and observable(passive) == before
        assert passive.stable_checkpoint is stable
        # A newer one still is.
        newer = checkpoint_proof(xpaxos_t1.keystore, seqno=11)
        assert passive.checkpointer.install(newer) and checked == [newer]
        assert passive.stable_checkpoint is newer

    def test_passive_replica_truncates_with_the_actives_in_a_real_run(self):
        runtime = make_cluster(checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        primary, passive = runtime.replica(0), runtime.replica(2)
        assert primary.stable_checkpoint.seqno >= 20
        assert passive.stable_checkpoint is not None
        assert passive.stable_checkpoint.seqno \
            >= primary.stable_checkpoint.seqno - 10
        assert passive.commit_log.low_water \
            == passive.stable_checkpoint.seqno
        # It executed every request itself; no snapshot was installed.
        assert passive.app.snapshot()[0] == passive.committed_requests

    def test_view_change_of_a_former_passive_carries_one_window(self):
        """What an ex-passive replica reports in its VIEW-CHANGE is its
        stable checkpoint plus the entries above it, not its history
        (before it adopted checkpoints: every slot it ever learned)."""
        period = 10
        runtime = make_cluster(checkpoint_period=period, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        passive = runtime.replica(2)
        assert passive.ex > 5 * period
        assert passive.stable_checkpoint.seqno >= 2 * period
        vc = passive.view_changer.build_view_change(passive.view + 1)
        assert vc.checkpoint is passive.stable_checkpoint
        carried = [sn for sn, _ in vc.commit_entries]
        assert carried and min(carried) > vc.checkpoint.seqno
        assert len(carried) <= period + runtime.config.pipeline_depth


class TestLazyReplication:
    def test_passive_replica_tracks_actives(self, xpaxos_t1):
        run_workload(xpaxos_t1, duration_ms=2_000.0)
        passive = xpaxos_t1.replica(2)
        primary = xpaxos_t1.replica(0)
        assert passive.committed_requests >= 0.9 * primary.committed_requests

    def test_lazy_replication_can_be_disabled(self):
        runtime = make_cluster(use_lazy_replication=False, num_clients=3)
        run_workload(runtime, duration_ms=1_000.0,)
        passive = runtime.replica(2)
        primary = runtime.replica(0)
        assert primary.committed_requests > 0
        # Without lazy replication (and before any checkpoint) the passive
        # replica learns nothing in the common case.
        assert passive.committed_requests == 0

    def test_disabled_lazy_replication_state_transfer_via_checkpoint(self):
        """Even without lazy replication, LAZYCHK checkpoints keep passive
        replicas from falling arbitrarily far behind."""
        runtime = make_cluster(use_lazy_replication=False,
                               checkpoint_period=10, num_clients=4)
        run_workload(runtime, duration_ms=2_000.0)
        passive = runtime.replica(2)
        assert passive.ex >= 10  # caught up to some checkpoint

    def test_lazy_speeds_view_change(self):
        """Ablation behind Figure 9's <10 s view changes: passive replicas
        kept warm by lazy replication make state transfer trivial."""
        from repro.common.config import WorkloadConfig
        from repro.faults.injector import FaultInjector, FaultSchedule
        from repro.workloads.clients import ClosedLoopDriver

        def run_once(lazy):
            runtime = make_cluster(use_lazy_replication=lazy,
                                   num_clients=4, checkpoint_period=1000)
            driver = ClosedLoopDriver(
                runtime, WorkloadConfig(num_clients=4, request_size=64,
                                        duration_ms=6_000.0,
                                        warmup_ms=100.0))
            FaultInjector(runtime).arm(
                FaultSchedule().crash_for(2_000.0, 1, 3_000.0))
            driver.run()
            return driver.throughput.total

        # Both must make progress; the lazy variant should not be worse.
        with_lazy = run_once(True)
        without_lazy = run_once(False)
        assert with_lazy > 0 and without_lazy > 0
        assert with_lazy >= 0.8 * without_lazy
