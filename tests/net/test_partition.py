"""Tests for partitions and the paper's Definition 1."""

import pytest

from repro.net.partition import PartitionController, partitioned_replicas


class TestPartitionController:
    def test_block_and_unblock(self):
        pc = PartitionController()
        pc.block_pair("a", "b")
        assert pc.blocked("a", "b")
        assert pc.blocked("b", "a")  # symmetric
        pc.unblock_pair("b", "a")
        assert not pc.blocked("a", "b")

    def test_self_partition_rejected(self):
        with pytest.raises(ValueError):
            PartitionController().block_pair("a", "a")

    def test_isolate(self):
        pc = PartitionController()
        pc.isolate("a", ["a", "b", "c"])
        assert pc.blocked("a", "b")
        assert pc.blocked("a", "c")
        assert not pc.blocked("b", "c")

    def test_split(self):
        pc = PartitionController()
        pc.split(["a", "b"], ["c", "d"])
        assert pc.blocked("a", "c")
        assert pc.blocked("b", "d")
        assert not pc.blocked("a", "b")
        assert not pc.blocked("c", "d")

    def test_split_overlap_rejected(self):
        with pytest.raises(ValueError):
            PartitionController().split(["a", "b"], ["b", "c"])

    def test_heal_all(self):
        pc = PartitionController()
        pc.split(["a"], ["b", "c"])
        pc.heal_all()
        assert not pc.blocked_pairs


class TestDefinition1:
    """The paper's Definition 1 (partitioned replicas), incl. Figure 1."""

    def test_fully_connected_none_partitioned(self):
        replicas = ["p1", "p2", "p3"]
        assert partitioned_replicas(replicas, lambda a, b: True) == frozenset()

    def test_one_isolated_replica(self):
        replicas = ["p1", "p2", "p3"]

        def timely(a, b):
            return "p3" not in (a, b)

        assert partitioned_replicas(replicas, timely) == {"p3"}

    def test_figure1_example(self):
        """Figure 1: five replicas, p1-p2, p1-p3 and p4-p2/p3 style cuts
        leave two maximum cliques of size 2+... the paper counts exactly 3
        partitioned replicas, either {p1,p4,p5} or {p2,p3,p5}."""
        replicas = ["p1", "p2", "p3", "p4", "p5"]
        # Timely pairs: p1-p4, p2-p3 (and everything else cut, p5 cut from
        # everyone) -- the figure's >Delta edges separate
        # {p1,p4} | {p2,p3} | {p5}.
        timely_pairs = {frozenset(("p1", "p4")), frozenset(("p2", "p3"))}

        def timely(a, b):
            return frozenset((a, b)) in timely_pairs

        partitioned = partitioned_replicas(replicas, timely)
        assert len(partitioned) == 3
        # One of the two size-2 cliques survives; the other 3 replicas are
        # partitioned.
        assert partitioned in ({"p2", "p3", "p5"}, {"p1", "p4", "p5"})

    def test_total_partition_leaves_n_minus_1(self):
        replicas = ["a", "b", "c", "d"]
        partitioned = partitioned_replicas(replicas, lambda a, b: False)
        # Largest subset has size 1, so n - 1 replicas are partitioned.
        assert len(partitioned) == 3

    def test_deterministic_tiebreak(self):
        replicas = ["a", "b", "c", "d"]
        timely_pairs = {frozenset(("a", "b")), frozenset(("c", "d"))}

        def timely(x, y):
            return frozenset((x, y)) in timely_pairs

        first = partitioned_replicas(replicas, timely)
        second = partitioned_replicas(replicas, timely)
        assert first == second
