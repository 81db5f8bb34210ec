"""Replication protocols: XPaxos and the baselines it is compared against."""
