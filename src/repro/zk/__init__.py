"""A ZooKeeper-like coordination service replicated via any protocol."""
