"""State-machine replication runtime shared by every protocol."""
