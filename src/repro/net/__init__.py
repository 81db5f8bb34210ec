"""WAN network model: latency matrix, bandwidth, partitions, delivery."""
