"""Deterministic discrete-event simulation engine.

The simulator replaces the paper's EC2 wall clock: all latencies, timeouts
and CPU costs are expressed in virtual milliseconds, and every run with the
same seed is bit-for-bit reproducible.
"""
