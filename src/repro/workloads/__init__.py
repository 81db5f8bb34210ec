"""Benchmark workloads: closed/open-loop drivers and metrics collection."""
