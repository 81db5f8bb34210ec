"""Experiment harness regenerating the paper's tables and figures."""
