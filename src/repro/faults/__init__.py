"""Fault injection and the anarchy-aware safety checker."""
