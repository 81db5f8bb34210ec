"""Declarative fault scenarios and the conformance library."""
