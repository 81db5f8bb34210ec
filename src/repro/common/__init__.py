"""Shared configuration dataclasses and error types."""
