"""The linter's output vocabulary: one finding.

A :class:`Finding` is one rule violation at one source location.  The
identity used by suppression is ``(file, rule, line)`` -- message text
can be reworded freely, but a ``lint-ok`` marker silences one rule at
one line only.  Every finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``file:line``."""

    file: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """Human one-liner, ``file:line: RULE message`` (grep-friendly)."""
        return f"{self.file}:{self.line}: {self.rule} {self.message}"
