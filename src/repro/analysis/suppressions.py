"""Inline suppression comments: ``# repro: lint-ok[RULE-ID]``.

A finding is suppressed when its line -- or a comment-only line directly
above it -- carries a ``lint-ok`` marker naming the finding's rule id
(comma-separate several ids to silence more than one rule at the same
site).  Suppressions are deliberately *narrow*: they match one rule at
one line, so a suppressed site that later grows a second violation of a
different rule still fails the lint.

The policy (see ``docs/static-analysis.md``): a suppression asserts "this
specific occurrence is intentional" and should sit next to a comment
saying why.  There is no other way to pass a finding.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set

from repro.analysis.findings import Finding

#: ``# repro: lint-ok[D001]`` / ``# repro: lint-ok[D001,S002]``
_MARKER = re.compile(
    r"#\s*repro:\s*lint-ok\[\s*([A-Za-z0-9_,\s-]+?)\s*\]")


def suppressed_lines(lines: List[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids suppressed there.

    A marker on a comment-only line applies to the *next* line as well,
    so a suppression can sit above a long statement instead of pushing it
    past the line-length budget.
    """
    out: Dict[int, Set[str]] = {}
    for idx, text in enumerate(lines, start=1):
        match = _MARKER.search(text)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",")
               if part.strip()}
        out.setdefault(idx, set()).update(ids)
        if text.lstrip().startswith("#"):
            out.setdefault(idx + 1, set()).update(ids)
    return out


def is_suppressed(finding: Finding,
                  suppressions: Dict[int, Set[str]]) -> bool:
    """Is ``finding`` silenced by an inline marker in its module?"""
    return finding.rule in suppressions.get(finding.line, set())
