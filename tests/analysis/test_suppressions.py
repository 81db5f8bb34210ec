"""Suppression comments.

The contract under test (see ``docs/static-analysis.md``): an inline
``# repro: lint-ok[ID]`` silences exactly that rule at that line, and
every other finding fails the run.
"""

from __future__ import annotations

from repro.analysis.engine import run_lint
from tests.analysis.conftest import line_of, write_tree

DIRTY = """\
    import random


    def pick(options):
        return random.choice(options)


    def jitter():
        return random.random()
"""


class TestSuppressions:
    def test_same_line_marker_silences_one_finding(self, tmp_path):
        src = DIRTY.replace(
            "random.choice(options)",
            "random.choice(options)  # repro: lint-ok[D001]")
        write_tree(tmp_path, {"pkg/sampler.py": src})
        report = run_lint([str(tmp_path)])
        assert [f.line for f in report.findings] == [
            line_of(src, "random.random")]
        assert [f.line for f in report.suppressed] == [
            line_of(src, "random.choice")]

    def test_comment_above_silences_next_line(self, tmp_path):
        src = DIRTY.replace(
            "        return random.random()",
            "        # deliberate: exercises the guard\n"
            "        # repro: lint-ok[D001]\n"
            "        return random.random()")
        write_tree(tmp_path, {"pkg/sampler.py": src})
        report = run_lint([str(tmp_path)])
        assert [f.line for f in report.findings] == [
            line_of(src, "random.choice")]
        assert len(report.suppressed) == 1

    def test_marker_for_another_rule_does_not_silence(self, tmp_path):
        src = DIRTY.replace(
            "random.choice(options)",
            "random.choice(options)  # repro: lint-ok[S002]")
        write_tree(tmp_path, {"pkg/sampler.py": src})
        report = run_lint([str(tmp_path)])
        assert len(report.findings) == 2
        assert report.suppressed == []

    def test_comma_separated_ids(self, tmp_path):
        src = """\
            import heapq  # repro: lint-ok[S002, D001]
        """
        write_tree(tmp_path, {"pkg/q.py": src})
        report = run_lint([str(tmp_path)])
        assert report.findings == []
        assert len(report.suppressed) == 1
