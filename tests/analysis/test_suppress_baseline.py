"""Suppression comments and the baseline mechanism.

The contract under test (see ``docs/static-analysis.md``): an inline
``# repro: lint-ok[ID]`` silences exactly that rule at that line; the
committed baseline absorbs exact ``(file, rule, line)`` matches; a
baseline entry whose violation was fixed is *stale* and fails the run.
"""

from __future__ import annotations

import json

from repro.analysis import run_lint, write_baseline
from repro.analysis.findings import Finding
from tests.analysis.conftest import line_of, write_tree

DIRTY = """\
    import random


    def pick(options):
        return random.choice(options)


    def jitter():
        return random.random()
"""


def _dirty_tree(tmp_path):
    return write_tree(tmp_path, {"pkg/sampler.py": DIRTY})


class TestSuppressions:
    def test_same_line_marker_silences_one_finding(self, tmp_path):
        src = DIRTY.replace(
            "random.choice(options)",
            "random.choice(options)  # repro: lint-ok[D001]")
        write_tree(tmp_path, {"pkg/sampler.py": src})
        report = run_lint([str(tmp_path)], baseline_path=None)
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
        report = run_lint([str(tmp_path)], baseline_path=None)
        assert [f.line for f in report.findings] == [
            line_of(src, "random.choice")]
        assert len(report.suppressed) == 1

    def test_marker_for_another_rule_does_not_silence(self, tmp_path):
        src = DIRTY.replace(
            "random.choice(options)",
            "random.choice(options)  # repro: lint-ok[S002]")
        write_tree(tmp_path, {"pkg/sampler.py": src})
        report = run_lint([str(tmp_path)], baseline_path=None)
        assert len(report.findings) == 2
        assert report.suppressed == []

    def test_comma_separated_ids(self, tmp_path):
        src = """\
            import heapq  # repro: lint-ok[S002, D001]
        """
        write_tree(tmp_path, {"pkg/q.py": src})
        report = run_lint([str(tmp_path)], baseline_path=None)
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        root = _dirty_tree(tmp_path)
        dirty = run_lint([str(root)], baseline_path=None)
        assert len(dirty.findings) == 2
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(str(baseline), dirty.findings)
        report = run_lint([str(root)], baseline_path=str(baseline))
        assert report.ok
        assert len(report.baselined) == 2
        assert report.findings == []

    def test_stale_entry_is_reported_and_fails(self, tmp_path):
        root = _dirty_tree(tmp_path)
        dirty = run_lint([str(root)], baseline_path=None)
        baseline = tmp_path / "lint_baseline.json"
        # Baseline today's findings plus one entry whose violation was
        # already fixed (nothing at line 999).
        ghost = Finding(file=dirty.findings[0].file, line=999,
                        rule="D001", message="already fixed")
        write_baseline(str(baseline), list(dirty.findings) + [ghost])
        report = run_lint([str(root)], baseline_path=str(baseline))
        assert not report.ok
        assert report.findings == []
        assert [e["line"] for e in report.stale_baseline] == [999]

    def test_fixing_a_baselined_violation_makes_it_stale(self, tmp_path):
        root = _dirty_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(str(baseline),
                       run_lint([str(root)], baseline_path=None).findings)
        # "Fix" one violation: the entry for it must now be stale.
        path = root / "pkg" / "sampler.py"
        path.write_text(path.read_text().replace(
            "return random.random()", "return 4  # fixed"))
        report = run_lint([str(root)], baseline_path=str(baseline))
        assert not report.ok
        assert len(report.stale_baseline) == 1

    def test_only_run_ignores_other_rules_entries(self, tmp_path):
        root = _dirty_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        # Baseline carries a D001 entry; an S001-only run has no opinion
        # on it -- neither matched nor stale.
        write_baseline(str(baseline),
                       run_lint([str(root)], baseline_path=None).findings)
        report = run_lint([str(root)], only=["S001"],
                          baseline_path=str(baseline))
        assert report.ok
        assert report.stale_baseline == []

    def test_line_drift_is_a_new_finding_plus_stale_entry(self, tmp_path):
        root = _dirty_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(str(baseline),
                       run_lint([str(root)], baseline_path=None).findings)
        # Shift every line down by one: the old entries no longer match.
        path = root / "pkg" / "sampler.py"
        path.write_text("# shifted\n" + path.read_text())
        report = run_lint([str(root)], baseline_path=str(baseline))
        assert not report.ok
        assert len(report.findings) == 2
        assert len(report.stale_baseline) == 2

    def test_malformed_baseline_raises(self, tmp_path):
        root = _dirty_tree(tmp_path)
        baseline = tmp_path / "lint_baseline.json"
        baseline.write_text("{\"version\": 1")
        try:
            run_lint([str(root)], baseline_path=str(baseline))
        except ValueError as exc:
            assert "malformed baseline" in str(exc)
        else:
            raise AssertionError("malformed baseline must raise")

    def test_write_baseline_round_trips_sorted(self, tmp_path):
        baseline = tmp_path / "lint_baseline.json"
        findings = [
            Finding(file="b.py", line=2, rule="D001", message="m"),
            Finding(file="a.py", line=9, rule="S002", message="m"),
        ]
        write_baseline(str(baseline), findings)
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        assert [e["file"] for e in payload["findings"]] == ["a.py", "b.py"]
