"""The `repro lint` CLI: exit codes, --json, --only."""

from __future__ import annotations

import json

from repro.cli import build_parser, main
from tests.analysis.conftest import write_tree

CLEAN = """\
    def add(a, b):
        return a + b
"""

DIRTY = """\
    import random


    def pick(options):
        return random.choice(options)
"""


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.only == []

    def test_only_accepts_repeats_and_commas(self):
        args = build_parser().parse_args(
            ["lint", "--only", "S001,D001", "--only", "S002"])
        assert args.only == ["S001,D001", "S002"]


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        write_tree(tmp_path, {"pkg/math.py": CLEAN})
        code = main(["lint", str(tmp_path)])
        assert code == 0
        assert "lint ok" in capsys.readouterr().out

    def test_finding_exits_one_with_file_line_rule(self, capsys, tmp_path):
        write_tree(tmp_path, {"pkg/sampler.py": DIRTY})
        code = main(["lint", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "sampler.py:5: D001" in out
        assert "FAIL" in out

    def test_json_report_written(self, capsys, tmp_path):
        write_tree(tmp_path, {"pkg/sampler.py": DIRTY})
        report_path = tmp_path / "lint_report.json"
        code = main(["lint", str(tmp_path),
                     "--json", str(report_path)])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert not payload["ok"]
        [finding] = payload["findings"]
        assert finding["rule"] == "D001"
        assert finding["line"] == 5
        assert payload["files_checked"] == 1
        assert "D001" in payload["rules_run"]

    def test_only_one_rule_ignores_other_families(self, capsys, tmp_path):
        write_tree(tmp_path, {
            "pkg/sampler.py": DIRTY,  # D001: invisible to an S001-only run
            "pkg/helpers.py": """\
                def collect(item, acc=[]):
                    acc.append(item)
                    return acc
            """,
        })
        code = main(["lint", str(tmp_path),
                     "--only", "S001"])
        assert code == 1
        out = capsys.readouterr().out
        assert "S001" in out
        assert "D001" not in out

    def test_unknown_rule_is_usage_error(self, capsys, tmp_path):
        code = main(["lint", str(tmp_path), "--only", "Z999"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys, tmp_path):
        code = main(["lint", str(tmp_path / "no-such-dir")])
        assert code == 2
        assert "no-such-dir" in capsys.readouterr().err

    def test_list_rules_prints_catalog(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rid in ("D001", "D002", "D003", "A001", "A002",
                    "S001", "S002", "S003", "S004",
                    "P001", "P002", "P003", "P004"):
            assert rid in out

    def test_default_paths_include_the_examples(self, capsys, monkeypatch):
        from repro.analysis import engine

        seen = []
        monkeypatch.setattr(engine, "run_lint", lambda paths, only: (
            seen.append(paths) or engine.LintReport()))
        assert main(["lint"]) == 0
        assert seen == [["src", "tests", "benchmarks", "examples"]]

    def test_real_tree_is_clean(self, capsys, monkeypatch):
        # The repo's own acceptance bar: `repro lint` exits 0 at HEAD.
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        code = main(["lint"])
        assert code == 0, capsys.readouterr().out
