"""Every script under ``examples/`` runs to completion as ``__main__``.

The examples call the public API (``run_cell``, ``run_matrix``,
``build_cluster``, the reliability tables), so an API change that breaks
one fails here instead of only in a reader's shell.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
