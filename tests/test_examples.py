"""Every example script runs to completion and ends with OK.

The examples print the claim rows of ``benchmarks/bench_claims.py``
(``show``): together they print every row, and no row twice, so there is
no second description of the paper to drift from the table.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))

import bench_claims  # noqa: E402  (needs benchmarks/ on the path)

pytestmark = pytest.mark.integration


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, (
        "%s failed:\nstdout:\n%s\nstderr:\n%s"
        % (script.name, result.stdout, result.stderr)
    )
    assert result.stdout.splitlines()[-1] == "OK"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


def test_the_examples_print_each_row_once_in_at_most_20_lines():
    shown = []
    for script in EXAMPLES:
        source = script.read_text()
        assert source.count("\n") <= 20, script.name
        shown += [arg.value for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "show"
                  for arg in node.args]
    assert sorted(shown) == sorted(
        row.name[len("claim_"):] for row in bench_claims.CLAIMS)
