"""Repository-level checks: no tracked build artefacts, and no correctness
check that `python -O` would strip."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                            cwd=ROOT, capture_output=True, text=True)
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git checkout")
    tracked = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
    assert tracked.stdout == ""


def test_no_assert_statements_in_src():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
