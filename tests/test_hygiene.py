"""Repository-level checks: no tracked build artefacts, no correctness
check that `python -O` would strip, no floating point in the package, and
no function name the benchmark tracer wraps missing from the package."""

import ast
import importlib
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


def src_nodes_where(predicate) -> list[str]:
    """path:line of every AST node in src/ that satisfies predicate."""
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert modules
    return [f"{path.relative_to(ROOT)}:{node.lineno}"
            for path in modules
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if predicate(node)]


def test_no_assert_statements_in_src():
    assert src_nodes_where(lambda node: isinstance(node, ast.Assert)) == []


def is_float_literal_or_call(node) -> bool:
    # `isinstance(x, float)` names float without calling it, so it passes.
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def test_no_floats_in_src():
    assert src_nodes_where(is_float_literal_or_call) == []


def test_traced_names_exist():
    # The benchmark tracer wraps these upsilonkit functions by name; a
    # removed or renamed one would break its traced runs.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    [wrapped] = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["WRAPPED"]]
    missing = [f"{layer}.{name}"
               for layer, names in ast.literal_eval(wrapped).items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"upsilonkit.{layer}"), name, None))]
    assert missing == []
