"""Repository-level checks: no tracked build artefacts, no correctness
check that `python -O` would strip, no floating point in the package, no
function name the benchmark tracer wraps or the benchmark imports missing
from the package, none rebound in `verify`, no private module-level
function that nothing in the package names, no unused import, no entry
point but `__main__.py`, a lean command-line import graph that loads every
module the tracer reads, a handler bound to every subcommand, and no
engine attribute set outside its constructor."""

import argparse
import ast
import importlib
import shutil
import subprocess
import sys
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


def test_no_orphaned_private_helpers():
    # A module-level `def _name` that no other statement in src/ names is
    # left over from a refactor; a call from its own body does not count.
    tops = [(path, node) for path in sorted((ROOT / "src").rglob("*.py"))
            for node in ast.parse(path.read_text(), str(path)).body]
    named = [{n.id if isinstance(n, ast.Name) else n.attr
              for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))}
             for _, node in tops]
    orphans = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
               for k, (path, node) in enumerate(tops)
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")
               and not node.name.startswith("__")
               and not any(node.name in names
                           for m, names in enumerate(named) if m != k)]
    assert orphans == []


def unused_imports(path: Path) -> list[str]:
    """line:name of every name path imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{node.lineno}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in read]


def test_no_unused_imports_in_src():
    # A refactor that removes the last use of an import leaves the import
    # behind.  __init__.py imports only to re-export.
    unused = [f"{path.relative_to(ROOT)}:{where}"
              for path in sorted((ROOT / "src").rglob("*.py"))
              if path.name != "__init__.py"
              for where in unused_imports(path)]
    assert unused == []


def is_main_guard(node) -> bool:
    # `if __name__ == "__main__":`, either way round.
    def part(n):
        return (isinstance(n, ast.Name) and n.id == "__name__"
                or isinstance(n, ast.Constant) and n.value == "__main__")
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and all(map(part, [node.test.left, *node.test.comparators])))


def test_one_entry_point():
    # `python -m upsilonkit` runs __main__.py; a script block in any other
    # module would be a second entry point to keep in step with it.
    assert [where for where in src_nodes_where(is_main_guard)
            if Path(where.rsplit(":", 1)[0]).name != "__main__.py"] == []


def traced_layers() -> dict[str, tuple[str, ...]]:
    """WRAPPED of the benchmark tracer: layer -> names it wraps there."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    [wrapped] = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["WRAPPED"]]
    return ast.literal_eval(wrapped)


def test_traced_names_exist():
    # The benchmark tracer wraps these upsilonkit functions by name; a
    # removed or renamed one would break its traced runs.
    missing = [f"{layer}.{name}"
               for layer, names in traced_layers().items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"upsilonkit.{layer}"), name, None))]
    assert missing == []


def benchmark_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of every import from upsilonkit in
    perfbench/*.py, function bodies included; name is None for a plain
    `import upsilonkit...`."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "upsilonkit"]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "upsilonkit"):
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


def test_benchmark_imports_exist():
    # A name the benchmark imports, such as the format_ext that
    # workloads.run_in_process imports inside a function, would break its
    # runs if it were removed; tier-1 never runs those imports.
    imports = benchmark_imports()
    assert imports
    missing = []
    for path, module, name in imports:
        try:
            found = importlib.import_module(module)
            if name is not None and not hasattr(found, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{path}: {module} {name or ''}".rstrip())
    assert missing == []


def test_verify_binds_the_layers_own_objects():
    # The tracer swaps every binding of a wrapped function object, so a
    # name that verify binds to a cache or any other wrapper of a layer's
    # function would hide that layer's calls from traced runs.
    verify = importlib.import_module("upsilonkit.verify")
    tree = ast.parse((ROOT / "src" / "upsilonkit" / "verify.py").read_text())
    imported = [(node.module, alias.name, alias.asname or alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.level == 1 and node.module in traced_layers()
                for alias in node.names]
    assert {layer for layer, _, _ in imported} >= {"plfun", "staircase",
                                                   "upsilon"}
    rebound = [f"{layer}.{name}" for layer, name, bound in imported
               if getattr(verify, bound) is not getattr(
                   importlib.import_module(f"upsilonkit.{layer}"), name)]
    assert rebound == []


def test_cli_import_graph():
    # The command line starts a fresh interpreter on every run, so its
    # import graph is start-up time: nothing in it may pull in the heavy
    # introspection modules.  Every module the benchmark tracer reads off
    # sys.modules after importing the command line must be loaded by it.
    # json is imported by the first JSON write, not at start-up.
    probe = """
import sys, upsilonkit.cli
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
print(sorted(m for m in heavy if m in sys.modules))
layers = ("expr", "staircase", "cfk", "upsilon", "plfun", "verify")
print(sorted(m for m in layers if "upsilonkit." + m not in sys.modules))
checks = sys.modules["upsilonkit.verify"].ALL_CHECKS
print(isinstance(checks, list) and all(map(callable, checks)))
deferred = ("json",)
print(sorted(m for m in deferred if m in sys.modules))
"""
    run = subprocess.run([sys.executable, "-c", probe], cwd=ROOT / "src",
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]", "True", "[]"]


def test_every_subcommand_has_a_handler():
    # main runs the handler its subparser binds as the default of "run"; a
    # subcommand declared without one would fail there with a traceback.
    from upsilonkit.cli import _build_parser
    [commands] = [action.choices for action in _build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert commands
    unbound = [name for name, sub in commands.items()
               if not callable(sub.get_default("run"))]
    assert unbound == []


def self_attributes_set(method) -> list[str]:
    """name:line of every self.<name> that method assigns, augments or
    deletes, tuple and list targets included."""
    targets = []
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    found = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)
              and target.value.id == "self"):
            found.append(f"{target.attr}:{target.lineno}")
    return found


def test_engine_state_set_in_the_constructor_only():
    # The engine is cached for as long as its complex lives, so an
    # attribute that a later call sets would outlive that call, and one
    # that a call parks for the methods it calls is a hidden argument.
    # Only __init__ sets attributes; later calls only update the interval
    # table it made.  phi, the level masks and the candidate list are set
    # on first use by functools.cached_property, which sets nothing on a
    # raise, so a homology violation leaves no phi and raises again.
    path = ROOT / "src" / "upsilonkit" / "upsilon.py"
    [engine] = [node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == "_Engine"]
    methods = [node for node in engine.body
               if isinstance(node, ast.FunctionDef)]
    assert {"__init__", "meet", "interval"} <= {m.name for m in methods}
    assert self_attributes_set(
        next(m for m in methods if m.name == "__init__"))
    assert [f"{m.name} sets {where}" for m in methods
            if m.name != "__init__"
            for where in self_attributes_set(m)] == []
