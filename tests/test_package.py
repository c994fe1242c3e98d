import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import netident

SRC = Path(netident.__file__).resolve().parent


def test_every_export_resolves():
    for name in netident.__all__:
        assert getattr(netident, name) is not None, name


def test_numpy_is_the_only_runtime_dependency():
    """Every import in ``src/`` names the standard library, numpy or the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "netident"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_every_import_is_used():
    """Each name a module imports is read in that module or listed in ``__all__``."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_name_is_read():
    """Each module-level ``_`` name, and each ``_`` method of a module-level
    class, is read somewhere in ``src/`` besides its definition."""
    defined, trees = [], []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        trees.append(tree)
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, functions)]
        for node in tree.body + methods:
            if isinstance(node, (*functions, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(f"{path.name}:{node.lineno}", name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]

    def reads(tree):
        return [node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute)]

    everywhere = Counter(name for tree in trees for name in reads(tree))
    unread = [f"{where}: {name}" for where, name, node in defined
              if everywhere[name] <= reads(node).count(name)]
    assert unread == []


def test_docstring_references_resolve():
    """Each ``:func:``, ``:class:`` or ``:meth:`` target in a docstring names
    an object: a bare name on its own module, ``~netident.mod.name`` through
    the package. ``__main__`` is skipped, as importing it runs the CLI."""
    role = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")
    docstring_owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    dangling, seen = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(
            "netident" if path.stem == "__init__" else f"netident.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            doc = ast.get_docstring(node) if isinstance(node, docstring_owners) else None
            for target in role.findall(doc or ""):
                seen += 1
                parts = target.split(".")
                obj = module
                if parts[0] == "netident":
                    obj, parts = netident, parts[1:]
                for part in parts:
                    obj = getattr(obj, part, None)
                if obj is None:
                    dangling.append(f"{path.name}: {target}")
    assert seen and dangling == []


def test_ci_runs_the_tier1_command():
    """The CI workflow loads as YAML and runs the ROADMAP's tier-1 command."""
    yaml = pytest.importorskip("yaml")
    root = SRC.parent.parent
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                        (root / "ROADMAP.md").read_text()).group(1)
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run") for job in workflow["jobs"].values() for step in job["steps"]]
    assert "pip install -e .[test]" in runs
    assert command in runs
