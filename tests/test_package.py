import ast
import importlib
import json
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


def oldest_python() -> tuple[int, int]:
    """The minimum version in ``pyproject.toml``'s ``requires-python``."""
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_every_module_parses_at_the_oldest_supported_python():
    """Each ``src/`` module uses only the grammar of the oldest Python it declares."""
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=oldest_python())


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


def test_readme_names_every_tolerance():
    """The README's "There is no `--tol`" paragraph names each module-level
    ``*_TOL`` constant in ``src/`` as ``module.NAME``, and nothing else."""
    readme = (SRC.parent.parent / "README.md").read_text()
    paragraph = re.search(r"There is no `--tol`:(.*?)\n\n", readme, re.S).group(1)
    defined = {f"{path.stem}.{target.id}" for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name) and target.id.endswith("_TOL")}
    assert defined and set(re.findall(r"`(\w+\.\w+_TOL)`", paragraph)) == defined


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
    """The CI workflow loads as YAML, runs the ROADMAP's tier-1 command, and
    tests the oldest Python and the oldest numpy that ``pyproject.toml``
    declares, together."""
    yaml = pytest.importorskip("yaml")
    root = SRC.parent.parent
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                        (root / "ROADMAP.md").read_text()).group(1)
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run") for job in workflow["jobs"].values() for step in job["steps"]]
    assert "pip install -e .[test]" in runs
    assert command in runs
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
    oldest = "{}.{}".format(*oldest_python())
    assert oldest in matrix["python-version"]
    floor = re.search(r'"numpy>=(\d+\.\d+)"', (root / "pyproject.toml").read_text()).group(1)
    assert {"python-version": oldest, "numpy": f"{floor}.*"} in matrix["include"]
    assert 'pip install "numpy==${{ matrix.numpy }}"' in runs
    script = [i for i, run in enumerate(runs) if run and "netident zfs heuristic" in run]
    assert script and script[0] > runs.index("pip install -e .[test]")


def test_console_script_runs_a_command(tmp_path, capsys, monkeypatch):
    """The ``netident`` script that ``pyproject.toml`` declares names a
    callable that runs a command from ``sys.argv``, as the script does."""
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    module, attr = re.search(r'^netident = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = getattr(importlib.import_module(module), attr)
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    monkeypatch.setattr(sys, "argv", ["netident", "zfs", "heuristic", "--graph", str(graph)])
    assert script() == 0
    assert json.loads(capsys.readouterr().out) == {"set": [1], "size": 1}
