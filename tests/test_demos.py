"""Every narrative script in ``demos/`` and the README quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    verdict, error = proc.stdout.splitlines()
    assert verdict == "CERTIFIED_FULL"
    assert float(error) < 1e-8
