"""Each script in demos/ and the README's library quickstart run to
completion as the docs say to run them."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv, cwd) -> subprocess.CompletedProcess:
    """``python argv`` with ``src`` on ``PYTHONPATH``, as from a checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quickstart_runs(tmp_path):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_pointers_resolve():
    # the README points to docstrings for how things work: each backticked
    # fairdrop.<module>[.<Name>] must exist and hold a docstring
    names = set(re.findall(r"`(fairdrop(?:\.\w+)+)`", (ROOT / "README.md").read_text()))
    assert names
    for name in sorted(names):
        _, module, *attrs = name.split(".")
        obj = importlib.import_module(f"fairdrop.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert (obj.__doc__ or "").strip(), name
