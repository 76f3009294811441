"""The public names the demos and the README quick start use exist.

Removing a name from the package leaves no failing call anywhere in the
library, so these checks read the two places users copy from: every name
a demo imports from ``qparrondo`` (found by parsing) and the README's
"Library quick start" block (executed). Every demo also runs to the end.
"""
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_demo_imports_exist():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qparrondo"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert not missing


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_every_demo_runs(tmp_path, demo):
    # in a scratch working directory, where the demos write demo_out/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Library quick start code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "GHZ"
