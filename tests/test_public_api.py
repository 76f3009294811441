"""The public names the demos and the README quick start use exist.

Removing a name from the package leaves no failing call anywhere in the
library, so these checks read the two places users copy from: every name
a demo imports from ``qparrondo`` (found by parsing, without running the
demo) and the README's "Library quick start" block (executed).
"""
import ast
import importlib
import pathlib
import re

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


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Library quick start code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "GHZ"
