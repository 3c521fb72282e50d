"""The README's library sketch runs, and the package exports exactly its names."""

import ast
import inspect
import re
from pathlib import Path

import swsurgery

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_sketch_runs():
    exec(compile(_sketch(), str(README), "exec"), {})


def test_package_exports_exactly_the_sketch_names():
    imported = {alias.name for node in ast.walk(ast.parse(_sketch()))
                if isinstance(node, ast.ImportFrom) and node.module == "swsurgery"
                for alias in node.names}
    exported = {name for name, value in vars(swsurgery).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == imported
    assert swsurgery.__version__
