"""The README's library sketch runs, and the package exports exactly its names."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import swsurgery

from .trusted import memos

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
    # the names resolve on first access (PEP 562), so they are not in vars()
    assert set(swsurgery.__all__) == set(dir(swsurgery)) == imported
    for name in imported:
        module = importlib.import_module(f"swsurgery.{swsurgery._SUBMODULE[name]}")
        assert getattr(swsurgery, name) is getattr(module, name)
    star = {}
    exec("from swsurgery import *", star)
    assert set(star) - {"__builtins__"} == imported
    with pytest.raises(AttributeError, match="no_such_name"):
        swsurgery.no_such_name
    assert swsurgery.__version__


def test_readme_memo_list_names_every_cache():
    count, bullets = re.search(r"(\w+)\s+bounded `functools.lru_cache` memos hold it.*?:\n\n(.*?)\n\n",
                               README.read_text(), re.S).groups()
    listed = re.findall(r"^- `(\w+\.\w+)`,", bullets, re.M)
    cached = memos()
    assert sorted(listed) == sorted(cached)
    words = ("zero one two three four five six seven eight nine ten eleven twelve thirteen "
             "fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()
    assert words.index(count.lower()) == len(cached)
