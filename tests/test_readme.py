"""The README's Library example runs, and each bare expression in it equals the
Python value written in its trailing comment."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import posetkit

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_returns_the_values_in_its_comments():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        assert comment.startswith("#"), f"line {stmt.end_lineno} has no value comment"
        want = eval(comment[1:], vars(posetkit))
        assert got == want, f"line {stmt.end_lineno}: {got!r} != {want!r}"
        checked += 1
    assert checked == 7
