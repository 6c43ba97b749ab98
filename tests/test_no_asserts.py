"""The engine checks its invariants with raises, never with assert statements,
which python -O strips."""

import ast
import pathlib

import dicritical


def test_engine_has_no_assert_statements():
    root = pathlib.Path(dicritical.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    found = [
        "%s:%d" % (path.relative_to(root), node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
