"""Every function the engine defines is used somewhere in the engine or its tests.

A def counts as used when its name appears as a name, an attribute or an
imported name anywhere in src/ or tests/; its own def statement does not
count.  Dunder methods are called by the language and are exempt.
"""

import ast
import pathlib

import dicritical

ENGINE = pathlib.Path(dicritical.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names():
    used = set()
    for root in (ENGINE, TESTS):
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_engine_function_is_referenced():
    used = _used_names()
    defined = [
        (path, node)
        for path, tree in _trees(ENGINE)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert len(defined) > 100
    dead = [
        "%s:%d %s" % (path.relative_to(ENGINE), node.lineno, node.name)
        for path, node in defined
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert dead == []
