"""Every function the engine defines is used somewhere in the engine or its tests.

A def counts as used when its name appears as a name, an attribute or an
imported name anywhere in src/ or tests/; its own def statement does not
count.  A method defined in a class body counts as used only when its name
appears as an attribute, since a bare name or an import reaches a
same-named function instead.  Dunder methods are called by the language
and are exempt.
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
    """(names used in any way, names used as attributes)."""
    used, attrs = set(), set()
    for root in (ENGINE, TESTS):
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    return used | attrs, attrs


def _defined(tree):
    """(def node, whether it sits directly in a class body) for every def."""
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in methods


def test_every_engine_function_is_referenced():
    used, attrs = _used_names()
    defined = [
        (path, node, is_method)
        for path, tree in _trees(ENGINE)
        for node, is_method in _defined(tree)
    ]
    assert len(defined) > 100
    dead = [
        "%s:%d %s" % (path.relative_to(ENGINE), node.lineno, node.name)
        for path, node, is_method in defined
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in (attrs if is_method else used)
    ]
    assert dead == []
