"""Every function the engine defines is used somewhere in the engine or its
benchmark, and every name an engine module imports is used in that module.

A def counts as used when its name appears as a name, an attribute or an
imported name anywhere in src/ or perfbench/; its own def statement does not
count.  The tests do not count: a def only they call is kept alive by its
own test, and belongs in the tests as a reference if anything.  A method defined in a class body counts as used only when its name
appears as an attribute, since a bare name or an import reaches a
same-named function instead.  Dunder methods are called by the language
and are exempt.

An imported name counts as used when it appears as a name in its module,
the base of an attribute included, or is listed in the module's __all__.
"""

import ast
import pathlib

import dicritical

ENGINE = pathlib.Path(dicritical.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names():
    """(names used in any way, names used as attributes)."""
    used, attrs = set(), set()
    for root in (ENGINE, PERFBENCH):
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


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imports(tree):
    """(line, bound name) for every import but those from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_every_engine_import_is_used():
    unused = []
    for path, tree in _trees(ENGINE):
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= _exported(tree)
        unused += [
            "%s:%d %s" % (path.relative_to(ENGINE), line, name)
            for line, name in _imports(tree)
            if name not in names
        ]
    assert unused == []
