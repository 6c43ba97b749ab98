"""Every function the engine defines is used somewhere in the engine or its
benchmark, and every name an engine module imports is used in that module.

A def counts as used when its name appears as a name, an attribute or an
imported name anywhere in src/ or perfbench/.  Its own def statement does
not count, nor does its own body (a recursive call keeps nothing alive), nor
the package __init__'s imports (a re-export is no call).  The tests do not
count: a def only they call is kept alive by its own test, and belongs in
the tests as a reference if anything.  The few library entry points that
only users and the tests call are listed in ENTRY_POINTS.  A method defined
in a class body counts as used only when its name appears as an attribute,
since a bare name or an import reaches a same-named function instead.
Dunder methods are called by the language and are exempt.

An imported name counts as used when it appears as a name in its module,
the base of an attribute included, or is listed in the module's __all__.
"""

import ast
import pathlib

import dicritical

ENGINE = pathlib.Path(dicritical.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

# Public functions of the library that no engine path needs: each answers a
# question about ideals a user asks directly.
ENTRY_POINTS = {
    "minimal_generators",  # a minimal generating set, by Nakayama
    "membership",  # f in I, through the stabilized frame
    "ideal_equals",  # J = K, through both stabilized frames
}


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _uses(node, reexports, inside=frozenset()):
    """(name, whether an attribute) for each use below node, leaving out a
    def's uses of its own name in its body, and every import when node is
    the package __init__ (reexports)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside |= {node.name}
    if isinstance(node, ast.Name) and node.id not in inside:
        yield node.id, False
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        yield node.attr, True
    elif isinstance(node, ast.alias) and not reexports:
        yield node.name.rsplit(".", 1)[-1], False
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, reexports, inside)


def _used_names():
    """(names used in any way, names used as attributes)."""
    used, attrs = set(), set()
    for root in (ENGINE, PERFBENCH):
        for path, tree in _trees(root):
            for name, is_attr in _uses(tree, path == ENGINE / "__init__.py"):
                (attrs if is_attr else used).add(name)
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
        and node.name not in ENTRY_POINTS
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
