"""Only arith/fields.py reads a FieldTower's per-level arithmetic (_at).

The rest of the engine reaches the whole tower's arithmetic through
FieldTower.top, so the layout of the levels stays the business of one
module.
"""

import ast
import pathlib

import dicritical

ENGINE = pathlib.Path(dicritical.__file__).parent


def test_only_fields_reads_the_levels():
    fields = ENGINE / "arith" / "fields.py"
    readers = [
        "%s:%d" % (path.relative_to(ENGINE), node.lineno)
        for path in sorted(ENGINE.rglob("*.py"))
        if path != fields
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_at"
    ]
    assert readers == []
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "_at"
        for node in ast.walk(ast.parse(fields.read_text()))
    )
