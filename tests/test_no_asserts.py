"""The engine checks its invariants with raises, never with assert statements,
which python -O strips; requests answered under python -O match byte for byte."""

import ast
import pathlib
import subprocess
import sys

import pytest

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


# an extension at infinity over F_7, a quadratic point at infinity over Q,
# and a base-point tree that goes on through an extension of Q
OPTIMIZED_REQUESTS = [
    ["at-infinity", "(X^2+Y^2)^3+X", "--field", "Fp:7"],
    ["at-infinity", "(X^2-2*Y^2)*(Y-3*X)*X + Y^2 - X", "--field", "Q"],
    ["basepoints", "(x^2 + y^2)^2 + y^5, x^6", "--field", "Q"],
]


@pytest.mark.parametrize("argv", OPTIMIZED_REQUESTS, ids=["at-infinity-F7", "at-infinity-Q", "basepoints"])
def test_machine_output_unchanged_under_python_O(argv):
    # python -O strips assert statements: no answer may depend on one
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dicritical.cli", *argv, "--format", "machine"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b'"name":"a1"' in outputs[0] or b"[1:a1:0]" in outputs[0]
