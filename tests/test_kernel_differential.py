"""The simple-ideal kernel, swept column by column, against the row echelon.

divisors._value_kernel walks the monomials of degree < D in (i, j) order
and eliminates each column's truncated image against the images kept
before it.  The reference (tests/echelon_reference.py) is the path it
replaced: one row per (monomial, component) of the truncated pullbacks,
inserted into SparseEchelon, and the kernel read off the reduced row
echelon form.  Both must give the same list of kernel vectors, entry for
entry, in the same key order and with the same element types, on the
benchmark's path shapes over Q and F_7, on seeded random paths of depth up
to 6 over Q, F_7 and F_32003, and on paths through one and two extension
levels over Q and F_7.
"""

import random

import pytest

import test_closure_differential as cd
import test_properties as props
import test_transform_differential as td
from echelon_reference import _monomials_below, _valuation_rows, kernel_basis
from dicritical.arith import QQ, FieldTower
from dicritical.divisors import PrimeDivisor, _value_kernel

F7 = FieldTower.prime_field(7)
F32003 = FieldTower.prime_field(32003)
SHAPE_FIELDS = [("Q", QQ), ("F7", F7)]
PATH_FIELDS = SHAPE_FIELDS + [("F32003", F32003)]
RANDOM_PATHS = 60


def _floor_and_bound(v):
    """(c, D) as simple_ideal takes them: c pairs the point basis with the
    node multiplicities, and M^D lies in {f : v(f) >= c}."""
    r = v.intermediate_multiplicities()
    c = sum(a * b for a, b in zip(v.point_basis(), r))
    return c, -(-c // r[0])


def _typed(kernel):
    return [[(k, c, type(c)) for k, c in vec.items()] for vec in kernel]


def _check(v):
    c, D = _floor_and_bound(v)
    columns = sorted(_monomials_below(D))
    ref = kernel_basis(v.path.tower, _valuation_rows(v, c, columns), columns)
    got = _value_kernel(v, c, D)
    assert _typed(got) == _typed(ref), v
    return len(got)


@pytest.mark.parametrize("name,tower", SHAPE_FIELDS, ids=[n for n, _ in SHAPE_FIELDS])
def test_bench_shapes(name, tower):
    rng = random.Random("kernel/shapes/%s" % name)
    for shape in td.SHAPES:
        assert _check(td._bench_divisor(shape, tower, rng))


@pytest.mark.parametrize("name,tower", PATH_FIELDS, ids=[n for n, _ in PATH_FIELDS])
def test_random_paths(name, tower):
    rng = random.Random("kernel/paths/%s" % name)
    depths = set()
    for _ in range(RANDOM_PATHS):
        path = props.random_path(rng, tower, 6)
        depths.add(path.length)
        _check(PrimeDivisor(path))
    assert max(depths) == 6


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_extension_paths(name, tower, second):
    for v in cd._extension_paths(tower, second):
        assert v.path.terminal_tower.degree() > 1
        _check(v)
