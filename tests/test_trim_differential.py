"""The simple-ideal trim, one sweep over the kernel's shifts, against the frame trim.

idealcalc._span_generators trims the kernel vectors of a value floor and
the monomials of degree D against the span of the kernel's x- and
y-shifts, and stops at ord + 1 generators.  The reference
(tests/echelon_reference.py) is the trim it replaced: the truncation frame
of M.I from every x.g and y.g at bound D + 1, with each candidate inserted
in turn.  Both must keep the same generators, term for term and in the same
order, on the benchmark's path shapes over Q and F_7, on seeded random
paths of depth up to 6 over Q and F_7, on paths through one and two
extension levels over Q and F_7, and on the 8-step Q path whose floor is
103.
"""

import random

import pytest

import test_closure_differential as cd
import test_properties as props
import test_transform_differential as td
from echelon_reference import frame_span_generators
from dicritical import idealcalc as ic
from dicritical.arith import QQ, FieldTower
from dicritical.divisors import PrimeDivisor, _value_kernel
from dicritical.nearpoints import QdtPath, QdtStep

F7 = FieldTower.prime_field(7)
FIELDS = [("Q", QQ), ("F7", F7)]
RANDOM_PATHS = 60


def _typed(gens):
    return [sorted((e, c, type(c)) for e, c in g.terms.items()) for g in gens]


def _check(v):
    """The span trim against the frame trim; the number of generators."""
    r = v.intermediate_multiplicities()
    c = sum(a * b for a, b in zip(v.point_basis(), r))
    D = -(-c // r[0])
    kernel = _value_kernel(v, c, D)
    tower, vars = v.path.tower, v.path.vars
    got = ic._span_generators(tower, vars, kernel, D).gens
    assert _typed(got) == _typed(frame_span_generators(tower, vars, kernel, D)), v
    # a simple ideal is complete, so mu = ord + 1
    assert len(got) == min(g.ord_at_origin() for g in got) + 1
    return len(got)


@pytest.mark.parametrize("name,tower", FIELDS, ids=[n for n, _ in FIELDS])
def test_bench_shapes(name, tower):
    rng = random.Random("trim/shapes/%s" % name)
    for shape in td.SHAPES:
        _check(td._bench_divisor(shape, tower, rng))


@pytest.mark.parametrize("name,tower", FIELDS, ids=[n for n, _ in FIELDS])
def test_random_paths(name, tower):
    rng = random.Random("trim/paths/%s" % name)
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
        _check(v)


def test_eight_step_path():
    steps = [QdtStep.affine(QQ.from_int(c)) if c is not None else QdtStep.infinity()
             for c in (1, 0, None, 0, -1, 2, None, 1)]
    assert _check(PrimeDivisor(QdtPath(QQ, ("x", "y"), steps))) == 7
