"""The span trim, one sweep over a span of M.I, against the frame trim.

idealcalc._span_generators trims candidate generators against M.I, given
as the x- and y-shifts of a basis of I / M^d, or as a frame of M.I built
once, and stops at ord + 1 generators.  The reference
(tests/echelon_reference.py) is the trim it replaced: the truncation frame
of M.I from every x.g and y.g at bound d + 1, with each candidate inserted
in turn.  Both must keep the same generators, term for term and in the
same order.

simple_ideal passes the kernel vectors of a value floor as the basis, and
those with the monomials of degree D as candidates; the trims are compared
on the benchmark's path shapes over Q and F_7, on seeded random paths of
depth up to 6 over Q and F_7, on paths through one and two extension levels
over Q and F_7, and on the 8-step Q path whose floor is 103.

minimal_generators passes an ideal's own generators, with the lookup of
its frame of M.I; the trims are compared on seeded non-monomial M-primary
ideals over Q, F_5 and F_7(a), as given, padded with generators of degree
above d(I), and padded with repeated generators.
"""

import random

import pytest

import test_closure_differential as cd
import test_frame_differential as fd
import test_properties as props
import test_transform_differential as td
from echelon_reference import frame_span_generators, frame_trim
from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.divisors import PrimeDivisor, _value_kernel
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep

V = ("x", "y")
F7 = FieldTower.prime_field(7)
FIELDS = [("Q", QQ), ("F7", F7)]
RANDOM_PATHS = 60
IDEALS = 40


def _typed(gens):
    return [sorted((e, c, type(c)) for e, c in g.terms.items()) for g in gens]


def _check(v):
    """The span trim against the frame trim; the number of generators."""
    r = v.intermediate_multiplicities()
    c = sum(a * b for a, b in zip(v.point_basis(), r))
    D = -(-c // r[0])
    kernel = _value_kernel(v, c, D)
    tower, vars = v.path.tower, v.path.vars
    gens = [BiPoly(tower, vars, vec) for vec in kernel]
    gens += [BiPoly.monomial(tower, vars, (i, D - i)) for i in range(D + 1)]
    got = ic._span_generators(tower, vars, gens, D, basis=kernel).gens
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


def _padded_ideals(rng, tower, ground):
    """Seeded products of two M-primary ideals with two redundant generators,
    each as given, with generators of degree above d(I), and with repeats."""
    x, y = (BiPoly.variable(tower, V, v) for v in V)
    for _ in range(IDEALS):
        J = ic.product(props.random_primary(rng, ground), props.random_primary(rng, ground))
        if tower is not ground:
            J = fd._twisted(J, tower)
        f, g = J.gens[:2]
        gens = list(J.gens) + [f.add(g), f.mul(x).add(g.mul(y))]
        d = ic.stabilized_frame(J).full_degree()
        high = [x.pow(d + 1), f.mul(y.pow(d + 1)), g.add(x.pow(d + 1).mul(y)),
                props.random_poly(rng, tower).mul(x.add(y).pow(d + 1))]
        yield LocalIdeal(tower, V, gens)
        yield LocalIdeal(tower, V, high + gens)
        yield LocalIdeal(tower, V, gens + [g, f, gens[-1], g])


@pytest.mark.parametrize(
    "tower,ground,seed",
    [(QQ, QQ, 1600), (fd.F5, fd.F5, 1605), (fd.F7A, F7, 1607)],
    ids=["Q", "F5", "F7(a)"],
)
def test_minimal_generators_match_frame_trim(tower, ground, seed):
    rng = random.Random(seed)
    for ideal in _padded_ideals(rng, tower, ground):
        assert not all(g.is_monomial() for g in ideal.gens)
        d = ic.stabilized_frame(ideal).full_degree()
        got = ic.minimal_generators(ideal).gens
        assert _typed(got) == _typed(frame_trim(ideal, d)), ideal
        # f.x + g.y lies in M.I
        assert len(got) < len(ic._dedupe(tower, ideal.gens))
        assert len(got) <= ideal.min_order() + 1
