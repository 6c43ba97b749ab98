"""Base points read off one univariate gcd, against the homogeneous gcd.

nearpoints.base_point splits each least-order initial form as u^i·w^j·h
and reads the Zariski number and the directions off a = min i, b = min j
and the gcd g of the h(1, t).  The reference (tests/direction_reference.py)
is the path it replaced: the gcd of the forms as a homogenized, normalized
form, dehomogenized again and factored with its factor t.  On every node of
the trees the suites build, both must give the same order d, the same
Zariski number, the same steps in the same order, with the same element
types, and the same transforms, byte for byte.  The trees are those of the
property ideals over Q, F_7, F_32003 and F_7(a), of the simple ideals of the
one- and two-level extension paths over Q and F_7, and of the benchmark's
16 simple-ideal shapes over Q, F_7 and F_32003.  Seeded random ideals of up
to four generators, each a random polynomial times a random monomial,
cover initial forms that share u and w in every way, where a later form may
lower a or b after the gcd of the h(1, t) has reached degree 0.  On trees
at infinity shaped like the benchmark's, a node whose g is linear reads its
one root off g and calls no factorization.
"""

import random

import pytest

import direction_reference as ref
import test_closure_differential as cd
import test_properties as props
import test_transform_differential as td
from dicritical import nearpoints
from dicritical.arith import QQ, BiPoly, FieldTower, UniPoly, is_irreducible
from dicritical.arith.polynomials import _split_monomial
from dicritical.atinfinity import points_at_infinity
from dicritical.divisors import simple_ideal
from dicritical.nearpoints import LocalIdeal, base_point
from dicritical.zariski import base_point_tree

F7 = FieldTower.prime_field(7)
F32003 = FieldTower.prime_field(32003)
SHAPE_FIELDS = [("Q", QQ), ("F7", F7), ("F32003", F32003)]


def _typed(step):
    return step._replace(c=(step.c, type(step.c)))


def _reading(J, reader=base_point):
    d, zariski, pairs = reader(J)
    return d, zariski, [(_typed(s), td._rendered(t)) for s, t in pairs]


def _kinds(T, reading):
    """The kinds of the steps of a reading: zero, root, extension or infinity."""
    for step, _ in reading[2]:
        if step.kind == "infinity":
            yield "infinity"
        elif step.extends:
            yield "extension"
        else:
            yield "zero" if T.is_zero(step.c[0]) else "root"


def _check(J):
    """Compares the two readings of J; returns the kinds of its steps."""
    expected = _reading(J, ref.base_point)
    assert _reading(J) == expected, J
    return set(_kinds(J.tower, expected))


def _check_tree(J):
    """Compares every node of J's tree; returns the kinds of steps seen."""
    return set().union(*(_check(node.ideal) for node in base_point_tree(J).nodes()))


@pytest.mark.parametrize("name,tower", td.FIELDS, ids=td.IDS)
def test_property_trees(name, tower):
    kinds = set()
    for J in td._property_ideals(name, tower):
        kinds |= _check_tree(J)
    assert {"zero", "root", "infinity"} <= kinds


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_extension_path_trees(name, tower, second):
    kinds = set()
    for v in cd._extension_paths(tower, second):
        kinds |= _check_tree(simple_ideal(v))
    assert "extension" in kinds


@pytest.mark.parametrize("name,tower", SHAPE_FIELDS, ids=[n for n, _ in SHAPE_FIELDS])
def test_bench_shape_trees(name, tower):
    rng = random.Random("direction/shapes/%s" % name)
    kinds = set()
    for shape in td.SHAPES:
        kinds |= _check_tree(simple_ideal(td._bench_divisor(shape, tower, rng)))
    assert {"zero", "root", "infinity"} <= kinds


@pytest.mark.parametrize("name,tower", td.FIELDS, ids=td.IDS)
def test_random_ideals(name, tower):
    rng = random.Random("direction/random/%s" % name)
    kinds = set()
    for _ in range(300):
        gens = [
            props.random_poly(rng, tower, 4).mul_monomial((rng.randint(0, 2), rng.randint(0, 2)))
            for _ in range(rng.randint(1, 4))
        ]
        kinds |= _check(LocalIdeal(tower, props.V, gens))
    assert {"zero", "root", "infinity"} <= kinds


# degree-form factor patterns at infinity: degrees of distinct irreducible
# factors of phi(1, t), "v" for a factor X (the point [0:1:0])
SWEEP_PATTERNS = [(2,), (1, 1), (1, "v"), (3,), (1, 2), (2, "v"), (1, 1, 1), (1, 3), (2, 2),
                  (3, "v"), (1, 1, 2), (1, 4), (2, 3), (1, 2, 2), (1, 1, 4)]


def _sweep_polynomial(tower, pattern, rng):
    """A polynomial in X, Y whose degree form splits as the pattern, plus two
    or three terms of lower degree."""
    p = tower.char
    core = UniPoly(tower, [rng.randrange(1, p)])
    seen = set()
    for part in pattern:
        if part == "v":
            continue
        while True:
            f = UniPoly(tower, [rng.randrange(p) for _ in range(part)] + [1])
            if f.coeffs not in seen and is_irreducible(f):
                break
        seen.add(f.coeffs)
        core = core.mul(f)
    degree = sum(1 if part == "v" else part for part in pattern)
    terms = {(degree - j, j): c for j, c in enumerate(core.coeffs) if c}
    for _ in range(rng.randint(2, 3)):
        e = rng.randrange(degree)
        i = rng.randint(0, e)
        terms[(i, e - i)] = rng.randrange(1, p)
    return BiPoly(tower, ("X", "Y"), terms)


def _g_degree(J):
    """deg g at J, read off the reference's homogeneous gcd."""
    _, gamma = ref._initial_gcd(J)
    return _split_monomial(gamma)[1].total_degree


@pytest.mark.parametrize("p", [7, 32003])
def test_linear_gcd_is_not_factored(p, monkeypatch):
    tower = FieldTower.prime_field(p)
    rng = random.Random("direction/linear/%d" % p)
    nodes = [
        node.ideal
        for pattern in SWEEP_PATTERNS
        for point in points_at_infinity(_sweep_polynomial(tower, pattern, rng))
        for node in base_point_tree(point.ideal).nodes()
    ]
    calls = []
    real = nearpoints.factor_univariate
    monkeypatch.setattr(nearpoints, "factor_univariate", lambda f: calls.append(f) or real(f))
    linear = 0
    for J in nodes:
        degree = _g_degree(J)
        del calls[:]
        base_point(J)
        assert len(calls) == (degree > 1), (J, degree)
        linear += degree == 1
    assert {J.tower.height for J in nodes} == {0, 1}
    assert linear > 20
    # x^2 + y^2 is irreducible for p = 3 mod 4: its g is factored
    x, y = (BiPoly.variable(tower, props.V, v) for v in props.V)
    del calls[:]
    base_point(LocalIdeal(tower, props.V, [x * x + y * y, x ** 3 + y ** 4]))
    assert len(calls) == 1
