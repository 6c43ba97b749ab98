"""Values read off the tree and the path, against the pullbacks they replaced.

The dicritical pipeline pulls nothing back along a divisor's path:

  * coordinate_values walks the path back from the terminal node, where
    both coordinates have value 1;
  * the floor v(I) of closure_data is sum_i v(M_i) * ord(J_i) + v(p) over
    the transforms J_i of the path's nodes, p the principal part (a
    monomial ideal's closure_data reads its polygon instead, so its floors
    come from the tree record, echelon_reference.tree_closure_data);
  * dicritical_of_rational reads the residue image off the initial forms of
    the terminal node's two generators (initial_ratio);
  * the global values at infinity come from the chart's coordinate values.

Each reading must equal the pullback it replaced: pullback_order of x and
y, the least value of a generator, residue_image(V, z) coefficient for
coefficient, and the values of the chart coordinates.  A guard checks that
the tree-derived entry points run with QdtPath.pullback disabled.
"""

import random

import pytest

import test_closure_differential as cd
import test_properties as props
import test_transform_differential as td
from echelon_reference import tree_closure_data
from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.atinfinity import dicriticals_at_infinity, points_at_infinity
from dicritical.cli import parse_polynomial
from dicritical.divisors import PrimeDivisor, RationalFn, initial_ratio, residue_image
from dicritical.nearpoints import LocalIdeal, QdtPath, pullback_order
from dicritical.zariski import (
    base_point_tree,
    dicritical_of_rational,
    dicritical_set,
    records_from_tree,
    zariski_factorization,
)

V = props.V
W = ("X", "Y")
F7 = cd.F7
F32003 = FieldTower.prime_field(32003)


def _pullback_by_substitution(path, f):
    """f under the substitution composed from the steps of the path."""
    T = path.tower
    fx, fy = BiPoly.variable(T, V, V[0]), BiPoly.variable(T, V, V[1])
    for i, step in enumerate(path.steps):
        Tn = path.node_tower(i + 1)
        su, sw = td.step_substitution(Tn, V, step)
        fx, fy = td.substitute(fx.lift_to(Tn), su, sw), td.substitute(fy.lift_to(Tn), su, sw)
    return td.substitute(f.lift_to(path.terminal_tower), fx, fy)


def _random_over(rng, tower):
    """A random polynomial whose coefficients involve the top generator of the tower."""
    f = props.random_poly(rng, tower, 4)
    if tower.height:
        f = f + props.random_poly(rng, tower, 4).scale(tower.generator())
    return f


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_pullback_matches_the_substitution(name, tower, second):
    rng = random.Random("pullback/%s" % name)
    paths = [td._bench_divisor(shape, tower, rng).path for shape in td.SHAPES]
    paths += [w.path for w in cd._extension_paths(tower, second)]
    extended = 0
    for path in paths:
        # in path order, whatever the hash seed: a set's order follows the towers' hashes
        towers = (path.tower, path.node_tower(path.length // 2), path.terminal_tower)
        for node_tower in dict.fromkeys(towers):
            f = _random_over(rng, node_tower)
            assert path.pullback(f) == _pullback_by_substitution(path, f), (path, f)
            extended += node_tower.height > 0
    assert extended >= 9


def _pulled_back_values(v):
    x, y = (BiPoly.variable(v.tower, V, name) for name in V)
    return pullback_order(v.path, x), pullback_order(v.path, y)


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_coordinate_values_match_pullbacks(name, tower, second):
    rng = random.Random("values/%s" % name)
    paths = [props.random_path(rng, tower, 6) for _ in range(200)]
    paths += [td._bench_divisor(shape, tower, rng).path for shape in td.SHAPES]
    for w in cd._extension_paths(tower, second):
        paths.append(w.path)
        for _ in range(4):
            tail = props.random_path(rng, w.path.terminal_tower, 3).steps
            paths.append(QdtPath(tower, V, w.path.steps + tail))
    for path in paths:
        v = PrimeDivisor(path)
        assert v.coordinate_values() == _pulled_back_values(v), path


def _floors(ideal):
    """closure_data's floors.  A monomial ideal's closure is read off its
    Newton polygon, with no floors: its floors come from the tree record that
    every other ideal gets."""
    data = ic.closure_data(ideal)
    return (data if data.tree else tree_closure_data(ideal)).floors


def _pulled_back_floors(ideal):
    return tuple((v, cd.value_of_ideal(v, ideal)) for v, _ in zariski_factorization(ideal).exponents)


@pytest.mark.parametrize(
    "name,tower,ground", cd.PROPERTY_FIELDS, ids=[n for n, _, _ in cd.PROPERTY_FIELDS]
)
def test_floors_match_value_of_ideal(name, tower, ground):
    rng = random.Random("floors/%s" % name)
    x = BiPoly.variable(tower, V, "x")
    one = BiPoly.one(tower, V)
    floors = 0
    for _ in range(cd.PER_FIELD):
        J = props.random_primary(rng, ground)
        if tower is not ground:
            J = td._with_a(J, tower)
        for ideal in (J, cd._scaled(J, x - one), cd._scaled(J, x * (x - one))):
            got = _floors(ideal)
            assert got == _pulled_back_floors(ideal), ideal
            floors += len(got)
    assert floors >= 3 * cd.PER_FIELD


def _coefficients(image):
    return image.num.coeffs, image.den.coeffs


def _check_images(z):
    """initial_ratio at each dicritical node against residue_image(V, z)."""
    tree = base_point_tree(LocalIdeal(z.tower, z.vars, [z.num, z.den]))
    records = records_from_tree(tree)
    nodes = [node for node in tree.nodes() if node.zariski > 0]
    for r, node in zip(records, nodes):
        expected = residue_image(r.divisor, z)
        assert _coefficients(initial_ratio(*node.ideal.gens)) == _coefficients(expected)
    if z.num.is_unit_at_origin() or z.den.is_unit_at_origin():
        return 0
    degrees = [r.degree for r in dicritical_of_rational(z)]
    assert degrees == [
        r.divisor.residue_degree() * residue_image(r.divisor, z).degree for r in records
    ]
    return len(records)


def _curves(tower, rng, count=12):
    """The transform suite's curves, then random ones of degree 3 to 5."""
    curves = [parse_polynomial(text, tower, W) for text in td.CURVES]
    while len(curves) < len(td.CURVES) + count:
        n = rng.randint(3, 5)
        f = BiPoly.zero(tower, W)
        for _ in range(rng.randint(2, 5)):
            i = rng.randint(0, n)
            c = props.rand_coeff(rng, tower)
            f = f + BiPoly.monomial(tower, W, (i, rng.randint(0, n - i)), c)
        i = rng.randint(0, n)
        f = f + BiPoly.monomial(tower, W, (i, n - i), props.rand_coeff(rng, tower, True))
        if not f.is_zero() and f.total_degree >= 2:
            curves.append(f)
    return curves


@pytest.mark.parametrize("tower", [F7, F32003], ids=["F7", "F32003"])
def test_images_at_infinity_match_residue_image(tower):
    rng = random.Random("images/%d" % tower.char)
    checked = 0
    for f in _curves(tower, rng):
        for point in points_at_infinity(f):
            checked += _check_images(point.z)
    assert checked > 20


@pytest.mark.parametrize(
    "name,tower,ground", cd.PROPERTY_FIELDS, ids=[n for n, _, _ in cd.PROPERTY_FIELDS]
)
def test_images_of_property_pencils_match_residue_image(name, tower, ground):
    rng = random.Random("pencils/%s" % name)
    checked = 0
    for _ in range(cd.PER_FIELD):
        J = props.random_primary(rng, ground)
        if tower is not ground:
            J = td._with_a(J, tower)
        checked += _check_images(RationalFn(*J.gens))
    assert checked >= cd.PER_FIELD


def _pulled_back_global_values(point, divisor):
    """v of the input coordinates from the values of the chart's z and w + c."""
    tower, chart = point.tower, point.chart_vars
    vz = divisor.value(BiPoly.variable(tower, chart, "z"))
    second = BiPoly.variable(tower, chart, chart[1])
    if point.kind == "finite":
        vx, vy = -vz, divisor.value(second.add(BiPoly.monomial(tower, chart, (0, 0), point.c))) - vz
    else:
        vx, vy = divisor.value(second) - vz, -vz
    return dict(zip(point.input_vars, (vx, vy)))


@pytest.mark.parametrize("tower", [QQ, F7, F32003], ids=["Q", "F7", "F32003"])
def test_global_values_match_the_chart(tower):
    rng = random.Random("global/%d" % tower.char)
    checked = 0
    for f in _curves(tower, rng, count=4 if tower is QQ else 12):
        for point, records in dicriticals_at_infinity(f).entries:
            for r in records:
                assert r.global_values == _pulled_back_global_values(point, r.divisor)
                checked += 1
    assert checked > 10


def test_tree_readings_compose_no_substitution(monkeypatch):
    rng = random.Random("guard")
    ideals = [props.random_primary(rng, tower) for tower in (QQ, F7) for _ in range(15)]
    x = BiPoly.variable(QQ, V, "x")
    unit = [cd._scaled(J, x - BiPoly.one(QQ, V)) for J in ideals[:5]]
    curves = [parse_polynomial(text, F7, W) for text in td.CURVES]

    def refuse(self, f):
        raise AssertionError("pulled %r back along %r" % (f, self))

    monkeypatch.setattr(QdtPath, "pullback", refuse)
    for f in curves:
        assert dicriticals_at_infinity(f).total > 0
    for J in ideals + unit:
        assert dicritical_set(J)
        assert zariski_factorization(J).exponents
        assert ic.closure_colength(J) > 0
        # building the floors is guarded; ClosureData.contains pulls back by design
        assert _floors(J)
