"""Quadratic transform steps, paths, and proper transforms of ideals."""

import pytest

from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.errors import ZeroPolynomial
from dicritical.nearpoints import (
    LocalIdeal,
    QdtPath,
    QdtStep,
    base_point,
    pullback_order,
    transform_ideal,
)

V = ("x", "y")


def mk(tower=QQ):
    return BiPoly.variable(tower, V, "x"), BiPoly.variable(tower, V, "y")


def test_affine_step_substitution():
    x, y = mk()
    path = QdtPath(QQ, V, [QdtStep.affine(QQ.from_int(2))])
    fx, fy = path.pullback(x), path.pullback(y)
    # x = x', y = x'(y' + 2)
    assert fx == BiPoly.variable(QQ, V, "x")
    xs, ys = mk()
    assert fy == xs.mul(ys.add(BiPoly.from_int(QQ, V, 2)))


def test_infinity_step_substitution():
    x, y = mk()
    path = QdtPath(QQ, V, [QdtStep.infinity()])
    fx, fy = path.pullback(x), path.pullback(y)
    xs, ys = mk()
    assert fx == xs.mul(ys)
    assert fy == ys


def test_pullback_order_composes():
    x, y = mk()
    steps = [QdtStep.affine(QQ.zero()), QdtStep.infinity()]
    path = QdtPath(QQ, V, steps)
    assert pullback_order(path, x) == 2
    assert pullback_order(path, y) == 3
    with pytest.raises(ZeroPolynomial):
        pullback_order(path, BiPoly.zero(QQ, V))


def test_zariski_number():
    x, y = mk()
    J = LocalIdeal(QQ, V, [x.pow(3), y.pow(2)])
    # order 2, single minimal-order form y^2 of degree 2: m = 0
    assert base_point(J)[1] == 0
    K = LocalIdeal(QQ, V, [x.pow(3), x.pow(2).mul(y), y.pow(7)])
    # order 3, gcd of x^3 and x^2 y is x^2: m = 1
    assert base_point(K)[1] == 1


def test_direction_discovery_affine_roots():
    x, y = mk()
    # initial form y^2 - x^2 = (y-x)(y+x): two affine directions
    J = LocalIdeal(QQ, V, [y.pow(2).sub(x.pow(2)), x.pow(3)])
    steps = [s for s, _ in base_point(J)[2]]
    cs = sorted(QQ.render(s.c) for s in steps if s.kind == "affine")
    assert cs == ["-1", "1"]


def test_direction_discovery_infinity():
    x, y = mk()
    # gcd of the order-3 initial forms is x^2: direction at infinity only
    J = LocalIdeal(QQ, V, [x.pow(3), x.pow(2).mul(y), y.pow(5)])
    steps = [s for s, _ in base_point(J)[2]]
    assert [s.kind for s in steps] == ["infinity"]


def test_direction_extension():
    x, y = mk()
    # initial form y^2 + x^2 is irreducible over QQ
    J = LocalIdeal(QQ, V, [y.pow(2).add(x.pow(2)), x.pow(3)])
    steps = [s for s, _ in base_point(J)[2]]
    assert len(steps) == 1
    assert steps[0].extends
    tower = steps[0].extend_tower(QQ)
    assert tower.degree() == 2


def test_transform_golden_chain():
    # (x^3, x^2 y, y^7): transforms along the two infinity steps
    x, y = mk()
    K = LocalIdeal(QQ, V, [x.pow(3), x.pow(2).mul(y), y.pow(7)])
    pairs = base_point(K)[2]
    assert len(pairs) == 1
    step, t1 = pairs[0]
    assert step.kind == "infinity"
    assert sorted(g.render() for g in t1.gens) == ["x^2", "x^3", "y^4"]
    pairs = base_point(t1)[2]
    assert len(pairs) == 1
    step, t2 = pairs[0]
    assert step.kind == "infinity"
    assert sorted(g.render() for g in t2.gens) == ["x^2", "x^3*y", "y^2"]
    # t2 has zariski number 2 and no further proper directions
    assert base_point(t2)[1] == 2
    assert base_point(t2)[2] == []


def test_transform_divides_out_gcd():
    x, y = mk()
    J = LocalIdeal(QQ, V, [x.pow(3), y.pow(2)])
    step = QdtStep.affine(QQ.zero())
    t = transform_ideal(J, step)
    # x^3 -> x^3, y^2 -> x^2 y^2, common factor x^2
    assert sorted(g.render() for g in t.gens) == ["x", "y^2"]


def test_local_ideal_guards():
    x, y = mk()
    with pytest.raises(Exception):
        LocalIdeal(QQ, V, [])
    J = LocalIdeal(QQ, V, [x, BiPoly.zero(QQ, V)])
    assert len(J.gens) == 1  # zero generators dropped
    assert J.is_mprimary() is False  # (x) is principal, not M-primary
    K = LocalIdeal(QQ, V, [x.pow(2), y.pow(3)])
    assert K.is_mprimary()
    assert K.min_order() == 2
    assert LocalIdeal(QQ, V, [x.add(BiPoly.one(QQ, V))]).is_unit()


def test_is_mprimary_is_local():
    # x - 1 is a unit at the origin: (x^2 - x, x*y - y) is (x, y)
    x, y = mk()
    one = BiPoly.one(QQ, V)
    J = LocalIdeal(QQ, V, [x.pow(2).sub(x), x.mul(y).sub(y)])
    assert J.is_mprimary()
    assert not LocalIdeal(QQ, V, [x.pow(2).sub(x), x.mul(y).sub(x)]).is_mprimary()
    assert not LocalIdeal(QQ, V, [x.sub(one), y]).is_mprimary()  # the unit ideal


def test_extension_step_tower_chain():
    x, y = mk()
    J = LocalIdeal(QQ, V, [y.pow(2).add(x.pow(2)), x.pow(3)])
    (step, transform), = base_point(J)[2]
    assert transform.tower.height == 1
    # the transform lives over the extension and is still proper
    assert transform.min_order() >= 1


def test_path_text_is_the_cli_format():
    x, y = mk()
    J = LocalIdeal(QQ, V, [y.pow(2).add(x.pow(2)), x.pow(3)])
    (step, _), = base_point(J)[2]
    path = QdtPath(QQ, V, [QdtStep.affine(QQ.from_int(-2)), QdtStep.infinity(), step])
    path = path.extended(QdtStep.affine(path.terminal_tower.generator()))
    assert path.render() == "[aff(-2) inf ext(a1) aff(a1)]"
    assert repr(path) == "QdtPath[aff(-2) inf ext(a1) aff(a1)]"
    assert repr(QdtPath(QQ, V)) == "QdtPath[]"


def test_f5_directions():
    F5 = FieldTower.prime_field(5)
    x, y = mk(F5)
    xf = BiPoly.variable(F5, V, "x")
    yf = BiPoly.variable(F5, V, "y")
    J = LocalIdeal(F5, V, [yf.pow(2).sub(xf.pow(2)), xf.pow(4)])
    steps = [s for s, _ in base_point(J)[2]]
    cs = sorted(F5.render(s.c) for s in steps if s.kind == "affine")
    assert cs == ["1", "4"]
