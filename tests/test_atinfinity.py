"""Points at infinity and the dicritical partition of a plane polynomial."""

import pytest

from dicritical.arith import QQ, BiPoly
from dicritical.atinfinity import (
    FINITE_CHART,
    VERTICAL_CHART,
    dicriticals_at_infinity,
    points_at_infinity,
)
from dicritical.errors import ZeroPolynomial

W = ("X", "Y")
Xv = BiPoly.variable(QQ, W, "X")
Yv = BiPoly.variable(QQ, W, "Y")


def test_points_two_charts():
    f = Xv.pow(4).mul(Yv.pow(4)).sub(Xv)
    pts = points_at_infinity(f)
    assert [p.label() for p in pts] == ["[1:0:0]", "[0:1:0]"]
    assert pts[0].kind == "finite" and pts[0].chart_vars == FINITE_CHART
    assert pts[1].kind == "vertical" and pts[1].chart_vars == VERTICAL_CHART
    # chart ideal at [1:0:0]: (z^8 * f(1/z, y/z), z^8) = (y^4 - z^7, z^8)
    gens = [g.render() for g in pts[0].ideal.gens]
    assert gens == ["-z^7 + y^4", "z^8"]


def test_partition_of_quartic_example():
    f = Xv.pow(4).mul(Yv.pow(4)).sub(Xv)
    report = dicriticals_at_infinity(f)
    assert report.degree == 8
    assert report.degree_form.render() == "X^4*Y^4"
    assert report.total == 2
    (p1, recs1), (p2, recs2) = report.entries
    assert p1.label() == "[1:0:0]" and len(recs1) == 1
    r1 = recs1[0]
    assert r1.index == 1 and r1.degree == 1
    assert r1.values == {"y": 7, "z": 4}
    assert r1.global_values == {"X": -4, "Y": 3}
    assert p2.label() == "[0:1:0]" and len(recs2) == 1
    r2 = recs2[0]
    assert r2.index == 4 and r2.degree == 4
    assert r2.global_values == {"X": 1, "Y": -1}


def test_pure_power_one_dicritical():
    for n in (1, 2, 5):
        report = dicriticals_at_infinity(Xv.pow(n))
        assert report.total == 1, n


def test_mixed_monomial_two_dicriticals():
    report = dicriticals_at_infinity(Xv.pow(2).mul(Yv.pow(3)))
    assert report.total == 2
    labels = [p.label() for p, recs in report.entries if recs]
    assert labels == ["[1:0:0]", "[0:1:0]"]


def test_cusp_values():
    f = Xv.pow(3).sub(Yv.pow(2))
    report = dicriticals_at_infinity(f)
    assert report.total == 1
    records = [r for _, recs in report.entries for r in recs]
    (rec,) = records
    assert rec.global_values == {"X": -2, "Y": -3}
    v = rec.divisor
    point = next(p for p, recs in report.entries if recs)
    # f itself is a moving unit on its dicritical
    assert v.value(point.z.num) - v.value(point.z.den) == 0
    # X^3 pulls back to x^3 / z^3 in the vertical chart: value 3 * (-2)
    x3 = BiPoly.variable(point.tower, point.chart_vars, "x").pow(3)
    z3 = BiPoly.variable(point.tower, point.chart_vars, "z").pow(3)
    assert v.value(x3) - v.value(z3) == -6


def test_swap_symmetry():
    f = Xv.pow(4).mul(Yv.pow(4)).sub(Xv)
    g = Yv.pow(4).mul(Xv.pow(4)).sub(Yv)
    a = dicriticals_at_infinity(f)
    b = dicriticals_at_infinity(g)
    assert a.total == b.total == 2
    va = sorted(tuple(sorted(r.global_values.items())) for _, recs in a.entries for r in recs)
    vb = sorted(
        tuple(sorted((("X", gv["Y"]), ("Y", gv["X"]))))
        for _, recs in b.entries
        for r in recs
        for gv in [r.global_values]
    )
    assert va == vb


def test_extension_point():
    f = Xv.pow(2).add(Yv.pow(2)).add(Xv)
    pts = points_at_infinity(f)
    assert len(pts) == 1
    p = pts[0]
    assert p.kind == "finite" and p.extension_degree == 2
    assert p.label() == "[1:a1:0]"
    assert p.tower.height == 1


def test_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        points_at_infinity(BiPoly.zero(QQ, W))
    with pytest.raises(ZeroPolynomial):
        points_at_infinity(BiPoly.one(QQ, W))


def test_linear_input():
    # degree form X vanishes only at [0:1:0]; there X = x/z is a unit with
    # moving residue, so its global value on the lone dicritical is 0
    report = dicriticals_at_infinity(Xv)
    assert report.degree == 1
    assert report.total == 1
    (point, recs) = report.entries[0]
    assert point.label() == "[0:1:0]"
    assert recs[0].global_values == {"X": 0, "Y": -1}
