"""Base point trees, the factorization of the closure, and pencil tests."""

import pytest

from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.divisors import RationalFn
from dicritical.errors import DepthExceeded, NodeBudgetExceeded, ZeroInput
from dicritical.nearpoints import LocalIdeal
from dicritical.zariski import (
    TreeConfig,
    base_point_tree,
    dicritical_of_rational,
    dicritical_set,
    rees_certificate,
    special_pencil_test,
    strip_principal,
    zariski_factorization,
)

V = ("x", "y")
X = BiPoly.variable(QQ, V, "x")
Y = BiPoly.variable(QQ, V, "y")


def test_tree_golden_5_16():
    K = LocalIdeal(QQ, V, [X.pow(3), X.pow(2).mul(Y), Y.pow(7)])
    tree = base_point_tree(K)
    nodes = tree.nodes()
    assert [n.zariski for n in nodes] == [1, 0, 2]
    assert [n.path.length for n in nodes] == [0, 1, 2]
    fact = zariski_factorization(K)
    assert sorted((v.path.length, n) for v, n in fact.exponents) == [(0, 1), (2, 2)]


def test_tree_golden_1_3():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    records = dicritical_set(J)
    assert len(records) == 1
    r = records[0]
    assert r.index == 1
    assert r.values == {"x": 2, "y": 3}


def test_principal_stripping():
    J = LocalIdeal(QQ, V, [X.pow(2).mul(Y), X.mul(Y.pow(2))])
    principal, residual = strip_principal(J)
    assert principal.render() == "x*y"
    assert sorted(g.render() for g in residual.gens) == ["x", "y"]
    fact = zariski_factorization(J)
    assert fact.principal.render() == "x*y"
    # residual is the maximal ideal: a single dicritical of index 1
    assert len(fact.exponents) == 1
    assert fact.exponents[0][1] == 1


def test_purely_principal_ideal_has_empty_tree():
    J = LocalIdeal(QQ, V, [X.pow(2), X.pow(2).mul(Y)])
    tree = base_point_tree(J)
    assert tree.root is None
    assert zariski_factorization(J).exponents == ()


def test_dicritical_of_rational_emptiness():
    # z in R or 1/z in R: no dicriticals
    unit_den = RationalFn(Y, X.add(BiPoly.one(QQ, V)))
    assert dicritical_of_rational(unit_den) == []
    unit_num = RationalFn(X.add(BiPoly.one(QQ, V)), Y.pow(2))
    assert dicritical_of_rational(unit_num) == []
    with pytest.raises(ZeroInput):
        dicritical_of_rational(RationalFn(BiPoly.zero(QQ, V), X))


def test_dicritical_of_rational_degrees_attached():
    z = RationalFn(Y.pow(2), X.pow(3))
    records = dicritical_of_rational(z)
    assert [r.degree for r in records] == [1]


def test_depth_budget():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    with pytest.raises(DepthExceeded):
        base_point_tree(J, TreeConfig(max_depth=1))


def test_node_budget():
    J = LocalIdeal(QQ, V, [X.pow(3), X.pow(2).mul(Y), Y.pow(7)])
    with pytest.raises(NodeBudgetExceeded):
        base_point_tree(J, TreeConfig(max_nodes=2))


def test_special_pencil():
    assert special_pencil_test(RationalFn(Y.pow(2), X.pow(3))).decision
    assert special_pencil_test(RationalFn(Y.pow(2), X.pow(3))).witness == 3
    # unit denominator: already in the ring
    r = special_pencil_test(RationalFn(Y, X.add(BiPoly.one(QQ, V))))
    assert r.decision and r.witness == 0
    # x^2 + y^2 is squarefree of order 2: not special
    r = special_pencil_test(RationalFn(X, X.pow(2).add(Y.pow(2))))
    assert not r.decision and r.witness is None
    with pytest.raises(ZeroInput):
        special_pencil_test(RationalFn(BiPoly.zero(QQ, V), X))


def test_special_pencil_smooth_curve_denominator():
    # (y^2 - x^3)^2 has squarefree part of order 2: not special
    den = Y.pow(2).sub(X.pow(3)).pow(2)
    assert not special_pencil_test(RationalFn(X.pow(7), den)).decision
    # y * (1 + x) has squarefree local part of order 1: special
    den2 = Y.mul(X.add(BiPoly.one(QQ, V)))
    r = special_pencil_test(RationalFn(X.pow(2), den2))
    assert r.decision and r.witness == 1


def test_rees_certificate_golden():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    records = dicritical_set(J)
    assert rees_certificate(J, records[0].divisor)


def test_rees_certificate_rejects_non_rees():
    from dicritical.divisors import PrimeDivisor
    from dicritical.nearpoints import QdtPath

    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    # the origin divisor is not a Rees valuation of (x^3, y^2)
    origin = PrimeDivisor(QdtPath(QQ, V))
    assert not rees_certificate(J, origin)


def test_rees_certificate_arity_guard():
    J = LocalIdeal(QQ, V, [X.pow(3), X.mul(Y), Y.pow(2)])
    records = dicritical_set(LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)]))
    with pytest.raises(ValueError):
        rees_certificate(J, records[0].divisor)


def test_f5_tree():
    F5 = FieldTower.prime_field(5)
    x5 = BiPoly.variable(F5, V, "x")
    y5 = BiPoly.variable(F5, V, "y")
    J = LocalIdeal(F5, V, [x5.pow(3), y5.pow(2)])
    records = dicritical_set(J)
    assert len(records) == 1
    assert records[0].values == {"x": 2, "y": 3}


def test_records_keep_no_tree(monkeypatch):
    """Once dicritical_of_rational and dicriticals_at_infinity return, no node
    of a tree they built is alive; the records are."""
    import gc
    import weakref

    from dicritical import zariski
    from dicritical.atinfinity import dicriticals_at_infinity
    from dicritical.cli import parse_polynomial

    built = []

    def tracked(J, config=None, floor=None):
        tree = base_point_tree(J, config, floor)
        built.extend(weakref.ref(node) for node in tree.nodes())
        return tree

    monkeypatch.setattr(zariski, "base_point_tree", tracked)
    F7 = FieldTower.prime_field(7)
    W = ("X", "Y")
    f = parse_polynomial("(X^3 + X*Y^2 + 1)^2 + Y + X^5*Y^2 + X^2*Y^5", F7, W)
    report = dicriticals_at_infinity(f)
    records = dicritical_of_rational(RationalFn(X.pow(3), Y.pow(2)))
    gc.collect()
    assert built and records and report.total > 0
    assert [ref for ref in built if ref() is not None] == []
    assert [(r.values, r.degree) for r in records] == [({"x": 2, "y": 3}, 1)]
    assert all(r.degree and r.global_values for _, recs in report.entries for r in recs)


def test_records_are_built_whole():
    """The records the engine returns refuse attribute assignment."""
    from dicritical.atinfinity import dicriticals_at_infinity
    from dicritical.idealcalc import is_reduction

    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    report = dicriticals_at_infinity(X.pow(3).mul(Y.pow(2)) + X)
    fields = [
        (dicritical_of_rational(RationalFn(X.pow(3), Y.pow(2)))[0], "degree"),
        (report.entries[0][1][0], "global_values"),
        (is_reduction(J, J), "decision"),
        (zariski_factorization(J), "principal"),
    ]
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.note = None
