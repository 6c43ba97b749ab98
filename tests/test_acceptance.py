"""Acceptance gate: seven end-to-end criteria, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion is self-contained and finishes in seconds.
"""

import json
import subprocess
import sys

from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.atinfinity import dicriticals_at_infinity
from dicritical.cli import parse_ideal, parse_polynomial, parse_rational
from dicritical.divisors import simple_ideal
from dicritical.nearpoints import LocalIdeal
from dicritical.zariski import base_point_tree, dicritical_of_rational, dicritical_set

V = ("x", "y")
W = ("X", "Y")


def _ideal(text, tower=QQ, vars=V):
    return parse_ideal(text, tower, vars)


def _poly(text, tower=QQ, vars=V):
    return parse_polynomial(text, tower, vars)


def test_criterion_1_cusp_function():
    z = parse_rational("y^2/x^3", QQ, V)
    records = dicritical_of_rational(z)
    assert len(records) == 1
    rec = records[0]
    assert rec.values == {"x": 2, "y": 3}
    assert rec.index == 1 and rec.degree == 1

    J = _ideal("x^3, y^2")
    assert ic.closure_membership(_poly("x^2*y"), J)

    r = ic.is_reduction(J, _ideal("x^3, y^2, x^2*y"))
    assert r.decision and r.witness == 1 and r.by_direct and r.by_valuative
    print("PASS criterion 1: cusp dicritical, closure membership, reduction witness")


def test_criterion_2_three_node_chain():
    J = _ideal("x^3, x^2*y, y^7")
    tree = base_point_tree(J)
    nodes = list(tree.nodes())
    assert [n.path.length for n in nodes] == [0, 1, 2]
    assert [n.zariski for n in nodes] == [1, 0, 2]

    records = dicritical_set(J)
    assert [(r.divisor.path.length, r.index) for r in records] == [(0, 1), (2, 2)]

    transform = nodes[1].ideal
    expected = _ideal("x^3, x^2, y^4")
    assert ic.ideal_equals(transform, expected)
    print("PASS criterion 2: node chain, Zariski numbers, first transform")


def test_criterion_3_partition_at_infinity():
    f = _poly("X^4*Y^4 - X", QQ, W)
    report = dicriticals_at_infinity(f)
    assert report.total == 2
    (p1, recs1), (p2, recs2) = report.entries

    assert p1.label() == "[1:0:0]" and len(recs1) == 1
    r1 = recs1[0]
    assert r1.values == {"y": 7, "z": 4} and r1.degree == 1
    assert min(r1.divisor.value(g) for g in p1.ideal.gens) == 32
    closure1 = parse_ideal("y^4 - z^7, z^8, y^3*z^3, y^2*z^5, y^5", QQ, ("z", "y"))
    assert ic.closure_equals(p1.ideal, closure1)

    assert p2.label() == "[0:1:0]" and len(recs2) == 1
    assert recs2[0].degree == 4
    base2 = parse_ideal("x, z^2", QQ, ("z", "x"))
    assert ic.closure_equals(p2.ideal, ic.power(base2, 4))
    tree2 = base_point_tree(p2.ideal)
    (child,) = tree2.root.children
    base3 = parse_ideal("x, z", QQ, ("z", "x"))
    assert ic.closure_equals(child.ideal, ic.power(base3, 4))
    print("PASS criterion 3: two points at infinity with closures and transform")


def test_criterion_4_monomial_and_cusp_counts():
    for n in range(1, 6):
        assert dicriticals_at_infinity(_poly("X^%d" % n, QQ, W)).total == 1

    for m, n in [(1, 1), (1, 2), (2, 3), (3, 4), (5, 2)]:
        f = _poly("X^%d*Y^%d" % (m, n), QQ, W)
        assert dicriticals_at_infinity(f).total == 2

    report = dicriticals_at_infinity(_poly("X^3 - Y^2", QQ, W))
    assert report.total == 1
    (rec,) = [r for _, recs in report.entries for r in recs]
    assert rec.global_values == {"X": -2, "Y": -3}
    point = next(p for p, recs in report.entries if recs)
    x3 = BiPoly.variable(point.tower, point.chart_vars, "x").pow(3)
    z3 = BiPoly.variable(point.tower, point.chart_vars, "z").pow(3)
    assert rec.divisor.value(x3) - rec.divisor.value(z3) == -6
    print("PASS criterion 4: monomial counts and cusp values at infinity")


def test_criterion_5_triangular_family():
    for m in range(1, 6):
        f, g, ideal = ic.abhyankar_family(m)
        assert ideal.min_order() == m
        assert len(ideal.gens) == m + 1
        J = LocalIdeal(QQ, V, [f, g])
        r = ic.is_reduction(J, ideal)
        assert r.decision and r.by_direct and r.by_valuative

        records = dicritical_set(ideal)
        assert len(records) == m
        assert all(rec.index == 1 for rec in records)
        depths = sorted(rec.divisor.path.length for rec in records)
        # supports sit at the first m nodes of the coordinate chain, not m+1
        assert depths == list(range(m))
    print("PASS criterion 5: family orders, generators, reductions, unit indices")


def test_criterion_6_property_suites():
    import test_properties as props

    suites = [
        props.test_valuation_additivity,
        props.test_power_doubles_indices,
        props.test_transform_keeps_dicriticals,
        props.test_rees_certificate_matches_tree,
        props.test_monomial_closure_matches_newton,
        props.test_closure_idempotence,
        props.test_factorization_value_identity,
    ]
    assert 2 * props.PER_FIELD >= 200
    for suite in suites:
        for tower, char in props.FIELDS:
            suite(tower, char)
    print("PASS criterion 6: 7 property suites, %d instances each" % (2 * props.PER_FIELD))


CLI_COMMANDS = [
    ["dicriticals", "y^2/x^3"],
    ["closure-member", "x^2*y", "x^3, y^2"],
    ["reduction-check", "x^3, y^2", "x^3, y^2, x^2*y"],
    ["ideal-dicriticals", "x^3, x^2*y, y^7"],
    ["basepoints", "x^3, x^2*y, y^7"],
    ["zariski-factor", "x^3, x^2*y, y^7"],
    ["at-infinity", "X^4*Y^4 - X"],
    ["at-infinity", "X^3 - Y^2"],
    ["at-infinity", "X^2*Y^3"],
    ["abhyankar-family", "3"],
]


def test_criterion_7_cli_determinism():
    driver = (
        "import json, sys\n"
        "from dicritical import cli\n"
        "for argv in json.load(sys.stdin):\n"
        "    code = cli.main(argv + ['--format', 'machine'])\n"
        "    assert code == 0, argv\n"
    )
    payload = json.dumps(CLI_COMMANDS)
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", driver],
            input=payload.encode(),
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == len(CLI_COMMANDS)
    for line in lines:
        json.loads(line)
    print("PASS criterion 7: machine output byte-identical across runs")
