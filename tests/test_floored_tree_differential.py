"""Floored base-point trees, against the full trees they replace.

dicritical_of_rational builds the tree of a pencil (f, x^a·y^b) with a floor:
the pencil's colength λ = a·ord_y f(0, y) + b·ord_x f(x, 0)
(zariski._monomial_pencil_colength), and at a child of a node of order d
the floor less d^2, from Noether's formula.  Before each step the node drops
the terms of degree above its children's floor plus d (nearpoints.base_point),
so only the generators kept on the nodes may differ from the full tree.

On the pencils at every point at infinity of the benchmark's sweep shapes
(degree 2 to 6, over F_7 and F_32003), of Q inputs whose points need an
extension, of inputs over F_7(a), of degree forms with repeated factors, of
singular and tangent charts, and on the pencil at the origin of
(y^2 - x^3 + x·y^5)/(x^2·y^3), the floored tree must match the full one
node for node: path, orders, Zariski number, each generator's initial form
up to the normalizing scalar, the residue image, and the node's ideal, by
truncation frames.  The floor must be the frame's colength of the pencil;
at each node the colength must stay within the floor, and the children's
colengths, weighted by residue degree, must add up to the node's less d^2.  The records of
dicritical_of_rational and dicriticals_at_infinity must equal those the full
tree gives, and the sweep's floored trees must keep fewer terms.

dicritical_set floors the tree of a two-generated ideal with a monomial side
the same way.  On the same pencils its records must equal the full tree's.
A pair that shares x or y with its monomial has no floor, and keeps the
full tree's records.
"""

import random

import pytest

from dicritical import idealcalc as ic
from dicritical import zariski
from dicritical.arith import QQ, BiPoly, FieldTower, UniPoly
from dicritical.arith.factor import is_irreducible
from dicritical.atinfinity import dicriticals_at_infinity, points_at_infinity
from dicritical.cli import parse_polynomial, parse_rational
from dicritical.divisors import initial_ratio
from dicritical.nearpoints import LocalIdeal
from dicritical.zariski import (base_point_tree, dicritical_of_rational, dicritical_set,
                                records_from_tree)

W = ("X", "Y")
F7 = FieldTower.prime_field(7)
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1; -1 is not a square mod 7
# the factor degrees of the degree form's dehomogenization, as the benchmark's
# infinity-sweep draws them; "v" adds the point [0:1:0]
SWEEP = {
    2: [(2,), (1, 1), (1, "v")],
    3: [(3,), (1, 2), (2, "v"), (1, 1, 1)],
    4: [(4,), (1, 3), (2, 2), (3, "v"), (1, 1, 2)],
    5: [(5,), (1, 4), (2, 3), (4, "v"), (1, 2, 2)],
    6: [(6,), (1, 5), (3, 3), (2, 4), (5, "v"), (1, 1, 4)],
}
EXTENSION_Q = ["(Y^2 - 2*X^2)*(Y - 3*X)*X + Y^2 + X", "(X^2 + Y^2)^2 + X*Y + Y",
               "(Y^3 - 2*X^3)*X + X^2 - Y", "(X^2 + X*Y + Y^2)^3 + X^4 + Y"]
REPEATED = ["(Y - X)^3*(Y + 2*X) + X^2 + Y", "(Y^2 + X^2)^2*X + Y^3 + X",
            "X^3*(Y - 2*X)^2 + Y^4 + X*Y", "(Y - X)^6 + X^5 + Y^2"]
SINGULAR = ["(Y^2-X^3)^2 + X*Y", "X^3*Y^3 - X^2 + Y"]
ORIGIN = "(y^2 - x^3 + x*y^5)/(x^2*y^3)"


def _irreducible(rng, tower, p, degree):
    while True:
        coeffs = [tower.from_int(rng.randrange(p)) for _ in range(degree)]
        f = UniPoly(tower, coeffs + [tower.one()])
        if degree == 1 or is_irreducible(f):
            return f


def _sweep_shapes(p):
    """One polynomial per sweep pattern: a degree form whose dehomogenization
    has distinct irreducible factors of the pattern's degrees, plus two or
    three lower terms."""
    tower = FieldTower.prime_field(p)
    rng = random.Random("floored tree/%d" % p)
    for degree, patterns in SWEEP.items():
        for pattern in patterns:
            core = UniPoly(tower, [tower.from_int(rng.randrange(1, p))])
            seen = []
            for part in pattern:
                if part == "v":
                    continue
                factor = _irreducible(rng, tower, p, part)
                while factor.coeffs in seen:
                    factor = _irreducible(rng, tower, p, part)
                seen.append(factor.coeffs)
                core = core.mul(factor)
            terms = {(degree - j, j): c for j, c in enumerate(core.coeffs) if not tower.is_zero(c)}
            for _ in range(rng.randint(2, 3)):
                e = rng.randrange(degree)
                i = rng.randint(0, e)
                terms[(i, e - i)] = tower.from_int(rng.randrange(1, p))
            yield BiPoly(tower, W, terms)


def _over_f7a():
    """Inputs whose coefficients involve a: lines Y - c·X with c in F_7(a),
    repeated, and Y^2 - (a + 2)·X^2, irreducible since a + 2 has norm 5, no
    square mod 7."""
    X, Y = (BiPoly.variable(F7A, W, v) for v in W)

    def c(n, m=0):
        return BiPoly.monomial(F7A, W, (0, 0), F7A.add(F7A.from_int(n), F7A.mul(
            F7A.from_int(m), F7A.generator())))

    yield (Y - c(0, 1) * X).pow(2) * (Y * Y - c(2, 1) * X * X) + c(0, 1) * X * Y + Y
    yield (X * X + Y * Y).pow(3) + c(0, 1) * X * X + Y
    yield X * (Y + c(0, 1) * X).pow(3) + c(1, 1) * Y * Y + X
    yield (Y * Y + X * X + X * Y).pow(2) + c(0, 1) * Y


def _inputs():
    for p in (7, 32003):
        for f in _sweep_shapes(p):
            yield "F%d %s" % (p, f.render()), f
    for f in _over_f7a():
        yield "F7(a) %s" % f.render(), f
    for texts, tower in ((EXTENSION_Q, QQ), (REPEATED, QQ), (REPEATED, F7),
                         (SINGULAR, QQ), (SINGULAR, F7)):
        for text in texts:
            yield text, parse_polynomial(text, tower, W)


def _pencils():
    for label, f in _inputs():
        for point in points_at_infinity(f):
            yield "%s at %s" % (label, point.label()), point.ideal
    for tower in (QQ, F7):
        z = parse_rational(ORIGIN, tower, ("x", "y"))
        yield ORIGIN, LocalIdeal(tower, z.vars, [z.num, z.den])


def _reading(node):
    """What a node shows beyond its generators' scale."""
    forms = tuple(g.initial_form().normalized() for g in node.ideal.gens)
    return node.path, node.orders, node.zariski, forms, initial_ratio(*node.ideal.gens)


def _terms(tree):
    return sum(len(g.terms) for node in tree.nodes() for g in node.ideal.gens)


def _noether(node):
    """Children's colengths weighted by residue degree, and the node's less d^2."""
    degree = node.path.terminal_tower.degree()
    below = sum(child.path.terminal_tower.degree() // degree * ic.colength(child.ideal)
                for child in node.children)
    return below, ic.colength(node.ideal) - node.orders[-1] ** 2


def _equal_below(j, k, bound):
    """Whether J + M^bound = K + M^bound, by truncation frames."""
    fj, fk = ic.TruncationFrame(j, bound), ic.TruncationFrame(k, bound)
    return all(map(fk.contains, j.gens)) and all(map(fj.contains, k.gens))


CASES = list(_pencils())


@pytest.mark.parametrize("label,J", CASES, ids=[label for label, _ in CASES])
def test_floored_tree_matches_the_full_tree(label, J):
    """Node for node; the ideals agree modulo M^(floor + 1), so are equal,
    since both then hold M^floor (Nakayama)."""
    floor = zariski._monomial_pencil_colength(*J.gens)
    assert floor == ic.colength(J), label
    full, floored = base_point_tree(J), base_point_tree(J, floor=floor)
    assert [_reading(n) for n in floored.nodes()] == [_reading(n) for n in full.nodes()], label
    floors = {floored.root.path: floor}
    for got, node in zip(floored.nodes(), full.nodes()):
        floor, d = floors[got.path], got.orders[-1]
        assert _equal_below(got.ideal, node.ideal, floor + 1), (label, got.path)
        below, left = _noether(got)
        assert below == left and left + d * d <= floor, (label, got.path)
        floors.update((child.path, floor - d * d) for child in got.children)


def _fingerprint(records):
    return [(repr(r.divisor.path), r.index, sorted(r.values.items()), r.degree,
             sorted((r.global_values or {}).items())) for r in records]


def _records(monkeypatch, floored):
    if not floored:
        monkeypatch.setattr(zariski, "_monomial_pencil_colength", lambda f, g: None)
    out = [_fingerprint(recs) for _, f in _inputs()
           for _, recs in dicriticals_at_infinity(f).entries]
    for tower in (QQ, F7):
        out.append(_fingerprint(dicritical_of_rational(parse_rational(ORIGIN, tower, ("x", "y")))))
    monkeypatch.undo()
    return out


def test_records_match_the_full_tree(monkeypatch):
    floored = _records(monkeypatch, True)
    assert floored == _records(monkeypatch, False)
    assert sum(map(len, floored)) > 50


def test_the_floor_drops_terms():
    full = floored = 0
    for p in (7, 32003):
        for f in _sweep_shapes(p):
            for point in points_at_infinity(f):
                floor = zariski._monomial_pencil_colength(*point.ideal.gens)
                full += _terms(base_point_tree(point.ideal))
                floored += _terms(base_point_tree(point.ideal, floor=floor))
    assert floored < full * 0.8, (floored, full)


def test_only_monomial_pencils_have_a_floor():
    x, y = (BiPoly.variable(QQ, ("x", "y"), v) for v in "xy")
    f = y * y - x * x * x
    assert zariski._monomial_pencil_colength(f, x.pow(2) * y.pow(3)) == 2 * 2 + 3 * 3
    assert zariski._monomial_pencil_colength(y.pow(4), x.pow(3)) == 12
    assert zariski._monomial_pencil_colength(f, f + x.pow(4)) is None
    # a shared x or y leaves the pair with no finite colength
    assert zariski._monomial_pencil_colength(x.pow(2) * y, x * y.pow(2)) is None
    assert zariski._monomial_pencil_colength(x * f, x.pow(2)) is None
    assert zariski._monomial_pencil_colength(x * f, y.pow(3)) == 3 * 4


def test_dicritical_set_matches_the_full_tree(monkeypatch):
    floors, real = [], zariski.base_point_tree

    def logged(J, config=None, floor=None):
        floors.append(floor)
        return real(J, config, floor)

    x, y = (BiPoly.variable(QQ, ("x", "y"), v) for v in "xy")
    shared = [LocalIdeal(QQ, ("x", "y"), gens) for gens in
              ([x.pow(2) * y, x * y.pow(2)], [x * (y * y - x.pow(3)), x.pow(2)])]
    for label, J in CASES + [(repr(J), J) for J in shared]:
        full = _fingerprint(records_from_tree(base_point_tree(J)))
        monkeypatch.setattr(zariski, "base_point_tree", logged)
        assert _fingerprint(dicritical_set(J)) == full, label
        monkeypatch.undo()
    assert floors[:len(CASES)] == [zariski._monomial_pencil_colength(*J.gens) for _, J in CASES]
    assert None not in floors[:len(CASES)] and floors[len(CASES):] == [None, None]
