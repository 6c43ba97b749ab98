"""The quadratic transform as an exponent shift, against the gcd it replaced.

transform_ideal maps the generators through the step, a monomial map and a
Taylor shift, and divides them by u^(ord J), u the exceptional variable of
the new chart.  It used to substitute the pair (u, u(w + c)) or (uw, w) into
them and divide by their polynomial gcd, taken pairwise; for coprime
generators the two agree, because the transform is an isomorphism away from
u = 0.  _transform_by_gcd keeps that old path as a reference, with the
general substitution (substitute, step_substitution) the engine no longer
has.  Every transform the engine makes while it builds the trees of the
property-suite ideals and the benchmark's simple ideals, over Q, F_7,
F_32003 and F_7(a), and of a few plane curves at infinity over the first
three, must give the reference's generators byte for byte, and they must
stay coprime.

The same references check QdtPath.pullback, which walks a polynomial
through every step of a path, and the numerator of a polynomial in the
chart at a finite point at infinity, whose y is shifted by the point.
"""

import random

import pytest

import test_properties as props
from dicritical import nearpoints
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.arith import polynomials
from dicritical.arith.polynomials import bipoly_gcd
from dicritical.atinfinity import FINITE_CHART, _finite_numerator, dicriticals_at_infinity, points_at_infinity
from dicritical.cli import parse_polynomial
from dicritical.divisors import PrimeDivisor, simple_ideal
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep
from dicritical.zariski import base_point_tree, dicritical_set

V = props.V
F7 = FieldTower.prime_field(7)
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1; -1 is not a square mod 7
FIELDS = [
    ("Q", QQ),
    ("F7", F7),
    ("F32003", FieldTower.prime_field(32003)),
    ("F7(a)", F7A),
]
IDS = [n for n, _ in FIELDS]
# the path shapes of the benchmark's simple ideals: "0" is the affine point 0,
# "a" an affine point c != 0 and "i" the point at infinity
SHAPES = ["iaa", "00a", "i0i", "0ii", "aia", "a00", "aaaa", "00ai", "a0ia",
          "0iaa", "0aa00", "0iiaa", "i0aii", "a0i0a", "00iia", "a0a0a"]
CURVES = ["(X^2+Y^2)^3+X", "X^4*Y^4 - X", "X^3 - Y^2", "(X^3 + X*Y^2 + 1)^2 + Y",
          "X^5*Y^2 + X^2*Y^5 + Y"]


def substitute(f, px, py):
    """Value of f with vars[0] := px and vars[1] := py."""
    if px.tower != f.tower or py.tower != f.tower:
        raise ValueError("substitution requires matching towers")
    if px.vars != py.vars:
        raise ValueError("substitution targets disagree on variables")
    T = f.tower
    xpows = [BiPoly.one(T, px.vars)]
    for _ in range(max(f.degree_in(0), 0)):
        xpows.append(xpows[-1].mul(px))
    ypows = [BiPoly.one(T, py.vars)]
    for _ in range(max(f.degree_in(1), 0)):
        ypows.append(ypows[-1].mul(py))
    out = {}
    for (i, j), c in f.terms.items():
        part = ypows[j] if i == 0 else xpows[i] if j == 0 else xpows[i].mul(ypows[j])
        for key, a in part.terms.items():
            a = T.mul(c, a)
            out[key] = T.add(out[key], a) if key in out else a
    return BiPoly(T, px.vars, out)


def step_substitution(tower, vars, step):
    """The (old u, old w) pair expressed in the new chart coordinates."""
    u = BiPoly.variable(tower, vars, vars[0])
    w = BiPoly.variable(tower, vars, vars[1])
    if step.kind == "affine":
        c = step.constant_in(tower)
        return u, u.mul(w.add(BiPoly.monomial(tower, vars, (0, 0), c)))
    return u.mul(w), w


def _transform_by_gcd(J, step):
    """The transform as it was: substitute, then divide by the pairwise gcd."""
    T2 = step.extend_tower(J.tower)
    su, sw = step_substitution(T2, J.vars, step)
    subs = [substitute(g if g.tower == T2 else g.lift_to(T2), su, sw) for g in J.gens]
    common = subs[0]
    for other in subs[1:]:
        if common.is_constant():
            break
        common = bipoly_gcd(common, other)
    if not common.is_constant():
        subs = [g.exact_div(common) for g in subs]
    inv = T2.inv(subs[0].terms[min(subs[0].terms)])
    return LocalIdeal(T2, J.vars, [g.scale(inv) for g in subs])


def _rendered(J):
    return [(g.render(), sorted(g.terms.items())) for g in J.gens]


@pytest.fixture
def checked(monkeypatch):
    """Compares every transform the engine makes with the reference; counts them."""
    shifted = nearpoints.transform_ideal
    seen = []

    def compare(J, step):
        got, expected = shifted(J, step), _transform_by_gcd(J, step)
        assert got.tower == expected.tower
        assert _rendered(got) == _rendered(expected), (J, step)
        assert got.content().is_constant(), (J, step)
        seen.append(got)
        return got

    monkeypatch.setattr(nearpoints, "transform_ideal", compare)
    return seen


def _with_a(J, tower):
    """J lifted to tower under x -> x + a*y, so its coefficients involve a."""
    x, y = BiPoly.variable(tower, V, "x"), BiPoly.variable(tower, V, "y")
    sx = x + BiPoly.monomial(tower, V, (0, 0), tower.generator()) * y
    return LocalIdeal(tower, V, [substitute(g.lift_to(tower), sx, y) for g in J.gens])


def _property_ideals(name, tower):
    base = F7 if tower is F7A else tower
    rng = random.Random("transform/%s" % name)
    for _ in range(props.PER_FIELD):
        J = props.random_primary(rng, base)
        yield _with_a(J, tower) if tower is F7A else J


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_property_trees_match_the_gcd(checked, name, tower):
    nodes = 0
    for J in _property_ideals(name, tower):
        nodes += len(base_point_tree(J).nodes())
    assert len(checked) == nodes - props.PER_FIELD
    assert len(checked) > props.PER_FIELD


def _bench_divisor(shape, tower, rng):
    nonzero = [tower.one(), tower.neg(tower.one())]
    if tower.height:
        nonzero.append(tower.generator())
    steps = []
    for ch in shape:
        if ch == "i":
            steps.append(QdtStep.infinity())
        else:
            steps.append(QdtStep.affine(tower.zero() if ch == "0" else rng.choice(nonzero)))
    return PrimeDivisor(QdtPath(tower, V, steps))


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_simple_ideal_trees_match_the_gcd(checked, name, tower):
    rng = random.Random("simple/%s" % name)
    for shape in SHAPES:
        v = _bench_divisor(shape, tower, rng)
        records = dicritical_set(simple_ideal(v))
        assert [(r.divisor, r.index) for r in records] == [(v, 1)]
    assert len(checked) >= sum(map(len, SHAPES))


@pytest.mark.parametrize("name,tower", FIELDS[:3], ids=IDS[:3])
def test_trees_at_infinity_match_the_gcd(checked, name, tower):
    for text in CURVES:
        dicriticals_at_infinity(parse_polynomial(text, tower, ("X", "Y")))
    assert checked


def test_directions_compute_no_gcd(monkeypatch):
    trees = [base_point_tree(J) for _, tower in FIELDS for J in _property_ideals("gcd", tower)]
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return bipoly_gcd(f, g)

    monkeypatch.setattr(nearpoints, "bipoly_gcd", counted)
    monkeypatch.setattr(polynomials, "bipoly_gcd", counted)
    for tree in trees:
        for node in tree.nodes():
            pairs = nearpoints.base_point(node.ideal)[2]
            assert [_rendered(t) for _, t in pairs] == [_rendered(c.ideal) for c in node.children]
    assert calls == []


def test_shift_is_the_strict_transform_off_m_primary():
    # (y) is not M-primary; its transform at the affine point 0 is the
    # strict transform y, where the gcd made it the unit ideal
    x, y = BiPoly.variable(QQ, V, "x"), BiPoly.variable(QQ, V, "y")
    t = nearpoints.transform_ideal(LocalIdeal(QQ, V, [y]), QdtStep.affine(QQ.zero()))
    assert t.gens == (y,)
    assert _transform_by_gcd(LocalIdeal(QQ, V, [y]), QdtStep.affine(QQ.zero())).is_unit()
    t = nearpoints.transform_ideal(LocalIdeal(QQ, V, [x]), QdtStep.infinity())
    assert t.gens == (x,)


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_shifted_matches_the_substitution(name, tower):
    rng = random.Random("shifted/%s" % name)
    x, y = BiPoly.variable(tower, V, "x"), BiPoly.variable(tower, V, "y")
    consts = [tower.zero(), tower.one(), tower.from_int(3)]
    if tower.height:
        consts.append(tower.add(tower.one(), tower.generator()))
    for _ in range(30):
        f = props.random_poly(rng, tower, 6)
        for c in consts:
            assert f.shifted(c) == substitute(f, x, y + BiPoly.monomial(tower, V, (0, 0), c)), (f, c)


def _numerator_by_powers(f, tower, c, n):
    """z^N * f(1/z, (y+c)/z), summed term by term from powers of y + c."""
    z = BiPoly.variable(tower, FINITE_CHART, "z")
    shifted = BiPoly.variable(tower, FINITE_CHART, "y") + BiPoly.monomial(tower, FINITE_CHART, (0, 0), c)
    out = BiPoly.zero(tower, FINITE_CHART)
    for (i, j), a in f.terms.items():
        term = z.pow(n - i - j) * shifted.pow(j)
        out = out + term.scale(tower.lift_from(f.tower, a))
    return out


@pytest.mark.parametrize("name,tower", FIELDS[:3], ids=IDS[:3])
def test_finite_numerators_match_the_powers(name, tower):
    extended = 0
    for text in CURVES:
        f = parse_polynomial(text, tower, ("X", "Y"))
        for point in points_at_infinity(f):
            if point.kind != "finite":
                continue
            n = f.total_degree
            got = _finite_numerator(f, point.tower, point.c, n)
            assert got == _numerator_by_powers(f, point.tower, point.c, n), (text, point.label())
            extended += point.minpoly is not None
    assert extended >= 1
