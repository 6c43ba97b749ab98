"""bipoly_gcd against the primitive PRS it falls back to.

bipoly_gcd splits off the monomial parts and certifies the rest coprime by
specializing one variable at a nonzero constant where the other's leading
coefficient survives; only when that fails does it run the PRS.  Here both
must agree on seeded pairs h*A, h*B over Q, F_7, F_32003 and F_7(a), with the
common factor h a constant, a random polynomial, or (x - 1)(y - 1) + 1, which
is constant on both x = 1 and y = 1: a certificate that ignored the leading
coefficient would call its multiples coprime.  The gcd of several
polynomials, one certificate for all, must equal the pairwise gcds folded in
order, as LocalIdeal.content took them before.
"""

import random
from fractions import Fraction

import pytest

import test_properties as props
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.arith import polynomials
from dicritical.arith.polynomials import _prs_gcd, bipoly_gcd
from dicritical.divisors import PrimeDivisor, simple_ideal
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep

V = ("x", "y")
F7 = FieldTower.prime_field(7)
FIELDS = [
    ("Q", QQ),
    ("F7", F7),
    ("F32003", FieldTower.prime_field(32003)),
    ("F7(a)", F7.extended("a", (1, 0, 1))),  # a^2 = -1; -1 is not a square mod 7
]
PAIRS = 46


def _scalar(tower, rng):
    """A random nonzero element."""
    while True:
        if tower.base is None:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            c = tower.element_from_index(rng.randrange(tower.element_count()))
        if not tower.is_zero(c):
            return c


def _poly(tower, rng, terms, degree):
    return BiPoly(tower, V, {
        (rng.randint(0, degree), rng.randint(0, degree)): _scalar(tower, rng)
        for _ in range(terms)
    })


def _common_factor(tower, kind, rng):
    if kind == "constant":
        return BiPoly.monomial(tower, V, (0, 0), _scalar(tower, rng))
    x, y = BiPoly.variable(tower, V, "x"), BiPoly.variable(tower, V, "y")
    if kind == "adversarial":
        one = BiPoly.one(tower, V)
        return (x - one) * (y - one) + one
    h = _poly(tower, rng, rng.randint(2, 4), 2)
    return h if not h.is_constant() else h + x * y


def _pairs(tower, kind, seed):
    rng = random.Random(seed)
    for _ in range(PAIRS):
        h = _common_factor(tower, kind, rng)
        a, b = (
            _poly(tower, rng, rng.randint(1, 5), 3).mul_monomial(
                (rng.randint(0, 2), rng.randint(0, 2)))
            for _ in range(2)
        )
        yield h * a, h * b


@pytest.mark.parametrize("kind", ["constant", "random", "adversarial"])
@pytest.mark.parametrize("name,tower", FIELDS, ids=[n for n, _ in FIELDS])
def test_gcd_matches_prs(name, tower, kind):
    for f, g in _pairs(tower, kind, "%s/%s" % (name, kind)):
        expected = _prs_gcd(f, g)
        got = bipoly_gcd(f, g)
        assert got == expected, (f.render(), g.render())
        assert bipoly_gcd(g, f) == expected
        assert f.exact_div(got) * got == f


def test_prs_runs_only_when_the_certificate_fails(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return _prs_gcd(f, g)

    monkeypatch.setattr(polynomials, "_prs_gcd", counted)
    x, y = BiPoly.variable(QQ, V, "x"), BiPoly.variable(QQ, V, "y")
    one = BiPoly.one(QQ, V)
    # coprime after the monomial split: certified, no PRS
    f = x.pow(3) * y * (y.pow(2) - x.pow(3))
    g = x * y.pow(4) * (x + y + x * y)
    assert bipoly_gcd(f, g) == x * y
    assert calls == []
    # a true common factor: the certificate fails and the PRS decides
    h = (x - one) * (y - one) + one
    assert bipoly_gcd(h * x, h * y) == h.normalized()
    assert len(calls) == 1



def pairwise_gcd(polys):
    """The gcd of several, one pair at a time: LocalIdeal.content's old loop."""
    g = polys[0]
    for other in polys[1:]:
        if g.is_constant():
            break
        g = bipoly_gcd(g, other)
    return g.normalized()


@pytest.mark.parametrize("kind", ["constant", "random", "adversarial"])
@pytest.mark.parametrize("name,tower", FIELDS, ids=[n for n, _ in FIELDS])
def test_gcd_of_several_matches_pairwise(name, tower, kind):
    rng = random.Random("several %s/%s" % (name, kind))
    for _ in range(PAIRS // 2):
        h = _common_factor(tower, kind, rng)
        polys = [
            h * _poly(tower, rng, rng.randint(1, 4), 3).mul_monomial((rng.randint(0, 2), 0))
            for _ in range(rng.randint(3, 4))
        ]
        # a second factor shared by the first two only
        k = _common_factor(tower, "random", rng)
        polys[0], polys[1] = k * polys[0], k * polys[1]
        assert bipoly_gcd(*polys) == pairwise_gcd(polys)


@pytest.mark.parametrize("tower", [QQ, props.F5], ids=["Q", "F5"])
def test_content_unchanged_on_property_ideals(tower):
    rng = random.Random("content %d" % tower.char)
    x = BiPoly.variable(tower, V, "x")
    for _ in range(props.PER_FIELD // 2):
        f, g = props.random_primary(rng, tower).gens
        h = props.random_poly(rng, tower)
        for gens in ([f, g], [f, g, f.mul(x).add(g), g.pow(2)], [h * f, h * g, h * (f + g)]):
            assert LocalIdeal(tower, V, gens).content() == pairwise_gcd(gens)


def test_content_certifies_all_generators_at_once(monkeypatch):
    """On this path the first two generators of the simple ideal share a
    factor only the PRS finds, yet all four together are certified coprime."""
    steps = [QdtStep.infinity()] + [QdtStep.affine(Fraction(2))] * 3
    steps += [QdtStep.infinity(), QdtStep.affine(Fraction(0))]
    ideal = simple_ideal(PrimeDivisor(QdtPath(QQ, V, steps)))
    assert len(ideal.gens) == 4
    assert not bipoly_gcd(*ideal.gens[:2]).is_constant()
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return _prs_gcd(f, g)

    monkeypatch.setattr(polynomials, "_prs_gcd", counted)
    assert ideal.content() == BiPoly.one(QQ, V)
    assert calls == []
