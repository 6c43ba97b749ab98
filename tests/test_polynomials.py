import random
from collections import Counter

import pytest

from dicritical.arith import QQ, BiPoly, FieldTower, UniPoly, bipoly_gcd, squarefree_part
from dicritical.arith import fields
from dicritical.arith.factor import extend
from dicritical.errors import ZeroPolynomial
from dicritical.nearpoints import LocalIdeal, QdtStep, transform_ideal
from direction_reference import homogeneous_gcd

F5 = FieldTower.prime_field(5)
V = ("x", "y")


def up(*coeffs):
    return UniPoly(QQ, [QQ.from_int(c) for c in coeffs])


def xy(tower=QQ):
    return (
        BiPoly.variable(tower, V, "x"),
        BiPoly.variable(tower, V, "y"),
    )


class TestUniPoly:
    def test_divmod(self):
        f = up(-1, 0, 0, 1)  # t^3 - 1
        g = up(-1, 1)  # t - 1
        q, r = f.divmod(g)
        assert r.is_zero()
        assert q == up(1, 1, 1)

    def test_gcd_is_monic(self):
        f = up(0, 2, 2)  # 2t^2 + 2t
        g = up(0, 0, 4)
        assert f.gcd(g) == up(0, 1)

    def test_compose_and_shift(self):
        f = up(1, 2, 1)  # (t+1)^2
        assert f.shift(QQ.from_int(-1)) == up(0, 0, 1)

    def test_eval(self):
        f = up(3, 0, 1)
        # f(2) is the remainder of f by t - 2
        assert f.divmod(up(-2, 1))[1] == up(7)

    def test_pow_mod(self):
        # t^25 = t in F25 = F5[t]/(t^2+3)
        assert fields.pow_mod(F5.top, [0, 1], 25, [3, 0, 1]) == [0, 1]

    def test_render(self):
        assert up(-1, 0, 2).render("t") == "2*t^2 - 1"


class TestBiPoly:
    def test_ord_and_forms(self):
        x, y = xy()
        f = x.pow(3).add(x.mul(y)).add(y.pow(4))
        assert f.ord_at_origin() == 2
        assert f.initial_form() == x.mul(y)
        assert f.degree_form() == y.pow(4)
        with pytest.raises(ZeroPolynomial):
            BiPoly.zero(QQ, V).ord_at_origin()

    def test_exact_div(self):
        x, y = xy()
        f = x.pow(2).sub(y.pow(2))
        g = x.sub(y)
        assert f.exact_div(g) == x.add(y)
        with pytest.raises(ValueError):
            f.exact_div(x)
        # by a monomial: a shift of exponents, exact only when every term allows it
        h = x.pow(3).mul(y).add(x.pow(2).mul(y.pow(4)))
        m = x.pow(2).mul_monomial((0, 1), QQ.from_int(3))
        assert h.exact_div(m).mul(m) == h
        with pytest.raises(ValueError):
            h.exact_div(y.pow(2))

    def test_normalized_scales_least_exponent(self):
        x, y = xy()
        f = x.mul(y).scale(QQ.from_int(-3)).add(x.pow(3).scale(QQ.from_int(6)))
        n = f.normalized()
        assert n.coeff(1, 1) == QQ.one()

    def test_unit_detection(self):
        x, y = xy()
        assert x.add(BiPoly.one(QQ, V)).is_unit_at_origin()
        assert not x.is_unit_at_origin()

    def test_dehomogenized(self):
        x, y = xy()
        h = x.pow(2).mul(y).add(y.pow(3))  # homogeneous of degree 3
        d = h.dehomogenized()
        assert d == UniPoly(QQ, [0, 1, 0, 1])


def test_bipoly_gcd():
    x, y = xy()
    f = x.pow(2).sub(y.pow(2)).mul(x.add(y.pow(3)))
    g = x.add(y).mul(x.pow(2))
    d = bipoly_gcd(f, g)
    assert d == x.add(y)


def test_bipoly_gcd_monomials():
    x, y = xy()
    f = x.pow(3).mul(y)
    g = x.mul(y.pow(2)).scale(QQ.from_int(7))
    assert bipoly_gcd(f, g) == x.mul(y)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # square-and-multiply: the last bit needs no further squaring
    x, y = xy()
    degrees = []
    real_mul = BiPoly.mul

    def recording(self, other):
        out = real_mul(self, other)
        degrees.append(out.total_degree)
        return out

    monkeypatch.setattr(BiPoly, "mul", recording)
    assert x.add(y).pow(7).coeff(3, 4) == QQ.from_int(35)
    assert max(degrees) == 7

    # the list power kernel multiplies with the ground level's product modulo
    # the modulus; towers built after the patch count it
    products = []
    real_ground = fields._ground

    def counting(mul):
        return lambda a, b: products.append(1) or mul(a, b)

    def counting_ground(p):
        level = real_ground(p)
        mulmod = level.mulmod
        return level._replace(pmul=counting(level.pmul), mulmod=lambda m: counting(mulmod(m)))

    monkeypatch.setattr(fields, "_ground", counting_ground)
    F = FieldTower.prime_field(5)
    assert fields.pow_mod(F.top, [0, 1], 25, [3, 0, 1]) == [0, 1]
    # 25 = 0b11001: three multiplies and four squarings
    assert len(products) == 7

    muls = []
    real_fmul = FieldTower.mul
    monkeypatch.setattr(FieldTower, "mul", lambda T, a, b: muls.append(1) or real_fmul(T, a, b))
    assert F5.pow(2, 7) == 3
    assert len(muls) == 5


def test_extension_scalings_build_one_matrix(monkeypatch):
    # over F_7(a), a^3 = 4: a shift and the normalizer of a transform make
    # no call to the level's general mul or addmul, and one times(c) (one
    # matrix) per polynomial; towers built after the patch count them
    calls = Counter()
    real_extension = fields._extension

    def counting(name, fn):
        return lambda *args: calls.update((name,)) or fn(*args)

    def counting_extension(below, mp, *rest):
        level = real_extension(below, mp, *rest)
        return level._replace(**{
            name: counting(name, getattr(level, name)) for name in ("mul", "addmul", "times")})

    monkeypatch.setattr(fields, "_extension", counting_extension)
    T = FieldTower(7, [("a", (3, 0, 0, 1))])
    a = T.generator()
    rng = random.Random("scalings")
    terms = {(i, j): tuple(rng.randrange(7) for _ in range(3)) for i in range(3) for j in range(5)}
    f = BiPoly(T, V, terms)
    calls.clear()
    shifted = f.shifted(a)
    assert calls == {"times": 1}
    # the shift agrees with the level's own multiply-adds
    level = T.top
    for i in range(3):
        row = [terms.get((i, j), T.zero()) for j in range(5)]
        for k in range(4):
            for j in range(3, k - 1, -1):
                row[j] = level.addmul(row[j], a, row[j + 1])
        assert all(shifted.coeff(i, j) == row[j] for j in range(5))

    # at infinity there is no shift: each generator of at least four terms is
    # scaled through one matrix, a two-term generator by two products
    x, y = BiPoly.variable(T, V, "x"), BiPoly.variable(T, V, "y")
    long = x.pow(2).add(y.pow(3)).add(x.mul(y).scale(a)).add(x.pow(2).mul(y).scale(T.from_int(2)))
    short = x.pow(3).add(y.pow(2).scale(a))
    J = LocalIdeal(T, V, [long.scale(a), short])
    calls.clear()
    transform_ideal(J, QdtStep.infinity())
    assert calls == {"times": 1, "mul": 2}


def test_squarefree_part():
    x, y = xy()
    f = x.add(y).pow(3).mul(x.sub(y))
    s = squarefree_part(f)
    assert s == x.add(y).mul(x.sub(y)).normalized()


def test_squarefree_monomial_any_char():
    x, y = xy(F5)
    xf = BiPoly.variable(F5, V, "x")
    f = xf.pow(25)
    assert squarefree_part(f) == xf


def test_squarefree_small_char():
    # multiplicities prime to p leave through the derivative gcd, multiples
    # of p through a p-th root: x^5 + y^5 + x*y is squarefree, x^5 + y^5 is
    # (x + y)^5
    x, y = xy(F5)
    f = x.pow(5).add(y.pow(5)).add(x.mul(y))
    assert squarefree_part(f) == f.normalized()
    s, t = x.add(y), x.sub(y.pow(2))
    assert squarefree_part(s.pow(5)) == s.normalized()
    g = s.pow(10).mul(t.pow(3)).mul(x.pow(5)).mul(y)
    assert squarefree_part(g) == s.mul(t).mul(x).mul(y).normalized()
    # over F_25 the p-th root takes 5th roots of the coefficients
    F25 = extend(F5, UniPoly(F5, [2, 0, 1]), "a")
    x, y = xy(F25)
    h = x.scale(F25.generator()).add(y.pow(2)).add(BiPoly.one(F25, V))
    assert squarefree_part(h.pow(5).mul(x.add(y))) == h.mul(x.add(y)).normalized()


def test_homogeneous_gcd():
    x, y = xy()
    forms = [x.pow(2).mul(y), x.mul(y.pow(2))]
    g = homogeneous_gcd(forms)
    assert g == x.mul(y)
    only = homogeneous_gcd([x.pow(2).sub(y.pow(2))])
    assert only == x.pow(2).sub(y.pow(2)).normalized()
    assert only.coeff(0, 2) == QQ.one()


def test_homogeneous_gcd_rejects_inhomogeneous():
    x, y = xy()
    with pytest.raises(ValueError):
        homogeneous_gcd([x.add(y.pow(2))])


def test_render_order():
    x, y = xy()
    f = y.pow(2).sub(x.pow(3))
    assert f.render() == "-x^3 + y^2"


F7 = FieldTower.prime_field(7)
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1; -1 is not a square mod 7


def _composed_shift(p, c):
    """p(t + c) by Horner's rule with products of polynomials."""
    T = p.tower
    acc = UniPoly.zero(T)
    for a in reversed(p.coeffs):
        acc = acc.mul(UniPoly(T, (c, T.one()))).add(UniPoly.constant(T, a))
    return acc


@pytest.mark.parametrize("tower", [QQ, F7, F7A], ids=["Q", "F7", "F7(a)"])
def test_taylor_shift_matches_composition(tower):
    rng = random.Random("shift/%r" % (tower,))

    def element():
        e = tower.from_int(rng.randint(-3, 3))
        if tower.height:
            e = tower.add(e, tower.mul(tower.from_int(rng.randint(-3, 3)), tower.generator()))
        return e

    for degree in range(-1, 8):
        for c in (tower.zero(), tower.one(), element(), element()):
            p = UniPoly(tower, [element() for _ in range(degree + 1)])
            assert p.shift(c) == _composed_shift(p, c), (p, c)
    # the zero polynomial and the constants are fixed points
    for p in (UniPoly.zero(tower), UniPoly.one(tower), UniPoly.constant(tower, element())):
        assert p.shift(element()) == p
