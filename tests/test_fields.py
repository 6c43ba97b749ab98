"""Field tower arithmetic: rationals, prime fields, and nested extensions."""

import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from dicritical.arith import QQ, FieldTower, UniPoly
from dicritical.arith.factor import extend
from dicritical.errors import NotIrreducible, ZeroInput
from poly_reference import is_canonical


def test_rational_basics():
    assert QQ.char == 0
    assert QQ.height == 0
    assert QQ.degree() == 1
    a = QQ.from_int(3)
    b = QQ.mul(QQ.one(), QQ.inv(QQ.from_int(2)))
    assert QQ.render(QQ.add(a, b)) == "7/2"
    assert QQ.is_zero(QQ.sub(a, a))
    assert QQ.mul(b, QQ.from_int(2)) == QQ.one()


def test_rational_closures_stay_canonical():
    # every closure of the Q level takes canonical rationals, ints and
    # Fractions mixed, and returns the exact value in canonical form
    rng = random.Random("canonical rationals")
    level = QQ.top

    def draw():
        c = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6)))
        return c.numerator if c.denominator == 1 else c

    def drawn(n):
        return [draw() for _ in range(n)]

    def convolution(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def check(got, want):
        assert is_canonical(got) and got == want

    assert type(level.zero) is int and type(level.one) is int
    for _ in range(400):
        s, a, b = drawn(3)
        check(level.add(a, b), Fraction(a) + b)
        check(level.sub(a, b), Fraction(a) - b)
        check(level.neg(a), -Fraction(a))
        check(level.mul(a, b), Fraction(a) * b)
        check(level.addmul(s, a, b), s + Fraction(a) * b)
        check(level.submul(s, a, b), s - Fraction(a) * b)
        if a:
            check(level.inv(a), 1 / Fraction(a))
        p, q = drawn(rng.randint(0, 5)), drawn(rng.randint(0, 5))
        prod = level.pmul(p, q)
        assert all(map(is_canonical, prod)) and prod == convolution(p, q)
        m = drawn(rng.randint(0, 3)) + [1]
        quo, rem = level.pdivmod(p, m)
        assert len(rem) == min(len(p), len(m) - 1)
        assert all(map(is_canonical, quo + rem))
        back = convolution(quo, m) or [0] * len(p)
        assert [x + y for x, y in zip_longest(back, rem, fillvalue=0)] == p
    with pytest.raises(ZeroInput):
        level.inv(0)


def test_prime_field():
    F5 = FieldTower.prime_field(5)
    assert F5.char == 5
    assert F5.from_int(7) == 2
    assert F5.inv(2) == 3
    assert F5.element_count() == 5
    elems = [F5.element_from_index(i) for i in range(5)]
    assert sorted(elems) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        FieldTower.prime_field(6)


def test_simple_extension_arithmetic():
    # QQ(i): t^2 + 1
    t2p1 = UniPoly(QQ, [QQ.one(), QQ.zero(), QQ.one()])
    K = extend(QQ, t2p1, "i")
    i = K.generator()
    assert K.mul(i, i) == K.neg(K.one())
    inv = K.inv(K.add(K.one(), i))  # 1/(1+i) = (1-i)/2
    expect = K.mul(K.sub(K.one(), i), K.lift_from(QQ, Fraction(1, 2)))
    assert inv == expect
    assert K.degree() == 2
    assert K.render(i) == "i"


def test_extension_rejects_reducible():
    sq = UniPoly(QQ, [QQ.from_int(-1), QQ.zero(), QQ.one()])  # t^2 - 1
    with pytest.raises(NotIrreducible):
        extend(QQ, sq, "s")


def test_extension_rejects_degree_one():
    with pytest.raises(ValueError):
        QQ.extended("b", (QQ.from_int(-2), QQ.one()))
    with pytest.raises(ValueError):
        extend(QQ, UniPoly(QQ, [QQ.from_int(-2), QQ.one()]), "b")


def test_nested_tower_and_components():
    t2m2 = UniPoly(QQ, [QQ.from_int(-2), QQ.zero(), QQ.one()])
    K = extend(QQ, t2m2, "r")  # QQ(sqrt 2)
    r = K.generator()
    # (sqrt2)^2 = 2 and components over QQ expose the coordinates
    sq = K.mul(r, r)
    assert K.components_over(QQ, sq) == [Fraction(2), Fraction(0)]
    assert K.components_over(QQ, r) == [Fraction(0), Fraction(1)]
    # second floor: K(s) with s^2 = r
    mp = UniPoly(K, [K.neg(r), K.zero(), K.one()])
    L = extend(K, mp, "s")
    s = L.generator()
    assert L.mul(s, s) == L.lift_from(K, r)
    assert L.degree() == 4
    comps = L.components_over(QQ, L.mul(s, s))
    assert comps == [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]


def test_finite_field_extension_enumeration():
    F2 = FieldTower.prime_field(2)
    mp = UniPoly(F2, [1, 1, 1])  # t^2 + t + 1
    F4 = extend(F2, mp, "u")
    assert F4.element_count() == 4
    elems = {F4.sort_key(F4.element_from_index(i)) for i in range(4)}
    assert len(elems) == 4
    u = F4.generator()
    # multiplicative order 3
    assert u != F4.one()
    assert F4.pow(u, 3) == F4.one()


def test_sort_key_total_order():
    F5 = FieldTower.prime_field(5)
    keys = [F5.sort_key(F5.element_from_index(i)) for i in range(5)]
    assert len(set(keys)) == 5
    assert keys == sorted(keys)


def test_element_data_round_trip():
    t2p1 = UniPoly(QQ, [QQ.one(), QQ.zero(), QQ.one()])
    K = extend(QQ, t2p1, "i")
    e = K.add(K.generator(), K.lift_from(QQ, Fraction(3, 7)))
    data = K.element_to_data(e)
    assert K.element_from_data(data) == e
    # plain rationals serialize as strings
    assert QQ.element_to_data(Fraction(-2, 9)) == "-2/9"
    assert QQ.element_from_data("-2/9") == Fraction(-2, 9)
    # nothing else: no exponents, decimals or non-ASCII digits
    for data in ("1e5", "0.5", "1e-99999999", " 1", "1_0", "\u0663"):
        with pytest.raises(ValueError):
            QQ.element_from_data(data)
    with pytest.raises(ValueError):
        FieldTower.prime_field(7).element_from_data("1/2")


def test_prefix_relations():
    F5 = FieldTower.prime_field(5)
    mp = UniPoly(F5, [2, 0, 1])  # t^2 + 2 irreducible mod 5
    F25 = extend(F5, mp, "a")
    assert F5.is_prefix_of(F25)
    assert not F25.is_prefix_of(F5)
    lifted = F25.lift_from(F5, 3)
    assert lifted == F25.from_int(3)


def test_large_prime_characteristic():
    p = 2 ** 61 - 1
    F = FieldTower.prime_field(p)
    assert F.char == p
    assert F.mul(F.inv(12345), 12345) == 1


def test_pseudoprimes_rejected():
    # a Carmichael number, and a strong pseudoprime to every prime base below 29
    for n in (561, 3825123056546413051):
        with pytest.raises(ValueError, match="must be prime"):
            FieldTower.prime_field(n)


def test_characteristic_beyond_proven_range_rejected():
    # 2^89 - 1 is prime, but above the range where the fixed bases are proven
    with pytest.raises(ValueError, match="proven primality range"):
        FieldTower.prime_field(2 ** 89 - 1)
