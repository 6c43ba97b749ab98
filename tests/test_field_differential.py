"""The per-level field arithmetic against the recursive arithmetic it replaced.

The reference below keeps the earlier FieldTower arithmetic: every operation
recurses through the levels with an explicit level index, looks up the level's
degree and zero on each call, reduces products by the minimal polynomial one
top coefficient at a time, and inverts by extended Euclid through polynomial
division.  add, sub, mul, the level's addmul and submul, neg, inv, pow and
is_zero must agree with the engine on seeded random elements of the prime
fields, Q, simple extensions of F_7 of degree 2 to 6, a cubic extension of
F_32003, and the nested towers F_5(a)(b) and Q(a)(b).
"""

import random
from fractions import Fraction

import pytest

from dicritical.arith import QQ, FieldTower, UniPoly
from dicritical.arith.factor import is_irreducible
from dicritical.errors import ZeroInput
from poly_reference import canonical


class RefTower:
    """The level-indexed recursive arithmetic over (base, levels)."""

    def __init__(self, tower):
        self.base = tower.base
        self.levels = tower.levels
        self.height = len(self.levels)

    def level_degree(self, k):
        return len(self.levels[k][1]) - 1

    def zero_at(self, k):
        if k == 0:
            return 0
        return tuple([self.zero_at(k - 1)] * self.level_degree(k - 1))

    def one_at(self, k):
        if k == 0:
            return 1
        return tuple([self.one_at(k - 1)] + [self.zero_at(k - 1)] * (self.level_degree(k - 1) - 1))

    def _ground(self, v):
        return v % self.base if self.base is not None else canonical(v)

    def is_zero_k(self, k, a):
        if k == 0:
            return not a
        return all(self.is_zero_k(k - 1, x) for x in a)

    def add_k(self, k, a, b):
        if k == 0:
            return self._ground(a + b)
        return tuple(self.add_k(k - 1, x, y) for x, y in zip(a, b))

    def sub_k(self, k, a, b):
        if k == 0:
            return self._ground(a - b)
        return tuple(self.sub_k(k - 1, x, y) for x, y in zip(a, b))

    def neg_k(self, k, a):
        if k == 0:
            return self._ground(-a)
        return tuple(self.neg_k(k - 1, x) for x in a)

    def mul_k(self, k, a, b):
        if k == 0:
            return self._ground(a * b)
        d = self.level_degree(k - 1)
        conv = [self.zero_at(k - 1)] * (2 * d - 1)
        for i, x in enumerate(a):
            if self.is_zero_k(k - 1, x):
                continue
            for j, y in enumerate(b):
                if self.is_zero_k(k - 1, y):
                    continue
                conv[i + j] = self.add_k(k - 1, conv[i + j], self.mul_k(k - 1, x, y))
        return self.reduce_k(k, conv)

    def reduce_k(self, k, coeffs):
        mp = self.levels[k - 1][1]
        d = len(mp) - 1
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if self.is_zero_k(k - 1, c):
                continue
            coeffs[i] = self.zero_at(k - 1)
            for j in range(d):
                coeffs[i - d + j] = self.sub_k(
                    k - 1, coeffs[i - d + j], self.mul_k(k - 1, c, mp[j])
                )
        coeffs = coeffs[:d]
        while len(coeffs) < d:
            coeffs.append(self.zero_at(k - 1))
        return tuple(coeffs)

    def inv_k(self, k, a):
        if k == 0:
            if self.base is None:
                if a == 0:
                    raise ZeroInput("division by zero")
                return canonical(1 / Fraction(a))
            if a % self.base == 0:
                raise ZeroInput("division by zero")
            return pow(a, self.base - 2, self.base)
        if self.is_zero_k(k, a):
            raise ZeroInput("division by zero in extension field")
        r0, r1 = list(self.levels[k - 1][1]), self.trim(k - 1, list(a))
        s0, s1 = [], [self.one_at(k - 1)]
        while True:
            if len(r1) == 1:
                c = self.inv_k(k - 1, r1[0])
                return self.reduce_k(k, [self.mul_k(k - 1, c, x) for x in s1])
            q, r = self.pdivmod(k - 1, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.psub(k - 1, s0, self.pmul(k - 1, q, s1))
            if not r1:
                raise ZeroInput("element not invertible")

    def trim(self, k, p):
        while p and self.is_zero_k(k, p[-1]):
            p.pop()
        return p

    def psub(self, k, p, q):
        z = self.zero_at(k)
        n = max(len(p), len(q))
        out = [
            self.sub_k(k, p[i] if i < len(p) else z, q[i] if i < len(q) else z)
            for i in range(n)
        ]
        return self.trim(k, out)

    def pmul(self, k, p, q):
        if not p or not q:
            return []
        out = [self.zero_at(k)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = self.add_k(k, out[i + j], self.mul_k(k, x, y))
        return self.trim(k, out)

    def pdivmod(self, k, p, q):
        p = list(p)
        dq = len(q) - 1
        inv_lead = self.inv_k(k, q[-1])
        quot = [self.zero_at(k)] * max(0, len(p) - dq)
        while True:
            self.trim(k, p)
            if len(p) - 1 < dq or not p:
                break
            c = self.mul_k(k, p[-1], inv_lead)
            shift = len(p) - 1 - dq
            quot[shift] = c
            for j, y in enumerate(q):
                p[shift + j] = self.sub_k(k, p[shift + j], self.mul_k(k, c, y))
            p.pop()
        return self.trim(k, quot), self.trim(k, p)

    def pow(self, a, n):
        k = self.height
        if n < 0:
            return self.pow(self.inv_k(k, a), -n)
        out = self.one_at(k)
        for _ in range(n):
            out = self.mul_k(k, out, a)
        return out


def _random_element(tower, k, rng):
    """A level-k element with about a third of its ground scalars zero, over Q
    in the canonical form the engine keeps."""
    if k == 0:
        if rng.random() < 0.3:
            return 0
        if tower.base is None:
            return canonical(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return rng.randrange(tower.base)
    return tuple(_random_element(tower, k - 1, rng) for _ in range(tower.level_degree(k - 1)))


# monic minimal polynomials, low to high; test_minimal_polynomials_irreducible
# checks that each is irreducible over the level below
F7_MINPOLYS = [
    (3, 5, 1),
    (3, 0, 0, 1),
    (4, 6, 0, 0, 1),
    (1, 2, 3, 2, 0, 1),
    (3, 5, 5, 2, 0, 0, 1),
]
F = Fraction
TOWERS = [
    ("Q", QQ),
    ("F7", FieldTower.prime_field(7)),
    ("F32003", FieldTower.prime_field(32003)),
    *[("F7(a)-d%d" % (len(mp) - 1), FieldTower(7, [("a", mp)])) for mp in F7_MINPOLYS],
    # a^3 + 2 a + 1 = 0: the prime of the infinity-sweep benchmark
    ("F32003(a)", FieldTower(32003, [("a", (1, 2, 0, 1))])),
    # a^2 = 2, b^3 + 4 b^2 + a = 0
    ("F5(a)(b)", FieldTower(5, [("a", (3, 0, 1)), ("b", ((0, 1), (0, 0), (4, 0), (1, 0)))])),
    # a^2 = 2, b^2 + b = a
    ("Q(a)(b)", FieldTower(None, [
        ("a", (F(-2), F(0), F(1))),
        ("b", ((F(0), F(-1)), (F(1), F(0)), (F(1), F(0)))),
    ])),
]


@pytest.mark.parametrize("name,tower", TOWERS, ids=[n for n, _ in TOWERS])
def test_level_ops_match_reference(name, tower):
    ref = RefTower(tower)
    k = tower.height
    rng = random.Random(name)
    elems = [_random_element(tower, k, rng) for _ in range(40)]
    elems += [tower.zero(), tower.one(), tower.from_int(-1)]
    if k:
        elems.append(tower.generator())
    for a in elems:
        assert tower.is_zero(a) == ref.is_zero_k(k, a)
        assert tower.neg(a) == ref.neg_k(k, a)
        for n in (0, 1, 2, 5):
            assert tower.pow(a, n) == ref.pow(a, n)
        if not ref.is_zero_k(k, a):
            inv = tower.inv(a)
            assert inv == ref.inv_k(k, a)
            assert tower.mul(a, inv) == tower.one()
            assert tower.pow(a, -3) == ref.pow(a, -3)
    level = tower.top
    for s, a, b in zip(elems[2:] + elems[:2], elems, elems[1:] + elems[:1]):
        assert tower.add(a, b) == ref.add_k(k, a, b)
        assert tower.sub(a, b) == ref.sub_k(k, a, b)
        assert tower.mul(a, b) == ref.mul_k(k, a, b)
        assert level.addmul(s, a, b) == ref.add_k(k, s, ref.mul_k(k, a, b))
        assert level.submul(s, a, b) == ref.sub_k(k, s, ref.mul_k(k, a, b))


@pytest.mark.parametrize("name,tower", TOWERS, ids=[n for n, _ in TOWERS])
def test_inverting_zero_raises_at_every_level(name, tower):
    for k in range(tower.height + 1):
        sub = tower.prefix(k)
        with pytest.raises(ZeroInput):
            sub.inv(sub.zero())
        with pytest.raises(ZeroInput):
            tower.inv(tower.lift_from(sub, sub.zero()))


@pytest.mark.parametrize("name,tower", TOWERS, ids=[n for n, _ in TOWERS])
def test_minimal_polynomials_irreducible(name, tower):
    for k, (_, mp) in enumerate(tower.levels):
        assert is_irreducible(UniPoly(tower.prefix(k), mp))
