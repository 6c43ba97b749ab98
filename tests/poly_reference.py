"""The polynomial and extension arithmetic that the per-level kernels replaced,
kept as the reference for tests/test_polykernel_differential.py.

RefTower rebuilds a FieldTower's arithmetic from the earlier closures: the
same ground operations, and for each extension level the hand-written
convolution of the two elements followed by a reduction that calls submul
of the level below once per top coefficient.  The polynomial functions are
the earlier UniPoly.mul, divmod (div_rem here), gcd, pow_mod and shift loops and
BiPoly.shifted, which call the tower's add, sub and mul once per
coefficient; they take and return coefficient lists (low to high) with no
top zeros.  Over Q the ground closures hold rationals in the engine's
canonical form, an int when integral, through their own normalizer.

zxgcd is the extended Euclid that factor._bezout replaced for the Hensel
lift over Q: it carries both cofactors through every division over F_p.
"""

import operator
from collections import namedtuple
from fractions import Fraction

from dicritical.arith.factor import _zadd, _zdivmod, _zmul
from dicritical.errors import InternalInconsistency, ZeroInput

_Level = namedtuple("_Level", "zero one add sub neg mul addmul submul inv is_zero")


def canonical(x):
    """The rational x as the engine stores it over Q: an int when integral,
    else a Fraction (denominator > 1)."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def is_canonical(c):
    """Whether the scalar c is in that form."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _rational_inv(a):
    if not a:
        raise ZeroInput("division by zero")
    return canonical(1 / Fraction(a))


def _ground(p):
    """Q for p None, on canonical rationals, else F_p, on ints in [0, p)."""
    if p is None:
        return _Level(
            0, 1, lambda a, b: canonical(a + b), lambda a, b: canonical(a - b),
            lambda a: canonical(-a), lambda a, b: canonical(a * b),
            lambda s, a, b: canonical(s + a * b), lambda s, a, b: canonical(s - a * b),
            _rational_inv, operator.not_,
        )

    def inv(a):
        if a % p == 0:
            raise ZeroInput("division by zero")
        return pow(a, -1, p)

    return _Level(
        0, 1, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a: -a % p,
        lambda a, b: a * b % p, lambda s, a, b: (s + a * b) % p,
        lambda s, a, b: (s - a * b) % p, inv, operator.not_,
    )


def _extension(below, mp):
    """below[t]/(mp) for a monic mp over below; elements are d-tuples, low to high."""
    zb, ob = below.zero, below.one
    add_b, sub_b, mul_b, inv_b, is_zero_b = below.add, below.sub, below.mul, below.inv, below.is_zero
    addmul_b, submul_b = below.addmul, below.submul
    d = len(mp) - 1
    tail = [(j, m) for j, m in enumerate(mp[:d]) if not is_zero_b(m)]
    zero = (zb,) * d

    def reduce(c):
        """The list c (low to high) modulo mp, as a d-tuple; c is consumed."""
        for i in range(len(c) - 1, d - 1, -1):
            top = c[i]
            if not is_zero_b(top):
                for j, m in tail:
                    c[i - d + j] = submul_b(c[i - d + j], top, m)
        return tuple(c[:d]) + (zb,) * (d - len(c))

    def mul(a, b):
        nz = [(j, y) for j, y in enumerate(b) if not is_zero_b(y)]
        c = [zb] * (2 * d - 1)
        for i, x in enumerate(a):
            if not is_zero_b(x):
                for j, y in nz:
                    c[i + j] = addmul_b(c[i + j], x, y)
        return reduce(c)

    def trim(p):
        while p and is_zero_b(p[-1]):
            p.pop()
        return p

    def sub_shifted(p, c, k, q):
        """p - c * t^k * q for lists p, q over the level below."""
        p = p + [zb] * (len(q) + k - len(p))
        for j, y in enumerate(q):
            p[j + k] = submul_b(p[j + k], c, y)
        return p

    def inv(a):
        if a == zero:
            raise ZeroInput("division by zero in extension field")
        # extended Euclid on (mp, a) over the level below, keeping only the
        # cofactors of a: r0 = s0 * a and r1 = s1 * a modulo mp
        r0, s0 = list(mp), []
        r1, s1 = trim(list(a)), [ob]
        while len(r1) > 1:
            lead = inv_b(r1[-1])
            while len(r0) >= len(r1):
                c, k = mul_b(r0[-1], lead), len(r0) - len(r1)
                # the top of r0 cancels; drop it rather than test it
                r0 = trim(sub_shifted(r0, c, k, r1)[:-1])
                s0 = trim(sub_shifted(s0, c, k, s1))
            r0, s0, r1, s1 = r1, s1, r0, s0
            if not r1:
                raise ZeroInput("element not invertible; minimal polynomial not irreducible?")
        c = inv_b(r1[0])
        return reduce([mul_b(c, x) for x in s1])

    return _Level(
        zero,
        (ob,) + (zb,) * (d - 1),
        lambda a, b: tuple(map(add_b, a, b)),
        lambda a, b: tuple(map(sub_b, a, b)),
        lambda a: tuple(map(below.neg, a)),
        mul,
        lambda s, a, b: tuple(map(add_b, s, mul(a, b))),
        lambda s, a, b: tuple(map(sub_b, s, mul(a, b))),
        inv,
        lambda a: a == zero,
    )


class RefTower:
    """The element operations of a FieldTower, on the earlier closures."""

    def __init__(self, tower):
        level = _ground(tower.base)
        for _, mp in tower.levels:
            level = _extension(level, mp)
        self.level = level
        self.add, self.sub, self.mul = level.add, level.sub, level.mul
        self.inv, self.is_zero = level.inv, level.is_zero

    def zero(self):
        return self.level.zero

    def one(self):
        return self.level.one


def _trimmed(T, coeffs):
    coeffs = list(coeffs)
    while coeffs and T.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def mul(T, a, b):
    if not a or not b:
        return []
    out = [T.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if T.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = T.add(out[i + j], T.mul(x, y))
    return _trimmed(T, out)


def div_rem(T, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    d = len(b) - 1
    inv_lc = T.inv(b[-1])
    quo = [T.zero()] * max(len(rem) - d, 0)
    while len(rem) - 1 >= d:
        while rem and T.is_zero(rem[-1]):
            rem.pop()
        if len(rem) - 1 < d:
            break
        k = len(rem) - 1 - d
        q = T.mul(rem[-1], inv_lc)
        quo[k] = q
        for i, y in enumerate(b):
            rem[k + i] = T.sub(rem[k + i], T.mul(q, y))
    return _trimmed(T, quo), _trimmed(T, rem)


def monic(T, a):
    if not a:
        return a
    inv = T.inv(a[-1])
    return _trimmed(T, [T.mul(inv, c) for c in a])


def gcd(T, a, b):
    while b:
        a, b = b, monic(T, div_rem(T, a, b)[1])
    return monic(T, a)


def pow_mod(T, a, e, m):
    acc = [T.one()]
    base = div_rem(T, a, m)[1]
    while e:
        if e & 1:
            acc = div_rem(T, mul(T, acc, base), m)[1]
        e >>= 1
        if e:
            base = div_rem(T, mul(T, base, base), m)[1]
    return acc


def shift(T, a, c):
    """a(t + c) by the Taylor shift."""
    if T.is_zero(c):
        return list(a)
    a = list(a)
    for k in range(len(a) - 1):
        for j in range(len(a) - 2, k - 1, -1):
            a[j] = T.add(a[j], T.mul(c, a[j + 1]))
    return _trimmed(T, a)


def shifted(T, terms, c):
    """The terms {(i, j): coeff} of f(x, y + c)."""
    if T.is_zero(c):
        return dict(terms)
    rows = {}
    for (i, j), a in terms.items():
        rows.setdefault(i, {})[j] = a
    out = {}
    for i, row in rows.items():
        p = shift(T, [row.get(j, T.zero()) for j in range(max(row) + 1)], c)
        for j, a in enumerate(p):
            if not T.is_zero(a):
                out[(i, j)] = a
    return out


def zxgcd(g, h, p):
    """s, t with s g + t h = 1 mod p, for int lists g and h coprime mod p."""
    r0, s0, t0, r1, s1, t1 = [c % p for c in g], [1], [], [c % p for c in h], [], [1]
    while r1:
        q, r = _zdivmod(r0, r1, p)
        s, t = _zadd(s0, _zmul(q, s1, p), p, -1), _zadd(t0, _zmul(q, t1, p), p, -1)
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r, s, t
    if len(r0) != 1:
        raise InternalInconsistency("modular factors are not coprime")
    inv = [pow(r0[0], -1, p)]
    return _zmul(s0, inv, p), _zmul(t0, inv, p)
