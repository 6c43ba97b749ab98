"""The per-level polynomial kernels against the loops they replaced.

UniPoly.mul, divmod, gcd and shift, BiPoly.shifted and the list power kernel
fields.pow_mod fetch the top level of the tower once and call its kernels or
closures (times(c), for many products by one c, against the level's mul and
addmul): a product and a division by a monic polynomial that add up
unreduced products and reduce once per output coefficient, and an extension
level whose element product is the product kernel below followed by the
remainder modulo its minimal polynomial.  tests/poly_reference.py keeps the
earlier loops and extension arithmetic.  On seeded random inputs over Q,
F_2, F_7, F_32003, extensions of F_7 of degree 2 to 6, F_5(a)(b) and
Q(a)(b), every operation must give the reference's coefficients, with the
same element types: zero and constant inputs, equal degrees, dividends whose
leading terms cancel several at a time, common factors, and long lists over
F_32003.
"""

import random

import pytest

import poly_reference as ref
from dicritical.arith import BiPoly, FieldTower, UniPoly, fields
from test_field_differential import TOWERS, _random_element

FIELDS = TOWERS + [("F2", FieldTower.prime_field(2))]
IDS = [n for n, _ in FIELDS]
V = ("x", "y")


def _typed(e):
    """e with the type of every ground scalar beside it: Fraction(0) != 0 here."""
    if isinstance(e, tuple):
        return tuple(_typed(c) for c in e)
    return type(e).__name__, e


def _typed_list(coeffs):
    return [_typed(c) for c in coeffs]


def _element(tower, rng):
    return _random_element(tower, tower.height, rng)


def _nonzero(tower, rng):
    while True:
        e = _element(tower, rng)
        if not tower.is_zero(e):
            return e


def _poly(tower, rng, n):
    """A list of n coefficients with a nonzero top, or [] for n = 0."""
    return [_element(tower, rng) for _ in range(n - 1)] + [_nonzero(tower, rng)] if n else []


def _pairs(tower, rng, count, longest):
    """Pairs of coefficient lists: zero and constant inputs, equal degrees,
    then random degrees."""
    c = [_nonzero(tower, rng)]
    a = _poly(tower, rng, 4)
    yield [], []
    yield [], a
    yield a, []
    yield c, a
    yield a, c
    yield c, [_nonzero(tower, rng)]
    for n in range(1, 6):
        yield _poly(tower, rng, n), _poly(tower, rng, n)
    for _ in range(count):
        yield _poly(tower, rng, rng.randint(1, longest)), _poly(tower, rng, rng.randint(1, longest))


def _cancelling(tower, rng, R, b):
    """a = q * b + r with r of degree below 2: a's division by b cancels its
    leading terms down to r."""
    q = _poly(tower, rng, rng.randint(1, 4))
    r = _poly(tower, rng, rng.randint(0, 2))
    prod = ref.mul(R, q, b)
    n = max(len(prod), len(r))
    prod, r = prod + [R.zero()] * (n - len(prod)), r + [R.zero()] * (n - len(r))
    return ref._trimmed(R, list(map(R.add, prod, r)))


def _sizes(name):
    # long lists over F_32003; Q towers keep their Fractions small
    if name == "F32003":
        return 40, 120
    if name.startswith("Q"):
        return 25, 6
    return 40, 9


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_mul_divmod_gcd(name, tower):
    R = ref.RefTower(tower)
    rng = random.Random("polykernel/ops/%s" % name)
    count, longest = _sizes(name)
    for a, b in _pairs(tower, rng, count, longest):
        pa, pb = UniPoly(tower, a), UniPoly(tower, b)
        assert _typed_list(pa.mul(pb).coeffs) == _typed_list(ref.mul(R, a, b))
        assert _typed_list(pa.gcd(pb).coeffs) == _typed_list(ref.gcd(R, a, b))
        if not b:
            with pytest.raises(ZeroDivisionError):
                pa.divmod(pb)
            continue
        for dividend in (a, _cancelling(tower, rng, R, b), ref.mul(R, a, b)):
            q, r = UniPoly(tower, dividend).divmod(pb)
            rq, rr = ref.div_rem(R, dividend, b)
            assert (_typed_list(q.coeffs), _typed_list(r.coeffs)) == (
                _typed_list(rq), _typed_list(rr))
        g = _poly(tower, rng, rng.randint(1, 4))
        common = UniPoly(tower, ref.mul(R, a, g)).gcd(UniPoly(tower, ref.mul(R, b, g)))
        assert _typed_list(common.coeffs) == _typed_list(
            ref.gcd(R, ref.mul(R, a, g), ref.mul(R, b, g)))
        assert common.degree >= len(g) - 1


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_pow_mod(name, tower):
    R = ref.RefTower(tower)
    rng = random.Random("polykernel/pow/%s" % name)
    count, longest = _sizes(name)
    exponents = [0, 1, 2, 5, 13] if name.startswith("Q") else [0, 1, 2, 5, 13, 7 ** 5, 2 ** 40 + 3]
    for a, m in _pairs(tower, rng, count // 4, min(longest, 12)):
        if not m:
            with pytest.raises(ZeroDivisionError):
                fields.pow_mod(tower.top, a, 3, m)
            continue
        # the kernel takes a monic modulus
        monic = ref.monic(R, m)
        for e in exponents:
            got = fields.pow_mod(tower.top, a, e, monic)
            assert _typed_list(got) == _typed_list(ref.pow_mod(R, a, e, m)), (a, e, m)


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_shift_and_shifted(name, tower):
    R = ref.RefTower(tower)
    rng = random.Random("polykernel/shift/%s" % name)
    count, longest = _sizes(name)
    for a, _ in _pairs(tower, rng, count, longest):
        for c in (tower.zero(), tower.one(), _element(tower, rng), _nonzero(tower, rng)):
            got = UniPoly(tower, a).shift(c)
            assert _typed_list(got.coeffs) == _typed_list(ref.shift(R, a, c))
    for _ in range(count // 2):
        terms = {(rng.randint(0, 4), rng.randint(0, 6)): _element(tower, rng)
                 for _ in range(rng.randint(0, 8))}
        f = BiPoly(tower, V, terms)
        for c in (tower.zero(), _nonzero(tower, rng)):
            got = f.shifted(c).terms
            want = ref.shifted(R, f.terms, c)
            assert {k: _typed(v) for k, v in got.items()} == {k: _typed(v) for k, v in want.items()}


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_times_matches_mul_and_addmul(name, tower):
    # times(c) multiplies by a precomputed matrix directly over the ground,
    # and composes mul and addmul elsewhere: the same values and types
    level = tower.top
    rng = random.Random("polykernel/times/%s" % name)
    elems = [_element(tower, rng) for _ in range(30)] + [tower.zero(), tower.one()]
    multipliers = [tower.zero(), tower.one(), _nonzero(tower, rng)]
    if tower.height:
        multipliers.append(tower.generator())
    for c in multipliers:
        product, addproduct = level.times(c)
        for s, a in zip(elems[1:] + elems[:1], elems):
            assert _typed(product(a)) == _typed(level.mul(c, a))
            assert _typed(addproduct(s, a)) == _typed(level.addmul(s, c, a))


def test_fp_kernels_take_unreduced_ints():
    # reduced inputs keep every sum below n * p^2, far from 2^64; shifting the
    # inputs by multiples of p near 2^40 takes each product sum past 2^64
    p = 32003
    tower = FieldTower.prime_field(p)
    R, level = ref.RefTower(tower), tower.top
    rng = random.Random("polykernel/unreduced")

    def unreduced(xs):
        return [x + p * rng.randrange(2 ** 40, 2 ** 41) for x in xs]

    for n in (1, 2, 7, 60, 200):
        a = [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(n + 2)] + [rng.randrange(1, p)]
        m = [rng.randrange(p) for _ in range(n)] + [1]
        ua, ub = unreduced(a), unreduced(b)
        assert sum(x * y for x, y in zip(ua, ub)) > 2 ** 64
        product = ref.mul(R, a, b)
        assert level.pmul(ua, ub) == level.pmul(a, b) == product
        q, r = ref.div_rem(R, product, m)
        assert level.pdivmod(unreduced(product), m) == (q, r + [0] * (n - len(r)))
        assert level.mulmod(m)(ua, ub) == tuple(r + [0] * (n - len(r)))
