"""Factoring over Q, differentially against sympy's factor_list.

sympy is a test-time oracle only; the engine never imports it.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dicritical.arith import QQ, UniPoly, factor_univariate

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")

# every polynomial over Q that the test suites and the benchmark's Q
# requests hand to the rational factorizer, coefficients low to high
SUITE_POLYS = [
    ["-1", "0", "1"],
    ["-1/2", "0", "1"],
    ["-2", "0", "1"],
    ["0", "-1", "1"],
    ["0", "-2", "1"],
    ["0", "2", "1"],
    ["1", "0", "1"],
    ["1/2", "0", "1"],
    ["2", "-3", "1"],
    ["2", "3", "1"],
    ["6", "-5", "1"],
    ["2", "0", "0", "1"],
    ["-3", "-3", "1", "1"],
    ["-6", "-6", "1", "1"],
    ["-7", "-7", "1", "1"],
    ["2", "-2", "-1", "1"],
    ["4", "-2", "-2", "1"],
    ["6", "-3", "-2", "1"],
    ["6", "-6", "-1", "1"],
    ["-2", "0", "0", "0", "1"],
    ["-2", "0", "1", "2", "1"],
    ["36", "0", "-20", "0", "1"],
    ["9", "0", "10", "0", "1"],
    ["25", "0", "-8", "0", "26", "0", "-8", "0", "1"],
]

# Swinnerton-Dyer polynomials: irreducible, yet they split into factors of
# degree at most 2 modulo every prime, the worst case for recombination
SD8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]
SD16 = [46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0, 1]


def engine_factors(coeffs):
    f = UniPoly(QQ, [Fraction(c) for c in coeffs])
    lc, factors = factor_univariate(f)
    acc = UniPoly.constant(QQ, lc)
    for g, m in factors:
        for _ in range(m):
            acc = acc.mul(g)
    assert acc == f
    return lc, [(g.coeffs, m) for g, m in factors]


def sympy_factors(coeffs):
    poly = sympy.Poly([sympy.Rational(str(c)) for c in reversed(coeffs)], T, domain="QQ")
    lc, pairs = poly.factor_list()
    out = []
    for g, m in pairs:
        monic = g.monic()
        lc *= g.LC() ** m
        out.append((tuple(Fraction(int(c.p), int(c.q)) for c in reversed(monic.all_coeffs())), m))
    return Fraction(int(lc.p), int(lc.q)), out


def check(coeffs):
    lc, ours = engine_factors(coeffs)
    ref_lc, ref = sympy_factors(coeffs)
    assert lc == ref_lc
    assert sorted(ours) == sorted(ref)
    return ours


def int_coeffs(expr):
    """Integer coefficients of a sympy polynomial in T, low to high."""
    return [int(c) for c in reversed(sympy.Poly(expr, T).all_coeffs())]


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eisenstein(rng, degree, bits, monic=False):
    """An irreducible of the given degree: Eisenstein at a small prime q."""
    q = rng.choice((2, 3, 5, 7, 11, 13))
    lead = 1 if monic else rng.randrange(1, 2 ** bits)
    while lead % q == 0:
        lead += 1
    const = q * rng.randrange(1, 2 ** bits)
    while const % (q * q) == 0:
        const += q
    middle = [q * rng.randrange(-(2 ** bits), 2 ** bits) for _ in range(degree - 1)]
    return [rng.choice((1, -1)) * const] + middle + [lead]


@pytest.mark.parametrize("coeffs", SUITE_POLYS, ids=lambda c: "/".join(c))
def test_suite_polynomials(coeffs):
    check(coeffs)


@pytest.mark.parametrize("seed", range(12))
def test_products_of_known_irreducibles(seed):
    rng = random.Random("factor-Q:%d" % seed)
    degree = rng.randint(1, 3)
    # repeated degrees, non-monic leading coefficients, 60 to 80 bits
    pieces = [eisenstein(rng, rng.choice((degree, rng.randint(1, 3))), rng.randint(60, 80))
              for _ in range(rng.randint(2, 3))]
    n = rng.choice((3, 4, 5, 6, 8, 10, 12))
    pieces.append(int_coeffs(sympy.cyclotomic_poly(n, T)))
    pieces.append([-1] + [0] * (rng.randint(2, 6) - 1) + [1])  # t^m - 1
    coeffs = [1]
    for piece in pieces:
        coeffs = mul(coeffs, piece)
    ours = check(coeffs)
    # the Eisenstein pieces are irreducible factors of their own
    eisenstein_parts = {tuple(Fraction(c, p[-1]) for c in p) for p in pieces[:-2]}
    assert eisenstein_parts <= {g for g, _ in ours}


@pytest.mark.parametrize("seed", range(8))
def test_one_large_monic_factor(seed):
    # a factor whose coefficients are large beside the product's: the
    # symmetric residues need the lift to reach past the bound
    rng = random.Random("factor-Q-large:%d" % seed)
    big = eisenstein(rng, rng.randint(1, 3), rng.randint(60, 70), monic=True)
    small = [1, 0, 1] if seed % 2 else [-1, 0, 0, 1]
    ours = check(mul(big, mul(small, [1, 1])))
    assert tuple(Fraction(c) for c in big) in {g for g, _ in ours}


def test_squares_and_rational_coefficients():
    rng = random.Random("factor-Q-sqf")
    a, b = eisenstein(rng, 3, 64), eisenstein(rng, 2, 64)
    coeffs = [Fraction(c, 3 ** 40) for c in mul(mul(a, a), mul(b, mul(b, b)))]
    assert sorted(m for _, m in check(coeffs)) == [2, 3]


@pytest.mark.parametrize("coeffs", [SD8, SD16], ids=["SD8", "SD16"])
def test_swinnerton_dyer(coeffs):
    assert check(coeffs) == [(tuple(Fraction(c) for c in coeffs), 1)]


def test_factors_of_two_or_more_modular_factors():
    # t^4 + 1 and t^4 - 10 t^2 + 1 split modulo every prime, so each is
    # found only from a pair (or more) of lifted factors
    assert len(check(mul([1, 0, 0, 0, 1], [1, 0, -10, 0, 1]))) == 2
    # SD8(t) * SD8(t + 1): each factor needs at least four modular factors
    shifted = int_coeffs(sum(c * (T + 1) ** k for k, c in enumerate(SD8)))
    assert len(check(mul(SD8, shifted))) == 2


def test_cyclotomic_splitting():
    # t^n - 1 is the product of the cyclotomic polynomials of the divisors of n
    for n in (12, 30, 36):
        ours = check([-1] + [0] * (n - 1) + [1])
        assert len(ours) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_small_degree_exhaustive_signs():
    for signs in itertools.product((-1, 0, 1), repeat=4):
        coeffs = list(signs) + [1]
        if any(coeffs[:-1]):
            check(coeffs)


@pytest.mark.parametrize("squared", [False, True], ids=["squarefree", "one-square"])
def test_large_products_of_degree_24_and_more(squared):
    # the squarefree step's gcd keeps its remainders monic; over Fractions a
    # plain Euclid on these products ran for seconds
    rng = random.Random("factor-Q-degree-24")
    pieces = [eisenstein(rng, degree, rng.randint(60, 80)) for degree in (5, 4, 4)]
    if squared:
        pieces.append(pieces[1])
    pieces.append(int_coeffs(sympy.cyclotomic_poly(12, T)))
    pieces.append([-1] + [0] * 6 + [1])  # t^7 - 1
    coeffs = [1]
    for piece in pieces:
        coeffs = mul(coeffs, piece)
    assert len(coeffs) == (29 if squared else 25)
    ours = check(coeffs)
    assert sorted(m for _, m in ours) == ([1] * 5 + [2] if squared else [1] * 6)
