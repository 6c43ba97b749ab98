"""Finite-field factoring against the UniPoly pipeline it replaced.

arith/factor.py runs the finite-tower regime on coefficient lists: it takes
x^q mod f once per squarefree part, keeps the q-power map as the matrix of
columns x^(q i) mod f, and splits equal-degree parts by the norm
u u^q ... u^(q^(d-1)) raised to (q - 1)/2.  poly_reference.factor_finite is
the earlier pipeline, with a fresh power by q at every distinct degree and
u^((q^d - 1)/2) at every split, on the same candidates in the same order.

Over F_2, F_3, F_7, F_32003, F_7(a) and F_2(a), factor_univariate must
match it exactly, the leading coefficient, every factor and every
multiplicity in order, on seeded polynomials up to degree 12 (random ones,
squares, p-th powers for the inseparable branch, products of distinct
irreducibles of one degree 1 to 3) and on the degree-form cores of the
infinity-sweep benchmark at seeds 1 and 2.  Over Q the modular factors that
Zassenhaus hands to the Hensel lift must match the reference's, in order.
"""

import itertools
import pathlib
import random
import sys

import pytest

import poly_reference as ref
from dicritical.arith import QQ, FieldTower, UniPoly, factor_univariate
from dicritical.arith import factor, fields

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

FIELDS = [
    ("F2", FieldTower.prime_field(2)),
    ("F3", FieldTower.prime_field(3)),
    ("F7", FieldTower.prime_field(7)),
    ("F32003", FieldTower.prime_field(32003)),
    # a^2 = -1: F_49
    ("F7(a)", FieldTower(7, [("a", (1, 0, 1))])),
    # a^2 = a + 1: F_4
    ("F2(a)", FieldTower(2, [("a", (1, 1, 1))])),
]
IDS = [n for n, _ in FIELDS]


@pytest.fixture(autouse=True)
def few_candidates(monkeypatch):
    # an equal-degree split succeeds within a few candidates; a broken split
    # then fails at once instead of running through q^(n + 2) of them
    real = factor._split_candidates
    monkeypatch.setattr(
        factor, "_split_candidates", lambda T, bound: itertools.islice(real(T, bound), 64))


def _element(tower, rng):
    return tower.element_from_index(rng.randrange(tower.element_count()))


def _random(tower, rng, degree, monic=False):
    while True:
        top = tower.one() if monic else _element(tower, rng)
        if not tower.is_zero(top):
            return UniPoly(tower, [_element(tower, rng) for _ in range(degree)] + [top])


def _irreducibles(tower, rng, d, count):
    """Up to count distinct monic irreducibles of degree d."""
    found = {}
    for _ in range(40 * count):
        g = _random(tower, rng, d, monic=True)
        if ref.factor_finite(g)[1] == [(g, 1)]:
            found[g.coeffs] = g
            if len(found) == count:
                break
    return list(found.values())


def _product(polys):
    acc = polys[0]
    for g in polys[1:]:
        acc = acc.mul(g)
    return acc


def _inputs(tower, rng):
    p = tower.char
    for degree in range(1, 13):
        yield _random(tower, rng, degree)
    for _ in range(4):
        g = _random(tower, rng, rng.randint(1, 3))
        yield _product([g, g, _random(tower, rng, rng.randint(0, 12 - 2 * g.degree))])
    if p <= 7:
        for k in range(1, 12 // p + 1):
            g = _random(tower, rng, k)
            yield _product([g] * p + [_random(tower, rng, rng.randint(0, 12 - p * k))])
    for d in (1, 2, 3):
        irreducibles = _irreducibles(tower, rng, d, min(4, 12 // d))
        for k in range(2, len(irreducibles) + 1):
            f = _product(irreducibles[:k])
            yield f.scale(_element(tower, rng)) if rng.random() < 0.5 and f.degree else f


def _check(f):
    lc, factors = factor_univariate(f)
    want_lc, want = ref.factor_finite(f)
    assert lc == want_lc, f
    assert [(g.coeffs, m) for g, m in factors] == [(g.coeffs, m) for g, m in want], f


@pytest.mark.parametrize("name,tower", FIELDS, ids=IDS)
def test_factorizations_match_the_reference(name, tower):
    rng = random.Random("factor-differential/%s" % name)
    checked = 0
    for f in _inputs(tower, rng):
        if f.degree >= 1:
            _check(f)
            checked += 1
    assert checked >= 20


def _bench_cores(seed):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for op in workloads.infinity_sweep(seed, lambda queries: [[] for _ in queries]):
        (f,) = op.build()
        core = f.degree_form().dehomogenized()
        if core.degree >= 1:
            yield core


@pytest.mark.parametrize("seed", [1, 2])
def test_infinity_sweep_cores_match_the_reference(seed):
    cores = list(_bench_cores(seed))
    assert len(cores) == 102
    for core in cores:
        _check(core)


def test_zassenhaus_lifts_the_same_modular_factors(monkeypatch):
    lifted = []
    real = factor._hensel_lift

    def recording(f, modular, p, modulus):
        lifted.append((p, [list(u) for u in modular]))
        return real(f, modular, p, modulus)

    monkeypatch.setattr(factor, "_hensel_lift", recording)
    rng = random.Random("factor-differential/Q")

    def small(degree):
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([1, 1, 2, -3])]
        return UniPoly(QQ, coeffs)

    compared = 0
    for _ in range(30):
        pieces = [small(rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            pieces.append(pieces[0])
        f = _product(pieces)
        lifted.clear()
        lc, factors = factor_univariate(f)
        assert _product([UniPoly.constant(QQ, lc)] + [g for g, m in factors for _ in range(m)]) == f
        want = []
        for g, _ in factor.squarefree_decomposition(f)[1]:
            if g.degree >= 2:
                modular = ref.modular_factors(g)
                if modular is not None:
                    want.append(modular)
        assert lifted == want, f
        compared += len(want)
    assert compared >= 10


def _irreducible_of_degree(tower, d, start):
    for c in itertools.count(start):
        g = UniPoly(tower, [c, 1] + [0] * (d - 2) + [1])
        if factor.is_irreducible(g):
            return g


def test_frobenius_matrix_takes_x_to_the_q_once(monkeypatch):
    # a squarefree sextic over F_32003 with factors of degree 1, 2 and 3
    # takes x^q mod f once; its later distinct-degree step is a
    # matrix-vector product.  With two factors of each degree 1 and 2, the
    # equal-degree splits raise norms to (q - 1)/2, not to (q^2 - 1)/2
    q = 32003
    F = FieldTower.prime_field(q)
    quadratics = [_irreducible_of_degree(F, 2, c) for c in (1, 100)]
    assert quadratics[0] != quadratics[1]
    cubic = _irreducible_of_degree(F, 3, 1)
    cases = [
        _product([UniPoly(F, [5, 1]), quadratics[0], cubic]),
        _product([UniPoly(F, [5, 1]), UniPoly(F, [7, 1])] + quadratics),
    ]
    powers = []

    def recording(level, a, e, m):
        powers.append((list(a), e))
        return fields.pow_mod(level, a, e, m)

    # raising=False: a pipeline without the list power kernel records no
    # power and fails the count below, not the patch
    monkeypatch.setattr(factor, "pow_mod", recording, raising=False)
    for f in cases:
        powers.clear()
        lc, factors = factor_univariate(f)
        assert [(g.coeffs, m) for g, m in factors] == [
            (g.coeffs, m) for g, m in ref.factor_finite(f)[1]]
        assert [a for a, e in powers if e == q] == [[0, 1]]
        assert max(e for _, e in powers) == q
        assert all(e <= (q - 1) // 2 for _, e in powers if e != q)

