"""Univariate factorization over the supported coefficient fields.

The finite-field cases get an independent oracle: exhaustive root search
plus degree bookkeeping on random products with known factors.
"""

import random
import time

import pytest

import poly_reference as ref
from dicritical import cli
from dicritical.arith import (
    QQ,
    FieldTower,
    UniPoly,
    factor_univariate,
    is_irreducible,
    squarefree_decomposition,
)
from dicritical.arith import factor
from dicritical.arith.factor import extend
from dicritical.errors import InternalInconsistency

F2 = FieldTower.prime_field(2)
F5 = FieldTower.prime_field(5)


def up(tower, *coeffs):
    return UniPoly(tower, [tower.from_int(c) for c in coeffs])


def reassemble(tower, lc, factors):
    acc = UniPoly.constant(tower, lc)
    for f, mult in factors:
        for _ in range(mult):
            acc = acc.mul(f)
    return acc


def test_rational_factor_quadratics():
    f = up(QQ, -1, 0, 1)  # t^2 - 1
    lc, factors = factor_univariate(f)
    assert lc == QQ.one()
    assert [(g.render("t"), m) for g, m in factors] == [("t - 1", 1), ("t + 1", 1)]
    assert not is_irreducible(f)
    assert is_irreducible(up(QQ, 1, 0, 1))


def test_rational_multiplicities():
    f = up(QQ, 1, 1).mul(up(QQ, 1, 1)).mul(up(QQ, 1, 1)).mul(up(QQ, 2, 1)).scale(QQ.from_int(5))
    lc, factors = factor_univariate(f)
    assert QQ.render(lc) == "5"
    assert reassemble(QQ, lc, factors) == f
    assert sorted(m for _, m in factors) == [1, 3]


def test_roots_in_field():
    # the roots in the field are read off the linear factors
    _, factors = factor_univariate(up(QQ, 6, -5, 1))  # (t-2)(t-3)
    roots = sorted((QQ.neg(g.coeff(0)) for g, _ in factors if g.degree == 1), key=QQ.sort_key)
    assert [QQ.render(r) for r in roots] == ["2", "3"]
    _, factors = factor_univariate(up(QQ, 1, 0, 1))
    assert [g for g, _ in factors if g.degree == 1] == []


def test_squarefree_decomposition_char_zero():
    f = up(QQ, 0, 1).mul(up(QQ, 0, 1)).mul(up(QQ, 1, 1))
    lc, parts = squarefree_decomposition(f)
    assert reassemble(QQ, lc, parts) == f
    assert sorted(m for _, m in parts) == [1, 2]


def test_squarefree_decomposition_p_power():
    # t^5 + 1 = (t+1)^5 mod 5
    f = up(F5, 1, 0, 0, 0, 0, 1)
    lc, parts = squarefree_decomposition(f)
    assert parts == [(up(F5, 1, 1), 5)]


def exhaustive_roots(tower, f):
    out = []
    for i in range(tower.element_count()):
        e = tower.element_from_index(i)
        # f(e) is the remainder of f by t - e
        if f.divmod(UniPoly(tower, [tower.neg(e), tower.one()]))[1].is_zero():
            out.append(tower.sort_key(e))
    return sorted(out)


@pytest.mark.parametrize("tower", [F2, F5], ids=["F2", "F5"])
def test_finite_field_factor_against_root_oracle(tower):
    rng = random.Random(20260821)
    for trial in range(60):
        deg = rng.randint(1, 6)
        coeffs = [tower.from_int(rng.randrange(tower.char)) for _ in range(deg)]
        coeffs.append(tower.one())
        f = UniPoly(tower, coeffs)
        lc, factors = factor_univariate(f)
        assert reassemble(tower, lc, factors) == f
        # linear factors must match the exhaustive root list with multiplicity
        from_factors = []
        for g, mult in factors:
            assert is_irreducible(g)
            if g.degree == 1:
                root = tower.neg(g.coeff(0))
                from_factors.extend([tower.sort_key(root)] * 1)
        assert sorted(from_factors) == exhaustive_roots(tower, f)


def test_factor_over_f4():
    mp = up(F2, 1, 1, 1)
    F4 = extend(F2, mp, "u")
    u = F4.generator()
    # (t + u)(t + u + 1) = t^2 + t + u(u+1) = t^2 + t + 1 over F4
    f = UniPoly(F4, [F4.one(), F4.one(), F4.one()])
    lc, factors = factor_univariate(f)
    assert len(factors) == 2
    assert all(g.degree == 1 for g, _ in factors)
    assert reassemble(F4, lc, factors) == f


def test_factor_over_gaussian_rationals():
    K = extend(QQ, up(QQ, 1, 0, 1), "i")
    i = K.generator()
    f = UniPoly(K, [K.one(), K.zero(), K.one()])  # t^2 + 1 = (t-i)(t+i)
    lc, factors = factor_univariate(f)
    assert len(factors) == 2
    roots = sorted(K.sort_key(K.neg(g.coeff(0))) for g, _ in factors)
    assert roots == sorted([K.sort_key(i), K.sort_key(K.neg(i))])


def test_factor_over_quadratic_tower():
    K = extend(QQ, up(QQ, -2, 0, 1), "r")  # QQ(sqrt2)
    f = UniPoly(K, [K.from_int(-2), K.zero(), K.one()])  # t^2 - 2
    lc, factors = factor_univariate(f)
    assert [g.degree for g, _ in factors] == [1, 1]
    # t^4 + 1 stays degree 2 x 2 over QQ(sqrt2)
    g = UniPoly(K, [K.one(), K.zero(), K.zero(), K.zero(), K.one()])
    lc, factors = factor_univariate(g)
    assert sorted(h.degree for h, _ in factors) == [2, 2]
    assert reassemble(K, lc, factors) == g


def test_trager_on_rational_coefficients_over_gaussian_rationals():
    # f has no i in its coefficients, so the unshifted t-coefficients are one
    # constant: Trager skips s = 0 and takes its first norm at s >= 1
    K = extend(QQ, up(QQ, 1, 0, 1), "i")
    i = K.generator()
    factors = factor._factor_trager(up(K, 1, 0, 1))
    assert {tuple(g.coeffs) for g in factors} == {(K.neg(i), K.one()), (i, K.one())}
    for f in (up(K, -2, 0, 1), up(K, -2, 0, 0, 1)):  # t^2 - 2, t^3 - 2
        assert factor._factor_trager(f) == [f]


def _cofactor_det(M):
    """Determinant by expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    det = UniPoly.zero(M[0][0].tower)
    for j, a in enumerate(M[0]):
        term = a.mul(_cofactor_det([row[:j] + row[j + 1:] for row in M[1:]]))
        det = det.sub(term) if j % 2 else det.add(term)
    return det


@pytest.mark.parametrize(
    "rows,singular",
    [
        # zero leading pivot: the first step swaps in the second row
        ([[(), (1, 1), (2,)], [(0, 1), (3,), (1, 0, 1)], [(1,), (-1, 2), (0, 0, 1)]], False),
        # the pivot of the second step vanishes after elimination
        ([[(1,), (1,), (0, 1), (2,)], [(1,), (1,), (3,), (1, 1)],
          [(0, 1), (2,), (1,), ()], [(5,), (0, 0, 1), (1, -1), (1,)]], False),
        # the second column is t times the first
        ([[(1,), (0, 1), (2,)], [(0, 1), (0, 0, 1), (3,)], [(2,), (0, 2), (5,)]], True),
        # a zero first column
        ([[(), (1,), (0, 1)], [(), (2, 1), (1,)], [(), (1, 0, 1), (3,)]], True),
    ],
    ids=["swap-first", "swap-second", "singular", "zero-column"],
)
def test_bareiss_determinant_matches_cofactor_expansion(rows, singular):
    M = [[up(QQ, *c) for c in row] for row in rows]
    expected = _cofactor_det(M)
    assert expected.is_zero() == singular
    assert factor._det_bareiss([list(row) for row in M]) == expected


def test_irreducible_stays_whole():
    f = up(QQ, 2, 0, 0, 1)  # t^3 + 2, Eisenstein
    lc, factors = factor_univariate(f)
    assert factors == [(f, 1)]


# Swinnerton-Dyer polynomial of sqrt 2, 3, 5, 7: irreducible over Q, yet
# eight factors of degree <= 2 modulo every prime; recombination tries 127
# subsets of them before it proves irreducibility
SD16 = [46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0, 1]


def test_swinnerton_dyer_within_recombination_budget():
    f = UniPoly(QQ, [QQ.from_int(c) for c in SD16])
    assert factor_univariate(f) == (QQ.one(), [(f, 1)])


def test_exit_recombination_budget(capsys, monkeypatch):
    monkeypatch.setattr(factor, "MAX_RECOMBINATION_SUBSETS", 100)
    form = " + ".join("(%d)*Y^%d*X^%d" % (c, k, 16 - k) for k, c in enumerate(SD16) if c)
    start = time.perf_counter()
    code = cli.main(["at-infinity", form + " + X"])
    err = capsys.readouterr().err
    assert code == 5 and "MAX_RECOMBINATION_SUBSETS = 100" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "tower",
    [QQ, FieldTower.prime_field(7), FieldTower(7, [("a", (1, 0, 1))])],
    ids=["Q", "F7", "F7(a)"],
)
def test_linear_input_skips_the_squarefree_decomposition(tower, monkeypatch):
    # the path a degree-1 input took before: squarefree parts, each split
    def old_path(f):
        lc, parts = factor._squarefree_parts(f)
        out = [(irr, m) for g, m in parts for irr in factor._factor_squarefree_monic(tower, g)]
        out.sort(key=lambda im: factor._key(tower, im[0]))
        return lc, [(UniPoly(tower, irr), m) for irr, m in out]

    rng = random.Random("factor/linear/%r" % tower)
    elements = [tower.from_int(n) for n in (3, -2, 5, 11)]
    if tower.height:
        elements.append(tower.generator())
    cases = [UniPoly(tower, [c, d]) for c in elements + [tower.zero()] for d in elements]
    cases += [UniPoly(tower, [rng.choice(elements), rng.choice(elements)]) for _ in range(10)]
    expected = [old_path(f) for f in cases]
    monkeypatch.setattr(factor, "_squarefree_parts", None)
    for f, want in zip(cases, expected):
        assert factor_univariate(f) == want


@pytest.mark.parametrize("p", [3, 7, 11, 32003])
def test_bezout_pair_matches_extended_euclid(p):
    # the Hensel lift's s, t from two inverses against the extended Euclid
    # that carried both cofactors; g as the lift makes it, h monic
    level = FieldTower.prime_field(p).top
    rng = random.Random("factor/bezout/%d" % p)
    compared = 0
    for _ in range(200):
        g = [rng.randrange(p) for _ in range(rng.randint(1, 7))] + [rng.randrange(1, p)]
        h = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
        try:
            want = ref.zxgcd(g, h, p)
        except InternalInconsistency:
            continue
        s, t = factor._bezout(level, g, h)
        assert (s, t) == want
        assert factor._zadd(factor._zmul(s, g, p), factor._zmul(t, h, p), p) == [1]
        compared += 1
    assert compared > 50
