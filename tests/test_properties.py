"""Randomized invariants over Q and F_5.

Seven suites, each at least 200 seeded instances across the two coefficient
fields.  Generators stay within total degree 6.
"""

import random
from fractions import Fraction

import pytest

from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.divisors import PrimeDivisor, simple_ideal
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep
from dicritical.zariski import (
    base_point_tree,
    dicritical_set,
    records_from_tree,
    rees_certificate,
    zariski_factorization,
)

V = ("x", "y")
F5 = FieldTower.prime_field(5)
FIELDS = [(QQ, 0), (F5, 5)]
PER_FIELD = 110


def rand_coeff(rng, tower, nonzero=False):
    if tower.char == 0:
        c = rng.randint(-2, 2)
        if nonzero and c == 0:
            c = rng.choice([-2, -1, 1, 2])
        return tower.from_int(c)
    c = rng.randrange(tower.char)
    if nonzero and c == 0:
        c = 1 + rng.randrange(tower.char - 1)
    return tower.from_int(c)


def random_poly(rng, tower, max_deg=3):
    while True:
        f = BiPoly.zero(tower, V)
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, max_deg)
            j = rng.randint(0, max_deg - i)
            term = BiPoly.monomial(tower, V, (i, j))
            f = f.add(term.mul(BiPoly.monomial(tower, V, (0, 0), rand_coeff(rng, tower))))
        if not f.is_zero():
            return f


def random_primary(rng, tower, max_e=3):
    """A two-generated M-primary ideal with generator degrees at most 4."""
    while True:
        a, b = rng.randint(1, max_e), rng.randint(1, max_e)
        f = BiPoly.monomial(tower, V, (a, 0))
        g = BiPoly.monomial(tower, V, (0, b))
        if rng.random() < 0.7:
            extra = BiPoly.monomial(tower, V, (0, rng.randint(1, max_e)))
            f = f.add(extra.mul(BiPoly.monomial(tower, V, (0, 0), rand_coeff(rng, tower, True))))
        if rng.random() < 0.4:
            extra = BiPoly.monomial(tower, V, (rng.randint(1, max_e), rng.randint(0, 1)))
            g = g.add(extra.mul(BiPoly.monomial(tower, V, (0, 0), rand_coeff(rng, tower, True))))
        J = LocalIdeal(tower, V, [f, g])
        if J.is_mprimary() and J.min_order() >= 1:
            return J


def random_path(rng, tower, max_depth=3):
    steps = []
    for _ in range(rng.randint(1, max_depth)):
        if rng.random() < 0.3:
            steps.append(QdtStep.infinity())
        else:
            steps.append(QdtStep.affine(rand_coeff(rng, tower)))
    return QdtPath(tower, V, steps)


@pytest.mark.parametrize("tower,char", FIELDS)
def test_valuation_additivity(tower, char):
    rng = random.Random(100 + char)
    for _ in range(PER_FIELD):
        v = PrimeDivisor(random_path(rng, tower))
        f, g = random_poly(rng, tower), random_poly(rng, tower)
        assert v.value(f.mul(g)) == v.value(f) + v.value(g)


@pytest.mark.parametrize("tower,char", FIELDS)
def test_power_doubles_indices(tower, char):
    rng = random.Random(200 + char)
    for _ in range(PER_FIELD):
        J = random_primary(rng, tower)
        single = {r.divisor.path: r.index for r in dicritical_set(J)}
        squared = {r.divisor.path: r.index for r in dicritical_set(ic.product(J, J))}
        assert squared == {p: 2 * i for p, i in single.items()}


@pytest.mark.parametrize("tower,char", FIELDS)
def test_transform_keeps_dicriticals(tower, char):
    rng = random.Random(300 + char)
    for _ in range(PER_FIELD):
        J = random_primary(rng, tower)
        tree = base_point_tree(J)
        records = records_from_tree(tree)
        for child in tree.root.children if tree.root else []:
            step = child.path.steps[0]
            expected = {
                QdtPath(r.divisor.path.node_tower(1), V, r.divisor.path.steps[1:]): r.index
                for r in records
                if r.divisor.path.length >= 1 and r.divisor.path.steps[0] == step
            }
            got = {r.divisor.path: r.index for r in dicritical_set(child.ideal)}
            assert got == expected


@pytest.mark.parametrize("tower,char", FIELDS)
def test_rees_certificate_matches_tree(tower, char):
    rng = random.Random(400 + char)
    for _ in range(PER_FIELD):
        J = random_primary(rng, tower)
        tree = base_point_tree(J)
        seen = {}
        for node in tree.nodes():
            seen[node.path] = node.zariski > 0
            assert rees_certificate(J, PrimeDivisor(node.path)) == seen[node.path]
        probe = random_path(rng, tower, 2)
        if probe not in seen:
            assert not rees_certificate(J, PrimeDivisor(probe))


def newton_member(point, exps):
    """Membership in the Newton polyhedron, from supporting inequalities."""
    i, j = point
    if any(i >= a and j >= b for a, b in exps):
        return True
    pts = sorted(set(exps))
    conds = [
        (Fraction(1), Fraction(0), Fraction(min(a for a, _ in pts))),
        (Fraction(0), Fraction(1), Fraction(min(b for _, b in pts))),
    ]
    for a1, b1 in pts:
        for a2, b2 in pts:
            if (a1, b1) >= (a2, b2):
                continue
            p, q = Fraction(b1 - b2), Fraction(a2 - a1)
            if p <= 0 or q <= 0:
                continue
            c = p * a1 + q * b1
            if all(p * a + q * b >= c for a, b in pts):
                conds.append((p, q, c))
    return all(p * i + q * j >= c for p, q, c in conds)


@pytest.mark.parametrize("tower,char", FIELDS)
def test_monomial_closure_matches_newton(tower, char):
    rng = random.Random(500 + char)
    checked = 0
    while checked < PER_FIELD:
        exps = sorted({(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(2, 4))})
        if any(e == (0, 0) for e in exps):
            continue
        J = LocalIdeal(tower, V, [BiPoly.monomial(tower, V, e) for e in exps])
        for _ in range(3):
            pt = (rng.randint(0, 6), rng.randint(0, 6))
            got = ic.closure_membership(BiPoly.monomial(tower, V, pt), J)
            assert got == newton_member(pt, exps), (exps, pt)
            checked += 1


@pytest.mark.parametrize("tower,char", FIELDS)
def test_closure_idempotence(tower, char):
    rng = random.Random(600 + char)
    for _ in range(PER_FIELD // 2):
        # products of simple ideals times a monomial are complete
        parts = [ic.power(simple_ideal(PrimeDivisor(random_path(rng, tower, 2))), rng.randint(1, 2))]
        if rng.random() < 0.5:
            parts.append(simple_ideal(PrimeDivisor(random_path(rng, tower, 1))))
        K = parts[0]
        for part in parts[1:]:
            K = ic.product(K, part)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        if pa or pb:
            K = ic.product(K, LocalIdeal(tower, V, [BiPoly.monomial(tower, V, (pa, pb))]))
        assert ic.closure_equals(K, K)
        # a staircase with both exponents >= 2 always misses hull points
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        bad = LocalIdeal(
            tower, V, [BiPoly.monomial(tower, V, (a, 0)), BiPoly.monomial(tower, V, (0, b))]
        )
        assert not ic.closure_equals(bad, bad)


@pytest.mark.parametrize("tower,char", FIELDS)
def test_factorization_value_identity(tower, char):
    rng = random.Random(700 + char)
    for _ in range(PER_FIELD):
        J = random_primary(rng, tower)
        fact = zariski_factorization(J)
        for rec in dicritical_set(J):
            v = rec.divisor
            def value_of_ideal(ideal):
                return min(v.value(g) for g in ideal.gens)

            total = v.value(fact.principal) + sum(
                e * value_of_ideal(simple_ideal(w)) for w, e in fact.exponents
            )
            assert value_of_ideal(J) == total
