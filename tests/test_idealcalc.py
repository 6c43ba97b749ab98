"""Colengths, membership, closures, reductions, and the triangular family.

Monomial ideals get brute-force oracles: a staircase count for colength and
the Newton polyhedron for closure membership.
"""

import random
import time
from fractions import Fraction

import pytest

import test_frame_differential as fd
import test_properties as props
from echelon_reference import doubled_frame
from dicritical import cli, idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower, UniPoly, polynomials
from dicritical.arith.factor import factor_univariate
from dicritical.divisors import PrimeDivisor, simple_ideal
from dicritical.errors import NotMPrimary, Unstable
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep
from dicritical.zariski import base_point_tree
from poly_reference import is_canonical

V = ("x", "y")
X = BiPoly.variable(QQ, V, "x")
Y = BiPoly.variable(QQ, V, "y")


def monomial_ideal(exps, tower=QQ):
    return LocalIdeal(tower, V, [BiPoly.monomial(tower, V, e) for e in exps])


def staircase_colength(exps, cap=60):
    # brute force: count monomials not divisible by any generator
    count = 0
    for i in range(cap):
        for j in range(cap):
            if not any(i >= a and j >= b for a, b in exps):
                count += 1
    return count


def newton_closure_member(point, exps):
    """(i, j) lies in the Newton polyhedron of exps, decided edge by edge."""
    i, j = point
    if any(i >= a and j >= b for a, b in exps):
        return True
    pts = sorted(set(exps))
    # supporting inequalities: for every pair of generators the segment
    # between them, plus the two axis-parallel rays from the extremes
    best_a = min(a for a, _ in pts)
    best_b = min(b for _, b in pts)
    if i < best_a and all(not (a <= i) for a, _ in pts):
        pass
    conditions = []
    for (a1, b1) in pts:
        for (a2, b2) in pts:
            if (a1, b1) >= (a2, b2):
                continue
            # line through the two points: normal (b1 - b2, a2 - a1)
            p, q = Fraction(b1 - b2), Fraction(a2 - a1)
            if p <= 0 or q <= 0:
                continue
            c = p * a1 + q * b1
            if all(p * a + q * b >= c for a, b in pts):
                conditions.append((p, q, c))
    conditions.append((Fraction(1), Fraction(0), Fraction(best_a)))
    conditions.append((Fraction(0), Fraction(1), Fraction(best_b)))
    return all(p * i + q * j >= c for p, q, c in conditions)


def test_colength_golden():
    assert ic.colength(monomial_ideal([(3, 0), (0, 2)])) == 6
    assert ic.colength(monomial_ideal([(1, 0), (0, 1)])) == 1
    assert ic.colength(LocalIdeal(QQ, V, [BiPoly.one(QQ, V)])) == 0


def test_colength_staircase_oracle():
    cases = [
        [(4, 0), (0, 4)],
        [(5, 0), (2, 2), (0, 3)],
        [(6, 0), (4, 1), (1, 4), (0, 6)],
        [(2, 0), (1, 1), (0, 5)],
    ]
    for exps in cases:
        assert ic.colength(monomial_ideal(exps)) == staircase_colength(exps)


def test_colength_non_monomial():
    J = LocalIdeal(QQ, V, [Y.pow(2).sub(X.pow(3)), X.pow(4)])
    # y^2 - x^3, x^4: colength = ord intersection multiplicity 8
    assert ic.colength(J) == 8


def test_colength_unstable_for_non_primary():
    J = LocalIdeal(QQ, V, [X.pow(2)])
    with pytest.raises(NotMPrimary, match="share the factor x\\^2"):
        ic.colength(J)


@pytest.mark.parametrize(
    "gens,factor",
    [
        ([X.pow(2), X.mul(Y)], "x"),
        ([X.pow(3).mul(Y), X.mul(Y.pow(3))], "x*y"),
        ([X.pow(5).add(Y.pow(2))], "x^5 + y^2"),
    ],
)
def test_non_primary_refused_after_one_frame(gens, factor):
    # refused by the gcd guard before any frame, not at the budget
    start = time.perf_counter()
    with pytest.raises(NotMPrimary) as exc:
        ic.colength(LocalIdeal(QQ, V, gens))
    assert str(exc.value).endswith("share the factor %s" % factor)
    assert time.perf_counter() - start < 2


def _frames_built(monkeypatch, call):
    """call's result and the (ideal, bound) of each frame it builds."""
    built = []
    real = ic.TruncationFrame.__init__

    def logged(self, ideal, bound):
        built.append((ideal, bound))
        real(self, ideal, bound)

    monkeypatch.setattr(ic.TruncationFrame, "__init__", logged)
    try:
        return call(), built
    finally:
        monkeypatch.setattr(ic.TruncationFrame, "__init__", real)


def _fresh(ideal):
    """An equal ideal that keeps no frame yet: stabilized_frame builds anew."""
    return LocalIdeal(ideal.tower, ideal.vars, ideal.gens)


def _assert_one_frame(monkeypatch, ideal):
    # one frame, at bound MAX_FRAME_DEGREE + 1, cut at its full degree d: no
    # lead passes degree d, and no reduction looks past degree 2d
    ideal = _fresh(ideal)
    looked, real = [0], ic.TruncationFrame._lookup

    def lookup(self, k):
        looked[0] = max(looked[0], k // self._width)
        return real(self, k)

    monkeypatch.setattr(ic.TruncationFrame, "_lookup", lookup)
    frame, built = _frames_built(monkeypatch, lambda: ic.stabilized_frame(ideal))
    monkeypatch.setattr(ic.TruncationFrame, "_lookup", real)
    assert [b for _, b in built] == [ic.MAX_FRAME_DEGREE + 1]
    d = frame.full_degree()
    assert frame._limit == d * frame._width
    assert all(a + b <= d for a, b, _ in frame._basis), (ideal, d)
    assert looked[0] <= 2 * d, (ideal, looked[0], d)


def _const(n):
    return BiPoly.from_int(QQ, V, n)


def test_frame_ignores_a_redundant_high_degree_generator(monkeypatch):
    J = LocalIdeal(QQ, V, [_const(2).mul(X).add(_const(3).mul(Y)).pow(100), X.pow(2), Y.pow(3)])
    start = time.perf_counter()
    assert ic.colength(J) == 6
    assert time.perf_counter() - start < 2
    _assert_one_frame(monkeypatch, J)


@pytest.mark.parametrize("tower", [QQ, FieldTower.prime_field(5)], ids=["Q", "F5"])
def test_one_frame_cut_at_full_degree(monkeypatch, tower):
    for m in range(2, 7):
        f, g, I = ic.abhyankar_family(m, tower)
        _assert_one_frame(monkeypatch, I)
        _assert_one_frame(monkeypatch, LocalIdeal(tower, V, [f, g]))
    rng = random.Random(900 + tower.char)
    for _ in range(40):
        _assert_one_frame(monkeypatch, props.random_primary(rng, tower))


def test_one_frame_reduces_below_twice_its_full_degree(monkeypatch):
    # I = (x + x^2 + x.y + y^2, x^3 + y^3)^2 has full degree 6; reduced at
    # once through the whole bound, its zero remainders ran to degree 1024
    # before the cut and took seconds
    J = cli.parse_ideal("x + x^2 + x*y + y^2, x^3 + y^3", QQ, V)
    I = ic.power(J, 2)
    start = time.perf_counter()
    _assert_one_frame(monkeypatch, I)
    assert ic.colength(I) == doubled_frame(I).colength() == 9
    assert time.perf_counter() - start < 1


def test_non_primary_guard_comes_before_the_frame(monkeypatch):
    # a shared factor through the origin: the frame at the budget would never
    # cut, and built first it takes seconds
    J = cli.parse_ideal(
        "(y-x-x^2-x^3)*(2*x^2+3*y^3+x*y), (y-x-x^2-x^3)*(y^5+7*x^4)", QQ, V
    )
    start = time.perf_counter()
    with pytest.raises(NotMPrimary, match="share the factor"):
        _frames_built(monkeypatch, lambda: ic.colength(J))
    assert time.perf_counter() - start < 1


def test_membership():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    assert ic.membership(X.pow(3).add(Y.pow(2)), J)
    assert ic.membership(X.pow(5).mul(Y), J)
    assert not ic.membership(X.pow(2).mul(Y), J)
    assert ic.membership(BiPoly.zero(QQ, V), J)
    # (y^2 - x^3) belongs, (y^2 - x^2) does not
    assert ic.membership(Y.pow(2).sub(X.pow(3)), J)
    assert not ic.membership(Y.pow(2).sub(X.pow(2)), J)


def test_ideal_equals():
    J = LocalIdeal(QQ, V, [X, Y])
    K = LocalIdeal(QQ, V, [X.add(Y), Y])
    assert ic.ideal_equals(J, K)
    L = LocalIdeal(QQ, V, [X.pow(2), Y])
    assert not ic.ideal_equals(J, L)


def test_product_and_power_monomial_pruning():
    J = monomial_ideal([(1, 0), (0, 1)])
    sq = ic.power(J, 2)
    assert sorted(next(iter(g.terms)) for g in sq.gens) == [(0, 2), (1, 1), (2, 0)]
    assert ic.colength(sq) == 3
    assert ic.power(J, 0).is_unit()


def test_monomial_product_multiplies_no_polynomials(monkeypatch):
    """Exponent pairs add: the minimal sums are the pruned polynomial products."""
    rng = random.Random("monomial product")
    pairs = [(ic.abhyankar_family(5)[2], ic.power(ic.abhyankar_family(4)[2], 2))]
    for _ in range(20):
        pairs.append(tuple(monomial_ideal([(rng.randint(0, 6), rng.randint(0, 6))
                                           for _ in range(rng.randint(1, 4))]) for _ in range(2)))
    expected = []
    for j, k in pairs:
        sums = {e for a in j.gens for b in k.gens for e in (a * b).terms}
        expected.append(sorted(e for e in sums if not any(
            f != e and f[0] <= e[0] and f[1] <= e[1] for f in sums)))

    def refuse(*args):
        raise AssertionError("a polynomial product was formed")

    monkeypatch.setattr(BiPoly, "mul", refuse)
    for (j, k), exps in zip(pairs, expected):
        assert sorted(e for g in ic.product(j, k).gens for e in g.terms) == exps


def test_closure_membership_golden():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    assert ic.closure_membership(X.pow(2).mul(Y), J)
    assert not ic.closure_membership(X.pow(2), J)
    assert ic.closure_membership(BiPoly.zero(QQ, V), J)


def test_closure_membership_newton_oracle_small():
    exps = [(4, 0), (0, 3)]
    J = monomial_ideal(exps)
    for i in range(6):
        for j in range(5):
            got = ic.closure_membership(BiPoly.monomial(QQ, V, (i, j)), J)
            want = newton_closure_member((i, j), exps)
            assert got == want, ((i, j), got, want)


def test_closure_membership_principal_part():
    # non M-primary: x * (x^2, y^2); membership needs the x factor
    J = LocalIdeal(QQ, V, [X.pow(3), X.mul(Y.pow(2))])
    assert ic.closure_membership(X.pow(2).mul(Y), J)
    assert not ic.closure_membership(X.pow(2), J)
    assert not ic.closure_membership(Y.pow(3), J)


def test_closure_colength():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    # closure adds x^2 y: colength drops from 6 to 5
    assert ic.colength(J) == 6
    assert ic.closure_colength(J) == 5


# x - 1 is a unit of the local ring: (x^2 - x, x*y - y) is the ideal (x, y)
UNIT_MULTIPLE = LocalIdeal(QQ, V, [X.pow(2).sub(X), X.mul(Y).sub(Y)])


def test_closure_colength_local_principal_part():
    assert ic.closure_colength(UNIT_MULTIPLE) == ic.colength(UNIT_MULTIPLE) == 1
    with pytest.raises(NotMPrimary, match="share the factor x"):
        ic.closure_colength(LocalIdeal(QQ, V, [X.pow(2), X.mul(Y)]))


def test_closure_equals_local_principal_part():
    XY = LocalIdeal(QQ, V, [X, Y])
    assert ic.closure_equals(UNIT_MULTIPLE, XY)
    assert ic.closure_equals(XY, UNIT_MULTIPLE)
    # a principal part that vanishes at the origin still counts
    assert not ic.closure_equals(ic.product(UNIT_MULTIPLE, LocalIdeal(QQ, V, [X])), XY)


def test_closure_equals_golden():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    K = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2), X.pow(2).mul(Y)])
    assert ic.closure_equals(J, K)
    assert not ic.closure_equals(J, J)  # J itself is not complete
    assert ic.closure_equals(K, K)


def test_closure_equals_with_principal_part():
    # x * (x^3, y^2): complete only once x^3*y joins the generators
    J = LocalIdeal(QQ, V, [X.pow(4), X.mul(Y.pow(2))])
    K = LocalIdeal(QQ, V, [X.pow(4), X.mul(Y.pow(2)), X.pow(3).mul(Y)])
    assert not ic.closure_equals(J, J)
    assert ic.closure_equals(J, K)
    assert ic.closure_equals(K, K)
    # purely principal closures
    P = LocalIdeal(QQ, V, [X.pow(2), X.pow(2).mul(Y)])
    assert ic.closure_equals(P, LocalIdeal(QQ, V, [X.pow(2)]))


def test_minimal_generators_monomial():
    J = monomial_ideal([(3, 0), (0, 2), (4, 1), (3, 1)])
    mg = ic.minimal_generators(J)
    assert sorted(next(iter(g.terms)) for g in mg.gens) == [(0, 2), (3, 0)]


def test_minimal_generators_general():
    gens = [X.pow(3), Y.pow(2), X.pow(3).add(Y.pow(2)), X.pow(2).mul(Y.pow(2))]
    J = LocalIdeal(QQ, V, gens)
    mg = ic.minimal_generators(J)
    assert len(mg.gens) == 2
    assert ic.ideal_equals(J, mg)


TRUNCATION_GOLDENS = [
    # (2x + 3y)^10 lies in M^(d+1), inside M.I, and its keys would collide
    ("(2*x+3*y)^10, x^2, y^3", [1, 2]),
    ("x^3-y^2+x^4*y^4, x*y^2, (x+y)^6", [0, 1]),
    # principal part x: its residual keeps x^2 + y^5 + x*y^3 first
    ("x*(x^2+y^5), x*y^3, x*(x^2+y^5+x*y^3)", [2, 1]),
]


@pytest.mark.parametrize("tower", [QQ, FieldTower.prime_field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("source,kept", TRUNCATION_GOLDENS, ids=["power", "tail", "principal"])
def test_minimal_generators_truncation_goldens(tower, source, kept):
    # the trim cuts a candidate at the full degree d: its terms above d lie
    # in M^(d+1), inside M.I
    gens = [cli.parse_polynomial(s, tower, V) for s in source.split(", ")]
    got = ic.minimal_generators(LocalIdeal(tower, V, gens)).gens
    assert [sorted(g.terms.items()) for g in got] == [sorted(gens[k].terms.items()) for k in kept]


def _sweeps(monkeypatch, call):
    """call's result and the number of sweeps it runs."""
    count, real = [0], ic.sweep

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ic, "sweep", counted)
    try:
        return call(), count[0]
    finally:
        monkeypatch.setattr(ic, "sweep", real)


def test_minimal_generators_sweeps_each_candidate_once(monkeypatch):
    # besides the ideal's own frames, one frame of M.I over the x.g and y.g
    # at bound d + 1; the trim then sweeps each generator at most once, and
    # never the shifts of a basis of I / M^d, which has d(d+1)/2 - colength
    # elements
    for m in range(2, 6):
        f, g, _ = ic.abhyankar_family(m)
        ideal = LocalIdeal(QQ, V, [f, g, f.add(g), f.mul(X), g.mul(Y).add(f)])
        shifts = LocalIdeal(QQ, V, [h.mul_monomial(e) for h in ideal.gens
                                    for e in ((1, 0), (0, 1))])

        def counted(call):
            return _frames_built(monkeypatch, lambda: _sweeps(monkeypatch, call))

        (frame, own), built = counted(lambda: ic.stabilized_frame(_fresh(ideal)))
        d = frame.full_degree()
        of_mi = _sweeps(monkeypatch, lambda: ic.TruncationFrame(shifts, d + 1))[1]
        (got, total), mg_built = counted(lambda: ic.minimal_generators(ideal))
        assert [b for _, b in mg_built] == [b for _, b in built] + [d + 1]
        assert mg_built[-1][0].gens == shifts.gens
        assert total - own - of_mi <= len(ideal.gens)
        assert len(got.gens) == 2


def test_is_reduction_golden():
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)])
    K = LocalIdeal(QQ, V, [X.pow(3), Y.pow(2), X.pow(2).mul(Y)])
    r = ic.is_reduction(J, K)
    assert r.decision and r.witness == 1
    assert r.by_direct and r.by_valuative


def test_is_reduction_trivial_and_false():
    J = LocalIdeal(QQ, V, [X, Y])
    r = ic.is_reduction(J, J)
    assert r.decision and r.witness == 0
    K = LocalIdeal(QQ, V, [X.pow(2), X.mul(Y), Y.pow(2)])
    r = ic.is_reduction(ic.power(J, 3), K)
    # J^3 is inside K but values differ: not a reduction
    assert not r.decision and r.witness is None
    # not even contained: also false
    r = ic.is_reduction(K, ic.power(J, 3))
    assert not r.decision


def test_is_reduction_non_primary_j():
    # (x) has no value floors, but a reduction of (x, y) must be M-primary
    r = ic.is_reduction(LocalIdeal(QQ, V, [X]), LocalIdeal(QQ, V, [X, Y]))
    assert not r.decision and r.witness is None
    assert not r.by_direct and not r.by_valuative


def test_is_reduction_needs_candidate_valuations():
    # (x^3, y^5) and (x^3, y^5, x*y^2) take equal values on the larger
    # ideal's two divisors, yet x*y^2 sits below the smaller polygon
    J = LocalIdeal(QQ, V, [X.pow(3), Y.pow(5)])
    K = LocalIdeal(QQ, V, [X.pow(3), Y.pow(5), X.mul(Y.pow(2))])
    assert not ic.closure_membership(X.mul(Y.pow(2)), J)
    r = ic.is_reduction(J, K, n_max=4)
    assert not r.decision and r.witness is None
    assert not r.by_direct and not r.by_valuative


def test_abhyankar_family_shapes():
    for m in range(1, 6):
        f, g, ideal = ic.abhyankar_family(m)
        assert ideal.min_order() == m
        assert len(ideal.gens) == m + 1
        assert f.total_degree <= m * (m + 1) // 2
    f5, g5, i5 = ic.abhyankar_family(5)
    assert f5.render() == "x^15 + x^6*y^2 + x*y^4"
    assert g5.render() == "x^10*y + x^3*y^3 + y^5"
    assert sorted(next(iter(p.terms)) for p in i5.gens) == [
        (0, 5), (1, 4), (3, 3), (6, 2), (10, 1), (15, 0),
    ]


def test_abhyankar_family_golden_6_to_8():
    """The family past the acceptance tier (m <= 5): J_m = (F_m, G_m) reduces
    I_m with witness 1, and the colengths are the tetrahedral and
    square-pyramidal numbers, with cl(J_m) = I_m."""
    for m in range(6, 9):
        f, g, I = ic.abhyankar_family(m)
        J = LocalIdeal(QQ, V, [f, g])
        assert ic.is_reduction(J, I) == ic.ReductionResult(True, 1, True, True)
        assert ic.colength(I) == m * (m + 1) * (m + 2) // 6
        assert ic.colength(J) == m * (m + 1) * (2 * m + 1) // 6
        assert ic.closure_colength(J) == ic.colength(I)


def test_q_coefficients_are_canonical_rationals():
    # over Q an integral coefficient is an int and any other a Fraction with
    # denominator > 1, whichever path built it
    inf, aff = QdtStep.infinity(), QdtStep.affine
    paths = [
        [aff(0)] * 7,
        [inf, aff(2), aff(2), inf, aff(0)],
        [aff(Fraction(-1, 3)), inf, aff(Fraction(5, 2))],
    ]
    seen = set()
    for steps in paths:
        ideal = simple_ideal(PrimeDivisor(QdtPath(QQ, V, steps)))
        coeffs = [c for g in ideal.gens for c in g.terms.values()]
        assert all(map(is_canonical, coeffs))
        seen.update(map(type, coeffs))
    assert seen == {int, Fraction}
    half = Fraction(1, 2)
    gens = [X * X + Y.scale(half), (X * Y).scale(6), (Y * Y).scale(Fraction(4, 3)) + X * X]
    ideal = ic.minimal_generators(LocalIdeal(QQ, V, gens))
    assert all(is_canonical(c) for g in ideal.gens for c in g.terms.values())
    # (2/3)(t - 1/2)(t + 1/2)(t + 3)^2
    f = UniPoly(QQ, [Fraction(2, 3)])
    for root, m in ((-half, 1), (half, 1), (3, 2)):
        for _ in range(m):
            f = f.mul(UniPoly(QQ, [root, 1]))
    lc, parts = factor_univariate(f)
    assert lc == Fraction(2, 3) and sorted(m for _, m in parts) == [1, 1, 2]
    assert all(is_canonical(c) for g, _ in parts for c in g.coeffs)
    g = cli.parse_polynomial("6*x^2 - 4*y + 1", QQ, V)
    assert [type(c) for c in g.terms.values()] == [int] * 3
    z = cli.parse_rational("(2*x - 3*y + 6)/(4*y + 8)", QQ, V)
    coeffs = [c for g in (z.num, z.den) for c in g.terms.values()]
    assert all(map(is_canonical, coeffs)) and {int, Fraction} <= set(map(type, coeffs))
    for data, want in (("3", 3), ("-2/9", Fraction(-2, 9)), ("6/3", 2), ("-0", 0), ("+4/2", 2)):
        e = QQ.element_from_data(data)
        assert type(e) is type(want) and e == want
        assert QQ.element_from_data(QQ.element_to_data(e)) == e
    K = FieldTower(None, [("i", (1, 0, 1))])
    e = K.element_from_data(["4/2", "1/3"])
    assert [type(c) for c in e] == [int, Fraction] and e == (2, Fraction(1, 3))
    assert K.element_from_data(K.element_to_data(e)) == e


def test_abhyankar_family_over_f5():
    F5 = FieldTower.prime_field(5)
    f, g, ideal = ic.abhyankar_family(3, F5)
    assert ideal.min_order() == 3
    assert len(ideal.gens) == 4


def test_truncation_frame_direct():
    J = LocalIdeal(QQ, V, [X.pow(2), Y.pow(2)])
    frame = ic.TruncationFrame(J, 4)
    assert frame.colength() == ic.colength(J)
    assert frame.contains(X.pow(2).mul(Y))
    assert not frame.contains(X.mul(Y))


def test_frame_full_degree():
    # (x^2, y^2) contains every cubic but not x*y
    J = LocalIdeal(QQ, V, [X.pow(2), Y.pow(2)])
    assert ic.TruncationFrame(J, 3).full_degree() is None
    assert ic.TruncationFrame(J, 6).full_degree() == 3
    assert ic.stabilized_frame(J).full_degree() == 3
    assert ic.TruncationFrame(LocalIdeal(QQ, V, [BiPoly.one(QQ, V)]), 1).full_degree() == 0


def test_unstable_message_names_budget(monkeypatch):
    monkeypatch.setattr(ic, "MAX_FRAME_DEGREE", 32)
    # the one frame, at bound 33, shows no full layer: d(I) is 39, then 79
    for gens in ([X.pow(39), Y], [X.pow(40), Y.pow(40)]):
        with pytest.raises(Unstable, match="MAX_FRAME_DEGREE = 32 shows") as exc:
            ic.colength(LocalIdeal(QQ, V, gens))
        assert "try" not in str(exc.value)
    # d(I) = 32 is within the budget
    assert ic.colength(LocalIdeal(QQ, V, [X.pow(32), Y])) == 32


def test_colength_of_the_fourteen_step_simple_ideal():
    # the path alternating infinity and aff(0) meets only coordinate points,
    # so its valuation is monomial and I_V is spanned by the monomials of
    # value >= c.  ord(I_V) = 610 and d(I_V) = D = 987: the doubled frames
    # tried bound 611 and then 1222, past the budget
    steps = [QdtStep.infinity(), QdtStep.affine(QQ.zero())] * 7
    v = PrimeDivisor(QdtPath(QQ, V, steps))
    a, b = v.coordinate_values()
    rho = v.point_basis()
    c = sum(p * r for p, r in zip(rho, v.intermediate_multiplicities()))
    exps = [(i, max(-(-(c - a * i) // b), 0)) for i in range(-(-c // a) + 1)]
    ideal = LocalIdeal(QQ, V, [BiPoly.monomial(QQ, V, e) for e in exps])
    assert ideal.min_order() == 610
    start = time.perf_counter()
    # the Hoskin-Deligne count over the point basis
    assert ic.colength(ideal) == sum(r * (r + 1) // 2 for r in rho) == 301833
    assert ic.stabilized_frame(ideal).full_degree() == 987
    assert time.perf_counter() - start < 1
    with pytest.raises(Unstable):
        doubled_frame(ideal)


@pytest.mark.parametrize("tower", [QQ, FieldTower.prime_field(5)], ids=["Q", "F5"])
def test_frame_insert_budget(tower):
    # a frame keeps one element per corner of its staircase: the leads are an
    # antichain, sorted by the power of x, of at most as many elements as the
    # leading ideal of the echelon frame has corners
    for m in range(2, 6):
        f, g, I = ic.abhyankar_family(m, tower)
        J = LocalIdeal(tower, V, [f, g])
        for ideal in (I, J, ic.product(J, I)):
            d = ic.stabilized_frame(ideal).full_degree()
            for bound in (d, d + 1, 2 * d + 1):
                frame = ic.TruncationFrame(ideal, bound)
                leads = [(a, b) for a, b, _ in frame._basis]
                assert leads
                assert all(p[0] < q[0] and p[1] > q[1] for p, q in zip(leads, leads[1:]))
                pivots = fd.EchelonFrame(ideal, bound).ech.rows
                assert len(leads) <= len(fd.corners(pivots))


def test_is_reduction_frame_bounds(monkeypatch):
    # besides I's own frame: for a two-generated J with witness <= 1, the
    # frames of J and I^2 at 2 d(I) + 1, whose colengths give the witness;
    # otherwise the frames of I^(n+1) and J.I^n at (n + 1) d(I) + 1
    def bounds(built):
        return [b for _, b in built]

    for m in range(2, 6):
        f, g, I = ic.abhyankar_family(m)
        J = LocalIdeal(QQ, V, [f, g])
        # a non-reduction runs the chase up to n_max, at the same bounds
        K = ic.product(J, LocalIdeal(QQ, V, [X, Y.pow(m + 1)]))
        L = ic.product(J, LocalIdeal(QQ, V, [X, Y]))
        for small, big, n_max, witness in ((J, I, None, 1), (K, L, 2, None)):
            own, own_built = _frames_built(monkeypatch, lambda: ic.stabilized_frame(_fresh(big)))
            result, built = _frames_built(monkeypatch, lambda: ic.is_reduction(small, big, n_max))
            assert result.witness == witness
            d = own.full_degree()
            if witness is None:
                chase = [(n + 1) * d + 1 for n in range(n_max + 1) for _ in range(2)]
                assert bounds(built) == bounds(own_built) + chase
            else:
                assert bounds(built) == bounds(own_built) + [2 * d + 1] * 2
                assert built[-2][0] is small
                assert fd._render(built[-1][0].gens) == fd._render(ic.power(big, 2).gens)


def test_pure_powers_need_no_gcd(monkeypatch):
    """A pure power of x and one of y share no factor: content() is a unit
    by bipoly_gcd's monomial rule, with no certificate and no PRS, so frames
    and trees of such ideals take no polynomial gcd."""
    rng = random.Random("pure powers")
    ideals = [ic.abhyankar_family(3)[2]]
    for _ in range(20):
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        ideals.append(monomial_ideal([(a, 0), (0, b), (rng.randrange(a), rng.randrange(b))]))
    expected = [(ic.colength(J), len(base_point_tree(J).nodes())) for J in ideals]

    def refuse(*args):
        raise AssertionError("a polynomial gcd was taken")

    for name in ("_coprime_by_specialization", "_prs_gcd"):
        monkeypatch.setattr(polynomials, name, refuse)
    for J, (length, nodes) in zip(ideals, expected):
        assert J.content() == BiPoly.one(QQ, V)
        assert ic.colength(J) == ic.stabilized_frame(J).colength() == length
        assert len(base_point_tree(J).nodes()) == nodes
