"""Prime divisors: values, residue images, degrees, simple ideals."""

import pytest

from dicritical.arith import QQ, BiPoly
from dicritical.divisors import (
    PrimeDivisor,
    RationalFn,
    residue_image,
    simple_ideal,
)
from dicritical.errors import BudgetExceeded, NonzeroValue, ZeroInput
from dicritical.idealcalc import closure_colength, colength
from dicritical.nearpoints import QdtPath, QdtStep
from dicritical.zariski import dicritical_set

V = ("x", "y")
X = BiPoly.variable(QQ, V, "x")
Y = BiPoly.variable(QQ, V, "y")


def divisor(*steps):
    return PrimeDivisor(QdtPath(QQ, V, list(steps)))


def test_rational_fn_reduction():
    z = RationalFn(X.pow(2).mul(Y), X.mul(Y.pow(2)))
    assert z.num == X
    assert z.den == Y
    with pytest.raises(ZeroInput):
        RationalFn(X, BiPoly.zero(QQ, V))
    assert RationalFn(BiPoly.zero(QQ, V), X).is_zero()


def test_rational_fn_eq_cross_multiplies():
    a = RationalFn(X, Y)
    b = RationalFn(X.pow(2), X.mul(Y))
    assert a == b


def test_values_on_golden_divisor():
    # the divisor of (x^3, y^2): v(x) = 2, v(y) = 3
    v = divisor(QdtStep.affine(QQ.zero()), QdtStep.infinity())
    assert v.value(X) == 2
    assert v.value(Y) == 3
    assert v.value(X.mul(Y)) == 5
    from dicritical.nearpoints import LocalIdeal

    assert min(v.value(g) for g in LocalIdeal(QQ, V, [X.pow(3), Y.pow(2)]).gens) == 6


def test_intermediate_multiplicities():
    v = divisor(QdtStep.affine(QQ.zero()), QdtStep.infinity())
    # r = (2, 1, 1): sum of squares 6 = v((x^3, y^2))
    assert v.intermediate_multiplicities() == (2, 1, 1)


def test_residue_image_and_degree():
    v = divisor(QdtStep.affine(QQ.zero()), QdtStep.infinity())
    z = RationalFn(Y.pow(2), X.pow(3))
    img = residue_image(v, z)
    assert not img.is_constant()
    assert v.residue_degree() * img.degree == 1


def test_residue_image_requires_equal_values():
    v = divisor(QdtStep.affine(QQ.zero()), QdtStep.infinity())
    with pytest.raises(NonzeroValue):
        residue_image(v, RationalFn(Y, X))


def test_constant_image_rejected():
    # v(x) = 1, v(y) = 1 for the depth-0 path is not defined; use depth 1:
    # under one affine(0) chart x/x = 1 would be constant, so use x/y at the
    # origin divisor where the image is the coordinate ratio
    v = divisor()
    z = RationalFn(X.pow(2), X.mul(Y))
    img = residue_image(v, z)
    assert not img.is_constant()
    const = RationalFn(X.scale(QQ.from_int(2)), X)
    assert residue_image(v, const).is_constant()


def test_residue_degree_over_extension():
    # path through an irreducible quadratic direction has residue degree 2
    mp = (QQ.from_int(1), QQ.zero(), QQ.one())  # t^2 + 1
    v = PrimeDivisor(QdtPath(QQ, V, [QdtStep.affine_ext("a1", mp)]))
    assert v.residue_degree() == 2


def test_simple_ideal_golden():
    v = divisor(QdtStep.affine(QQ.zero()), QdtStep.infinity())
    zeta = simple_ideal(v)
    assert sorted(g.render() for g in zeta.gens) == ["x^2*y", "x^3", "y^2"]


def test_simple_ideal_origin():
    v = divisor()
    zeta = simple_ideal(v)
    assert sorted(g.render() for g in zeta.gens) == ["x", "y"]


def test_simple_ideal_monomial_valuation():
    # one affine(0) step: v(x) = 1, v(y) = 2, target (y, x^2)
    v = divisor(QdtStep.affine(QQ.zero()))
    zeta = simple_ideal(v)
    assert sorted(g.render() for g in zeta.gens) == ["x^2", "y"]


def test_simple_ideal_over_q_with_common_transform_factors():
    # in its base-point trees, pairs of transformed generators share
    # non-monomial factors over Q; a transform divides by u^(ord J) alone and
    # takes no gcd (this ran for more than 30 s when every transform took a
    # pairwise gcd without the monomial split and the coprimality certificate)
    c = QQ.from_int(2)
    v = divisor(
        QdtStep.infinity(), QdtStep.affine(c), QdtStep.affine(c), QdtStep.affine(c),
        QdtStep.infinity(), QdtStep.affine(QQ.zero()),
    )
    zeta = simple_ideal(v)
    records = dicritical_set(zeta)
    assert [(r.divisor, r.index) for r in records] == [(v, 1)]
    assert colength(zeta) == closure_colength(zeta) == 29


def test_simple_ideal_after_two_extension_levels_and_infinity():
    # [inf, aff(a1!), aff(a2!), inf] with a1^2 = -1 and a2^2 = 2 over Q(a1):
    # the truncated powers of _value_kernel still give the simple ideal
    first = QdtStep.affine_ext("a1", (QQ.one(), QQ.zero(), QQ.one()))
    K = first.extend_tower(QQ)
    second = QdtStep.affine_ext("a2", (K.from_int(-2), K.zero(), K.one()))
    v = divisor(QdtStep.infinity(), first, second, QdtStep.infinity())
    zeta = simple_ideal(v)
    assert colength(zeta) == closure_colength(zeta) == 100


@pytest.mark.parametrize("steps", [16, 200])
def test_simple_ideal_degree_budget(steps):
    # the degree bound D is 2584 at 16 steps of [inf, aff(0)], about 7*10^41 at 200
    v = divisor(*[QdtStep.infinity(), QdtStep.affine(QQ.zero())] * (steps // 2))
    with pytest.raises(BudgetExceeded, match="MAX_FRAME_DEGREE"):
        simple_ideal(v)
