"""Closures read off the base-point tree, against the linear algebra they replaced.

closure_colength is the Hoskin-Deligne sum over the base points P of the
tree, [k_P : k] * o_P (o_P + 1) / 2; closure_equals builds J's tree only
and compares K's colength with that sum; intermediate_multiplicities and
point_basis come from one backward walk of the coordinate values.  Four
references keep the earlier computations:

  * _echelon_colength turns the value floors of the closure into linear
    conditions on the monomials below a degree bound and counts the rank;
  * _two_tree_equals builds the trees of J and K, compares principal parts
    and factorizations, and certifies K's residual complete by the echelon;
  * _suffix_multiplicities pulls node i's coordinates back along the
    suffix of the path from node i and takes the least order;
  * _proximity_point_basis runs the downward recursion over the proximity
    relations of the path, weighted by residue degrees.

They must agree with the engine on the property-suite ideals over Q, F_5
and F_7(a), also times the principal parts x - 1 and x * (x - 1), on the
Abhyankar family, and on the benchmark's simple ideals and on extension
paths over Q and F_7.
"""

import random

import pytest

import test_properties as props
import test_transform_differential as td
from echelon_reference import SparseEchelon, _monomials_below, _valuation_rows
from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower, UniPoly, bipoly_gcd
from dicritical.arith.factor import is_irreducible
from dicritical.divisors import PrimeDivisor, simple_ideal
from dicritical.errors import NotMPrimary
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep, pullback_order
from dicritical.zariski import strip_principal, zariski_factorization

V = props.V
F5 = FieldTower.prime_field(5)
F7 = FieldTower.prime_field(7)
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1; -1 is not a square mod 7
PER_FIELD = 30


# ---------------------------------------------------------------- references


def value_of_ideal(v, ideal):
    """v(I): the least value of a generator."""
    return min(v.value(g) for g in ideal.gens)


def suffix(path, i):
    """The tail of the path, rooted at node i."""
    return QdtPath(path.node_tower(i), path.vars, path.steps[i:])


def _member(f, principal, floors):
    if f.is_zero():
        return True
    if not principal.is_constant():
        common = bipoly_gcd(f, principal)
        if not principal.exact_div(common).is_unit_at_origin():
            return False
    return all(v.value(f) >= c for v, c in floors)


def _floors(ideal):
    fact = zariski_factorization(ideal)
    return fact, tuple((v, value_of_ideal(v, ideal)) for v, _ in fact.exponents)


def _echelon_colength(principal, floors, tower):
    if not principal.is_unit_at_origin():
        raise NotMPrimary("not M-primary")
    if not floors:
        return 0
    bound = max(-(-c // min(v.coordinate_values())) for v, c in floors)
    columns = _monomials_below(bound)
    ech = SparseEchelon(tower)
    for v, c in floors:
        for row in _valuation_rows(v, c, columns):
            ech.insert(row)
    return len(ech.rows)


def ref_closure_colength(ideal):
    fact, floors = _floors(ideal)
    return _echelon_colength(fact.principal, floors, ideal.tower)


def _same_up_to_unit(p, q):
    common = bipoly_gcd(p, q)
    return p.exact_div(common).is_unit_at_origin() and q.exact_div(common).is_unit_at_origin()


def _two_tree_equals(j, k):
    fact_k, floors_k = _floors(k)
    if j is not k:
        fact_j, floors_j = _floors(j)
        if not all(_member(g, fact_j.principal, floors_j) for g in k.gens):
            return False
        if not _same_up_to_unit(fact_j.principal, fact_k.principal):
            return False
        exps_j = {v.path: n for v, n in fact_j.exponents}
        exps_k = {v.path: n for v, n in fact_k.exponents}
        if exps_j != exps_k:
            return False
    principal, residual = strip_principal(k)
    if not principal.is_constant():
        floors_k = tuple((v, c - v.value(principal)) for v, c in floors_k)
    unit = BiPoly.one(k.tower, k.vars)
    return ic.colength(residual) == _echelon_colength(unit, floors_k, k.tower)


def _suffix_multiplicities(v):
    out = []
    for i in range(v.path.length + 1):
        tail = suffix(v.path, i)
        u = BiPoly.variable(tail.tower, V, V[0])
        w = BiPoly.variable(tail.tower, V, V[1])
        out.append(min(pullback_order(tail, u), pullback_order(tail, w)))
    return tuple(out)


def _proximity_sets(path):
    """prox[t] = indices of the nodes that node t is proximate to.

    Tracks which exceptional curves pass through the current node as chart
    axes: blowing up leaves the new exceptional on the x axis of an affine
    chart and on the y axis of the infinity chart, while an older axis
    survives only when the step stays on it (x axis through the infinity
    chart, y axis through the affine chart at 0).
    """
    prox = {}
    axes = {}
    for t, step in enumerate(path.steps, start=1):
        carried = {}
        if step.kind == "affine":
            carried["x"] = t - 1
            if "y" in axes and step.c is not None:
                if path.node_tower(t - 1).is_zero(step.c):
                    carried["y"] = axes["y"]
        else:
            carried["y"] = t - 1
            if "x" in axes:
                carried["x"] = axes["x"]
        prox[t] = {t - 1} | set(carried.values())
        axes = carried
    return prox


def _proximity_point_basis(v):
    """m_L = 1 and m_i = sum of [k_j : k_i] * m_j over the nodes j proximate to i."""
    path = v.path
    length = path.length
    prox = _proximity_sets(path)
    deg = [path.node_tower(i).degree() for i in range(length + 1)]
    m = [0] * (length + 1)
    m[length] = 1
    for i in range(length - 1, -1, -1):
        m[i] = sum(
            (deg[j] // deg[i]) * m[j] for j in range(i + 1, length + 1) if i in prox[j]
        )
    return tuple(m)


# ---------------------------------------------------------------- comparisons


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotMPrimary:
        return NotMPrimary


def _check_colength(ideal):
    got = _outcome(ic.closure_colength, ideal)
    assert got == _outcome(ref_closure_colength, ideal), ideal
    return got


def _check_equals(j, k):
    got = ic.closure_equals(j, k)
    assert got == _two_tree_equals(j, k), (j, k)
    return got


def _check_multiplicities(v):
    assert v.intermediate_multiplicities() == _suffix_multiplicities(v), v
    assert v.point_basis() == _proximity_point_basis(v), v


def _closure(ideal):
    """principal * prod simple_ideal(v)^e: the integral closure (Zariski)."""
    fact = zariski_factorization(ideal)
    tower = ideal.tower
    out = LocalIdeal(tower, V, [fact.principal])
    for v, e in fact.exponents:
        out = ic.minimal_generators(ic.product(out, ic.power(simple_ideal(v), e)))
    return out


def _scaled(ideal, p):
    return LocalIdeal(ideal.tower, V, [g.mul(p) for g in ideal.gens])


PROPERTY_FIELDS = [("Q", QQ, QQ), ("F5", F5, F5), ("F7(a)", F7A, F7)]


@pytest.mark.parametrize(
    "name,tower,ground", PROPERTY_FIELDS, ids=[n for n, _, _ in PROPERTY_FIELDS]
)
def test_property_ideals_match_references(name, tower, ground):
    rng = random.Random("closure/%s" % name)
    x = BiPoly.variable(tower, V, "x")
    one = BiPoly.one(tower, V)
    unit, nonunit = x - one, x * (x - one)
    verdicts = set()
    for k in range(PER_FIELD):
        J = props.random_primary(rng, ground)
        if tower is not ground:
            J = td._with_a(J, tower)
        C = _closure(J)
        assert _check_colength(J) == _check_colength(C) == ic.colength(C)
        for v, _ in zariski_factorization(J).exponents:
            _check_multiplicities(v)
        f, g = J.gens
        extra = LocalIdeal(tower, V, [f, g, f.mul(x).add(g.pow(2))])
        pairs = [(J, J), (J, C), (C, C), (C, J), (J, extra), (extra, C)]
        if k % 3 == 0:
            # principal parts are local: x - 1 is a unit, x is not
            Ju, Jn, Cn = _scaled(J, unit), _scaled(J, nonunit), _scaled(C, x)
            assert _check_colength(Ju) == _check_colength(J)
            assert _check_colength(Jn) is NotMPrimary
            pairs += [(Ju, C), (J, Ju), (Jn, Cn), (Cn, Jn), (Jn, _scaled(C, nonunit)), (Jn, C)]
        for j, K in pairs:
            verdicts.add(_check_equals(j, K))
        probe = props.random_poly(rng, ground, 5)
        probe = probe.lift_to(tower) if tower is not ground else probe
        fact, floors = _floors(J)
        assert ic.closure_membership(probe, J) == _member(probe, fact.principal, floors)
    assert verdicts == {True, False}


@pytest.mark.parametrize("tower", [QQ, F5], ids=["Q", "F5"])
def test_abhyankar_family_matches_references(tower):
    for m in range(2, 6):
        f, g, I = ic.abhyankar_family(m, tower)
        J = LocalIdeal(tower, V, [f, g])
        assert _check_colength(J) == _check_colength(I) == ic.colength(I)
        assert _check_equals(J, I) and _check_equals(I, I)
        assert not _check_equals(J, J) and not _check_equals(I, J)
        assert ic.is_reduction(J, I).decision
        for v, _ in zariski_factorization(I).exponents:
            _check_multiplicities(v)


def _extension_paths(tower, second):
    """Paths through one or two extension levels.

    The first level adjoins a root of t^2 + 1, the second a root of the
    given minimal polynomial over the first.
    """
    first = QdtStep.affine_ext("a1", (tower.one(), tower.zero(), tower.one()))
    K = first.extend_tower(tower)
    a = K.generator()
    assert is_irreducible(UniPoly(K, [K.lift_from(tower, c) for c in second]))
    second = QdtStep.affine_ext("a2", tuple(K.lift_from(tower, c) for c in second))
    zero, inf = QdtStep.affine(K.zero()), QdtStep.infinity()
    shapes = [
        [first],
        [first, zero],
        [first, inf],
        [inf, first, zero],
        [QdtStep.affine(tower.zero()), first, QdtStep.affine(a)],
        [first, QdtStep.affine(a), inf],
        [first, second],
        [first, zero, second],
        [inf, first, second],
    ]
    return [PrimeDivisor(QdtPath(tower, V, steps)) for steps in shapes]


# t^2 - 2 over Q(i); t^3 - 3 over F_49, where 3 is no cube
EXTENSION_FIELDS = [
    ("Q", QQ, (QQ.from_int(-2), QQ.zero(), QQ.one())),
    ("F7", F7, (F7.from_int(-3), F7.zero(), F7.zero(), F7.one())),
]


@pytest.mark.parametrize(
    "name,tower,second", EXTENSION_FIELDS, ids=[n for n, _, _ in EXTENSION_FIELDS]
)
def test_simple_ideals_match_references(name, tower, second):
    rng = random.Random("simple/%s" % name)
    divisors = [td._bench_divisor(shape, tower, rng) for shape in td.SHAPES]
    divisors += _extension_paths(tower, second)
    for v in divisors:
        _check_multiplicities(v)
        zeta = simple_ideal(v)
        assert _check_colength(zeta) == ic.colength(zeta)
        assert _check_equals(zeta, zeta)
    extended = [v for v in divisors if v.path.terminal_tower.degree() > 1]
    assert len(extended) == 9


@pytest.mark.parametrize(
    "name,tower,second", EXTENSION_FIELDS, ids=[n for n, _, _ in EXTENSION_FIELDS]
)
def test_multiplicities_on_random_paths(name, tower, second):
    rng = random.Random("paths/%s" % name)
    ext = _extension_paths(tower, second)
    for _ in range(150):
        v = PrimeDivisor(props.random_path(rng, tower, 4))
        _check_multiplicities(v)
        w = rng.choice(ext)
        tail = [QdtStep.infinity() if rng.random() < 0.4 else QdtStep.affine(
            w.path.terminal_tower.zero()) for _ in range(rng.randint(0, 2))]
        _check_multiplicities(PrimeDivisor(QdtPath(tower, V, w.path.steps + tuple(tail))))


def test_residue_degree_weights_the_colength():
    # one base point of order 2, then a point of degree 2 over Q of order 1
    x, y = BiPoly.variable(QQ, V, "x"), BiPoly.variable(QQ, V, "y")
    J = LocalIdeal(QQ, V, [x.pow(2) + y.pow(2), y.pow(3)])
    assert ic.closure_colength(J) == ref_closure_colength(J) == 5
    # (x^3, y^2): base points of orders 2, 1, 1
    J = LocalIdeal(QQ, V, [x.pow(3), y.pow(2)])
    assert ic.closure_colength(J) == ref_closure_colength(J) == 5
