"""The simple-ideal certificate and the floored values it reads, against the
checks they replaced.

simple_ideal certifies its answer I = I_V without a tree: every generator
has floored value c, so I lies in I_V, and one frame of I at bound D + 1
shows a full layer and the Hoskin-Deligne colength of I_V.  It used to
factor its own output instead (zariski_factorization).  That round trip
rebuilds the path from the ideal, so it stays here as the independent
check: on every path tests/test_trim_differential.py draws (the
benchmark's path shapes, seeded random paths of depth up to 6 over Q and
F_7, paths through one and two extension levels, and the 8-step Q path),
the factorization of the simple ideal must be its own divisor, once.

The certificate must refuse a wrong ideal that the round trip let through:
one generator dropped, a kernel at the floor c + 1 or c - 1, and one
coefficient changed, on the path [aff(1) aff(0) inf aff(0) aff(-1)].

nearpoints._floored_order(path, f, floor), the engine's one valuation
floor, must return min(pullback_order(path, f), floor) for seeded f over
every node tower of the benchmark's path shapes, seeded random paths and
the extension paths over Q and F_7, with floors below, at and above the
value.

The floor is node-weighted: at node k a term u^i·w^j has value
i·v(u_k) + j·v(w_k), the terms at or above the floor are dropped, and a
single term left is read at its value, with no step.  So monomials are
checked with values below, at and above the floor, polynomials with terms
on both sides of the weighted line, and paths through extension steps and
through aff(c), c != 0, where v(w) = v(u) at the node.  The same route
takes no step for a monomial: neither the closure test of I_m's
generators against the Abhyankar pencil nor the certificate of a
staircase simple ideal pulls one back.
"""

import random

import pytest

import test_closure_differential as cd
import test_properties as props
import test_transform_differential as td
import test_trim_differential as trim
import test_value_differential as vd
from dicritical import divisors, nearpoints
from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly
from dicritical.errors import InternalInconsistency, ZeroPolynomial
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep, _floored_order, pullback_order
from dicritical.zariski import zariski_factorization

V = props.V


def _path(tower, consts):
    """A path over tower: None is the point at infinity, an int the affine point."""
    return QdtPath(tower, V, [QdtStep.infinity() if c is None else QdtStep.affine(tower.from_int(c))
                              for c in consts])


EIGHT_STEPS = _path(QQ, (1, 0, None, 0, -1, 2, None, 1))
FIVE_STEPS = _path(QQ, (1, 0, None, 0, -1))


def _unnamed(path):
    """A path's root, steps, minimal polynomials and coordinates, without the
    names of its extension generators, which the round trip chooses anew."""
    steps = tuple(s._replace(ext_name=None) if s.extends else s for s in path.steps)
    return path.tower, path.vars, steps


def _round_trip(v):
    fact = zariski_factorization(divisors.simple_ideal(v))
    assert fact.principal.is_constant(), v
    assert [(_unnamed(w.path), e) for w, e in fact.exponents] == [(_unnamed(v.path), 1)], v


@pytest.mark.parametrize("name,tower", trim.FIELDS, ids=[n for n, _ in trim.FIELDS])
def test_round_trip_on_bench_shapes(name, tower):
    rng = random.Random("trim/shapes/%s" % name)
    for shape in td.SHAPES:
        _round_trip(td._bench_divisor(shape, tower, rng))


@pytest.mark.parametrize("name,tower", trim.FIELDS, ids=[n for n, _ in trim.FIELDS])
def test_round_trip_on_random_paths(name, tower):
    rng = random.Random("trim/paths/%s" % name)
    for _ in range(trim.RANDOM_PATHS):
        _round_trip(divisors.PrimeDivisor(props.random_path(rng, tower, 6)))


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_round_trip_on_extension_paths(name, tower, second):
    for v in cd._extension_paths(tower, second):
        _round_trip(v)


def test_round_trip_on_the_eight_step_path():
    _round_trip(divisors.PrimeDivisor(EIGHT_STEPS))


def _dropped(trimmed):
    return LocalIdeal(trimmed.tower, trimmed.vars, trimmed.gens[:-1])


def _one_coefficient_changed(trimmed):
    """The first generator with more than one term, its lowest term doubled."""
    T, gens = trimmed.tower, list(trimmed.gens)
    k = next(k for k, g in enumerate(gens) if not g.is_monomial())
    terms = dict(gens[k].terms)
    e = min(terms, key=lambda e: (sum(e), e))
    terms[e] = T.add(terms[e], terms[e])
    gens[k] = BiPoly(T, trimmed.vars, terms)
    return LocalIdeal(T, trimmed.vars, gens)


@pytest.mark.parametrize("change", [_dropped, _one_coefficient_changed],
                         ids=["dropped", "coefficient"])
def test_wrong_generators_are_refused(monkeypatch, change):
    span = ic._span_generators
    monkeypatch.setattr(ic, "_span_generators", lambda *a, **k: change(span(*a, **k)))
    with pytest.raises(InternalInconsistency):
        divisors.simple_ideal(divisors.PrimeDivisor(FIVE_STEPS))


@pytest.mark.parametrize("shift", [1, -1], ids=["above", "below"])
def test_wrong_floor_is_refused(monkeypatch, shift):
    kernel = divisors._value_kernel
    monkeypatch.setattr(divisors, "_value_kernel",
                        lambda v, floor, bound: kernel(v, floor + shift, bound))
    with pytest.raises(InternalInconsistency):
        divisors.simple_ideal(divisors.PrimeDivisor(FIVE_STEPS))


def _check_floors(path, f):
    v = pullback_order(path, f)
    for floor in sorted({0, 1, v // 2, v - 1, v, v + 1, 2 * v + 3}):
        assert _floored_order(path, f, floor) == min(v, floor), (path, f, floor)
    return v


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_floored_orders_match_full_values(name, tower, second):
    rng = random.Random("floored/%s" % name)
    paths = [td._bench_divisor(shape, tower, rng).path for shape in td.SHAPES]
    paths += [props.random_path(rng, tower, 6) for _ in range(40)]
    paths += [w.path for w in cd._extension_paths(tower, second)]
    values = set()
    for path in paths:
        for node_tower in dict.fromkeys([path.tower, path.node_tower(path.length // 2),
                                         path.terminal_tower]):
            for _ in range(3):
                f = vd._random_over(rng, node_tower)
                if not f.is_zero():
                    values.add(_check_floors(path, f))
    assert max(values) >= 10 and 0 in values
    with pytest.raises(ZeroPolynomial):
        _floored_order(FIVE_STEPS, BiPoly.zero(QQ, V), 3)


# paths through aff(c), c != 0, where v(w) = v(u) at the node; the inf
# steps after them make that common value exceed 1
NONZERO_AFFINE = [(1, 2, -1), (None, 2, None), (2, None, 1, None), (None, 1, 0, None, -2)]


def _weighted_paths(tower, second, rng):
    paths = [td._bench_divisor(shape, tower, rng).path for shape in td.SHAPES]
    paths += [props.random_path(rng, tower, 6) for _ in range(20)]
    paths += [w.path for w in cd._extension_paths(tower, second)]
    return paths + [_path(tower, consts) for consts in NONZERO_AFFINE]


def _weights(path):
    """The values of the root coordinates, from their pullbacks."""
    return tuple(pullback_order(path, BiPoly.variable(path.tower, V, v)) for v in V)


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_monomials_read_their_weighted_value(name, tower, second):
    rng = random.Random("weighted monomials/%s" % name)
    heavy = 0
    for path in _weighted_paths(tower, second, rng):
        a, b = _weights(path)
        heavy += (a, b) != (1, 1)
        for i in range(4):
            for j in range(4):
                f = BiPoly.monomial(tower, V, (i, j), tower.from_int(rng.randint(1, 5)))
                v = pullback_order(path, f)
                assert v == i * a + j * b, (path, i, j)
                for floor in (max(v - 1, 0), v, v + 1):
                    assert _floored_order(path, f, floor) == min(v, floor), (path, f, floor)
    assert heavy >= 20


@pytest.mark.parametrize(
    "name,tower,second", cd.EXTENSION_FIELDS, ids=[n for n, _, _ in cd.EXTENSION_FIELDS]
)
def test_terms_on_both_sides_of_the_weighted_line(name, tower, second):
    """f has terms below the line i·v(x) + j·v(y) = floor and on or above
    it.  Random f mostly keep the value of their least term; a simple-ideal
    generator times a random f reaches the floor by cancellation."""
    rng = random.Random("weighted line/%s" % name)
    reached = missed = 0
    for path in _weighted_paths(tower, second, rng):
        a, b = _weights(path)
        polys = [vd._random_over(rng, rng.choice([path.tower, path.terminal_tower]))
                 for _ in range(3)]
        gens = divisors.simple_ideal(divisors.PrimeDivisor(path)).gens
        polys += [g * props.random_poly(rng, tower, 2) for g in gens[:2]]
        for f in polys:
            values = sorted({i * a + j * b for i, j in f.terms})
            if len(values) < 2:
                continue
            v = pullback_order(path, f)
            floor = rng.choice([c for c in values[1:] if c <= v] or values[1:])
            assert _floored_order(path, f, floor) == min(v, floor), (path, f, floor)
            reached += v >= floor
            missed += v < floor
    assert reached >= 20 and missed >= 20


def _monomial_steps(monkeypatch):
    """The monomials that nearpoints._step_image is asked to carry."""
    stepped, real = [], nearpoints._step_image

    def counted(f, *args):
        if f.is_monomial():
            stepped.append(f)
        return real(f, *args)

    monkeypatch.setattr(nearpoints, "_step_image", counted)
    return stepped


def test_pencil_closure_reads_monomials_with_no_step(monkeypatch):
    """I_m's generators, and each divided by x, against the closure of
    (F_m, G_m): the answers of the full pullbacks, and no monomial stepped."""
    cases = []
    for m in range(3, 9):
        f, g, I = ic.abhyankar_family(m)
        J = LocalIdeal(QQ, V, [f, g])
        floors = ic.closure_data(J).floors
        probes = list(I.gens) + [h.mul_monomial((-1, 0)) for h in I.gens if min(h.terms)[0]]
        expected = [all(pullback_order(v.path, h) >= c for v, c in floors) for h in probes]
        cases.append((J, probes, expected))
    stepped = _monomial_steps(monkeypatch)
    for J, probes, expected in cases:
        assert [ic.closure_membership(h, J) for h in probes] == expected
    assert stepped == []
    assert {e for _, _, expected in cases for e in expected} == {False, True}


def test_staircase_certificate_takes_no_step(monkeypatch):
    stepped = _monomial_steps(monkeypatch)
    for consts in [(0,) * 5, (None, None, 0), (0, None, 0, 0, None), (None, 0, None, 0, None, 0)]:
        ideal = divisors.simple_ideal(divisors.PrimeDivisor(_path(QQ, consts)))
        assert all(g.is_monomial() for g in ideal.gens), consts
    assert stepped == []
