"""Monomial closed forms, against the paths they replaced.

idealcalc.closure_data of a monomial ideal is read off its Newton polygon
(Huneke-Swanson Prop. 1.4.6) and builds no tree, so closure_colength counts
the lattice points strictly below the polygon.  The tree reference is
echelon_reference.tree_closure_data, the tree record any other ideal gets.
On seeded monomial ideals over Q, F_5 and F_7(a), with redundant
generators (inside the ideal of the others) and interior ones (above the
polygon), the count must equal the tree's Hoskin-Deligne sum and the
echelon reference ref_closure_colength (tests/test_closure_differential.py);
the unit ideal answers 0; a monomial ideal that is not M-primary must raise
the tree path's NotMPrimary message.  The polygon's corners must be the
minimal exponents that lie strictly below the segment between any two
others around them, collinear ones dropped.

closure_membership and closure_equals of a monomial ideal J read the
polygon too: f lies in the closure when each term lies on or above it, and
K equals the closure when K lies in it, the principal parts agree and K's
residual has the residual polygon's count as colength.  On the same seeded
ideals, M-primary or not, both must answer as the tree path does:
ClosureData.contains, and closure_equals over the tree record, for probes and
for K the closure itself, J, J less a generator, J with a polynomial of
the closure added, J times a unit and the closure of another ideal.

simple_ideal reads I_V off the staircase on a path of only infinity and
affine-0 steps.  On every such path of depth <= 10 over Q, and of depth
<= 6 over F_7, its generators must be those of _value_kernel plus the span
trim, term for term and in the same order.

Count pins, as tests/test_frame_differential.py's
test_known_answers_build_no_buchberger pins frames: a monomial
closure_colength, closure_membership or closure_equals, and is_reduction with
a monomial J, build no base_point_tree, so (x^100, y) is answered past the
tree's depth budget; colength(simple_ideal(V)) builds
exactly one TruncationFrame, the certificate's, and takes no content();
later colength and membership calls on the same ideal build nothing; a
monomial path runs no _value_kernel.
"""

import itertools
import random

import pytest

import test_closure_differential as cd
import test_trim_differential as trim
from echelon_reference import tree_closure_data
from dicritical import divisors, idealcalc as ic
from dicritical.arith import QQ, BiPoly, bipoly_gcd
from dicritical.errors import NotMPrimary
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep
from dicritical.zariski import strip_principal

V = ("x", "y")
FIELDS = [(QQ, 2800), (cd.F5, 2805), (cd.F7A, 2807)]
IDS = ["Q", "F5", "F7(a)"]


def _monomial_ideal(tower, rng, exps):
    """Monomials of exps in a seeded order, with seeded nonzero coefficients."""
    exps = sorted(exps, key=lambda e: rng.random())
    return LocalIdeal(tower, V, [BiPoly.monomial(tower, V, e, tower.from_int(rng.choice((1, 2, 3, -1))))
                                 for e in exps])


def _primary_exponents(rng):
    """Corners on both axes plus points inside, on and above the polygon."""
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    exps = {(a, 0), (0, b)}
    for _ in range(rng.randint(0, 5)):
        exps.add((rng.randint(0, a + 2), rng.randint(0, b + 2)))
    exps.discard((0, 0))
    return exps


def _tree_closure_colength(ideal):
    """The path the Newton count replaced: Hoskin-Deligne over the tree."""
    data = tree_closure_data(ideal)
    ic._require_mprimary(data.principal)
    return data.colength()


def _outcome(fn, ideal):
    try:
        return fn(ideal)
    except NotMPrimary as exc:
        return str(exc)


@pytest.mark.parametrize("tower,seed", FIELDS, ids=IDS)
def test_newton_count_matches_the_tree(tower, seed):
    rng = random.Random(seed)
    cases = [_primary_exponents(rng) for _ in range(40)]
    # collinear and redundant generators; the unit ideal
    cases += [{(4, 0), (2, 1), (0, 2)}, {(6, 0), (3, 1), (0, 2), (3, 3)}, {(0, 0), (2, 5)}]
    # not M-primary: a primary set shifted off an axis
    for _ in range(8):
        s, t = rng.choice([(1, 0), (0, 1), (1, 2), (3, 0)])
        cases.append({(i + s, j + t) for i, j in _primary_exponents(rng)})
    refused = 0
    for exps in cases:
        ideal = _monomial_ideal(tower, rng, exps)
        got = _outcome(ic.closure_colength, ideal)
        assert got == _outcome(_tree_closure_colength, ideal), sorted(exps)
        if isinstance(got, str):
            refused += 1
            assert "not M-primary" in got
        else:
            assert got == cd.ref_closure_colength(ideal), sorted(exps)
    assert refused == 8


def _tree_closure_equals(j, k):
    """The path the polygon replaced for monomial J: J's closure data, its
    principal part and the Hoskin-Deligne sum of its tree."""
    data = tree_closure_data(j)
    if not all(map(data.contains, k.gens)):
        return False
    pj = data.tree.principal
    pk, residual = strip_principal(k)
    common = bipoly_gcd(pj, pk)
    if not (pj.exact_div(common).is_unit_at_origin() and pk.exact_div(common).is_unit_at_origin()):
        return False
    return ic.colength(residual) == data.colength()


def _closure_cases(rng):
    """M-primary exponent sets, then ones shifted off an axis."""
    cases = [_primary_exponents(rng) for _ in range(12)]
    cases += [{(4, 0), (2, 1), (0, 2)}, {(0, 0), (2, 5)}]
    for _ in range(6):
        s, t = rng.choice([(1, 0), (0, 1), (1, 2), (3, 0)])
        cases.append({(i + s, j + t) for i, j in _primary_exponents(rng)})
    return cases


def _closure_monomials(exps):
    """The least monomial on or above the polygon of exps over each i from
    its first corner to its last: generators of the closure."""
    closure = ic.closure_data(LocalIdeal(QQ, V, [BiPoly.monomial(QQ, V, e) for e in exps]))
    (first, _), (last, _) = closure.corners[0], closure.corners[-1]
    return {(i, next(j for j in itertools.count()
                     if closure.contains(BiPoly.monomial(QQ, V, (i, j)))))
            for i in range(first, last + 1)}


def _polynomial(tower, rng, exps):
    return BiPoly(tower, V, {e: tower.from_int(rng.choice((1, 2, -1))) for e in exps})


@pytest.mark.parametrize("tower,seed", FIELDS, ids=IDS)
def test_newton_membership_matches_the_tree(tower, seed):
    rng = random.Random(seed + 30)
    counts = [0, 0]
    for exps in _closure_cases(rng):
        ideal = _monomial_ideal(tower, rng, exps)
        data = tree_closure_data(ideal)
        top = max(i + j for i, j in exps) + 2
        probes = [BiPoly.zero(tower, V)]
        for _ in range(25):
            terms = {(rng.randint(0, top), rng.randint(0, top)) for _ in range(rng.randint(1, 3))}
            probes.append(_polynomial(tower, rng, terms))
        for f in probes:
            got = ic.closure_membership(f, ideal)
            assert got == data.contains(f), (sorted(exps), f)
            counts[got] += 1
    assert min(counts) > 50, counts


@pytest.mark.parametrize("tower,seed", FIELDS, ids=IDS)
def test_newton_equality_matches_the_tree(tower, seed):
    rng = random.Random(seed + 40)
    cases = _closure_cases(rng)
    unit = BiPoly.one(tower, V) + BiPoly.variable(tower, V, "x")
    answers = []
    for n, exps in enumerate(cases):
        j = _monomial_ideal(tower, rng, exps)
        closure = _closure_monomials(exps)
        inside = _polynomial(tower, rng, rng.sample(sorted(closure), min(2, len(closure))))
        others = [
            _monomial_ideal(tower, rng, closure),
            j,
            LocalIdeal(tower, V, [inside] + [BiPoly.monomial(tower, V, e) for e in closure]),
            LocalIdeal(tower, V, [g * unit for g in j.gens]),
            _monomial_ideal(tower, rng, _closure_monomials(cases[(n + 1) % len(cases)])),
        ]
        if len(j.gens) > 1:
            others.append(LocalIdeal(tower, V, j.gens[1:]))
        for k in others:
            got = ic.closure_equals(j, k)
            assert got == _tree_closure_equals(j, k), (sorted(exps), k)
            answers.append(got)
    assert answers.count(True) > 20 and answers.count(False) > 20


def _ref_corners(exps):
    """Minimal exponents strictly below the segment of every pair around them."""
    def below(p, q, r):
        return (p[1] - q[1]) * (r[0] - q[0]) < (r[1] - q[1]) * (p[0] - q[0])

    return [p for p in exps
            if all(below(p, q, r) for q in exps for r in exps if q[0] < p[0] < r[0])]


def test_newton_polygon_keeps_only_corners():
    rng = random.Random(2810)
    for exps in [_primary_exponents(rng) for _ in range(200)]:
        minimal = ic._minimal_exponents(ic._exponents(_monomial_ideal(QQ, rng, exps).gens))
        assert ic._newton_polygon(minimal) == _ref_corners(minimal), minimal
    # points on a segment between corners are no corners
    assert ic._newton_polygon([(0, 2), (2, 1), (4, 0)]) == [(0, 2), (4, 0)]
    assert ic._newton_polygon([(0, 3), (3, 2), (6, 1), (9, 0)]) == [(0, 3), (9, 0)]
    assert ic._newton_polygon([(0, 0)]) == [(0, 0)]


def _monomial_paths(max_depth):
    for depth in range(max_depth + 1):
        for kinds in itertools.product("i0", repeat=depth):
            yield kinds


def _path(tower, kinds):
    return QdtPath(tower, V, [QdtStep.infinity() if k == "i" else QdtStep.affine(tower.zero())
                              for k in kinds])


def _kernel_generators(v):
    """The generators simple_ideal took before the staircase: the kernel of
    the value floor plus the monomials of degree D, trimmed by one sweep."""
    r = v.intermediate_multiplicities()
    c = sum(a * b for a, b in zip(v.point_basis(), r))
    D = -(-c // r[0])
    tower, vars = v.path.tower, v.path.vars
    kernel = divisors._value_kernel(v, c, D)
    gens = [BiPoly(tower, vars, vec) for vec in kernel]
    gens += [BiPoly.monomial(tower, vars, (i, D - i)) for i in range(D + 1)]
    return ic._span_generators(tower, vars, gens, D, basis=kernel).gens


@pytest.mark.parametrize("name,tower,depth", [("Q", QQ, 10), ("F7", trim.F7, 6)], ids=["Q", "F7"])
def test_staircase_matches_the_kernel(name, tower, depth):
    paths = 0
    for kinds in _monomial_paths(depth):
        v = divisors.PrimeDivisor(_path(tower, kinds))
        assert trim._typed(divisors.simple_ideal(v).gens) == trim._typed(_kernel_generators(v)), kinds
        paths += 1
    assert paths == 2 ** (depth + 1) - 1


def test_monomial_closures_build_no_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("base_point_tree called")

    monkeypatch.setattr(ic, "base_point_tree", refuse)
    rng = random.Random(2820)
    for tower, _ in FIELDS:
        ideal = _monomial_ideal(tower, rng, [(7, 0), (4, 2), (1, 5), (0, 9), (5, 5)])
        # corners (0, 9), (1, 5), (4, 2), (7, 0); heights 9, 5, 4, 3, 2, 2, 1
        assert ic.closure_colength(ideal) == 26
        assert ic.closure_colength(_monomial_ideal(tower, rng, [(0, 0), (1, 1)])) == 0
        with pytest.raises(NotMPrimary):
            ic.closure_colength(_monomial_ideal(tower, rng, [(3, 1), (0, 2)]))
        # past the tree's default depth 64: the chain of (x^100, y) has 100 points
        deep = _monomial_ideal(tower, rng, [(100, 0), (0, 1)])
        x = BiPoly.variable(tower, V, "x")
        assert not ic.closure_membership(x, deep) and ic.closure_membership(x.pow(100), deep)
        assert ic.closure_equals(deep, deep)
        assert ic.closure_equals(ideal, _monomial_ideal(tower, rng, _closure_monomials(
            [(7, 0), (4, 2), (1, 5), (0, 9)])))
        # J = (x^2, y^2) has witness 1 against I = M^2: J.I = M^4 = I^2
        pair, square = (_monomial_ideal(tower, rng, exps)
                        for exps in ([(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)]))
        for j, i, witness in ((deep, deep, 0), (pair, square, 1)):
            assert ic.is_reduction(j, i) == ic.ReductionResult(True, witness, True, True)


def _counted_frames(monkeypatch):
    frames = []

    class Frame(ic.TruncationFrame):
        def __init__(self, *args, **kwargs):
            frames.append(args[:2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ic, "TruncationFrame", Frame)
    return frames


def test_simple_ideal_keeps_its_certificate_frame(monkeypatch):
    frames = _counted_frames(monkeypatch)

    def refuse(self):
        raise AssertionError("content() called")

    monkeypatch.setattr(LocalIdeal, "content", refuse)
    for steps in ([QdtStep.infinity(), QdtStep.affine(QQ.one()), QdtStep.affine(QQ.from_int(-1))],
                  [QdtStep.infinity(), QdtStep.affine(QQ.zero())] * 3):
        frames.clear()
        v = divisors.PrimeDivisor(QdtPath(QQ, V, steps))
        zeta = divisors.simple_ideal(v)
        length = ic.colength(zeta)
        assert len(frames) == 1 and frames[0][0] is zeta
        assert length == sum(r * (r + 1) // 2 for r in v.point_basis())
        assert ic.stabilized_frame(zeta) is ic.stabilized_frame(zeta)
        assert ic.membership(zeta.gens[-1], zeta) and ic.colength(zeta) == length
        assert len(frames) == 1


def test_a_stabilized_frame_is_built_once(monkeypatch):
    frames = _counted_frames(monkeypatch)
    x, y = (BiPoly.variable(QQ, V, v) for v in V)
    ideal = LocalIdeal(QQ, V, [x.pow(3).add(y.pow(2)), x.mul(y).pow(2)])
    length = ic.colength(ideal)
    assert ic.colength(ideal) == length and ic.membership(x.pow(6), ideal)
    assert [bound for _, bound in frames] == [ic.MAX_FRAME_DEGREE + 1]
    # an equal ideal is another object: it builds its own frame
    assert ic.colength(LocalIdeal(QQ, V, ideal.gens)) == length
    assert len(frames) == 2


def test_monomial_paths_run_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("_value_kernel called")

    monkeypatch.setattr(divisors, "_value_kernel", refuse)
    for kinds in ("", "i", "0", "i0i", "0ii", "i0" * 7):
        v = divisors.PrimeDivisor(_path(QQ, kinds))
        zeta = divisors.simple_ideal(v)
        assert all(g.is_monomial() for g in zeta.gens)
        assert ic.colength(zeta) == sum(r * (r + 1) // 2 for r in v.point_basis())
