"""The degree-graded truncation frame against the rules it replaced.

The first reference keeps the earlier frame: rows keyed by exponent pairs
(lex pivots), a bound accepted once the frames at N and N + 1 have equal
colength, doubled otherwise, and a minimal generating set read modulo
M^(N + 1).  Colength, membership, the reduction witness and minimal
generators must agree with the engine on the seeded property-suite ideals
and on the Abhyankar family over Q and F_5.

The second reference inserts every shift g * x^a * y^b of every generator
that leaves a term below the bound.  A frame built by closure must have
exactly its pivots, over Q, F_5 and F_7(a), at bounds below, at and above
the frame's full degree.
"""

import random

import pytest

import test_properties as props
import test_transform_differential as td
from dicritical import idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower, SparseEchelon
from dicritical.nearpoints import LocalIdeal

V = ("x", "y")
F5 = FieldTower.prime_field(5)
FIELDS = [(QQ, 0), (F5, 5)]
F7A = FieldTower.prime_field(7).extended("a", (1, 0, 1))  # a^2 = -1


def _lex_row(g, bound):
    return {e: c for e, c in g.terms.items() if e[0] + e[1] < bound}


class LexFrame:
    def __init__(self, ideal, bound, skip_unit=False):
        self.bound = bound
        self.ech = SparseEchelon(ideal.tower)
        for g in ideal.gens:
            base = g.ord_at_origin()
            top = max(bound - base, 0)
            for j in range(top):
                for i in range(top - j):
                    if skip_unit and i + j == 0:
                        continue
                    row = _lex_row(g.mul_monomial((i, j)), bound)
                    if row:
                        self.ech.insert(row)

    def colength(self):
        return self.bound * (self.bound + 1) // 2 - self.ech.rank

    def contains(self, f):
        return f.is_zero() or self.ech.contains(_lex_row(f, self.bound))


def ref_frame(ideal):
    if ideal.is_unit():
        return LexFrame(ideal, 1)
    bound = max(g.total_degree for g in ideal.gens) + max(
        g.ord_at_origin() for g in ideal.gens
    )
    bound = max(bound, 2)
    while bound <= 1024:
        frame = LexFrame(ideal, bound)
        if frame.colength() == LexFrame(ideal, bound + 1).colength():
            return frame
        bound *= 2
    raise AssertionError("reference frame did not stabilize")


def ref_minimal_generators(ideal):
    # M-primary, non-monomial input: no principal part to strip
    tower = ideal.tower
    gens = ic._dedupe(tower, ideal.gens)
    bound = ref_frame(ideal).bound + 1
    ech = LexFrame(LocalIdeal(tower, V, gens), bound, skip_unit=True).ech
    return [
        g for g in sorted(gens, key=lambda g: ic._gen_key(tower, g))
        if ech.insert(_lex_row(g, bound))
    ]


def ref_witness(j, i, n_max):
    current = ic.power(i, 0)
    for n in range(n_max + 1):
        lifted = ic.product(i, current)
        frame = ref_frame(ic.product(j, current))
        if all(frame.contains(g) for g in lifted.gens):
            return n
        current = lifted
    return None


def _render(gens):
    return [g.render() for g in gens]


def _check_ideal(rng, tower, J):
    assert ic.colength(J) == ref_frame(J).colength()
    frame, ref = ic.stabilized_frame(J), ref_frame(J)
    f, g = J.gens[:2]
    x = BiPoly.variable(tower, V, "x")
    y = BiPoly.variable(tower, V, "y")
    probes = [props.random_poly(rng, tower, 5) for _ in range(4)]
    probes += [f.mul(x).add(g.mul(y)), f.add(x.pow(3)), g.mul(f).add(y.pow(4))]
    for p in probes:
        assert frame.contains(p) == ref.contains(p)
    padded = LocalIdeal(tower, V, [f, g, f.add(g), f.mul(x), g.mul(y).add(f)])
    assert _render(ic.minimal_generators(padded).gens) == _render(
        ref_minimal_generators(padded)
    )


@pytest.mark.parametrize("tower,char", FIELDS)
def test_graded_frame_matches_lex_frame(tower, char):
    rng = random.Random(200 + char)
    for k in range(props.PER_FIELD):
        J = props.random_primary(rng, tower)
        _check_ideal(rng, tower, J)
        if k % 5 == 0:
            f, g = J.gens
            I = ic.power(J, 2)
            K = LocalIdeal(tower, V, [f.pow(2), g.pow(2)])
            assert ic.is_reduction(K, I).witness == ref_witness(K, I, ic.colength(I))
        if k % 10 == 0:
            # J.(x, y^2) is no reduction of J.(x, y): neither chase may find a witness
            x, y = (BiPoly.variable(tower, V, v) for v in V)
            I = ic.product(J, LocalIdeal(tower, V, [x, y]))
            K = ic.product(J, LocalIdeal(tower, V, [x, y.pow(2)]))
            assert ic.is_reduction(K, I, n_max=1).witness is None
            assert ref_witness(K, I, 1) is None


@pytest.mark.parametrize("tower,char", FIELDS)
def test_graded_frame_on_abhyankar_family(tower, char):
    rng = random.Random(800 + char)
    for m in range(2, 6):
        f, g, I = ic.abhyankar_family(m, tower)
        J = LocalIdeal(tower, V, [f, g])
        for ideal in (I, J):
            assert ic.colength(ideal) == ref_frame(ideal).colength()
        _check_ideal(rng, tower, J)
        r = ic.is_reduction(J, I)
        assert r.witness == ref_witness(J, I, ic.colength(I))


def shifted_pivots(ideal, bound):
    """Pivots of the frame that inserts every shift of every generator."""
    ech = SparseEchelon(ideal.tower)
    for g in ideal.gens:
        top = max(bound - g.ord_at_origin(), 0)
        for j in range(top):
            for i in range(top - j):
                row = ic._truncated_row(g.mul_monomial((i, j)), bound)
                if row:
                    ech.insert(row)
    return set(ech.rows)


def _twisted(J, tower):
    """J over F_7(a) under the automorphism x -> x, y -> a*y + x of R."""
    x = BiPoly.variable(tower, V, "x")
    y = BiPoly.variable(tower, V, "y").scale(tower.generator()).add(x)
    gens = [td.substitute(g.lift_to(tower), x, y) for g in J.gens]
    return LocalIdeal(tower, V, gens)


@pytest.mark.parametrize(
    "tower,ground,seed",
    [(QQ, QQ, 1300), (F5, F5, 1305), (F7A, FieldTower.prime_field(7), 1307)],
    ids=["Q", "F5", "F7(a)"],
)
def test_closure_frame_matches_shifted_rows(tower, ground, seed):
    rng = random.Random(seed)
    for k in range(props.PER_FIELD // 2):
        J = props.random_primary(rng, ground)
        if tower is not ground:
            J = _twisted(J, tower)
        if k % 3 == 0:
            f, g = J.gens
            x = BiPoly.variable(tower, V, "x")
            J = LocalIdeal(tower, V, [f, g, f.mul(x).add(g), g.pow(2)])
        d = ic.stabilized_frame(J).full_degree()
        for bound in {1, max(d - 1, 1), d, d + 1, d + 3}:
            frame = ic.TruncationFrame(J, bound)
            assert set(frame.ech.rows) == shifted_pivots(J, bound)
