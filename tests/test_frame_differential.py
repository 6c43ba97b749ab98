"""The truncation frame, a truncated standard basis, against the rules it replaced.

The first reference keeps an early frame: rows keyed by exponent pairs
(lex pivots), a bound accepted once the frames at N and N + 1 have equal
colength, doubled otherwise, and a minimal generating set read modulo
M^(N + 1).  Colength, membership, the reduction witness and minimal
generators must agree with the engine on the seeded property-suite ideals
and on the Abhyankar family over Q and F_5.

The second reference is the echelon frame the standard basis replaced: the
Macaulay matrix of the ideal modulo M^bound with degree-first columns (d, i),
one stored row per pivot, closed under x and y.  Colength, full degree,
membership, the set of leading monomials and minimal generators must agree
with the engine over Q, F_5, F_32003 and F_7(a), on the property-suite
ideals, the Abhyankar I, J and J.I for m <= 8 (m <= 5 over F_7(a)) and
ideals with coefficients up to 3^200 and 7^150, at bounds d - 1, d, d + 1
and 2d + 1 around the full degree d.

The third reference inserts every shift g * x^a * y^b of every generator
that leaves a term below the bound.  The leading monomials of a frame must
be exactly its pivots, over Q, F_5 and F_7(a), at bounds below, at and above
the frame's full degree.

The fourth reference runs the frame's own Buchberger loop on monomial
ideals, which the frame now reads off as their staircase.  Basis, cut,
colength, full degree and membership must agree on
seeded monomial ideals with coefficients other than one over Q, F_5 and
F_7(a), M-primary or not, at bounds below, at and above the full degree.

Each test draws its whole case list from its own seed before any probe, and
its probes from a second rng, so a probe added or dropped changes no case.
"""

import random
from heapq import heappop, heappush
from itertools import count

import pytest

import test_properties as props
import test_transform_differential as td
from echelon_reference import SparseEchelon
from dicritical import divisors, idealcalc as ic
from dicritical.arith import QQ, BiPoly, FieldTower
from dicritical.nearpoints import LocalIdeal, QdtPath, QdtStep

V = ("x", "y")
F5 = FieldTower.prime_field(5)
F7 = FieldTower.prime_field(7)
F32003 = FieldTower.prime_field(32003)
FIELDS = [(QQ, 0), (F5, 5)]
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1


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
        return self.bound * (self.bound + 1) // 2 - len(self.ech.rows)

    def contains(self, f):
        return f.is_zero() or not self.ech.reduce(_lex_row(f, self.bound))[0]


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
    cases = random.Random(200 + char)
    ideals = [props.random_primary(cases, tower) for _ in range(props.PER_FIELD)]
    rng = random.Random("probes %d" % (200 + char))
    for k, J in enumerate(ideals):
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


def _truncated_row(g, bound):
    # columns keyed degree-first, (i + j, i): a row's pivot is its lowest-degree term
    return {(i + j, i): c for (i, j), c in g.terms.items() if i + j < bound}


def _shifts(row, bound):
    """x * row and y * row, truncated below bound; none once row is past it."""
    x = {(d + 1, i + 1): c for (d, i), c in row.items() if d + 1 < bound}
    if not x:
        return ()
    return x, {(d + 1, i): c for (d, i), c in row.items() if d + 1 < bound}


def _close(ech, rows, bound):
    """Insert rows and the x- and y-shifts of every row that raises the rank,
    highest pivot first: the image in R / M^bound of the ideal the rows generate."""
    heap = []
    tick = count()

    def push(row):
        if row:
            d, i = min(row)
            heappush(heap, (-d, -i, next(tick), row))

    for row in rows:
        push(row)
    while heap:
        row = ech.insert(heappop(heap)[3])
        if row:
            for shifted in _shifts(row, bound):
                push(shifted)


class EchelonFrame:
    """The echelon frame: the pivots of degree < N span the image in R / M^N."""

    def __init__(self, ideal, bound):
        self.bound = bound
        self.ech = SparseEchelon(ideal.tower)
        _close(self.ech, [_truncated_row(g, bound) for g in ideal.gens], bound)

    def colength(self):
        return self.bound * (self.bound + 1) // 2 - len(self.ech.rows)

    def contains(self, f):
        return f.is_zero() or not self.ech.reduce(_truncated_row(f, self.bound))[0]

    def full_degree(self):
        layers = [0] * self.bound
        for d, _ in self.ech.rows:
            layers[d] += 1
        return next((d for d in range(self.bound) if layers[d] == d + 1), None)


def echelon_minimal_generators(ideal, frame_degree):
    """minimal_generators on the echelon of M.I modulo M^(frame_degree + 1)."""
    tower = ideal.tower
    gens = ic._dedupe(tower, ideal.gens)
    bound = frame_degree + 1
    ech = SparseEchelon(tower)
    _close(ech, [s for g in gens for s in _shifts(_truncated_row(g, bound), bound)], bound)
    return [
        g for g in sorted(gens, key=lambda g: ic._gen_key(tower, g))
        if ech.insert(_truncated_row(g, bound))
    ]


def leading_keys(frame):
    """The frame's leading monomials below its bound, keyed (i + j, i)."""
    leads = [(a, b) for a, b, _ in frame._basis]
    return {
        (d, i)
        for d in range(frame.bound)
        for i in range(d + 1)
        if any(a <= i and b <= d - i for a, b in leads)
    }


def corners(keys):
    """The minimal monomials of a set keyed (i + j, i), as exponent pairs."""
    exps = {(i, d - i) for d, i in keys}
    return {
        (a, b) for a, b in exps
        if (a - 1, b) not in exps and (a, b - 1) not in exps
    }


def shifted_pivots(ideal, bound):
    """Pivots of the frame that inserts every shift of every generator."""
    ech = SparseEchelon(ideal.tower)
    for g in ideal.gens:
        top = max(bound - g.ord_at_origin(), 0)
        for j in range(top):
            for i in range(top - j):
                row = _truncated_row(g.mul_monomial((i, j)), bound)
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
    [(QQ, QQ, 1300), (F5, F5, 1305), (F7A, F7, 1307)],
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
            assert leading_keys(frame) == shifted_pivots(J, bound)


def _big(tower):
    """Ideals with coefficients up to 3^200 and 7^150 (reduced mod p over F_p)."""
    x, y = (BiPoly.variable(tower, V, v) for v in V)

    def c(n):
        return BiPoly.from_int(tower, V, n if not tower.char or n % tower.char else n + 1)

    a, b = c(3 ** 200), c(7 ** 150)
    return [
        LocalIdeal(tower, V, [x.mul(a).add(y.mul(c(5 ** 90))).pow(3).add(y.pow(5)),
                              x.pow(4).add(y.pow(3).mul(b))]),
        LocalIdeal(tower, V, [x.pow(2).mul(a).add(y.pow(3)), y.pow(2).mul(b).add(x.mul(y).mul(a)),
                              x.pow(3).add(y.pow(4).mul(c(2 ** 100 + 1)))]),
        LocalIdeal(tower, V, [y.pow(2).mul(b).add(x.pow(3).mul(a)),
                              x.pow(2).mul(y).add(x.pow(5).mul(b))]),
    ]


def _frame_cases(tower, ground, rng):
    for k in range(props.PER_FIELD // 5):
        J = props.random_primary(rng, ground)
        if tower is not ground:
            J = _twisted(J, tower)
        if k % 2:
            f, g = J.gens
            J = LocalIdeal(tower, V, [f, g, f.add(g), g.mul(f).add(f.pow(2))])
        yield J
    # the extension arithmetic is slow: the family stops at m = 5 over F_7(a)
    for m in range(2, 6 if tower.levels else 9):
        f, g, I = ic.abhyankar_family(m, tower)
        J = LocalIdeal(tower, V, [f, g])
        yield from (I, J, ic.product(J, I))
    yield from _big(tower)


def _probes(rng, tower, ideal, bound):
    x, y = (BiPoly.variable(tower, V, v) for v in V)
    gens = ideal.gens
    out = list(gens) + [props.random_poly(rng, tower, 6) for _ in range(3)]
    out += [gens[0].mul(x).add(gens[-1].mul(y)), gens[0].add(x.pow(bound // 2)),
            gens[-1].mul(gens[0]).add(y.pow(bound - 1)), gens[0].add(gens[-1].mul(x).mul(y))]
    # monomials on and near the staircase
    out += [BiPoly.monomial(tower, V, (i, d - i))
            for d in (bound // 2, bound - 1) for i in (0, d // 2, d)]
    if tower.levels:
        out.append(gens[0].scale(tower.generator()).add(y.pow(bound)))
    return out


@pytest.mark.parametrize(
    "tower,ground,seed",
    [(QQ, QQ, 1400), (F5, F5, 1405), (F32003, F32003, 1413), (F7A, F7, 1407)],
    ids=["Q", "F5", "F32003", "F7(a)"],
)
def test_standard_basis_matches_echelon_frame(tower, ground, seed):
    ideals = list(_frame_cases(tower, ground, random.Random(seed)))
    rng = random.Random("probes %d" % seed)
    frames = 0
    for ideal in ideals:
        d = ic.stabilized_frame(ideal).full_degree()
        for bound in sorted({max(d - 1, 1), d, d + 1, 2 * d + 1}):
            frame, ref = ic.TruncationFrame(ideal, bound), EchelonFrame(ideal, bound)
            frames += 1
            assert frame.colength() == ref.colength()
            assert frame.full_degree() == ref.full_degree()
            assert leading_keys(frame) == set(ref.ech.rows)
            for p in _probes(rng, tower, ideal, bound):
                assert frame.contains(p) == ref.contains(p)
        if len(ideal.gens) > 1 and not all(g.is_monomial() for g in ideal.gens):
            f, g = ideal.gens[:2]
            x = BiPoly.variable(tower, V, "x")
            padded = LocalIdeal(tower, V, list(ideal.gens) + [f.add(g), f.mul(x).add(g)])
            assert _render(ic.minimal_generators(padded).gens) == _render(
                echelon_minimal_generators(padded, d)
            )
    assert frames > 100


@pytest.mark.parametrize("tower", [QQ, F5], ids=["Q", "F5"])
def test_reduction_chase_targets_match_echelon(tower):
    # the chase compares colengths of J.I^n and I^(n+1) modulo M^B; the
    # echelon frames must give the same verdict by membership
    rng = random.Random("chase %s" % tower.char)
    for k in range(12):
        J = props.random_primary(rng, tower)
        f, g = J.gens
        x, y = (BiPoly.variable(tower, V, v) for v in V)
        I = ic.power(J, 2) if k % 2 else ic.product(J, LocalIdeal(tower, V, [x, y]))
        K = LocalIdeal(tower, V, [f.pow(2), g.pow(2)]) if k % 2 else ic.product(
            J, LocalIdeal(tower, V, [x, y.pow(2)]))
        d = ic.stabilized_frame(I).full_degree()
        current = ic.power(I, 0)
        for n in range(3):
            bound = (n + 1) * d + 1
            lifted = ic.product(I, current)
            small = ic.product(K, current)
            ref = EchelonFrame(small, bound)
            by_membership = all(ref.contains(h) for h in lifted.gens)
            length = ic.TruncationFrame(lifted, bound).colength()
            assert length == EchelonFrame(lifted, bound).colength()
            assert (ic.TruncationFrame(small, bound).colength() == length) == by_membership
            current = lifted


def buchberger_frame(ideal, bound):
    """A TruncationFrame built by its Buchberger loop whatever the generators."""
    frame = object.__new__(ic.TruncationFrame)
    frame.ideal, frame.bound = ideal, bound
    frame._width = max(bound, 1)
    frame._limit = bound * frame._width
    frame._basis, frame._queue, frame._tick = [], [], count()
    for g in ideal.gens:
        frame._push(frame._row(g))
    frame._complete()
    return frame


def _coefficient(rng, tower):
    """A nonzero coefficient other than one: a quotient over Q, 2..p-1 over
    F_p, and a + c over F_7(a)."""
    if tower.levels:
        return tower.add(tower.generator(), tower.from_int(rng.randrange(7)))
    if tower.char:
        return tower.from_int(rng.randrange(2, tower.char))
    n = rng.choice([-5, -3, -2, 2, 3, 7])
    return tower.mul(tower.from_int(n), tower.inv(tower.from_int(rng.choice([1, 2, 3, 4]))))


def _monomial_ideals(rng, tower):
    """Seeded monomial ideals with coefficients, M-primary and not, with
    redundant generators, and the fixed cases (x^2, x.y) and (x^3, x^2.y^2)."""
    def mono(e):
        return BiPoly.monomial(tower, V, e, _coefficient(rng, tower))

    yield LocalIdeal(tower, V, [mono((2, 0)), mono((1, 1))])
    yield LocalIdeal(tower, V, [mono((3, 0)), mono((2, 2))])
    for k in range(24):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        exps = {(a, 0), (0, b)} if k % 3 else {(a, rng.randint(1, 3)), (rng.randint(0, 2), b)}
        for _ in range(rng.randint(0, 4)):
            exps.add((rng.randint(0, a + 2), rng.randint(0, b + 2)))
        exps.discard((0, 0))
        yield LocalIdeal(tower, V, [mono(e) for e in sorted(exps, key=lambda e: rng.random())])


@pytest.mark.parametrize(
    "tower,seed", [(QQ, 1500), (F5, 1505), (F7A, 1507)], ids=["Q", "F5", "F7(a)"]
)
def test_staircase_frame_matches_buchberger(tower, seed):
    ideals = list(_monomial_ideals(random.Random(seed), tower))
    rng = random.Random("probes %d" % seed)
    x, y = (BiPoly.variable(tower, V, v) for v in V)
    cases = 0
    for ideal in ideals:
        d = buchberger_frame(ideal, 32).full_degree()
        bounds = {1, 3, 6} if d is None else {1, max(d - 1, 1), d, d + 1, 2 * d + 1}
        for bound in sorted(bounds):
            frame, ref = ic.TruncationFrame(ideal, bound), buchberger_frame(ideal, bound)
            cases += 1
            assert frame._basis == ref._basis and frame._limit == ref._limit
            assert frame.colength() == ref.colength()
            assert frame.full_degree() == ref.full_degree()
            for p in _probes(rng, tower, ideal, bound) + [x.mul(y).add(y.pow(bound))]:
                assert frame.contains(p) == ref.contains(p)
    assert cases > 100


def test_zero_generator_leaves_the_staircase():
    # the zero polynomial is no monomial: LocalIdeal drops it before the frame
    x, y = (BiPoly.variable(QQ, V, v) for v in V)
    ideal = LocalIdeal(QQ, V, [BiPoly.zero(QQ, V), x.pow(2), y.pow(3)])
    assert ic.colength(ideal) == 6
    frame = ic.stabilized_frame(ideal)
    assert frame._basis == buchberger_frame(ideal, frame.bound)._basis


def test_known_answers_build_no_buchberger(monkeypatch):
    # a monomial ideal's colength reads its staircase, and simple_ideal trims
    # against the span of its kernel's shifts: neither sweeps a frame for M.I.
    # simple_ideal's certificate builds one frame, of its own output at bound
    # D + 1, for the colength
    sweeps, frames = [], []

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return sweep(*args, **kwargs)

    class Frame(ic.TruncationFrame):
        def __init__(self, *args, **kwargs):
            frames.append(args[:2])
            super().__init__(*args, **kwargs)

    sweep = ic.sweep
    monkeypatch.setattr(ic, "sweep", counted)
    monkeypatch.setattr(ic, "TruncationFrame", Frame)
    for tower in (QQ, F5, F7A):
        ideal = LocalIdeal(tower, V, [BiPoly.monomial(tower, V, e, tower.from_int(3))
                                      for e in ((7, 0), (4, 2), (1, 5), (0, 9))])
        assert ic.colength(ideal) == 9 + 3 * 5 + 3 * 2  # column heights
    assert frames and not sweeps
    frames.clear()
    steps = [QdtStep.infinity(), QdtStep.affine(QQ.one()), QdtStep.affine(QQ.from_int(-1))]
    v = divisors.PrimeDivisor(QdtPath(QQ, V, steps))
    zeta = divisors.simple_ideal(v)
    r = v.intermediate_multiplicities()
    D = -(-sum(a * b for a, b in zip(v.point_basis(), r)) // r[0])
    assert not all(g.is_monomial() for g in zeta.gens)
    assert [(ideal.gens, bound) for ideal, bound in frames] == [(zeta.gens, D + 1)]
    assert sweeps
