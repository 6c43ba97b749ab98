"""One frame at the budget, and reduction witnesses 0 and 1 from lengths,
against the rules they replaced.

stabilized_frame builds one frame at bound MAX_FRAME_DEGREE + 1 and lets its
cut stop the work at the first full layer; a simple ideal keeps the frame
at bound D + 1 that certified it.  The reference, doubled_frame,
starts at bound ord(I) + 1 and doubles until a layer is full.  Colength,
full degree and membership must agree over Q, F_5 and F_7(a) on seeded
ideals, on the Abhyankar I_m and J_m for m <= 6, and, over Q, on the 16
simple ideals of the reduction-ladder shapes.  Non-M-primary ideals must
be refused by both, naming the same factor.

is_reduction reads witness 0 and 1 of a two-generated M-primary J off the
colengths of J, I and I^2 (the Koszul identity).  Its verdict must equal
the lex chase ref_witness and the frame chase chase_witness on witness 0,
1 and at least 2, on non-reductions, on a J that is not M-primary (the
chase only: the lex reference cannot stop on such a J), on J with three or
more generators, and with n_max below the witness, where both raise the
same BudgetExceeded.

Each test draws its whole case list from its own seed before any probe, and
its probes from a second rng, so a probe added or dropped changes no case.
"""

import random

import pytest

import test_frame_differential as fd
import test_properties as props
import test_transform_differential as td
from echelon_reference import chase_witness, doubled_frame
from dicritical import divisors, idealcalc as ic
from dicritical.arith import QQ, BiPoly
from dicritical.errors import BudgetExceeded, NotMPrimary
from dicritical.nearpoints import LocalIdeal

V = ("x", "y")
FIELDS = [(QQ, QQ, 2700), (fd.F5, fd.F5, 2705), (fd.F7A, fd.F7, 2707)]
IDS = ["Q", "F5", "F7(a)"]


def _seeded(tower, ground, rng):
    """Seeded two-generated M-primary ideals, twisted over F_7(a)."""
    J = props.random_primary(rng, ground)
    return fd._twisted(J, tower) if tower is not ground else J


def _frame_cases(tower, ground, rng):
    """(ideal, the bound of its stabilized frame): MAX_FRAME_DEGREE + 1, or
    D + 1 for a simple ideal, which keeps its certificate frame."""
    x, y = (BiPoly.variable(tower, V, v) for v in V)
    budget = ic.MAX_FRAME_DEGREE + 1
    for k in range(12):
        J = _seeded(tower, ground, rng)
        f, g = J.gens
        yield J, budget
        yield (LocalIdeal(tower, V, [f, g, f.add(g), f.mul(x).add(g.mul(y))]) if k % 2
               else ic.product(J, LocalIdeal(tower, V, [x, y.pow(2)]))), budget
    for m in range(1, 7):
        f, g, I = ic.abhyankar_family(m, tower)
        yield I, budget
        yield LocalIdeal(tower, V, [f, g]), budget
    if tower is QQ:
        for shape in td.SHAPES:
            v = td._bench_divisor(shape, tower, rng)
            r = v.intermediate_multiplicities()
            D = -(-sum(a * b for a, b in zip(v.point_basis(), r)) // r[0])
            yield divisors.simple_ideal(v), D + 1


@pytest.mark.parametrize("tower,ground,seed", FIELDS, ids=IDS)
def test_one_frame_matches_doubled_frame(tower, ground, seed):
    ideals = list(_frame_cases(tower, ground, random.Random(seed)))
    rng = random.Random("probes %d" % seed)
    for ideal, bound in ideals:
        frame, ref = ic.stabilized_frame(ideal), doubled_frame(ideal)
        assert frame.bound == bound
        assert frame.colength() == ref.colength()
        assert frame.full_degree() == ref.full_degree()
        for p in fd._probes(rng, tower, ideal, ref.bound):
            assert frame.contains(p) == ref.contains(p)
    assert len(ideals) >= 36


@pytest.mark.parametrize("tower,ground,seed", FIELDS, ids=IDS)
def test_non_primary_refused_by_both(tower, ground, seed):
    rng = random.Random(seed)
    x, y = (BiPoly.variable(tower, V, v) for v in V)
    for factor in (x, y.add(x.pow(2)), x.add(y).pow(2)):
        f, g = _seeded(tower, ground, rng).gens
        ideal = LocalIdeal(tower, V, [f.mul(factor), g.mul(factor)])
        messages = []
        for build in (ic.stabilized_frame, doubled_frame):
            with pytest.raises(NotMPrimary) as exc:
                build(ideal)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def _witness_cases(tower, ground, rng):
    """(J, I, n_max, whether the lex reference can run) for J inside I."""
    x, y = (BiPoly.variable(tower, V, v) for v in V)
    # x -> x + c.y keeps each witness and makes the monomial cases dense
    sheared = x.add(y.scale(tower.generator() if tower.levels else tower.one()))

    def ideal(*exps):
        return LocalIdeal(tower, V, [sheared.pow(i).mul(y.pow(j)) for i, j in exps])

    # (x^a, y^a) reduces (x^a, y^a) plus monomials on its Newton line with
    # witness 2, 3 and 2
    for a, extra in ((3, [(2, 1)]), (4, [(3, 1)]), (5, [(4, 1), (3, 2)])):
        yield ideal((a, 0), (0, a)), ideal((a, 0), (0, a), *extra), None, True
    # witness 3, cut off at n_max = 2; witness 1, cut off at n_max = 0
    yield ideal((4, 0), (0, 4)), ideal((4, 0), (0, 4), (3, 1)), 2, True
    for m in range(2, 5):
        f, g, I = ic.abhyankar_family(m, tower)
        yield LocalIdeal(tower, V, [f, g]), I, None, True
        if m == 2:
            yield LocalIdeal(tower, V, [f, g]), I, 0, True
    # three generators: M^4 over (x^4, y^4, x^2.y^2)
    yield ideal((4, 0), (0, 4), (2, 2)), ideal(*((i, 4 - i) for i in range(5))), None, True
    # the lex reference is slow over F_7(a): fewer seeded ideals there
    for _ in range(3 if tower.levels else 6):
        J = _seeded(tower, ground, rng)
        f, g = J.gens
        I = ic.power(J, 2)
        # witness 0, on the ideal's own and on other generators
        yield J, J, None, True
        yield LocalIdeal(tower, V, [g, f.add(g.mul(x))]), J, None, True
        # (f^2, g^2) against (f, g)^2, and the same with f.g added
        yield LocalIdeal(tower, V, [f.pow(2), g.pow(2)]), I, None, True
        yield LocalIdeal(tower, V, [f.pow(2), g.pow(2), f.mul(g)]), I, None, True
        # non-reductions: two generators, then four; the lex frames of J.I^2
        # take seconds over F_7(a)
        yield LocalIdeal(tower, V, [f.pow(2), g.pow(3)]), I, 2, not tower.levels
        yield (ic.product(J, LocalIdeal(tower, V, [x, y.pow(2)])),
               ic.product(J, LocalIdeal(tower, V, [x, y])), 1, True)
        # not M-primary: both generators carry the factor x
        yield LocalIdeal(tower, V, [f.mul(x), g.mul(x)]), J, 2, False


@pytest.mark.parametrize("tower,ground,seed", FIELDS, ids=IDS)
def test_length_witness_matches_chase(tower, ground, seed):
    cases = list(_witness_cases(tower, ground, random.Random(seed + 50)))
    seen = set()
    for J, I, n_max, lex in cases:
        bound = ic.colength(I) if n_max is None else n_max
        want = chase_witness(J, I, bound)
        if lex:
            assert fd.ref_witness(J, I, bound) == want
        # J is a reduction of I exactly when their closures agree
        reduction = J.is_mprimary() and ic.closure_colength(J) == ic.closure_colength(I)
        if want is None and reduction:
            # a reduction whose witness lies past n_max
            with pytest.raises(BudgetExceeded, match="up to n_max = %d$" % bound):
                ic.is_reduction(J, I, n_max)
            seen.add("budget")
            continue
        decision = want is not None
        assert decision == reduction
        assert ic.is_reduction(J, I, n_max) == ic.ReductionResult(decision, want, decision, decision)
        seen.add(min(want, 2) if decision else None)
    assert seen == {0, 1, 2, None, "budget"}
