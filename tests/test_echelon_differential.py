"""Primitive integer rows over Q against the Fraction echelon they replaced.

Over Q, SparseEchelon (tests/echelon_reference.py, a row echelon on the
engine's sweep) keeps primitive integer rows and reduces fraction free.  The reference below is the earlier echelon, which scales every
stored row to pivot 1 with Fraction arithmetic.  On seeded random matrices
(dependent and zero rows, huge numerators and denominators, int entries
and the shifted stored rows a truncation frame feeds back) both must give
the same rank, pivots, residuals, membership answers and kernel basis,
key for key.  The frame tests build both sides on SparseEchelon, so they
cannot see a fault in this layer.
"""

import heapq
import random
from fractions import Fraction
from math import gcd

import pytest

from dicritical.arith import QQ, FieldTower

from echelon_reference import SparseEchelon, kernel_basis
from poly_reference import canonical, is_canonical

F7 = FieldTower.prime_field(7)
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1


class FractionEchelon:
    """The Fraction echelon: one stored row per pivot, scaled to pivot 1."""

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        work = {k: Fraction(c) for k, c in vec.items() if c}
        heap = list(work)
        heapq.heapify(heap)
        seen = set()
        residual = {}
        while heap:
            k = heapq.heappop(heap)
            if k in seen:
                continue
            seen.add(k)
            c = work.get(k)
            if not c:
                continue
            row = self.rows.get(k)
            if row is None:
                residual[k] = c
                continue
            del work[k]
            for kk, rc in row.items():
                if kk == k:
                    continue
                nxt = work.get(kk, 0) - c * rc
                if nxt:
                    if kk not in work and kk not in seen:
                        heapq.heappush(heap, kk)
                    work[kk] = nxt
                else:
                    work.pop(kk, None)
        return residual

    def insert(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        inv = 1 / res[pivot]
        row = self.rows[pivot] = {k: inv * c for k, c in res.items()}
        return row

    def contains(self, vec):
        return not self.reduce(vec)


def fraction_kernel(rows, columns):
    """kernel_basis over Q on the Fraction echelon, its entries canonical
    rationals: an int when integral, else a Fraction."""
    col_index = {c: i for i, c in enumerate(columns)}
    ech = FractionEchelon()
    for row in rows:
        ech.insert({col_index[c]: v for c, v in row.items()})
    entries = {}
    for p in sorted(ech.rows):
        tail = {k: c for k, c in ech.rows[p].items() if k != p}
        for j, c in ech.reduce(tail).items():
            entries.setdefault(j, []).append((p, c))
    basis = []
    for j, col in enumerate(columns):
        if j in ech.rows:
            continue
        vec = {col: 1}
        for p, c in entries.get(j, ()):
            vec[columns[p]] = canonical(-c)
        basis.append(vec)
    return basis


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "huge":
        sign = rng.choice((-1, 1))
        return sign * Fraction(3 ** rng.randint(0, 200), 7 ** rng.randint(0, 150))
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def _rows(rng, columns, kind):
    """Seeded sparse rows with zero rows, copies and combinations mixed in."""
    rows = []
    for _ in range(rng.randint(1, len(columns) + 2)):
        keys = rng.sample(columns, rng.randint(1, min(5, len(columns))))
        rows.append({k: _entry(rng, kind) for k in keys})
    rows.append({})
    rows.append({columns[0]: Fraction(0)})
    a, b = rng.choice(rows), rng.choice(rows)
    s, t = _entry(rng, kind), _entry(rng, kind)
    combo = {k: s * a.get(k, 0) + t * b.get(k, 0) for k in set(a) | set(b)}
    rows.append({k: c for k, c in combo.items() if c})
    rows.append({k: 5 * c for k, c in a.items()})
    rng.shuffle(rows)
    return rows


def _columns(rng):
    n = rng.randint(1, 7)
    return [(d, i) for d in range(n) for i in range(d + 1)][: rng.randint(1, 14)]


def _shifted(row):
    """The x-shift of a stored row, as a truncation frame inserts it."""
    return {(d + 1, i + 1): c for (d, i), c in row.items()}


def _assert_primitive(ech):
    for p, row in ech.rows.items():
        assert p == min(row) and row[p] > 0
        assert all(type(c) is int for c in row.values())
        assert gcd(*row.values()) == 1


def _typed(kernel):
    return [[(k, c, type(c)) for k, c in v.items()] for v in kernel]


KINDS = ["small", "int", "huge"]
# the Fraction reference is slow on 500-bit entries, so fewer of those
CASES = {"small": 60, "int": 60, "huge": 8}


@pytest.mark.parametrize("kind", KINDS)
def test_integer_rows_match_fraction_echelon(kind):
    rng = random.Random("echelon %s" % kind)
    for _ in range(CASES[kind]):
        columns = _columns(rng)
        ech, ref = SparseEchelon(QQ), FractionEchelon()
        for row in _rows(rng, columns, kind):
            got, want = ech.insert(row), ref.insert(row)
            assert bool(got) == bool(want)
            if got:
                # feed back the stored rows' shifts, ints on the integer side
                assert bool(ech.insert(_shifted(got))) == bool(ref.insert(_shifted(want)))
        assert len(ech.rows) == ref.rank
        assert set(ech.rows) == set(ref.rows)
        _assert_primitive(ech)
        for p, row in ech.rows.items():
            assert {k: Fraction(c, row[p]) for k, c in row.items()} == ref.rows[p]
        probes = _rows(rng, columns, kind) + [_shifted(r) for r in _rows(rng, columns, kind)]
        for vec in probes:
            assert (not ech.reduce(vec)[0]) == ref.contains(vec)
            w, scale = ech.reduce(vec)
            assert {k: Fraction(c, scale) for k, c in w.items()} == ref.reduce(vec)


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_basis_matches_fraction_kernel(kind):
    rng = random.Random("kernel %s" % kind)
    for _ in range(CASES[kind]):
        columns = _columns(rng)
        rng.shuffle(columns)
        rows = _rows(rng, columns, kind)
        got = kernel_basis(QQ, rows, columns)
        want = fraction_kernel(rows, columns)
        assert _typed(got) == _typed(want)
        assert all(is_canonical(c) for v in got for c in v.values())


def test_rows_over_finite_towers_keep_pivot_one():
    rng = random.Random("finite pivots")
    for T in (F7, F7A):
        ech = SparseEchelon(T)
        for _ in range(30):
            keys = rng.sample(range(12), rng.randint(1, 5))
            ech.insert({k: T.element_from_index(rng.randrange(T.element_count())) for k in keys})
        assert len(ech.rows) > 0
        assert all(row[p] == T.one() for p, row in ech.rows.items())
        assert ech.reduce({0: T.one()})[1] == 1
