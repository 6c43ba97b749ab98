"""Sparse echelon forms, kernels, and the reduction sweep they share with
the truncation frames.

Vectors are dicts mapping a comparable column key (usually an exponent pair)
to a nonzero field element.  A stored row has its pivot at its smallest key,
so reducing a vector is a single ascending sweep; the sweep asks a lookup
for the row to use at each key, which the echelon answers from its rows and
a truncation frame from its staircase, with a shifted element.

Over F_p and its extensions a stored row is scaled so that its pivot is 1.
Over Q it is a primitive integer row (content 1, positive pivot) and the
sweep is fraction free, after Bareiss: a vector's denominators are cleared
once, by their lcm, and a stored row s with pivot p met at a coefficient c
turns the working vector r into a*r - b*s, with g = gcd(p, c), a = p/g and
b = c/g, so no Fraction is built.  The residual comes back as integers
times a reported scale: the lcm times the product of the a's.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm


class SparseEchelon:
    def __init__(self, tower):
        self.tower = tower
        self.rows = {}
        self.integral = tower.base is None and not tower.levels

    def reduce(self, vec):
        """(w, s): w is s times the residual of vec after elimination.

        The residual is unique: vec minus the combination of stored rows that
        vanishes at every pivot.  s is 1 except over Q, where w is integral.
        Does not modify the echelon.
        """
        rows = self.rows
        return sweep(self.tower, vec, lambda k: (rows[k][k], rows[k].items()) if k in rows else None)

    def insert(self, vec):
        """Add vec to the span; returns the new stored row when the rank grew, else False."""
        res, _ = self.reduce(vec)
        if not res:
            return False
        row = self.rows[min(res)] = stored_row(self.tower, res)
        return row


def stored_row(tower, res):
    """res scaled to a stored row: pivot 1, or over Q primitive with a positive pivot."""
    pivot = res[min(res)]
    if tower.base is None and not tower.levels:
        g = gcd(*res.values())
        if pivot < 0:
            g = -g
        return res if g == 1 else {k: c // g for k, c in res.items()}
    inv = tower.inv(pivot)
    return {k: tower.mul(inv, c) for k, c in res.items()}


def sweep(tower, vec, lookup, top=False):
    """(w, s): w is s times the residual of vec after elimination by stored rows.

    lookup(k) is None when no stored row has its pivot at key k, else
    (p, terms): the row's pivot coefficient and its (key, coefficient) pairs,
    pivot included, every other key above k.  Keys pop in ascending order and
    a row only reaches keys above its pivot, so a key pushed twice pops twice
    in a row: harmless.  With top set, the sweep stops at the first key no
    row reduces and returns what is left of vec.
    """
    level = tower._at[-1]
    submul, is_zero = level.submul, level.is_zero
    integral = tower.base is None and not tower.levels
    if integral:
        scale, zero = lcm(*[c.denominator for c in vec.values()]), 0
        work = {k: c.numerator * (scale // c.denominator) for k, c in vec.items() if c}
    else:
        scale, zero = 1, level.zero
        work = {k: c for k, c in vec.items() if not is_zero(c)}
    heap = list(work)
    heapq.heapify(heap)
    residual = {}
    while heap:
        k = heapq.heappop(heap)
        c = work.get(k)
        if c is None:
            continue
        hit = lookup(k)
        if hit is None:
            if top:
                return work, scale
            residual[k] = c
            continue
        del work[k]
        p, terms = hit
        if integral:
            g = gcd(p, c)
            a, c = p // g, c // g
            if a != 1:
                scale *= a
                work = {kk: a * v for kk, v in work.items()}
                residual = {kk: a * v for kk, v in residual.items()}
        for kk, rc in terms:
            if kk != k:
                nxt = submul(work.get(kk, zero), c, rc)
                if is_zero(nxt):
                    work.pop(kk, None)
                else:
                    if kk not in work:
                        heapq.heappush(heap, kk)
                    work[kk] = nxt
    return residual, scale


def kernel_basis(tower, rows, columns):
    """Basis of the null space of the matrix given by rows over columns.

    rows: list of dicts keyed by column.  Returns a list of dicts, one per
    free column in column order: the free column's unit entry first, then
    the negated entries of the reduced row echelon form, pivot columns in
    order.  That form is unique, so the basis depends only on the row span;
    over Q its entries are Fractions, whatever the rows held.
    """
    T = tower
    col_index = {c: i for i, c in enumerate(columns)}
    ech = SparseEchelon(T)
    for row in rows:
        ech.insert({col_index[c]: v for c, v in row.items()})
    # a stored row's tail, reduced, keeps only free columns: the row of the
    # reduced echelon form, once divided by the scale and, over Q, by the
    # pivot; entries[j] lists free column j's (pivot, entry)
    entries = {}
    for p in sorted(ech.rows):
        row = ech.rows[p]
        w, scale = ech.reduce({k: c for k, c in row.items() if k != p})
        for j, c in w.items():
            entries.setdefault(j, []).append(
                (p, Fraction(c, scale * row[p]) if ech.integral else c)
            )
    basis = []
    for j, col in enumerate(columns):
        if j in ech.rows:
            continue
        vec = {col: T.one()}
        for p, c in entries.get(j, ()):
            vec[columns[p]] = T.neg(c)
        basis.append(vec)
    return basis
