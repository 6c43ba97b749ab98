"""Sparse echelon forms and kernels over a field tower.

Vectors are dicts mapping a comparable column key (usually an exponent pair)
to a nonzero field element.  The echelon keeps one stored row per pivot, with
the pivot at the row's smallest key, so reducing a vector is a single
ascending sweep.

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

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """(w, s): w is s times the residual of vec after elimination.

        The residual is unique: vec minus the combination of stored rows that
        vanishes at every pivot.  s is 1 except over Q, where w is integral.
        Does not modify the echelon.
        """
        if self.integral:
            return _reduce_integral(self.rows, vec)
        T = self.tower
        work = {k: c for k, c in vec.items() if not T.is_zero(c)}
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
            if c is None or T.is_zero(c):
                continue
            row = self.rows.get(k)
            if row is None:
                residual[k] = c
                continue
            del work[k]
            for kk, rc in row.items():
                if kk == k:
                    continue
                delta = T.mul(c, rc)
                cur = work.get(kk)
                nxt = T.sub(cur, delta) if cur is not None else T.neg(delta)
                if T.is_zero(nxt):
                    work.pop(kk, None)
                else:
                    if kk not in work and kk not in seen:
                        heapq.heappush(heap, kk)
                    work[kk] = nxt
        return residual, 1

    def insert(self, vec):
        """Add vec to the span; returns the new stored row when the rank grew, else False."""
        res, _ = self.reduce(vec)
        if not res:
            return False
        pivot = min(res)
        if self.integral:
            g = gcd(*res.values())
            if res[pivot] < 0:
                g = -g
            row = res if g == 1 else {k: c // g for k, c in res.items()}
        else:
            T = self.tower
            inv = T.inv(res[pivot])
            row = {k: T.mul(inv, c) for k, c in res.items()}
        self.rows[pivot] = row
        return row

    def contains(self, vec):
        return not self.reduce(vec)[0]


def _reduce_integral(rows, vec):
    """SparseEchelon.reduce over Q, on the primitive integer rows."""
    scale = lcm(*[c.denominator for c in vec.values()])
    if scale == 1:  # ints, such as the shifts of stored rows
        work = {k: c.numerator for k, c in vec.items() if c}
    else:
        work = {k: c.numerator * (scale // c.denominator) for k, c in vec.items() if c}
    heap = list(work)
    heapq.heapify(heap)
    residual = {}
    # keys pop in ascending order and a stored row only reaches keys above
    # its pivot, so a key pushed twice pops twice in a row: harmless
    while heap:
        k = heapq.heappop(heap)
        c = work.get(k)
        if not c:
            continue
        row = rows.get(k)
        if row is None:
            residual[k] = c
            continue
        del work[k]
        p = row[k]
        g = gcd(p, c)
        a, b = p // g, c // g
        if a != 1:
            scale *= a
            work = {kk: a * v for kk, v in work.items()}
            residual = {kk: a * v for kk, v in residual.items()}
        for kk, rc in row.items():
            if kk == k:
                continue
            nxt = work.get(kk, 0) - b * rc
            if nxt:
                if kk not in work:
                    heapq.heappush(heap, kk)
                work[kk] = nxt
            else:
                work.pop(kk, None)
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
