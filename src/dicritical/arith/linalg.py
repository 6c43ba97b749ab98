"""Sparse echelon forms and kernels over a field tower.

Vectors are dicts mapping a comparable column key (usually an exponent pair)
to a nonzero field element.  The echelon keeps one stored row per pivot, with
the pivot at the row's smallest key and scaled to 1, so reducing a vector is
a single ascending sweep.
"""

import heapq


class SparseEchelon:
    def __init__(self, tower):
        self.tower = tower
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec after elimination; does not modify the echelon."""
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
        return residual

    def insert(self, vec):
        """Add vec to the span; returns the new stored row when the rank grew, else False."""
        res = self.reduce(vec)
        if not res:
            return False
        T = self.tower
        pivot = min(res)
        inv = T.inv(res[pivot])
        row = self.rows[pivot] = {k: T.mul(inv, c) for k, c in res.items()}
        return row

    def contains(self, vec):
        return not self.reduce(vec)


def kernel_basis(tower, rows, columns):
    """Basis of the null space of the matrix given by rows over columns.

    rows: list of dicts keyed by column.  Returns a list of dicts, one per
    free column in column order: the free column's unit entry first, then
    the negated entries of the reduced row echelon form, pivot columns in
    order.  That form is unique, so the basis depends only on the row span.
    """
    T = tower
    col_index = {c: i for i, c in enumerate(columns)}
    ech = SparseEchelon(T)
    for row in rows:
        ech.insert({col_index[c]: v for c, v in row.items()})
    # a stored row's tail, reduced, keeps only free columns: the row of the
    # reduced echelon form; entries[j] lists free column j's (pivot, entry)
    entries = {}
    for p in sorted(ech.rows):
        tail = {k: c for k, c in ech.rows[p].items() if k != p}
        for j, c in ech.reduce(tail).items():
            entries.setdefault(j, []).append((p, c))
    basis = []
    for j, col in enumerate(columns):
        if j in ech.rows:
            continue
        vec = {col: T.one()}
        for p, c in entries.get(j, ()):
            vec[columns[p]] = T.neg(c)
        basis.append(vec)
    return basis
