"""Sparse echelon forms and kernels over a field tower.

Vectors are dicts mapping a comparable column key (usually an exponent pair)
to a nonzero field element.  The echelon keeps one stored row per pivot, with
the pivot at the row's smallest key and scaled to 1, so reducing a vector is
a single ascending sweep.
"""

from __future__ import annotations

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
        """Add vec to the span; returns True when the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        T = self.tower
        pivot = min(res)
        inv = T.inv(res[pivot])
        self.rows[pivot] = {k: T.mul(inv, c) for k, c in res.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def kernel_basis(tower, rows, columns):
    """Basis of the null space of the matrix given by rows over columns.

    rows: iterable of dicts keyed by column.  Returns a list of dicts, one
    per free column, in reduced form (deterministic for a fixed input order).
    """
    T = tower
    col_index = {c: i for i, c in enumerate(columns)}
    n = len(columns)
    mat = []
    for row in rows:
        dense = [T.zero()] * n
        nonzero = False
        for c, v in row.items():
            if not T.is_zero(v):
                dense[col_index[c]] = v
                nonzero = True
        if nonzero:
            mat.append(dense)
    pivots = []
    r = 0
    for j in range(n):
        sel = None
        for i in range(r, len(mat)):
            if not T.is_zero(mat[i][j]):
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = T.inv(mat[r][j])
        mat[r] = [T.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not T.is_zero(mat[i][j]):
                c = mat[i][j]
                mat[i] = [T.sub(a, T.mul(c, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(j)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        vec = {columns[j]: T.one()}
        for rr, pj in enumerate(pivots):
            c = mat[rr][j]
            if not T.is_zero(c):
                vec[columns[pj]] = T.neg(c)
        basis.append(vec)
    return basis
