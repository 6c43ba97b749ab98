"""The reduction sweep that the truncation frames and the simple-ideal kernel
share.

Vectors are dicts mapping a comparable key (usually an exponent pair) to a
nonzero field element.  A stored row has its pivot at its smallest key, so
reducing a vector is a single ascending sweep; the sweep asks a lookup for
the row to use at each key, which a truncation frame answers from its
staircase, with a shifted element, and the kernel of a value floor from the
images it kept.

Over F_p and its extensions a stored row is scaled so that its pivot is 1.
Over Q it is a primitive integer row (content 1, positive pivot) and the
sweep is fraction free, after Bareiss: a vector's denominators are cleared
once, by their lcm, and a stored row s with pivot p met at a coefficient c
turns the working vector r into a*r - b*s, with g = gcd(p, c), a = p/g and
b = c/g, in plain int arithmetic.  The residual comes back as integers
times a reported scale: the lcm times the product of the a's.
"""

import heapq
from math import gcd, lcm


def stored_row(tower, res):
    """res scaled to a stored row: pivot 1, or over Q primitive with a positive pivot."""
    pivot = res[min(res)]
    if tower.is_rationals:
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
    level = tower.top
    submul, is_zero = level.submul, level.is_zero
    integral = tower.is_rationals
    if integral:
        scale = lcm(*[c.denominator for c in vec.values()])
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
                if integral:
                    nxt = work.get(kk, 0) - c * rc
                else:
                    nxt = submul(work.get(kk, zero), c, rc)
                if is_zero(nxt):
                    work.pop(kk, None)
                else:
                    if kk not in work:
                        heapq.heappush(heap, kk)
                    work[kk] = nxt
    return residual, scale
