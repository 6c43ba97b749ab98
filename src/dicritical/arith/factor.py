"""Univariate factorization over field towers.

Three regimes share one entry point, factor_univariate:

  * prime-characteristic towers: distinct-degree then equal-degree splitting,
    with a deterministic candidate sequence so repeated runs agree;
  * the plain rationals: delegated to sympy;
  * rational extension towers: Trager's norm descent to the level below.

All returned factors are monic and canonically ordered.
"""

from __future__ import annotations

import itertools

from .fields import QQ, FieldTower
from .polynomials import UniPoly
from ..errors import InternalInconsistency, NotIrreducible, ZeroPolynomial


def _poly_key(p):
    return (p.degree, tuple(p.tower.sort_key(c) for c in p.coeffs))


def squarefree_decomposition(f):
    """f = lc * prod g_i^(m_i) with the g_i monic, squarefree, coprime.

    Returns (lc, [(g_i, m_i), ...]) sorted by multiplicity then key.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    lc = f.lc()
    parts = _sqf_monic(f.monic(), 1)
    parts.sort(key=lambda gm: (gm[1], _poly_key(gm[0])))
    return lc, parts


def _sqf_monic(f, scale):
    T = f.tower
    if f.degree == 0:
        return []
    c = f.gcd(f.derivative())
    w = f.exact_div(c)
    out = []
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w.exact_div(y)
        if z.degree > 0:
            out.append((z, i * scale))
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        p = T.char
        if not p:
            raise InternalInconsistency("nontrivial inseparable part in characteristic zero")
        out.extend(_sqf_monic(_pth_root_poly(c), scale * p))
    return out


def _pth_root_poly(f):
    """p-th root of a polynomial lying in K[x^p], over a finite tower."""
    T = f.tower
    p = T.char
    e = T.element_count() // p
    coeffs = []
    for k, c in enumerate(f.coeffs):
        if k % p:
            if not T.is_zero(c):
                raise InternalInconsistency("polynomial is not a p-th power")
            continue
        coeffs.append(T.pow(c, e))
    return UniPoly(T, coeffs)


def factor_univariate(f):
    """Full factorization: (lc, [(monic irreducible, multiplicity), ...])."""
    lc, squarefree = squarefree_decomposition(f)
    out = []
    for g, m in squarefree:
        for irr in _factor_squarefree_monic(g):
            out.append((irr, m))
    out.sort(key=lambda im: _poly_key(im[0]))
    return lc, out


def is_irreducible(f):
    if f.is_zero() or f.degree < 1:
        return False
    _, factors = factor_univariate(f)
    return len(factors) == 1 and factors[0][1] == 1


def roots_in_field(f):
    """Roots of f lying in its own coefficient field, canonically ordered."""
    T = f.tower
    _, factors = factor_univariate(f)
    roots = [T.neg(g.coeff(0)) for g, _ in factors if g.degree == 1]
    roots.sort(key=T.sort_key)
    return roots


def extend(tower, minpoly, name, check=True):
    """Tower extended by a root of minpoly; verifies irreducibility by default."""
    if minpoly.degree < 1:
        raise NotIrreducible("an extension needs a nonconstant minimal polynomial")
    m = minpoly.monic()
    if check and not is_irreducible(m):
        raise NotIrreducible(
            "minimal polynomial %s is reducible" % minpoly.render(name)
        )
    return tower.extended(name, m.coeffs)


def _factor_squarefree_monic(g):
    T = g.tower
    if g.degree == 1:
        return [g]
    if T.char:
        out = []
        for part, d in _ddf(g):
            out.extend(_edf(part, d))
        out.sort(key=_poly_key)
        return out
    if T.height == 0:
        return _factor_rationals(g)
    return _factor_trager(g)


# ---------------------------------------------------------------- finite case

def _ddf(f):
    """Distinct-degree split of a monic squarefree f over a finite tower."""
    T = f.tower
    q = T.element_count()
    x = UniPoly.gen(T)
    v = f
    h = x.mod(v)
    d = 0
    out = []
    while v.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(q, v)
        g = h.sub(x).gcd(v)
        if g.degree > 0:
            out.append((g, d))
            v = v.exact_div(g)
            h = h.mod(v)
    if v.degree > 0:
        out.append((v, v.degree))
    return out


def _split_candidates(T, degree_bound):
    """Deterministic sequence of nonconstant probe polynomials."""
    q = T.element_count()
    cap = q ** (degree_bound + 2)
    for n in itertools.count(q):
        if n > cap:
            raise InternalInconsistency("equal-degree splitting exhausted its candidates")
        digits = []
        m = n
        while m:
            digits.append(T.element_from_index(m % q))
            m //= q
        yield UniPoly(T, digits)


def _edf(f, d):
    """Split a product of degree-d irreducibles into its monic factors."""
    out = []
    stack = [f]
    while stack:
        cur = stack.pop()
        if cur.degree == d:
            out.append(cur.monic())
            continue
        g = _edf_split(cur, d)
        stack.append(g)
        stack.append(cur.exact_div(g))
    return out


def _edf_split(f, d):
    T = f.tower
    p = T.char
    q = T.element_count()
    for u in _split_candidates(T, f.degree):
        g = u.gcd(f)
        if 0 < g.degree < f.degree:
            return g
        if p == 2:
            m = q.bit_length() - 1
            cur = u.mod(f)
            acc = cur
            for _ in range(m * d - 1):
                cur = cur.pow_mod(2, f)
                acc = acc.add(cur)
            g = acc.gcd(f)
        else:
            e = (q ** d - 1) // 2
            w = u.pow_mod(e, f)
            g = w.sub(UniPoly.one(T)).gcd(f)
        if 0 < g.degree < f.degree:
            return g
    raise InternalInconsistency("equal-degree splitting found no proper factor")


# -------------------------------------------------------------- rational case

def _factor_rationals(g):
    import sympy
    from fractions import Fraction

    t = sympy.Symbol("t")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(g.coeffs)],
        t,
        domain="QQ",
    )
    _, pairs = poly.factor_list()
    out = []
    for fac, mult in pairs:
        coeffs = [
            Fraction(int(r.p), int(r.q)) for r in reversed(fac.all_coeffs())
        ]
        out.extend([UniPoly(QQ, coeffs).monic()] * mult)
    out.sort(key=_poly_key)
    return out


# ---------------------------------------------------------------- tower case

def _factor_trager(f):
    """Factor a monic squarefree f over a rational tower of height >= 1."""
    K = f.tower
    sub = K.prefix(K.height - 1)
    deg_top = K.level_degree(K.height - 1)
    if deg_top == 1:
        # the top level is a relabeling; descend, factor, lift back
        down = UniPoly(sub, [K.components_over(sub, c)[0] for c in f.coeffs])
        return [
            UniPoly(K, [K.lift_from(sub, c) for c in g.coeffs])
            for g in _factor_squarefree_monic(down)
        ]
    alpha = K.generator()
    minpoly = [UniPoly.constant(sub, c) for c in K.levels[-1][1]]
    for s in itertools.count(0):
        shifted = f.shift(K.neg(K.mul(K.from_int(s), alpha)))
        # rewrite with the top generator as a formal variable t
        comps = [K.components_over(sub, c) for c in shifted.coeffs]
        tcoeffs = []
        for i in range(deg_top):
            tcoeffs.append(UniPoly(sub, [row[i] for row in comps]))
        while tcoeffs and tcoeffs[-1].is_zero():
            tcoeffs.pop()
        if len(tcoeffs) <= 1:
            if s == 0:
                continue
            raise InternalInconsistency("shifted polynomial lost its generator")
        norm = _sylvester_det(minpoly, tcoeffs)
        if norm.gcd(norm.derivative()).degree != 0:
            continue
        pieces = _factor_squarefree_monic(norm.monic())
        back = K.mul(K.from_int(s), alpha)
        out = []
        rest = f
        for h in sorted(pieces, key=_poly_key):
            lifted = UniPoly(K, [K.lift_from(sub, c) for c in h.coeffs])
            g = rest.gcd(lifted.shift(back))
            if g.degree > 0:
                out.append(g.monic())
                rest = rest.exact_div(g)
        if rest.degree != 0:
            raise InternalInconsistency("norm factors did not account for all of f")
        out.sort(key=_poly_key)
        return out


def _sylvester_det(A, B):
    """Resultant of A and B (t-coefficient lists over K[x]) up to sign."""
    sub = A[0].tower
    m = len(A) - 1
    l = len(B) - 1
    zero = UniPoly.zero(sub)
    arev = list(reversed(A))
    brev = list(reversed(B))
    rows = []
    for i in range(l):
        rows.append([zero] * i + arev + [zero] * (l - 1 - i))
    for i in range(m):
        rows.append([zero] * i + brev + [zero] * (m - 1 - i))
    return _det_bareiss(rows)


def _det_bareiss(M):
    """Fraction-free determinant; entries are UniPoly over one tower."""
    n = len(M)
    sub = M[0][0].tower
    sign = 1
    prev = UniPoly.one(sub)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for r in range(k + 1, n):
                if not M[r][k].is_zero():
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return UniPoly.zero(sub)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j].mul(M[k][k]).sub(M[i][k].mul(M[k][j]))
                M[i][j] = num.exact_div(prev)
            M[i][k] = UniPoly.zero(sub)
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det.neg() if sign < 0 else det
