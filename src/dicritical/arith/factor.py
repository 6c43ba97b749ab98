"""Univariate factorization over field towers.

Three regimes share one entry point, factor_univariate:

  * prime-characteristic towers: distinct-degree then equal-degree splitting,
    with a deterministic candidate sequence so repeated runs agree;
  * the plain rationals: Zassenhaus's algorithm, which factors modulo a
    small prime with the finite-field code, Hensel-lifts the factors past
    the Mignotte bound and recombines them by trial division over Z;
  * rational extension towers: Trager's norm descent to the level below.

All returned factors are monic and canonically ordered.
"""

import itertools
import math
import operator

from .fields import QQ, FieldTower, _convolution, _is_prime, _long_division, inv_mod, trim
from .polynomials import UniPoly
from ..errors import BudgetExceeded, InternalInconsistency, NotIrreducible, ZeroPolynomial


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
    if f.degree == 1:
        return f.lc(), [(f.monic(), 1)]
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


def extend(tower, minpoly, name, check=True):
    """Tower extended by a root of minpoly; verifies irreducibility by default."""
    if minpoly.degree < 2:
        raise ValueError("an extension needs a minimal polynomial of degree >= 2")
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
    if T.is_rationals:
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
#
# Zassenhaus's algorithm (von zur Gathen and Gerhard, Modern Computer
# Algebra, ch. 15-16) on int coefficient lists, low to high: factor mod a
# small prime, Hensel-lift the factors past the Mignotte bound, recombine.

# subsets of lifted factors tried before recombination gives up (exit 5);
# irreducible polynomials with many modular factors need 2^(r-1) of them
MAX_RECOMBINATION_SUBSETS = 1 << 14
# good primes whose factor counts are compared before one is chosen
_PRIME_TRIALS = 5


def _factor_rationals(g):
    """Monic irreducible factors of a monic squarefree g in Q[t], deg g >= 2."""
    denominator = 1
    for c in g.coeffs:
        denominator = denominator * c.denominator // math.gcd(denominator, c.denominator)
    f = _primitive([c.numerator * (denominator // c.denominator) for c in g.coeffs])
    best = None
    for fbar in itertools.islice(_good_reductions(f), _PRIME_TRIALS):
        parts = _ddf(fbar)
        count = sum(part.degree // d for part, d in parts)
        if best is None or count < best[0]:
            best = (count, fbar.tower.char, parts)
        if count == 1:
            return [g]
    _, p, parts = best
    modular = [list(u.coeffs) for part, d in parts for u in _edf(part, d)]
    # twice the Mignotte bound on the coefficients of a factor h of f, times
    # lc(f): symmetric residues mod anything larger give lc(f)/lc(h) * h exactly
    n = len(f) - 1
    bound = 2 * f[-1] * (math.isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift(f, modular, p, modulus)
    out = [UniPoly(QQ, h).monic() for h in _recombine(f, lifted, modulus)]
    out.sort(key=_poly_key)
    return out


def _good_reductions(f):
    """f mod p, made monic, for the primes p > 2 that keep it squarefree."""
    for p in itertools.count(3, 2):
        if f[-1] % p and _is_prime(p):
            fbar = UniPoly(FieldTower.prime_field(p), [c % p for c in f]).monic()
            if fbar.gcd(fbar.derivative()).degree == 0:
                yield fbar


def _hensel_lift(f, modular, p, modulus):
    """Monic lifts of f's monic factors mod p to factors mod p^(2^j) = modulus."""
    level = FieldTower.prime_field(p).top
    out = []
    while len(modular) > 1:
        h = modular.pop()
        g = [f[-1]]
        for u in modular:
            g = _zmul(g, u, p)
        s, t = _bezout(level, g, h)
        m = p
        while m < modulus:
            g, h, s, t = _hensel_step(f, g, h, s, t, m)
            m *= m
        out.append(h)
        f = g
    return [_zmul(f, [pow(f[-1], -1, modulus)], modulus)] + out[::-1]


def _hensel_step(f, g, h, s, t, m):
    """f = g h and s g + t h = 1 mod m, h monic, lifted to mod m^2 (vzGG 15.10)."""
    m *= m
    e = _zadd(f, _zmul(g, h, m), m, -1)
    q, r = _zdivmod(_zmul(s, e, m), h, m)
    g = _zadd(_zadd(g, _zmul(t, e, m), m), _zmul(q, g, m), m)
    h = _zadd(h, r, m)
    b = _zadd(_zadd(_zmul(s, g, m), _zmul(t, h, m), m), [1], m, -1)
    c, d = _zdivmod(_zmul(s, b, m), h, m)
    s = _zadd(s, d, m, -1)
    t = _zadd(_zadd(t, _zmul(t, b, m), m, -1), _zmul(c, g, m), m, -1)
    return g, h, s, t


def _recombine(f, lifted, m):
    """Irreducible factors of the primitive f over Z from its lifted factors.

    Leading coefficient trick: lc(f) times a subset's product, taken with
    symmetric residues, is lc(f)/lc(h) * h for every true factor h.
    """
    factors, size, tried = [], 1, 0
    while 2 * size <= len(lifted):
        indices = range(len(lifted))
        if 2 * size == len(lifted):
            # a subset and its complement are one split: keep the first factor
            subsets = ((0,) + c for c in itertools.combinations(indices[1:], size - 1))
        else:
            subsets = itertools.combinations(indices, size)
        for subset in subsets:
            tried += 1
            if tried > MAX_RECOMBINATION_SUBSETS:
                raise BudgetExceeded(
                    "factoring a degree-%d polynomial over Q tried more than "
                    "MAX_RECOMBINATION_SUBSETS = %d subsets of its %d modular factors"
                    % (len(f) - 1, MAX_RECOMBINATION_SUBSETS, len(lifted))
                )
            # cheap filter first: the constant term of lc(f)/lc(h) * h divides lc(f) f(0)
            c0 = f[-1]
            for i in subset:
                c0 = c0 * lifted[i][0] % m
            c0 = c0 - m if 2 * c0 > m else c0
            if (f[-1] * f[0] % c0 if c0 else f[0]) != 0:
                continue
            h = [f[-1]]
            for i in subset:
                h = _zmul(h, lifted[i], m)
            h = _primitive([c - m if 2 * c > m else c for c in h])
            quotient = _zexact_div(f, h)
            if quotient is not None:
                factors.append(h)
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _primitive(a):
    content = math.gcd(*a)
    return [c // content for c in a]


def _zexact_div(f, g):
    """f / g over Z, or None when g does not divide f."""
    r, d = list(f), len(g) - 1
    q = [0] * (len(f) - d)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + d], g[-1])
        if rem:
            return None
        q[k] = c
        for i, y in enumerate(g):
            r[k + i] -= c * y
    return None if any(r[:d]) else q


def _zadd(a, b, m, sign=1):
    pairs = itertools.zip_longest(a, b, fillvalue=0)
    return trim([(x + sign * y) % m for x, y in pairs], operator.not_)


def _zmul(a, b, m):
    return trim([c % m for c in _convolution(a, b, 0)], operator.not_)


def _zdivmod(a, b, m):
    """Quotient and remainder mod m; the leading coefficient of b is a unit."""
    inv = pow(b[-1], -1, m)
    q, r = _long_division(list(a), [c * inv % m for c in b], m.__rmod__)
    return trim([c * inv % m for c in q], operator.not_), trim([c % m for c in r], operator.not_)


def _bezout(level, g, h):
    """s, t with s g + t h = 1 over the prime field level, for g and the monic
    h coprime: s = 1/g mod h and t = 1/h mod g.  Then s g + t h - 1 vanishes
    modulo g and modulo h and has degree below deg g + deg h, so it is zero;
    and these are the only s, t with deg s < deg h and deg t < deg g."""
    lead = level.inv(g[-1])
    return inv_mod(level, g, h), inv_mod(level, h, [level.mul(lead, c) for c in g])


# ---------------------------------------------------------------- tower case

def _factor_trager(f):
    """Factor a monic squarefree f over a rational tower of height >= 1."""
    K = f.tower
    sub = K.prefix(K.height - 1)
    deg_top = K.level_degree(K.height - 1)
    alpha = K.generator()
    minpoly = [UniPoly.constant(sub, c) for c in K.levels[-1][1]]
    for s in itertools.count(0):
        shifted = f.shift(K.neg(K.mul(K.from_int(s), alpha)))
        # rewrite with the top generator as a formal variable t
        comps = [K.components_over(sub, c) for c in shifted.coeffs]
        tcoeffs = [UniPoly(sub, [row[i] for row in comps]) for i in range(deg_top)]
        trim(tcoeffs, UniPoly.is_zero)
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
