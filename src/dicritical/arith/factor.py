"""Univariate factorization over field towers.

Three regimes share one entry point, factor_univariate:

  * prime-characteristic towers: distinct-degree then equal-degree splitting,
    with a deterministic candidate sequence so repeated runs agree;
  * the plain rationals: Zassenhaus's algorithm, which factors modulo a
    small prime with the finite-field code, Hensel-lifts the factors past
    the Mignotte bound and recombines them by trial division over Z;
  * rational extension towers: Trager's norm descent to the level below.

All returned factors are monic and canonically ordered.

The squarefree split and the finite regime run on coefficient lists with the
top level's kernels, the list power kernel fields.pow_mod and the one
Euclid, polynomials._gcd_coeffs; a UniPoly is built only for each factor
returned.  Over F_q, x^q mod f is taken once per squarefree part f of
degree n, and the q-power map is kept as the n x n matrix whose columns are
x^(q i) mod f: each later distinct-degree step is one matrix-vector product
instead of a power by q, and for odd q an equal-degree split of degree
d >= 2 raises the norm u u^q ... u^(q^(d-1)) to (q - 1)/2, not u to
(q^d - 1)/2.  The parse-time degree budget, MAX_FRAME_DEGREE = 1024, bounds
n, so a matrix holds at most about a million coefficients.
"""

import itertools
import math
import operator

from .fields import QQ, FieldTower, _convolution, _is_prime, _long_division, inv_mod, pow_mod, trim
from .polynomials import UniPoly, _gcd_coeffs, _monic_coeffs
from ..errors import BudgetExceeded, InternalInconsistency, NotIrreducible, ZeroPolynomial


def _key(T, a):
    """The canonical order of coefficient lists over T: degree, then coefficients."""
    return (len(a), tuple(map(T.sort_key, a)))


def _poly_key(p):
    return _key(p.tower, p.coeffs)


def squarefree_decomposition(f):
    """f = lc * prod g_i^(m_i) with the g_i monic, squarefree, coprime.

    Returns (lc, [(g_i, m_i), ...]) sorted by multiplicity then key.
    """
    lc, parts = _squarefree_parts(f)
    return lc, [(UniPoly(f.tower, g), m) for g, m in parts]


def _squarefree_parts(f):
    """squarefree_decomposition with each g_i a coefficient list."""
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    T = f.tower
    parts = _sqf_monic(T, _monic_coeffs(T.top, list(f.coeffs)), 1)
    parts.sort(key=lambda gm: (gm[1], _key(T, gm[0])))
    return f.lc(), parts


def _sqf_monic(T, f, scale):
    level = T.top
    if len(f) == 1:
        return []
    c = _gcd_coeffs(level, f, _derivative(T, f))
    if len(c) == 1:
        return [(f, scale)]
    w = _quo(level, f, c)
    out = []
    i = 1
    while len(w) > 1:
        y = _gcd_coeffs(level, w, c)
        z = _quo(level, w, y)
        if len(z) > 1:
            out.append((z, i * scale))
        w = y
        c = _quo(level, c, y)
        i += 1
    if len(c) > 1:
        p = T.char
        if not p:
            raise InternalInconsistency("nontrivial inseparable part in characteristic zero")
        out.extend(_sqf_monic(T, _pth_root(T, c), scale * p))
    return out


def _pth_root(T, f):
    """p-th root of a polynomial lying in K[x^p], over a finite tower."""
    p = T.char
    if any(not T.is_zero(c) for k, c in enumerate(f) if k % p):
        raise InternalInconsistency("polynomial is not a p-th power")
    e = T.element_count() // p
    return [T.pow(c, e) for c in f[::p]]


def _derivative(T, a):
    mul = T.top.mul
    return trim([mul(T.from_int(k), c) for k, c in enumerate(a)][1:], T.top.is_zero)


def _quo(level, a, b):
    """a / b for a monic b that divides a."""
    return level.pdivmod(a, b)[0]


def _sub(level, a, b):
    pairs = itertools.zip_longest(a, b, fillvalue=level.zero)
    return trim([level.sub(s, t) for s, t in pairs], level.is_zero)


def _padded(level, a, n):
    return list(a) + [level.zero] * (n - len(a))


def factor_univariate(f):
    """Full factorization: (lc, [(monic irreducible, multiplicity), ...])."""
    if f.degree == 1:
        return f.lc(), [(f.monic(), 1)]
    T = f.tower
    lc, squarefree = _squarefree_parts(f)
    out = [(irr, m) for g, m in squarefree for irr in _factor_squarefree_monic(T, g)]
    out.sort(key=lambda im: _key(T, im[0]))
    return lc, [(UniPoly(T, irr), m) for irr, m in out]


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


def _factor_squarefree_monic(T, g):
    """The monic irreducible factors of the monic squarefree list g over T,
    as lists in canonical order."""
    if len(g) == 2:
        return [g]
    if T.is_rationals:
        return _factor_rationals(g)
    if not T.char:
        return [list(h.coeffs) for h in _factor_trager(UniPoly(T, g))]
    parts, cols = _ddf(T, g)
    out = [u for part, d in parts for u in _edf(T, part, d, cols)]
    out.sort(key=lambda u: _key(T, u))
    return out


# ---------------------------------------------------------------- finite case
#
# Von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14.  The q-power
# map modulo f is linear over F_q, as every coefficient is its own q-th power.

def _frobenius(level, f, xq):
    """The columns x^(q i) mod f, i < deg f, of deg f coefficients each,
    from xq = x^q mod f."""
    mul = level.mulmod(f)
    cols = [_padded(level, [level.one], len(f) - 1), xq]
    while len(cols) < len(f) - 1:
        cols.append(mul(cols[-1], xq))
    return cols


def _qth_power(level, cols, h):
    """h^q modulo f, for a residue h and the columns of f's q-power map."""
    out = [level.zero] * len(cols)
    for c, col in zip(h, cols):
        if not level.is_zero(c):
            out = list(map(level.times(c)[1], out, col))
    return out


def _ddf(T, f):
    """Distinct-degree split of a monic squarefree f over a finite tower: the
    pairs (product of the factors of degree d, d), and the columns of the
    q-power map modulo f, or None when no step past the first needed them."""
    level = T.top
    x = [level.zero, level.one]
    h = _padded(level, pow_mod(level, x, T.element_count(), f), len(f) - 1)
    cols, v, d, out = None, f, 0, []
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        if d > 1:
            if cols is None:
                cols = _frobenius(level, f, h)
            h = _qth_power(level, cols, h)
        # h is x^(q^d) modulo f, a multiple of v
        g = _gcd_coeffs(level, _sub(level, h, x), v)
        if len(g) > 1:
            out.append((g, d))
            v = _quo(level, v, g)
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out, cols


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
        yield digits


def _edf(T, f, d, cols):
    """Split a product of degree-d irreducibles into its monic factors; cols
    is the q-power map modulo a multiple of f, as _ddf returns it."""
    out = []
    stack = [f]
    while stack:
        cur = stack.pop()
        if len(cur) - 1 == d:
            out.append(cur)
            continue
        g = _edf_split(T, cur, d, cols)
        stack.append(g)
        stack.append(_quo(T.top, cur, g))
    return out


def _edf_split(T, f, d, cols):
    level = T.top
    p = T.char
    q = T.element_count()
    n = len(f) - 1
    mul = level.mulmod(f)
    if p != 2 and d > 1:
        cols = [_padded(level, level.pdivmod(c, f)[1], n) for c in cols[:n]]
    for u in _split_candidates(T, n):
        g = _gcd_coeffs(level, u, f)
        if 1 < len(g) < len(f):
            return g
        cur = _padded(level, level.pdivmod(u, f)[1], n)
        if p == 2:
            # the trace u + u^2 + ... + u^(2^(m d - 1)) for q = 2^m
            acc = cur
            for _ in range((q.bit_length() - 1) * d - 1):
                cur = mul(cur, cur)
                acc = list(map(level.add, acc, cur))
            g = _gcd_coeffs(level, trim(acc, level.is_zero), f)
        else:
            # u^((q^d - 1)/2) is N^((q - 1)/2) for the norm N = u u^q ... u^(q^(d-1))
            norm = cur
            for _ in range(d - 1):
                cur = _qth_power(level, cols, cur)
                norm = mul(norm, cur)
            w = pow_mod(level, norm, (q - 1) // 2, f)
            g = _gcd_coeffs(level, _sub(level, w, [level.one]), f)
        if 1 < len(g) < len(f):
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
    """Monic irreducible factors of a monic squarefree g in Q[t], deg g >= 2,
    as coefficient lists in canonical order."""
    denominator = 1
    for c in g:
        denominator = denominator * c.denominator // math.gcd(denominator, c.denominator)
    f = _primitive([c.numerator * (denominator // c.denominator) for c in g])
    best = None
    for T, fbar in itertools.islice(_good_reductions(f), _PRIME_TRIALS):
        parts, cols = _ddf(T, fbar)
        count = sum((len(part) - 1) // d for part, d in parts)
        if best is None or count < best[0]:
            best = (count, T, parts, cols)
        if count == 1:
            return [g]
    _, T, parts, cols = best
    p = T.char
    modular = [u for part, d in parts for u in _edf(T, part, d, cols)]
    # twice the Mignotte bound on the coefficients of a factor h of f, times
    # lc(f): symmetric residues mod anything larger give lc(f)/lc(h) * h exactly
    n = len(f) - 1
    bound = 2 * f[-1] * (math.isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift(f, modular, p, modulus)
    out = [_monic_coeffs(QQ.top, h) for h in _recombine(f, lifted, modulus)]
    out.sort(key=lambda h: _key(QQ, h))
    return out


def _good_reductions(f):
    """F_p and f mod p, made monic, for the primes p > 2 that keep f squarefree."""
    for p in itertools.count(3, 2):
        if f[-1] % p and _is_prime(p):
            T = FieldTower.prime_field(p)
            lead = pow(f[-1], -1, p)
            fbar = [c * lead % p for c in f]
            if len(_gcd_coeffs(T.top, fbar, _derivative(T, fbar))) == 1:
                yield T, fbar


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
        norm = _monic_coeffs(sub.top, list(_sylvester_det(minpoly, tcoeffs).coeffs))
        if len(_gcd_coeffs(sub.top, norm, _derivative(sub, norm))) != 1:
            continue
        back = K.mul(K.from_int(s), alpha)
        out = []
        rest = f
        for h in _factor_squarefree_monic(sub, norm):
            lifted = UniPoly(K, [K.lift_from(sub, c) for c in h])
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
