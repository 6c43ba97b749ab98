"""Dense univariate polynomials over F_p, written for the benchmark alone.

The input generators use them to draw random irreducible factors, so the
inputs do not depend on the engine under test.  Polynomials are lists of
ints in [0, p), low degree first, with no trailing zeros.
"""


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = f[k + dg] * inv % p
        if c:
            for j, b in enumerate(g):
                f[k + j] = (f[k + j] - c * b) % p
    return trim(f[:dg])


def gcd(f, g, p):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, mod(f, g, p)
    return f


def powmod(f, e, m, p):
    out = [1]
    base = mod(f, m, p)
    while e:
        if e & 1:
            out = mod(mul(out, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        e >>= 1
    return out


def _sub(f, g, p):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return trim([(a - b) % p for a, b in zip(f, g)])


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, p):
    """Rabin's test for a monic f of degree d >= 1 over F_p."""
    d = len(f) - 1
    x = [0, 1]
    if d == 1:
        return True
    for q in _prime_factors(d):
        h = powmod(x, p ** (d // q), f, p)
        if len(gcd(_sub(h, x, p), f, p)) > 1:
            return False
    return not _sub(powmod(x, p ** d, f, p), mod(x, f, p), p)


def random_irreducible(rng, p, d):
    """A uniformly drawn monic irreducible polynomial of degree d."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible(f, p):
            return f
