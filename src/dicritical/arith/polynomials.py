"""Exact univariate and sparse bivariate polynomials over a field tower.

UniPoly stores coefficients low to high and trims trailing zeros.  BiPoly is
a sparse exponent dict keyed by (i, j).  Both are value objects: operations
return fresh instances and never mutate their arguments.
"""

from functools import partial
from itertools import zip_longest

from .fields import trim
from ..errors import InternalInconsistency, ZeroPolynomial


def _scaling(level, c, n):
    """a -> c * a, for n elements that share c.  At an extension level the
    times kernel's set-up costs about one product and each of its products
    about half of one: it breaks even at two to three elements for degrees
    2 to 6, so it serves four or more."""
    return level.times(c)[0] if n > 3 else partial(level.mul, c)


def _taylor_shift(a, addmul):
    """The list a, low to high, replaced in place by the coefficients of
    a(t + c), where addmul(s, x) = s + c * x: n(n + 1)/2 multiply-adds for
    degree n (Horner's rule, once per degree)."""
    for k in range(len(a) - 1):
        for j in range(len(a) - 2, k - 1, -1):
            a[j] = addmul(a[j], a[j + 1])
    return a


class UniPoly:
    """Dense univariate polynomial over a FieldTower."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", tuple(trim(list(coeffs), tower.top.is_zero)))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls, tower):
        return cls(tower, ())

    @classmethod
    def one(cls, tower):
        return cls(tower, (tower.one(),))

    @classmethod
    def constant(cls, tower, c):
        return cls(tower, (c,))

    @classmethod
    def gen(cls, tower):
        return cls(tower, (tower.zero(), tower.one()))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.tower.zero()

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.tower == other.tower
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def __repr__(self):
        return "UniPoly(%s)" % self.render("t")

    def add(self, other):
        level = self.tower.top
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=level.zero)
        return UniPoly(self.tower, [level.add(a, b) for a, b in pairs])

    def sub(self, other):
        level = self.tower.top
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=level.zero)
        return UniPoly(self.tower, [level.sub(a, b) for a, b in pairs])

    def neg(self):
        neg = self.tower.top.neg
        return UniPoly(self.tower, [neg(c) for c in self.coeffs])

    def scale(self, c):
        return UniPoly(self.tower, map(_scaling(self.tower.top, c, len(self.coeffs)), self.coeffs))

    def mul(self, other):
        return UniPoly(self.tower, self.tower.top.pmul(self.coeffs, other.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        T = self.tower
        level = T.top
        m = other.coeffs
        if m[-1] == level.one:
            quo, rem = level.pdivmod(self.coeffs, m)
        else:
            # the scaling serves m and the quotient, len(a) - len(m) + 1 long
            scale = _scaling(level, level.inv(m[-1]), max(len(self.coeffs) + 1, len(m)))
            quo, rem = level.pdivmod(self.coeffs, list(map(scale, m)))
            quo = list(map(scale, quo))
        return UniPoly(T, quo), UniPoly(T, rem)

    def mod(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.tower.inv(self.lc()))

    def gcd(self, other):
        if other.is_zero():
            return self.monic()
        level = self.tower.top
        a, b = self.coeffs, other.coeffs
        while b:
            b = list(map(_scaling(level, level.inv(b[-1]), len(b)), b))
            a, b = b, trim(level.pdivmod(a, b)[1], level.is_zero)
        return UniPoly(self.tower, a)

    def derivative(self):
        T = self.tower
        mul = T.top.mul
        return UniPoly(T, [mul(T.from_int(k), c) for k, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, e, modulus):
        """self^e modulo modulus, on residues of deg(modulus) coefficients until the end."""
        if e < 0:
            raise ValueError("negative exponent")
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        level = self.tower.top
        m = modulus.monic().coeffs
        mul = level.mulmod(m)
        base = level.pdivmod(self.coeffs, m)[1]
        base += [level.zero] * (len(m) - 1 - len(base))
        acc = (level.one,)
        while e:
            if e & 1:
                acc = mul(acc, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return UniPoly(self.tower, acc)

    def shift(self, c):
        """p(t + c) by the Taylor shift: n(n + 1)/2 multiply-adds for degree n."""
        level = self.tower.top
        if level.is_zero(c):
            return self
        return UniPoly(self.tower, _taylor_shift(list(self.coeffs), level.times(c)[1]))

    def render(self, varname):
        T = self.tower
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if T.is_zero(c):
                continue
            parts.append(_term_str(T, c, ((varname, k),), first=not parts))
        return " ".join(parts)


def _coeff_str(tower, c):
    s = tower.render(c)
    if any(ch in s[1:] for ch in "+-") or " " in s:
        return "(" + s + ")", False
    return s, s.startswith("-")


def _term_str(tower, c, powers, first):
    """One rendered summand; powers is ((name, exp), ...) with exp >= 0."""
    body, negative = _coeff_str(tower, c)
    if negative:
        body = body[1:]
    factors = []
    for name, e in powers:
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append("%s^%d" % (name, e))
    if factors:
        if body == "1":
            body = "*".join(factors)
        else:
            body = body + "*" + "*".join(factors)
    if first:
        return "-" + body if negative else body
    return ("- " if negative else "+ ") + body


class BiPoly:
    """Sparse bivariate polynomial: {(i, j): coeff} with named variables."""

    __slots__ = ("tower", "vars", "terms")

    def __init__(self, tower, vars, terms):
        vars = tuple(vars)
        if len(vars) != 2 or vars[0] == vars[1]:
            raise ValueError("need two distinct variable names")
        is_zero = tower.top.is_zero
        clean = {}
        for key, c in terms.items():
            i, j = key
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            if not is_zero(c):
                clean[(i, j)] = c
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def _trusted(cls, tower, vars, terms):
        """A BiPoly that takes terms as they are: the caller knows every
        exponent nonnegative and every coefficient nonzero, and vars a pair."""
        f = object.__new__(cls)
        object.__setattr__(f, "tower", tower)
        object.__setattr__(f, "vars", vars)
        object.__setattr__(f, "terms", terms)
        return f

    @classmethod
    def zero(cls, tower, vars):
        return cls(tower, vars, {})

    @classmethod
    def one(cls, tower, vars):
        return cls(tower, vars, {(0, 0): tower.one()})

    @classmethod
    def from_int(cls, tower, vars, n):
        return cls(tower, vars, {(0, 0): tower.from_int(n)})

    @classmethod
    def variable(cls, tower, vars, name):
        vars = tuple(vars)
        if name == vars[0]:
            return cls(tower, vars, {(1, 0): tower.one()})
        if name == vars[1]:
            return cls(tower, vars, {(0, 1): tower.one()})
        raise ValueError("unknown variable %r" % name)

    @classmethod
    def monomial(cls, tower, vars, exps, c=None):
        if c is None:
            c = tower.one()
        return cls(tower, vars, {tuple(exps): c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.tower == other.tower
            and self.vars == other.vars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return "BiPoly(%s)" % self.render()

    def coeff(self, i, j):
        return self.terms.get((i, j), self.tower.zero())

    def add(self, other):
        add = self.tower.top.add
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                out[key] = add(out[key], c)
            else:
                out[key] = c
        return BiPoly(self.tower, self.vars, out)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        neg = self.tower.top.neg
        return BiPoly(self.tower, self.vars, {k: neg(c) for k, c in self.terms.items()})

    def scale(self, c):
        return self.mul_monomial((0, 0), c)

    def mul(self, other):
        level = self.tower.top
        out = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                key = (i1 + i2, j1 + j2)
                if key in out:
                    out[key] = level.addmul(out[key], a, b)
                else:
                    out[key] = level.mul(a, b)
        return BiPoly(self.tower, self.vars, out)

    def mul_monomial(self, exps, c=None):
        T = self.tower
        di, dj = exps
        if c is None:
            return BiPoly(T, self.vars, {(i + di, j + dj): a for (i, j), a in self.terms.items()})
        scale = _scaling(T.top, c, len(self.terms))
        return BiPoly(
            T, self.vars, {(i + di, j + dj): scale(a) for (i, j), a in self.terms.items()}
        )

    def pow(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        acc = BiPoly.one(self.tower, self.vars)
        base = self
        while e:
            if e & 1:
                acc = acc.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return acc

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        return self.mul(other)

    def __pow__(self, e):
        return self.pow(e)

    def __neg__(self):
        return self.neg()

    @property
    def total_degree(self):
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def degree_in(self, axis):
        if not self.terms:
            return -1
        return max(k[axis] for k in self.terms)

    def ord_at_origin(self):
        """Order of vanishing at the origin (min total degree of a term)."""
        if not self.terms:
            raise ZeroPolynomial("order of the zero polynomial is undefined")
        return min(i + j for i, j in self.terms)

    def initial_form(self):
        d = self.ord_at_origin()
        return BiPoly(
            self.tower, self.vars, {k: c for k, c in self.terms.items() if k[0] + k[1] == d}
        )

    def degree_form(self):
        if not self.terms:
            raise ZeroPolynomial("degree form of the zero polynomial is undefined")
        d = self.total_degree
        return BiPoly(
            self.tower, self.vars, {k: c for k, c in self.terms.items() if k[0] + k[1] == d}
        )

    def is_unit_at_origin(self):
        return not self.tower.is_zero(self.coeff(0, 0))

    def is_constant(self):
        return all(k == (0, 0) for k in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {i + j for i, j in self.terms}
        return len(degs) == 1

    def derivative(self, axis):
        T = self.tower
        mul = T.top.mul
        out = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[axis]
            if e:
                out[(i - 1, j) if axis == 0 else (i, j - 1)] = mul(T.from_int(e), c)
        return BiPoly(T, self.vars, out)

    def shifted(self, c, scale=None):
        """f(x, y + c), times scale: the y-polynomial at each power of x,
        Taylor-shifted, and each coefficient scaled as it is made.  A nonzero
        scale keeps a coefficient nonzero, and the zeros the shift leaves are
        dropped, so the terms need no second check."""
        T = self.tower
        level = T.top
        times = (lambda a: a) if scale is None else _scaling(level, scale, len(self.terms))
        if level.is_zero(c):
            if scale is None:
                return self
            return BiPoly._trusted(T, self.vars, {e: times(a) for e, a in self.terms.items()})
        rows = {}
        for (i, j), a in self.terms.items():
            rows.setdefault(i, {})[j] = a
        addmul, is_zero = level.times(c)[1], level.is_zero
        out = {}
        for i, row in rows.items():
            a = _taylor_shift([row.get(j, level.zero) for j in range(max(row) + 1)], addmul)
            for j, x in enumerate(a):
                if not is_zero(x):
                    out[i, j] = times(x)
        return BiPoly._trusted(T, self.vars, out)

    def lift_to(self, bigger):
        T = self.tower
        # an embedding keeps every coefficient nonzero
        return BiPoly._trusted(
            bigger, self.vars, {k: bigger.lift_from(T, c) for k, c in self.terms.items()}
        )

    def normalized(self):
        """Scale so the lex-least exponent has coefficient one."""
        if not self.terms:
            return self
        key = min(self.terms)
        return self.scale(self.tower.inv(self.terms[key]))

    def exact_div(self, divisor):
        """Exact division in K[x, y]; raises ValueError when not exact."""
        T = self.tower
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        if divisor.is_monomial():
            (di, dj), c = next(iter(divisor.terms.items()))
            if any(i < di or j < dj for i, j in self.terms):
                raise ValueError("division is not exact")
            return self.mul_monomial((-di, -dj), None if c == T.one() else T.inv(c))
        fy = self.to_ylist()
        gy = divisor.to_ylist()
        dg = len(gy) - 1
        if dg == 0:
            q = [p.exact_div(gy[0]) for p in fy]
            return BiPoly.from_ylist(T, self.vars, q)
        quo = [UniPoly.zero(T)] * max(len(fy) - dg, 0)
        rem = fy
        while len(rem) - 1 >= dg:
            trim(rem, UniPoly.is_zero)
            if len(rem) - 1 < dg:
                break
            k = len(rem) - 1 - dg
            t = rem[-1].exact_div(gy[-1])
            quo[k] = t
            for i in range(dg + 1):
                rem[k + i] = rem[k + i].sub(t.mul(gy[i]))
            rem = rem[:-1]
        if trim(rem, UniPoly.is_zero):
            raise ValueError("division is not exact")
        return BiPoly.from_ylist(T, self.vars, quo)

    def to_ylist(self):
        """Recursive view: list of UniPoly in vars[0], indexed by vars[1] power."""
        T = self.tower
        zero = T.top.zero
        dy = self.degree_in(1)
        if dy < 0:
            return []
        rows = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        out = []
        for row in rows:
            n = max(row) + 1 if row else 0
            out.append(UniPoly(T, [row.get(k, zero) for k in range(n)]))
        return trim(out, UniPoly.is_zero)

    @classmethod
    def from_ylist(cls, tower, vars, ylist):
        """The polynomial with the UniPoly ylist[j] in vars[0] at vars[1]^j."""
        return cls(
            tower, vars, {(i, j): c for j, p in enumerate(ylist) for i, c in enumerate(p.coeffs)}
        )

    def dehomogenized(self):
        """For a homogeneous form h, the UniPoly h(1, t) in vars[1]."""
        if not self.is_homogeneous():
            raise ValueError("dehomogenization needs a homogeneous form")
        T = self.tower
        if not self.terms:
            return UniPoly.zero(T)
        d = self.total_degree
        coeffs = [T.top.zero] * (d + 1)
        for (i, j), c in self.terms.items():
            coeffs[j] = c
        return UniPoly(T, coeffs)

    def render(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        parts = []
        for i, j in keys:
            powers = ((self.vars[0], i), (self.vars[1], j))
            parts.append(_term_str(self.tower, self.terms[(i, j)], powers, first=not parts))
        return " ".join(parts)


def _ylist_content(ylist):
    """Monic gcd in K[x] of the coefficients of a K[x][y] polynomial."""
    g = None
    for p in ylist:
        g = p if g is None else g.gcd(p)
        if g.degree == 0:
            break
    return g.monic()


def _ylist_primitive(ylist):
    cont = _ylist_content(ylist)
    if cont.degree == 0:
        return [p.scale(p.tower.inv(cont.coeff(0))) for p in ylist], cont
    return [p.exact_div(cont) for p in ylist], cont


def _ylist_scale(ylist, q):
    return [p.mul(q) for p in ylist]


def _ylist_prem(f, g):
    """Pseudo-remainder of f by g in K[x][y]; both nonempty, deg f >= deg g."""
    f = list(f)
    dg = len(g) - 1
    lcg = g[-1]
    steps = len(f) - len(g) + 1
    for _ in range(steps):
        df = len(f) - 1
        top = f[-1]
        f = _ylist_scale(f, lcg)
        for k in range(dg + 1):
            f[df - dg + k] = f[df - dg + k].sub(top.mul(g[k]))
        trim(f, UniPoly.is_zero)
        if len(f) - 1 < dg:
            break
    return f


def bipoly_gcd(f, *others):
    """Gcd in K[x, y] of f and the others, normalized so the lex-least exponent
    has coefficient 1.

    The monomial parts split off exactly (x and y are prime), and when one
    of the polynomials is a monomial nothing else is left (_monomial_gcd).
    One specialization certificate covers all the rest at once; when it fails,
    the PRS takes the gcd of the first two and each further polynomial is
    certified coprime to the running gcd or taken into it by the PRS.
    """
    polys = (f,) + others
    monomial = _monomial_gcd(polys)
    if monomial is not None:
        return monomial
    polys = [p for p in polys if not p.is_zero()]
    if len(polys) < 2:
        return (polys[0] if polys else f).normalized()
    split = [_split_monomial(p) for p in polys]
    shift = (min(a for (a, _), _ in split), min(b for (_, b), _ in split))
    rest = [p0 for _, p0 in split]
    if _coprime_by_specialization(rest):
        return BiPoly.monomial(f.tower, f.vars, shift)
    g = _prs_gcd(rest[0], rest[1])
    for p in rest[2:]:
        if g.is_constant() or _coprime_by_specialization([g, p]):
            return BiPoly.monomial(f.tower, f.vars, shift)
        g = _prs_gcd(g, p)
    return g.mul_monomial(shift)


def _monomial_gcd(polys):
    """The gcd of polys when one of them is a monomial x^a·y^b, else None.
    x and y are prime, so that one shares x^min(a, ord_x g)·y^min(b, ord_y g)
    with each nonzero g: the gcd is the least such monomial.  A zero g has
    no terms and shares every factor."""
    if not any(p.is_monomial() for p in polys):
        return None
    exps = [e for p in polys for e in p.terms]
    least = (min(i for i, _ in exps), min(j for _, j in exps))
    return BiPoly.monomial(polys[0].tower, polys[0].vars, least)


def _split_monomial(f):
    """((a, b), f0) with f = x^a * y^b * f0 and f0 divisible by neither variable."""
    a, b = min(i for i, _ in f.terms), min(j for _, j in f.terms)
    return (a, b), f.mul_monomial((-a, -b))


def _specialize(f, axis, c):
    """f with the variable other than vars[axis] set to c, as a UniPoly in vars[axis]."""
    T = f.tower
    level = T.top
    unit = c == level.one
    coeffs = [level.zero] * (f.degree_in(axis) + 1)
    for key, a in f.terms.items():
        if key[1 - axis] and not unit:
            a = level.mul(a, T.pow(c, key[1 - axis]))
        coeffs[key[axis]] = level.add(coeffs[key[axis]], a)
    return UniPoly(T, coeffs)


def _coprime_by_specialization(polys):
    """True only if the polynomials, none divisible by x or y, share no factor.

    For each variable v of positive degree in all of them, the other is set
    to some c in 1, 2, 3 (0 is useless when all vanish at the origin, as the
    generators of a non-unit ideal do) that keeps lc_v(f0) nonzero, f0 the
    first.  A common factor h has lc_v(h) | lc_v(f0), so h(c) keeps its
    v-degree and divides every specialization; if these have gcd 1, h has
    degree 0 in v.
    """
    f0 = polys[0]
    T = f0.tower
    consts = [c for c in dict.fromkeys(map(T.from_int, (1, 2, 3))) if not T.is_zero(c)]
    for axis in (0, 1):
        if any(p.degree_in(axis) == 0 for p in polys):
            continue
        d = f0.degree_in(axis)
        for c in consts:
            g = _specialize(f0, axis, c)
            if g.degree != d:
                continue
            for p in polys[1:]:
                g = g.gcd(_specialize(p, axis, c))
                if g.degree == 0:
                    break
            if g.degree == 0:
                break
        else:
            return False
    return True


def _prs_gcd(f, g):
    """Gcd of nonzero f and g by the primitive PRS in K[x][y], normalized."""
    T = f.tower
    fp, fc = _ylist_primitive(f.to_ylist())
    gp, gc = _ylist_primitive(g.to_ylist())
    cont = fc.gcd(gc)
    a, b = fp, gp
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _ylist_prem(a, b)
        if not r:
            a = b
            break
        a, b = b, _ylist_primitive(r)[0]
    prim, _ = _ylist_primitive(a)
    contpoly = BiPoly.from_ylist(T, f.vars, [cont])
    return BiPoly.from_ylist(T, f.vars, prim).mul(contpoly).normalized()


def squarefree_part(f):
    """Product of the distinct irreducible factors of f, up to a scalar.

    The derivative gcd removes every factor whose multiplicity is prime to the
    characteristic p.  Over a finite tower the factors of multiplicity
    divisible by p are left in K[x^p, y^p]; their p-th root is recursed on.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial is undefined")
    if f.is_monomial():
        (i, j), _ = next(iter(f.terms.items()))
        return BiPoly.monomial(f.tower, f.vars, (min(i, 1), min(j, 1)))
    if f.is_constant():
        return BiPoly.one(f.tower, f.vars)
    rep = bipoly_gcd(bipoly_gcd(f, f.derivative(0)), f.derivative(1))
    w = f.exact_div(rep)
    if f.tower.char:
        # strip the factors of w from rep; what is left is a p-th power
        g = bipoly_gcd(rep, w)
        while not g.is_constant():
            rep = rep.exact_div(g)
            g = bipoly_gcd(rep, g)
        if not rep.is_constant():
            w = w.mul(squarefree_part(_pth_root(rep)))
    return w.normalized()


def _pth_root(f):
    """p-th root of a polynomial lying in K[x^p, y^p], over a finite tower."""
    T = f.tower
    p = T.char
    e = T.element_count() // p
    terms = {}
    for (i, j), c in f.terms.items():
        if i % p or j % p:
            raise InternalInconsistency("polynomial is not a p-th power")
        terms[(i // p, j // p)] = T.pow(c, e)
    return BiPoly(T, f.vars, terms)

