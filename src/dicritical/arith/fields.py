"""Coefficient fields: the rationals or a prime field, extended by a tower
of simple algebraic extensions.

Elements are plain immutable values rather than wrapper objects: over Q an
int when integral, else a Fraction (see rational), an int in [0, p) over
F_p, and a fixed-length tuple of lower-level elements for each extension
level.  The tower object owns the arithmetic; this keeps tight loops
(linear algebra, polynomial products) cheap.

Each level's arithmetic is a set of closures built once, when the tower is
constructed: int and Fraction operations made canonical by rational, or
mod-p int operations, at the ground, and for every extension level
operations composed from the level below.
"""

import operator
from collections import namedtuple
from fractions import Fraction

from ..errors import ZeroInput


# Miller-Rabin with the first thirteen prime bases is proven exact below this
# bound (Sorenson and Webster, 2015); larger characteristics are refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981


def _is_prime(n):
    if n >= _MR_PROVEN_BELOW:
        raise ValueError(
            f"characteristic {n} is beyond the proven primality range (< {_MR_PROVEN_BELOW})"
        )
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The arithmetic of a tower truncated to some number of levels: element
# closures, and kernels on coefficient lists (low to high) over the level:
#   pmul(a, b)     the product;
#   pdivmod(a, m)  the quotient and remainder by a monic m of degree d, the
#                  remainder as a list of min(len(a), d) coefficients;
#   mulmod(m)      for a monic m of degree d, the function (a, b) -> the
#                  remainder of a * b modulo m as a d-tuple, for products of
#                  at least d coefficients;
# and one element kernel for many products by the same element:
#   times(c)       the pair (a -> c * a, (s, a) -> s + c * a).
_Level = namedtuple(
    "_Level", "zero one add sub neg mul addmul submul inv is_zero pmul pdivmod mulmod times"
)


def rational(x):
    """The canonical Q element equal to the int or Fraction x: an int when
    x is integral, else a Fraction with denominator > 1."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _rational_inv(a):
    if not a:
        raise ZeroInput("division by zero")
    return rational(Fraction(1, a))


def _convolution(a, b, zero):
    """The product of the scalar lists a and b, each coefficient one unreduced sum."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _long_division(r, m, reduce):
    """Divide the scalar list r (consumed) by the monic list m: the quotient,
    each coefficient reduced once as it is found, and the unreduced remainder."""
    d = len(m) - 1
    tail = [(j, y) for j, y in enumerate(m[:d]) if y]
    q = [None] * max(len(r) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = reduce(r[k + d])
        if c:
            for j, y in tail:
                r[k + j] -= c * y
    return q, r[:d]


def _composed_mulmod(pmul, pdivmod):
    """The mulmod kernel as a product followed by a division."""

    def mulmod(m):
        return lambda a, b: tuple(pdivmod(pmul(a, b), m)[1])

    return mulmod


def _composed_kernels(mul, add, sub):
    """mul, addmul, submul and times of an extension level whose product is
    mul, over a level below with the given add and sub: each multiply-add
    reduces its product first, and times(c) is mul with c fixed."""
    return (
        mul,
        lambda s, a, b: tuple(map(add, s, mul(a, b))),
        lambda s, a, b: tuple(map(sub, s, mul(a, b))),
        lambda c: (lambda a: mul(c, a), lambda s, a: tuple(map(add, s, mul(c, a)))),
    )


def _scalar_kernels(m, reduce):
    """mul, addmul, submul and times modulo the monic scalar list m of degree
    d over the ground, whose canonical form of an unreduced scalar is reduce.
    Each output coordinate is one unreduced sum, reduced once: a product sum
    of degree d or more as it is cancelled, the rest after s is added.
    times(c) first builds the d x d matrix of a -> c * a, column k being
    c * t^k modulo m, so that each product by c is d dot products.  mul
    takes products of at least d coefficients."""
    d = len(m) - 1
    tail = [(j, y) for j, y in enumerate(m[:d]) if y]
    add, sub, dot = operator.add, operator.sub, operator.mul

    def remainder(a, b):
        c = _convolution(a, b, 0)
        for i in range(len(c) - 1, d - 1, -1):
            top = reduce(c[i])
            if top:
                for j, y in tail:
                    c[i - d + j] -= top * y
        return c[:d]

    def times(c):
        # column k is c * t^k modulo m: the column before, times t
        cols = [c]
        for _ in range(d - 1):
            top, col = cols[-1][-1], (0,) + cols[-1][:-1]
            cols.append(tuple([reduce(x - top * y) for x, y in zip(col, m)]) if top else col)
        rows = list(zip(*cols))
        return (
            lambda a: tuple([reduce(sum(map(dot, r, a))) for r in rows]),
            lambda s, a: tuple([reduce(x + sum(map(dot, r, a))) for x, r in zip(s, rows)]),
        )

    return (
        lambda a, b: tuple(map(reduce, remainder(a, b))),
        lambda s, a, b: tuple(map(reduce, map(add, s, remainder(a, b)))),
        lambda s, a, b: tuple(map(reduce, map(sub, s, remainder(a, b)))),
        times,
    )


def trim(c, is_zero):
    """The coefficient list c without its top zeros, trimmed in place."""
    while c and is_zero(c[-1]):
        c.pop()
    return c


def inv_mod(level, a, m):
    """The inverse of the list a modulo the monic list m over level: a trimmed
    list of fewer than deg m coefficients.

    Extended Euclid on (m, a), keeping only the cofactors of a, so that
    r0 = s0 * a and r1 = s1 * a modulo m.  Each divisor's leading coefficient
    is inverted once, for all its quotient terms; no remainder is made monic.
    """
    zero, is_zero, mul, inv, submul = level.zero, level.is_zero, level.mul, level.inv, level.submul

    def sub_shifted(p, c, k, q):
        """p - c * t^k * q."""
        p = p + [zero] * (len(q) + k - len(p))
        for j, y in enumerate(q):
            p[j + k] = submul(p[j + k], c, y)
        return p

    r0, s0 = list(m), []
    r1, s1 = trim(list(a), is_zero), [level.one]
    while len(r1) > 1:
        lead = inv(r1[-1])
        while len(r0) >= len(r1):
            c, k = mul(r0[-1], lead), len(r0) - len(r1)
            # the top of r0 cancels; drop it rather than test it
            r0 = trim(sub_shifted(r0, c, k, r1)[:-1], is_zero)
            s0 = trim(sub_shifted(s0, c, k, s1), is_zero)
        r0, s0, r1, s1 = r1, s1, r0, s0
        if not r1:
            raise ZeroInput("element not invertible; minimal polynomial not irreducible?")
    c = inv(r1[0])
    return [mul(c, x) for x in s1]


def _scalar_reduce(p):
    """The ground's canonical form of an unreduced scalar: rational over Q
    (p None), one % p over F_p."""
    return rational if p is None else p.__rmod__


def _ground(p):
    """Q for p None, on canonical rationals, else F_p, on ints in [0, p).

    The kernels add up plain products; each output coefficient then passes
    once through rational over Q, or takes one % p over F_p, and a remainder
    may start from unreduced values.  A product modulo m is one such sum per
    coefficient, divided by m before any % p."""
    reduce = _scalar_reduce(p)

    def mulmod(m):
        return _scalar_kernels(m, reduce)[0]

    if p is None:

        def pmul(a, b):
            return [rational(c) for c in _convolution(a, b, 0)]

        def pdivmod(a, m):
            q, r = _long_division(list(a), m, rational)
            return q, [rational(c) for c in r]

        return _Level(
            0, 1, lambda a, b: rational(a + b), lambda a, b: rational(a - b), operator.neg,
            lambda a, b: rational(a * b), lambda s, a, b: rational(s + a * b),
            lambda s, a, b: rational(s - a * b), _rational_inv, operator.not_,
            pmul, pdivmod, mulmod,
            lambda c: (lambda a: rational(c * a), lambda s, a: rational(s + c * a)),
        )

    def inv(a):
        if a % p == 0:
            raise ZeroInput("division by zero")
        return pow(a, -1, p)

    def pdivmod(a, m):
        q, r = _long_division(list(a), m, reduce)
        return q, [c % p for c in r]

    return _Level(
        0, 1, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a: -a % p,
        lambda a, b: a * b % p, lambda s, a, b: (s + a * b) % p,
        lambda s, a, b: (s - a * b) % p, inv, operator.not_,
        lambda a, b: [c % p for c in _convolution(a, b, 0)], pdivmod, mulmod,
        lambda c: (lambda a: c * a % p, lambda s, a: (s + c * a) % p),
    )


def _extension(below, mp, scalar=None):
    """below[t]/(mp) for a monic mp over below; elements are d-tuples, low to high.

    Directly over the ground, scalar is given (see _scalar_reduce) and the
    element kernels, times(c) among them, are _scalar_kernels.  Higher up, a
    product is the product of the level below followed by its remainder
    modulo mp, one mulmod kernel call below (_composed_kernels).

    The polynomial kernels pack a list of elements into one list over the
    level below, each element followed by d - 1 zeros, so that the products
    of two elements never overlap: one product kernel below then gives, for
    every output coefficient, the unreduced sum of its products, and each
    output coefficient is reduced modulo mp once.
    """
    zb, ob = below.zero, below.one
    add_b, sub_b, pmul_b, pdivmod_b = below.add, below.sub, below.pmul, below.pdivmod
    d = len(mp) - 1
    w = 2 * d - 1  # the stride of a packed list
    pad = (zb,) * (d - 1)
    zero = (zb,) * d
    if scalar is None:
        mul, addmul, submul, times = _composed_kernels(below.mulmod(mp), add_b, sub_b)
    else:
        mul, addmul, submul, times = _scalar_kernels(mp, scalar)

    def reduce(c):
        """A list over the level below, of d to 2d - 1 entries, modulo mp."""
        return tuple(pdivmod_b(c, mp)[1])

    def pack(a):
        """The elements of a, each followed by d - 1 zeros but the last."""
        out = [x for e in a for x in e + pad]
        del out[len(out) - d + 1:]
        return out

    def pmul(a, b):
        if not a or not b:
            return []
        c = pmul_b(pack(a), pack(b))
        return [reduce(c[k:k + w]) for k in range(0, len(c), w)]

    def pdivmod(a, m):
        dm = len(m) - 1
        if len(a) <= dm:
            return [], list(a)
        r, tail = pack(a), pack(m[:dm])
        q = [None] * (len(a) - dm)
        for k in range(len(q) - 1, -1, -1):
            top = (k + dm) * w
            c = q[k] = reduce(r[top:top + w])
            if c != zero and tail:
                lo = k * w
                r[lo:top] = map(sub_b, r[lo:top], pmul_b(c, tail))
        return q, [reduce(r[k:k + w]) for k in range(0, dm * w, w)]

    def inv(a):
        if a == zero:
            raise ZeroInput("division by zero in extension field")
        s = inv_mod(below, a, mp)
        return tuple(s) + zero[len(s):]

    return _Level(
        zero,
        (ob,) + (zb,) * (d - 1),
        lambda a, b: tuple(map(add_b, a, b)),
        lambda a, b: tuple(map(sub_b, a, b)),
        lambda a: tuple(map(below.neg, a)),
        mul,
        addmul,
        submul,
        inv,
        lambda a: a == zero,
        pmul,
        pdivmod,
        _composed_mulmod(pmul, pdivmod),
        times,
    )


class FieldTower:
    """A ground field (Q for base None, else F_p) plus simple extensions.

    levels is a tuple of (name, minpoly) pairs; the minimal polynomial of
    level k is stored as a monic coefficient tuple (low to high) of degree
    at least 2 over the tower truncated below level k.  Instances are
    immutable; construction does not check irreducibility
    (arith.factor.extend does).  top is the whole tower's arithmetic, for
    loops that fetch it once.
    """

    __slots__ = (
        "base", "levels", "top", "_at", "_add", "_sub", "_neg", "_mul", "_inv", "_is_zero"
    )

    def __init__(self, base=None, levels=()):
        if base is not None and not _is_prime(base):
            raise ValueError(f"characteristic must be prime, got {base}")
        levels = tuple((name, tuple(mp)) for name, mp in levels)
        at = [_ground(base)]
        for name, mp in levels:
            if len(mp) < 3:
                raise ValueError(f"minimal polynomial for {name} must have degree >= 2")
            at.append(_extension(at[-1], mp, None if len(at) > 1 else _scalar_reduce(base)))
        top = at[-1]
        for attr, value in (
            ("base", base), ("levels", levels), ("top", top), ("_at", tuple(at)),
            ("_add", top.add), ("_sub", top.sub), ("_neg", top.neg), ("_mul", top.mul),
            ("_inv", top.inv), ("_is_zero", top.is_zero),
        ):
            object.__setattr__(self, attr, value)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("FieldTower is immutable")

    # ----------------------------------------------------------- structure

    @classmethod
    def rationals(cls):
        return cls(None, ())

    @classmethod
    def prime_field(cls, p):
        return cls(p, ())

    @property
    def char(self):
        return 0 if self.base is None else self.base

    @property
    def height(self):
        return len(self.levels)

    @property
    def is_rationals(self):
        """Whether the tower is plain Q, with no extension level."""
        return self.base is None and not self.levels

    def degree(self):
        d = 1
        for _, mp in self.levels:
            d *= len(mp) - 1
        return d

    def level_degree(self, k):
        return len(self.levels[k][1]) - 1

    def prefix(self, k):
        return FieldTower(self.base, self.levels[:k])

    def is_prefix_of(self, other):
        return (
            self.base == other.base
            and len(self.levels) <= len(other.levels)
            and other.levels[: len(self.levels)] == self.levels
        )

    def extended(self, name, minpoly_coeffs):
        """Tower with one more level; minpoly_coeffs are elements of self."""
        return FieldTower(self.base, self.levels + ((name, tuple(minpoly_coeffs)),))

    def generator(self):
        """The generator of the top level."""
        k = self.height - 1
        if k < 0:
            raise IndexError("no extension level")
        below, d = self._at[k], self.level_degree(k)
        return (below.zero, below.one) + (below.zero,) * (d - 2)

    def _lift(self, e, k):
        """Embed an element of the tower truncated to k levels into self."""
        for j in range(k, self.height):
            e = (e,) + self._at[j + 1].zero[1:]
        return e

    # ------------------------------------------------------ element basics

    def zero(self):
        return self.top.zero

    def one(self):
        return self.top.one

    def from_int(self, n):
        return self._lift(n if self.base is None else n % self.base, 0)

    def is_zero(self, e):
        return self._is_zero(e)

    # ---------------------------------------------------------- arithmetic

    def add(self, a, b):
        return self._add(a, b)

    def sub(self, a, b):
        return self._sub(a, b)

    def mul(self, a, b):
        return self._mul(a, b)

    def neg(self, a):
        return self._neg(a)

    def inv(self, a):
        return self._inv(a)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        acc = a
        while n:
            if n & 1:
                out = self.mul(out, acc)
            n >>= 1
            if n:
                acc = self.mul(acc, acc)
        return out

    # -------------------------------------------- embeddings and components

    def lift_from(self, sub, e):
        """Embed an element of a prefix tower into self."""
        if not sub.is_prefix_of(self):
            raise ValueError("towers are not nested")
        return self._lift(e, sub.height)

    def components_over(self, sub, e):
        """Coordinates of e in the monomial basis of self over the prefix sub."""
        if not sub.is_prefix_of(self):
            raise ValueError("towers are not nested")
        comps = [e]
        for k in range(self.height - 1, sub.height - 1, -1):
            comps = [c for tup in comps for c in tup]
        return comps

    # ------------------------------------------------- ordering and naming

    def flatten(self, e):
        """Flatten to a tuple of base scalars; total order for canonical sorts."""
        if isinstance(e, tuple):
            out = []
            for c in e:
                out.extend(self.flatten(c))
            return tuple(out)
        return (e,)

    def sort_key(self, e):
        return self.flatten(e)

    def element_count(self):
        if self.base is None:
            raise ValueError("infinite field")
        return self.base ** self.degree()

    def element_from_index(self, i):
        """The i-th field element in the canonical enumeration (finite only)."""
        if self.base is None:
            raise ValueError("infinite field")
        digits = []
        for _ in range(self.degree()):
            digits.append(i % self.base)
            i //= self.base
        it = iter(digits)
        return self._unflatten(self.height, it)

    def _unflatten(self, k, it):
        if k == 0:
            return next(it)
        d = self.level_degree(k - 1)
        return tuple(self._unflatten(k - 1, it) for _ in range(d))

    # --------------------------------------------------------- text formats

    def render(self, e):
        """Human-readable form: scalars plainly, extensions as polynomials."""
        return self._render_k(self.height, e)

    def _render_k(self, k, e):
        if k == 0:
            return str(e)
        name = self.levels[k - 1][0]
        parts = []
        for i, c in enumerate(e):
            if self._at[k - 1].is_zero(c):
                continue
            cs = self._render_k(k - 1, c)
            if i == 0:
                parts.append(cs)
            else:
                mono = name if i == 1 else f"{name}^{i}"
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                elif any(op in cs[1:] for op in "+-"):
                    parts.append(f"({cs})*{mono}")
                else:
                    parts.append(f"{cs}*{mono}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def element_to_data(self, e):
        """JSON-able canonical form: strings at the base, lists above."""
        if isinstance(e, tuple):
            return [self.element_to_data(c) for c in e]
        return str(e)

    def element_from_data(self, data):
        return self._from_data_k(self.height, data)

    def _from_data_k(self, k, data):
        if k == 0:
            if isinstance(data, list):
                raise ValueError("nested element data deeper than the tower")
            # only what element_to_data writes: a signed integer, over Q maybe
            # p/q, in ASCII digits, so that int()'s digit limit applies
            text = str(data)
            body = text[1:] if text[:1] in "+-" else text
            if not all(part.isascii() and part.isdigit() for part in body.split("/", 1)):
                raise ValueError("element data %.40r is neither an integer nor p/q" % text)
            if self.base is None:
                return rational(Fraction(text))
            return int(text) % self.base
        if not isinstance(data, list):
            # a bare scalar lifts as a constant
            return (self._from_data_k(k - 1, data),) + self._at[k].zero[1:]
        if len(data) != self.level_degree(k - 1):
            raise ValueError("element data has the wrong length for the tower")
        return tuple(self._from_data_k(k - 1, c) for c in data)

    # ------------------------------------------------------------- identity

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and self.base == other.base
            and self.levels == other.levels
        )

    def __hash__(self):
        return hash((self.base, self.levels))

    def __repr__(self):
        if self.base is None:
            ground = "Q"
        else:
            ground = f"F{self.base}"
        if not self.levels:
            return f"FieldTower({ground})"
        names = ", ".join(name for name, _ in self.levels)
        return f"FieldTower({ground}; {names})"


QQ = FieldTower.rationals()
