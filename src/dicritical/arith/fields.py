"""Coefficient fields: the rationals or a prime field, extended by a tower
of simple algebraic extensions.

Elements are plain immutable values rather than wrapper objects: a Fraction
over Q, an int in [0, p) over F_p, and a fixed-length tuple of lower-level
elements for each extension level.  The tower object owns the arithmetic;
this keeps tight loops (linear algebra, polynomial products) cheap.
"""

from __future__ import annotations

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


class FieldTower:
    """A ground field (Q for base None, else F_p) plus simple extensions.

    levels is a tuple of (name, minpoly) pairs; the minimal polynomial of
    level k is stored as a monic coefficient tuple (low to high) over the
    tower truncated below level k.  Instances are immutable; construction
    does not check irreducibility (arith.factor.extend does).
    """

    __slots__ = ("base", "levels", "_zero", "_one")

    def __init__(self, base=None, levels=()):
        if base is not None and not _is_prime(base):
            raise ValueError(f"characteristic must be prime, got {base}")
        levels = tuple((name, tuple(mp)) for name, mp in levels)
        for name, mp in levels:
            if len(mp) < 2:
                raise ValueError(f"minimal polynomial for {name} must have degree >= 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_zero", self._zero_at(len(levels)))
        object.__setattr__(self, "_one", self._one_at(len(levels)))

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

    def generator(self, k=None):
        """The image of the level-k generator (default: top level) in self."""
        if k is None:
            k = self.height - 1
        if k < 0 or k >= self.height:
            raise IndexError("no such extension level")
        e = self._gen_at(k)
        for j in range(k + 1, self.height):
            d = self.level_degree(j)
            e = tuple([e] + [self._zero_at(j)] * (d - 1))
        return e

    def _gen_at(self, k):
        d = self.level_degree(k)
        zs = self._zero_at(k)
        os = self._one_at(k)
        if d == 1:
            # degree-1 extension: generator equals the root -minpoly[0]
            mp = self.levels[k][1]
            return (self._neg_k(k, mp[0]),)
        return tuple([zs, os] + [zs] * (d - 2))

    def _zero_at(self, k):
        """Zero of the tower truncated to k levels."""
        if k == 0:
            return Fraction(0) if self.base is None else 0
        below = self._zero_at(k - 1)
        return tuple([below] * self.level_degree(k - 1))

    def _one_at(self, k):
        if k == 0:
            return Fraction(1) if self.base is None else 1 % self.base
        below_one = self._one_at(k - 1)
        below_zero = self._zero_at(k - 1)
        return tuple([below_one] + [below_zero] * (self.level_degree(k - 1) - 1))

    def _const_at(self, n, k):
        if k == 0:
            return Fraction(n) if self.base is None else n % self.base
        below = self._const_at(n, k - 1)
        below_zero = self._zero_at(k - 1)
        return tuple([below] + [below_zero] * (self.level_degree(k - 1) - 1))

    # ------------------------------------------------------ element basics

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self._const_at(n, self.height)

    def is_zero(self, e):
        if isinstance(e, tuple):
            return all(self.is_zero(c) for c in e)
        return not e

    def eq(self, a, b):
        return a == b

    # ------------------------------------------------- arithmetic, leveled
    #
    # Internal helpers take an explicit level k (number of active levels);
    # public methods run at the full height.

    def _badd(self, a, b):
        return (a + b) % self.base if self.base is not None else a + b

    def _bsub(self, a, b):
        return (a - b) % self.base if self.base is not None else a - b

    def _bmul(self, a, b):
        return (a * b) % self.base if self.base is not None else a * b

    def _bneg(self, a):
        return (-a) % self.base if self.base is not None else -a

    def _binv(self, a):
        if self.base is None:
            if a == 0:
                raise ZeroInput("division by zero")
            return 1 / a
        if a % self.base == 0:
            raise ZeroInput("division by zero")
        return pow(a, self.base - 2, self.base)

    def _add_k(self, k, a, b):
        if k == 0:
            return self._badd(a, b)
        return tuple(self._add_k(k - 1, x, y) for x, y in zip(a, b))

    def _sub_k(self, k, a, b):
        if k == 0:
            return self._bsub(a, b)
        return tuple(self._sub_k(k - 1, x, y) for x, y in zip(a, b))

    def _neg_k(self, k, a):
        if k == 0:
            return self._bneg(a)
        return tuple(self._neg_k(k - 1, x) for x in a)

    def _mul_k(self, k, a, b):
        if k == 0:
            return self._bmul(a, b)
        d = self.level_degree(k - 1)
        zero = self._zero_at(k - 1)
        conv = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if self._is_zero_k(k - 1, x):
                continue
            for j, y in enumerate(b):
                if self._is_zero_k(k - 1, y):
                    continue
                conv[i + j] = self._add_k(k - 1, conv[i + j], self._mul_k(k - 1, x, y))
        return self._reduce_k(k, conv)

    def _reduce_k(self, k, coeffs):
        """Reduce a coefficient list modulo the level-k minimal polynomial."""
        mp = self.levels[k - 1][1]
        d = len(mp) - 1
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if self._is_zero_k(k - 1, c):
                continue
            coeffs[i] = self._zero_at(k - 1)
            for j in range(d):
                coeffs[i - d + j] = self._sub_k(
                    k - 1, coeffs[i - d + j], self._mul_k(k - 1, c, mp[j])
                )
        coeffs = coeffs[:d]
        while len(coeffs) < d:
            coeffs.append(self._zero_at(k - 1))
        return tuple(coeffs)

    def _is_zero_k(self, k, a):
        if k == 0:
            return not a
        return all(self._is_zero_k(k - 1, x) for x in a)

    def _inv_k(self, k, a):
        if k == 0:
            return self._binv(a)
        if self._is_zero_k(k, a):
            raise ZeroInput("division by zero in extension field")
        mp = list(self.levels[k - 1][1])
        # extended Euclid between a (as a list) and the minimal polynomial,
        # with coefficients one level down
        r0, r1 = mp, self._trim(k - 1, list(a))
        s0, s1 = [], [self._one_at(k - 1)]
        while True:
            if len(r1) == 1:
                c = self._inv_k(k - 1, r1[0])
                inv = [self._mul_k(k - 1, c, x) for x in s1]
                return self._reduce_k(k, inv)
            q, r = self._pdivmod(k - 1, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self._psub(k - 1, s0, self._pmul(k - 1, q, s1))
            if not r1:
                raise ZeroInput("element not invertible; minimal polynomial not irreducible?")

    # polynomial helpers over the tower truncated to k levels (lists, low→high)

    def _trim(self, k, p):
        while p and self._is_zero_k(k, p[-1]):
            p.pop()
        return p

    def _padd(self, k, p, q):
        n = max(len(p), len(q))
        z = self._zero_at(k)
        out = []
        for i in range(n):
            x = p[i] if i < len(p) else z
            y = q[i] if i < len(q) else z
            out.append(self._add_k(k, x, y))
        return self._trim(k, out)

    def _psub(self, k, p, q):
        return self._padd(k, p, [self._neg_k(k, y) for y in q])

    def _pmul(self, k, p, q):
        if not p or not q:
            return []
        z = self._zero_at(k)
        out = [z] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            if self._is_zero_k(k, x):
                continue
            for j, y in enumerate(q):
                out[i + j] = self._add_k(k, out[i + j], self._mul_k(k, x, y))
        return self._trim(k, out)

    def _pdivmod(self, k, p, q):
        p = list(p)
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(q) - 1
        inv_lead = self._inv_k(k, q[-1])
        quot = [self._zero_at(k)] * max(0, len(p) - dq)
        while len(p) - 1 >= dq and p:
            self._trim(k, p)
            if len(p) - 1 < dq or not p:
                break
            c = self._mul_k(k, p[-1], inv_lead)
            shift = len(p) - 1 - dq
            quot[shift] = c
            for j, y in enumerate(q):
                p[shift + j] = self._sub_k(k, p[shift + j], self._mul_k(k, c, y))
            p.pop()
        return self._trim(k, quot), self._trim(k, p)

    # ------------------------------------------------------ public wrappers

    def add(self, a, b):
        return self._add_k(self.height, a, b)

    def sub(self, a, b):
        return self._sub_k(self.height, a, b)

    def mul(self, a, b):
        return self._mul_k(self.height, a, b)

    def neg(self, a):
        return self._neg_k(self.height, a)

    def inv(self, a):
        return self._inv_k(self.height, a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        acc = a
        while n:
            if n & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            n >>= 1
        return out

    # -------------------------------------------- embeddings and components

    def lift_from(self, sub, e):
        """Embed an element of a prefix tower into self."""
        if not sub.is_prefix_of(self):
            raise ValueError("towers are not nested")
        for k in range(sub.height, self.height):
            d = self.level_degree(k)
            e = tuple([e] + [self._zero_at(k)] * (d - 1))
        return e

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
            v = next(it)
            return Fraction(v) if self.base is None else v % self.base
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
            if self._is_zero_k(k - 1, c):
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
            if self.base is None:
                return Fraction(str(data))
            return int(data) % self.base
        d = self.level_degree(k - 1)
        if not isinstance(data, list):
            # a bare scalar lifts as a constant
            below = self._from_data_k(k - 1, data)
            return tuple([below] + [self._zero_at(k - 1)] * (d - 1))
        if len(data) != d:
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
