"""Infinitely near points of a 2-dimensional regular local ring.

A point is reached from the root ring by a chain of local quadratic
transforms.  Each step picks a point on the exceptional line of the blowup:

  * Affine(c):  u = u', w = u'(w' + c)   (c in the residue tower at the node)
  * Infinity:   u = u'w', w = w'

Affine steps may extend the residue tower when the chosen point is not
rational over it.  A polynomial crosses a step by a monomial map, followed
in an affine chart by a Taylor shift in w: x^i·y^j becomes x^(i+j)·(y + c)^j,
or x^i·y^(i+j) at infinity.  Pullbacks stay polynomial, so all valuation
work reduces to orders of pullbacks.
"""

from collections import namedtuple

from .arith.factor import extend, factor_univariate
from .arith.polynomials import BiPoly, UniPoly, bipoly_gcd
from .errors import EmptyInput, ZeroPolynomial


class QdtStep(namedtuple("QdtStep", "kind c ext_name ext_minpoly", defaults=(None, None, None))):
    __slots__ = ()

    @classmethod
    def affine(cls, c):
        return cls(kind="affine", c=c)

    @classmethod
    def affine_ext(cls, name, minpoly_coeffs):
        """Affine step at a non-rational point: the tower gains a root of
        the (irreducible, monic) minpoly and c is that new generator."""
        return cls(kind="affine", ext_name=name, ext_minpoly=tuple(minpoly_coeffs))

    @classmethod
    def infinity(cls):
        return cls(kind="infinity")

    @property
    def extends(self):
        return self.ext_minpoly is not None

    def extend_tower(self, tower, check=False):
        if not self.extends:
            return tower
        mp = UniPoly(tower, self.ext_minpoly)
        return extend(tower, mp, self.ext_name, check=check)

    def constant_in(self, tower):
        """The translation constant as an element of the post-step tower."""
        if self.kind != "affine":
            raise ValueError("only affine steps carry a constant")
        if self.extends:
            return tower.generator()
        return self.c


class QdtPath:
    """A chain of QDT steps from a root ring, with the residue tower at each node."""

    __slots__ = ("tower", "vars", "steps", "_towers", "_values")

    def __init__(self, tower, vars, steps=()):
        vars = tuple(vars)
        steps = tuple(steps)
        towers = [tower]
        for step in steps:
            towers.append(step.extend_tower(towers[-1]))
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_towers", tuple(towers))
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError("QdtPath is immutable")

    @property
    def length(self):
        return len(self.steps)

    def node_tower(self, i):
        return self._towers[i]

    @property
    def terminal_tower(self):
        return self._towers[-1]

    def extended(self, step):
        return QdtPath(self.tower, self.vars, self.steps + (step,))

    def __eq__(self, other):
        return (
            isinstance(other, QdtPath)
            and self.tower == other.tower
            and self.vars == other.vars
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.tower, self.vars, self.steps))

    def __repr__(self):
        return "QdtPath" + self.render()

    def render(self):
        """The steps as text: [inf aff(c) ext(name) ...]."""
        parts = []
        for tower, step in zip(self._towers, self.steps):
            if step.kind == "infinity":
                parts.append("inf")
            elif step.extends:
                parts.append("ext(%s)" % step.ext_name)
            else:
                parts.append("aff(%s)" % tower.render(step.c))
        return "[" + " ".join(parts) + "]"

    def _node_values(self):
        """(v(u_i), v(w_i)) at each node i for v the terminal ring's order,
        walked back from (1, 1) at the terminal node: u = u'w' at infinity,
        and w = u'(w' + c) in an affine chart, u' times a unit unless c = 0.
        Walked once per path."""
        if self._values is None:
            a = b = 1
            out = [(a, b)]
            for i, step in reversed(list(enumerate(self.steps))):
                if step.kind == "infinity":
                    a += b
                elif not step.extends and self._towers[i].is_zero(step.c):
                    b += a
                else:
                    b = a
                out.append((a, b))
            object.__setattr__(self, "_values", tuple(out[::-1]))
        return self._values

    def pullback(self, f):
        """f in the terminal chart's coordinates, walked through the steps; f may
        lie over the tower of any node of the path."""
        for i, step in enumerate(self.steps):
            f = _step_image(f, step, self._towers[i + 1])
        return f


def _step_image(f, step, tower, lower=0, scale=None):
    """f in the chart after the step, whose node has the given residue tower:
    x^i·y^j becomes x^(i+j)·(y + c)^j in an affine chart, x^i·y^(i+j) at
    infinity, divided by u^lower for u the chart's exceptional variable and
    times scale.  f stays over its own tower when that one is larger.  The
    exponent map keeps every coefficient nonzero, so its image is trusted,
    and the shift scales as it goes: no checked BiPoly is made."""
    if f.tower.height < tower.height:
        f = f.lift_to(tower)
    T = f.tower
    if step.kind == "infinity":
        c = T.zero()
        image = {(i, i + j - lower): a for (i, j), a in f.terms.items()}
    else:
        c = T.lift_from(tower, step.constant_in(tower))
        image = {(i + j - lower, j): a for (i, j), a in f.terms.items()}
    return BiPoly._trusted(T, f.vars, image).shifted(c, scale)


class LocalIdeal:
    """An ideal of the local ring at a chart origin, held by generators."""

    __slots__ = ("tower", "vars", "gens", "_frame")

    def __init__(self, tower, vars, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        if not gens:
            raise EmptyInput("an ideal needs at least one nonzero generator")
        for g in gens:
            if g.tower != tower or g.vars != tuple(vars):
                raise ValueError("generators disagree with the declared ring")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_frame", None)

    def __setattr__(self, name, value):
        raise AttributeError("LocalIdeal is immutable")

    def __repr__(self):
        return "LocalIdeal(%s)" % ", ".join(g.render() for g in self.gens)

    def is_unit(self):
        return any(g.is_unit_at_origin() for g in self.gens)

    def content(self):
        """Polynomial GCD of the generators."""
        return bipoly_gcd(*self.gens)

    def is_mprimary(self):
        return not self.is_unit() and self.content().is_unit_at_origin()

    def min_order(self):
        return min(g.ord_at_origin() for g in self.gens)


def pullback_order(path, f):
    """ord of f under the terminal ring's order valuation."""
    if f.is_zero():
        raise ZeroPolynomial("the zero element has no order")
    return path.pullback(f).ord_at_origin()


def _below(f, floor, a=1, b=1):
    """The terms x^i·y^j of f with i·a + j·b below the floor: the engine's
    one floor rule, applied before a step to the terms that no later reading
    sees.  The weights (a, b) are the values of x and y, (1, 1) for degree."""
    return BiPoly._trusted(
        f.tower, f.vars, {e: c for e, c in f.terms.items() if e[0] * a + e[1] * b < floor}
    )


def _floored_order(path, f, floor):
    """min(pullback_order(path, f), floor), for asking whether the value
    reaches the floor.  At node k, with (a, b) = (v(u_k), v(w_k)) from the
    path's backward walk, a term u^i·w^j has value i·a + j·b, and v of a
    sum is at least the least of its terms': the terms of value >= floor
    change nothing below the floor and are dropped before each step.  A
    single term left is its value, so a monomial takes no step; the terminal
    weights are (1, 1), where the value is the order."""
    if f.is_zero():
        raise ZeroPolynomial("the zero element has no order")
    for k, (a, b) in enumerate(path._node_values()):
        f = _below(f, floor, a, b)
        if len(f.terms) < 2 or k == path.length:
            return min((i * a + j * b for i, j in f.terms), default=floor)
        f = _step_image(f, path.steps[k], path.node_tower(k + 1))


def transform_ideal(J, step):
    """The quadratic transform J^(R') = u^(-ord J)·J·R' through one step.

    u is the exceptional variable of the new chart.  In an affine chart
    u = x and x^i·y^j becomes x^(i+j)·(y + c)^j; at infinity u = y and it
    becomes x^i·y^(i+j).  So a generator of order o maps to u^o times a
    polynomial, and dividing by u^(ord J) is an exponent shift.
    For coprime generators nothing else is shared: the transform is an
    isomorphism away from u = 0.  The generators are scaled so that the
    first one's lex-least term has coefficient one.
    """
    T2 = step.extend_tower(J.tower)
    d = J.min_order()
    first = _step_image(J.gens[0], step, T2, d)
    inv = T2.inv(first.terms[min(first.terms)])
    rest = [_step_image(g, step, T2, d, inv) for g in J.gens[1:]]
    return LocalIdeal(T2, J.vars, [first.scale(inv)] + rest)


def base_point(J, floor=None):
    """(d, Zariski number, [(step, transform), ...]) of J.

    floor, given for a pencil J = (f, g), is at least its colength λ.  By
    Noether's formula i(f, g) = o_f·o_g + Σ_P i_P(f', g'), with Σ_P i_P(f', E)
    = o_f, the transforms' colengths add up to λ - d^2, so each is at most
    c = floor - d^2.  An ideal of colength at most c holds M^c (each degree
    below the least such power adds one to the colength, by Nakayama), so
    M^(c+1) lies in M times it, and its generators' terms of degree above c
    change nothing.  A step maps degree e to degree e - d or more: the terms
    of J above degree c + d are dropped before the transforms, which stay
    the same ideals.

    Each initial form of least order d splits as u^i·w^j·h.  With a = min i,
    b = min j and g the gcd of the h(1, t), the gcd of the forms is u^a·w^b
    times g homogenized, so the Zariski number is d - (a + b + deg g).  Its
    projective zeros are the directions, in canonical order: the affine ones
    (c = 0 when b > 0, then the roots of g) by sort_key(c), then g's
    nonlinear factors as extensions, as factor_univariate orders them by
    _poly_key, then infinity when a > 0.  A linear g has the one root
    -g0/g1 and is not factored.
    """
    T = J.tower
    orders = [f.ord_at_origin() for f in J.gens]
    d = min(orders)
    a = b = d
    g = None
    for f, o in zip(J.gens, orders):
        if o != d:
            continue
        form = {j: c for (i, j), c in f.terms.items() if i + j == d}
        lo, hi = min(form), max(form)
        a, b = min(a, d - hi), min(b, lo)
        if g is None or g.degree > 0:
            h = UniPoly(T, [form.get(j, T.zero()) for j in range(lo, hi + 1)])
            g = h if g is None else g.gcd(h)
    plain = [QdtStep.affine(T.zero())] if b else []
    extending = []
    if g.degree == 1:
        plain.append(QdtStep.affine(T.neg(T.mul(g.coeffs[0], T.inv(g.coeffs[1])))))
    elif g.degree > 1:
        for irr, _ in factor_univariate(g)[1]:
            if irr.degree == 1:
                plain.append(QdtStep.affine(T.neg(irr.coeff(0))))
            else:
                extending.append(QdtStep.affine_ext("a%d" % (T.height + 1), irr.coeffs))
    plain.sort(key=lambda st: T.sort_key(st.c))
    steps = plain + extending + ([QdtStep.infinity()] if a else [])
    if floor is not None and steps:
        J = LocalIdeal(T, J.vars, [_below(f, floor - d * d + d + 1) for f in J.gens])
    pairs = [(step, transform_ideal(J, step)) for step in steps]
    return d, d - (a + b + g.degree), pairs
