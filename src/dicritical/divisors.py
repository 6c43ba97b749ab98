"""Prime divisors of a 2-dimensional regular local ring.

A prime divisor is the order valuation of the terminal ring of a QDT path.
Values of root elements are orders of polynomial pullbacks, the residue
field is the terminal tower, and the residue image of a value-zero rational
function is a rational function in tau = (second coordinate)/(first
coordinate) on the exceptional line.
"""

from fractions import Fraction

from .arith.fields import rational
from .arith.linalg import stored_row, sweep
from .arith.polynomials import BiPoly, bipoly_gcd
from .errors import InternalInconsistency, NonzeroValue, ZeroInput
from .nearpoints import _floored_order, pullback_order


class RationalFn:
    """A ratio of polynomials, stored with the common factor removed."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroInput("denominator is zero")
        if num.is_zero():
            num = BiPoly.zero(den.tower, den.vars)
            den = BiPoly.one(den.tower, den.vars)
        else:
            g = bipoly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
            # scale so the denominator is normalized
            lead = den.terms[min(den.terms)]
            inv = den.tower.inv(lead)
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def tower(self):
        return self.den.tower

    @property
    def vars(self):
        return self.den.vars

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and self.num.mul(other.den) == other.num.mul(self.den)
        )

    __hash__ = None

    def __repr__(self):
        return "RationalFn((%s)/(%s))" % (self.num.render(), self.den.render())

    def render(self):
        if self.den == BiPoly.one(self.tower, self.vars):
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())


class PrimeDivisor:
    """ord of the terminal ring of a QDT path, as a valuation on the root."""

    __slots__ = ("path",)

    def __init__(self, path):
        object.__setattr__(self, "path", path)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeDivisor is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeDivisor) and self.path == other.path

    def __hash__(self):
        return hash(self.path)

    def __repr__(self):
        return "PrimeDivisor(%r)" % (self.path,)

    @property
    def tower(self):
        return self.path.tower

    @property
    def vars(self):
        return self.path.vars

    def value(self, f):
        return pullback_order(self.path, f)

    def coordinate_values(self):
        """(v(u), v(w)) for the root coordinates: the first pair of the backward walk."""
        return self._node_values()[0]

    def _node_values(self):
        """(v(u_i), v(w_i)) at each node i, walked back from (1, 1) at the terminal
        node: u = u'w' at infinity, and w = u'(w' + c) in an affine chart, u' times
        a unit unless c = 0."""
        path = self.path
        a = b = 1
        out = [(a, b)]
        for i, step in reversed(list(enumerate(path.steps))):
            if step.kind == "infinity":
                a += b
            elif not step.extends and path.node_tower(i).is_zero(step.c):
                b += a
            else:
                b = a
            out.append((a, b))
        return out[::-1]

    def residue_degree(self):
        return self.path.terminal_tower.degree() // self.path.tower.degree()

    def intermediate_multiplicities(self):
        """v(M(R_i)) for each node: M(R_i) = (u_i, w_i), so the lesser coordinate value."""
        return tuple(map(min, self._node_values()))

    def point_basis(self):
        """Multiplicity of the simple ideal of V at each node of the path:
        v(M(R_i)) * [k_L : k_i] (Lipman 1988)."""
        path = self.path
        top = path.terminal_tower.degree()
        return tuple(
            r * top // path.node_tower(i).degree()
            for i, r in enumerate(self.intermediate_multiplicities())
        )


class ResidueImage:
    """Reduced rational function in tau over the terminal residue tower."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ResidueImage is immutable")

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree)

    def is_constant(self):
        return self.degree == 0

    def __eq__(self, other):
        return (
            isinstance(other, ResidueImage)
            and self.num.mul(other.den) == other.num.mul(self.den)
        )

    __hash__ = None


def residue_image(V, z):
    """Image of a value-zero rational function in the divisor's residue field."""
    if z.is_zero():
        raise ZeroInput("the zero function has no residue image")
    A, B = V.path.pullback(z.num), V.path.pullback(z.den)
    if A.ord_at_origin() != B.ord_at_origin():
        raise NonzeroValue(
            "value %d differs from 0; the image is 0 or infinite"
            % (A.ord_at_origin() - B.ord_at_origin())
        )
    return initial_ratio(A, B)


def initial_ratio(A, B):
    """The residue image of A/B, A and B of one order: reduced initial forms in tau."""
    a = A.initial_form().dehomogenized()
    b = B.initial_form().dehomogenized()
    g = a.gcd(b)
    if g.degree > 0:
        a = a.exact_div(g)
        b = b.exact_div(g)
    inv = A.tower.inv(b.lc())
    return ResidueImage(a.scale(inv), b.scale(inv))


def _value_kernel(divisor, floor, bound):
    """The kernel of 'terminal order >= floor' on the monomials of degree < bound.

    Columns are the monomials x^i*y^j, (i, j) ascending.  A column of value
    >= floor gives its unit vector.  Any other column's image, its pullback
    truncated below degree floor and split into components over the root, is
    swept by the images kept so far, with the column's own tag keyed after
    every image key.  An image that survives is kept; one that cancels leaves
    the column's kernel vector in its tags, scaled so that its own
    coefficient is 1.  That vector is the only one in the kernel supported on
    its column and the kept columns before it, so it is the vector of that
    free column in the reduced row echelon form: the unit entry first, then
    the kept columns in order, over Q as canonical rationals.

    Terms of degree >= floor only feed terms of degree >= floor, so the
    images are products of the pullbacks of x and y modulo those terms, and
    no product of two terms whose degrees reach the floor is formed.  The
    images of row i = 0 are repeated products by y's pullback, and each
    later row is the row before it times x's pullback, one product per
    column.
    """
    path = divisor.path
    terminal = path.terminal_tower
    root = path.tower
    split = terminal.degree() != root.degree()
    integral = root.is_rationals
    one = root.one()
    mul, addmul = terminal.top.mul, terminal.top.addmul
    vx, vy = divisor.coordinate_values()

    def ascending(f):
        """f's (exponents, coefficient) pairs of degree < floor, by degree."""
        return sorted((t for t in f.terms.items() if sum(t[0]) < floor), key=lambda t: sum(t[0]))

    def times(f, g):
        """The (exponents, coefficient) pairs of degree < floor of f * g, for g
        ascending by degree."""
        out = {}
        for (i1, j1), a in f:
            room = floor - i1 - j1
            for (i2, j2), b in g:
                if i2 + j2 >= room:
                    break
                key = (i1 + i2, j1 + j2)
                out[key] = addmul(out[key], a, b) if key in out else mul(a, b)
        return out.items()

    fx, fy = (ascending(path.pullback(BiPoly.variable(root, path.vars, v))) for v in path.vars)
    # images[j] is the image of x^i*y^j, for the j with i*vx + j*vy < floor
    images = [[((0, 0), terminal.one())]]
    while len(images) < bound and len(images) * vy < floor:
        images.append(times(images[-1], fy))
    kept = {}
    def lookup(k):
        row = kept.get(k)
        return None if row is None else (row[k], row.items())
    tagged = (floor, 0)  # above the mono of every image key (mono, component)
    kernel = []
    for i in range(bound):
        if i:
            images = [times(image, fx) for j, image in enumerate(images[:bound - i])
                      if i * vx + j * vy < floor]
        for j in range(bound - i):
            e = (i, j)
            if i * vx + j * vy >= floor:
                kernel.append({e: one})
                continue
            tag = (tagged, e)
            vec = {tag: one}
            for mono, coeff in images[j]:
                if not split:
                    vec[mono, 0] = coeff
                else:
                    for k, part in enumerate(terminal.components_over(root, coeff)):
                        if not root.is_zero(part):
                            vec[mono, k] = part
            res, scale = sweep(root, vec, lookup)
            pivot = min(res)
            if pivot[0] != tagged:
                kept[pivot] = stored_row(root, res)
                continue
            # res[tag] is the scale: kept rows carry only earlier tags
            vec = {e: one}
            for k, c in res.items():
                if k != tag:
                    vec[k[1]] = rational(Fraction(c, scale)) if integral else c
            kernel.append(vec)
    return kernel


def simple_ideal(V):
    """Generators of the simple complete ideal I_V of V in the root ring.

    I_V = {f : v(f) >= c} with c the pairing of the point basis of I_V
    against the node multiplicities of v.  Membership in I_V is linear on
    coefficients once a degree bound is in hand: M^D lies inside I_V for
    D = ceil(c / v(M)), so generators are a kernel over monomials of degree
    < D plus all monomials of degree D, trimmed against the span of the
    kernel's shifts (idealcalc._span_generators).  On a path of only
    infinity and affine-0 steps, I_V is its staircase, with no kernel.

    The result I is certified equal to I_V without a tree.  Every generator
    has floored value c, so I lies in I_V.  One frame of I at bound D + 1
    must show a full layer, since M^D lies in I_V, and its colength must be
    the Hoskin-Deligne count of I_V, the sum of [k_i : k] * rho_i (rho_i + 1)
    / 2 over the point basis rho (Lipman 1988).  An ideal inside I_V of the
    same colength is I_V.  The full layer makes I M-primary: I keeps the frame.
    """
    path = V.path
    T = path.tower
    vars = path.vars
    r = V.intermediate_multiplicities()
    rho = V.point_basis()
    c = sum(a * b for a, b in zip(rho, r))
    D = -(-c // r[0])

    from .idealcalc import (TruncationFrame, _check_frame_degree, _keep_frame, _prune_monomials,
                            _span_generators, _triangular)

    # D grows like the Fibonacci numbers along a path that alternates charts
    _check_frame_degree(D, "the simple ideal needs monomials of degree")

    if all(s.kind == "infinity" or not s.extends and T.is_zero(s.c) for s in path.steps):
        # v(x^a y^b) = a.v(x) + b.v(y): the least b with value >= c for each a
        vx, vy = V.coordinate_values()
        stairs = [(a, max(-(-(c - a * vx) // vy), 0)) for a in range(-(-c // vx) + 1)]
        ideal = _prune_monomials(T, vars, [BiPoly.monomial(T, vars, e) for e in stairs])
    else:
        kernel = _value_kernel(V, c, D)
        gens = [BiPoly(T, vars, vec) for vec in kernel]
        gens += [BiPoly.monomial(T, vars, (i, D - i)) for i in range(D + 1)]
        ideal = _span_generators(T, vars, gens, D, basis=kernel)
    if any(_floored_order(path, g, c) < c for g in ideal.gens):
        raise InternalInconsistency("a simple ideal generator has value below its floor")
    frame = TruncationFrame(ideal, D + 1)
    if frame.full_degree() is None:
        raise InternalInconsistency("the simple ideal holds no power M^d with d <= %d" % D)
    expected = sum(
        path.node_tower(i).degree() // T.degree() * _triangular(m) for i, m in enumerate(rho)
    )
    if frame.colength() != expected:
        raise InternalInconsistency(
            "the simple ideal has colength %d, not its Hoskin-Deligne count %d"
            % (frame.colength(), expected)
        )
    _keep_frame(ideal, frame)
    return ideal
