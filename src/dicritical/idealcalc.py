"""Finite-colength ideal arithmetic: truncation frames, closures, reductions."""

from bisect import bisect_left
from collections import namedtuple
from heapq import heappop, heappush
from itertools import count

from .arith import QQ, BiPoly, bipoly_gcd
from .arith.linalg import stored_row, sweep
from .divisors import PrimeDivisor, simple_ideal
from .errors import BudgetExceeded, InternalInconsistency, NotMPrimary, Unstable
from .nearpoints import LocalIdeal, QdtPath, QdtStep, _floored_order
from .zariski import base_point_tree, strip_principal

MAX_FRAME_DEGREE = 1024


def _check_frame_degree(degree, what):
    """Refuse a degree beyond MAX_FRAME_DEGREE; what says what reaches it."""
    if degree > MAX_FRAME_DEGREE:
        # a degree of thousands of digits cannot be formatted as a string
        shown = "%d" % degree if degree < 10 ** 18 else "above 10^18"
        raise BudgetExceeded(
            "%s %s, beyond the budget MAX_FRAME_DEGREE = %d" % (what, shown, MAX_FRAME_DEGREE)
        )


class TruncationFrame:
    """Truncated standard basis of an ideal's image in R / M^bound.

    A monomial x^i y^j is keyed (i + j) * W + i with W = bound, so keys order
    by degree first and a polynomial's lead is its lowest key.  Modulo
    M^bound that local order is a well-order compatible with multiplication,
    so Buchberger's algorithm with plain top reduction terminates: the
    highest-corner case of Greuel-Pfister, "A Singular Introduction to
    Commutative Algebra".  The basis keeps one element per corner
    of the staircase: leads form an antichain, sorted by the power of x, and
    S-pairs are formed only between neighbours, which the chain criterion
    makes enough in two variables.  A key is reduced by the element with the
    lowest lead dividing it.  Once a degree layer d of the leading ideal is
    full, M^d lies in the image and every term of degree d or more is dropped.

    A monomial ideal's basis is its staircase: the minimal exponents below the
    bound, as one-term elements with coefficient one and no S-pairs.  A frame
    never changes once built.
    """

    __slots__ = ("ideal", "bound", "_width", "_limit", "_basis", "_queue", "_tick")

    def __init__(self, ideal, bound):
        self.ideal, self.bound = ideal, bound
        self._width = max(bound, 1)
        self._limit = bound * self._width
        # [a, b, (keys, coefficients)] per lead x^a y^b, keys ascending; the
        # terms become None once a new lead divides x^a y^b
        self._basis, self._queue, self._tick = [], [], count()
        if all(g.is_monomial() for g in ideal.gens):
            one, w = ideal.tower.one(), self._width
            self._basis = [[a, b, (((a + b) * w + a,), (one,))]
                           for a, b in _minimal_exponents(_exponents(ideal.gens)) if a + b < bound]
            self._cut()
            return
        for g in ideal.gens:
            self._push(self._row(g))
        self._complete()

    def _row(self, f):
        w = self._width
        return {(i + j) * w + i: c for (i, j), c in f.terms.items() if i + j < self.bound}

    def _push(self, row, degree=None):
        """Queue a row, or an S-pair (left, right) with its lcm's degree."""
        if row:
            degree = min(row) // self._width if degree is None else degree
            heappush(self._queue, (degree, next(self._tick), row))

    def _lookup(self, k):
        """The element with the lowest lead dividing key k, shifted onto k."""
        d, i = divmod(k, self._width)
        e = min(
            (e for e in self._basis if e[0] <= i and e[1] <= d - i),
            key=lambda e: e[0] + e[1], default=None,
        )
        return e and self._shifted(e, k)

    def _shifted(self, e, k):
        """(lead coefficient, terms) of element e times the monomial taking its lead to key k."""
        keys, coefs = e[2]
        off = k - keys[0]
        n = bisect_left(keys, self._limit - off)
        return coefs[0], zip(map(off.__add__, keys[:n]), coefs[:n])

    def _reduce(self, row, lookup=None):
        """Top reduction: what is left of row once its lead lies outside the leading ideal."""
        row = {k: c for k, c in row.items() if k < self._limit}
        return sweep(self.ideal.tower, row, lookup or self._lookup, top=True)[0]

    def _complete(self):
        """Reduce the queued rows and S-pairs, adding each nonzero remainder.
        An item met at degree d is reduced through degree 2d only: a remainder
        whose lead lies higher waits in the queue, where the cut may drop it."""
        while self._queue:
            degree, _, row = heappop(self._queue)
            lookup = self._lookup
            if type(row) is tuple:
                # leads x^a y^b (left) and x^a' y^b' (right), a < a' and b > b':
                # x^(a'-a).left is reduced first by y^(b-b').right, then as usual
                left, right = row
                lcm = (right[0] + left[1]) * self._width + right[0]
                if left[2] is None or right[2] is None or lcm >= self._limit:
                    continue
                first = self._shifted(right, lcm)
                row = dict(self._shifted(left, lcm)[1])
                lookup = lambda k: first if k == lcm else self._lookup(k)
            ceiling = (2 * degree + 1) * self._width
            res = self._reduce(row, lambda k: None if k >= ceiling else lookup(k))
            if res and min(res) >= ceiling:
                self._push(res)
            elif res:
                self._add(stored_row(self.ideal.tower, res))

    def _add(self, row):
        keys = sorted(row)
        d, a = divmod(keys[0], self._width)
        new = [a, d - a, (tuple(keys), tuple(map(row.__getitem__, keys)))]
        basis = []
        for e in self._basis:
            if e[0] >= a and e[1] >= new[1]:
                self._push(dict(zip(*e[2])))
                e[2] = None
            else:
                basis.append(e)
        pos = bisect_left([e[0] for e in basis], a)
        basis.insert(pos, new)
        self._basis = basis
        lo = max(pos - 1, 0)
        for left, right in zip(basis[lo:pos + 1], basis[lo + 1:pos + 2]):
            self._push((left, right), right[0] + left[1])
        self._cut()

    def _cut(self):
        """Drop the terms of degree d and more once layer d is full."""
        full = self.full_degree()
        if full is not None:
            self._limit = min(self._limit, full * self._width)

    def colength(self):
        """Monomials below the bound outside the leading ideal, column by column;
        a column of height zero adds nothing."""
        n = self.bound
        total, height, i = 0, n, 0
        for a, b, _ in self._basis + [(n, 0, None)]:
            if height:
                total += sum(min(height, n - x) for x in range(i, a))
            height, i = b, a
        return total

    def contains(self, f):
        return f.is_zero() or not self._reduce(self._row(f))

    def full_degree(self):
        """Least d < bound whose d + 1 monomials all lie in the leading ideal, else None.

        Then M^d lies in the ideal plus M^(d+1), so in the ideal by Nakayama.
        With leads x^a_k y^b_k sorted by a, that takes a_1 = 0 and b_s = 0, and
        d is the highest degree of an inner corner x^(a_(k+1) - 1) y^b_k.
        """
        basis = self._basis
        if not basis or basis[0][0] or basis[-1][1]:
            return None
        inner = [right[0] + left[1] - 1 for left, right in zip(basis, basis[1:])]
        d = max([basis[0][1], basis[-1][0]] + inner)
        return d if d < self.bound else None


def stabilized_frame(ideal):
    """A frame with a full layer d, so M^d lies in the ideal: one frame at
    bound MAX_FRAME_DEGREE + 1, cut below degree 2d and kept on the ideal, as
    a frame never changes.  An ideal whose principal part vanishes at the
    origin would never cut: it is refused first."""
    if ideal._frame is None:
        _require_mprimary(ideal.content())
        frame = TruncationFrame(ideal, MAX_FRAME_DEGREE + 1)
        if frame.full_degree() is None:
            raise Unstable(
                "frame budget exhausted: no truncation frame of degree at most "
                "MAX_FRAME_DEGREE = %d shows a power of M inside the ideal" % MAX_FRAME_DEGREE
            )
        _keep_frame(ideal, frame)
    return ideal._frame


def _keep_frame(ideal, frame):
    """Keep on the ideal a frame of it that shows a full layer."""
    object.__setattr__(ideal, "_frame", frame)


def _require_mprimary(principal):
    """Refuse an ideal whose principal part (generator gcd) vanishes at the origin."""
    if not principal.is_unit_at_origin():
        raise NotMPrimary(
            "the ideal is not M-primary: its generators share the factor %s"
            % principal.render()
        )


def colength(ideal):
    return stabilized_frame(ideal).colength()


def membership(f, ideal):
    return stabilized_frame(ideal).contains(f)


def ideal_equals(j, k):
    fj, fk = stabilized_frame(j), stabilized_frame(k)
    return all(map(fk.contains, j.gens)) and all(map(fj.contains, k.gens))


def _gen_key(tower, g):
    terms = tuple((e, tower.sort_key(c)) for e, c in sorted(g.terms.items()))
    return g.ord_at_origin(), g.total_degree, terms


def _dedupe(tower, gens):
    """gens without repeats, in order: equal keys are equal polynomials."""
    return list({_gen_key(tower, g): g for g in gens}.values())


def _minimal_exponents(exps):
    """The minimal ones of exponent pairs: sorted by (i, j), a pair is kept
    when its j is below every kept j."""
    keep = []
    for e in sorted(exps):
        if not keep or e[1] < keep[-1][1]:
            keep.append(e)
    return keep


def _exponents(gens):
    """The exponent pair of each monomial in gens."""
    return [next(iter(g.terms)) for g in gens]


def _newton_polygon(exps):
    """The corners of the lower convex hull of exps, sorted by the power of x."""
    hull = []
    for i, j in exps:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (j - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])):
            hull.pop()
        hull.append((i, j))
    return hull


def _prune_monomials(tower, vars, exps):
    """The monomial ideal of the minimal ones of exponent pairs exps."""
    return LocalIdeal(
        tower, vars, [BiPoly.monomial(tower, vars, e) for e in _minimal_exponents(exps)]
    )


def product(j, k):
    """The ideal J.K.  Two monomial ideals multiply by adding exponent pairs
    and keeping the minimal sums, with no polynomial product."""
    tower, vars = j.tower, j.vars
    if all(g.is_monomial() for g in j.gens + k.gens):
        right = _exponents(k.gens)
        return _prune_monomials(
            tower, vars, [(a + c, b + d) for a, b in _exponents(j.gens) for c, d in right]
        )
    return LocalIdeal(tower, vars, _dedupe(tower, [a * b for a in j.gens for b in k.gens]))


def power(j, n):
    if n < 0:
        raise ValueError("negative ideal power")
    result = LocalIdeal(j.tower, j.vars, [BiPoly.one(j.tower, j.vars)])
    for _ in range(n):
        result = product(result, j)
    return result


def minimal_generators(ideal):
    """Trim a generating set to a minimal one (Nakayama on I / M.I): monomials
    keep their minimal exponents, a principal part is split off, and the rest
    is trimmed by _span_generators against the frame of M.I, built once."""
    tower = ideal.tower
    if ideal.is_unit():
        return LocalIdeal(tower, ideal.vars, [BiPoly.one(tower, ideal.vars)])
    if all(g.is_monomial() for g in ideal.gens):
        return _prune_monomials(tower, ideal.vars, _exponents(ideal.gens))
    principal, residual = strip_principal(ideal)
    if not principal.is_constant():
        trimmed = minimal_generators(residual)
        return LocalIdeal(
            tower, ideal.vars, [g.mul(principal) for g in trimmed.gens]
        )
    # M^d lies in the ideal, so M^(d + 1) lies in M.I, which the x.g and y.g
    # generate
    d = stabilized_frame(ideal).full_degree()
    shifts = [g.mul_monomial(e) for g in ideal.gens for e in ((1, 0), (0, 1))]
    frame = TruncationFrame(LocalIdeal(tower, ideal.vars, shifts), d + 1)
    return _span_generators(tower, ideal.vars, ideal.gens, d, below=frame._lookup)


def _span_generators(tower, vars, candidates, degree, basis=(), below=None):
    """Minimal generators of the ideal I that candidates generate, for
    M^(degree + 1) inside M.I.

    Modulo M^(degree + 1), M.I is spanned by the rows of below, a lookup into
    a frame of M.I at bound degree + 1, and by the x.b and y.b for basis
    (exponent dicts below that degree) a basis of I / M^degree, since h.b
    lies in I for h in R.  The shifts go into one sweep echelon over below,
    keyed degree first, with no S-pairs.  The candidates, cut at degree <=
    degree since the rest lies in M.I, go in _gen_key order, each kept when it
    survives outside M.I plus the span of those kept, and added there.
    Monomial candidates keep their minimal exponents.

    The loop stops at ord(I) + 1 generators: mu(I) <= ord(I) + 1 in a
    two-dimensional regular local ring (Huneke-Swanson ch. 14).  With I = f.K
    and K M-primary or R, Hilbert-Burch generates K by the maximal minors of a
    mu x (mu - 1) matrix with entries in M, so ord(I) >= ord(K) >= mu - 1.
    """
    if all(g.is_monomial() for g in candidates):
        return _prune_monomials(tower, vars, _exponents(candidates))
    w, rows = degree + 1, {}

    def lookup(k):
        row = rows.get(k)
        return (row[k], row.items()) if row else below and below(k)

    def survives(terms, dx=0, dy=0):
        vec = {(i + j + dx + dy) * w + i + dx: c for (i, j), c in terms.items()}
        res = sweep(tower, vec, lookup, top=True)[0]
        if res:
            rows[min(res)] = stored_row(tower, res)
        return bool(res)

    for vec in basis:
        survives(vec, 1, 0)
        survives(vec, 0, 1)
    room, kept = min(g.ord_at_origin() for g in candidates) + 1, []
    for g in sorted(candidates, key=lambda g: _gen_key(tower, g)):
        if len(kept) < room and survives({e: c for e, c in g.terms.items() if sum(e) <= degree}):
            kept.append(g)
    return LocalIdeal(tower, vars, kept)


class ClosureData:
    """An integral closure read off the base-point tree: f lies in it when the
    principal part divides f at the origin and each dicritical v takes at
    least its floor on f.  The floors are those given, else built when first
    read: a colength reads none.  The floor v(I) of a dicritical v is
    sum_i v(M_i) * ord(J_i) over the transforms J_i on v's path
    (Huneke-Swanson ch. 14), plus v(p) for a principal part p that vanishes
    at the origin."""

    __slots__ = ("tree", "_floors")

    def __init__(self, tree, floors=None):
        self.tree, self._floors = tree, floors

    @property
    def principal(self):
        return self.tree.principal

    @property
    def floors(self):
        if self._floors is None:
            p, floors = self.principal, []
            for node, v in self.tree.dicritical_nodes():
                c = sum(m * o for m, o in zip(v.intermediate_multiplicities(), node.orders))
                floors.append((v, c if p.is_unit_at_origin() else c + v.value(p)))
            self._floors = tuple(floors)
        return self._floors

    def contains(self, f):
        if f.is_zero():
            return True
        principal = self.principal
        if not principal.is_constant():
            common = bipoly_gcd(f, principal)
            if not principal.exact_div(common).is_unit_at_origin():
                return False
        return all(_floored_order(v.path, f, c) == c for v, c in self.floors)

    def colength(self):
        """The residual's, by Hoskin-Deligne: the sum over the base points P of
        [k_P : k] * o_P (o_P + 1) / 2, with o_P the order of the transform at P
        (Huneke-Swanson ch. 14)."""
        degree = self.tree.ideal.tower.degree()
        return sum(node.path.terminal_tower.degree() // degree * _triangular(node.orders[-1])
                   for node in self.tree.nodes())


class _PolygonClosure(namedtuple("_PolygonClosure", "principal corners")):
    """The integral closure of a monomial ideal, with no tree: the monomial
    ideal of its Newton polyhedron (Huneke-Swanson 1.4.6).  The corners are
    sorted by the power of x; the principal part is x^a·y^b for the first
    corner (a, _) and the last (_, b)."""

    __slots__ = ()
    tree = None

    def contains(self, f):
        """Whether each term of f lies on or above the polygon: a monomial
        ideal holds a polynomial only with all its terms."""
        corners = self.corners
        return all(
            i >= corners[0][0] and j >= corners[-1][1]
            and all(j * (x2 - x1) >= y1 * (x2 - i) + y2 * (i - x1)
                    for (x1, y1), (x2, y2) in zip(corners, corners[1:]) if x1 <= i <= x2)
            for i, j in f.terms
        )

    def colength(self):
        """The residual's: the lattice points strictly below the polygon
        shifted by (-a, -b), over each i the ceiling of its height there."""
        a, b = self.corners[0][0], self.corners[-1][1]
        corners = [(x - a, y - b) for x, y in self.corners]
        return sum(-(-(y1 * (x2 - i) + y2 * (i - x1)) // (x2 - x1))
                   for (x1, y1), (x2, y2) in zip(corners, corners[1:]) for i in range(x1, x2))


def closure_data(ideal, config=None):
    """The record that answers the closure questions: principal, contains(f)
    and colength(), the closure colength of the residual.  A monomial
    ideal's is read off its Newton polygon; any other ideal's off its tree."""
    if all(g.is_monomial() for g in ideal.gens):
        corners = _newton_polygon(_minimal_exponents(_exponents(ideal.gens)))
        principal = BiPoly.monomial(ideal.tower, ideal.vars, (corners[0][0], corners[-1][1]))
        return _PolygonClosure(principal, corners)
    return ClosureData(base_point_tree(ideal, config))


def closure_membership(f, ideal, config=None):
    return closure_data(ideal, config).contains(f)


def closure_colength(ideal, config=None):
    data = closure_data(ideal, config)
    _require_mprimary(data.principal)
    return data.colength()


def closure_equals(j, k, config=None):
    """Whether the integral closure of J equals K on the nose.

    With K inside the closure of J and the principal parts equal, K = cl(J)
    exactly when the residual of K has the closure colength of J's residual.
    """
    data = closure_data(j, config)
    if not all(map(data.contains, k.gens)):
        return False
    # principal parts are local: equal up to a unit at the origin
    pj, (pk, residual) = data.principal, strip_principal(k)
    common = bipoly_gcd(pj, pk)
    return (all(p.exact_div(common).is_unit_at_origin() for p in (pj, pk))
            and colength(residual) == data.colength())


ReductionResult = namedtuple("ReductionResult", "decision witness by_direct by_valuative")


def is_reduction(j, i, n_max=None, config=None):
    """Decide whether J is a reduction of I, by power chase and by values.

    The direct method finds the least n with J.I^n = I^(n+1); the valuative
    method checks I against the value floors of J's closure.  Both run and
    the result records each verdict.
    """
    return _reduction(j, i, n_max, config)[0]


def _reduction(j, i, n_max, config):
    """is_reduction's result, and J's closure data, None when J does not lie in I."""
    frame_i = stabilized_frame(i)
    if not all(frame_i.contains(g) for g in j.gens):
        return ReductionResult(False, None, False, False), None
    # floors must come from J: values on I's own divisors cannot see
    # elements of I lying below J's polygon
    data = closure_data(j, config)
    # a reduction of an M-primary ideal is M-primary: else no J.I^n holds
    # I^(n+1); J in I makes v(I) = c the test v(I) >= c
    primary = data.principal.is_unit_at_origin()
    valuative = primary and all(map(data.contains, i.gens))
    length_i = frame_i.colength()
    if n_max is None:
        n_max = length_i
    # M^d_i lies in I, so M^((n+1)d_i + 1) lies in M.I^(n+1): equality modulo
    # that power gives equality by Nakayama.  J in I puts J.I^n inside
    # I^(n+1), so the two agree there exactly when their colengths do.  For
    # J = (F, G) M-primary, J/J.I = (R/I)^2 (Koszul), so J.I^n has colength
    # lambda(R/J) + 2n.lambda(R/I) for n <= 1; then M^(2d_i) lies in I^2 = J.I,
    # so J's frame at 2d_i + 1 is full
    d_i = frame_i.full_degree()
    pair, length_j = primary and len(j.gens) == 2, None
    if pair:
        frame_j = TruncationFrame(j, 2 * d_i + 1)
        if frame_j.full_degree() is not None:
            length_j = frame_j.colength()
    witness, current = None, power(i, 0)
    for n in range(n_max + 1) if primary else ():
        bound = (n + 1) * d_i + 1
        lifted = product(i, current)
        if pair and n < 2:
            found = length_j is not None and length_j + 2 * n * length_i == (
                TruncationFrame(lifted, bound).colength() if n else length_i
            )
        else:
            length = TruncationFrame(lifted, bound).colength()
            found = TruncationFrame(product(j, current), bound).colength() == length
        if found:
            witness = n
            break
        current = lifted
    if valuative and witness is None:
        raise BudgetExceeded("no reduction exponent found up to n_max = %d" % n_max)
    if (witness is not None) != valuative:
        raise InternalInconsistency("reduction criteria disagree")
    return ReductionResult(valuative, witness, witness is not None, valuative), data


def _triangular(n):
    return n * (n + 1) // 2


def abhyankar_family(m, tower=QQ, vars=("x", "y")):
    """The degree-m pencil with simple ideal component product I_m.

    F_m collects the odd-triangular monomials, G_m the even ones; I_m is the
    product of the simple ideals along the first m infinitely near points of
    the y-axis direction.
    """
    if m < 1:
        raise ValueError("family index must be positive")
    _check_frame_degree(_triangular(m), "the pencil (F_m, G_m) has degree")

    def mono(a, b):
        return BiPoly.monomial(tower, vars, (a, b))

    f = BiPoly.zero(tower, vars)
    for p in range((m - 1) // 2 + 1):
        f = f + mono(_triangular(2 * p + 1), m - 1 - 2 * p)
    g = BiPoly.zero(tower, vars)
    for p in range(m // 2 + 1):
        g = g + mono(_triangular(2 * p), m - 2 * p)
    ideal = LocalIdeal(tower, vars, [BiPoly.one(tower, vars)])
    for j in range(m):
        path = QdtPath(tower, vars, [QdtStep.affine(tower.zero())] * j)
        ideal = product(ideal, simple_ideal(PrimeDivisor(path)))
    return f, g, ideal
