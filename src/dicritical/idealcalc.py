"""Finite-colength ideal arithmetic: truncation frames, closures, reductions."""

from collections import Counter, namedtuple
from heapq import heappop, heappush
from itertools import count

from .arith import QQ, BiPoly, SparseEchelon, bipoly_gcd
from .divisors import PrimeDivisor, simple_ideal
from .errors import BudgetExceeded, InternalInconsistency, NotMPrimary, Unstable
from .nearpoints import LocalIdeal, QdtPath, QdtStep
from .zariski import base_point_tree, strip_principal

MAX_FRAME_DEGREE = 1024


def _truncated_row(g, bound):
    # columns keyed degree-first, (i + j, i): a row's pivot is its lowest-degree term
    return {(i + j, i): c for (i, j), c in g.terms.items() if i + j < bound}


def _shifts(row, bound):
    """x * row and y * row, truncated below bound; none once row is past it."""
    x = {(d + 1, i + 1): c for (d, i), c in row.items() if d + 1 < bound}
    if not x:
        return ()
    return x, {(d + 1, i): c for (d, i), c in row.items() if d + 1 < bound}


def _close(ech, rows, bound):
    """Insert rows and the x- and y-shifts of every row that raises the rank.

    Stored rows never change, so their span ends closed under x and y: the
    image in R / M^bound of the ideal the rows generate, for at most
    len(rows) + 2 * rank inserts.  Highest pivot first, so each stored row is
    reduced against the rows above it and stays short.
    """
    heap = []
    tick = count()

    def push(row):
        if row:
            d, i = min(row)
            heappush(heap, (-d, -i, next(tick), row))

    for row in rows:
        push(row)
    while heap:
        row = ech.insert(heappop(heap)[3])
        if row:
            for shifted in _shifts(row, bound):
                push(shifted)


class TruncationFrame:
    """Echelonized image of an ideal in R / M^bound, with degree-first columns.

    Every pivot is its row's lowest-degree term, so the pivots of degree < N
    span the image in R / M^N for every N <= bound.
    """

    __slots__ = ("ideal", "bound", "ech")

    def __init__(self, ideal, bound):
        self.ideal = ideal
        self.bound = bound
        ech = SparseEchelon(ideal.tower)
        _close(ech, [_truncated_row(g, bound) for g in ideal.gens], bound)
        self.ech = ech

    def colength(self):
        total = self.bound * (self.bound + 1) // 2
        return total - self.ech.rank

    def contains(self, f):
        if f.is_zero():
            return True
        return self.ech.contains(_truncated_row(f, self.bound))

    def full_degree(self):
        """Least d < bound whose d + 1 monomials are all pivots, else None.

        Then M^d lies in the ideal plus M^(d+1), so in the ideal by Nakayama.
        """
        layers = Counter(d for d, _ in self.ech.rows)
        return next((d for d in range(self.bound) if layers[d] == d + 1), None)


def stabilized_frame(ideal):
    """A frame with a full degree layer d, so M^d lies in the ideal.

    M^d inside the ideal puts x^d there, so d >= ord(I): the first frame has
    bound ord(I) + 1, the least that can show a full layer, and the bound
    doubles until one does, ending below 2 * (d(I) + 1), while the frame's
    degree stays within the budget MAX_FRAME_DEGREE.  When the first frame
    has no full layer, an ideal that is not M-primary is refused.
    """
    first = bound = ideal.min_order() + 1
    while bound - 1 <= MAX_FRAME_DEGREE:
        frame = TruncationFrame(ideal, bound)
        if frame.full_degree() is not None:
            return frame
        if bound == first:
            _require_mprimary(ideal.content())
        bound *= 2
    raise Unstable(
        "frame budget exhausted: no truncation frame of degree at most "
        "MAX_FRAME_DEGREE = %d shows a power of M inside the ideal (next degree "
        "to try: %d)" % (MAX_FRAME_DEGREE, bound - 1)
    )


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
    fj = stabilized_frame(j)
    fk = stabilized_frame(k)
    return all(fk.contains(g) for g in j.gens) and all(
        fj.contains(g) for g in k.gens
    )


def _gen_key(tower, g):
    return (
        g.ord_at_origin(),
        g.total_degree,
        tuple(
            (e, tower.sort_key(c)) for e, c in sorted(g.terms.items())
        ),
    )


def _dedupe(tower, gens):
    seen = set()
    out = []
    for g in gens:
        key = _gen_key(tower, g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def _prune_monomials(gens):
    exps = sorted(next(iter(g.terms)) for g in gens)
    keep = []
    for e in exps:
        if not any(k[0] <= e[0] and k[1] <= e[1] for k in keep):
            keep.append(e)
    return keep


def product(j, k):
    tower, vars = j.tower, j.vars
    gens = [a * b for a in j.gens for b in k.gens]
    if all(g.is_monomial() for g in gens):
        keep = _prune_monomials(gens)
        gens = [BiPoly.monomial(tower, vars, e) for e in keep]
    else:
        gens = _dedupe(tower, gens)
    return LocalIdeal(tower, vars, gens)


def power(j, n):
    if n < 0:
        raise ValueError("negative ideal power")
    result = LocalIdeal(j.tower, j.vars, [BiPoly.one(j.tower, j.vars)])
    for _ in range(n):
        result = product(result, j)
    return result


def minimal_generators(ideal, frame_degree=None):
    """Trim a generating set to a minimal one (Nakayama on I / M.I)."""
    tower = ideal.tower
    gens = _dedupe(tower, ideal.gens)
    if ideal.is_unit():
        return LocalIdeal(tower, ideal.vars, [BiPoly.one(tower, ideal.vars)])
    if all(g.is_monomial() for g in gens):
        keep = _prune_monomials(gens)
        return LocalIdeal(
            tower, ideal.vars, [BiPoly.monomial(tower, ideal.vars, e) for e in keep]
        )
    if frame_degree is None:
        principal, residual = strip_principal(ideal)
        if not principal.is_constant():
            trimmed = minimal_generators(residual)
            return LocalIdeal(
                tower, ideal.vars, [g.mul(principal) for g in trimmed.gens]
            )
        frame_degree = stabilized_frame(ideal).full_degree()
    # M^frame_degree lies in the ideal, so M^(frame_degree + 1) lies in M.I
    bound = frame_degree + 1
    ech = SparseEchelon(tower)
    # M.I is closed under x and y and generated by the x.g and y.g
    _close(ech, [s for g in gens for s in _shifts(_truncated_row(g, bound), bound)], bound)
    kept = []
    for g in sorted(gens, key=lambda g: _gen_key(tower, g)):
        if ech.insert(_truncated_row(g, bound)):
            kept.append(g)
    return LocalIdeal(tower, ideal.vars, kept)


class ClosureData(namedtuple("ClosureData", "tree floors")):
    """Valuative description of an integral closure: base-point tree plus value floors."""

    __slots__ = ()

    def contains(self, f):
        if f.is_zero():
            return True
        principal = self.tree.principal
        if not principal.is_constant():
            common = bipoly_gcd(f, principal)
            if not principal.exact_div(common).is_unit_at_origin():
                return False
        return all(v.value(f) >= c for v, c in self.floors)


def _hoskin_deligne(tree):
    """Colength of the closure of the tree's residual ideal.

    The sum over the base points P of [k_P : k] * o_P (o_P + 1) / 2, with
    o_P the order of the transform at P (Huneke-Swanson ch. 14).
    """
    if tree.root is None:
        return 0
    root_degree = tree.root.path.tower.degree()
    return sum(
        node.path.terminal_tower.degree() // root_degree * _triangular(node.orders[-1])
        for node in tree.nodes()
    )


def closure_data(ideal, config=None):
    """The tree, and the floor v(I) of each dicritical v: sum_i v(M_i) * ord(J_i)
    over the transforms J_i on v's path (Huneke-Swanson ch. 14), plus v(p) for
    a principal part p that vanishes at the origin."""
    tree = base_point_tree(ideal, config)
    p = tree.principal
    floors = []
    for node in tree.nodes():
        if node.zariski > 0:
            v = PrimeDivisor(node.path)
            c = sum(m * o for m, o in zip(v.intermediate_multiplicities(), node.orders))
            floors.append((v, c if p.is_unit_at_origin() else c + v.value(p)))
    return ClosureData(tree, tuple(floors))


def closure_membership(f, ideal, config=None):
    return closure_data(ideal, config).contains(f)


def closure_colength(ideal, config=None):
    tree = base_point_tree(ideal, config)
    _require_mprimary(tree.principal)
    return _hoskin_deligne(tree)


def closure_equals(j, k, config=None):
    """Whether the integral closure of J equals K on the nose.

    With K inside the closure of J and the principal parts equal, K = cl(J)
    exactly when the residual of K has the closure colength of J's residual.
    """
    data = closure_data(j, config)
    if not all(data.contains(g) for g in k.gens):
        return False
    # principal parts are local: equal up to a unit at the origin
    pj = data.tree.principal
    pk, residual = strip_principal(k)
    common = bipoly_gcd(pj, pk)
    if not (
        pj.exact_div(common).is_unit_at_origin()
        and pk.exact_div(common).is_unit_at_origin()
    ):
        return False
    return colength(residual) == _hoskin_deligne(data.tree)


ReductionResult = namedtuple("ReductionResult", "decision witness by_direct by_valuative")


def is_reduction(j, i, n_max=None, config=None):
    """Decide whether J is a reduction of I, by power chase and by values.

    The direct method finds the least n with J.I^n = I^(n+1); the valuative
    method checks I against the value floors of J's closure.  Both run and
    the result records each verdict.
    """
    frame_i = stabilized_frame(i)
    if not all(frame_i.contains(g) for g in j.gens):
        return ReductionResult(False, None, False, False)
    # floors must come from J: values on I's own divisors cannot see
    # elements of I lying below J's polygon
    data = closure_data(j, config)
    # a reduction of an M-primary ideal is M-primary: without that, J has no
    # floors and the values alone would pass vacuously; J in I makes v(I) = c
    # the same test as v(I) >= c
    valuative = data.tree.principal.is_unit_at_origin() and all(map(data.contains, i.gens))
    if n_max is None:
        n_max = frame_i.colength()
    # M^d_i lies in I, so M^((n+1)d_i + 1) lies in M.I^(n+1): containment
    # modulo that power gives containment by Nakayama
    d_i = frame_i.full_degree()
    witness = None
    current = power(i, 0)
    for n in range(n_max + 1):
        frame = TruncationFrame(product(j, current), (n + 1) * d_i + 1)
        lifted = product(i, current)
        if all(frame.contains(g) for g in lifted.gens):
            witness = n
            break
        current = lifted
    if valuative and witness is None:
        raise BudgetExceeded(
            "no reduction exponent found up to n_max = %d" % n_max
        )
    if (witness is not None) != valuative:
        raise InternalInconsistency("reduction criteria disagree")
    return ReductionResult(valuative, witness, witness is not None, valuative)


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
    if _triangular(m) > MAX_FRAME_DEGREE:
        raise BudgetExceeded(
            "the pencil (F_m, G_m) has degree m(m+1)/2, beyond the budget "
            "MAX_FRAME_DEGREE = %d" % MAX_FRAME_DEGREE
        )

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
