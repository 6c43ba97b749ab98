"""The row echelon, the kernel path and the trim that simple_ideal used
before the column sweep and the span trim, kept as references for the
differential tests.

SparseEchelon inserts row vectors through the engine's sweep; kernel_basis
reads the null space off the reduced row echelon form; _valuation_rows turns
'value >= floor' into one row per (monomial, component) of the truncated
pullbacks, over the columns that _monomials_below lists; frame_trim trims a
generating set against the truncation frame of M.I, offering each
generator to InsertFrame.insert, which reruns the frame's Buchberger loop
after the build; doubled_frame is the stabilization rule before one frame
at the budget: bounds from ord(I) + 1, doubled until a layer is full;
chase_witness is the reduction chase before the length test for witnesses
0 and 1; and tree_closure_data is closure_data's tree record for every
ideal, monomial ones too, which now read their Newton polygon instead.
"""

from fractions import Fraction

from dicritical import idealcalc as ic
from dicritical.arith.linalg import stored_row, sweep
from dicritical.arith.polynomials import BiPoly
from dicritical.errors import Unstable
from dicritical.nearpoints import LocalIdeal
from dicritical.zariski import base_point_tree
from poly_reference import canonical


class SparseEchelon:
    def __init__(self, tower):
        self.tower = tower
        self.rows = {}
        self.integral = tower.base is None and not tower.levels

    def reduce(self, vec):
        """(w, s): w is s times the residual of vec after elimination.

        The residual is unique: vec minus the combination of stored rows that
        vanishes at every pivot.  s is 1 except over Q, where w is integral.
        Does not modify the echelon.
        """
        rows = self.rows
        return sweep(self.tower, vec, lambda k: (rows[k][k], rows[k].items()) if k in rows else None)

    def insert(self, vec):
        """Add vec to the span; returns the new stored row when the rank grew, else False."""
        res, _ = self.reduce(vec)
        if not res:
            return False
        row = self.rows[min(res)] = stored_row(self.tower, res)
        return row




def kernel_basis(tower, rows, columns):
    """Basis of the null space of the matrix given by rows over columns.

    rows: list of dicts keyed by column.  Returns a list of dicts, one per
    free column in column order: the free column's unit entry first, then
    the negated entries of the reduced row echelon form, pivot columns in
    order.  That form is unique, so the basis depends only on the row span;
    over Q its entries are canonical rationals, whatever the rows held.
    """
    T = tower
    col_index = {c: i for i, c in enumerate(columns)}
    ech = SparseEchelon(T)
    for row in rows:
        ech.insert({col_index[c]: v for c, v in row.items()})
    # a stored row's tail, reduced, keeps only free columns: the row of the
    # reduced echelon form, once divided by the scale and, over Q, by the
    # pivot; entries[j] lists free column j's (pivot, entry)
    entries = {}
    for p in sorted(ech.rows):
        row = ech.rows[p]
        w, scale = ech.reduce({k: c for k, c in row.items() if k != p})
        for j, c in w.items():
            entries.setdefault(j, []).append(
                (p, canonical(Fraction(c, scale * row[p])) if ech.integral else c)
            )
    basis = []
    for j, col in enumerate(columns):
        if j in ech.rows:
            continue
        vec = {col: T.one()}
        for p, c in entries.get(j, ()):
            vec[columns[p]] = T.neg(c)
        basis.append(vec)
    return basis


def _monomials_below(bound):
    # all (i, j) with i + j < bound, in a fixed deterministic order
    return [(i, j) for j in range(bound) for i in range(bound - j)]


def _valuation_rows(divisor, floor, columns):
    """Linear conditions 'terminal order >= floor' on the span of the given monomials."""
    path = divisor.path
    terminal = path.terminal_tower
    root = path.tower
    ratio = terminal.degree() // root.degree()
    vx, vy = divisor.coordinate_values()
    def below(f):  # terms of degree >= floor only feed terms of degree >= floor
        return BiPoly(terminal, f.vars, {m: c for m, c in f.terms.items() if sum(m) < floor})
    fx, fy = (below(path.pullback(BiPoly.variable(root, path.vars, v))) for v in path.vars)
    deg = max(e[0] + e[1] for e in columns) if columns else 0
    xpows = [BiPoly.one(terminal, fx.vars)]
    ypows = [BiPoly.one(terminal, fx.vars)]
    for _ in range(deg):
        xpows.append(below(xpows[-1] * fx))
        ypows.append(below(ypows[-1] * fy))
    rows = {}
    for e in columns:
        if e[0] * vx + e[1] * vy >= floor:
            continue
        image = xpows[e[0]] * ypows[e[1]]
        for mono, coeff in image.terms.items():
            if mono[0] + mono[1] >= floor:
                continue
            if ratio == 1:
                rows.setdefault((mono, 0), {})[e] = coeff
            else:
                for k, part in enumerate(terminal.components_over(root, coeff)):
                    if not root.is_zero(part):
                        rows.setdefault((mono, k), {})[e] = part
    return [rows[key] for key in sorted(rows)]


class InsertFrame(ic.TruncationFrame):
    """A truncation frame that grows after it is built."""

    __slots__ = ()

    def insert(self, f):
        """Add f to the ideal; False when it already lay in the image."""
        res = self._reduce(self._row(f))
        self._push(res)
        self._complete()
        return bool(res)


def frame_trim(ideal, frame_degree):
    """Minimal generators of an ideal containing M^frame_degree: the frame of
    M.I from every x.g and y.g at bound frame_degree + 1, then each generator
    inserted in _gen_key order and kept when it did not reduce to zero.
    Monomial generators keep their minimal exponents."""
    tower, vars = ideal.tower, ideal.vars
    if all(g.is_monomial() for g in ideal.gens):
        return list(ic._prune_monomials(tower, vars, ic._exponents(ideal.gens)).gens)
    gens = ic._dedupe(tower, ideal.gens)
    shifts = [g.mul_monomial(e) for g in gens for e in ((1, 0), (0, 1))]
    frame = InsertFrame(LocalIdeal(tower, vars, shifts), frame_degree + 1)
    return [g for g in sorted(gens, key=lambda g: ic._gen_key(tower, g)) if frame.insert(g)]


def frame_span_generators(tower, vars, basis, degree):
    """The simple-ideal trim before the span sweep: basis and the monomials of
    degree `degree`, trimmed by frame_trim."""
    gens = [BiPoly(tower, vars, vec) for vec in basis]
    gens += [BiPoly.monomial(tower, vars, (i, degree - i)) for i in range(degree + 1)]
    return frame_trim(LocalIdeal(tower, vars, gens), degree)


def doubled_frame(ideal):
    """A frame with a full layer: the first bound is ord(I) + 1, the least
    that can show one, and the bound doubles until one does, while the
    frame's degree stays within MAX_FRAME_DEGREE.  An ideal whose first
    frame has no full layer is checked for a principal part."""
    first = bound = ideal.min_order() + 1
    while bound - 1 <= ic.MAX_FRAME_DEGREE:
        frame = ic.TruncationFrame(ideal, bound)
        if frame.full_degree() is not None:
            return frame
        if bound == first:
            ic._require_mprimary(ideal.content())
        bound *= 2
    raise Unstable("no doubled frame of degree at most %d is full" % ic.MAX_FRAME_DEGREE)


def chase_witness(j, i, n_max):
    """The least n <= n_max with J.I^n = I^(n+1), else None; J inside I.

    The two agree modulo M^((n+1)d(I) + 1), and so everywhere, exactly when
    their frames there have the same colength."""
    d = doubled_frame(i).full_degree()
    current = ic.power(i, 0)
    for n in range(n_max + 1):
        bound = (n + 1) * d + 1
        lifted = ic.product(i, current)
        length = ic.TruncationFrame(lifted, bound).colength()
        if ic.TruncationFrame(ic.product(j, current), bound).colength() == length:
            return n
        current = lifted
    return None


def tree_closure_data(ideal):
    """The closure record of ideal's base-point tree, whatever its generators:
    the value floor of each dicritical v is sum_i v(M_i) * ord(J_i) over the
    transforms J_i on v's path, plus v(p) for a principal part p that
    vanishes at the origin."""
    tree = base_point_tree(ideal)
    p = tree.principal
    floors = []
    for node, v in tree.dicritical_nodes():
        c = sum(m * o for m, o in zip(v.intermediate_multiplicities(), node.orders))
        floors.append((v, c if p.is_unit_at_origin() else c + v.value(p)))
    return ic.ClosureData(tree, tuple(floors))
