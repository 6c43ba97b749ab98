"""Base-point trees and everything derived from them.

The tree of an M-primary ideal enumerates the infinitely near points where
the transform stays proper.  A node whose transform has positive Zariski
number is a dicritical divisor; the numbers are the exponents of the
factorization of the integral closure into simple complete ideals.
"""

from collections import namedtuple

from .arith.polynomials import squarefree_part
from .divisors import PrimeDivisor, RationalFn, initial_ratio, residue_image
from .errors import ConstantImage, DepthExceeded, NodeBudgetExceeded, NonzeroValue, ZeroInput
from .nearpoints import LocalIdeal, QdtPath, base_point

TreeConfig = namedtuple("TreeConfig", "max_depth max_nodes", defaults=(64, 4096))


class TreeNode:
    """A base point, made after its children.  orders holds the ord of the
    transform at each node from the root down to this one."""

    __slots__ = ("path", "ideal", "zariski", "orders", "children", "__weakref__")

    def __init__(self, path, ideal, zariski, orders, children):
        self.path = path
        self.ideal = ideal
        self.zariski = zariski
        self.orders = orders
        self.children = children


class BasePointTree(namedtuple("BasePointTree", "ideal principal root")):
    __slots__ = ()

    def nodes(self):
        """All nodes, depth-first in canonical child order."""
        out = []
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def dicritical_nodes(self):
        """(node, its PrimeDivisor) for each node of positive Zariski number, in
        the order of nodes()."""
        return [(node, PrimeDivisor(node.path)) for node in self.nodes() if node.zariski > 0]


DicriticalRecord = namedtuple(
    "DicriticalRecord", "divisor index values degree global_values", defaults=(None, None)
)
# exponents: ((PrimeDivisor, positive exponent), ...) in tree order
Factorization = namedtuple("Factorization", "principal exponents")
SpecialPencilResult = namedtuple("SpecialPencilResult", "decision witness")


def strip_principal(J):
    """(normalized generator GCD, residual LocalIdeal)."""
    principal = J.content()
    if principal.is_constant():
        return principal, J
    gens = [g.exact_div(principal) for g in J.gens]
    return principal, LocalIdeal(J.tower, J.vars, gens)


def base_point_tree(J, config=None, floor=None):
    """The tree of J's residual.  floor, for a pencil of coprime generators,
    is at least its colength: each node then keeps only the terms that its
    subtree reads (see base_point), and the tree is the same but for the
    generators kept on the nodes."""
    config = config or TreeConfig()
    principal, residual = strip_principal(J)
    if residual.is_unit():
        return BasePointTree(ideal=J, principal=principal, root=None)
    count = [0]

    def build(path, ideal, orders, floor):
        if path.length > config.max_depth:
            raise DepthExceeded("tree exceeds depth %d" % config.max_depth)
        count[0] += 1
        if count[0] > config.max_nodes:
            raise NodeBudgetExceeded("tree exceeds %d nodes" % config.max_nodes)
        d, zariski, pairs = base_point(ideal, floor)
        orders += (d,)
        if floor is not None:
            floor -= d * d
        children = []
        for step, transform in pairs:
            children.append(build(path.extended(step), transform, orders, floor))
        return TreeNode(path, ideal, zariski, orders, tuple(children))

    root = build(QdtPath(residual.tower, residual.vars), residual, (), floor)
    return BasePointTree(ideal=J, principal=principal, root=root)


def dicritical_set(J, config=None):
    """One record per base point with positive Zariski number; the tree of a
    pencil with a monomial side is floored by its colength."""
    floor = _monomial_pencil_colength(*J.gens) if len(J.gens) == 2 else None
    return records_from_tree(base_point_tree(J, config, floor))


def records_from_tree(tree):
    """One record per dicritical node; a record keeps no node, so no tree."""
    return [_record(node, V) for node, V in tree.dicritical_nodes()]


def _record(node, V, degree=None):
    values = dict(zip(V.vars, V.coordinate_values()))
    return DicriticalRecord(divisor=V, index=node.zariski, values=values, degree=degree)


def zariski_factorization(J, config=None):
    tree = base_point_tree(J, config)
    return Factorization(
        principal=tree.principal,
        exponents=tuple((V, node.zariski) for node, V in tree.dicritical_nodes()),
    )


def dicritical_of_rational(z, config=None):
    """Dicritical divisors of a rational function, with degrees attached.

    Empty exactly when z or 1/z already lies in the local ring, i.e. when
    the reduced denominator or numerator is a local unit.  The tree's root
    is (num, den), and each transform keeps their ratio, so the residue
    image is read off the generators of the dicritical node.  When num or
    den is a monomial the tree is floored by the pencil's colength.
    """
    if z.is_zero():
        raise ZeroInput("the zero function has no dicritical divisors")
    if z.num.is_unit_at_origin() or z.den.is_unit_at_origin():
        return []
    tree = base_point_tree(LocalIdeal(z.tower, z.vars, [z.num, z.den]), config,
                           floor=_monomial_pencil_colength(z.num, z.den))
    out = []
    for node, V in tree.dicritical_nodes():
        image = initial_ratio(*node.ideal.gens)
        if image.is_constant():
            raise ConstantImage("the image is algebraic; V is not dicritical for z")
        out.append(_record(node, V, V.residue_degree() * image.degree))
    return out


def _monomial_pencil_colength(f, g):
    """i(f, g) at the origin when one is a monomial and they share neither x
    nor y, else None: i(f, x^a·y^b) = a·ord_y f(0, y) + b·ord_x f(x, 0)."""
    if f.is_monomial():
        f, g = g, f
    if not g.is_monomial():
        return None
    (a, b), = g.terms
    # empty when x divides f and a > 0, or y divides f and b > 0
    along_y = [j for i, j in f.terms if not i] if a else [0]
    along_x = [i for i, j in f.terms if not j] if b else [0]
    return a * min(along_y) + b * min(along_x) if along_y and along_x else None


def special_pencil_test(z):
    """Is the local part of the denominator a power of one order-1 element?

    When true, (regular parameter)^m * z lies in the ring for m = the
    order of the denominator, which is reported as the witness.
    """
    if z.is_zero():
        raise ZeroInput("the zero function is not a pencil generator")
    den = z.den
    if den.is_unit_at_origin():
        return SpecialPencilResult(decision=True, witness=0)
    reduced = squarefree_part(den)
    if reduced.ord_at_origin() == 1:
        return SpecialPencilResult(decision=True, witness=den.ord_at_origin())
    return SpecialPencilResult(decision=False, witness=None)


def rees_certificate(J, V):
    """Equal generator values plus a transcendental residue image.

    Sound and complete against dicritical_set for two-generated M-primary
    ideals: V is a Rees valuation of (a, b) exactly when a and b take the
    minimal value and a/b stays transcendental in the residue field.
    """
    if len(J.gens) != 2:
        raise ValueError("the certificate applies to two-generated ideals")
    try:
        return not residue_image(V, RationalFn(*J.gens)).is_constant()
    except NonzeroValue:
        return False
