"""Points of a polynomial at infinity and the partition of its dicriticals.

Each projective zero of the degree form gets a local chart at infinity in
which the polynomial becomes numerator / z^N for the chart's reciprocal
coordinate z.  The dicritical divisors of the polynomial are the dicritical
divisors of these local rational functions, taken over all the points.
"""

from collections import namedtuple

from .arith import BiPoly, factor_univariate
from .arith.factor import extend
from .divisors import RationalFn
from .errors import InternalInconsistency, ZeroPolynomial
from .nearpoints import LocalIdeal
from .zariski import dicritical_of_rational, special_pencil_test

FINITE_CHART = ("z", "y")
VERTICAL_CHART = ("z", "x")


class InfinityPoint(
    namedtuple("InfinityPoint", "kind tower c minpoly chart_vars input_vars z ideal")
):
    """A zero of the degree form on the line at infinity, with its chart.

    kind is "finite" for [1:c:0] and "vertical" for [0:1:0]; c is set at
    finite points only; minpoly is the UniPoly of the point's tower extension,
    or None; z is the chart's RationalFn and ideal its LocalIdeal (num, den).
    """

    __slots__ = ()

    @property
    def extension_degree(self):
        return self.minpoly.degree if self.minpoly is not None else 1

    def label(self):
        if self.kind == "vertical":
            return "[0:1:0]"
        return "[1:%s:0]" % self.tower.render(self.c)


class InfinityReport(namedtuple("InfinityReport", "f degree degree_form entries")):
    """entries: ((InfinityPoint, (DicriticalRecord, ...)), ...)."""

    __slots__ = ()

    @property
    def total(self):
        return sum(len(records) for _, records in self.entries)


def _finite_numerator(f, tower, c, n):
    """z^N * f(1/z, (y+c)/z): x^i*y^j becomes z^(N-i-j)*y^j, then y becomes y + c."""
    terms = {(n - i - j, j): tower.lift_from(f.tower, a) for (i, j), a in f.terms.items()}
    return BiPoly(tower, FINITE_CHART, terms).shifted(c)


def _vertical_numerator(f, n):
    """z^N * f(x/z, 1/z) in the chart at [0:1:0]."""
    terms = {(n - i - j, i): a for (i, j), a in f.terms.items()}
    return BiPoly(f.tower, VERTICAL_CHART, terms)


def points_at_infinity(f):
    """One point per irreducible factor of the degree form, vertical last."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no degree form")
    if f.is_constant():
        raise ZeroPolynomial("a constant has no points at infinity")
    n = f.total_degree
    phi = f.degree_form()
    core = phi.dehomogenized()
    points = []
    if core.degree >= 1:
        _, factors = factor_univariate(core)
    else:
        factors = []
    for zeta, _ in factors:
        if zeta.degree == 1:
            tower = f.tower
            c = tower.neg(zeta.coeff(0))
            minpoly = None
        else:
            name = "a%d" % (f.tower.height + 1)
            tower = extend(f.tower, zeta, name, check=False)
            c = tower.generator()
            minpoly = zeta
        num = _finite_numerator(f, tower, c, n)
        den = BiPoly.monomial(tower, FINITE_CHART, (n, 0))
        points.append(
            _package(f, "finite", tower, c, minpoly, FINITE_CHART, num, den)
        )
    if core.degree < n:
        num = _vertical_numerator(f, n)
        den = BiPoly.monomial(f.tower, VERTICAL_CHART, (n, 0))
        points.append(
            _package(f, "vertical", f.tower, None, None, VERTICAL_CHART, num, den)
        )
    return points


def _package(f, kind, tower, c, minpoly, chart, num, den):
    z = RationalFn(num, den)
    ideal = LocalIdeal(tower, chart, [num, den])
    if not (ideal.is_mprimary() and special_pencil_test(z).decision):
        raise InternalInconsistency("the pencil at a point at infinity is not special")
    point = InfinityPoint(
        kind=kind,
        tower=tower,
        c=c,
        minpoly=minpoly,
        chart_vars=chart,
        input_vars=f.vars,
        z=z,
        ideal=ideal,
    )
    return point


def dicriticals_at_infinity(f, config=None):
    """The partition of f's dicritical divisors among its points at infinity."""
    points = points_at_infinity(f)
    entries = []
    for point in points:
        records = tuple(
            r._replace(global_values=_global_values(point, r.divisor))
            for r in dicritical_of_rational(point.z, config)
        )
        entries.append((point, records))
    return InfinityReport(
        f=f, degree=f.total_degree, degree_form=f.degree_form(), entries=tuple(entries)
    )


def _global_values(point, divisor):
    """Values of the input coordinates from the chart's: v(w + c) = 0 when c != 0."""
    vz, vw = divisor.coordinate_values()
    if point.kind == "finite":
        vx, vy = -vz, (vw if point.tower.is_zero(point.c) else 0) - vz
    else:
        vx, vy = vw - vz, -vz
    return dict(zip(point.input_vars, (vx, vy)))
