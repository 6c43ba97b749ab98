"""The base-point reading that nearpoints.base_point used before it read the
directions off one univariate gcd, kept as the reference for the
differential tests.

homogeneous_gcd takes the gcd of the least-order initial forms as a
homogeneous form: it strips each form's monomial part, takes the gcd of the
dehomogenized rests, homogenizes that gcd again and multiplies the least
monomial back.  _direction_steps then dehomogenizes the gcd once more and
factors it, the factor t included, to list the directions.
"""

from dicritical.arith.factor import _poly_key, factor_univariate
from dicritical.arith.polynomials import BiPoly, UniPoly, _split_monomial
from dicritical.errors import EmptyInput, ZeroPolynomial
from dicritical.nearpoints import QdtStep, transform_ideal


def homogenized(tower, vars, p, degree):
    """u^degree * p(w/u) for p of degree <= degree."""
    if p.degree > degree:
        raise ValueError("degree too small to homogenize")
    terms = {}
    for j, c in enumerate(p.coeffs):
        if not tower.is_zero(c):
            terms[(degree - j, j)] = c
    return BiPoly(tower, vars, terms)


def homogeneous_gcd(forms):
    """Gcd of a list of nonzero homogeneous forms, as a homogeneous form.

    The result is normalized (lex-least exponent has coefficient 1); its
    degree is the s of the Zariski number d - s.
    """
    forms = list(forms)
    if not forms:
        raise EmptyInput("homogeneous gcd of an empty list")
    tower = forms[0].tower
    vars = forms[0].vars
    min_u = None
    min_w = None
    reduced = []
    for h in forms:
        if h.is_zero():
            raise ZeroPolynomial("homogeneous gcd of a zero form")
        if not h.is_homogeneous():
            raise ValueError("inputs must be homogeneous")
        (a, b), stripped = _split_monomial(h)
        min_u = a if min_u is None else min(min_u, a)
        min_w = b if min_w is None else min(min_w, b)
        reduced.append(stripped.dehomogenized())
    g = reduced[0]
    for p in reduced[1:]:
        g = g.gcd(p)
        if g.degree == 0:
            break
    core = homogenized(tower, vars, g, g.degree)
    return core.mul_monomial((min_u, min_w)).normalized()


def _initial_gcd(J):
    """(d, gamma): the least order d of J's generators and the gcd gamma of
    their initial forms of order d."""
    orders = [g.ord_at_origin() for g in J.gens]
    d = min(orders)
    return d, homogeneous_gcd([g.initial_form() for g, o in zip(J.gens, orders) if o == d])


def _direction_steps(gamma):
    """Candidate steps from the projective zeros of the initial-form GCD."""
    s = gamma.total_degree
    if s == 0:
        return []
    T = gamma.tower
    q = gamma.dehomogenized()
    plain = []
    extending = []
    if q.degree >= 1:
        _, factors = factor_univariate(q)
        for irr, _ in factors:
            if irr.degree == 1:
                plain.append(QdtStep.affine(T.neg(irr.coeff(0))))
            else:
                name = "a%d" % (T.height + 1)
                extending.append(QdtStep.affine_ext(name, irr.coeffs))
    plain.sort(key=lambda st: T.sort_key(st.c))
    extending.sort(key=lambda st: _poly_key(UniPoly(T, st.ext_minpoly)))
    steps = plain + extending
    if q.degree < s:
        steps.append(QdtStep.infinity())
    return steps


def base_point(J):
    """(d, Zariski number, [(step, transform), ...]) of J, read off one gcd
    gamma of its initial forms of least order d: the number is d - deg gamma,
    and the directions, in canonical order, are the projective zeros of gamma."""
    d, gamma = _initial_gcd(J)
    pairs = [(step, transform_ideal(J, step)) for step in _direction_steps(gamma)]
    return d, d - gamma.total_degree, pairs
