"""Command line front end: expression parsing, dispatch, stable output."""

import argparse
import json
import math
import sys

from .arith import QQ, BiPoly, FieldTower, UniPoly
from .atinfinity import dicriticals_at_infinity
from .divisors import PrimeDivisor, RationalFn, simple_ideal
from .errors import BudgetExceeded, DivisionNotTopLevel, EngineError, ParseError
from .nearpoints import LocalIdeal, QdtPath, QdtStep
from .zariski import (
    TreeConfig,
    base_point_tree,
    dicritical_of_rational,
    dicritical_set,
    rees_certificate,
    special_pencil_test,
    zariski_factorization,
)
from . import idealcalc


# ------------------------------------------------------- expansion budget

# term pairs one parse-time product may multiply out
MAX_PARSE_PRODUCT = 10 ** 6
# bits of the coefficients one parse-time product or power may reach over Q
MAX_PARSE_COEFF_BITS = 10 ** 5
# parentheses one expression may nest; each level takes four parser frames
MAX_PARSE_NESTING = 100
# characters of a simple-ideal path's extension name
MAX_EXTENSION_NAME = 32


def _check_degree(degree):
    """Refuse a parse-time product or power of too high a total degree."""
    if degree > idealcalc.MAX_FRAME_DEGREE:
        # a degree of thousands of digits cannot be formatted as a string
        shown = "%d" % degree if degree < 10 ** 18 else "above 10^18"
        raise BudgetExceeded(
            "expanding the input reaches total degree %s, beyond the budget "
            "MAX_FRAME_DEGREE = %d" % (shown, idealcalc.MAX_FRAME_DEGREE)
        )


def _check_pairs(pairs):
    """Refuse a parse-time product of too many term pairs."""
    if pairs > MAX_PARSE_PRODUCT:
        raise BudgetExceeded(
            "expanding the input multiplies %d term pairs in one product, beyond the "
            "budget MAX_PARSE_PRODUCT = %d" % (pairs, MAX_PARSE_PRODUCT)
        )


def _check_coeff_bits(bits, times=1):
    """Refuse a parse-time product or power whose coefficients may pass times * bits bits."""
    if bits > 0 and times > MAX_PARSE_COEFF_BITS / bits:
        raise BudgetExceeded(
            "expanding the input reaches coefficients of more than %d bits, the "
            "budget MAX_PARSE_COEFF_BITS" % MAX_PARSE_COEFF_BITS
        )


def _coeff_bits(f):
    """log2 of the sum of |coefficients| of f over Q, a bound on each of them.

    The sum for f.g is at most the product of the sums, so these add.
    """
    norm = sum(abs(c) for c in f.terms.values())
    return math.log2(norm.numerator) - math.log2(norm.denominator) if norm else 0.0


def _power_terms(f, k):
    """An upper bound on the number of terms of f^k."""
    t, d = len(f.terms), k * max(f.total_degree, 0)
    return min(math.comb(t + k - 1, k), (d + 1) * (d + 2) // 2)


# ---------------------------------------------------------------- tokenizer

_OPS = "+-*^/(),"
# str.isdigit also holds for superscripts and non-ASCII decimal digits
_DIGITS = "0123456789"


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", len(text)))
    return tokens


def _int_literal(tok):
    """The value of an int token; Python refuses to convert very long literals."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError("integer literal of %d digits is too long" % len(tok[1]), tok[2]) from None


class _Parser:
    """Sums of terms over declared variables; '/' never below the top level."""

    def __init__(self, text, tower, vars):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.tower = tower
        self.vars = vars

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            if tok[0] == "/":
                raise DivisionNotTopLevel(
                    "division is only allowed between numerator and denominator",
                    tok[2],
                )
            raise ParseError("expected %r" % kind, tok[2])
        return tok

    def parse_sum(self):
        kind, _, _ = self.peek()
        if kind == "-":
            self.take()
            acc = self.parse_term().neg()
        else:
            acc = self.parse_term()
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                acc = acc.add(self.parse_term())
            elif kind == "-":
                self.take()
                acc = acc.sub(self.parse_term())
            else:
                return acc

    def parse_term(self):
        acc = self.parse_power()
        while self.peek()[0] == "*":
            self.take()
            factor = self.parse_power()
            _check_degree(acc.total_degree + factor.total_degree)
            _check_pairs(len(acc.terms) * len(factor.terms))
            # only rational coefficients grow; F_p ones stay below p
            if self.tower.is_rationals:
                _check_coeff_bits(_coeff_bits(acc) + _coeff_bits(factor))
            acc = acc.mul(factor)
        return acc

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer literal", tok[2])
            e = _int_literal(tok)
            _check_degree(base.total_degree * e)
            # BiPoly.pow squares its way up: no product it forms has a factor
            # beyond f^(2^(bits - 1))
            _check_pairs(_power_terms(base, 1 << max(e.bit_length() - 1, 0)) ** 2)
            if self.tower.is_rationals:
                _check_coeff_bits(_coeff_bits(base), e)
            return base.pow(e)
        return base

    def parse_atom(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "int":
            return BiPoly.from_int(self.tower, self.vars, _int_literal(tok))
        if kind == "name":
            if value not in self.vars:
                raise ParseError("unknown variable %r" % value, pos)
            return BiPoly.variable(self.tower, self.vars, value)
        if kind == "-":
            # a chain of unary minuses is read in a loop, not recursively
            negate = True
            while self.peek()[0] == "-":
                self.take()
                negate = not negate
            atom = self.parse_atom()
            return atom.neg() if negate else atom
        if kind == "(":
            if self.depth == MAX_PARSE_NESTING:
                raise ParseError(
                    "parentheses nested deeper than MAX_PARSE_NESTING = %d" % MAX_PARSE_NESTING, pos
                )
            self.depth += 1
            inner = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "/":
            raise DivisionNotTopLevel(
                "division is only allowed between numerator and denominator", pos
            )
        raise ParseError("unexpected %r" % (value or kind), pos)


def parse_polynomial(text, tower, vars):
    parser = _Parser(text, tower, vars)
    poly = parser.parse_sum()
    parser.expect("end")
    return poly


def parse_rational(text, tower, vars):
    parser = _Parser(text, tower, vars)
    num = parser.parse_sum()
    if parser.peek()[0] == "/":
        parser.take()
        den = parser.parse_sum()
        parser.expect("end")
        return RationalFn(num, den)
    parser.expect("end")
    return RationalFn(num, BiPoly.one(tower, vars))


def parse_ideal(text, tower, vars):
    parser = _Parser(text, tower, vars)
    gens = [parser.parse_sum()]
    while parser.peek()[0] == ",":
        parser.take()
        gens.append(parser.parse_sum())
    parser.expect("end")
    return LocalIdeal(tower, vars, gens)


# ------------------------------------------------------------ serialization


def _step_data(tower, step):
    if step.kind == "infinity":
        return {"chart": "infinity", "c": None, "extension": None}
    if step.ext_name is not None:
        return {
            "chart": "affine",
            "c": None,
            "extension": {
                "name": step.ext_name,
                "minpoly": [tower.element_to_data(c) for c in step.ext_minpoly],
            },
        }
    return {"chart": "affine", "c": tower.element_to_data(step.c), "extension": None}


def _path_data(path):
    return [_step_data(path.node_tower(i), step) for i, step in enumerate(path.steps)]


def _clipped(value, limit=40):
    """value's JSON text (an exception's str), cut to at most limit characters."""
    text = str(value) if isinstance(value, Exception) else json.dumps(_shallow(value, limit))
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _shallow(value, depth):
    """value with its lists and objects below depth levels cut off: their JSON
    starts past the first depth characters, and json.dumps need not recurse there."""
    if depth == 0:
        return None
    if isinstance(value, list):
        return [_shallow(v, depth - 1) for v in value]
    if isinstance(value, dict):
        return {k: _shallow(v, depth - 1) for k, v in value.items()}
    return value


def _parse_step(entry, tower, vars):
    """One step from its JSON object; a missing or malformed field raises
    KeyError, TypeError, ValueError or ZeroDivisionError.  An extension's name
    is written into every output path, so it must tell the generator apart."""
    chart = entry["chart"]
    if chart == "infinity":
        return QdtStep.infinity()
    if chart != "affine":
        raise ParseError("unknown chart %s" % _clipped(chart), 0)
    ext = entry.get("extension")
    if ext is None:
        return QdtStep.affine(tower.element_from_data(entry["c"]))
    name = ext["name"]
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()
            and len(name) <= MAX_EXTENSION_NAME) or name in vars or name in dict(tower.levels):
        raise ParseError(
            "extension name %s must be an ASCII identifier of at most %d characters that no "
            "variable or earlier generator has" % (_clipped(name), MAX_EXTENSION_NAME), 0,
        )
    minpoly = UniPoly(tower, [tower.element_from_data(c) for c in ext["minpoly"]])
    if minpoly.degree < 2:
        raise ParseError("an extension's minimal polynomial needs degree at least 2", 0)
    # a step's minimal polynomial is monic, as the round trip finds it
    return QdtStep.affine_ext(name, minpoly.monic().coeffs)


def parse_path(data, tower, vars):
    if not isinstance(data, list):
        raise ParseError("path must be a list of steps", 0)
    steps = []
    current = tower
    for entry in data:
        if not isinstance(entry, dict):
            raise ParseError("each step must be an object", 0)
        try:
            step = _parse_step(entry, current, vars)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                "malformed step %d, chart %s: %s (%s: %s)" % (
                    len(steps), _clipped(entry.get("chart")), _clipped(entry),
                    type(exc).__name__, _clipped(exc),
                ), 0,
            ) from None
        # a reducible minimal polynomial is refused here, before the round trip
        current = step.extend_tower(current, check=True)
        steps.append(step)
    return QdtPath(tower, vars, steps)


def _record_data(record):
    data = {
        "path": _path_data(record.divisor.path),
        "index": record.index,
        "values": {k: v for k, v in sorted(record.values.items())},
        "degree": record.degree,
    }
    if record.global_values is not None:
        data["global_values"] = {
            k: v for k, v in sorted(record.global_values.items())
        }
    return data


def _factorization_data(fact):
    return {
        "principal": fact.principal.render(),
        "exponents": [
            {"path": _path_data(v.path), "exponent": n} for v, n in fact.exponents
        ],
    }


# ----------------------------------------------------------------- reports


def _base_report(args, expressions):
    options = {}
    for key in ("depth", "nodes", "nmax"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return {
        "request": {
            "subcommand": args.subcommand,
            "expressions": list(expressions),
            "vars": list(args.vars),
            "options": options,
        },
        "field": args.field_spec,
        "records": None,
        "factorization": None,
        "decision": None,
        "witness": None,
        "diagnostics": None,
    }


def _emit(report, args, lines):
    if args.format == "machine":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _record_lines(records):
    lines = []
    for r in records:
        vals = " ".join("%s:%d" % (k, v) for k, v in sorted(r.values.items()))
        line = "divisor %s index=%d values %s" % (
            r.divisor.path.render(),
            r.index,
            vals,
        )
        if r.degree is not None:
            line += " degree=%d" % r.degree
        if r.global_values is not None:
            line += " global " + " ".join(
                "%s:%d" % (k, v) for k, v in sorted(r.global_values.items())
            )
        lines.append(line)
    if not lines:
        lines.append("no dicritical divisors")
    return lines


# ------------------------------------------------------------- subcommands


def _tree_config(args):
    kwargs = {}
    if args.depth is not None:
        kwargs["max_depth"] = args.depth
    if args.nodes is not None:
        kwargs["max_nodes"] = args.nodes
    return TreeConfig(**kwargs) if kwargs else None


def _cmd_dicriticals(args, tower):
    z = parse_rational(args.expressions[0], tower, args.vars)
    records = dicritical_of_rational(z, _tree_config(args))
    report = _base_report(args, args.expressions)
    report["records"] = [_record_data(r) for r in records]
    return report, _record_lines(records)


def _cmd_ideal_dicriticals(args, tower):
    ideal = parse_ideal(args.expressions[0], tower, args.vars)
    records = dicritical_set(ideal, _tree_config(args))
    report = _base_report(args, args.expressions)
    report["records"] = [_record_data(r) for r in records]
    return report, _record_lines(records)


def _cmd_basepoints(args, tower):
    ideal = parse_ideal(args.expressions[0], tower, args.vars)
    tree = base_point_tree(ideal, _tree_config(args))
    nodes = tree.nodes()
    report = _base_report(args, args.expressions)
    report["diagnostics"] = {
        "principal": tree.principal.render(),
        "nodes": [
            {
                "path": _path_data(node.path),
                "zariski": node.zariski,
                "transform": [g.render() for g in node.ideal.gens],
            }
            for node in nodes
        ],
    }
    lines = ["principal %s" % tree.principal.render()]
    for node in nodes:
        lines.append(
            "node %s zariski=%d transform (%s)"
            % (
                node.path.render(),
                node.zariski,
                ", ".join(g.render() for g in node.ideal.gens),
            )
        )
    return report, lines


def _cmd_zariski_factor(args, tower):
    ideal = parse_ideal(args.expressions[0], tower, args.vars)
    fact = zariski_factorization(ideal, _tree_config(args))
    report = _base_report(args, args.expressions)
    report["factorization"] = _factorization_data(fact)
    lines = ["principal %s" % fact.principal.render()]
    for v, n in fact.exponents:
        lines.append("simple %s exponent=%d" % (v.path.render(), n))
    return report, lines


def _cmd_closure_member(args, tower):
    f = parse_polynomial(args.expressions[0], tower, args.vars)
    ideal = parse_ideal(args.expressions[1], tower, args.vars)
    decision = idealcalc.closure_membership(f, ideal, _tree_config(args))
    report = _base_report(args, args.expressions)
    report["decision"] = decision
    return report, ["decision %s" % ("true" if decision else "false")]


def _cmd_closure_equals(args, tower):
    j = parse_ideal(args.expressions[0], tower, args.vars)
    k = parse_ideal(args.expressions[1], tower, args.vars)
    decision = idealcalc.closure_equals(j, k, _tree_config(args))
    report = _base_report(args, args.expressions)
    report["decision"] = decision
    return report, ["decision %s" % ("true" if decision else "false")]


def _cmd_colength(args, tower):
    ideal = parse_ideal(args.expressions[0], tower, args.vars)
    value = idealcalc.colength(ideal)
    report = _base_report(args, args.expressions)
    report["witness"] = value
    report["diagnostics"] = {"colength": value}
    return report, ["colength %d" % value]


def _cmd_reduction_check(args, tower):
    j = parse_ideal(args.expressions[0], tower, args.vars)
    i = parse_ideal(args.expressions[1], tower, args.vars)
    result = idealcalc.is_reduction(j, i, n_max=args.nmax, config=_tree_config(args))
    report = _base_report(args, args.expressions)
    report["decision"] = result.decision
    report["witness"] = result.witness
    report["diagnostics"] = {
        "by_direct": result.by_direct,
        "by_valuative": result.by_valuative,
    }
    lines = ["decision %s" % ("true" if result.decision else "false")]
    if result.witness is not None:
        lines.append("witness %d" % result.witness)
    return report, lines


def _cmd_special_pencil(args, tower):
    z = parse_rational(args.expressions[0], tower, args.vars)
    result = special_pencil_test(z)
    report = _base_report(args, args.expressions)
    report["decision"] = result.decision
    report["witness"] = result.witness
    lines = ["decision %s" % ("true" if result.decision else "false")]
    if result.witness is not None:
        lines.append("witness %d" % result.witness)
    return report, lines


def _cmd_rees_certificate(args, tower):
    ideal = parse_ideal(args.expressions[0], tower, args.vars)
    if len(ideal.gens) != 2:
        raise ParseError("rees-certificate needs an ideal of two nonzero generators")
    records = dicritical_set(ideal, _tree_config(args))
    decision = all(rees_certificate(ideal, r.divisor) for r in records)
    report = _base_report(args, args.expressions)
    report["decision"] = decision
    report["records"] = [_record_data(r) for r in records]
    lines = ["decision %s" % ("true" if decision else "false")]
    lines.extend(_record_lines(records))
    return report, lines


def _cmd_simple_ideal(args, tower):
    try:
        data = json.loads(args.expressions[0])
    except json.JSONDecodeError as exc:
        raise ParseError("path is not valid JSON: %s" % exc.msg, exc.pos)
    except (RecursionError, ValueError) as exc:
        # nested past the recursion limit, or an integer past int()'s digit limit
        raise ParseError("path cannot be read as JSON (%s: %s)" % (type(exc).__name__, exc), 0) from None
    path = parse_path(data, tower, args.vars)
    divisor = PrimeDivisor(path)
    ideal = simple_ideal(divisor)
    a, b = divisor.coordinate_values()
    report = _base_report(args, args.expressions)
    report["records"] = [
        {
            "path": _path_data(path),
            "index": None,
            "values": {args.vars[0]: a, args.vars[1]: b},
            "degree": None,
        }
    ]
    report["diagnostics"] = {"generators": [g.render() for g in ideal.gens]}
    lines = [
        "values %s:%d %s:%d" % (args.vars[0], a, args.vars[1], b),
        "generators (%s)" % ", ".join(g.render() for g in ideal.gens),
    ]
    return report, lines


def _cmd_at_infinity(args, tower):
    f = parse_polynomial(args.expressions[0], tower, args.vars)
    result = dicriticals_at_infinity(f, _tree_config(args))
    report = _base_report(args, args.expressions)
    records = []
    points = []
    lines = ["degree %d degree-form %s" % (result.degree, result.degree_form.render())]
    for point, recs in result.entries:
        points.append(
            {
                "label": point.label(),
                "kind": point.kind,
                "extension_degree": point.extension_degree,
                "chart_vars": list(point.chart_vars),
                "ideal": [g.render() for g in point.ideal.gens],
            }
        )
        lines.append(
            "point %s chart (%s) ideal (%s)"
            % (
                point.label(),
                ", ".join(point.chart_vars),
                ", ".join(g.render() for g in point.ideal.gens),
            )
        )
        for r in recs:
            data = _record_data(r)
            data["point"] = point.label()
            records.append(data)
        lines.extend("  " + line for line in _record_lines(recs))
    report["records"] = records
    report["diagnostics"] = {"points": points, "total": result.total}
    return report, lines


def _cmd_abhyankar_family(args, tower):
    try:
        m = int(args.expressions[0])
    except ValueError:
        m = 0
    if m < 1:
        raise ParseError("family index must be a positive integer", 0)
    f, g, ideal = idealcalc.abhyankar_family(m, tower, args.vars)
    pencil = LocalIdeal(tower, args.vars, [f, g])
    config = _tree_config(args)
    result = idealcalc.is_reduction(pencil, ideal, n_max=args.nmax, config=config)
    records = dicritical_set(pencil, config)
    report = _base_report(args, args.expressions)
    report["records"] = [_record_data(r) for r in records]
    report["decision"] = result.decision
    report["witness"] = result.witness
    report["diagnostics"] = {
        "F": f.render(),
        "G": g.render(),
        "generators": [p.render() for p in ideal.gens],
        "order": ideal.min_order(),
    }
    lines = [
        "F %s" % f.render(),
        "G %s" % g.render(),
        "I (%s)" % ", ".join(p.render() for p in ideal.gens),
        "reduction %s witness %s"
        % ("true" if result.decision else "false", result.witness),
    ]
    lines.extend(_record_lines(records))
    return report, lines


_COMMANDS = {
    "dicriticals": (_cmd_dicriticals, 1),
    "ideal-dicriticals": (_cmd_ideal_dicriticals, 1),
    "basepoints": (_cmd_basepoints, 1),
    "zariski-factor": (_cmd_zariski_factor, 1),
    "closure-member": (_cmd_closure_member, 2),
    "closure-equals": (_cmd_closure_equals, 2),
    "colength": (_cmd_colength, 1),
    "reduction-check": (_cmd_reduction_check, 2),
    "special-pencil": (_cmd_special_pencil, 1),
    "rees-certificate": (_cmd_rees_certificate, 1),
    "simple-ideal": (_cmd_simple_ideal, 1),
    "at-infinity": (_cmd_at_infinity, 1),
    "abhyankar-family": (_cmd_abhyankar_family, 1),
}


def _field(spec):
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
            return FieldTower.prime_field(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("bad characteristic in %r: %s" % (spec, exc))
    raise argparse.ArgumentTypeError("field must be Q or Fp:<p>")


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="dicritical",
        description="Dicritical divisors, base point trees, and closures "
        "of ideals in a two-dimensional regular local ring.",
    )
    ap.add_argument("subcommand", choices=sorted(_COMMANDS))
    ap.add_argument("expressions", nargs="*")
    ap.add_argument("--field", default="Q", dest="field_spec")
    ap.add_argument("--vars", default=None)
    ap.add_argument("--depth", type=int, default=None)
    ap.add_argument("--nodes", type=int, default=None)
    ap.add_argument("--nmax", type=int, default=None)
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    return ap


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    handler, arity = _COMMANDS[args.subcommand]
    if len(args.expressions) != arity:
        sys.stderr.write(
            "error: %s takes %d expression argument(s), got %d\n"
            % (args.subcommand, arity, len(args.expressions))
        )
        return 2
    if args.vars is None:
        args.vars = ("X", "Y") if args.subcommand == "at-infinity" else ("x", "y")
    else:
        parts = tuple(p.strip() for p in args.vars.split(","))
        if len(parts) != 2 or not all(parts) or parts[0] == parts[1]:
            sys.stderr.write("error: --vars needs two distinct comma-separated names\n")
            return 2
        args.vars = parts
    for key in ("depth", "nodes", "nmax"):
        value = getattr(args, key)
        if value is not None and value < 0:
            sys.stderr.write("error: --%s must be nonnegative\n" % key)
            return 2
    try:
        tower = _field(args.field_spec)
    except argparse.ArgumentTypeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    try:
        report, lines = handler(args, tower)
    except EngineError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code
    _emit(report, args, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
