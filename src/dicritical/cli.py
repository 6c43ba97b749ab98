"""Command line front end: expression parsing, dispatch, stable output."""

import argparse
import json
import math
import os
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
    records_from_tree,
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
# what a parse-time product or power beyond MAX_FRAME_DEGREE reaches
_EXPANDED = "expanding the input reaches total degree"


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


def _refuse(tok, message):
    """Refuse a token the grammar does not allow here; a '/' anywhere but
    between numerator and denominator has its own error."""
    if tok[0] == "/":
        raise DivisionNotTopLevel("division is only allowed between numerator and denominator", tok[2])
    raise ParseError(message, tok[2])


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
            _refuse(tok, "expected %r" % kind)
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
            idealcalc._check_frame_degree(acc.total_degree + factor.total_degree, _EXPANDED)
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
            idealcalc._check_frame_degree(base.total_degree * e, _EXPANDED)
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
        _refuse(tok, "unexpected %r" % (value or kind))


def parse_polynomial(text, tower, vars):
    parser = _Parser(text, tower, vars)
    poly = parser.parse_sum()
    parser.expect("end")
    return poly


def parse_rational(text, tower, vars):
    parser = _Parser(text, tower, vars)
    num = parser.parse_sum()
    den = BiPoly.one(tower, vars)
    if parser.peek()[0] == "/":
        parser.take()
        den = parser.parse_sum()
    parser.expect("end")
    return RationalFn(num, den)


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


def _clipped(value):
    """value's JSON text (an exception's str), cut to at most 40 characters."""
    text = str(value) if isinstance(value, Exception) else json.dumps(_shallow(value, 40))
    return text if len(text) <= 40 else text[:37] + "..."


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


# ----------------------------------------------------------------- reports


def _base_report(args, options):
    return {
        "request": {
            "subcommand": args.subcommand,
            "expressions": list(args.expressions),
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
        lines = [json.dumps(report, sort_keys=True, separators=(",", ":"))]
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so that the
        # interpreter's final flush is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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

# Each handler takes the parsed arguments (with the field as tower and the
# tree budget as config) and its parsed expressions, and returns
# (report fields, text lines).


def _records(records):
    return {"records": [_record_data(r) for r in records]}, _record_lines(records)


def _verdict(decision, witness=None):
    lines = ["decision %s" % ("true" if decision else "false")]
    if witness is not None:
        lines.append("witness %d" % witness)
    return {"decision": decision, "witness": witness}, lines


def _cmd_dicriticals(args, z):
    return _records(dicritical_of_rational(z, args.config))


def _cmd_ideal_dicriticals(args, ideal):
    return _records(dicritical_set(ideal, args.config))


def _cmd_basepoints(args, ideal):
    tree = base_point_tree(ideal, args.config)
    nodes = tree.nodes()
    diagnostics = {
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
    return {"diagnostics": diagnostics}, lines


def _cmd_zariski_factor(args, ideal):
    fact = zariski_factorization(ideal, args.config)
    lines = ["principal %s" % fact.principal.render()]
    for v, n in fact.exponents:
        lines.append("simple %s exponent=%d" % (v.path.render(), n))
    factorization = {
        "principal": fact.principal.render(),
        "exponents": [
            {"path": _path_data(v.path), "exponent": n} for v, n in fact.exponents
        ],
    }
    return {"factorization": factorization}, lines


def _cmd_closure_member(args, f, ideal):
    return _verdict(idealcalc.closure_membership(f, ideal, args.config))


def _cmd_closure_equals(args, j, k):
    return _verdict(idealcalc.closure_equals(j, k, args.config))


def _cmd_colength(args, ideal):
    value = idealcalc.colength(ideal)
    fields = {"witness": value, "diagnostics": {"colength": value}}
    return fields, ["colength %d" % value]


def _cmd_reduction_check(args, j, i):
    result = idealcalc.is_reduction(j, i, n_max=args.nmax, config=args.config)
    fields, lines = _verdict(result.decision, result.witness)
    fields["diagnostics"] = {
        "by_direct": result.by_direct,
        "by_valuative": result.by_valuative,
    }
    return fields, lines


def _cmd_special_pencil(args, z):
    result = special_pencil_test(z)
    return _verdict(result.decision, result.witness)


def _cmd_rees_certificate(args, ideal):
    if len(ideal.gens) != 2:
        raise ParseError("rees-certificate needs an ideal of two nonzero generators")
    records = dicritical_set(ideal, args.config)
    fields, lines = _verdict(all(rees_certificate(ideal, r.divisor) for r in records))
    found, record_lines = _records(records)
    fields.update(found)
    return fields, lines + record_lines


def _json_path(text, tower, vars):
    """A simple-ideal path from its JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("path is not valid JSON: %s" % exc.msg, exc.pos)
    except (RecursionError, ValueError) as exc:
        # nested past the recursion limit, or an integer past int()'s digit limit
        raise ParseError("path cannot be read as JSON (%s: %s)" % (type(exc).__name__, exc), 0) from None
    return parse_path(data, tower, vars)


def _cmd_simple_ideal(args, path):
    divisor = PrimeDivisor(path)
    ideal = simple_ideal(divisor)
    a, b = divisor.coordinate_values()
    records = [
        {
            "path": _path_data(path),
            "index": None,
            "values": {args.vars[0]: a, args.vars[1]: b},
            "degree": None,
        }
    ]
    diagnostics = {"generators": [g.render() for g in ideal.gens]}
    lines = [
        "values %s:%d %s:%d" % (args.vars[0], a, args.vars[1], b),
        "generators (%s)" % ", ".join(g.render() for g in ideal.gens),
    ]
    return {"records": records, "diagnostics": diagnostics}, lines


def _cmd_at_infinity(args, f):
    result = dicriticals_at_infinity(f, args.config)
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
    diagnostics = {"points": points, "total": result.total}
    return {"records": records, "diagnostics": diagnostics}, lines


def _family_index(text, tower, vars):
    """The index m >= 1 of an Abhyankar family, in ASCII digits as the
    tokenizer reads them: int() also takes other digits, '_' and spaces."""
    try:
        m = int(text) if text and all(ch in _DIGITS for ch in text) else 0
    except ValueError:  # more digits than int() converts
        m = 0
    if m < 1:
        raise ParseError("family index must be a positive integer", 0)
    return m


def _cmd_abhyankar_family(args, m):
    f, g, ideal = idealcalc.abhyankar_family(m, args.tower, args.vars)
    # the pencil's colength is read off a frame of degree d(J_m) = m^2
    idealcalc._check_frame_degree(m * m, "the length frame of (F_m, G_m) has degree")
    pencil = LocalIdeal(args.tower, args.vars, [f, g])
    result, data = idealcalc._reduction(pencil, ideal, args.nmax, args.config)
    # a monomial pencil's closure record (m = 1) holds no tree
    tree = data.tree if data and data.tree else base_point_tree(pencil, args.config)
    fields, record_lines = _records(records_from_tree(tree))
    fields.update(decision=result.decision, witness=result.witness)
    fields["diagnostics"] = {
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
    return fields, lines + record_lines


# subcommand: (handler, the reader of each expression argument)
_COMMANDS = {
    "dicriticals": (_cmd_dicriticals, (parse_rational,)),
    "ideal-dicriticals": (_cmd_ideal_dicriticals, (parse_ideal,)),
    "basepoints": (_cmd_basepoints, (parse_ideal,)),
    "zariski-factor": (_cmd_zariski_factor, (parse_ideal,)),
    "closure-member": (_cmd_closure_member, (parse_polynomial, parse_ideal)),
    "closure-equals": (_cmd_closure_equals, (parse_ideal, parse_ideal)),
    "colength": (_cmd_colength, (parse_ideal,)),
    "reduction-check": (_cmd_reduction_check, (parse_ideal, parse_ideal)),
    "special-pencil": (_cmd_special_pencil, (parse_rational,)),
    "rees-certificate": (_cmd_rees_certificate, (parse_ideal,)),
    "simple-ideal": (_cmd_simple_ideal, (_json_path,)),
    "at-infinity": (_cmd_at_infinity, (parse_polynomial,)),
    "abhyankar-family": (_cmd_abhyankar_family, (_family_index,)),
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
    handler, readers = _COMMANDS[args.subcommand]
    if len(args.expressions) != len(readers):
        sys.stderr.write(
            "error: %s takes %d expression argument(s), got %d\n"
            % (args.subcommand, len(readers), len(args.expressions))
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
    options = {key: getattr(args, key) for key in ("depth", "nodes", "nmax")}
    options = {key: value for key, value in options.items() if value is not None}
    for key, value in options.items():
        if value < 0:
            sys.stderr.write("error: --%s must be nonnegative\n" % key)
            return 2
    try:
        args.tower = _field(args.field_spec)
    except argparse.ArgumentTypeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    # the base-point tree budget: --depth and --nodes over TreeConfig's defaults
    args.config = TreeConfig(
        **{"max_" + key: value for key, value in options.items() if key != "nmax"}
    )
    try:
        inputs = [read(text, args.tower, args.vars) for read, text in zip(readers, args.expressions)]
        fields, lines = handler(args, *inputs)
    except EngineError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code
    report = _base_report(args, options)
    report.update(fields)
    _emit(report, args, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
