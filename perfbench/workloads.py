"""The three workloads: seeded inputs, the operations, and their checks.

A workload is a fixed list of operations.  Each operation builds fresh
engine objects from plain data (untimed), makes one timed call, and turns
the result into a small canonical fingerprint.  The first result of every
operation is checked in full against figures computed outside the engine;
every later result of that operation must repeat its fingerprint.

The engine is imported lazily (``engine()``) so that importing this module
costs nothing and the benchmark can time the engine's own import.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import polymod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
V = ("x", "y")
W = ("X", "Y")
P_LARGE = 32003


def engine():
    import dicritical
    import dicritical.cli

    return dicritical


def late(module, name):
    """module.name looked up at each call, so that a traced run calls its wrapper."""
    return lambda *args: getattr(module, name)(*args)


class Op:
    """One timed call plus the checks on its result.

    kind says what the operation does (the CLI warm-up takes one of each);
    build() -> args (untimed); call(*args) -> result (timed);
    fingerprint(result) -> JSON-able canonical form;
    verify(result) -> None when correct, else a message.
    twin names an earlier operation whose fingerprint this one must repeat
    inside every pass (a request run twice); child_rss(result) gives the
    peak memory in KiB of the child process that did the work.
    """

    __slots__ = ("label", "kind", "build", "call", "fingerprint", "verify", "twin", "child_rss")

    def __init__(self, label, kind, build, call, fingerprint, verify, twin=None, child_rss=None):
        self.label = label
        self.kind = kind
        self.build = build
        self.call = call
        self.fingerprint = fingerprint
        self.verify = verify
        self.twin = twin
        self.child_rss = child_rss


class Failure(Exception):
    """A request exited nonzero."""


# ------------------------------------------------------------ shared checks


def staircase_count(exps):
    """Monomials outside the monomial ideal generated by exps."""
    a = min(i for i, j in exps if j == 0)
    b = min(j for i, j in exps if i == 0)
    return sum(
        1
        for i in range(a)
        for j in range(b)
        if not any(i >= e and j >= f for e, f in exps)
    )


def newton_count(exps):
    """Lattice points strictly below the Newton polygon of exps.

    That is the colength of the integral closure of the monomial ideal.
    """
    pts = sorted(set(exps))
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    # keep the decreasing part: from the point on the y axis to the x axis
    start = min(range(len(hull)), key=lambda k: (hull[k][0], hull[k][1]))
    total = 0
    for (x1, y1), (x2, y2) in zip(hull[start:], hull[start + 1:]):
        if y2 > y1:
            break
        for i in range(x1, x2):
            h = Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (i - x1)
            total += math.ceil(h)
    return total


def abhyankar_expected(m):
    """colength(I_m), colength(J_m) = e(I_m), closure colength of J_m."""
    c_i = m * (m + 1) * (m + 2) // 6
    return c_i, m * (m + 1) * (2 * m + 1) // 6, c_i


def _power(name, e):
    return "" if e == 0 else name if e == 1 else "%s^%d" % (name, e)


def poly_text(terms, vars):
    """Render {(i, j): int} in the command line's syntax."""
    parts = []
    for (i, j), c in sorted(terms.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0])):
        if c == 0:
            continue
        mono = "*".join(f for f in (_power(vars[0], i), _power(vars[1], j)) if f)
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


# --------------------------------------------------- points at infinity


def degree_form_pattern_poly(rng, p, degree, pattern):
    """Random degree form over F_p whose dehomogenization splits as pattern.

    pattern lists the degrees of distinct monic irreducible factors; a
    trailing "v" multiplies by X, which drops the dehomogenized degree and
    adds the point [0:1:0].  Returns {(i, j): c} for X^i Y^j.
    """
    core = [rng.randrange(1, p)]
    seen = set()
    for part in pattern:
        if part == "v":
            continue
        while True:
            f = polymod.random_irreducible(rng, p, part)
            if tuple(f) not in seen:
                seen.add(tuple(f))
                break
        core = polymod.mul(core, f, p)
    # core(t) = phi(1, t): coefficient of t^j is that of X^(d-j) Y^j
    return {(degree - j, j): c for j, c in enumerate(core) if c}


def degree_form_core(form, degree):
    """phi(1, t) as a coefficient list of length degree + 1."""
    core = [0] * (degree + 1)
    for (i, j), c in form.items():
        core[j] = c
    return core


def shape_rng(*key):
    """Draws that fix an input's shape, the same for every seed.

    The seed draws coefficients and constants only, so that the cost of a
    workload, and with it every metric, does not move with the seed.
    """
    return random.Random("shape:" + ":".join(map(str, key)))


def lower_terms(shape, degree, coeff):
    """Two or three terms below the given degree, at positions drawn by shape."""
    terms = {}
    for _ in range(shape.randint(2, 3)):
        e = shape.randrange(degree)
        i = shape.randint(0, e)
        terms[(i, e - i)] = coeff()
    return terms


SWEEP_PATTERNS = {
    2: [(2,), (1, 1), (1, "v")],
    3: [(3,), (1, 2), (2, "v"), (1, 1, 1)],
    4: [(4,), (1, 3), (2, 2), (3, "v"), (1, 1, 2)],
    5: [(5,), (1, 4), (2, 3), (4, "v"), (1, 2, 2)],
    6: [(6,), (1, 5), (3, 3), (2, 4), (5, "v"), (1, 1, 4)],
}
SWEEP_SLOTS = {2: 10, 3: 20, 4: 10, 5: 10, 6: 1}


def check_infinity_report(report, expected_degrees, vertical, rees_certificate):
    """Points against the reference factorization, then every record."""
    finite = sorted(pt.extension_degree for pt, _ in report.entries if pt.kind == "finite")
    has_vertical = any(pt.kind == "vertical" for pt, _ in report.entries)
    if finite != sorted(expected_degrees) or has_vertical != vertical:
        return "points %s%s, expected %s%s" % (
            finite, " + [0:1:0]" if has_vertical else "",
            sorted(expected_degrees), " + [0:1:0]" if vertical else "",
        )
    for pt, records in report.entries:
        for r in records:
            if not rees_certificate(pt.ideal, r.divisor):
                return "Rees certificate fails at %s" % pt.label()
            if min(r.global_values.values()) >= 0:
                return "no negative global value at %s" % pt.label()
    return None


def infinity_fingerprint(report):
    out = []
    for pt, records in report.entries:
        out.append([
            pt.label(), pt.extension_degree,
            [[repr(r.divisor.path), r.index, sorted(r.values.items()), r.degree,
              sorted(r.global_values.items())] for r in records],
        ])
    return out


# -------------------------------------------------------- oracle process


def run_oracle(queries):
    """Factor degrees from sympy, computed in a child process.

    Keeping sympy out of the benchmark process keeps it out of the engine's
    peak memory and import figures.
    """
    if not queries:
        return []
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "oracle.py")],
        input=json.dumps(queries), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


# ======================================================= reduction-ladder


def reduction_ladder(seed, oracle):
    d = engine()
    from dicritical.arith import FieldTower

    rng = random.Random("reduction-ladder:%d" % seed)
    fp = FieldTower.prime_field(P_LARGE)
    ops = []

    def ideals(tower, *gens_terms):
        """Builds fresh ideals, one per list of generator term dicts."""
        return lambda: tuple(
            d.LocalIdeal(tower, V, [d.BiPoly(tower, V, dict(t)) for t in ts]) for ts in gens_terms)

    def expect_int(value):
        return lambda r: None if r == value else "got %s, expected %s" % (r, value)

    def reduction_fp(r):
        return [r.decision, r.witness, r.by_direct, r.by_valuative]

    def reduction_ok(r):
        if not (r.decision and r.by_direct and r.by_valuative and r.witness is not None):
            return "J_m is a reduction of I_m; got %r" % (r,)
        return None

    for tower, name, ms in ((d.QQ, "Q", range(2, 7)), (fp, "F32003", range(2, 6))):
        for m in ms:
            f, g, i_m = d.abhyankar_family(m, tower, V)
            j_terms = [f.terms, g.terms]
            i_terms = [h.terms for h in i_m.gens]
            c_i, c_j, cc_j = abhyankar_expected(m)
            tag = "abhyankar %s m=%d" % (name, m)
            if m < 6:
                ops.append(Op(tag + " is_reduction", "is_reduction", ideals(tower, j_terms, i_terms),
                              late(d, "is_reduction"), reduction_fp, reduction_ok))
            ops.append(Op(tag + " colength(I)", "colength", ideals(tower, i_terms),
                          late(d, "colength"), int, expect_int(c_i)))
            ops.append(Op(tag + " colength(J)", "colength", ideals(tower, j_terms),
                          late(d, "colength"), int, expect_int(c_j)))
            ops.append(Op(tag + " closure_colength(J)", "closure_colength", ideals(tower, j_terms),
                          late(d, "closure_colength"), int, expect_int(cc_j)))

    # monomial ideals: the exponents are fixed per slot, the seed draws the
    # generators' coefficients
    corners = [(a, b) for a in (3, 5, 7, 9) for b in (4, 6, 8, 9)]
    for tower, name in ((d.QQ, "Q"), (fp, "F32003")):
        for a, b in corners:
            shape = shape_rng("monomial", name, a, b)
            exps = {(a, 0), (0, b)}
            for _ in range(shape.randint(1, 3)):
                exps.add((shape.randint(1, a - 1), shape.randint(1, b - 1)))
            exps = sorted(exps)
            terms = [{e: tower.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))} for e in exps]
            tag = "monomial %s %s" % (name, exps)
            ops.append(Op(tag + " colength", "colength", ideals(tower, terms),
                          late(d, "colength"), int, expect_int(staircase_count(exps))))
            ops.append(Op(tag + " closure_colength", "closure_colength", ideals(tower, terms),
                          late(d, "closure_colength"), int, expect_int(newton_count(exps))))

    # simple ideals over Q: the shape of each path is fixed per slot ("0" is
    # the affine point 0, "a" an affine point drawn from +-1, "i" the
    # point at infinity); the constants come from the seed
    shapes = ["iaa", "00a", "i0i", "0ii", "aia", "a00", "aaaa", "00ai", "a0ia",
              "0iaa", "0aa00", "0iiaa", "i0aii", "a0i0a", "00iia", "a0a0a"]
    for shape in shapes:
        steps = []
        for ch in shape:
            if ch == "i":
                steps.append(("inf", None))
            else:
                steps.append(("aff", 0 if ch == "0" else rng.choice((-1, 1))))

        def build(steps=steps):
            path = d.QdtPath(d.QQ, V, [
                d.QdtStep.infinity() if kind == "inf" else d.QdtStep.affine(d.QQ.from_int(c))
                for kind, c in steps
            ])
            return (d.PrimeDivisor(path),)

        def simple_then_colength(divisor):
            ideal = d.simple_ideal(divisor)
            return ideal, d.colength(ideal)

        def simple_fp(r):
            return [[g.render() for g in r[0].gens], r[1]]

        def simple_ok(r, build=build):
            ideal, c = r
            divisor = build()[0]
            records = d.dicritical_set(ideal)
            if len(records) != 1 or records[0].divisor != divisor or records[0].index != 1:
                return "the simple ideal's dicriticals are not its own divisor with index 1"
            cc = d.closure_colength(ideal)
            if cc != c:
                return "colength %d differs from the closure colength %d" % (c, cc)
            return None

        label = "simple_ideal Q %s" % " ".join(
            "inf" if kind == "inf" else "aff(%d)" % c for kind, c in steps)
        ops.append(Op(label, "simple_ideal", build, simple_then_colength, simple_fp, simple_ok))
    return ops


# ========================================================= infinity-sweep


def infinity_sweep(seed, oracle):
    d = engine()
    from dicritical.arith import FieldTower

    rng = random.Random("infinity-sweep:%d" % seed)
    ops = []
    queries = []
    specs = []
    for p in (7, P_LARGE):
        tower = FieldTower.prime_field(p)
        for degree, slots in SWEEP_SLOTS.items():
            patterns = SWEEP_PATTERNS[degree]
            for k in range(slots):
                pattern = patterns[k % len(patterns)]
                terms = degree_form_pattern_poly(rng, p, degree, pattern)
                core = degree_form_core(terms, degree)
                shape = shape_rng("sweep", p, degree, k)
                terms.update(lower_terms(shape, degree, lambda: rng.randrange(1, p)))
                queries.append({"p": p, "core": core})
                specs.append((tower, p, degree, pattern, terms, core[-1] == 0))
    expected = oracle(queries)
    for (tower, p, degree, pattern, terms, vertical), degrees in zip(specs, expected):
        def build(tower=tower, terms=terms):
            return (d.BiPoly(tower, W, {e: tower.from_int(c) for e, c in terms.items()}),)

        def verify(report, degrees=degrees, vertical=vertical):
            return check_infinity_report(report, degrees, vertical, d.rees_certificate)

        label = "F%d degree %d pattern %s" % (p, degree, "+".join(map(str, pattern)))
        ops.append(Op(label, "dicriticals_at_infinity", build, late(d, "dicriticals_at_infinity"),
                      infinity_fingerprint, verify))
    return ops


# ============================================================== cli-batch


SPECIAL_PENCIL = ("special-pencil", ["1/(x+y^2)^5"], "Fp:7")


def cli_requests(seed):
    """The seeded request list: (subcommand, expressions, field, expected).

    expected is a dict of the independent figures the output must match.
    """
    rng = random.Random("cli-batch:%d" % seed)
    out = []
    coprime = [(a, b) for a in range(1, 10) for b in range(1, 10) if math.gcd(a, b) == 1 and a + b > 2]
    for k in range(10):
        a, b = rng.choice(coprime)
        field = "Q" if k % 2 == 0 else "Fp:7"
        out.append(("dicriticals", ["y^%d/x^%d" % (a, b)], field, {"values": {"x": a, "y": b}}))

    def monomial_ideal(lo, hi):
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        exps = {(a, 0), (0, b)}
        for _ in range(rng.randint(1, 2)):
            exps.add((rng.randint(1, a - 1), rng.randint(1, b - 1)))
        return sorted(exps)

    def ideal_text(exps):
        return ", ".join(poly_text({e: 1}, V) for e in exps)

    for k in range(9):
        exps = monomial_ideal(3, 8)
        out.append(("basepoints", [ideal_text(exps)], "Q" if k % 2 == 0 else "Fp:7",
                    {"closure_colength": newton_count(exps)}))
    for k in range(11):
        exps = monomial_ideal(3, 9)
        out.append(("colength", [ideal_text(exps)], "Q" if k % 2 == 0 else "Fp:7",
                    {"colength": staircase_count(exps)}))
    for k in range(9):
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        inside = [(i, j) for i in range(1, a) for j in range(1, b) if i * b + j * a >= a * b]
        i, j = rng.choice(inside)
        out.append(("reduction-check", ["x^%d, y^%d" % (a, b), "x^%d, y^%d, x^%d*y^%d" % (a, b, i, j)],
                    "Q" if k % 2 == 0 else "Fp:7", {"decision": True}))
    # at-infinity over F_7: random forms of fixed factor patterns
    for k, (pattern, degree) in enumerate((((2,), 2), ((1, 2), 3), ((3, "v"), 4), ((2, 2), 4),
                                           ((1, 3), 4), ((4,), 4), ((2, 3), 5))):
        terms = degree_form_pattern_poly(rng, 7, degree, pattern)
        core = degree_form_core(terms, degree)
        terms.update(lower_terms(shape_rng("cli", k), degree, lambda: rng.randrange(1, 7)))
        out.append(("at-infinity", [poly_text(terms, W)], "Fp:7", {"p": 7, "core": core}))
    # at-infinity over Q: (Y^2 - n X^2)(Y - c X) X + lower terms, n not a
    # square, so one point needs a quadratic extension and sympy factors
    for k in range(3):
        n = rng.choice((2, 3, 5, 6, 7))
        c = rng.choice((-2, -1, 1, 2))
        # (Y^2 - n X^2)(Y - c X) X = X Y^3 - c X^2 Y^2 - n X^3 Y + n c X^4
        terms = {(1, 3): 1, (2, 2): -c, (3, 1): -n, (4, 0): n * c}
        core = degree_form_core(terms, 4)
        terms.update(lower_terms(shape_rng("cli-Q", k), 4, lambda: rng.choice((-3, -2, -1, 1, 2, 3))))
        out.append(("at-infinity", [poly_text(terms, W)], "Q", {"p": 0, "core": core}))
    sub, exprs, field = SPECIAL_PENCIL
    out.append((sub, exprs, field, {"decision": True, "witness": 5}))
    return out


_TERM = re.compile(r"([xy])(?:\^(\d+))?")


def _order_of_rendered(gens):
    """Order at the origin of an ideal from its rendered generators."""
    best = None
    for g in gens:
        for term in re.split(r" [+-] ", g.lstrip("-")):
            degree = sum(int(e or 1) for _, e in _TERM.findall(term))
            best = degree if best is None else min(best, degree)
    return best


def check_cli_output(sub, expected, data):
    """The independent checks on one machine-format answer."""
    if sub == "dicriticals":
        recs = data["records"]
        if len(recs) != 1:
            return "expected one divisor, got %d" % len(recs)
        r = recs[0]
        if r["values"] != expected["values"] or r["index"] != 1 or r["degree"] != 1:
            return "divisor %s, expected values %s index 1 degree 1" % (r, expected["values"])
    elif sub == "colength":
        if data["witness"] != expected["colength"]:
            return "colength %s, expected %d" % (data["witness"], expected["colength"])
    elif sub == "basepoints":
        # Hoskin-Deligne: the closure colength is the sum of e(e+1)/2 over
        # the base points, e the order of the transform (all points rational)
        total = 0
        for node in data["diagnostics"]["nodes"]:
            e = _order_of_rendered(node["transform"])
            total += e * (e + 1) // 2
        if total != expected["closure_colength"]:
            return "sum of e(e+1)/2 is %d, Newton count %d" % (total, expected["closure_colength"])
    elif sub == "reduction-check":
        if data["decision"] is not True or data["diagnostics"]["by_direct"] is not True:
            return "J is a reduction of I; got %s" % data["decision"]
    elif sub == "at-infinity":
        points = data["diagnostics"]["points"]
        finite = sorted(pt["extension_degree"] for pt in points if pt["kind"] == "finite")
        vertical = any(pt["kind"] == "vertical" for pt in points)
        core = expected["core"]
        want_vertical = core[-1] == 0
        if finite != sorted(expected["factor_degrees"]) or vertical != want_vertical:
            return "points %s vertical=%s, expected %s vertical=%s" % (
                finite, vertical, sorted(expected["factor_degrees"]), want_vertical)
        for r in data["records"]:
            if min(r["global_values"].values()) >= 0:
                return "no negative global value at %s" % r["point"]
    elif sub == "special-pencil":
        if data["decision"] != expected["decision"] or data["witness"] != expected["witness"]:
            return "decision %s witness %s, expected true and 5" % (data["decision"], data["witness"])
    return None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_in_child(args, env):
    """One request in a fresh interpreter: (exit code, stdout, stderr, peak RSS in KiB)."""
    argv = [sys.executable, "-m", "dicritical.cli", *args]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def run_in_process(args):
    """The same request through cli.main in this process (for the traced run)."""
    from dicritical import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue().encode(), err.getvalue().encode(), None


def cli_batch(seed, oracle, in_process=False):
    """Every request twice; the second run must repeat the first byte for byte."""
    requests = cli_requests(seed)
    at_infinity = [expected for sub, _, _, expected in requests if sub == "at-infinity"]
    queries = [{"p": e["p"], "core": e["core"]} for e in at_infinity]
    for expected, degrees in zip(at_infinity, oracle(queries)):
        expected["factor_degrees"] = degrees
    env = child_env()
    ops = []
    for run in (1, 2):
        for n, (sub, exprs, field, expected) in enumerate(requests):
            args = (sub, *exprs, "--field", field, "--format", "machine")

            def call(args=args):
                code, out, err, rss = run_in_process(args) if in_process else run_in_child(args, env)
                if code != 0:
                    raise Failure("exit %d: %s" % (code, err.decode().strip()))
                return out, rss

            def verify(result, sub=sub, expected=expected):
                return check_cli_output(sub, expected, json.loads(result[0]))

            label = "%s %s --field %s" % (sub, " ".join(repr(e) for e in exprs), field)
            ops.append(Op(label + (" (again)" if run == 2 else ""), "%s %s" % (sub, field), tuple, call,
                          lambda r: r[0].decode(), verify, twin=n if run == 2 else None,
                          child_rss=None if in_process else lambda r: r[1]))
    return ops


def one_per_kind(ops):
    """The first operation of each kind: the CLI warm-up."""
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


WORKLOADS = {
    "reduction-ladder": reduction_ladder,
    "infinity-sweep": infinity_sweep,
    "cli-batch": cli_batch,
}
