"""The traced run: which engine functions are wrapped, and the per-layer metrics.

The layers are the engine's modules.  Every public function of a module is
wrapped in every engine module that imported it by name, and every public
method on its class.  The fields layer is the exception: its operations take
about a microsecond, less than a span costs, so only FieldTower.mul, inv and
extended are counted, and their time stays in the self time of the layer
that called them.  Their speed comes from timed loops run outside the trace.
"""

import inspect
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracer as tr
import workloads

LAYERS = {
    "polynomials": "dicritical.arith.polynomials",
    "factor": "dicritical.arith.factor",
    "linalg": "dicritical.arith.linalg",
    "nearpoints": "dicritical.nearpoints",
    "divisors": "dicritical.divisors",
    "zariski": "dicritical.zariski",
    "idealcalc": "dicritical.idealcalc",
    "atinfinity": "dicritical.atinfinity",
    "cli": "dicritical.cli",
}
FIELD_COUNTS = ("mul", "inv", "extended")
# functions whose metrics need their own inclusive time, even when called
# from inside their own layer
ALWAYS = {
    "polynomials.bipoly_gcd",
    "factor.factor_univariate",
    "linalg.SparseEchelon.insert",
    "linalg.kernel_basis",
    "nearpoints.transform_ideal",
    "divisors.simple_ideal",
    "zariski.base_point_tree",
    "idealcalc.TruncationFrame.__init__",
    "atinfinity.points_at_infinity",
}


def _frame_hook(t, args, result):
    bound = args[2]
    t.peak("frame_bound_max", bound)
    t.count("frame_cells", bound * (bound + 1) // 2)


def _tree_nodes(tree):
    stack = [tree.root] if tree.root is not None else []
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _regime(args):
    tower = args[0].tower
    if tower.levels:
        return "ext"
    return "Fp" if tower.base is not None else "Q"


HOOKS = {
    "idealcalc.TruncationFrame.__init__": _frame_hook,
    "idealcalc.is_reduction": lambda t, a, r: t.count(
        "witness_iters", r.witness + 1 if r.witness is not None else 0),
    "linalg.SparseEchelon.insert": lambda t, a, r: t.count("rank_growth", int(bool(r))),
    "linalg.kernel_basis": lambda t, a, r: t.count("kernel_cells", len(a[1]) * len(a[2])),
    "zariski.base_point_tree": lambda t, a, r: t.count("tree_nodes", _tree_nodes(r)),
    "zariski.records_from_tree": lambda t, a, r: t.count("records", len(r)),
    "atinfinity.points_at_infinity": lambda t, a, r: (
        t.count("points", len(r)),
        t.count("ext_points", sum(p.minpoly is not None for p in r))),
}
SELECT = {"factor.factor_univariate": _regime}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def _public_methods(module):
    for cname, cls in vars(module).items():
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        for attr, obj in vars(cls).items():
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr == "__init__"):
                yield cls, cname, attr


def install(t):
    """Wrap the engine's public functions and methods (undone by t.unwrap_all())."""
    from dicritical.arith import fields

    for attr in FIELD_COUNTS:
        t.wrap(fields.FieldTower, attr, "fields.FieldTower.%s" % attr, "fields", span=tr.NEVER)
    engine_modules = [m for n, m in sys.modules.items() if n.startswith("dicritical") and m]
    for layer, modname in LAYERS.items():
        module = sys.modules[modname]
        for attr, fn in list(_public_functions(module)):
            name = "%s.%s" % (layer, attr)
            span = tr.ALWAYS if name in ALWAYS else tr.BOUNDARY
            _, wrapper = t.wrap(module, attr, name, layer, span, HOOKS.get(name), SELECT.get(name))
            for other in engine_modules:
                if other is not module and getattr(other, attr, None) is fn:
                    t.patch(other, attr, wrapper)
        for cls, cname, attr in list(_public_methods(module)):
            name = "%s.%s.%s" % (layer, cname, attr)
            if attr == "__init__" and name not in ALWAYS:
                continue
            span = tr.ALWAYS if name in ALWAYS else tr.BOUNDARY
            t.wrap(cls, attr, name, layer, span, HOOKS.get(name))


def layer_metrics(t):
    c, ms, cnt = t.calls_of, t.inclusive_ms, t.counters.get
    inserts = c("linalg.SparseEchelon.insert")
    out = {
        "fields.mul_calls": (c("fields.FieldTower.mul"), "count"),
        "fields.inv_calls": (c("fields.FieldTower.inv"), "count"),
        "fields.extensions": (c("fields.FieldTower.extended"), "count"),
        "polynomials.mul_calls": (c("polynomials.BiPoly.mul"), "count"),
        "polynomials.substitute_calls": (c("polynomials.BiPoly.substitute"), "count"),
        "polynomials.gcd_calls": (c("polynomials.bipoly_gcd"), "count"),
        "polynomials.gcd_ms": (ms("polynomials.bipoly_gcd"), "ms"),
        "polynomials.self_ms": (t.self_ms("polynomials"), "ms"),
    }
    for regime in ("Q", "Fp", "ext"):
        out["factor.calls.%s" % regime] = (c("factor.factor_univariate.%s" % regime), "count")
    for regime in ("Q", "Fp", "ext"):
        out["factor.ms.%s" % regime] = (ms("factor.factor_univariate.%s" % regime), "ms")
    out.update({
        "linalg.insert_calls": (inserts, "count"),
        "linalg.rank_growth": (cnt("rank_growth", 0), "count"),
        "linalg.insert_useful": (cnt("rank_growth", 0) / inserts if inserts else 0.0, "ratio"),
        "linalg.insert_ms": (ms("linalg.SparseEchelon.insert"), "ms"),
        "linalg.reduce_calls": (c("linalg.SparseEchelon.reduce"), "count"),
        "linalg.kernel_calls": (c("linalg.kernel_basis"), "count"),
        "linalg.kernel_cells": (cnt("kernel_cells", 0), "count"),
        "linalg.kernel_ms": (ms("linalg.kernel_basis"), "ms"),
        "nearpoints.transform_calls": (c("nearpoints.transform_ideal"), "count"),
        "nearpoints.transform_ms": (ms("nearpoints.transform_ideal"), "ms"),
        "nearpoints.pullback_calls": (c("nearpoints.pullback_order"), "count"),
        "nearpoints.self_ms": (t.self_ms("nearpoints"), "ms"),
        "divisors.simple_ideal_calls": (c("divisors.simple_ideal"), "count"),
        "divisors.simple_ideal_ms": (ms("divisors.simple_ideal"), "ms"),
        "divisors.value_calls": (c("divisors.PrimeDivisor.value"), "count"),
        "divisors.residue_image_calls": (c("divisors.residue_image"), "count"),
        "divisors.self_ms": (t.self_ms("divisors"), "ms"),
        "zariski.trees": (c("zariski.base_point_tree"), "count"),
        "zariski.tree_nodes": (cnt("tree_nodes", 0), "count"),
        "zariski.records": (cnt("records", 0), "count"),
        "zariski.tree_ms": (ms("zariski.base_point_tree"), "ms"),
        "zariski.self_ms": (t.self_ms("zariski"), "ms"),
        "idealcalc.frames": (c("idealcalc.TruncationFrame.__init__"), "count"),
        "idealcalc.frame_bound_max": (cnt("frame_bound_max", 0), "count"),
        "idealcalc.frame_cells": (cnt("frame_cells", 0), "count"),
        "idealcalc.frame_ms": (ms("idealcalc.TruncationFrame.__init__"), "ms"),
        "idealcalc.witness_iters": (cnt("witness_iters", 0), "count"),
        "idealcalc.self_ms": (t.self_ms("idealcalc"), "ms"),
        "atinfinity.points": (cnt("points", 0), "count"),
        "atinfinity.ext_points": (cnt("ext_points", 0), "count"),
        "atinfinity.points_ms": (ms("atinfinity.points_at_infinity"), "ms"),
        "atinfinity.self_ms": (t.self_ms("atinfinity"), "ms"),
    })
    return out


# ------------------------------------------------------------ timed loops


def _per_op_ns(fn, pairs, repeats=11):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        samples.append((time.perf_counter_ns() - start) / len(pairs))
    return statistics.median(samples)


def field_loops():
    """ns per FieldTower.mul over Q, F_32003 and F_7(a) with a^3 = 2; ns per inv in F_7(a)."""
    from dicritical.arith import QQ, FieldTower

    rng = random.Random(0)
    fp = FieldTower.prime_field(32003)
    ext = FieldTower.prime_field(7).extended("a", (5, 0, 0, 1))
    n = 2000
    q_elems = [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(2 * n)]
    p_elems = [rng.randrange(1, 32003) for _ in range(2 * n)]
    e_elems = [tuple(rng.randrange(7) for _ in range(3)) for _ in range(2 * n)]
    e_elems = [e if any(e) else (1, 0, 0) for e in e_elems]
    pairs = lambda xs: list(zip(xs[::2], xs[1::2]))
    return {
        "fields.mul_ns.Q": (_per_op_ns(QQ.mul, pairs(q_elems)), "ns"),
        "fields.mul_ns.Fp": (_per_op_ns(fp.mul, pairs(p_elems)), "ns"),
        "fields.mul_ns.ext": (_per_op_ns(ext.mul, pairs(e_elems)), "ns"),
        "fields.inv_ns.ext": (_per_op_ns(lambda a, b: ext.inv(a), pairs(e_elems)), "ns"),
    }


# -------------------------------------------------------------- cli layer


def _child_seconds(code, repeats):
    """Median wall time of a fresh interpreter running code, or of the
    interval code prints when it prints one."""
    env = workloads.child_env()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=workloads.ROOT,
                              capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        samples.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return statistics.median(samples)


def _timed_import(module):
    return ("import time; s = time.perf_counter(); import %s; "
            "print(time.perf_counter() - s)" % module)


def cli_children():
    return {
        "cli.interp_ms": (_child_seconds("pass", 5) * 1e3, "ms"),
        "cli.import_ms": (_child_seconds(_timed_import("dicritical.cli"), 5) * 1e3, "ms"),
        "cli.sympy_import_ms": (_child_seconds(_timed_import("sympy"), 3) * 1e3, "ms"),
    }


# -------------------------------------------------------------- collected


def collect(t, overhead, main_ms):
    """Every per-layer metric as {name: (value, unit)}."""
    metrics = {
        "trace.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
        "trace.spans": (t.span_count, "count"),
    }
    metrics.update(field_loops())
    metrics.update(layer_metrics(t))
    metrics.update(cli_children())
    metrics["cli.main_ms"] = (main_ms, "ms")
    return metrics
