"""Benchmark of the dicritical engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --seed N --seconds S --steady K

NAME is reduction-ladder, infinity-sweep or cli-batch.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  ``all`` runs the three workloads one after
another, each in its own benchmark process so that each reports its own
peak memory.  ``--steady K`` runs one workload K times on seeds N..N+K-1
and prints, per metric, the median, the quartiles and the spreads.
See README.md in this directory for the definitions.
"""

import argparse
import compileall
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

sys.path.insert(0, workloads.SRC)

MIN_PASSES = {"reduction-ladder": 5, "infinity-sweep": 5, "cli-batch": 2}
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


# ------------------------------------------------------------------ set-up


def cold_import_s():
    """Wall time of a fresh interpreter that imports the engine and its CLI."""
    argv = [sys.executable, "-c", "import dicritical, dicritical.cli"]
    start = time.perf_counter()
    subprocess.run(argv, env=workloads.child_env(), cwd=workloads.ROOT, check=True)
    return time.perf_counter() - start


class Oracle:
    """Runs the reference child once per distinct query list and keeps its time apart."""

    def __init__(self):
        self.memo = {}
        self.seconds = 0.0

    def __call__(self, queries):
        key = json.dumps(queries, sort_keys=True)
        if key not in self.memo:
            start = time.perf_counter()
            self.memo[key] = workloads.run_oracle(queries)
            self.seconds += time.perf_counter() - start
        return self.memo[key]


def generate(name, seed, oracle):
    """Median over repeats of the input generation, without the reference child."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = oracle.seconds
        start = time.perf_counter()
        ops = workloads.WORKLOADS[name](seed, oracle)
        times.append(time.perf_counter() - start - (oracle.seconds - before))
    return ops, statistics.median(times)


# ----------------------------------------------------------------- passes


class Outcome:
    """Per-operation timings, references and failures across passes."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.refs = [None] * len(ops)
        self.verified = [False] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []
        self.max_child_rss = 0


# The machine's speed switches between two levels about once a second, and
# the share of slow stretches changes from minute to minute.  A fixed
# pure-Python loop of Fraction products in dicts, timed after every
# operation, follows those switches (see README.md), so each operation's
# time is scaled to the speed at which the loop takes REFERENCE_S.
REFERENCE_S = 1.8e-3
REFERENCE_WINDOW = 3


def _reference_terms():
    rng = random.Random(1)
    return {(rng.randrange(8), rng.randrange(8)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(30)}


REFERENCE_TERMS = _reference_terms()


def reference_loop():
    """Seconds for one square of a fixed sparse polynomial; no engine code.

    The collector is off meanwhile, so that the engine's heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out = {}
        for (i, j), c in REFERENCE_TERMS.items():
            for (k, m), e in REFERENCE_TERMS.items():
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + c * e
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(outcome, engine_error, record=True, tracer=None):
    """One pass over every operation.

    The reference loop is timed before the first operation and after each
    one.  An operation's time is scaled by REFERENCE_S over the mean of the
    REFERENCE_WINDOW samples on each side of it.  Returns the pass's summed
    call time as timed and as scaled.
    """
    pass_fps = {}
    elapsed = [None] * len(outcome.ops)
    samples = [reference_loop()]
    results = []
    for i, op in enumerate(outcome.ops):
        args = op.build()
        if tracer is not None:
            tracer.begin(i)
        start = time.perf_counter()
        try:
            result = op.call(*args)
            error = None
        except (engine_error, workloads.Failure) as exc:
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        except Exception as exc:  # a crash of the engine is a failed operation
            result, error = None, "uncaught %s: %s" % (type(exc).__name__, exc)
        elapsed[i] = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        samples.append(reference_loop())
        results.append((result, error))
    total = scaled_total = 0.0
    for i, (op, (result, error)) in enumerate(zip(outcome.ops, results)):
        # op i ran between samples[i] and samples[i + 1]
        window = samples[max(0, i + 1 - REFERENCE_WINDOW):i + 1 + REFERENCE_WINDOW]
        scaled = elapsed[i] * REFERENCE_S * len(window) / sum(window)
        total += elapsed[i]
        scaled_total += scaled
        if record:
            outcome.attempted += 1
        if error is None:
            message = check(outcome, i, op, result, pass_fps)
            if message is not None:
                outcome.wrong.append("%s: %s" % (op.label, message))
                error = "wrong answer"
        if error is not None:
            if record:
                outcome.failed += 1
            if error != "wrong answer" and len(outcome.errors) < 20:
                outcome.errors.append("%s: %s" % (op.label, error))
            continue
        if record:
            outcome.times[i].append(scaled)
            if op.child_rss is not None:
                outcome.max_child_rss = max(outcome.max_child_rss, op.child_rss(result))
    return total, scaled_total


def check(outcome, i, op, result, pass_fps):
    fp = op.fingerprint(result)
    if op.twin is not None and op.twin in pass_fps and pass_fps[op.twin] != fp:
        return "a second run gave different output"
    pass_fps[i] = fp
    if not outcome.verified[i]:
        message = op.verify(result)
        if message is not None:
            return message
        outcome.verified[i] = True
        outcome.refs[i] = fp
        return None
    if fp != outcome.refs[i]:
        return "result differs from the verified first result"
    return None


# ---------------------------------------------------------------- metrics


def end_to_end(outcome, setup_s, peak_rss_kib):
    medians = sorted(statistics.median(t) for t in outcome.times if t)
    n = len(medians)
    if n <= 10:
        raise SystemExit("only %d operations completed; the metrics need more than ten" % n)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(medians),
        "op_p50_ms": statistics.median(medians) * 1e3,
        # the highest rank with ten operations beyond it
        "op_tail_ms": medians[n - 11] * 1e3,
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def result_line(outcome, metrics):
    for line in outcome.wrong[:20]:
        log("wrong: " + line)
    for line in outcome.errors:
        log("failed: " + line)
    return {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


# ------------------------------------------------------------------- runs


def run_workload(name, seed, seconds, trace):
    start = time.perf_counter()
    compileall.compile_dir(workloads.SRC, quiet=1)
    import_s = statistics.median(cold_import_s() for _ in range(SETUP_REPEATS))
    engine_error = workloads.engine().EngineError
    oracle = Oracle()
    ops, gen_s = generate(name, seed, oracle)
    if name == "cli-batch" and trace:
        ops = workloads.cli_batch(seed, oracle, in_process=True)
    outcome = Outcome(ops)
    if name == "cli-batch" and not trace:
        # every request starts a fresh interpreter: warm the bytecode and
        # file caches with one request of each kind
        warm_s, warm_scaled = run_pass(Outcome(workloads.one_per_kind(ops)), engine_error, record=False)
    else:
        warm_s, warm_scaled = run_pass(outcome, engine_error, record=False)
    scale = warm_scaled / warm_s
    setup_s = (import_s + gen_s + warm_s) * scale
    log("%s seed %d: setup %.2f s at the reference speed (import %.3f, inputs %.3f, warm-up %.2f s "
        "as timed, scale %.3f; sympy checks %.2f s), %d operations"
        % (name, seed, setup_s, import_s, gen_s, warm_s, scale, oracle.seconds, len(ops)))
    if trace:
        return traced_run(name, seed, outcome, oracle, engine_error)
    pass_s = []
    measure_start = time.perf_counter()
    while len(pass_s) < MIN_PASSES[name] or time.perf_counter() - measure_start < seconds:
        pass_s.append(run_pass(outcome, engine_error))
    passes = len(pass_s)
    if name == "cli-batch":
        peak = outcome.max_child_rss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    log("%s: %d passes in %.1f s (as timed/scaled: %s), run %.1f s"
        % (name, passes, time.perf_counter() - measure_start,
           " ".join("%.2f/%.2f" % p for p in pass_s), time.perf_counter() - start))
    return result_line(outcome, end_to_end(outcome, setup_s, peak))


def traced_run(name, seed, outcome, oracle, engine_error):
    """One untraced pass, then one traced pass, over the warmed-up operations."""
    import layers
    import tracer

    _, untraced = run_pass(outcome, engine_error)
    t = tracer.Tracer()
    layers.install(t)
    try:
        _, traced = run_pass(outcome, engine_error, tracer=t)
    finally:
        t.unwrap_all()
    if name == "cli-batch":
        probe = outcome
    else:
        # cli.main on the cli-batch requests, in this process and untraced,
        # after the traced pass so that it adds nothing to the counts
        probe = Outcome(workloads.cli_batch(seed, oracle, in_process=True))
        run_pass(probe, engine_error, record=False)
        run_pass(probe, engine_error)
        outcome.wrong.extend(probe.wrong)
    # ts[0] is each request's time in the first recorded pass, untraced
    main_ms = statistics.median(ts[0] for ts in probe.times if ts) * 1e3
    metrics = layers.collect(t, traced / untraced, main_ms)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    t.write(os.path.join(out_dir, "trace-%s-seed%d.json" % (name, seed)),
            {"workload": name, "seed": seed, "ops": [op.label for op in outcome.ops]})
    log("%s: traced pass %.2f s against %.2f s untraced, %d spans"
        % (name, traced, untraced, t.span_count))
    return result_line(outcome, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def child_run(name, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("run of %s seed %d exited %d" % (name, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed, seconds, trace):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result = child_run(name, seed, seconds, trace)
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    return combined


def steady(name, seed, seconds, trace, runs):
    """Run one workload on runs seeds and report the spread of each metric."""
    results = [child_run(name, seed + k, seconds, trace) for k in range(runs)]
    summary = {}
    print("%-22s %12s %12s %12s %9s %9s" % ("metric", "median", "q1", "q3", "iqr/med", "range/med"))
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        largest = (max(values) - min(values)) / med if med else 0.0
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "iqr_share": iqr,
                           "range_share": largest, "values": values}
        print("%-22s %12.5g %12.5g %12.5g %9.4f %9.4f" % (metric, med, q1, q3, iqr, largest))
    shares = [r["failed"] / r["attempted"] for r in results]
    print("failed shares: %s" % sorted(set(shares)))
    return {"workload": name, "runs": runs, "seeds": [seed, seed + runs - 1],
            "correct": all(r["correct"] for r in results), "failed_shares": sorted(set(shares)),
            "spread": summary}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "dicritical", "__init__.py")):
        log("error: the engine's sources are not at %s" % workloads.SRC)
        return 2
    if args.steady:
        if args.workload == "all" or args.steady < 2:
            log("error: --steady needs one workload and K >= 2")
            return 2
        out = steady(args.workload, args.seed, args.seconds, args.trace, args.steady)
    elif args.workload == "all":
        out = run_all(args.seed, args.seconds, args.trace)
    else:
        out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
