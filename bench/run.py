#!/usr/bin/env python3
"""Benchmark of adapted_ot on four fixed workloads.

    python3 bench/run.py --workload <global_lp|nested_dp|tree_sweeps|mc_rates>
                         --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the package is imported from ``src/``.
Each workload is a fixed list of operations (a pass) that one caller
issues one at a time, with no threads, repeating whole passes until the
next one would end after ``--seconds``.  ``bench/workloads.py`` says why
each workload exists and which layer it loads.

``--trace 0`` prints the end-to-end metrics.  Each operation's typical
time is the median of its repeats in the run; ``ops_per_s`` and
``op_p50_s`` are taken over those typical times, which keeps a burst of
machine noise in one pass from moving them.  ``op_tail_s`` is the
Harrell-Davis estimate of the fixed percentile ``TAIL_PERCENTILE`` of all
timed samples.  ``setup_s`` is this
process's import, input generation and one warm-up call, and
``peak_rss_mb`` is its peak resident memory, read before the checks run.

``--trace 1`` alternates an untraced pass with a traced pass of the same
operations and prints the per-layer metrics from the traced passes (counts
and self times per pass) and the tracing overhead.  Every result is
checked after the timed loop;
a failed check or an exception is counted in ``failed`` and makes the
command exit with status 1.  The last line of stdout is one JSON object;
the line before it holds the run's details (versions, seed, sample
counts, the tail percentile used, error rate and failure messages).
"""

import os

# Pin BLAS to one thread before numpy is imported: with two threads on two
# cores the dense simplex slows down and its timings spread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("global_lp", "nested_dp", "tree_sweeps", "mc_rates")
# op_tail_s is this percentile of all timed samples of a run.  It is fixed,
# so that a faster program, which fits more passes into a run, is read at
# the same percentile.  Every workload times at least 40 samples (two or
# more passes of 17 or more operations), so at least ten lie beyond it.
# The samples cluster by operation, and a nearest-rank percentile jumps
# between clusters with noise; the Harrell-Davis estimate, a weighted mean
# of the order statistics around the percentile, does not.
TAIL_PERCENTILE = 75.0
MAX_MESSAGES = 10
KINDS = ("W", "AW", "AW_strict", "AW_eps", "CW", "SCW", "SCW_strict", "Hellwig")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import adapted_ot from the checkout's src/ and return the time taken."""
    src = ROOT / "src"
    if not (src / "adapted_ot" / "__init__.py").is_file():
        raise SystemExit(f"error: no adapted_ot package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import adapted_ot
    import workloads  # noqa: F401  (imports the package's cli and experiments)
    elapsed = time.perf_counter() - t0
    if Path(adapted_ot.__file__).resolve().parent != (src / "adapted_ot").resolve():
        raise SystemExit(f"error: imported adapted_ot from {adapted_ot.__file__}")
    return elapsed


class Runner:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(self, ops, inputs):
        self.ops = ops
        self.inputs = inputs
        self.times = {op.key: [] for op in ops}   # untraced durations per op
        self.kept = {}        # op key -> first successful result (reduced)
        self.digests = {}     # op key -> fingerprint of that result
        self.instances = {op.key: 0 for op in ops}
        self.errors = {op.key: 0 for op in ops}
        self.messages = []

    def run_pass(self, tracer=None):
        """One pass; returns the summed time of its operations."""
        import workloads
        from inputs import fresh

        busy = 0.0
        for op in self.ops:
            trees = [fresh(self.inputs[name]) for name in op.inputs]
            self.instances[op.key] += 1
            if tracer is not None:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                result = op.call(*trees)
            except Exception as exc:  # counted, reported, and the loop goes on
                result, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            busy += elapsed
            if tracer is None:
                self.times[op.key].append(elapsed)
            if error is not None:
                self._fail(op.key, f"raised {type(error).__name__}: {error}")
                continue
            fingerprint = workloads.digest(result)
            if op.key not in self.digests:
                self.digests[op.key] = fingerprint
                self.kept[op.key] = op.keep(result)
            elif fingerprint != self.digests[op.key]:
                self._fail(op.key, "result differs from the first pass")
        return busy

    def _fail(self, key, message):
        self.errors[key] += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{key}: {message}")

    def check(self):
        """Check the kept results; returns the number of failed operations."""
        import workloads

        bad = set()
        for op in self.ops:
            if op.check is None or op.key not in self.kept:
                continue
            try:
                op.check(self.kept[op.key], self.inputs)
            except Exception as exc:  # a check that raises is a failed check
                bad.add(op.key)
                self._fail(op.key, f"check failed: {type(exc).__name__}: {exc}")
        for key, message in workloads.ordering_problems(self.ops, self.kept):
            bad.add(key)
            self._fail(key, f"check failed: {message}")
        return sum(self.instances[k] if k in bad else self.errors[k]
                   for k in self.instances)


def run_loop(runner, seconds, traced):
    """Whole passes until the next one would end after ``seconds``.
    Returns (passes, tracer, untraced busy time, traced busy time)."""
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    plain = timed = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        plain += runner.run_pass()
        if traced:
            with tracer:
                timed += runner.run_pass(tracer)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return rounds, tracer, plain, timed


def end_to_end(runner, setup_s, rss_mb):
    """Throughput and median latency from each operation's typical time,
    the median of its repeats in this run, so a burst of machine noise in
    one pass does not move them; the tail from all timed samples."""
    from scipy.stats.mstats import hdquantiles

    typical = [statistics.median(v) for v in runner.times.values()]
    samples = [t for v in runner.times.values() for t in v]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(typical), "unit": "s"},
        "op_tail_s": {"value": float(hdquantiles(samples, [TAIL_PERCENTILE / 100.0])[0]),
                      "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    return metrics, len(samples)


def per_layer(tracer, passes, plain, timed):
    c, pk = tracer.count, tracer.peak

    def per_pass(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for layer in ("lp", "coupling", "solvers", "trees", "prediction", "stopping",
                  "generators", "experiments", "cli"):
        put(f"{layer}.calls", per_pass(tracer.calls[layer]), "count/pass")
        put(f"{layer}.self_s", per_pass(tracer.self_s[layer]), "s/pass")
    put("lp.cells", per_pass(c["lp.cells"]), "count/pass")
    put("lp.rows", per_pass(c["lp.rows"]), "count/pass")
    put("lp.iterations", per_pass(c["lp.iterations"]), "count/pass")
    put("lp.max_cells", pk["lp.max_cells"], "count")
    put("lp.dense_bytes", pk["lp.dense_bytes"], "B")
    put("lp.fastpath_ratio", ratio(c["lp.fastpath"], c["lp.transports"]), "ratio")
    put("lp.nonoptimal", per_pass(c["lp.nonoptimal"]), "count/pass")
    put("coupling.rows", per_pass(c["coupling.rows"]), "count/pass")
    put("coupling.nnz", per_pass(c["coupling.nnz"]), "count/pass")
    put("coupling.dense_bytes", pk["coupling.dense_bytes"], "B")
    put("coupling.nnz_ratio", ratio(c["coupling.nnz"], c["coupling.cells"]), "ratio")
    put("solvers.dp_states", per_pass(c["solvers.dp_states"]), "count/pass")
    put("solvers.shifts_evaluated", per_pass(c["solvers.shifts_evaluated"]),
        "count/pass")
    put("solvers.dp_fallbacks", per_pass(c["solvers.dp_fallbacks"]), "count/pass")
    for kind in KINDS:
        times = tracer.kind_times.get(kind)
        put(f"solvers.{kind}.p50_s", statistics.median(times) if times else 0.0, "s")
    put("stopping.phi_evals", per_pass(c["stopping.phi_evals"]), "count/pass")
    put("generators.mc_calls", per_pass(c["generators.mc_calls"]), "count/pass")
    put("generators.mc_self_s", per_pass(c["generators.mc_self_s"]), "s/pass")
    put("generators.mc_steps_per_s",
        ratio(c["generators.mc_steps"], c["generators.mc_self_s"]), "1/s")
    put("trace.overhead_ratio", ratio(timed, plain), "ratio")
    return m


def environment(seed):
    import numpy
    import scipy
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def set_up(workload, seed):
    """Import, input generation and one warm-up call.
    Returns (workload, inputs, ops, seconds per part)."""
    import_s = import_package()
    import workloads

    wl = workloads.WORKLOADS[workload]
    t0 = time.perf_counter()
    inputs = wl.build_inputs(seed)
    ops = wl.build_ops(seed)
    t1 = time.perf_counter()
    wl.warmup(inputs)
    t2 = time.perf_counter()
    return wl, inputs, ops, {"import": import_s, "inputs": t1 - t0, "warmup": t2 - t1}


def main(argv=None):
    args = parse_args(argv)
    wl, inputs, ops, parts = set_up(args.workload, args.seed)
    runner = Runner(ops, inputs)
    passes, tracer, plain, timed = run_loop(runner, args.seconds, args.trace == 1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = runner.check()
    attempted = sum(runner.instances.values())

    details = {"workload": args.workload, "trace": args.trace,
               "environment": environment(args.seed),
               "loop": "closed, 1 caller, no threads", "passes": passes,
               "ops_per_pass": len(ops), "setup_parts_s": parts}
    if args.trace == 0:
        metrics, n = end_to_end(runner, sum(parts.values()), rss_mb)
        details["op_tail_percentile"] = TAIL_PERCENTILE
        details["samples"] = {"setup_s": 1, "ops_per_s": n, "op_p50_s": n,
                              "op_tail_s": n, "peak_rss_mb": 1, "error_rate": attempted}
    else:
        metrics = per_layer(tracer, passes, plain, timed)
        details["traced_passes"] = passes
        details["waits"] = ("single-threaded: no layer waits on a queue or lock, "
                            "so no wait times are reported")
        for name in wl.bypass:
            if metrics[name]["value"] != 0:
                failed = max(failed, 1)
                runner.messages.append(f"bypass broken: {name} = "
                                       f"{metrics[name]['value']}")
    details["error_rate"] = failed / attempted
    details["failures"] = runner.messages
    print(json.dumps(details))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
