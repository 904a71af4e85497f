#!/usr/bin/env python3
"""Benchmark for lsicert: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout; no install needed, `src/` is used):

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see BENCHMARK.json for why each exists):
  certify        `lsicert criteria` over Toeplitz chains, random Gaussian,
                 quartic and uncertifiable models, plus `lsicert toeplitz`
  gibbs_sweep    `lsicert verify <model> gibbs` with exact mixture tracking
  verify_closed  `lsicert verify` theorem1/transport/prop4/dissipation and
                 the library's Langevin particle simulator

The load is a closed loop: one caller in this process runs the workload's
fixed op list, one op after another, in rounds until --seconds have
passed (at least one round). Every time is scaled to reference seconds
by the calibration kernel in `calibrate`, run between ops, because this
benchmark's machines change speed by up to half for minutes at a time;
the record line keeps the unscaled figures. Each op's latency and CPU
time is then its median over the rounds, and wall_s and cpu_s sum these
over the op list. op_p50_s is the median of all op latencies of the run,
and op_tail_s the highest one with TAIL_BEYOND ops of each round above
it (its percentile is in the record line). BLAS runs on one thread: on a two-core
machine a second thread made the figures both slower and less
repeatable. Every op's output is checked against values computed by
`checks`, independently of lsicert; an op fails if it raises, exits with
an unexpected code, emits non-strict JSON, or disagrees with its oracle.

--trace 0 reports the end-to-end metrics. setup_s is the median over
several fresh processes of `import lsicert` plus fixture generation.
fail_ratio is printed, and equals failed / attempted in the result line;
it is not in BENCHMARK.json because it is 0 on every passing run.

--trace 1 alternates untraced and traced rounds (at least two of each)
and reports the per-layer metrics from `tracer`. It asserts that each
op's output is byte-identical traced and untraced, that every exact
count repeats across traced rounds, that each layer the workload is
meant to exercise records calls, and that every swept Gibbs mixture has
the collapsed-word number of distinct components.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The exit code is 0 only when every op passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
# As in workloads.py, which imports numpy and so must wait for pin_threads.
WORKLOADS = ("certify", "gibbs_sweep", "verify_closed")
BLAS_THREADS = 1
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
MIN_TRACE_PAIRS = 2
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))

LAYER_SELF = ("cli", "model", "criteria", "gaussian", "gibbs",
              "fokker_planck", "oracles", "instances")
# (metric, traced key, field); field is "s" (inclusive time) or "calls".
FUNCTION_METRICS = (
    ("criteria.criteria_report.s", "criteria.criteria_report", "s"),
    ("criteria.solve_rho_marton.s", "criteria.solve_rho_marton", "s"),
    ("criteria.otto_reznikoff.s", "criteria.otto_reznikoff", "s"),
    ("criteria.cross_block_norms.s", "criteria.cross_block_norms", "s"),
    ("criteria.toeplitz_spectrum_report.s",
     "criteria.toeplitz_spectrum_report", "s"),
    ("criteria.op_norm.calls", "criteria.op_norm", "calls"),
    ("criteria.block_lsi_constants.calls", "criteria.block_lsi_constants",
     "calls"),
    ("gibbs.apply_weighted_gibbs.s", "gibbs.apply_weighted_gibbs", "s"),
    ("gibbs.mixture_logpdf.s", "gibbs.mixture_logpdf", "s"),
    ("gibbs.mixture_sample.s", "gibbs.mixture_sample", "s"),
    ("gibbs.kl_mixture_mc.s", "gibbs.kl_mixture_mc", "s"),
    ("gibbs.verify_theorem1.s", "gibbs.verify_theorem1", "s"),
    ("gaussian.logpdf.calls", "gaussian.logpdf", "calls"),
    ("gaussian.logpdf.s", "gaussian.logpdf", "s"),
    ("gaussian.avg_conditional_kl.s", "gaussian.avg_conditional_kl", "s"),
    ("gaussian.avg_conditional_kl.calls", "gaussian.avg_conditional_kl",
     "calls"),
    ("gaussian.kl.calls", "gaussian.kl", "calls"),
    ("gaussian.w2.s", "gaussian.w2", "s"),
    ("oracles.transport_check.s", "oracles.transport_check", "s"),
    ("oracles.prop4_check.s", "oracles.prop4_check", "s"),
    ("fokker_planck.entropy_trace.s", "fokker_planck.entropy_trace", "s"),
    ("fokker_planck.dissipation_check.s", "fokker_planck.dissipation_check",
     "s"),
    ("fokker_planck.langevin_particles.s", "fokker_planck.langevin_particles",
     "s"),
    ("model.load_model.s", "model.load_model", "s"),
    ("model.load_model.calls", "model.load_model", "calls"),
)
# Counts kept by the tracer's hooks or by this harness.
COUNT_METRICS = (
    ("criteria.errors", "count"),
    ("gibbs.components_raw", "count"),
    ("gibbs.components_distinct", "count"),
    ("gibbs.mixture_bytes", "bytes"),
    ("fokker_planck.particle_steps", "count"),
    ("cli.output_bytes", "bytes"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads() -> None:
    """Fix the BLAS thread count before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_workloads():
    """Import lsicert from this checkout's src/, and the workload builders."""
    sys.path.insert(0, SRC)
    import lsicert
    import workloads
    if not os.path.abspath(lsicert.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"lsicert imported from {lsicert.__file__}, not src/")
    return workloads


def setup(workload: str, seed: int, workdir: str):
    """Import lsicert and build the fixtures.

    Returns (ops, seconds, speed factor measured just after).
    """
    t0 = time.perf_counter()
    ops = import_workloads().build(workload, seed, workdir)
    elapsed = time.perf_counter() - t0
    import calibrate
    return ops, elapsed, calibrate.Kernel().factor()


def probe_setup(workload: str, seed: int) -> tuple:
    """(seconds, speed factor) of the set-up of a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=False)
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{out.stderr}")
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def blas_threads_in_effect() -> list:
    """Thread count reported by every OpenBLAS library loaded here."""
    import ctypes
    found = []
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh
                       if "openblas" in ln and ln.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"lib": os.path.basename(path), "threads": fn()})
                break
    return found


class Round:
    """Per-op measurements of one pass over the op list.

    latency and cpu are as measured; factor is each op's speed factor
    (calibrate.REF_S over the kernel time around it).
    """

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.factor = []
        self.digests = []
        self.output_bytes = 0
        self.failed = 0

    @property
    def raw_wall(self) -> float:
        return sum(self.latency)

    @property
    def speed(self) -> float:
        return median(self.factor)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(ops, kernel, tracer=None) -> Round:
    rnd = Round()
    k_before = kernel()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            rc, text = op.run()
        except Exception:
            rc, text = None, None
            print(f"FAIL {op.name}: raised\n{traceback.format_exc()}",
                  file=sys.stderr)
        rnd.latency.append(time.perf_counter() - t0)
        rnd.cpu.append(_cpu() - c0)
        k_after = kernel()
        rnd.factor.append(kernel.ref_s / (0.5 * (k_before + k_after)))
        k_before = k_after
        if text is None:
            rnd.digests.append(None)
            rnd.failed += 1
            continue
        data = text.encode()
        rnd.digests.append(hashlib.sha256(data).hexdigest())
        rnd.output_bytes += len(data)
        try:
            problems = op.check(rc, text)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        if problems:
            rnd.failed += 1
            print(f"FAIL {op.name}: " + "; ".join(problems[:5]),
                  file=sys.stderr)
    return rnd


def median(values) -> float:
    return float(statistics.median(values))


def per_op(rounds, field: str) -> list:
    """Each op's speed-scaled figure, median over the rounds."""
    return [median(getattr(r, field)[i] * r.factor[i] for r in rounds)
            for i in range(len(rounds[0].factor))]


def end_to_end(ops, args, setup_samples):
    import calibrate
    kernel = calibrate.Kernel()
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(ops, kernel))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > args.seconds:
            break
    n_ops = len(ops)
    pooled = sorted(lat * f for r in rounds
                    for lat, f in zip(r.latency, r.factor))
    metrics = {
        "setup_s": median(t * f for t, f in setup_samples),
        "wall_s": sum(per_op(rounds, "latency")),
        "op_p50_s": median(pooled),
        "op_tail_s": pooled[len(pooled) - TAIL_BEYOND * len(rounds) - 1],
        "cpu_s": sum(per_op(rounds, "cpu")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "rounds": len(rounds),
        "op_tail_percentile": 100.0 * (n_ops - TAIL_BEYOND) / n_ops,
        "op_tail_ops_beyond": TAIL_BEYOND,
        "ops_per_round": n_ops,
        "raw_round_wall_s": [r.raw_wall for r in rounds],
        "round_speed_factor": [r.speed for r in rounds],
        "raw_setup_s": [t for t, _ in setup_samples],
        "setup_speed_factor": [f for _, f in setup_samples],
        "calibration_ref_s": kernel.ref_s,
    }
    units = dict(END_TO_END)
    out = {name: {"value": metrics[name], "unit": units[name]}
           for name, _ in END_TO_END}
    return rounds, out, record, []


def per_layer(ops, args, tracer, instances_s):
    import calibrate
    import workloads
    kernel = calibrate.Kernel()
    untraced, traced, problems = [], [], []
    counts = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_round(ops, kernel))
        tracer.reset()
        tracer.install()
        try:
            rnd = run_round(ops, kernel, tracer)
        finally:
            tracer.uninstall()
        rnd.stats = dict(tracer.stats)
        rnd.layer_self = {layer: tracer.layer_self(layer) for layer in LAYER_SELF}
        rnd.layer_calls = {layer: tracer.layer_calls(layer) for layer in LAYER_SELF}
        traced.append(rnd)
        problems.extend(tracer.problems)
        counts.append(dict(tracer.exact_counts(), **{
            "cli.output_bytes": rnd.output_bytes}))
        took = time.perf_counter() - t0
        if (len(traced) >= MIN_TRACE_PAIRS
                and time.perf_counter() - start + took > args.seconds):
            break

    for i, (u, t) in enumerate(zip(untraced, traced)):
        for op, du, dt in zip(ops, u.digests, t.digests):
            if du != dt:
                problems.append(f"round {i}: output of {op.name!r} differs "
                                "traced and untraced")
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            diff = sorted(k for k in set(c) | set(counts[0])
                          if c.get(k) != counts[0].get(k))
            problems.append(f"traced round {i}: counts differ from round 0 "
                            f"in {diff[:8]}")
    for layer in workloads.EXERCISED[args.workload]:
        if traced[0].layer_calls[layer] == 0:
            problems.append(f"layer {layer} recorded no calls")

    # A traced round's times are scaled by its median speed factor, then
    # reduced by the median over the traced rounds.
    def scaled(value_of):
        return median(value_of(r) * r.speed for r in traced)

    absent = sorted({key for _, key, _ in FUNCTION_METRICS} - tracer.present)
    metrics = {}
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = (
            scaled(lambda r, layer=layer: r.layer_self[layer]), "s")
    for name, key, field in FUNCTION_METRICS:
        if field == "s":
            metrics[name] = (scaled(
                lambda r, key=key: r.stats[key].total if key in r.stats else 0.0),
                "s")
        else:
            metrics[name] = (traced[0].stats[key].calls
                             if key in traced[0].stats else 0, "count")
    first = counts[0]
    for name, unit in COUNT_METRICS:
        metrics[name] = (first.get(name, 0), unit)
    raw = first.get("gibbs.components_raw", 0)
    metrics["gibbs.distinct_ratio"] = (
        first.get("gibbs.components_distinct", 0) / raw if raw else 0.0, "1")
    metrics["instances.s"] = instances_s
    metrics["trace_overhead_s"] = (sum(per_op(traced, "latency"))
                                   - sum(per_op(untraced, "latency")), "s")
    out = {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()}
    record = {
        "rounds_untraced": len(untraced),
        "rounds_traced": len(traced),
        "raw_round_wall_s": {"untraced": [r.raw_wall for r in untraced],
                             "traced": [r.raw_wall for r in traced]},
        "ops_per_round": len(ops),
        "absent": absent,
        "layer_calls": traced[0].layer_calls,
        "computed": ["gibbs.mixture_bytes = largest swept mixture's "
                     "components x d^2 x 8"],
        "distinct_ratio_base": {"components_raw": raw},
        "calibration_ref_s": kernel.ref_s,
    }
    return untraced + traced, out, record, problems


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "lsicert", "__init__.py")):
        print(f"no lsicert sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        if args.setup_probe:
            _, elapsed, factor = setup(args.workload, args.seed, workdir)
            print(json.dumps([elapsed, factor]))
            return 0
        if args.trace:
            return report(args, *traced_run(args, workdir))
        samples = [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]
        ops, elapsed, factor = setup(args.workload, args.seed, workdir)
        samples.append((elapsed, factor))
        return report(args, *end_to_end(ops, args, samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, workdir):
    workloads = import_workloads()
    import calibrate
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
    finally:
        tracer.uninstall()
    instances_s = (tracer.layer_self("instances")
                   * calibrate.Kernel().factor(), "s")
    return per_layer(ops, args, tracer, instances_s)


def report(args, rounds, metrics, record, problems) -> int:
    import numpy
    import scipy
    attempted = sum(len(r.latency) for r in rounds)
    failed = sum(r.failed for r in rounds)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads_in_effect(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "self_test_problems": problems,
    })
    for p in problems:
        print(f"SELF-TEST FAIL: {p}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} fail_ratio = {failed / attempted!r} 1")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
