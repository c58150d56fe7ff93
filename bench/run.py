"""plap benchmark: seeded workloads through the public API, checked and timed.

    python3 bench/run.py --workload {campaign,far_field,grid_fine}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  plap is imported from ./src of the checkout
(never from an installed copy); without it the benchmark exits with code 2
and prints no result.

--trace 0 times a batch of operations with tracing off and reports the
end-to-end metrics, with times in multiples of a reference kernel's time
(see `run_batch` and bench/README.md).  --trace 1 runs each operation of a
half-size batch untraced and then traced, repeats op 0 traced, and reports
the per-layer metrics (per operation) from the spans.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md for the metric list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"
WORKLOADS = ("campaign", "far_field", "grid_fine")
SETUP_SAMPLES = 5
# Time of workloads.reference_flow on the reference machine; setup_s is the
# set-up time scaled to that speed
SETUP_REF_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CAMPAIGN_STEPS = (
    "01_indicial_roots", "02_dirichlet_convergence", "03_gradient_log_bound",
    "04_kappa_bound", "05_bochner_trend", "06_exterior_decay",
    "07_exterior_decay_p15", "08_ratio_flow_convergence",
    "09_power_solution_residual", "10_rescaling_fixed_points",
    "11_campaign_determinism",
)


def cap_threads():
    """Pin BLAS/OpenMP pools to one thread before numpy is imported.

    The benchmark is one process with one compute thread: on a few shared
    cores, a second BLAS thread measures the scheduler more than plap, and
    at h = 1/256 it does not make `splu` faster."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_plap():
    if not (SRC / "plap" / "__init__.py").is_file():
        die(f"no plap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plap
    if Path(plap.__file__).resolve().parent != SRC / "plap":
        die(f"plap imported from {plap.__file__}, not {SRC}")


def machine_info(nproc):
    import numpy
    import scipy
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(args, workloads):
    """Median wall time of fresh processes that import plap and build inputs,
    and that time scaled to the reference speed.

    The ratio-flow kernel is timed before each probe.  Import time drifts
    with the machine as the kernel does, and the scaled time stays steady
    from one set of runs to the next where the seconds do not."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    workloads.time_kernel(workloads.reference_flow)
    samples, ref = [], []
    for _ in range(SETUP_SAMPLES):
        ref.append(workloads.time_kernel(workloads.reference_flow))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            die("setup probe failed: " + proc.stderr.decode(errors="replace"))
    setup = statistics.median(samples)
    return setup * SETUP_REF_S / statistics.fmean(ref), setup


def run_batch(workloads, name, inputs):
    """The operations, with a reference sample before each and after the last.

    Returns the results and the mean reference time.  The first reference
    call is untimed: it pays the kernel's own first-call costs.  The mean,
    not the median: the machine's speed changes in bursts that a short
    sample sees whole and an operation averages over, and the mean of the
    samples averages over them as the operations do."""
    kernel = workloads.REFERENCE[name]
    workloads.time_kernel(kernel)
    ref = [workloads.time_kernel(kernel)]
    results = []
    for inp in inputs:
        results.append(workloads.run_op(name, inp, SCRATCH))
        ref.append(workloads.time_kernel(kernel))
    return results, statistics.fmean(ref)


def outcome(r):
    return (r.error, r.passed, repr(r.margin), r.report_bytes)


def output_problems(results):
    return [f"op {i}: non-finite check margin" for i, r in enumerate(results)
            if r.error is None and not math.isfinite(r.margin)]


def failed_count(results):
    """Operations that raised or failed their check."""
    return sum(r.error is not None or not r.passed for r in results)


def check_problems(results):
    return [f"op {i}: check failed (margin {r.margin:.6g})"
            for i, r in enumerate(results) if r.error is None and not r.passed]


def margin_stats(results):
    """(geometric mean, max) over completed operations of each one's worst
    check margin; 0 where no margin qualifies.  Non-finite margins (a NaN
    output) are reported by `output_problems`; a margin of exactly 0 has no
    scale and is left out of the geometric mean."""
    margins = [r.margin for r in results
               if r.error is None and math.isfinite(r.margin)]
    positive = [m for m in margins if m > 0.0]
    gmean = statistics.geometric_mean(positive) if positive else 0.0
    return gmean, max(margins, default=0.0)


def end_to_end(args, workloads, inputs):
    """Times of the operations in multiples of the reference time.

    The shared machine's speed drifts by tens of percent over minutes, and
    the operations and the reference kernel drift together, so the ratio
    stays steady where the seconds do not.  The seconds are printed too."""
    setup_s, setup_raw = measure_setup(args, workloads)
    results, ref_s = run_batch(workloads, args.workload, inputs)
    wall = sum(r.seconds for r in results)
    op_p50 = statistics.median(r.seconds for r in results)
    print(f"# seconds: wall_s {wall:.4f}, op_p50_s {op_p50:.4f}, "
          f"reference mean {ref_s:.5f} s, setup {setup_raw:.4f}")
    metrics = {
        "wall_ref": (wall / ref_s, "ref"),
        "op_p50_ref": (op_p50 / ref_s, "ref"),
        "op_count": (len(results), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "check_margin_gmean": (margin_stats(results)[0], "ratio"),
    }
    return results, output_problems(results), metrics


def per_layer(args, workloads, inputs):
    """Each operation untraced and then traced, and a traced repeat of op 0.

    Alternating keeps slow drifts of the machine out of the overhead ratio.
    The repeat must give the same outcome and the same counters as op 0;
    the per-layer metrics use the first len(inputs) traced operations."""
    from spans import SpanTable, Tracer

    ops = len(inputs)
    plain, traced = [], []
    tracer = Tracer()
    for i, inp in enumerate(inputs + inputs[:1]):
        if i < ops:
            plain.append(workloads.run_op(args.workload, inp, SCRATCH))
        tracer.op = i
        with tracer:
            traced.append(workloads.run_op(args.workload, inp, SCRATCH))
    tracer.dump(SCRATCH / f"trace-{args.workload}-seed{args.seed}.npz")

    problems = output_problems(plain)
    problems += [f"op {i}: traced outcome differs from untraced"
                for i, (a, b) in enumerate(zip(plain, traced))
                if outcome(a) != outcome(b)]
    if outcome(traced[ops]) != outcome(traced[0]):
        problems.append("repeat of op 0: outcome or report.csv differs")
    counts = SpanTable(tracer).op_counts()
    if counts[ops] != counts[0]:
        problems.append("repeat of op 0: trace counters differ")
    if args.workload == "campaign":
        problems += campaign_self_check(counts)
    tab = SpanTable(tracer, ops=ops)

    def mean(x):
        return x / ops

    roots_calls = tab.calls("indicial.indicial_roots")
    cls_calls, cls_nfev, cls_busy = tab.shoot_ivp("RK45")
    _, inw_nfev, inw_busy = tab.shoot_ivp("DOP853")
    dirichlet_busy = tab.busy("grid_pde.solve_dirichlet")
    m = {
        "indicial.indicial_roots.calls": (mean(roots_calls), "count"),
        "indicial.indicial_roots.us_per_call": (
            1e6 * tab.busy("indicial.indicial_roots") / roots_calls
            if roots_calls else 0.0, "us"),
        "indicial.busy_s": (mean(tab.layer_busy("indicial")), "s"),
        "radial_ode.radial_exterior_eigen.calls": (
            mean(tab.calls("radial_ode.radial_exterior_eigen")), "count"),
        "radial_ode.radial_exterior_eigen.busy_s": (
            mean(tab.busy("radial_ode.radial_exterior_eigen")), "s"),
        "radial_ode.bisection_iters": (
            mean(tab.info("radial_ode.radial_exterior_eigen", "bisection_iters")),
            "count"),
        "radial_ode.classify.ivp_calls": (mean(cls_calls), "count"),
        "radial_ode.classify.nfev": (mean(cls_nfev), "count"),
        "radial_ode.classify.busy_s": (mean(cls_busy), "s"),
        "radial_ode.inward.nfev": (mean(inw_nfev), "count"),
        "radial_ode.inward.busy_s": (mean(inw_busy), "s"),
        "radial_ode.shoot.useful_nfev_ratio": (
            inw_nfev / (inw_nfev + cls_nfev) if inw_nfev + cls_nfev else 0.0,
            "ratio"),
        "radial_ode.riccati_ratio_flow.busy_s": (
            mean(tab.busy("radial_ode.riccati_ratio_flow")), "s"),
        "radial_ode.hardy_power_residual.busy_s": (
            mean(tab.busy("radial_ode.hardy_power_residual")), "s"),
        "radial_ode.fit_decay_exponents.busy_s": (
            mean(tab.busy("radial_ode.fit_decay_exponents")), "s"),
        "blowup.busy_s": (mean(tab.layer_busy("blowup")), "s"),
        "blowup.martin_kernel_estimate.calls": (
            mean(tab.calls("blowup.martin_kernel_estimate")), "count"),
        "grid_pde.solve_dirichlet.calls": (
            mean(tab.calls("grid_pde.solve_dirichlet")), "count"),
        "grid_pde.solve_dirichlet.busy_s": (mean(dirichlet_busy), "s"),
        "grid_pde.solve_dirichlet.self_s": (
            mean(tab.self_busy("grid_pde.solve_dirichlet")), "s"),
        "grid_pde.splu.calls": (mean(tab.calls("grid_pde.splu")), "count"),
        "grid_pde.splu.busy_s": (mean(tab.busy("grid_pde.splu")), "s"),
        "grid_pde.lu_solve.busy_s": (mean(tab.busy("grid_pde.lu_solve")), "s"),
        "grid_pde.p_laplace_residual.calls": (
            mean(tab.calls("grid_pde.p_laplace_residual")), "count"),
        "grid_pde.p_laplace_residual.busy_s": (
            mean(tab.busy("grid_pde.p_laplace_residual")), "s"),
        "grid_pde.newton_iters": (
            mean(tab.info("grid_pde.solve_dirichlet", "newton_iters")), "count"),
        "grid_pde.damping_events": (
            mean(tab.info("grid_pde.solve_dirichlet", "damping_events")), "count"),
        "grid_pde.no_convergence": (
            mean(tab.raised("grid_pde.solve_dirichlet", "NoConvergence")), "count"),
        "grid_pde.diagnostics.busy_s": (
            mean(tab.layer_busy("grid_pde") - dirichlet_busy), "s"),
        "cli.run_all.busy_s": (mean(tab.busy("cli.run_all")), "s"),
        "cli.self_s": (mean(tab.layer_self("cli")), "s"),
    }
    for step in CAMPAIGN_STEPS:
        m[f"cli.step.{step}.s"] = (
            mean(sum(r.durations.get(step, 0.0) for r in plain)), "s")
    # op 0 is left out when there are others: untraced, it also pays the
    # first-call costs that the traced batch no longer sees
    first = 1 if ops > 1 else 0
    m["trace.overhead_ratio"] = (sum(r.seconds for r in traced[first:ops])
                                 / sum(r.seconds for r in plain[first:]), "ratio")
    m["check_margin_max"] = (margin_stats(plain)[1], "ratio")
    m["fail_ratio"] = (failed_count(plain) / ops, "ratio")
    return plain, problems, m


def campaign_self_check(counts):
    """Layer calls every `run_all` call must show."""
    problems = []
    for i, c in sorted(counts.items()):
        want = {"4 exterior shots":
                    c["radial_ode.radial_exterior_eigen"] == 4,
                "3 Dirichlet solves": c["grid_pde.solve_dirichlet"] == 3,
                "10000 indicial_roots from step 01":
                    c["indicial.indicial_roots<cli.step_indicial"] == 10000,
                ">= 1000 indicial_roots from step 09":
                    c["indicial.indicial_roots<cli.step_power_residual"] >= 1000,
                ">= 11000 indicial_roots": c["indicial.indicial_roots"] >= 11000}
        problems += [f"op {i}: trace self-check '{k}' failed"
                     for k, ok in want.items() if not ok]
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = cap_threads()
    import_plap()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    seconds = args.seconds / 2 if args.trace else args.seconds
    inputs = workloads.make_inputs(args.workload, args.seed,
                                   workloads.op_count(args.workload, seconds))
    if args.setup_probe:
        return 0

    SCRATCH.mkdir(exist_ok=True)
    print("# machine " + json.dumps(machine_info(nproc), sort_keys=True))
    print(f"# workload {args.workload}: {workloads.RANGES[args.workload]}; "
          f"seed {args.seed}, {len(inputs)} operations")
    if args.trace:
        results, problems, metrics = per_layer(args, workloads, inputs)
    else:
        results, problems, metrics = end_to_end(args, workloads, inputs)
    for i, r in enumerate(results):
        if r.error is not None:
            print(f"# op {i} raised {r.error}: {json.dumps(inputs[i])}")
    for line in check_problems(results):
        print(f"# {line}")
    for line in problems:
        print(f"# PROBLEM {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed_count(results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
