"""Benchmark of the lrkrylov CLI solver dispatch.

    python3 perfbench/run.py --workload deblur-krylov --seed 0 \\
        --seconds 40 --trace 0

Run from the root of a checkout; the package is loaded from ``src/``.
A workload is one CLI config (see ``workloads.py``), made from the
workload name and ``--seed`` and driven through ``cli.build_problem`` and
then ``cli.run_solver`` for each solver in order, in this single-threaded
process.  After an untimed warm-up solve on a tiny problem of the same
kind, the problem is built once, and then passes repeat until
``--seconds`` would be exceeded: each pass runs the solver list and then
builds the problem again for a tenth of that solve time (at least once).
Set-ups are thus spread over the whole run, like the solves, so that both
medians see the same changes in host speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats pairs
of a traced set-up plus solve and an untraced solve of the same problem,
and prints the per-layer metrics of ``tracer.py``; ``trace.overhead_s`` is
the traced minus the untraced solve time.

Every solver run gets the output check of ``references.py``; a run fails
when it raises or fails the check.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import env

env.pin_threads()  # before anything imports numpy
env.load_package()

from lrkrylov import cli  # noqa: E402

import references  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up time per pass, as a share of the pass's solve time
SETUP_SHARE = 0.1

# per-layer counts that must repeat exactly between traced runs
EXACT = ("_n", ".nnz", "_bytes")

clock = time.perf_counter


def solve_list(cfg, problem):
    """Run the solver list in order: (wall seconds, [(name, report or
    None, seconds)]).  A solver that raises leaves None and the others
    still run."""
    runs = []
    start = clock()
    for spec in cfg["solvers"]:
        t0 = clock()
        try:
            report = cli.run_solver(spec, problem)
        except Exception:
            traceback.print_exc()
            report = None
        runs.append((spec["name"], report, clock() - t0))
    return clock() - start, runs


def traced_run(cfg):
    """Set-up and solve with the tracer installed: (problem, spans,
    solve_list result)."""
    with tracer.Tracer() as tr:
        problem = cli.build_problem(cfg["problem"])
        result = solve_list(cfg, problem)
    return problem, tr.spans, result


def build(cfg, setups):
    """Build the workload's problem and append the wall time to setups."""
    t0 = clock()
    problem = cli.build_problem(cfg["problem"])
    setups.append(clock() - t0)
    return problem


def warm_up(workload):
    """Untimed tiny solve so that lazy imports and first-call costs are
    paid before timing starts."""
    cfg = workloads.warmup_config(workload)
    solve_list(cfg, cli.build_problem(cfg["problem"]))


def iterations(runs):
    return sum(len(r.iterations) for _, r, _ in runs if r is not None)


class Outcome:
    """Tally of attempted and failed solver runs."""

    def __init__(self, refs, workload, seed):
        self.refs, self.workload, self.seed = refs, workload, seed
        self.attempted = self.failed = 0
        self.problems = []

    def check(self, runs):
        for name, report, _ in runs:
            self.attempted += 1
            if report is None:
                why = f"{name}: raised"
            else:
                why = references.check(self.refs, self.workload, self.seed,
                                       name, report)
            if why is not None:
                self.failed += 1
                self.problems.append(why)

    def inconsistent(self, why):
        self.problems.append(why)


def solver_metrics(problem, plain):
    """Per-solver time, iterations and residual gap of untraced runs."""
    out = {}
    for name in workloads.SOLVERS:
        found = [(r, s) for runs in plain for n, r, s in runs
                 if n == name and r is not None]
        if found:
            report = found[0][0]
            out[f"cli.run_solver.{name}_s"] = statistics.median(
                s for _, s in found)
            out[f"cli.run_solver.{name}_iters"] = len(report.iterations)
            out[f"report.residual_gap.{name}"] = references.residual_gap(
                problem, report)
        else:
            out[f"cli.run_solver.{name}_s"] = 0.0
            out[f"cli.run_solver.{name}_iters"] = 0
            out[f"report.residual_gap.{name}"] = 0.0
    out["report.residual_gap_max"] = max(
        v for k, v in out.items() if k.startswith("report.residual_gap."))
    return out


def measure(workload, seed, seconds, outcome):
    """Untraced run: the end-to-end metrics."""
    cfg = workloads.config(workload, seed)
    warm_up(workload)
    start = clock()
    setups, solves, rates = [], [], []
    problem = build(cfg, setups)
    while True:
        wall, runs = solve_list(cfg, problem)
        outcome.check(runs)
        solves.append(wall)
        rates.append(iterations(runs) / wall)
        batch = clock()
        runs = None  # so that a build's peak memory is its own
        while True:
            problem = None  # each build starts without the previous one alive
            problem = build(cfg, setups)
            if clock() - batch >= SETUP_SHARE * wall:
                break
        if clock() - start + (clock() - batch) + wall > seconds:
            break
    print(f"# {len(setups)} set-ups, {len(solves)} solves: "
          + " ".join(f"{t:.3f}" for t in solves), flush=True)
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solves),
        "iter_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload, seed, seconds, outcome):
    """Traced runs paired with untraced solves: the per-layer metrics."""
    cfg = workloads.config(workload, seed)
    warm_up(workload)
    start = clock()
    layers, overheads, plain = [], [], []
    while True:
        t0 = clock()
        problem, spans, (traced_wall, traced) = traced_run(cfg)
        plain_wall, runs = solve_list(cfg, problem)
        outcome.check(traced)
        outcome.check(runs)
        for (name, a, _), (_, b, _) in zip(runs, traced):
            if a and b and references.summary(a) != references.summary(b):
                outcome.inconsistent(f"{name}: traced and untraced answers "
                                     "differ")
        m = tracer.layer_metrics(spans, iterations(traced), problem.op.cols)
        if not tracer.self_times_add_up(spans):
            outcome.inconsistent("self times do not sum to the traced total")
        if layers and any(m[k] != layers[0][k] for k in m
                          if k.endswith(EXACT)):
            outcome.inconsistent("counts differ between traced runs")
        layers.append(m)
        overheads.append(traced_wall - plain_wall)
        plain.append(runs)
        if clock() - start + (clock() - t0) > seconds:
            break
    print(f"# {len(layers)} traced and untraced pairs", flush=True)
    out = {k: (layers[0][k] if k.endswith(EXACT)
               else statistics.median(m[k] for m in layers))
           for k in layers[0]}
    out["trace.overhead_s"] = statistics.median(overheads)
    out.update(solver_metrics(problem, plain))
    return out


def unit(name):
    if name == "iter_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_iter"):
        return "count/iter"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("report.residual_gap") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    print("# env " + json.dumps(env.describe(args.seed)), flush=True)
    print("# config " + json.dumps(workloads.config(args.workload,
                                                    args.seed)), flush=True)
    outcome = Outcome(references.load(), args.workload, args.seed)
    if args.trace:
        metrics = measure_traced(args.workload, args.seed, args.seconds,
                                 outcome)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, outcome)
    for why in outcome.problems:
        print(f"# FAILED {why}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value!r} {unit(name)}")
    print(f"fail_frac {outcome.failed / outcome.attempted!r} ratio")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
