"""Paired in-process A/B timing of two lrkrylov source trees.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload tomo-irn \\
        --rounds 10 --seed 0

PARENT_SRC and CHANGE_SRC are ``src/`` directories that each hold an
``lrkrylov`` package, for example ``src`` of this checkout and ``src`` of
a ``git archive`` of its parent.  Both load in this one process, under
the module names ``lrkrylov_parent`` and ``lrkrylov_change``, and each
side builds the workload's problem with its own tree.  The workload is
the config of ``perfbench/workloads.py`` for ``--workload`` and
``--seed``, or with ``--warmup`` its tiny warm-up config (seed 0), which
runs in seconds.  After an untimed warm-up solve on each side, every
round times the whole solver list once on each side, the parent first
in even rounds and the change first in odd ones, so that both sides see
the same drift in host speed.

Printed: each round's times; per side the median and quartiles of the
solve seconds and iterations per second; the paired ratio change /
parent with a 95% bootstrap interval of its median; and the rounds that
the change won, ties counting for neither.  Answers: each solver's
``references.summary`` on both sides, any drift between them, and, off
``--warmup`` on a seed with stored references, the check of
``perfbench/references.py``.  The last line of standard output is the
JSON block for a ``BENCH_*.json``.  The exit status is 0 unless a solver
raises or a tree has no package: answer drift is reported, not failed,
and no speed is gated.

One BLAS thread, as in ``perfbench/run.py``.  Peak memory, set-up time
and import effects are not measured here; they stay with
``perfbench/run.py`` processes.
"""

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

SIDES = ("parent", "change")
BOOTSTRAP = 2000  # resamples of the paired ratios

clock = time.perf_counter


def load(side, src):
    """The ``lrkrylov`` package under ``src`` as module ``lrkrylov_<side>``;
    returns its ``cli``."""
    init = Path(src, "lrkrylov", "__init__.py")
    if not init.is_file():
        sys.exit(f"ab: no lrkrylov package under {src}")
    name = f"lrkrylov_{side}"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def solve(cli, cfg, problem):
    """(wall seconds, reports) of the solver list, in order."""
    start = clock()
    reports = [cli.run_solver(spec, problem) for spec in cfg["solvers"]]
    return clock() - start, reports


def paired(parent, change, lower):
    """Medians, quartiles, the median change / parent ratio with its
    bootstrap interval, and the change's wins, of paired runs."""
    import numpy as np

    a, b = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    ratios = b / a
    rng = np.random.default_rng(0)
    resampled = np.median(ratios[rng.integers(0, ratios.size,
                                              (BOOTSTRAP, ratios.size))],
                          axis=1)
    q_a, q_b = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    return {
        "parent_median": q_a[1], "parent_q1": q_a[0], "parent_q3": q_a[2],
        "change_median": q_b[1], "change_q1": q_b[0], "change_q3": q_b[2],
        "parent_iqr": q_a[2] - q_a[0],
        "median_paired_ratio": float(np.median(ratios)),
        "paired_ratio_ci95": [float(v) for v in
                              np.percentile(resampled, [2.5, 97.5])],
        "change_better_pairs": int(np.sum(b < a if lower else b > a)),
        "pairs": int(a.size),
        "parent_runs": a.tolist(),
        "change_runs": b.tolist(),
    }


def drift(parent, change):
    """Per solver, how the change's answer summary differs from the
    parent's: the relative change of ``min_rel_error`` and both sides'
    iterations and stop reasons."""
    out = {}
    for name in parent:
        a, b = parent[name], change[name]
        err_a, err_b = a["min_rel_error"], b["min_rel_error"]
        out[name] = {
            "min_rel_error": [err_a, err_b],
            "min_rel_error_rel": (0.0 if err_a == err_b
                                  else abs(err_b - err_a) / abs(err_a)),
            "iterations_run": [a["iterations_run"], b["iterations_run"]],
            "stop_reason": [a["stop_reason"], b["stop_reason"]],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/ab.py")
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    env.pin_threads()  # before anything imports numpy
    import references
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(sorted(workloads.WORKLOADS))}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seed = 0 if args.warmup else args.seed
    cfg = (workloads.warmup_config(args.workload) if args.warmup
           else workloads.config(args.workload, seed))
    clis = {side: load(side, src)
            for side, src in zip(SIDES, (args.parent_src, args.change_src))}
    print("# env " + json.dumps(env.describe(seed)), flush=True)
    print("# config " + json.dumps(cfg), flush=True)

    problems, answers = {}, {}
    small = workloads.warmup_config(args.workload)
    for side, cli in clis.items():
        solve(cli, small, cli.build_problem(small["problem"]))
        problems[side] = cli.build_problem(cfg["problem"])
    times = {side: [] for side in SIDES}
    rates = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            wall, reports = solve(clis[side], cfg, problems[side])
            times[side].append(wall)
            rates[side].append(sum(len(rep.iterations) for rep in reports)
                               / wall)
            if side not in answers:
                answers[side] = {spec["name"]: rep
                                 for spec, rep in zip(cfg["solvers"], reports)}
        print(f"# round {r}: " + ", ".join(
            f"{side} {times[side][-1]:.4f} s" for side in SIDES), flush=True)

    summaries = {side: {name: references.summary(rep)
                        for name, rep in answers[side].items()}
                 for side in SIDES}
    moved = drift(summaries["parent"], summaries["change"])
    equal = summaries["parent"] == summaries["change"]
    correct, refs = None, references.load()
    if not args.warmup and str(seed) in refs.get(args.workload, {}):
        correct = {side: not any(
            references.check(refs, args.workload, seed, name, rep)
            for name, rep in answers[side].items()) for side in SIDES}
    metrics = {"solve_s": paired(times["parent"], times["change"], True),
               "iter_per_s": paired(rates["parent"], rates["change"], False)}

    for name, m in metrics.items():
        lo, hi = m["paired_ratio_ci95"]
        print(f"{name}: parent {m['parent_median']:.6g} "
              f"[{m['parent_q1']:.6g}, {m['parent_q3']:.6g}], change "
              f"{m['change_median']:.6g} [{m['change_q1']:.6g}, "
              f"{m['change_q3']:.6g}]; paired ratio "
              f"{m['median_paired_ratio']:.4f} (95% {lo:.4f}-{hi:.4f}); "
              f"change better in {m['change_better_pairs']} of "
              f"{m['pairs']}")
    for name, d in moved.items():
        if (d["min_rel_error_rel"] or len(set(d["iterations_run"])) > 1
                or len(set(d["stop_reason"])) > 1):
            print(f"answer drift {name}: min_rel_error "
                  f"{d['min_rel_error'][0]!r} -> {d['min_rel_error'][1]!r} "
                  f"({d['min_rel_error_rel']:.3g} relative), iterations "
                  f"{d['iterations_run'][0]} -> {d['iterations_run'][1]}, "
                  f"stop {d['stop_reason'][0]} -> {d['stop_reason'][1]}")
    if equal:
        print("answer drift: none")
    if correct is not None:
        print("references: " + ", ".join(
            f"{side} {'pass' if ok else 'FAIL'}"
            for side, ok in correct.items()))
    print(json.dumps({
        "command": "python3 tools/ab.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "workload": args.workload,
        "seed": seed,
        "warmup": args.warmup,
        "rounds": args.rounds,
        "parent_first": [r % 2 == 0 for r in range(args.rounds)],
        "env": env.describe(seed),
        "metrics": metrics,
        "answers_equal": equal,
        "drift": moved,
        "correct": correct,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
