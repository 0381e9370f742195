"""Output check of every solver run, and the stored reference answers.

For the reference seeds the check compares each solver's
``min_rel_error`` to the stored value to 1e-8 relative, and its
``iterations_run`` and ``stop_reason`` exactly.  For any other seed it
checks that ``min_rel_error`` is finite and under the workload's ceiling
for that solver.

``python3 perfbench/references.py`` recomputes ``references.json``; do
that only when a change is meant to alter the answers, and say why.
"""

import json
import math
from pathlib import Path

import workloads

REFERENCE_SEEDS = (0, 1)
RTOL = 1e-8
PATH = Path(__file__).with_name("references.json")


def load():
    return json.loads(PATH.read_text())


def summary(report):
    return {
        "min_rel_error": float(report.min_rel_error),
        "iterations_run": len(report.iterations),
        "stop_reason": report.stop_reason,
    }


def check(refs, workload, seed, name, report):
    """None when the run passes, else a one-line reason."""
    got = summary(report)
    err = got["min_rel_error"]
    if not math.isfinite(err):
        return f"{name}: min_rel_error is {err}"
    want = refs.get(workload, {}).get(str(seed), {}).get(name)
    if want is None:
        ceiling = workloads.WORKLOADS[workload]["ceilings"][name]
        if err >= ceiling:
            return f"{name}: min_rel_error {err:.6g} >= ceiling {ceiling}"
        return None
    if abs(err - want["min_rel_error"]) > RTOL * abs(want["min_rel_error"]):
        return (f"{name}: min_rel_error {err!r} != reference "
                f"{want['min_rel_error']!r}")
    for key in ("iterations_run", "stop_reason"):
        if got[key] != want[key]:
            return f"{name}: {key} {got[key]!r} != reference {want[key]!r}"
    return None


def residual_gap(problem, report):
    """Relative gap between the last recorded residual and the true
    ||b - A x_final|| of the returned iterate."""
    import numpy as np

    true = float(np.linalg.norm(problem.b - problem.op.matvec(report.final_x)))
    return abs(true - report.residuals[-1]) / true


def main():
    import env

    env.pin_threads()
    env.load_package()
    from lrkrylov import cli

    refs = {}
    for name in workloads.WORKLOADS:
        for seed in REFERENCE_SEEDS:
            cfg = workloads.config(name, seed)
            problem = cli.build_problem(cfg["problem"])
            refs.setdefault(name, {})[str(seed)] = {
                spec["name"]: summary(cli.run_solver(spec, problem))
                for spec in cfg["solvers"]}
            print(name, seed, refs[name][str(seed)], flush=True)
    PATH.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
