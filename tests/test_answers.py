"""Stored answers of all twelve solvers.

Every solver runs through ``cli.run_solver`` on star, phantom and
inpainting problems at n = 32 (the GMRES family, which needs a square
operator, on star only), under each lambda rule that ``cli.LAMBDA_RULES``
accepts for it, with the discrepancy stop on and off.  ``iterations_run``
and ``stop_reason`` must match ``answers.json`` exactly, and
``min_rel_error`` and the last recorded residual to 1e-8 relative.

Under the optimal rule the last residual is held to 1e-5 only.  That rule
picks lambda by a golden-section search on an error that is flat near its
minimum, so lambda, and the residual with it, are fixed by rounding to
about 1e-6: stacking the projected Tikhonov problem as [sqrt(lambda) I; H]
instead of [H; sqrt(lambda) I], the same problem, moved the recorded
residuals of ``inpainting/lsqr/optimal/nostop`` by up to 1.4e-6 and the
last one by 2.7e-8.  The error that the search minimizes is flat there,
so ``min_rel_error`` still holds to 1e-8.

    PYTHONPATH=src python tests/test_answers.py

rewrites ``answers.json``.  Run it only for a change that means to move
answers, and say in that change which answers moved and why.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from lrkrylov import cli

PATH = Path(__file__).with_name("answers.json")
RTOL = 1e-8
RTOL_OPTIMAL_RESIDUAL = 1e-5

PROBLEMS = {
    "star": {"type": "star", "n": 32, "seed": 1},
    "phantom": {"type": "phantom", "n": 32, "n_angles": 24, "seed": 1},
    "inpainting": {"type": "inpainting", "n": 32, "rank_cap": 12, "seed": 1},
}
# small budgets for every solver knob, so that the whole file runs in seconds
BUDGET = {"max_iter": 12, "max_outer": 3, "max_inner": 8, "restart_len": 6,
          "kappa_B": 8, "kappa": 8, "truncation_rank": 8,
          "lambda_value": 0.05}
STOPS = {"stop": {"use_discrepancy": True, "use_noise_norm": True},
         "nostop": {"use_discrepancy": False, "use_noise_norm": False}}


def cases():
    """{case name: (problem name, solver spec)} for every accepted case."""
    out = {}
    for pname, problem in PROBLEMS.items():
        for solver in sorted(cli.SOLVER_NAMES):
            for rule in sorted(cli.LAMBDA_RULES[solver]):
                for sname, flags in STOPS.items():
                    spec = dict(BUDGET, name=solver, lambda_rule=rule,
                                **flags)
                    try:
                        cli.validate_config({"problem": problem,
                                             "solvers": [spec]})
                    except cli.ConfigError:
                        continue
                    out[f"{pname}/{solver}/{rule}/{sname}"] = (pname, spec)
    return out


@functools.lru_cache(maxsize=None)
def problem(name):
    return cli.build_problem(PROBLEMS[name])


def answer(pname, spec):
    report = cli.run_solver(spec, problem(pname))
    return {
        "iterations_run": len(report.iterations),
        "stop_reason": report.stop_reason,
        "min_rel_error": float(report.min_rel_error),
        "last_residual": float(report.residuals[-1]),
    }


STORED = json.loads(PATH.read_text()) if PATH.exists() else {}
CASES = cases()


def test_every_case_is_stored():
    assert sorted(CASES) == sorted(STORED)


@pytest.mark.parametrize("case", sorted(CASES))
def test_answer(case):
    got, want = answer(*CASES[case]), STORED[case]
    for key in ("iterations_run", "stop_reason"):
        assert got[key] == want[key], key
    rtol = {"min_rel_error": RTOL, "last_residual": RTOL}
    if CASES[case][1]["lambda_rule"] == "optimal":
        rtol["last_residual"] = RTOL_OPTIMAL_RESIDUAL
    for key, tol in rtol.items():
        assert abs(got[key] - want[key]) <= tol * abs(want[key]), key


def main():
    answers = {case: answer(*CASES[case]) for case in sorted(CASES)}
    PATH.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {len(answers)} answers to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
