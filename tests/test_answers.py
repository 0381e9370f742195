"""Stored answers of all twelve solvers.

Every solver runs through ``cli.run_solver`` on star, phantom and
inpainting problems at n = 32 (the GMRES family, which needs a square
operator, on star only), under each lambda rule that its entry in
``cli.SOLVERS`` accepts, with the discrepancy stop on and off.  Each spec
holds only the keys of ``BUDGET`` and ``STOPS`` that its solver reads.
``iterations_run`` and ``stop_reason`` must match ``answers.json``
exactly, and ``min_rel_error`` and the last recorded residual to 1e-8
relative.

Under the optimal rule the last residual is held to 1e-5 only.  That rule
picks lambda from a log grid, polished by Newton's method in
log(lambda), on an error that is flat near its minimum, so lambda, and
the residual with it, are fixed by rounding to about 1e-6: stacking the
projected Tikhonov problem as [sqrt(lambda) I; H] instead of
[H; sqrt(lambda) I], the same problem, moved the recorded
residuals of ``inpainting/lsqr/optimal/nostop`` by up to 1.4e-6 and the
last one by 2.7e-8.  The error that the search minimizes is flat there,
so ``min_rel_error`` still holds to 1e-8.

    PYTHONPATH=src python tests/test_answers.py

rewrites the entries of ``answers.json`` that are new or no longer pass,
keeps every stored entry that still passes (rounding that another BLAS
brings stays out of the diff), drops the cases that are gone and prints
the names of what it wrote or dropped.  Say in a change that moves
answers which ones moved and why.
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
        for solver, entry in sorted(cli.SOLVERS.items()):
            for rule in sorted(entry.rules):
                for sname, flags in STOPS.items():
                    spec = {k: v for k, v in dict(BUDGET, lambda_rule=rule,
                                                  **flags).items()
                            if k in entry.keys}
                    spec["name"] = solver
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


def mismatches(case, got, want):
    """The keys on which answer ``got`` of ``case`` misses the stored
    ``want``: counts and labels exactly, numbers to their tolerance (module
    docstring).  A case is named pname/solver/rule/stop."""
    rtol = {"min_rel_error": RTOL, "last_residual": RTOL}
    if case.split("/")[2] == "optimal":
        rtol["last_residual"] = RTOL_OPTIMAL_RESIDUAL
    return ([key for key in ("iterations_run", "stop_reason")
             if got[key] != want[key]]
            + [key for key, tol in rtol.items()
               if not abs(got[key] - want[key]) <= tol * abs(want[key])])


@pytest.mark.parametrize("case", sorted(CASES))
def test_answer(case):
    assert mismatches(case, answer(*CASES[case]), STORED[case]) == []


def merged(stored, got):
    """(answers, written): the stored answer of each case in ``got`` that
    still passes, else the fresh one, whose case goes in ``written``.
    Cases that ``got`` lacks are dropped."""
    answers, written = {}, []
    for case in sorted(got):
        want = stored.get(case)
        if want is not None and not mismatches(case, got[case], want):
            answers[case] = want
        else:
            answers[case] = got[case]
            written.append(case)
    return answers, written


def test_regeneration_keeps_passing_answers():
    want = {"iterations_run": 12, "stop_reason": "max_iter",
            "min_rel_error": 0.25, "last_residual": 2.0}
    stored = {"star/lsqr/zero/stop": want, "star/lsqr/optimal/stop": want,
              "star/gmres/zero/stop": want, "star/svt/zero/stop": want}
    got = {
        # rounding below the tolerance: the stored answer stays
        "star/lsqr/zero/stop": dict(want, min_rel_error=0.25 * (1 + 1e-9)),
        "star/lsqr/optimal/stop": dict(want, last_residual=2.0 * (1 + 1e-6)),
        # one iteration fewer: rewritten
        "star/gmres/zero/stop": dict(want, iterations_run=11),
        # a new case: written
        "star/lsqr/fixed/stop": dict(want, min_rel_error=0.5),
    }  # star/svt/zero/stop is no case any more: dropped
    answers, written = merged(stored, got)
    assert written == ["star/gmres/zero/stop", "star/lsqr/fixed/stop"]
    assert answers == {"star/lsqr/zero/stop": want,
                       "star/lsqr/optimal/stop": want,
                       "star/gmres/zero/stop": got["star/gmres/zero/stop"],
                       "star/lsqr/fixed/stop": got["star/lsqr/fixed/stop"]}


def main():
    answers, written = merged(
        STORED, {case: answer(*CASES[case]) for case in sorted(CASES)})
    PATH.write_text(json.dumps(answers, indent=1) + "\n")
    for case in written:
        print("wrote", case)
    for case in sorted(set(STORED) - set(answers)):
        print("dropped", case)
    print(f"{len(written)} of {len(answers)} answers written to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
