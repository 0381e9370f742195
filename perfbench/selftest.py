"""Self-tests of the benchmark, run at seed 0 on every workload:

- two traced runs give identical counts;
- traced and untraced runs give identical answers;
- self times sum to the traced total, so no time is counted twice;
- each layer has a nonzero count on the workload meant to stress it;
- the largest layer of each workload is the one the workload was chosen
  for, and ray tracing is most of the tomography set-up;
- every solver run passes the output check, and the residual-gap
  diagnostic shows the lr-flsqr defect.

    python3 perfbench/selftest.py

Takes about two minutes; exits 1 on the first failed check.
"""

import sys

import run  # pins threads and loads the package before numpy is imported

import references
import tracer
import workloads

# layer counts that must be nonzero on the workload that stresses them
STRESSED = {
    "deblur-krylov": ("krylov.basis_n", "krylov.step_n", "linops.matvec_n",
                      "linops.rmatvec_n", "report.record_n"),
    "tomo-irn": ("krylov.proj_solve_n", "nnr.lambda_search_n",
                 "nnr.inner_cycles_n", "tomo_kernels.nnz",
                 "linops.matvec_n", "linops.rmatvec_n"),
    "inpaint-lowrank": ("lowrank.svd_n", "lowrank.truncate_n",
                        "lowrank.apply_transform_n", "lowrank.reweighter_n",
                        "nnr.inner_cycles_n"),
}

LAYER_TIMES = ("krylov.basis_s", "krylov.step_self_s", "krylov.proj_solve_s",
               "nnr.lambda_search_self_s", "lowrank.svd_s",
               "lowrank.precondition_s", "lowrank.apply_transform_s",
               "linops.matvec_s", "linops.rmatvec_s", "report.record_s")


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def largest(m):
    return max(LAYER_TIMES, key=lambda k: m[k])


def selftest(workload):
    print(f"== {workload}", flush=True)
    cfg = workloads.config(workload, 0)
    run.warm_up(workload)
    problem, spans, (_, traced) = run.traced_run(cfg)
    _, spans2, (_, traced2) = run.traced_run(cfg)
    _, plain = run.solve_list(cfg, problem)

    outcome = run.Outcome(references.load(), workload, 0)
    for runs in (traced, traced2, plain):
        outcome.check(runs)
    expect(not outcome.problems, f"output check passes {outcome.problems}")

    m = tracer.layer_metrics(spans, run.iterations(traced), problem.op.cols)
    m2 = tracer.layer_metrics(spans2, run.iterations(traced2),
                              problem.op.cols)
    counts = [k for k in m if k.endswith(run.EXACT)]
    expect(all(m[k] == m2[k] for k in counts),
           "two traced runs give identical counts")
    expect([references.summary(r) for _, r, _ in traced]
           == [references.summary(r) for _, r, _ in plain],
           "traced and untraced answers are identical")

    expect(tracer.self_times_add_up(spans),
           "self times sum to the traced total")

    for k in STRESSED[workload]:
        expect(m[k] > 0, f"{k} = {m[k]} is nonzero")

    solve = m["trace.solve_s"]
    for k in LAYER_TIMES:
        print(f"      {k:28s} {m[k] / solve:6.1%} of traced solve_s")
    if workload == "deblur-krylov":
        krylov = m["krylov.basis_s"] + m["krylov.step_self_s"]
        expect(krylov > 0.5 * solve,
               f"basis plus step self time is {krylov / solve:.0%} of solve")
    elif workload == "tomo-irn":
        expect(largest(m) == "krylov.proj_solve_s",
               "projected solves are the largest layer of the solve")
        share = m["tomo_kernels.trace_s"] / m["trace.setup_s"]
        expect(share > 0.5, f"ray tracing is {share:.0%} of set-up")
    else:
        expect(largest(m) == "lowrank.svd_s",
               "SVDs are the largest layer of the solve")
        gaps = run.solver_metrics(problem, [plain])
        gap = gaps["report.residual_gap.lr-flsqr"]
        expect(gap > 1e-3, f"lr-flsqr residual gap {gap:.3g} is shown")


def main():
    for workload in workloads.WORKLOADS:
        selftest(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
