"""Acceptance suite: one test and one printed PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json

import numpy as np
import pytest

from lrkrylov import cli, krylov, nnr
from lrkrylov.krylov import (
    arnoldi_start,
    arnoldi_step,
    gkb_start,
    gkb_step,
    gmres,
    lr_fgmres,
    lr_flsqr,
    lsqr,
    rs_lr_gmres,
)
from lrkrylov.linops import unvec, vec
from lrkrylov.lowrank import (
    SvdTriple,
    apply_transform,
    build_reweighter,
    precondition,
    shrink,
    svd,
    truncate,
)
from lrkrylov.nnr import (
    NnrConfig,
    flexible_nnrp,
    irn_nnrp,
    reweighted_krylov_solve,
)
from lrkrylov.problems import (
    inpainting_problem,
    phantom_problem,
    star_problem,
)
from lrkrylov.report import Discrepancy, SolveReport

from dense import (
    from_dense,
    full_svd,
    smooth_schatten,
    smooth_schatten_gradient,
    to_dense,
)


def _pass(number, message):
    print(f"\ncriterion {number:02d} PASS: {message}")


def collect_iterates(solver_fn):
    """Run a solver while capturing every recorded (x, residual) pair."""
    captured = []
    orig = SolveReport.record

    def spy(self, outer, x, resid, lam, err=None):
        captured.append((np.array(x), float(resid)))
        orig(self, outer, x, resid, lam, err)

    SolveReport.record = spy
    try:
        report = solver_fn()
    finally:
        SolveReport.record = orig
    return report, captured


def test_01_truncation_is_best_low_rank_approximation():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        X = rng.standard_normal((8, 8))
        s = svd(X).sigma
        scale = np.linalg.norm(X, "fro")
        for kappa in range(1, 9):
            err = np.linalg.norm(unvec(truncate(vec(X), kappa), 8) - X,
                                 "fro")
            want = np.sqrt(np.sum(s[kappa:] ** 2))
            worst = max(worst, abs(err - want) / scale)
    assert worst <= 1e-9
    _pass(1, f"truncation error matches the tail singular values "
             f"(worst relative gap {worst:.2e})")


def test_02_factorization_residuals():
    from lrkrylov.problems import star_problem as _sp
    rng = np.random.default_rng(101)
    A400 = rng.standard_normal((400, 400))
    blur = _sp(16, noise_level=1e-3, seed=0).op
    cases = [
        ("dense", from_dense(A400, 20), rng.standard_normal(400)),
        ("blur", blur, rng.standard_normal(256)),
    ]
    worst = 0.0
    for label, op, b in cases:
        A = to_dense(op)
        trunc = lambda v: truncate(v, 5)
        for precond in (None, trunc):
            state = arnoldi_start(op, b, 30)
            for _ in range(30):
                arnoldi_step(state, op, precondition=precond)
            lhs = A @ state.Z_mat()
            gap = np.linalg.norm(lhs - state.V_mat() @ state.H_mat())
            worst = max(worst, gap / np.linalg.norm(lhs))
        for precond in (None, trunc):
            state = gkb_start(op, b, 30)
            for _ in range(30):
                gkb_step(state, op, precondition=precond)
            lhs = A @ state.Z_mat()
            gap = np.linalg.norm(lhs - state.U_mat() @ state.M_mat())
            worst = max(worst, gap / np.linalg.norm(lhs))
            k = state.k
            lhs_t = A.T @ state.U_mat()[:, :k]
            gap_t = np.linalg.norm(lhs_t - state.V_mat() @ state.T_mat())
            worst = max(worst, gap_t / np.linalg.norm(lhs_t))
    assert worst <= 1e-8
    _pass(2, f"all factorization identities hold over 30 steps "
             f"(worst relative residual {worst:.2e})")


def test_03_projected_residual_equals_true_residual():
    prob = star_problem(16, noise_level=1e-3, seed=1)
    op, b = prob.op, prob.b
    scale = np.linalg.norm(b)
    cfg = NnrConfig(max_iter=12, max_outer=2, max_inner=6)
    # lr-fgmres and lr-flsqr are left out: they record the projected
    # residual of the untruncated Z_k y but return its truncation (ROADMAP
    # item 1)
    runs = {
        "gmres": lambda: gmres(op, b, 12),
        "lsqr": lambda: lsqr(op, b, 12),
        "rs-lr-gmres": lambda: rs_lr_gmres(op, b, 4, 3, 3),
        "irn-gmres-nnrp": lambda: irn_nnrp(op, b, cfg, gkb=False),
        "irn-lsqr-nnrp": lambda: irn_nnrp(op, b, cfg, gkb=True),
        "fgmres-nnrp": lambda: flexible_nnrp(op, b, cfg, gkb=False),
        "flsqr-nnrp": lambda: flexible_nnrp(op, b, cfg, gkb=True),
        "fgmres-nnrp-v": lambda: flexible_nnrp(op, b, cfg, gkb=False,
                                               from_basis=True),
        "flsqr-nnrp-v": lambda: flexible_nnrp(op, b, cfg, gkb=True,
                                              from_basis=True),
        "svt": lambda: nnr.svt(op, b, 0.5, 0.9, 12),
    }
    worst = 0.0
    for name, fn in runs.items():
        _, captured = collect_iterates(fn)
        assert captured, name
        for x, resid in captured:
            true = np.linalg.norm(b - op.matvec(x))
            worst = max(worst, abs(true - resid) / scale)
    assert worst <= 1e-8
    _pass(3, f"recorded residuals equal true residuals for ten solvers "
             f"(worst relative gap {worst:.2e})")


def test_04_reweighted_solve_reaches_fixed_point():
    rng = np.random.default_rng(102)
    n = 8
    A = rng.standard_normal((n * n, n * n))
    op = from_dense(A, n)
    b = rng.standard_normal(n * n)
    U, sigma, V = full_svd(rng.standard_normal((n, n)))
    rw = build_reweighter(SvdTriple(U, sigma), 1.0, 1e-2)
    lam = 0.1
    S = np.kron(V.T, U.T)  # the paper's two-sided transform
    W = np.diag(np.tile(1.0 / rw.inv_weights, n))
    x_oracle = np.linalg.solve(A.T @ A + lam * S.T @ W @ W @ S, A.T @ b)
    worst = 0.0
    for gkb in (True, False):
        x, _ = reweighted_krylov_solve(op, b, rw, n * n, SolveReport(),
                                       "fixed", lam, gkb=gkb)
        worst = max(worst,
                    np.linalg.norm(x - x_oracle) / np.linalg.norm(x_oracle))
    assert worst <= 1e-6
    _pass(4, f"reweighted inner solves agree with the dense normal "
             f"equations (worst relative error {worst:.2e})")


def test_05_implicit_transform_matches_kronecker():
    rng = np.random.default_rng(103)
    U, sigma, V = full_svd(rng.standard_normal((4, 4)))
    rw = build_reweighter(SvdTriple(U, sigma), 0.75, 1e-2)
    S = np.kron(V.T, U.T)  # the paper's transform, for S^T W^q S
    S1 = np.kron(np.eye(4), rw.U.T)  # the package's S' = I (x) U^T
    W_diag = np.tile(1.0 / rw.inv_weights, 4)
    worst = 0.0
    for power in (-2, -1, 0, 1):
        for _ in range(10):
            v = rng.standard_normal(16)
            want = S.T @ (W_diag**power * (S @ v))
            worst = max(worst,
                        np.linalg.norm(precondition(rw, v, power) - want))
            want_s = W_diag**power * (S1 @ v)
            got_s = apply_transform(rw, v, "S", weight_power=power)
            worst = max(worst, np.linalg.norm(got_s - want_s))
    assert worst <= 1e-12
    _pass(5, f"implicit weight/transform application matches explicit "
             f"Kronecker products (worst gap {worst:.2e})")


def test_06_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(104)
    X = rng.standard_normal((5, 5))
    h = 1e-6
    worst = 0.0
    for p in (0.75, 1.0):
        for gamma in (1e-2, 1.0):
            G = smooth_schatten_gradient(X, p, gamma)
            for _ in range(5):
                E = rng.standard_normal((5, 5))
                fd = (smooth_schatten(X + h * E, p, gamma)
                      - smooth_schatten(X - h * E, p, gamma)) / (2 * h)
                worst = max(worst,
                            abs(fd - np.sum(G * E)) / max(abs(fd), 1.0))
    assert worst <= 1e-5
    _pass(6, f"surrogate gradient agrees with central differences "
             f"(worst relative gap {worst:.2e})")


def test_06_irn_weights_apply_the_surrogate_gradient():
    # the weights the solvers run, S^T W^2 S from build_reweighter, map X
    # to the gradient of the smoothed Schatten-p objective over p
    rng = np.random.default_rng(106)
    X = rng.standard_normal((6, 6))
    worst = 0.0
    for p, gamma in ((1.0, 1e-2), (0.75, 1.0), (0.5, 1e-6)):
        want = vec(smooth_schatten_gradient(X, p, gamma)) / p
        got = precondition(build_reweighter(svd(X), p, gamma), vec(X), 2)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    assert worst <= 1e-12
    _pass(6, f"IRN weights S^T W^2 S X equal the surrogate gradient over p "
             f"(worst relative gap {worst:.2e})")


def test_07_preconditioned_solvers_degenerate_to_standard(
        identity_reweighting):
    prob = star_problem(16, noise_level=1e-3, seed=2)
    op, b, xe = prob.op, prob.b, prob.x_exact
    iters = 10
    worst = 0.0

    def gap(x, x_ref):
        return np.linalg.norm(x - x_ref) / max(np.linalg.norm(x_ref), 1.0)

    cfg = NnrConfig(max_outer=1, max_inner=iters, max_iter=iters)
    ref_g = gmres(op, b, iters, x_exact=xe).final_x
    ref_l = lsqr(op, b, iters, x_exact=xe).final_x
    worst = max(worst, gap(irn_nnrp(op, b, cfg, gkb=False).final_x, ref_g))
    worst = max(worst, gap(irn_nnrp(op, b, cfg, gkb=True).final_x, ref_l))
    worst = max(worst, gap(
        flexible_nnrp(op, b, cfg, gkb=False).final_x, ref_g))
    worst = max(worst, gap(
        flexible_nnrp(op, b, cfg, gkb=True).final_x, ref_l))
    worst = max(worst, gap(lr_fgmres(op, b, 16, 16, iters).final_x, ref_g))
    worst = max(worst, gap(lr_flsqr(op, b, 16, 16, iters).final_x, ref_l))
    ref_g9 = gmres(op, b, iters + 1, x_exact=xe).final_x
    worst = max(worst, gap(rs_lr_gmres(op, b, iters, 16, 1).final_x, ref_g9))
    assert worst <= 1e-8
    _pass(7, f"identity / full-rank settings reproduce plain GMRES and "
             f"LSQR (worst relative gap {worst:.2e})")


def test_08_reweighting_improves_deblurring():
    prob = star_problem(64, noise_level=1e-3, seed=7)
    base = gmres(prob.op, prob.b, 100, x_exact=prob.x_exact)
    cfg = NnrConfig(max_outer=4, max_inner=25, tau_sigma=0.0,
                    epsilon=prob.noise_norm)
    irn = irn_nnrp(prob.op, prob.b, cfg, gkb=False,
                   x_exact=prob.x_exact)
    assert irn.min_rel_error < 0.9 * base.min_rel_error
    _pass(8, f"deblurring: reweighted GMRES reaches {irn.min_rel_error:.4f} "
             f"vs plain GMRES {base.min_rel_error:.4f}")


def test_09_flexible_solver_improves_tomography():
    prob = phantom_problem(64, seed=11)
    base = lsqr(prob.op, prob.b, 100, x_exact=prob.x_exact)
    cfg = NnrConfig(max_iter=100)
    flex = flexible_nnrp(prob.op, prob.b, cfg, gkb=True,
                         from_basis=True, x_exact=prob.x_exact)
    assert flex.min_rel_error < 0.9 * base.min_rel_error
    _pass(9, f"tomography: flexible nuclear-norm LSQR reaches "
             f"{flex.min_rel_error:.4f} vs plain LSQR "
             f"{base.min_rel_error:.4f}")


def test_10_nuclear_norm_solvers_improve_inpainting():
    prob = inpainting_problem("peppers-like", n=64, seed=5)
    base = lsqr(prob.op, prob.b, 100, x_exact=prob.x_exact)
    cfg = NnrConfig(max_iter=100, max_outer=4, max_inner=25, tau_sigma=0.0,
                    epsilon=prob.noise_norm)
    flex = flexible_nnrp(prob.op, prob.b, NnrConfig(max_iter=100),
                         gkb=True, from_basis=True,
                         x_exact=prob.x_exact)
    irn = irn_nnrp(prob.op, prob.b, cfg, gkb=True, x_exact=prob.x_exact)
    assert flex.min_rel_error < base.min_rel_error
    assert irn.min_rel_error < base.min_rel_error
    _pass(10, f"inpainting: flexible {flex.min_rel_error:.4f} and "
              f"reweighted {irn.min_rel_error:.4f} both beat plain LSQR "
              f"{base.min_rel_error:.4f}")


def test_11_truncated_solvers_respect_rank_bound():
    prob = star_problem(64, noise_level=1e-3, seed=3)
    kappa = 5
    reports = [
        lr_fgmres(prob.op, prob.b, kappa, kappa, 20, x_exact=prob.x_exact),
        lr_flsqr(prob.op, prob.b, kappa, kappa, 20, x_exact=prob.x_exact),
        rs_lr_gmres(prob.op, prob.b, 10, kappa, 2, x_exact=prob.x_exact),
    ]
    worst = 0.0
    for rep in reports:
        s = svd(unvec(rep.final_x, 64)).sigma
        worst = max(worst, s[kappa] / s[0])
    assert worst <= 1e-10
    _pass(11, f"truncated solvers return iterates of rank <= {kappa} "
              f"(worst sigma_{kappa + 1}/sigma_1 = {worst:.2e})")


def test_12_svt_iterates_are_shrinkage_outputs():
    prob = inpainting_problem("house-like", n=32, rank_cap=25, seed=4)
    tau, delta, iters = 1.0, 0.9, 20
    rep = nnr.svt(prob.op, prob.b, tau, delta, iters)
    # independent transcription of the recurrence, with the shrinkage
    # property checked at every step
    y = np.zeros(prob.op.rows)
    worst = 0.0
    for _ in range(iters):
        back = unvec(prob.op.rmatvec(y), 32)
        x = vec(shrink(back, tau))
        s_back = svd(back).sigma
        s_x = svd(unvec(x, 32)).sigma
        worst = max(worst,
                    np.abs(s_x - np.maximum(s_back - tau, 0.0)).max())
        y = y + delta * (prob.b - prob.op.matvec(x))
    assert worst <= 1e-10
    assert np.allclose(rep.final_x, x, atol=1e-10)
    _pass(12, f"every SVT iterate shrinks the singular values exactly "
              f"(worst gap {worst:.2e})")


def test_13_secant_rule_stops_in_discrepancy_band():
    prob = star_problem(64, noise_level=1e-3, seed=7)
    eps = prob.noise_norm
    rep = gmres(prob.op, prob.b, 100, stop=Discrepancy(eps, 1.01),
                lambda_rule="secant", x_exact=prob.x_exact)
    assert rep.stop_reason == "discrepancy"
    assert rep.residuals[-1] <= 1.01 * eps
    assert rep.residuals[-2] > 1.01 * eps  # stopped at the first crossing
    _pass(13, f"secant-driven GMRES stops at residual "
              f"{rep.residuals[-1]:.6g} inside [0, {1.01 * eps:.6g}] "
              f"after {len(rep.residuals)} iterations")


def test_14_experiment_runs_are_bitwise_reproducible(tmp_path):
    config = {
        "problem": {"type": "star", "n": 64, "noise_level": 1e-3,
                    "seed": 7},
        "solvers": [
            {"name": "gmres", "max_iter": 30},
            {"name": "irn-gmres-nnrp", "max_outer": 2, "max_inner": 15,
             "tau_sigma": 0.0},
            {"name": "flsqr-nnrp-v", "max_iter": 30},
        ],
        "emit_images": True,
        "emit_spectra": True,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.run(str(cfg_path), out_dir=str(out1)) == 0
    assert cli.run(str(cfg_path), out_dir=str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    csvs = [n for n in names if n.endswith(".csv")]
    assert csvs
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _pass(14, f"two identical runs produced byte-identical output "
              f"({len(csvs)} CSV files compared)")
