import numpy as np
import pytest

from lrkrylov import cli, krylov, nnr
from lrkrylov.krylov import projected_svd
from lrkrylov.linops import unvec, vec
from lrkrylov.lowrank import (
    Reweighter,
    SvdTriple,
    build_reweighter,
    shrink,
    svd,
)
from lrkrylov.nnr import (
    NnrConfig,
    flexible_nnrp,
    irn_nnrp,
    optimal_lambda_search,
    outer_stop_singular_values,
    reweighted_krylov_solve,
    secant_lambda_update,
    svt,
)
from lrkrylov.problems import phantom_problem, star_problem
from lrkrylov.report import Discrepancy, SolveReport

from dense import from_dense, full_svd, to_dense


class TestStoppingRules:
    def test_discrepancy_examples(self):
        assert Discrepancy(1.0, 1.01).satisfied(0.9)
        assert not Discrepancy(1.0, 1.01).satisfied(1.02)
        assert Discrepancy(1.0, 1.01).satisfied(1.01)

    def test_discrepancy_invalid_args(self):
        with pytest.raises(ValueError):
            Discrepancy(-1.0, 1.01)
        with pytest.raises(ValueError):
            Discrepancy(1.0, 1.0)
        # NaN would compare False with every residual and never stop
        with pytest.raises(ValueError):
            Discrepancy(np.nan)
        with pytest.raises(ValueError):
            Discrepancy(1.0, np.nan)

    def test_outer_stop_identical_spectra(self):
        s = np.array([1.0, 0.4, 0.01])
        assert outer_stop_singular_values(s, s, 0.1)

    def test_outer_stop_boundary_is_strict(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 0.1])
        assert not outer_stop_singular_values(a, b, 0.1)
        assert outer_stop_singular_values(a, b, 0.1 + 1e-12)


class TestSecant:
    def test_in_band_returns_same_lambda(self):
        # residual already inside [epsilon, theta*epsilon]: keep lambda
        assert secant_lambda_update([(0.3, 1.005)], 1.0, 1.01,
                                    h_norm2=1.0) == 0.3

    def test_bootstrap_probe(self):
        lam = secant_lambda_update([(0.0, 5.0)], 1.0, 1.01, h_norm2=2.0)
        assert np.isclose(lam, 2e-4)

    def test_affine_residual_one_step_to_root(self):
        # d(lambda) = 2 lambda - 1 + theta*eps: secant is exact for affine d
        theta, eps = 1.01, 1.0
        d = lambda lam: 2.0 * lam - 1.0
        hist = [(0.0, d(0.0) + theta * eps), (0.2, d(0.2) + theta * eps)]
        lam = secant_lambda_update(hist, eps, theta, h_norm2=1.0)
        assert abs(lam - 0.5) <= 1e-12

    def test_converges_on_scalar_tikhonov(self):
        # residual(lambda) = beta * lambda / (h^2 + lambda); iterate until
        # the residual lands in [epsilon, theta * epsilon] and stays there
        h, beta, eps, theta = 1.3, 2.0, 0.4, 1.01
        resid = lambda lam: beta * lam / (h * h + lam)
        hist = [(0.0, resid(0.0))]
        lam = secant_lambda_update(hist, eps, theta, h_norm2=h * h)
        for _ in range(30):
            hist.append((lam, resid(lam)))
            lam = secant_lambda_update(hist, eps, theta, h_norm2=h * h)
        assert eps <= resid(lam) <= theta * eps
        # in-band: the update is a fixed point
        hist.append((lam, resid(lam)))
        assert secant_lambda_update(hist, eps, theta, h_norm2=h * h) == lam

    def test_clamped_to_bounds(self):
        hist = [(0.0, 10.0), (1.0, 11.0)]  # secant step goes negative
        assert secant_lambda_update(hist, 1.0, 1.01, h_norm2=1.0) == 0.0
        hist = [(0.0, 10.0), (1.0, 10.0 - 1e-12)]
        assert (secant_lambda_update(hist, 1.0, 1.01, h_norm2=1.0)
                == krylov._LAMBDA_MAX)

    def test_equal_residuals_keep_the_last_lambda(self):
        # a secant through two equal residuals has no root to step to
        assert secant_lambda_update([(0.0, 2.0), (0.5, 2.0)], 1.0, 1.01,
                                    h_norm2=4.0) == 0.5

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            secant_lambda_update([], 1.0, 1.01, h_norm2=1.0)


class TestOptimalLambda:
    def test_scalar_closed_form(self):
        # y(lambda) = h beta / (h^2 + lambda); target 1 with h=1, beta=2
        # is hit exactly at lambda = 1, to the search's resolution in
        # log(lambda)
        H = np.array([[1.0], [0.0]])
        lam = optimal_lambda_search(projected_svd(H, 2.0), np.array([1.0]))
        assert abs(np.log(lam)) <= krylov._RESOLUTION

    def test_zero_when_unregularized_is_best(self):
        H = np.array([[2.0], [0.0]])
        lam = optimal_lambda_search(projected_svd(H, 4.0), np.array([2.0]))
        assert lam == 0.0

    @pytest.fixture
    def filter_calls(self, monkeypatch):
        """The lambdas of each ``krylov._filtered`` call, in order."""
        calls = []
        filtered = krylov._filtered

        def counting(svd, lam):
            calls.append(np.ravel(lam))
            return filtered(svd, lam)

        monkeypatch.setattr(krylov, "_filtered", counting)
        return calls

    def test_bottom_of_grid_returns_zero_without_refining(self, filter_calls):
        # y(lambda) = 8 / (4 + lambda) hits the target 2 only at lambda = 0,
        # so the first grid's minimum is its bottom point: every refinement
        # maps to 0.0, and nothing beyond the first grid is filtered
        H = np.array([[2.0], [0.0]])
        lam = optimal_lambda_search(projected_svd(H, 4.0), np.array([2.0]))
        assert lam == 0.0
        assert len(filter_calls) == 1
        assert np.array_equal(filter_calls[0], krylov._LAMBDA_GRID)

    def test_one_filter_evaluation_per_grid(self, filter_calls):
        # each grid is filtered in one call, not one call per trial lambda;
        # each later grid lies inside the one before it, and the last one
        # holds the answer within _RESOLUTION of its neighbours
        H = np.array([[1.0], [0.0]])
        lam = optimal_lambda_search(projected_svd(H, 2.0), np.array([1.0]))
        assert np.array_equal(filter_calls[0], krylov._LAMBDA_GRID)
        assert 1 < len(filter_calls) <= 10
        for outer, inner in zip(filter_calls, filter_calls[1:]):
            assert inner.size == krylov._REFINE
            assert outer[0] <= inner[0] < inner[-1] <= outer[-1]
        i = int(np.flatnonzero(filter_calls[-1] == lam)[0])
        assert np.log(filter_calls[-1][i + 1] / filter_calls[-1][i - 1]) < (
            krylov._RESOLUTION)


class TestReweightedSolve:
    @pytest.mark.parametrize("inner", ["gkb", "arnoldi"])
    def test_fixed_point_matches_dense_oracle(self, inner):
        # oracle: x solves (A^T A + lam S^T W^2 S) x = A^T b assembled
        # densely with the paper's two-sided S = V^T (x) U^T
        rng = np.random.default_rng(0)
        n = 8
        A = rng.standard_normal((n * n, n * n))
        op = from_dense(A, n)
        b = rng.standard_normal(n * n)
        U, sigma, V = full_svd(rng.standard_normal((n, n)))
        rw = build_reweighter(SvdTriple(U, sigma), 1.0, 1e-2)
        lam = 0.1
        S = np.kron(V.T, U.T)
        W = np.diag(np.tile(1.0 / rw.inv_weights, n))
        x_oracle = np.linalg.solve(A.T @ A + lam * S.T @ W @ W @ S, A.T @ b)
        x, _ = reweighted_krylov_solve(op, b, rw, n * n, SolveReport(),
                                       "fixed", lam, gkb=inner == "gkb")
        assert np.linalg.norm(x - x_oracle) <= 1e-6 * np.linalg.norm(x_oracle)

    @pytest.mark.parametrize("inner", ["gkb", "arnoldi"])
    def test_identity_weights_degenerate_to_plain_tikhonov(self, inner):
        rng = np.random.default_rng(1)
        n = 6
        A = rng.standard_normal((n * n, n * n))
        op = from_dense(A, n)
        b = rng.standard_normal(n * n)
        lam = 0.05
        want = np.linalg.solve(A.T @ A + lam * np.eye(n * n), A.T @ b)
        # no reweighter, which the solvers start from, and an explicit one
        for rw in (None, Reweighter(np.eye(n), np.ones(n))):
            x, _ = reweighted_krylov_solve(op, b, rw, n * n, SolveReport(),
                                           "fixed", lam, gkb=inner == "gkb")
            assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("inner", ["gkb", "arnoldi"])
    def test_reweighted_operator_has_true_adjoint(self, inner):
        rng = np.random.default_rng(2)
        n = 5
        op = from_dense(rng.standard_normal((n * n, n * n)), n)
        rw = build_reweighter(svd(rng.standard_normal((n, n))), 1.0, 1e-2)
        b = rng.standard_normal(n * n)
        wop, b0 = nnr._reweighted_operator(op, rw, inner == "gkb", b)
        A_hat = to_dense(wop)
        adj = np.column_stack([wop.rmatvec(e) for e in np.eye(n * n)])
        assert np.linalg.norm(adj - A_hat.T) <= 1e-10 * np.linalg.norm(A_hat)
        S = np.kron(np.eye(n), rw.U.T)  # the transform S' = I (x) U^T
        left = S if inner == "arnoldi" else np.eye(n * n)
        W_inv = np.diag(np.tile(rw.inv_weights, n))
        want = left @ to_dense(op) @ S.T @ W_inv
        assert np.linalg.norm(A_hat - want) <= 1e-10 * np.linalg.norm(want)
        assert np.allclose(b0, left @ b, atol=1e-12)

    @pytest.mark.parametrize("rule", ["zero", "optimal"])
    @pytest.mark.parametrize("inner", ["gkb", "arnoldi"])
    def test_paired_sign_flip_changes_no_bit(self, inner, rule):
        # column signs of the SVD factors are free: negating columns of
        # the reweighter's U leaves the solve the same to the bit
        prob = star_problem(16, noise_level=1e-2, seed=4)
        rw = build_reweighter(svd(unvec(prob.b, 16)), 1.0, 1e-2)
        signs = np.where(np.arange(16) % 3 == 0, -1.0, 1.0)
        flipped = Reweighter(rw.U * signs, rw.inv_weights)
        xs = [reweighted_krylov_solve(prob.op, prob.b, r, 8,
                                      SolveReport(x_exact=prob.x_exact),
                                      rule, gkb=inner == "gkb")[0]
              for r in (rw, flipped)]
        assert np.array_equal(xs[0], xs[1])

    def test_projected_residual_is_true_residual(self):
        prob = star_problem(16, noise_level=1e-3, seed=2)
        rw = build_reweighter(svd(unvec(prob.x_exact, 16)), 1.0, 1e-2)
        rep = SolveReport(solver="probe")
        xs = []
        orig = SolveReport.record

        def spy(self, outer, x, resid, lam, err=None):
            xs.append((np.array(x), resid))
            orig(self, outer, x, resid, lam, err)

        SolveReport.record = spy
        try:
            reweighted_krylov_solve(prob.op, prob.b, rw, 10, gkb=False,
                                    report=rep)
        finally:
            SolveReport.record = orig
        for x, resid in xs:
            true = np.linalg.norm(prob.b - prob.op.matvec(x))
            assert abs(true - resid) <= 1e-8 * max(true, 1.0)


@pytest.mark.parametrize("rule,value", [("fixed", 1e-3), ("optimal", 0.0)])
@pytest.mark.parametrize("name", ["lsqr", "irn-lsqr-nnrp", "irn-gmres-nnrp"])
def test_cli_and_python_api_spell_the_rule_alike(name, rule, value):
    # the CLI keys and the Python arguments are the same (lambda_rule,
    # lambda_value) pair, and give the same run bit for bit
    prob = star_problem(16, noise_level=1e-2, seed=3)
    pair = {"lambda_rule": rule, "lambda_value": value}
    if name == "lsqr":
        spec = dict(pair, max_iter=8)
        direct = krylov.lsqr(prob.op, prob.b, 8, x_exact=prob.x_exact, **pair)
    else:
        spec = dict(pair, max_outer=2, max_inner=6)
        direct = irn_nnrp(prob.op, prob.b,
                          NnrConfig(epsilon=prob.noise_norm, **spec),
                          gkb=name == "irn-lsqr-nnrp", x_exact=prob.x_exact)
    via_cli = cli.run_solver(dict(spec, name=name), prob)
    assert np.array_equal(via_cli.final_x, direct.final_x)
    assert via_cli.lambdas == direct.lambdas
    assert via_cli.residuals == direct.residuals
    if rule == "fixed":
        assert set(direct.lambdas) == {value}


class TestIrnSolvers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NnrConfig(p=0.0)
        with pytest.raises(ValueError):
            NnrConfig(p=1.2)
        with pytest.raises(ValueError):
            NnrConfig(theta=1.0)
        with pytest.raises(ValueError):
            NnrConfig(max_outer=0)

    @pytest.mark.parametrize("rule", ["zero", "optimal"])
    @pytest.mark.parametrize("gkb", [True, False])
    def test_first_cycle_is_the_plain_solve(self, gkb, rule):
        # W_0 = S_0 = I: cycle 0 of irn-lsqr-nnrp (phantom n=32) or
        # irn-gmres-nnrp (star n=16) is lsqr or gmres with max_iter =
        # max_inner, to the bit in residuals, lambdas and relative errors
        prob = (phantom_problem(32, seed=0) if gkb
                else star_problem(16, noise_level=1e-3, seed=3))
        cfg = NnrConfig(max_outer=2, max_inner=30, lambda_rule=rule,
                        tau_sigma=0.0)
        rep = irn_nnrp(prob.op, prob.b, cfg, gkb=gkb, x_exact=prob.x_exact)
        base = (krylov.lsqr if gkb else krylov.gmres)(
            prob.op, prob.b, cfg.max_inner, lambda_rule=rule,
            x_exact=prob.x_exact)
        first = rep.outer_indices.count(0)
        assert first == len(base.iterations) and first < len(rep.iterations)
        for key in ("residuals", "lambdas", "rel_errors"):
            assert getattr(rep, key)[:first] == getattr(base, key), key

    @pytest.mark.parametrize("inner,base", [("arnoldi", krylov.gmres),
                                            ("gkb", krylov.lsqr)])
    def test_identity_preconditioner_degenerates(self, inner, base,
                                                 identity_reweighting):
        prob = star_problem(16, noise_level=1e-3, seed=3)
        cfg = NnrConfig(max_outer=1, max_inner=10)
        rep_irn = irn_nnrp(prob.op, prob.b, cfg, gkb=inner == "gkb",
                           x_exact=prob.x_exact)
        rep = base(prob.op, prob.b, 10, x_exact=prob.x_exact)
        assert np.linalg.norm(rep_irn.final_x - rep.final_x) <= \
            1e-8 * max(np.linalg.norm(rep.final_x), 1.0)

    def test_outer_cycles_rerun_from_zero(self):
        prob = star_problem(16, noise_level=1e-3, seed=4)
        cfg = NnrConfig(max_outer=3, max_inner=5, tau_sigma=0.0)
        rep = irn_nnrp(prob.op, prob.b, cfg, gkb=True,
                       x_exact=prob.x_exact)
        assert sorted(set(rep.outer_indices)) == [0, 1, 2]
        assert len(rep.spectra) == 3
        assert rep.iterations == list(range(1, 16))

    def test_spectrum_stop(self):
        prob = star_problem(16, noise_level=1e-3, seed=5)
        cfg = NnrConfig(max_outer=6, max_inner=8, tau_sigma=10.0)
        rep = irn_nnrp(prob.op, prob.b, cfg, gkb=True,
                       x_exact=prob.x_exact)
        assert rep.stop_reason == "singular_values"
        assert max(rep.outer_indices) == 1

    def test_discrepancy_caps_inner_cycles(self):
        prob = star_problem(16, noise_level=1e-2, seed=6)
        cfg = NnrConfig(max_outer=2, max_inner=40, tau_sigma=0.0,
                        epsilon=prob.noise_norm)
        rep = irn_nnrp(prob.op, prob.b, cfg, gkb=True,
                       x_exact=prob.x_exact)
        first_cycle = [r for r, o in zip(rep.residuals, rep.outer_indices)
                       if o == 0]
        assert first_cycle[-1] <= 1.01 * prob.noise_norm
        assert len(first_cycle) < 40


class TestFlexibleSolvers:
    @pytest.mark.parametrize("inner,base", [("farnoldi", krylov.gmres),
                                            ("fgk", krylov.lsqr)])
    def test_identity_preconditioner_degenerates(self, inner, base,
                                                 identity_reweighting):
        prob = star_problem(16, noise_level=1e-3, seed=7)
        cfg = NnrConfig(max_iter=10)
        rep_f = flexible_nnrp(prob.op, prob.b, cfg, gkb=inner == "fgk",
                              x_exact=prob.x_exact)
        rep = base(prob.op, prob.b, 10, x_exact=prob.x_exact)
        assert np.linalg.norm(rep_f.final_x - rep.final_x) <= \
            1e-8 * max(np.linalg.norm(rep.final_x), 1.0)

    @pytest.mark.parametrize("inner", ["farnoldi", "fgk"])
    def test_first_iteration_matches_standard(self, inner):
        # W_0 = S_0 = I, so step one of the flexible loop is standard
        prob = star_problem(16, noise_level=1e-3, seed=8)
        cfg = NnrConfig(max_iter=1)
        rep_f = flexible_nnrp(prob.op, prob.b, cfg, gkb=inner == "fgk",
                              x_exact=prob.x_exact)
        base = krylov.gmres if inner == "farnoldi" else krylov.lsqr
        rep = base(prob.op, prob.b, 1, x_exact=prob.x_exact)
        assert np.linalg.norm(rep_f.final_x - rep.final_x) <= 1e-10

    def test_variant_names(self):
        prob = star_problem(16, noise_level=1e-3, seed=9)
        cfg = NnrConfig(max_iter=3)
        assert flexible_nnrp(prob.op, prob.b, cfg, gkb=True,
                             from_basis=True).solver == "flsqr-nnrp-v"
        assert flexible_nnrp(prob.op, prob.b, cfg, gkb=False,
                             from_basis=False).solver == "fgmres-nnrp"

    def test_basis_variant_runs_and_improves(self):
        prob = star_problem(32, noise_level=1e-3, seed=10)
        cfg = NnrConfig(max_iter=30)
        rep = flexible_nnrp(prob.op, prob.b, cfg, gkb=True,
                            from_basis=True, x_exact=prob.x_exact)
        assert rep.min_rel_error < rep.rel_errors[0]


class TestSvt:
    def test_iterates_match_direct_transcription(self):
        prob = star_problem(16, noise_level=1e-3, seed=11)
        tau, delta, iters = 0.5, 0.9, 15
        rep = svt(prob.op, prob.b, tau, delta, iters)
        y = np.zeros(prob.op.rows)
        for _ in range(iters):
            x = vec(shrink(unvec(prob.op.rmatvec(y), 16), tau))
            y = y + delta * (prob.b - prob.op.matvec(x))
        assert np.allclose(rep.final_x, x, atol=1e-12)

    def test_shrinkage_property(self):
        prob = star_problem(16, noise_level=1e-3, seed=12)
        tau, delta = 0.5, 0.9
        y = np.zeros(prob.op.rows)
        for _ in range(10):
            back = unvec(prob.op.rmatvec(y), 16)
            x = vec(shrink(back, tau))
            s_back = svd(back).sigma
            s_x = svd(unvec(x, 16)).sigma
            assert np.allclose(s_x, np.maximum(s_back - tau, 0.0),
                               atol=1e-10)
            y = y + delta * (prob.b - prob.op.matvec(x))

    def test_huge_threshold_freezes_x(self):
        prob = star_problem(16, noise_level=1e-3, seed=13)
        tau = 1e6 * np.linalg.norm(prob.b)
        rep = svt(prob.op, prob.b, tau, 0.5, 5)
        assert np.all(rep.final_x == 0)

    def test_discrepancy_stop(self):
        # the level of iteration 8, which no earlier iteration meets
        prob = star_problem(16, noise_level=1e-3, seed=11)
        free = svt(prob.op, prob.b, 0.5, 0.9, 15)
        stop = Discrepancy(free.residuals[7])
        assert min(free.residuals[:7]) > stop.theta * stop.epsilon
        rep = svt(prob.op, prob.b, 0.5, 0.9, 15, stop=stop)
        assert rep.stop_reason == "discrepancy"
        assert rep.iterations == list(range(1, 9))
        assert rep.residuals == free.residuals[:8]

    def test_unsupported_stop_rejected_up_front(self):
        # a bare number is no stopping rule, for svt as for gmres and lsqr
        prob = star_problem(16, noise_level=1e-3, seed=14)
        with pytest.raises(TypeError, match="unsupported stopping rule"):
            svt(prob.op, prob.b, 1.0, 1.0, 3, stop=1e-3)

    def test_invalid_parameters(self):
        prob = star_problem(16, noise_level=1e-3, seed=14)
        with pytest.raises(ValueError):
            svt(prob.op, prob.b, 0.0, 0.5, 5)
        with pytest.raises(ValueError):
            svt(prob.op, prob.b, 1.0, -0.5, 5)
        # NaN is no positive number: each check is written so that it fails
        with pytest.raises(ValueError, match="tau"):
            svt(prob.op, prob.b, np.nan, 0.5, 5)
        with pytest.raises(ValueError, match="delta"):
            svt(prob.op, prob.b, 1.0, np.nan, 5)


def test_secant_rule_inside_gmres_lands_in_band():
    prob = star_problem(32, noise_level=1e-3, seed=15)
    eps = prob.noise_norm
    stop = Discrepancy(eps, 1.01)
    rep = krylov.gmres(prob.op, prob.b, 100, stop=stop,
                       lambda_rule="secant", x_exact=prob.x_exact)
    assert rep.stop_reason == "discrepancy"
    assert eps * 0.0 <= rep.residuals[-1] <= 1.01 * eps


@pytest.mark.parametrize("spec", [
    {"name": "lsqr", "max_iter": 8},
    {"name": "lr-flsqr", "max_iter": 8, "kappa_B": 4, "kappa": 4},
    {"name": "flsqr-nnrp", "max_iter": 8},
    {"name": "flsqr-nnrp-v", "max_iter": 8},
    {"name": "svt", "max_iter": 8},
    {"name": "irn-lsqr-nnrp", "max_outer": 3, "max_inner": 4},
], ids=lambda spec: spec["name"])
def test_full_svd_runs_only_for_recorded_spectra(monkeypatch, spec):
    # one full SVD per recorded spectrum: the best iterate's of a
    # single-loop solver, and each IRN outer cycle's; truncation,
    # shrinkage and the flexible reweighters take svd(X, left=True)
    problem = cli.build_problem(
        {"type": "inpainting", "n": 16, "rank_cap": 8, "seed": 0})
    calls, full = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or full(*a, **k))
    report = cli.run_solver(spec, problem)
    cycles = max(report.outer_indices) + 1
    assert len(report.spectra) == cycles
    assert len(calls) == cycles
    assert cycles == (3 if spec["name"].startswith("irn") else 1)
