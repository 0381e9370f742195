import numpy as np
import pytest

from lrkrylov import krylov, nnr
from lrkrylov.krylov import (
    arnoldi_start,
    arnoldi_step,
    gkb_start,
    gkb_step,
    gmres,
    lr_fgmres,
    lr_flsqr,
    lsqr,
    projected_svd,
    projected_tikhonov,
    rs_lr_gmres,
)
from lrkrylov.lowrank import truncate
from lrkrylov.problems import inpainting_problem, phantom_problem, star_problem
from lrkrylov.report import Discrepancy, SolveReport

from dense import from_dense, identity_operator, to_dense


def random_square_op(n_side, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    N = n_side * n_side
    A = rng.standard_normal((N, N)) / np.sqrt(N) + shift * np.eye(N)
    return from_dense(A, n_side), A


class TestArnoldi:
    def test_identity_breaks_down_immediately(self):
        op = identity_operator(4)
        state = arnoldi_start(op, np.arange(1.0, 17.0), 1)
        arnoldi_step(state, op)
        assert state.breakdown
        assert np.allclose(state.H_mat(), [[1.0], [0.0]], atol=1e-14)

    def test_factorization_identity(self):
        op, A = random_square_op(4, 0)
        b = np.random.default_rng(1).standard_normal(16)
        state = arnoldi_start(op, b, 5)
        for _ in range(5):
            arnoldi_step(state, op)
        V, H = state.V_mat(), state.H_mat()
        assert np.linalg.norm(A @ state.Z_mat() - V @ H) <= 1e-10
        assert np.linalg.norm(V.T @ V - np.eye(6)) <= 1e-12

    def test_flexible_matches_direct_transcription(self):
        # oracle: a literal restatement of the flexible Arnoldi recurrence
        op, A = random_square_op(4, 2)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(16)
        precond = lambda v: truncate(v, 2)

        beta = np.linalg.norm(b)
        V = [b / beta]
        Z, H = [], np.zeros((6, 5))
        for i in range(5):
            z = precond(V[i])
            w = A @ z
            for j in range(i + 1):
                H[j, i] = V[j] @ w
                w = w - H[j, i] * V[j]
            for j in range(i + 1):  # re-orthogonalization pass
                c = V[j] @ w
                H[j, i] += c
                w = w - c * V[j]
            H[i + 1, i] = np.linalg.norm(w)
            V.append(w / H[i + 1, i])
            Z.append(z)

        state = arnoldi_start(op, b, 5)
        for _ in range(5):
            arnoldi_step(state, op, precondition=precond)
        assert np.linalg.norm(state.H_mat() - H) <= 1e-12
        assert np.linalg.norm(state.V_mat() - np.column_stack(V)) <= 1e-12
        assert np.linalg.norm(state.Z_mat() - np.column_stack(Z)) <= 1e-12

    def test_rectangular_rejected(self):
        rng = np.random.default_rng(4)
        op = from_dense(rng.standard_normal((10, 16)), 4)
        with pytest.raises(ValueError):
            arnoldi_start(op, np.ones(10), 1)

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            arnoldi_start(identity_operator(4), np.zeros(16), 1)


class TestGolubKahan:
    def test_first_coefficient(self):
        op, A = random_square_op(4, 5)
        b = np.random.default_rng(6).standard_normal(16)
        state = gkb_start(op, b, 1)
        gkb_step(state, op)
        assert np.isclose(state.T_mat()[0, 0],
                          np.linalg.norm(A.T @ (b / np.linalg.norm(b))))

    def test_factorization_identities(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((20, 16))
        op = from_dense(A, 4)
        state = gkb_start(op, rng.standard_normal(20), 6)
        for _ in range(6):
            gkb_step(state, op)
        U, V, M, T = (state.U_mat(), state.V_mat(), state.M_mat(),
                      state.T_mat())
        assert np.linalg.norm(A @ state.Z_mat() - U @ M) <= 1e-10
        assert np.linalg.norm(A.T @ U[:, :6] - V @ T) <= 1e-10
        assert np.linalg.norm(U.T @ U - np.eye(7)) <= 1e-12
        assert np.linalg.norm(V.T @ V - np.eye(6)) <= 1e-12

    def test_unpreconditioned_projection_is_bidiagonal(self):
        rng = np.random.default_rng(8)
        op = from_dense(rng.standard_normal((20, 16)), 4)
        state = gkb_start(op, rng.standard_normal(20), 6)
        for _ in range(6):
            gkb_step(state, op)
        M = state.M_mat()
        band = np.zeros_like(M)
        for i in range(6):
            band[i, i] = M[i, i]
            band[i + 1, i] = M[i + 1, i]
        assert np.abs(M - band).max() <= 1e-10


    def test_standard_run_on_star_stays_bidiagonal(self):
        # each half first projects w off the last two basis vectors, which
        # take its recurrence term, and then orthogonalizes in one pass;
        # T and M must stay bidiagonal as the alphas fall to 4e-8 (plain
        # one-pass CGS reaches 3e-10 off the band), and the local
        # coefficients must come back into the factorization
        prob = star_problem(16, seed=0)
        A = to_dense(prob.op)
        state = gkb_start(prob.op, prob.b, 200)
        for _ in range(200):
            gkb_step(state, prob.op)
        U, V, M, T = (state.U_mat(), state.V_mat(), state.M_mat(),
                      state.T_mat())
        assert np.abs(np.triu(T, 2)).max() <= 1e-12 * np.abs(T).max()
        assert np.abs(np.triu(M, 1)).max() <= 1e-12 * np.abs(M).max()
        assert np.linalg.norm(A @ V - U @ M) <= 1e-10
        assert np.linalg.norm(A.T @ U[:, :200] - V @ T) <= 1e-10


class TestOrthogonalize:
    def test_second_pass_when_the_first_cancels(self):
        # w lies within 1e-8 of span Q: one pass leaves rounding of size
        # eps ||Q c|| against ||w|| ~ 1e-8, which only a second pass removes
        rng = np.random.default_rng(9)
        Q = np.linalg.qr(rng.standard_normal((256, 20)))[0]
        c, r = rng.standard_normal(20), rng.standard_normal(256)
        w, h = krylov._orthogonalize(Q @ c + 1e-8 * r, Q)
        assert np.linalg.norm(Q.T @ w) <= 1e-14 * np.linalg.norm(w)
        assert np.abs(h - (c + 1e-8 * Q.T @ r)).max() <= 1e-14

    def test_one_pass_when_the_first_keeps_the_norm(self):
        rng = np.random.default_rng(10)
        Q = np.linalg.qr(rng.standard_normal((256, 20)))[0]
        w0 = rng.standard_normal(256)
        w, h = krylov._orthogonalize(w0, Q)
        assert np.array_equal(h, Q.T @ w0)
        assert np.array_equal(w, w0 - Q @ h)


class TestLocalStep:
    # _extend first projects w off the last two basis vectors; what is
    # left keeps more than _REORTH of its norm through the full pass, so
    # no half-step of these runs takes a second pass (the smallest kept
    # fractions are about 0.98 and 0.95; without the local step all 30
    # gmres steps and 30 of the 60 flexible half-steps take one)
    @staticmethod
    def one_pass_flags(monkeypatch):
        flags = []
        orthogonalize = krylov._orthogonalize

        def spy(w, Q):
            kept = np.linalg.norm(w - Q @ (Q.T @ w))
            flags.append(kept > krylov._REORTH * np.linalg.norm(w))
            return orthogonalize(w, Q)

        monkeypatch.setattr(krylov, "_orthogonalize", spy)
        return flags

    def test_gmres_on_star(self, monkeypatch):
        flags = self.one_pass_flags(monkeypatch)
        prob = star_problem(32, noise_level=1e-2, seed=1)
        gmres(prob.op, prob.b, 30, x_exact=prob.x_exact)
        assert len(flags) == 30 and all(flags)

    def test_flexible_gkb_on_inpainting(self, monkeypatch):
        flags = self.one_pass_flags(monkeypatch)
        prob = inpainting_problem(n=32, rank_cap=16, seed=1)
        nnr.flexible_nnrp(prob.op, prob.b, nnr.NnrConfig(max_iter=30),
                          gkb=True, x_exact=prob.x_exact)
        assert len(flags) == 60 and all(flags)


PROCESSES = {"arnoldi": (arnoldi_start, arnoldi_step),
             "gkb": (gkb_start, gkb_step)}


class TestStorage:
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_only_a_flexible_run_keeps_its_own_z(self, process):
        start, step = PROCESSES[process]
        op, _ = random_square_op(4, 20)
        b = np.random.default_rng(21).standard_normal(16)
        for precondition, shared in ((None, True),
                                     (lambda v: truncate(v, 2), False)):
            state = start(op, b, 3)
            for _ in range(3):
                step(state, op, precondition)
            assert np.shares_memory(state.Z_mat(), state.V_mat()) == shared

    @staticmethod
    def check_sized_once(start, step, op, b, shapes):
        # the start allocates every array but Z at its final shape and the
        # first preconditioned step allocates Z; each stays the same object
        # through the budget of 20 steps, and a step past it raises
        precondition = lambda v: truncate(v, 3)
        state = start(op, b, 20)
        assert state.Z is None
        assert {n: getattr(state, n).shape for n in shapes} == shapes
        step(state, op, precondition)
        assert state.Z.shape == (op.cols, 20)
        arrays = {n: getattr(state, n) for n in (*shapes, "Z")}
        for _ in range(19):
            step(state, op, precondition)
        assert state.k == 20 and not state.breakdown
        assert all(getattr(state, n) is a for n, a in arrays.items())
        with pytest.raises(IndexError):
            step(state, op, precondition)

    def test_arnoldi_bases_are_sized_once(self):
        op, _ = random_square_op(6, 22)
        b = np.random.default_rng(23).standard_normal(36)
        self.check_sized_once(arnoldi_start, arnoldi_step, op, b,
                              {"V": (36, 21), "H": (21, 20)})

    def test_gkb_bases_are_sized_once(self):
        rng = np.random.default_rng(24)
        op = from_dense(rng.standard_normal((40, 36)), 6)
        self.check_sized_once(gkb_start, gkb_step, op, rng.standard_normal(40),
                              {"U": (40, 21), "V": (36, 20), "M": (21, 20),
                               "T": (20, 20)})


class TestProjectedTikhonov:
    def test_scalar_unregularized(self):
        H = np.array([[1.0], [0.0]])
        y, resid = projected_tikhonov(H, 2.0, 0.0, projected_svd(H, 2.0))
        assert np.isclose(y[0], 2.0) and resid <= 1e-14

    def test_scalar_regularized(self):
        H = np.array([[1.0], [0.0]])
        y, resid = projected_tikhonov(H, 2.0, 1.0, projected_svd(H, 2.0))
        assert np.isclose(y[0], 1.0) and np.isclose(resid, 1.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((7, 6))
        beta, lam = 1.7, 0.3
        rhs = np.zeros(7)
        rhs[0] = beta
        want = np.linalg.solve(H.T @ H + lam * np.eye(6), H.T @ rhs)
        y, resid = projected_tikhonov(H, beta, lam, projected_svd(H, beta))
        assert np.linalg.norm(y - want) <= 1e-10
        assert np.isclose(resid, np.linalg.norm(H @ y - rhs))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            projected_tikhonov(np.eye(2), 1.0, -1e-3,
                               projected_svd(np.eye(2), 1.0))

    def test_nan_lambda_rejected(self):
        # NaN would take the lambda = 0 filter and be recorded as the lambda
        with pytest.raises(ValueError, match="lambda_hat"):
            projected_tikhonov(np.eye(2), 1.0, np.nan,
                               projected_svd(np.eye(2), 1.0))
        prob = star_problem(16, seed=0)
        with pytest.raises(ValueError, match="lambda_hat"):
            lsqr(prob.op, prob.b, 3, lambda_rule="fixed", lambda_value=np.nan)


class TestGmresLsqr:
    def test_gmres_identity_solves_in_one_step(self):
        op = identity_operator(4)
        b = np.random.default_rng(10).standard_normal(16)
        rep = gmres(op, b, 5)
        assert np.linalg.norm(rep.final_x - b) <= 1e-12

    def test_gmres_finite_termination(self):
        op, A = random_square_op(4, 11, shift=2.0)
        x_true = np.random.default_rng(12).standard_normal(16)
        rep = gmres(op, A @ x_true, 16, x_exact=x_true)
        assert rep.residuals[-1] <= 1e-9
        assert np.linalg.norm(rep.final_x - x_true) <= 1e-7

    def test_gmres_residuals_monotone(self):
        op, _ = random_square_op(4, 13, shift=1.0)
        rep = gmres(op, np.random.default_rng(14).standard_normal(16), 12)
        r = np.asarray(rep.residuals)
        assert np.all(r[1:] <= r[:-1] + 1e-12)

    def test_lsqr_rectangular_least_squares(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((24, 16))
        op = from_dense(A, 4)
        b = rng.standard_normal(24)
        rep = lsqr(op, b, 16)
        want = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(rep.final_x - want) <= 1e-8

    def test_discrepancy_stop(self):
        prob = star_problem(16, noise_level=1e-2, seed=3)
        stop = Discrepancy(prob.noise_norm, 1.01)
        rep = gmres(prob.op, prob.b, 50, stop=stop)
        assert rep.stop_reason == "discrepancy"
        assert rep.residuals[-1] <= 1.01 * prob.noise_norm

    @pytest.mark.parametrize("fn", [gmres, lsqr])
    def test_secant_rule_needs_a_stop(self, fn):
        # without a discrepancy stop the secant rule would stay at lambda 0
        with pytest.raises(ValueError, match="secant"):
            fn(identity_operator(4), np.ones(16), 3, lambda_rule="secant")

    @pytest.mark.parametrize("fn", [gmres, lsqr])
    def test_optimal_rule_needs_the_exact_solution(self, fn):
        with pytest.raises(ValueError, match="optimal"):
            fn(identity_operator(4), np.ones(16), 3, lambda_rule="optimal")


class TestTruncatedSolvers:
    def test_rs_lr_gmres_full_rank_matches_gmres(self):
        # after m inner steps the basis spans the (m+1)-dim Krylov space
        prob = star_problem(16, noise_level=1e-3, seed=4)
        rep_lr = rs_lr_gmres(prob.op, prob.b, 9, 16, 1,
                             x_exact=prob.x_exact)
        rep = gmres(prob.op, prob.b, 10, x_exact=prob.x_exact)
        assert np.linalg.norm(rep_lr.final_x - rep.final_x) <= \
            1e-8 * max(np.linalg.norm(rep.final_x), 1.0)

    def test_rs_lr_gmres_zero_residual_stop(self):
        op = identity_operator(4)
        b = np.random.default_rng(16).standard_normal(16)
        rep = rs_lr_gmres(op, b, 3, 4, 3)
        assert rep.stop_reason == "zero_residual"
        assert np.linalg.norm(rep.final_x - b) <= 1e-10

    def test_rs_lr_gmres_restarts_recorded(self):
        prob = star_problem(16, noise_level=1e-3, seed=5)
        rep = rs_lr_gmres(prob.op, prob.b, 4, 2, 3, x_exact=prob.x_exact)
        assert max(rep.outer_indices) == 2
        assert rep.iterations == list(range(1, len(rep.iterations) + 1))

    def test_rs_lr_gmres_records_a_rejected_step_once(self):
        # A = I adds no direction to the basis, so each cycle rejects its
        # first step; it is recorded once and the cycle restarts
        rep = rs_lr_gmres(identity_operator(4), np.arange(16.0), 5, 1, 2)
        assert rep.iterations == [1, 2]
        assert rep.outer_indices == [0, 1]

    @pytest.mark.parametrize("fn,base", [(lr_fgmres, gmres),
                                         (lr_flsqr, lsqr)])
    def test_full_rank_degenerates_to_standard(self, fn, base):
        prob = star_problem(16, noise_level=1e-3, seed=6)
        rep_lr = fn(prob.op, prob.b, 16, 16, 8, x_exact=prob.x_exact)
        rep = base(prob.op, prob.b, 8, x_exact=prob.x_exact)
        assert np.linalg.norm(rep_lr.final_x - rep.final_x) <= \
            1e-8 * max(np.linalg.norm(rep.final_x), 1.0)

    def test_iterates_obey_rank_bound(self):
        prob = star_problem(16, noise_level=1e-3, seed=7)
        rep = lr_fgmres(prob.op, prob.b, 3, 3, 10, x_exact=prob.x_exact)
        from lrkrylov.linops import unvec
        from lrkrylov.lowrank import svd
        s = svd(unvec(rep.final_x, 16)).sigma
        assert s[3] <= 1e-10 * max(s[0], 1e-300)


# a rank-2 image; the basis-v preconditioner keeps the singular vectors of
# b, so even its flexible basis spans two directions, and every other
# basis spans one
_IDENTITY_B = np.arange(1.0, 17.0)


# standard runs with x_exact track their errors from coefficients; the
# best iterate comes before the last on star/gmres and phantom/lsqr
_STANDARD_RUNS = {
    "star/gmres": (lambda: star_problem(32, 1e-2, seed=1), False),
    "star/lsqr": (lambda: star_problem(32, 1e-2, seed=1), True),
    "phantom/lsqr": (lambda: phantom_problem(32, n_angles=24, seed=1), True),
}


@pytest.mark.parametrize("case", sorted(_STANDARD_RUNS))
class TestCoefficientErrors:
    steps = 25

    def test_error_is_that_of_the_built_iterate(self, case):
        make, gkb = _STANDARD_RUNS[case]
        prob = make()
        solve = lsqr if gkb else gmres
        report = solve(prob.op, prob.b, self.steps, x_exact=prob.x_exact)
        assert len(report.rel_errors) == self.steps
        scale = np.linalg.norm(prob.x_exact)
        for k, err in enumerate(report.rel_errors, start=1):
            x_k = solve(prob.op, prob.b, k, x_exact=prob.x_exact).final_x
            want = np.linalg.norm(prob.x_exact - x_k) / scale
            assert abs(err - want) <= 1e-12 * want

    def test_iterates_equal_the_assembled_path(self, case):
        make, gkb = _STANDARD_RUNS[case]
        prob = make()

        def run(solution):
            report = SolveReport()
            x, _ = krylov.hybrid(prob.op, prob.b, self.steps, report, gkb,
                                 solution=solution, x_exact=prob.x_exact)
            assert x is report.final_x
            return report

        coeffs, built = run(None), run(lambda x: x)
        assert np.array_equal(coeffs.final_x, built.final_x)
        assert np.array_equal(coeffs.best_x, built.best_x)
        assert coeffs.best[0] == built.best[0]
        assert np.allclose(coeffs.rel_errors, built.rel_errors, rtol=1e-12,
                           atol=0)


def _identity_runs():
    op, b = identity_operator(4), _IDENTITY_B
    cfg = nnr.NnrConfig(max_iter=5, max_outer=1, max_inner=5)
    runs = {
        "gmres": lambda: gmres(op, b, 5),
        "lsqr": lambda: lsqr(op, b, 5),
        "lr-fgmres": lambda: lr_fgmres(op, b, 4, 4, 5),
        "lr-flsqr": lambda: lr_flsqr(op, b, 4, 4, 5),
        "irn-gmres-nnrp": lambda: nnr.irn_nnrp(op, b, cfg, gkb=False),
        "irn-lsqr-nnrp": lambda: nnr.irn_nnrp(op, b, cfg, gkb=True),
    }
    for gkb, family in ((False, "fgmres"), (True, "flsqr")):
        for from_basis, suffix in ((False, ""), (True, "-v")):
            runs[f"{family}-nnrp{suffix}"] = (
                lambda gkb=gkb, from_basis=from_basis: nnr.flexible_nnrp(
                    op, b, cfg, gkb=gkb, from_basis=from_basis))
    return runs


@pytest.mark.parametrize("name", sorted(_identity_runs()))
def test_hybrid_solvers_break_down_on_identity(name):
    rep = _identity_runs()[name]()
    assert rep.stop_reason == "breakdown"
    assert len(rep.iterations) <= 2
    b = _IDENTITY_B
    assert np.linalg.norm(rep.final_x - b) <= 1e-12 * np.linalg.norm(b)


def test_best_spectrum_of_single_loop_report():
    rep = SolveReport()
    rep.add_best_spectrum(4)
    assert rep.spectra == []
    X = np.diag([4.0, 2.0, 1.0, 0.0])
    rep.record(0, X.ravel(), 1.0, 0.0)
    rep.add_best_spectrum(4)
    (outer, sigma), = rep.spectra
    assert outer == 0
    assert np.allclose(sigma, [1.0, 0.5, 0.25, 0.0])
