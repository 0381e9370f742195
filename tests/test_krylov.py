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
    projected_svd,
    projected_tikhonov,
    rs_lr_gmres,
)
from lrkrylov.lowrank import truncate
from lrkrylov.problems import inpainting_problem, phantom_problem, star_problem
from lrkrylov.report import Discrepancy, SolveReport

from dense import from_dense, identity_operator, rs_lr_gmres_lstsq, to_dense


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
        w, h, _ = krylov._orthogonalize(Q @ c + 1e-8 * r, Q)
        assert np.linalg.norm(Q.T @ w) <= 1e-14 * np.linalg.norm(w)
        assert np.abs(h - (c + 1e-8 * Q.T @ r)).max() <= 1e-14

    def test_one_pass_when_the_first_keeps_the_norm(self):
        rng = np.random.default_rng(10)
        Q = np.linalg.qr(rng.standard_normal((256, 20)))[0]
        w0 = rng.standard_normal(256)
        w, h, norm = krylov._orthogonalize(w0, Q)
        assert np.array_equal(h, Q.T @ w0)
        assert np.array_equal(w, w0 - Q @ h)
        assert norm == np.linalg.norm(w)

    @staticmethod
    def split_basis():
        # Q spans the first 20 coordinates, w0 the other 236, so Q^T w0 is
        # exactly zero
        rng = np.random.default_rng(11)
        Q = np.zeros((256, 20))
        Q[:20] = np.linalg.qr(rng.standard_normal((20, 20)))[0]
        w0 = np.zeros(256)
        w0[20:] = rng.standard_normal(236)
        return Q, w0, rng.standard_normal(20)

    def test_no_update_when_already_orthogonal(self):
        # exactly orthogonal, and off by a component of rounding size
        # (||Q^T w|| ~ 4e-17 ||w||) that the update would subtract
        Q, w0, c = self.split_basis()
        for w1 in (w0, w0 + 1e-16 * (Q @ c)):
            w, h, norm = krylov._orthogonalize(w1, Q)
            assert np.array_equal(w, w1)
            assert h.shape == (20,) and not h.any()
            assert norm == np.linalg.norm(w1)

    def test_update_for_a_small_component_along_q(self):
        # ||Q^T w|| ~ 1e-10 ||w||, far above the skip threshold of 4 eps
        Q, w0, c = self.split_basis()
        w1 = w0 + 1e-10 * (Q @ c)
        w, h, norm = krylov._orthogonalize(w1, Q)
        assert np.array_equal(h, Q.T @ w1)
        assert np.abs(h - 1e-10 * c).max() <= 1e-24
        assert np.array_equal(w, w1 - Q @ h)
        assert np.linalg.norm(Q.T @ w) <= 1e-14 * np.linalg.norm(w)
        assert norm == np.linalg.norm(w)

    def test_long_standard_gkb_run_stays_orthogonal(self):
        # a standard run skips the update sweep wherever Q^T w is rounding:
        # each skip writes exact zeros into M and T beyond the two-column
        # local window (rows <= k-2 of M, <= k-3 of T in column k), where
        # the full pass always leaves rounding; the skipped rounding builds
        # up until a pass corrects it, so orthogonality stays near eps.
        # Measured at seed 0: 168 of 300 such columns of M and 153 of T
        # (2 and 3 without the skip), and losses 2.5e-14 and 2.5e-14
        # (1.05e-14 and 1.04e-14)
        prob = star_problem(64, seed=0)
        state = gkb_start(prob.op, prob.b, 300)
        for _ in range(300):
            gkb_step(state, prob.op)
        assert state.k == 300 and not state.breakdown
        for Q in (state.U_mat(), state.V_mat()):
            loss = np.linalg.norm(np.eye(Q.shape[1]) - Q.T @ Q)
            assert loss <= 5e-14
        for P, window in ((state.M_mat(), 2), (state.T_mat(), 3)):
            exact = np.count_nonzero(~np.triu(P, window).any(axis=0))
            assert exact >= 100


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


class TestSweepSchedule:
    # a standard Golub-Kahan basis takes its full pass only when due: the
    # period doubles after a clean pass (update skipped) and halves after
    # one that subtracted, from 1 to _PERIOD_MAX half-steps, and a probe
    # forces one between; Arnoldi and flexible Golub-Kahan pass on every
    # half-step
    @staticmethod
    def passes(monkeypatch):
        widths = []
        orthogonalize = krylov._orthogonalize

        def spy(w, Q):
            widths.append(Q.shape[1])
            return orthogonalize(w, Q)

        monkeypatch.setattr(krylov, "_orthogonalize", spy)
        return widths

    @staticmethod
    def split_basis(cols):
        # Q spans the first cols coordinates, w the rest: Q^T w is exactly 0
        Q = np.eye(64)[:, :cols]
        w = np.zeros(64)
        w[cols:] = np.random.default_rng(cols).standard_normal(64 - cols)
        return w, Q

    def test_period_doubles_when_clean_and_halves_when_not(self):
        sweeps, due = krylov._Sweeps(), []
        for half in range(39):
            if sweeps.due(*self.split_basis(half)):
                due.append(half)
                sweeps.passed(clean=half < 30)
        assert krylov._PERIOD_MAX == 8
        assert due == [0, 2, 6, 14, 22, 30, 34, 36, 37, 38]

    def test_probe_forces_a_pass_between(self):
        # ||Q^T w|| ~ 1e-12 ||w||, far above _PROBE_LOSS, on a half-step
        # that the period would skip
        sweeps = krylov._Sweeps()
        w, Q = self.split_basis(10)
        assert sweeps.due(w, Q)
        sweeps.passed(clean=True)
        w, Q = self.split_basis(11)
        assert sweeps.due(w + 1e-12 * np.linalg.norm(w) * Q[:, 3], Q)
        sweeps.passed(clean=True)
        w, Q = self.split_basis(12)
        assert not sweeps.due(w, Q)

    def test_low_rank_operators_stay_orthogonal(self):
        # the operators of test_krylov_properties.py, run past their rank:
        # near the rank the loss grows by 5-30x a half-step, so a period
        # alone left 140 of 2,000 random draws above 1e-12 (29.5 at worst,
        # when a missed breakdown added a vector in span V)
        rng = np.random.default_rng(0)
        for _ in range(100):
            side = int(rng.integers(3, 7))
            n = side * side
            rows = int(rng.integers(n - 8, n + 9))
            rank = int(rng.integers(1, min(rows, n) + 1))
            A = (rng.standard_normal((rows, rank))
                 @ rng.standard_normal((rank, n)) / np.sqrt(rank * n))
            op = from_dense(A, side)
            state = gkb_start(op, rng.standard_normal(rows), n + 3)
            for _ in range(n + 3):
                gkb_step(state, op)
            for Q in (state.U_mat(), state.V_mat()):
                assert np.linalg.norm(np.eye(Q.shape[1]) - Q.T @ Q) <= 1e-12

    def test_standard_gkb_on_star_skips_most_passes(self, monkeypatch):
        # measured at seed 0: 102 of 200 half-steps (200 at the parent)
        widths = self.passes(monkeypatch)
        prob = star_problem(64, seed=0)
        state = gkb_start(prob.op, prob.b, 100)
        for _ in range(100):
            gkb_step(state, prob.op)
        assert state.k == 100 and not state.breakdown
        assert len(widths) <= 0.6 * 200

    @pytest.mark.parametrize("gkb", [False, True])
    def test_arnoldi_and_flexible_gkb_pass_on_every_half_step(
            self, monkeypatch, gkb):
        widths = self.passes(monkeypatch)
        if gkb:  # an lr-flsqr precondition; V's half of step k sweeps k
            prob = inpainting_problem(n=32, rank_cap=16, seed=1)
            lr_flsqr(prob.op, prob.b, 8, 8, 30, x_exact=prob.x_exact)
            expected = [w for k in range(30) for w in (k, k + 1)]
        else:
            prob = star_problem(32, seed=0)
            gmres(prob.op, prob.b, 30, x_exact=prob.x_exact)
            expected = list(range(1, 31))
        assert widths == expected

    def test_long_standard_gkb_run_on_phantom_stays_orthogonal(self):
        # measured at seed 0: losses 2.4e-14 (U) and 2.0e-14 (V), from 225
        # passes of 300 half-steps; pure local steps lose orthogonality
        # completely on tomography
        prob = phantom_problem(32, seed=0)
        state = gkb_start(prob.op, prob.b, 150)
        for _ in range(150):
            gkb_step(state, prob.op)
        assert state.k == 150 and not state.breakdown
        for Q in (state.U_mat(), state.V_mat()):
            assert np.linalg.norm(np.eye(Q.shape[1]) - Q.T @ Q) <= 5e-14


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

    def test_lsqr_breaks_down_in_a_first_half_step(self):
        # v_1 = e_1, and A^T u_2 lies along it: step 2 finds no alpha_2 and
        # records nothing, so the run ends on x_1 = e_1
        rep = lsqr(from_dense(np.diag([1.0, 0.0, 0.0, 0.0])), np.ones(4), 5)
        assert rep.stop_reason == "breakdown"
        assert rep.iterations == [1]
        np.testing.assert_allclose(rep.final_x, np.eye(4)[0], rtol=0,
                                   atol=1e-15)

    @pytest.mark.parametrize("fn", [gmres, lsqr])
    def test_secant_rule_needs_a_stop(self, fn):
        # without a discrepancy stop the secant rule would stay at lambda 0
        with pytest.raises(ValueError, match="secant"):
            fn(identity_operator(4), np.ones(16), 3, lambda_rule="secant")

    @pytest.mark.parametrize("rule", ["Optimal", "tikhonov", ""])
    @pytest.mark.parametrize("fn", [gmres, lsqr])
    def test_unknown_lambda_rule_rejected(self, fn, rule):
        with pytest.raises(ValueError, match=f"unknown lambda rule {rule!r}"):
            fn(identity_operator(4), np.ones(16), 3, lambda_rule=rule)

    @pytest.mark.parametrize("fn", [gmres, lsqr])
    def test_optimal_rule_needs_the_exact_solution(self, fn):
        with pytest.raises(ValueError, match="optimal"):
            fn(identity_operator(4), np.ones(16), 3, lambda_rule="optimal")

    @pytest.mark.parametrize("run", [
        lambda p: lr_flsqr(p.op, p.b, 4, 4, 3, lambda_rule="optimal",
                           x_exact=p.x_exact),
        lambda p: nnr.flexible_nnrp(p.op, p.b,
                                    nnr.NnrConfig(lambda_rule="optimal"),
                                    x_exact=p.x_exact),
    ], ids=["lr_flsqr", "flexible_nnrp"])
    def test_optimal_rule_names_the_missing_target(self, run):
        # x_exact is given: the cause is that a flexible basis has no target
        with pytest.raises(ValueError, match="the flexible and low-rank "
                                             "solvers have none"):
            run(star_problem(16, seed=1))

    @pytest.mark.parametrize("gkb", [True, False])
    def test_optimal_rule_targets_the_basis_coefficients(self, monkeypatch,
                                                         gkb):
        # the optimal rule keeps V_k^T x_target a column at a time
        targets, states = [], []
        search, start = krylov.optimal_lambda_search, (
            krylov.gkb_start if gkb else krylov.arnoldi_start)

        def spy_search(svd, target):
            targets.append(target.copy())
            return search(svd, target)

        def spy_start(*args):
            states.append(start(*args))
            return states[-1]

        monkeypatch.setattr(krylov, "optimal_lambda_search", spy_search)
        monkeypatch.setattr(krylov, "gkb_start" if gkb else "arnoldi_start",
                            spy_start)
        prob = star_problem(32, seed=0)
        (lsqr if gkb else gmres)(prob.op, prob.b, 20, lambda_rule="optimal",
                                 x_exact=prob.x_exact)
        V = states[0].V
        assert [t.size for t in targets] == list(range(1, 21))
        for t in targets:
            expected = V[:, : t.size].T @ prob.x_exact
            assert np.abs(t - expected).max() <= 1e-14 * np.abs(expected).max()


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

    def test_rs_lr_gmres_rejects_a_rectangular_operator(self):
        with pytest.raises(ValueError, match="requires a square operator"):
            rs_lr_gmres(from_dense(np.ones((3, 4))), np.ones(3), 3, 2, 1)

    def test_rs_lr_gmres_discrepancy_stop_ends_the_run(self):
        # the level of the first step of cycle 1, which no earlier step
        # meets: the stop ends that cycle, and cycle 2 never runs
        prob = star_problem(16, noise_level=1e-3, seed=5)
        free = rs_lr_gmres(prob.op, prob.b, 4, 2, 3)
        j = free.outer_indices.index(1) + 1
        stop = Discrepancy(free.residuals[j - 1])
        assert min(free.residuals[: j - 1]) > stop.theta * stop.epsilon
        assert free.outer_indices[j:j + 1] == [1]  # cycle 1 would go on
        rep = rs_lr_gmres(prob.op, prob.b, 4, 2, 3, stop=stop)
        assert rep.stop_reason == "discrepancy"
        assert rep.iterations == list(range(1, j + 1))
        assert rep.outer_indices == free.outer_indices[:j]
        assert rep.residuals == free.residuals[:j]

    def test_rs_lr_gmres_restarts_recorded(self):
        prob = star_problem(16, noise_level=1e-3, seed=5)
        rep = rs_lr_gmres(prob.op, prob.b, 4, 2, 3, x_exact=prob.x_exact)
        assert max(rep.outer_indices) == 2
        assert rep.iterations == list(range(1, len(rep.iterations) + 1))
        assert rep.stop_reason == "max_outer"

    def test_rs_lr_gmres_truncating_matches_lstsq_reference(self):
        # truncation_rank < n over one short cycle: truncation amplifies
        # rounding, and a 40-step cycle at star n=64 already differs by 5e-10
        prob = star_problem(16, noise_level=1e-3, seed=3)
        residuals, iterates = rs_lr_gmres_lstsq(prob.op, prob.b, 12, 6)
        rep = rs_lr_gmres(prob.op, prob.b, 12, 6, 1)
        assert np.allclose(rep.residuals, residuals, rtol=1e-10, atol=0)
        for j, x in enumerate(iterates, 1):  # a j-step cycle ends at x_j
            got = rs_lr_gmres(prob.op, prob.b, j, 6, 1).final_x
            assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x)

    def test_rs_lr_gmres_start_in_null_space(self):
        # A r_0 = 0 breaks down A V = W S at its first column, so each
        # cycle records the unchanged iterate once and restarts
        op = from_dense(np.diag(np.arange(16.0)), 4)
        rep = rs_lr_gmres(op, np.eye(16)[0], 5, 4, 2)
        assert rep.residuals == [1.0, 1.0]
        assert rep.outer_indices == [0, 1]

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
            report = SolveReport(x_exact=prob.x_exact)
            x, _ = krylov.hybrid(prob.op, prob.b, self.steps, report, gkb,
                                 solution=solution)
            assert x is report.final_x
            return report

        coeffs, built = run(None), run(lambda x: x)
        assert np.array_equal(coeffs.final_x, built.final_x)
        assert np.array_equal(coeffs.best_x, built.best_x)
        assert coeffs.best[0] == built.best[0]
        assert np.allclose(coeffs.rel_errors, built.rel_errors, rtol=1e-12,
                           atol=0)


class TestZeroRuleQR:
    """The zero rule solves its projected problem by the updated QR and
    takes no projected SVD unless a step is rank deficient."""

    @staticmethod
    def count_svds(monkeypatch):
        shapes = []
        svd = krylov.projected_svd

        def spy(H, beta):
            shapes.append(H.shape)
            return svd(H, beta)

        monkeypatch.setattr(krylov, "projected_svd", spy)
        return shapes

    @pytest.mark.parametrize("rule", ["zero", "fixed", "secant", "optimal"])
    @pytest.mark.parametrize("fn", [gmres, lsqr], ids=["gmres", "lsqr"])
    def test_only_the_other_rules_take_svds(self, monkeypatch, fn, rule):
        prob = star_problem(16, seed=0)
        shapes = self.count_svds(monkeypatch)
        stop = Discrepancy(prob.noise_norm) if rule == "secant" else None
        rep = fn(prob.op, prob.b, 8, stop=stop, lambda_rule=rule,
                 lambda_value=0.05, x_exact=prob.x_exact)
        assert len(rep.iterations) > 1
        assert len(shapes) == (0 if rule == "zero" else len(rep.iterations))

    @pytest.mark.parametrize("spec", [
        {"name": "gmres", "max_iter": 12},
        {"name": "lsqr", "max_iter": 12},
        {"name": "flsqr-nnrp", "max_iter": 12},
    ], ids=lambda spec: spec["name"])
    def test_matches_the_svd_path_at_every_iteration(self, monkeypatch,
                                                     spec):
        prob = cli.build_problem({"type": "star", "n": 16, "seed": 0})
        qr = cli.run_solver(spec, prob)
        # a QR that finds every step rank deficient: the SVD path throughout
        monkeypatch.setattr(krylov._GivensQR, "extend", lambda self, col: None)
        ref = cli.run_solver(spec, prob)
        assert len(qr.iterations) == len(ref.iterations) == 12
        assert np.allclose(qr.residuals, ref.residuals, rtol=1e-10, atol=0)
        assert np.allclose(qr.rel_errors, ref.rel_errors, rtol=1e-10, atol=0)
        for got, want in ((qr.final_x, ref.final_x), (qr.best_x, ref.best_x)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_zero_column_takes_the_minimum_norm_answer(self, monkeypatch):
        # A e0 = e0 + e1 and A e1 = 0: from b = e0 the second column of H
        # is zero, so R has a zero diagonal entry and the SVD takes over
        A = np.eye(16)
        A[:, :2] = 0.0
        A[:2, 0] = 1.0
        b = np.eye(16)[0]
        shapes = self.count_svds(monkeypatch)
        rep = gmres(from_dense(A, 4), b, 5, x_exact=b)
        assert rep.stop_reason == "breakdown"
        assert shapes == [(3, 2)]
        H = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        y = np.linalg.pinv(H) @ b[:3]  # (1/2, 0)
        assert np.allclose(rep.final_x, y[0] * b, rtol=0, atol=1e-15)
        assert np.allclose(rep.residuals, np.sqrt(0.5), rtol=1e-15)


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
