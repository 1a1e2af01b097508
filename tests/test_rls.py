"""RLS update equations, F-quantile, and the forgetting test statistic."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from pcac import (
    ForgettingConfig,
    NumericalError,
    RlsState,
    compute_beta,
    forgetting_statistic_multivariable,
    forgetting_statistic_scalar,
    inverse_f_cdf,
    rls_update,
)
from pcac.rls import multivariable_dof


# ---------------------------------------------------------------------------
# Quadrature oracle for the F-distribution, independent of the incomplete
# beta route used by the implementation.


def f_pdf(x, d1, d2):
    if x <= 0:
        return 0.0
    lognum = (
        0.5 * d1 * np.log(d1 / d2)
        + (0.5 * d1 - 1.0) * np.log(x)
        - 0.5 * (d1 + d2) * np.log1p(d1 * x / d2)
    )
    return np.exp(lognum - special.betaln(0.5 * d1, 0.5 * d2))


def f_cdf_quad(x, d1, d2):
    if x <= 0:
        return 0.0
    # integrate the smaller tail for accuracy
    med_guess = 1.0
    if x <= med_guess:
        val, _ = integrate.quad(f_pdf, 0, x, args=(d1, d2), epsabs=1e-13, epsrel=1e-13,
                                limit=200)
        return val
    tail, _ = integrate.quad(f_pdf, x, np.inf, args=(d1, d2), epsabs=1e-13,
                             epsrel=1e-13, limit=200)
    return 1.0 - tail


def f_quantile_quad(d1, d2, prob, tol=1e-12):
    lo, hi = 0.0, 1.0
    while f_cdf_quad(hi, d1, d2) < prob:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_cdf_quad(mid, d1, d2) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class TestInverseFCdf:
    @pytest.mark.parametrize("d", [1.0, 3.0, 17.0, 120.0])
    def test_equal_dof_median_is_one(self, d):
        assert inverse_f_cdf(d, d, 0.5) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "d1,d2,prob",
        [(1.0, 1.0, 0.9), (40.0, 200.0, 0.999), (5.0, 8.0, 0.25)],
    )
    def test_matches_quadrature_oracle(self, d1, d2, prob):
        x = inverse_f_cdf(d1, d2, prob)
        assert f_cdf_quad(x, d1, d2) == pytest.approx(prob, abs=1e-8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            inverse_f_cdf(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            inverse_f_cdf(1.0, 1.0, 1.0)

    def test_quantile_decreasing_in_alpha(self):
        # larger significance level -> smaller 1-alpha quantile -> larger g
        quants = [inverse_f_cdf(40, 200, 1 - a) for a in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(a > b for a, b in zip(quants, quants[1:]))


CFG = ForgettingConfig(tau_n=4, tau_d=10, eta=0.1, alpha=0.001)


class TestScalarStatistic:
    def test_constant_window_guarded(self):
        errors = np.full(CFG.tau_d + 1, 3.7)
        assert forgetting_statistic_scalar(errors, CFG) == 0.0

    def test_equal_variances_negative(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(CFG.tau_d + 1)
        # force exactly equal short/long variances by direct formula check
        g = forgetting_statistic_scalar(base, CFG)
        v_long = np.var(base, ddof=1)
        v_short = np.var(base[-(CFG.tau_n + 1):], ddof=1)
        quant = inverse_f_cdf(CFG.tau_n, CFG.tau_d, 1 - CFG.alpha)
        assert g == pytest.approx(np.sqrt(v_short / v_long) - np.sqrt(quant))
        assert np.sqrt(quant) > 1.0  # equal variances can never trigger forgetting

    def test_inflated_short_window_positive(self):
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1, alpha=0.001)
        rng = np.random.default_rng(1)
        errors = rng.standard_normal(cfg.tau_d + 1)
        errors[-(cfg.tau_n + 1):] *= 10.0
        g = forgetting_statistic_scalar(errors, cfg)
        v_long = np.var(errors, ddof=1)
        v_short = np.var(errors[-(cfg.tau_n + 1):], ddof=1)
        quant = inverse_f_cdf(cfg.tau_n, cfg.tau_d, 1 - cfg.alpha)
        assert g == pytest.approx(np.sqrt(v_short / v_long) - np.sqrt(quant))
        assert g > 0.0

    def test_monotone_in_short_window_scale(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(CFG.tau_d + 1)
        scales = [1.0, 2.0, 5.0, 10.0]
        stats = []
        for s in scales:
            e = base.copy()
            e[-(CFG.tau_n + 1):] *= s
            stats.append(forgetting_statistic_scalar(e, CFG))
        assert all(a < b for a, b in zip(stats, stats[1:]))


class TestMultivariableStatistic:
    def test_dof_hand_values(self):
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1, alpha=0.001)
        a, b, c = multivariable_dof(2, cfg)
        assert a == pytest.approx(237 * 199 / (195 * 198))
        assert b == pytest.approx(4 + (2 * 40 + 2) / (a - 1))
        assert c == pytest.approx(2 * 40 * (b - 2) / (b * (200 - 2 - 1)))

    def test_identical_population_negative(self):
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1, alpha=0.001)
        rng = np.random.default_rng(3)
        errors = rng.standard_normal((cfg.tau_d + 1, 2))
        assert forgetting_statistic_multivariable(errors, cfg) < 0.0

    def test_trace_term_for_identity_covariances(self):
        # when both covariances coincide the trace term reduces to p
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1, alpha=0.001)
        p = 2
        _, b, c = multivariable_dof(p, cfg)
        quant = inverse_f_cdf(p * cfg.tau_n, b, 1 - cfg.alpha)
        expected_at_identity = np.sqrt(cfg.tau_n / (c * cfg.tau_d) * p) - np.sqrt(quant)
        # build a window whose short and long covariances are both ~identity
        rng = np.random.default_rng(4)
        errors = rng.standard_normal((cfg.tau_d + 1, p))
        g = forgetting_statistic_multivariable(errors, cfg)
        assert g == pytest.approx(expected_at_identity, abs=0.25)

    def test_constant_window_guarded(self):
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1, alpha=0.001)
        errors = np.ones((cfg.tau_d + 1, 2))
        assert forgetting_statistic_multivariable(errors, cfg) == 0.0


class TestComputeBeta:
    def test_warmup_forces_unity(self):
        assert compute_beta(5.0, CFG, step=CFG.tau_d - 1) == 1.0

    def test_negative_statistic_clamped(self):
        assert compute_beta(-0.5, CFG, step=CFG.tau_d) == 1.0

    def test_positive_statistic_scales(self):
        assert compute_beta(2.0, CFG, step=CFG.tau_d) == pytest.approx(1.2)

    @settings(max_examples=50, deadline=None)
    @given(g=st.floats(-100, 100), step=st.integers(0, 10_000))
    def test_always_at_least_one(self, g, step):
        assert compute_beta(g, CFG, step) >= 1.0


def batch_solution(phis, ys, psi0, theta0):
    """Regularized batch least squares, the oracle for no-forgetting RLS."""
    n = theta0.size
    H = np.linalg.inv(psi0)
    b = H @ theta0
    for phi, y in zip(phis, ys):
        H = H + phi.T @ phi
        b = b + phi.T @ y
    return np.linalg.solve(H, b)


class TestRlsUpdate:
    def test_single_step_hand_values(self):
        cfg = ForgettingConfig(tau_n=4, tau_d=10, eta=0.0)
        state = RlsState.initialize(np.zeros(1), 1.0, cfg)
        new = rls_update(state, np.array([[1.0]]), np.array([2.0]), cfg)
        assert new.psi[0, 0] == pytest.approx(0.5)
        assert new.theta[0] == pytest.approx(1.0)
        # matches the minimizer of (2 - th)^2 + th^2
        assert new.theta[0] == pytest.approx(
            batch_solution([np.array([[1.0]])], [np.array([2.0])],
                           np.eye(1), np.zeros(1))[0]
        )

    def test_zero_regressor_scales_psi(self):
        cfg = ForgettingConfig(tau_n=4, tau_d=10, eta=0.5)
        state = RlsState.initialize(np.array([1.5, -2.0]), 3.0, cfg)
        new = rls_update(state, np.zeros((1, 2)), np.array([7.0]), cfg)
        np.testing.assert_array_equal(new.theta, state.theta)
        np.testing.assert_allclose(new.psi, state.psi)  # beta=1 during warmup
        assert new.step == 1

    def test_matches_batch_oracle_trajectory(self):
        # 50 steps, eta=0: theta_k equals the regularized batch solution
        cfg = ForgettingConfig(tau_n=10, tau_d=20, eta=0.0)
        rng = np.random.default_rng(11)
        dim = 4
        theta0 = rng.standard_normal(dim)
        state = RlsState.initialize(theta0, 2.5, cfg)
        psi0 = 2.5 * np.eye(dim)
        phis, ys = [], []
        for _ in range(50):
            phi = rng.standard_normal((1, dim))
            y = rng.standard_normal(1)
            state = rls_update(state, phi, y, cfg)
            phis.append(phi)
            ys.append(y)
            expect = batch_solution(phis, ys, psi0, theta0)
            np.testing.assert_allclose(state.theta, expect, rtol=1e-8)

    def test_consistency_noise_free_arx(self):
        # persistently exciting data from a fixed scalar model: exact recovery
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1)
        rng = np.random.default_rng(12)
        theta_true = np.array([-1.2, 0.5, 0.8, 0.3])  # y_k = 1.2y1 -0.5y2 +...
        state = RlsState.initialize(np.zeros(4), 1e6, cfg)
        y1 = y2 = u1 = u2 = 0.0
        for _ in range(120):
            u = rng.standard_normal()
            phi = np.array([[-y1, -y2, u1, u2]])
            y = (phi @ theta_true).item()
            state = rls_update(state, phi, np.array([y]), cfg)
            y2, y1 = y1, y
            u2, u1 = u1, u
        assert np.linalg.norm(state.theta - theta_true) < 1e-6

    def test_psi_stays_symmetric_positive(self):
        cfg = ForgettingConfig(tau_n=5, tau_d=12, eta=0.3)
        rng = np.random.default_rng(13)
        state = RlsState.initialize(np.zeros(3), 10.0, cfg)
        for _ in range(200):
            phi = rng.standard_normal((1, 3))
            y = rng.standard_normal(1)
            state = rls_update(state, phi, y, cfg)
            np.testing.assert_array_equal(state.psi, state.psi.T)
            assert np.min(np.linalg.eigvalsh(state.psi)) > 0.0

    def test_vector_output_update(self):
        cfg = ForgettingConfig(tau_n=5, tau_d=12, eta=0.1)
        rng = np.random.default_rng(14)
        state = RlsState.initialize(np.zeros(6), 1.0, cfg, p=2)
        for _ in range(30):
            phi = rng.standard_normal((2, 6))
            y = rng.standard_normal(2)
            state = rls_update(state, phi, y, cfg)
        assert state.step == 30
        assert state.error_window.shape == (cfg.tau_d + 1, 2)

    @pytest.mark.parametrize("p", [1, 2])
    def test_window_holds_last_a_priori_errors(self, p):
        # oldest first, the zero rows of the initial window shifted out
        cfg = ForgettingConfig(tau_n=4, tau_d=10, eta=0.1)
        rng = np.random.default_rng(16 + p)
        state = RlsState.initialize(np.zeros(3 * p), 1.0, cfg, p)
        errors = [np.zeros(p)] * (cfg.tau_d + 1)
        for _ in range(300):
            phi = rng.standard_normal((p, 3 * p))
            y = rng.standard_normal(p)
            errors.append(y - phi @ state.theta)
            state = rls_update(state, phi, y, cfg)
            np.testing.assert_array_equal(state.error_window,
                                          errors[-(cfg.tau_d + 1):])

    def test_error_width_must_match_window(self):
        cfg = ForgettingConfig(tau_n=4, tau_d=10)
        state = RlsState.initialize(np.zeros(4), 1.0, cfg)
        with pytest.raises(ValueError):
            rls_update(state, np.zeros((2, 4)), np.zeros(2), cfg)

    def test_beta_one_during_warmup_even_with_noisy_errors(self):
        cfg = ForgettingConfig(tau_n=4, tau_d=10, eta=10.0)
        rng = np.random.default_rng(15)
        # run eta=10 and eta=0 side by side: identical until the window fills
        s_a = RlsState.initialize(np.zeros(2), 1.0, cfg)
        s_b = RlsState.initialize(np.zeros(2), 1.0,
                                  ForgettingConfig(tau_n=4, tau_d=10, eta=0.0))
        for _ in range(cfg.tau_d):
            phi = rng.standard_normal((1, 2))
            y = rng.standard_normal(1)
            s_a = rls_update(s_a, phi, y, cfg)
            s_b = rls_update(s_b, phi, y, ForgettingConfig(tau_n=4, tau_d=10, eta=0.0))
            np.testing.assert_array_equal(s_a.theta, s_b.theta)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForgettingConfig(tau_n=10, tau_d=10)
        with pytest.raises(ValueError):
            ForgettingConfig(tau_n=5, tau_d=10, eta=-1.0)
        with pytest.raises(ValueError):
            RlsState.initialize(np.zeros(2), 0.0, CFG)
