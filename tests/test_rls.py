"""RLS update equations, F-quantile, and the forgetting test statistic."""
import math
from decimal import Decimal

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
from pcac import rls
from pcac.rls import (
    _VAR_FLOOR,
    _beta_quantile,
    _beta_residual,
    _betainc,
    _cached_f_quantile,
    multivariable_dof,
)


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
        # non-finite degrees of freedom or probability
        for bad in (np.nan, np.inf, -np.inf):
            for args in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)):
                with pytest.raises(ValueError):
                    inverse_f_cdf(*args)

    def test_quantile_decreasing_in_alpha(self):
        # larger significance level -> smaller 1-alpha quantile -> larger g
        quants = [inverse_f_cdf(40, 200, 1 - a) for a in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(a > b for a, b in zip(quants, quants[1:]))

    # The 1 - alpha quantiles of the default ForgettingConfig to 60 digits
    # (mpmath): the scalar test's F(40, 200) and the multivariable test's for
    # p = 2 and 3, whose d2 is not an integer.
    @pytest.mark.parametrize("p, exact", [
        (1, "1.99986961234971296849543390678208931938320742804169339602119"),
        (2, "1.65750466902430469694256983794903204000950916737952714271963"),
        (3, "1.52049637475816800122443639453256365126038456503144313034184"),
    ])
    def test_stock_quantiles_pinned(self, p, exact):
        cfg = ForgettingConfig()
        d2 = cfg.tau_d if p == 1 else multivariable_dof(p, cfg)[1]
        x = inverse_f_cdf(float(p * cfg.tau_n), float(d2), 1.0 - cfg.alpha)
        assert abs(Decimal(x) - Decimal(exact)) <= Decimal("1e-14") * Decimal(exact)

    @pytest.mark.parametrize("d1,d2,prob", [
        (1e-3, 1.0, 1e-10),   # the root w ~ 1e-20000 underflows
        (1e-4, 1.0, 0.5),
        (1e20, 1e20, 0.5),    # the continued fraction needs ~1e10 terms
    ])
    def test_no_convergence_raises_within_the_cap(self, d1, d2, prob, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _betainc(*args)

        monkeypatch.setattr(rls, "_betainc", counted)
        with pytest.raises(NumericalError, match="did not converge"):
            inverse_f_cdf(d1, d2, prob)
        # one evaluation picks the side of 1/2, then one per halving of the
        # bit-pattern bracket [0, bits(0.5)], which takes at most 62
        assert len(calls) <= 63


# ---------------------------------------------------------------------------
# The incomplete beta and its inverse against scipy.special.  scipy is an
# oracle of the tests only; pcac itself does not import it.

SHAPES = [0.5, 1.0, 2.5, 20.0, 100.0, 1000.0]
PROBS = [1e-10, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-10]


def _rel_err(x, ref):
    return abs(x - ref) / abs(ref)


class TestIncompleteBetaOracle:
    @pytest.mark.parametrize("a", SHAPES)
    def test_betainc_matches_scipy(self, a):
        # x = 2^-k and 1 - 2^-k are exact, so both tails are well defined
        xs = [2.0 ** -k for k in (1, 2, 3, 5, 8, 12, 20, 30)]
        worst = 0.0
        for b in SHAPES:
            for x in xs + [1.0 - x for x in xs[1:]]:
                lower, upper = _betainc(a, b, x, 1.0 - x)
                ref_lower = special.betainc(a, b, x)
                ref_upper = special.betaincc(a, b, x)
                for got, ref in ((lower, ref_lower), (upper, ref_upper)):
                    if ref > 1e-300:
                        worst = max(worst, _rel_err(got, ref))
        assert worst <= 1e-12

    @pytest.mark.parametrize("a", SHAPES)
    def test_inverse_matches_scipy(self, a):
        # both w and 1 - w keep their relative precision
        worst = 0.0
        for b in SHAPES:
            for prob in PROBS:
                w, w_c = _beta_quantile(a, b, prob, 1.0 - prob)
                worst = max(worst,
                            _rel_err(w, special.betaincinv(a, b, prob)),
                            _rel_err(w_c, special.betainccinv(b, a, prob)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("a", SHAPES)
    def test_f_quantile_matches_scipy(self, a):
        worst = 0.0
        for b in SHAPES:
            for prob in PROBS:
                x = inverse_f_cdf(2 * a, 2 * b, prob)
                worst = max(worst, _rel_err(x, special.fdtri(2 * a, 2 * b, prob)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("a", SHAPES)
    def test_inverse_brackets_the_root(self, a):
        # on the side _beta_quantile solves, the residual changes sign
        # between the returned w and the double below it
        for b in SHAPES:
            for prob in PROBS:
                args = (a, b, prob, 1.0 - prob)
                w, w_c = _beta_quantile(*args)
                if _beta_residual(*args, 0.5, 0.5) < 0.0:
                    # solved for 1 - w, through I_w(a, b) = 1 - I_{1-w}(b, a)
                    args, w = (b, a, 1.0 - prob, prob), w_c
                below = math.nextafter(w, 0.0)
                assert _beta_residual(*args, w, 1.0 - w) >= 0.0, (b, prob)
                assert _beta_residual(*args, below, 1.0 - below) < 0.0, (b, prob)

    @pytest.mark.parametrize("p", [2, 3])
    def test_multivariable_quantile_matches_scipy(self, p):
        # d2 = b of the multivariable test is not an integer
        cfg = ForgettingConfig()
        _, b, _ = multivariable_dof(p, cfg)
        assert b != round(b)
        for prob in PROBS + [1.0 - cfg.alpha]:
            x = inverse_f_cdf(float(p * cfg.tau_n), b, prob)
            assert _rel_err(x, special.fdtri(p * cfg.tau_n, b, prob)) <= 1e-12


# ---------------------------------------------------------------------------
# Textbook forms of the scalar F statistic (two np.var calls) and of the RLS
# update (an np.linalg.solve of I/beta + phi psi phi'), the references for the
# implementation's dot-product variances and checked rank-1 update.


def textbook_statistic(errors, cfg):
    errors = np.asarray(errors, dtype=float).reshape(-1)
    var_long = float(np.var(errors, ddof=1))
    if var_long < _VAR_FLOOR:
        return 0.0
    var_short = float(np.var(errors[-(cfg.tau_n + 1):], ddof=1))
    quant = _cached_f_quantile(float(cfg.tau_n), float(cfg.tau_d), 1.0 - cfg.alpha)
    return float(np.sqrt(var_short / var_long) - np.sqrt(quant))


def textbook_rls_update(state, phi, y, cfg):
    """One RLS step in the solve form; returns the new state and beta."""
    y = np.asarray(y, dtype=float).reshape(-1)
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    p = y.size
    e = y - phi @ state.theta
    window = np.concatenate((state.error_window[1:], e[None]))
    beta = 1.0
    if state.step >= cfg.tau_d:
        g = (textbook_statistic(window[:, 0], cfg) if p == 1
             else forgetting_statistic_multivariable(window, cfg))
        beta = compute_beta(g, cfg, state.step)
    gain = state.psi @ phi.T
    inner = np.eye(p) / beta + phi @ gain
    psi = beta * (state.psi - gain @ np.linalg.solve(inner, gain.T))
    psi = 0.5 * (psi + psi.T)
    theta = state.theta + psi @ (phi.T @ e)
    return RlsState(theta, psi, window, state.step + 1), beta


def drifting_data(rng, steps, p, dim):
    """Regressors and outputs whose noise grows tenfold two thirds of the
    way through, so the F-test forgets (beta > 1) after the change."""
    theta = rng.standard_normal(dim)
    for k in range(steps):
        phi = rng.standard_normal((p, dim))
        scale = 0.1 if k < 2 * steps // 3 else 1.0
        yield phi, phi @ theta + scale * rng.standard_normal(p)


CFG = ForgettingConfig(tau_n=4, tau_d=10, eta=0.1, alpha=0.001)


class TestScalarStatistic:
    def test_constant_window_guarded(self):
        # centring by the rounded mean leaves a variance of rounding error,
        # which an absolute floor missed at 42.42, 123.456 and 1000.1
        for cfg in (CFG, ForgettingConfig()):
            for c in (3.7, 0.0, -2.5, 1e-3, 7.0, 42.42, 123.456, 1000.1, 1e6, -1e6):
                errors = np.full(cfg.tau_d + 1, c)
                g = forgetting_statistic_scalar(errors, cfg)
                assert g == 0.0
                assert compute_beta(g, cfg, cfg.tau_d) == 1.0
                # through the update: with phi = 0, beta alone scales psi
                state = RlsState(np.zeros(2), np.eye(2), errors[:, None], cfg.tau_d)
                new = rls_update(state, np.zeros((1, 2)), np.array([c]), cfg)
                np.testing.assert_array_equal(new.psi, np.eye(2))

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


    def test_matches_textbook_variances(self):
        # d'd / (N-1) sums the squares in another order than np.var
        cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.1, alpha=0.001)
        rng = np.random.default_rng(5)
        for _ in range(200):
            errors = rng.uniform(-10, 10) + 10.0 ** rng.uniform(-6, 3) * (
                rng.standard_normal(cfg.tau_d + 1))
            errors[-(cfg.tau_n + 1):] *= rng.uniform(0.2, 5.0)
            assert forgetting_statistic_scalar(errors, cfg) == pytest.approx(
                textbook_statistic(errors, cfg), rel=1e-12, abs=1e-12)


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

    @staticmethod
    def shifted_window(cfg):
        """Standard-normal (tau_d+1, 2) window whose short window is 10x."""
        errors = np.random.default_rng(0).standard_normal((cfg.tau_d + 1, 2))
        errors[-(cfg.tau_n + 1):] *= 10.0
        return errors

    def test_independent_of_error_scale(self):
        # an absolute determinant floor and ridge gave 0.871 at scale 1,
        # 0.808 at 1e-6, -1.200 at 1e-8 and 0.0 at 1e-9
        cfg = ForgettingConfig()
        errors = self.shifted_window(cfg)
        g1 = forgetting_statistic_multivariable(errors, cfg)
        assert g1 > 0.0
        for k in range(-9, 7):
            g = forgetting_statistic_multivariable(errors * 10.0**k, cfg)
            assert g == pytest.approx(g1, rel=1e-9), k

    def test_dead_channel_left_out(self):
        # a channel constant over the long window used to zero the
        # determinant, and so g, however much the other channel changed
        cfg = ForgettingConfig()
        errors = self.shifted_window(cfg)
        errors[:, 1] = 5.0
        g = forgetting_statistic_multivariable(errors, cfg)
        assert g > 0.0
        assert g == forgetting_statistic_scalar(errors[:, 0], cfg)
        # through the update: with phi = 0, beta alone scales psi
        window = np.concatenate((np.zeros((1, 2)), errors[:-1]))
        state = RlsState(np.zeros(3), np.eye(3), window, cfg.tau_d)
        new = rls_update(state, np.zeros((2, 3)), errors[-1], cfg)
        beta = compute_beta(g, cfg, cfg.tau_d)
        assert beta > 1.0
        np.testing.assert_allclose(new.psi, beta * np.eye(3), rtol=1e-15)

    def test_constant_channels_guarded_at_any_level(self):
        cfg = ForgettingConfig()
        for level in (1e-9, 3.7, 123.456, -1e6):
            errors = np.tile([level, -2.0 * level, 0.5], (cfg.tau_d + 1, 1))
            assert forgetting_statistic_multivariable(errors, cfg) == 0.0

    def test_collinear_channels_tested_as_one(self):
        # exactly collinear channels made the long-window correlation
        # singular, and g was 0.0 however much both channels changed
        cfg = ForgettingConfig()
        errors = self.shifted_window(cfg)
        errors[:, 1] = 2.0 * errors[:, 0]
        g = forgetting_statistic_multivariable(errors, cfg)
        assert g > 0.0
        assert g == pytest.approx(
            forgetting_statistic_scalar(errors[:, 0], cfg), rel=1e-9)

    @staticmethod
    def shifted_window3(cfg):
        """Standard-normal (tau_d+1, 3) window whose short window is 10x."""
        errors = np.random.default_rng(0).standard_normal((cfg.tau_d + 1, 3))
        errors[-(cfg.tau_n + 1):] *= 10.0
        return errors

    def test_rank_deficient_window_tested_at_its_rank(self):
        # a third channel combining the other two read 0.506 here, against
        # 0.849 for the two independent channels alone
        cfg = ForgettingConfig()
        errors = self.shifted_window3(cfg)
        errors[:, 2] = errors[:, 0] - 0.5 * errors[:, 1]
        g = forgetting_statistic_multivariable(errors, cfg)
        assert g > 0.0
        assert g == pytest.approx(
            forgetting_statistic_multivariable(errors[:, :2], cfg), rel=1e-9)

    def test_full_rank_window_keeps_its_statistic(self):
        # the value from before the rank check, on the same window
        cfg = ForgettingConfig()
        g = forgetting_statistic_multivariable(self.shifted_window3(cfg), cfg)
        assert g == pytest.approx(0.9022506825187755, rel=1e-14)


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

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_textbook_solve_form(self, p):
        # p = 1 is the checked rank-1 update, compared within 1e-12 over a
        # run that forgets; p = 2 keeps the solve form and must be identical
        cfg = ForgettingConfig(tau_n=10, tau_d=30, eta=1.0, alpha=0.05)
        rng = np.random.default_rng(40 + p)
        dim = 4 * p
        state = ref = RlsState.initialize(np.zeros(dim), 10.0, cfg, p)
        betas = []
        for phi, y in drifting_data(rng, 300, p, dim):
            state = rls_update(state, phi, y, cfg)
            ref, beta = textbook_rls_update(ref, phi, y, cfg)
            betas.append(beta)
            if p == 1:
                np.testing.assert_allclose(state.psi, ref.psi, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(ref.psi)))
                np.testing.assert_allclose(state.theta, ref.theta, rtol=1e-12,
                                           atol=1e-12)
            else:
                np.testing.assert_array_equal(state.psi, ref.psi)
                np.testing.assert_array_equal(state.theta, ref.theta)
            np.testing.assert_array_equal(state.psi, state.psi.T)
        assert betas[0] == 1.0 and max(betas) > 1.0

    @pytest.mark.parametrize("psi", [
        [[-1.0, 0.0], [0.0, 0.0]],     # 1/beta + phi psi phi' = 0
        [[np.inf, 0.0], [0.0, 1.0]],   # = inf
        [[np.nan, 0.0], [0.0, 1.0]],   # = nan
    ])
    def test_bad_inner_term_raises_numerical_error(self, psi):
        state = RlsState(np.zeros(2), np.array(psi), np.zeros((CFG.tau_d + 1, 1)))
        with pytest.raises(NumericalError, match="inner term"):
            rls_update(state, np.array([[1.0, 0.0]]), np.array([0.5]), CFG)

    def test_singular_vector_inner_term_raises_numerical_error(self):
        state = RlsState(np.zeros(2), np.array([[-1.0, 0.0], [0.0, -1.0]]),
                         np.zeros((CFG.tau_d + 1, 2)))
        with pytest.raises(NumericalError, match="inner term"):
            rls_update(state, np.eye(2), np.zeros(2), CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForgettingConfig(tau_n=10, tau_d=10)
        with pytest.raises(ValueError):
            ForgettingConfig(tau_n=5, tau_d=10, eta=-1.0)
        with pytest.raises(ValueError):
            RlsState.initialize(np.zeros(2), 0.0, CFG)
