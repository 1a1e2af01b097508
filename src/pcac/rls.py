"""Recursive least squares with variable-rate forgetting.

The forgetting factor is modulated online by an F-test that compares the
variance of the identification error over a short trailing window against a
long one: forgetting activates only when the short-window variance is
statistically larger, i.e. when there is evidence that the model has gone
stale.  For vector outputs the variance ratio generalizes to a trace of a
covariance product with matched F degrees of freedom.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import NumericalError

# Long-window variance below this is treated as "perfect prediction": no
# evidence of model change, so no forgetting.
_VAR_FLOOR = 1e-30
# Ridge added to the long-window covariance before inversion (p > 1 case).
_COV_RIDGE = 1e-12


@dataclass(frozen=True)
class ForgettingConfig:
    """Windows and gains of the variance-ratio forgetting test.

    tau_n and tau_d are the short and long window lengths (the windows hold
    tau+1 samples), eta scales how aggressively forgetting reacts, and alpha
    is the significance level of the F-test.
    """

    tau_n: int = 40
    tau_d: int = 200
    eta: float = 0.1
    alpha: float = 0.001

    def __post_init__(self):
        if not 1 <= self.tau_n < self.tau_d:
            raise ValueError("need 1 <= tau_n < tau_d")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")


@dataclass
class RlsState:
    """Estimate, covariance, trailing error window and step counter."""

    theta: np.ndarray
    psi: np.ndarray
    error_window: np.ndarray  # (tau_d+1, p) a-priori errors, oldest first
    step: int = 0

    @classmethod
    def initialize(
        cls, theta0: np.ndarray, psi0_scale: float, cfg: ForgettingConfig, p: int = 1
    ) -> "RlsState":
        theta0 = np.asarray(theta0, dtype=float).reshape(-1)
        if psi0_scale <= 0:
            raise ValueError("psi0_scale must be positive")
        psi0 = psi0_scale * np.eye(theta0.size)
        # The F-test starts at step tau_d, once every zero row is shifted out.
        return cls(theta0, psi0, np.zeros((cfg.tau_d + 1, p)), 0)


def inverse_f_cdf(d1: float, d2: float, prob: float) -> float:
    """Quantile of the F-distribution with degrees of freedom (d1, d2).

    Computed through the inverse regularized incomplete beta function; the
    result is round-trip checked through the forward CDF and a failure to
    converge raises instead of returning silently.
    """
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if not 0 < prob < 1:
        raise ValueError("prob must lie in (0, 1)")
    w = special.betaincinv(d1 / 2.0, d2 / 2.0, prob)
    if not np.isfinite(w) or not 0 < w < 1:
        raise NumericalError(f"inverse beta failed for ({d1}, {d2}, {prob})")
    x = d2 * w / (d1 * (1.0 - w))
    back = special.betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
    if abs(back - prob) > 1e-10:
        raise NumericalError(
            f"F quantile round-trip error {abs(back - prob):.3e} for "
            f"({d1}, {d2}, {prob})"
        )
    return float(x)


@lru_cache(maxsize=64)
def _cached_f_quantile(d1: float, d2: float, prob: float) -> float:
    # Constant per configuration; cached so it stays out of the sample loop.
    return inverse_f_cdf(d1, d2, prob)


def forgetting_statistic_scalar(errors: np.ndarray, cfg: ForgettingConfig) -> float:
    """Test statistic g for scalar outputs.

    ``errors`` holds the last tau_d+1 scalar identification errors, oldest
    first.  Positive g means the short-window variance exceeds the long-window
    one beyond the 1-alpha F quantile.
    """
    errors = np.asarray(errors, dtype=float).reshape(-1)
    if errors.size != cfg.tau_d + 1:
        raise ValueError(f"need {cfg.tau_d + 1} errors, got {errors.size}")
    var_long = float(np.var(errors, ddof=1))
    if var_long < _VAR_FLOOR:
        return 0.0
    var_short = float(np.var(errors[-(cfg.tau_n + 1) :], ddof=1))
    quant = _cached_f_quantile(float(cfg.tau_n), float(cfg.tau_d), 1.0 - cfg.alpha)
    return float(np.sqrt(var_short / var_long) - np.sqrt(quant))


def multivariable_dof(p: int, cfg: ForgettingConfig):
    """Auxiliary constants (a, b, c) of the multivariable F approximation."""
    tn, td = cfg.tau_n, cfg.tau_d
    if td <= p + 3:
        raise ValueError("tau_d must exceed p + 3 for the multivariable test")
    a = (tn + td - p - 1) * (td - 1) / ((td - p - 3) * (td - p))
    b = 4 + (p * tn + 2) / (a - 1)
    c = p * tn * (b - 2) / (b * (td - p - 1))
    return a, b, c


def forgetting_statistic_multivariable(
    errors: np.ndarray, cfg: ForgettingConfig
) -> float:
    """Test statistic g for vector outputs (p > 1), via covariance matrices."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.shape[0] != cfg.tau_d + 1:
        raise ValueError(
            f"need a ({cfg.tau_d + 1}, p) error window, got {errors.shape}"
        )
    p = errors.shape[1]
    sig_long = np.cov(errors, rowvar=False, ddof=1)
    if abs(np.linalg.det(sig_long)) < _VAR_FLOOR:
        return 0.0
    sig_long = sig_long + _COV_RIDGE * np.eye(p)
    sig_short = np.cov(errors[-(cfg.tau_n + 1) :], rowvar=False, ddof=1)
    try:
        ratio = np.linalg.solve(sig_long, sig_short)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("long-window covariance is singular") from exc
    _, b, c = multivariable_dof(p, cfg)
    stat = cfg.tau_n / (c * cfg.tau_d) * float(np.trace(ratio))
    quant = _cached_f_quantile(float(p * cfg.tau_n), float(b), 1.0 - cfg.alpha)
    return float(np.sqrt(stat) - np.sqrt(quant))


def compute_beta(g: float, cfg: ForgettingConfig, step: int) -> float:
    """Per-step covariance inflation beta_k = 1/lambda_k >= 1.

    Forgetting is disabled until the long window has filled once; after that
    only positive g (short-window variance significantly larger) forgets.
    """
    if step < cfg.tau_d:
        return 1.0
    return 1.0 + cfg.eta * max(g, 0.0)


def _window_statistic(window: np.ndarray, cfg: ForgettingConfig) -> float:
    if window.shape[1] == 1:
        return forgetting_statistic_scalar(window[:, 0], cfg)
    return forgetting_statistic_multivariable(window, cfg)


def rls_update(
    state: RlsState, phi: np.ndarray, y: np.ndarray, cfg: ForgettingConfig
) -> RlsState:
    """One RLS step: record the a-priori error, pick beta, update psi and theta.

    The identification error entering the F-test window is the pre-update
    residual e_k = y_k - phi_k theta_k, and the window includes the current
    step before beta is computed.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    p = y.size
    if phi.shape != (p, state.theta.size):
        raise ValueError(
            f"regressor shape {phi.shape} does not match ({p}, {state.theta.size})"
        )
    e = y - phi @ state.theta

    window = np.concatenate((state.error_window[1:], e[None]))
    if state.step >= cfg.tau_d:
        beta = compute_beta(_window_statistic(window, cfg), cfg, state.step)
    else:
        beta = 1.0

    gain = state.psi @ phi.T
    inner = np.eye(p) / beta + phi @ gain
    psi_next = beta * (state.psi - gain @ np.linalg.solve(inner, gain.T))
    psi_next = 0.5 * (psi_next + psi_next.T)
    if not np.all(np.isfinite(psi_next)) or np.any(np.diag(psi_next) <= 0):
        raise NumericalError("RLS covariance lost positive definiteness")
    theta_next = state.theta + psi_next @ (phi.T @ e)
    if not np.all(np.isfinite(theta_next)):
        raise NumericalError("RLS estimate diverged")
    return RlsState(theta_next, psi_next, window, state.step + 1)
