"""Recursive least squares with variable-rate forgetting.

The forgetting factor is modulated online by an F-test that compares the
variance of the identification error over a short trailing window against a
long one: forgetting activates only when the short-window variance is
statistically larger, i.e. when there is evidence that the model has gone
stale.  For vector outputs the variance ratio generalizes to a trace of a
covariance product with matched F degrees of freedom.
"""
from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import COUNT, NONNEGATIVE, NumericalError, check_fields, float_rule

# Long-window variance below this is treated as "perfect prediction": no
# evidence of model change, so no forgetting.
_VAR_FLOOR = 1e-30
_EPS = sys.float_info.epsilon
# Iteration cap of the incomplete beta's continued fraction, which for shape
# parameters up to 1e6 takes at most about 200 terms.
_CF_MAX_TERMS = 2000
# Stirling series of lgamma, the coefficients of x^-1, x^-3, ..., x^-11.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
# Ridge added to each eigenvalue of the long-window correlation (p > 1 case).
_COV_RIDGE = 1e-12
# Directions of the unit-variance long-window correlation (p > 1 case) whose
# eigenvalue is at most this fraction of the largest are taken as collinear.
_RANK_RTOL = 1e-9


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
        # the F-test reads the 1 - alpha quantile: 1 - alpha must lie in (0, 1) in floats
        check_fields(self, (
            ("tau_n", COUNT), ("tau_d", COUNT), ("eta", NONNEGATIVE),
            ("tau_n", (lambda v: v < self.tau_d, f"below tau_d = {self.tau_d}")),
            ("alpha",
             float_rule(lambda v: 0 < 1.0 - v < 1.0, "in (0, 1) with 1 - alpha < 1")),
        ))


@dataclass
class RlsState:
    """Estimate, covariance, trailing error window and step counter, and
    what the update that made the state decided.

    All p outputs share one regressor phi (d,), y_k = Theta' phi_k: ``theta``
    is the (d, p) estimate Theta, and ``psi`` its (d, d) covariance P.
    ``beta`` is the update's covariance inflation 1/lambda, and ``g`` the F
    statistic it came from: 1.0 and None until the long window has filled.
    The update's a-priori error e_k is ``error_window[-1]``.
    """

    theta: np.ndarray
    psi: np.ndarray
    error_window: np.ndarray  # (tau_d+1, p) a-priori errors, oldest first
    step: int = 0
    beta: float = 1.0
    g: float | None = None

    @classmethod
    def initialize(
        cls, theta0: np.ndarray, psi0_scale: float, cfg: ForgettingConfig
    ) -> "RlsState":
        """The state of the prior estimate Theta_0, (d, p), and P_0 =
        ``psi0_scale`` I_d."""
        theta0 = np.asarray(theta0, dtype=float)
        if not 0 < psi0_scale < math.inf:
            raise ValueError(f"psi0_scale must be positive and finite, got {psi0_scale!r}")
        if theta0.ndim != 2 or theta0.size == 0 or not np.isfinite(theta0).all():
            raise ValueError(f"theta0 must be a non-empty, finite (d, p) array, "
                             f"got shape {theta0.shape}")
        d, p = theta0.shape
        # The F-test waits until every zero row is shifted out (rls_update).
        return cls(theta0, psi0_scale * np.eye(d), np.zeros((cfg.tau_d + 1, p)), 0)


def inverse_f_cdf(d1: float, d2: float, prob: float) -> float:
    """Quantile of the F-distribution with degrees of freedom (d1, d2).

    The root x of I_w(d1/2, d2/2) = prob, with w = d1 x / (d1 x + d2), is
    found by bisection over bit patterns: positive doubles order as their
    bit patterns do, so halving the integer bracket [bits(0), bits(x_max)]
    is geometric far from the root and linear near it.  After at most 63
    halvings it holds two adjacent doubles between which the residual
    changes sign; the upper one is returned.  w and 1 - w are both formed
    from x, so the residual keeps its precision on either tail.  A root
    outside the bracket, or a residual above 1e-10, raises instead of
    returning silently.
    """
    if not (0 < d1 < math.inf and 0 < d2 < math.inf):
        raise ValueError("degrees of freedom must be positive and finite")
    if not 0 < prob < 1:
        raise ValueError("prob must lie in (0, 1)")
    a, b, prob_c = d1 / 2.0, d2 / 2.0, 1.0 - prob
    # below x_max, d1 x + d2 stays finite
    top = struct.unpack("<q", struct.pack("<d", sys.float_info.max / (d1 + d2)))[0]
    lo, hi, x_hi, back = 0, top, 0.0, math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = struct.unpack("<d", struct.pack("<q", mid))[0]
        s = d1 * x + d2
        res = _beta_residual(a, b, prob, prob_c, d1 * x / s, d2 / s)
        if res >= 0.0:
            hi, x_hi, back = mid, x, res
        else:
            lo = mid
    if hi in (1, top) or back > 1e-10:
        raise NumericalError(
            f"F quantile did not converge for ({d1}, {d2}, {prob}): residual {back:.3e}"
        )
    return x_hi


def _betainc(a: float, b: float, x: float, x_c: float) -> tuple[float, float]:
    """Regularized incomplete beta I_x(a, b) and its complement, for x in
    [0, 1] given with x_c = 1 - x; the smaller of the two must be exact.

    The continued fraction is evaluated on the side of the mean where it
    converges fast, so the tail it returns keeps its relative precision.
    """
    if x <= 0.0 or x_c <= 0.0:
        return (0.0, 1.0) if x <= 0.0 else (1.0, 0.0)
    if x <= x_c:
        log_x, log_x_c = math.log(x), math.log1p(-x)
    else:
        log_x, log_x_c = math.log1p(-x_c), math.log(x_c)
    try:
        front = math.exp(a * log_x + b * log_x_c - _log_beta(a, b))
    except OverflowError as exc:  # the log cancels to garbage for huge a, b
        raise NumericalError(
            f"incomplete beta did not converge for ({a}, {b}, {x})"
        ) from exc
    if x < (a + 1.0) / (a + b + 2.0):
        tail = front * _beta_fraction(a, b, x) / a
        return tail, 1.0 - tail
    tail = front * _beta_fraction(b, a, x_c) / b
    return 1.0 - tail, tail


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  Past 20 the lgamma terms are of order a log a and their
    difference would lose digits, so it is taken in Stirling's form."""
    a, b = min(a, b), max(a, b)
    if b < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    s = a + b
    # lgamma(b) - lgamma(s) + a, without its terms of order b log b
    rest = (_stirling_correction(b) - _stirling_correction(s)
            - (b - 0.5) * math.log1p(a / b))
    if a < 20.0:
        return math.lgamma(a) + a - a * math.log(s) + rest
    return (
        0.5 * math.log(2.0 * math.pi / a)
        + a * math.log(a / s)
        + _stirling_correction(a)
        + rest
    )


def _stirling_correction(x: float) -> float:
    """lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2, for x >= 20 (the
    first omitted term is below 1e-18)."""
    r, acc = 1.0 / (x * x), 0.0
    for coef in reversed(_STIRLING):
        acc = acc * r + coef
    return acc / x


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def nonzero(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for ({a}, {b}, {x})"
    )


def _beta_residual(
    a: float, b: float, prob: float, prob_c: float, x: float, x_c: float
) -> float:
    """I_x(a, b) - prob for prob given with prob_c = 1 - prob, the smaller of
    the two exact; taken on that tail, the difference keeps its precision at
    both ends."""
    lower, upper = _betainc(a, b, x, x_c)
    return lower - prob if prob <= prob_c else prob_c - upper


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
    mean, var_long = _mean_and_variance(errors)
    # Centring a constant window by its rounded mean leaves a variance of
    # rounding error, below (N eps mean)^2 at any magnitude: no evidence.
    if var_long <= _VAR_FLOOR + (errors.size * _EPS * mean) ** 2:
        return 0.0
    var_short = _mean_and_variance(errors[-(cfg.tau_n + 1) :])[1]
    quant = _cached_f_quantile(float(cfg.tau_n), float(cfg.tau_d), 1.0 - cfg.alpha)
    return math.sqrt(var_short / var_long) - math.sqrt(quant)


def _mean_and_variance(x: np.ndarray) -> tuple[float, float]:
    """Mean m and unbiased variance d'd / (N - 1) of the centred samples
    d = x - m."""
    m = float(x.sum()) / x.size
    d = x - m
    return m, float(d.dot(d)) / (x.size - 1)


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
    """Test statistic g for vector outputs (p > 1), in one pass.

    Channels constant over the long window carry no evidence and are left
    out; the rest are scaled to unit long-window variance, so that g does
    not depend on the errors' scale.  In the eigenbasis (lambda_i, v_i) of
    their long-window correlation, tr((Sigma_long + ridge I)^-1 Sigma_short)
    is the sum of var_short(errors v_i) / (var_long(errors v_i) + ridge)
    over the non-collinear directions; p is their count, and one live
    channel or direction takes the scalar test.  var_long(errors v_i) is
    lambda_i, read from the projection: eigh's lambda_i is off by about
    eps lambda_max, which near the rank floor is not small against it.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.shape[0] != cfg.tau_d + 1:
        raise ValueError(
            f"need a ({cfg.tau_d + 1}, p) error window, got {errors.shape}"
        )
    mean, var = errors.mean(axis=0), errors.var(axis=0, ddof=1)
    # the scalar test's constant-window guard, per channel
    live = np.flatnonzero(var > _VAR_FLOOR + (errors.shape[0] * _EPS * mean) ** 2)
    if live.size == 0:
        return 0.0
    if live.size == 1:
        return forgetting_statistic_scalar(errors[:, live[0]], cfg)
    # unit long-window variances make the rank floor and the ridge relative
    errors = errors[:, live] / np.sqrt(var[live])
    lam, vec = np.linalg.eigh(np.cov(errors, rowvar=False, ddof=1))
    keep = lam > _RANK_RTOL * lam[-1]
    errors = errors.dot(vec[:, keep])
    p = errors.shape[1]
    if p == 1:
        return forgetting_statistic_scalar(errors[:, 0], cfg)
    var_long = errors.var(axis=0, ddof=1)
    ratio = errors[-(cfg.tau_n + 1) :].var(axis=0, ddof=1) / (var_long + _COV_RIDGE)
    _, b, c = multivariable_dof(p, cfg)
    stat = cfg.tau_n / (c * cfg.tau_d) * float(ratio.sum())
    quant = _cached_f_quantile(float(p * cfg.tau_n), float(b), 1.0 - cfg.alpha)
    return float(np.sqrt(stat) - np.sqrt(quant))


def compute_beta(g: float, cfg: ForgettingConfig) -> float:
    """Covariance inflation beta_k = 1/lambda_k >= 1 for the statistic g:
    only positive g (short-window variance significantly larger) forgets."""
    return 1.0 + cfg.eta * max(g, 0.0)


def rls_update(
    state: RlsState, phi: np.ndarray, y: np.ndarray, cfg: ForgettingConfig
) -> RlsState:
    """One RLS step: record the a-priori error, pick beta, update P and Theta.

    The matrix form, for the d entries of ``phi`` and the p of ``y``: with
    the scalar s = 1/beta + phi' P phi, P_next = beta (P - P phi phi' P / s)
    and Theta_next = Theta + P_next phi e'.

    The identification error entering the F-test window is the pre-update
    residual e_k = y_k - Theta_k' phi_k, and the window includes the current
    step before beta is computed.  Until the long window has filled once,
    beta is 1 and no test runs.  The returned state keeps e_k (the newest
    row of its window), beta and the statistic g.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if (phi.size, y.size) != state.theta.shape:
        raise ValueError(f"regressor and output sizes ({phi.size}, {y.size}) do not "
                         f"match theta {state.theta.shape}")
    if not all(map(math.isfinite, y.tolist())):
        raise NumericalError(f"non-finite measured output y = {y}")
    e = y - phi.dot(state.theta)

    window = np.concatenate((state.error_window[1:], e[None]))
    beta, g = 1.0, None
    if state.step >= cfg.tau_d:
        g = (forgetting_statistic_scalar(window[:, 0], cfg) if y.size == 1
             else forgetting_statistic_multivariable(window, cfg))
        beta = compute_beta(g, cfg)

    gain = state.psi.dot(phi)
    s = 1.0 / beta + float(phi.dot(gain))
    if not 0.0 < s < math.inf:
        raise NumericalError("RLS inner term 1/beta + phi' P phi is not positive")
    psi_next = state.psi - gain[:, None].dot(gain[None] / s)
    if beta != 1.0:  # x * 1.0 == x: without forgetting the pass changes nothing
        psi_next *= beta
    psi_next = 0.5 * (psi_next + psi_next.T)
    if not np.isfinite(psi_next).all() or psi_next.diagonal().min() <= 0:
        raise NumericalError("RLS covariance lost positive definiteness")
    theta_next = state.theta + psi_next.dot(phi[:, None].dot(e[None]))
    if not np.isfinite(theta_next).all():
        raise NumericalError("RLS estimate diverged")
    return RlsState(theta_next, psi_next, window, state.step + 1, beta, g)
