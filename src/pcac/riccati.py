"""Receding-horizon optimization via a backward Riccati sweep.

The finite-horizon quadratic cost is minimized by sweeping the Riccati
recursion backward from the terminal weight; only the matrix reaching the
first prediction step is kept, from which the first-step feedback gain
follows.  The requested control is then clamped to the actuator range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import NumericalError

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class HorizonWeights:
    """Horizon length, stage weights, and terminal weight."""

    ell: int
    R1: np.ndarray
    R2: np.ndarray
    P_terminal: np.ndarray

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "R1", np.atleast_2d(np.asarray(self.R1, float)))
        object.__setattr__(self, "R2", np.atleast_2d(np.asarray(self.R2, float)))
        object.__setattr__(
            self, "P_terminal", np.atleast_2d(np.asarray(self.P_terminal, float))
        )
        _check_symmetric_psd(self.R1, "R1")
        _check_symmetric_psd(self.P_terminal, "P_terminal")
        # The symmetric part, exactly R2 when R2 is symmetric: (R2 + R2.T) / 2
        # overflows above 9e307 and R2 / 2 + R2.T / 2 flushes 5e-324 to zero.
        if np.min(np.linalg.eigvalsh(self.R2 - 0.5 * (self.R2 - self.R2.T))) <= 0:
            raise ValueError("R2 must be positive definite")

    @classmethod
    def output_weighted(cls, n_state: int, m: int, ell: int = 20, r2: float = 1e-2):
        """Weights penalizing only the first state block (the output)."""
        R1 = np.zeros((n_state, n_state))
        R1[0, 0] = 1.0
        return cls(ell=ell, R1=R1, R2=r2 * np.eye(m), P_terminal=R1.copy())


@dataclass(frozen=True)
class SaturationBounds:
    """Componentwise actuator magnitude limits."""

    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "u_min", np.atleast_1d(np.asarray(self.u_min, float))
        )
        object.__setattr__(
            self, "u_max", np.atleast_1d(np.asarray(self.u_max, float))
        )
        if self.u_min.shape != self.u_max.shape:
            raise ValueError("u_min and u_max shapes differ")
        if np.any(self.u_min > self.u_max):
            raise ValueError("u_min must not exceed u_max")

    @classmethod
    def symmetric(cls, level: float, m: int = 1) -> "SaturationBounds":
        return cls(-level * np.ones(m), level * np.ones(m))


def _check_symmetric_psd(M: np.ndarray, name: str) -> None:
    if np.max(np.abs(M - M.T)) > 1e-10 * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) < -1e-10 * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be positive semidefinite")


def _solve_inner(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (R2 + B'PB) x = rhs through a Cholesky factor, guarding
    against ill-conditioning."""
    if S.shape == (1, 1):
        s = S[0, 0]
        if not np.isfinite(s) or s <= 0.0:
            raise NumericalError("R2 + B'PB is not positive definite")
        return rhs / s
    S = 0.5 * (S + S.T)
    try:
        cho = linalg.cho_factor(S, check_finite=False)
    except linalg.LinAlgError as exc:
        raise NumericalError("R2 + B'PB is not positive definite") from exc
    if np.linalg.cond(S) > _COND_LIMIT:
        raise NumericalError("R2 + B'PB is ill-conditioned")
    return linalg.cho_solve(cho, rhs, check_finite=False)


def riccati_backward(A: np.ndarray, B: np.ndarray, w: HorizonWeights) -> np.ndarray:
    """Sweep the Riccati recursion backward over the horizon.

    Starting from the terminal weight, iterates

        P_j = A' P_{j+1} (A - B Gamma_j) + R1,
        Gamma_j = (R2 + B' P_{j+1} B)^{-1} B' P_{j+1} A,

    down to the second prediction step and returns that matrix; intermediate
    iterates are symmetrized each step and never stored.
    """
    A = np.atleast_2d(np.asarray(A, float))
    B = np.asarray(B, float).reshape(A.shape[0], -1)
    P = w.P_terminal
    for _ in range(w.ell - 1):
        BtP = B.T @ P
        gamma = _solve_inner(w.R2 + BtP @ B, BtP @ A)
        P = A.T @ P @ (A - B @ gamma) + w.R1
        P = 0.5 * (P + P.T)
    if not np.all(np.isfinite(P)):
        raise NumericalError("Riccati sweep diverged")
    return P


def control_gain(
    A: np.ndarray, B: np.ndarray, R2: np.ndarray, P2: np.ndarray
) -> np.ndarray:
    """First-step feedback gain K = -(R2 + B'P2B)^{-1} B'P2A."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.asarray(B, float).reshape(A.shape[0], -1)
    R2 = np.atleast_2d(np.asarray(R2, float))
    BtP = B.T @ P2
    return -_solve_inner(R2 + BtP @ B, BtP @ A)


def saturate(u_req: np.ndarray, b: SaturationBounds) -> np.ndarray:
    """Componentwise clamp of the requested control to the actuator range."""
    return np.clip(np.atleast_1d(np.asarray(u_req, float)), b.u_min, b.u_max)
