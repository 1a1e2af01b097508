"""Receding-horizon optimization via a backward Riccati sweep.

The finite-horizon quadratic cost is minimized by sweeping the Riccati
recursion backward from the terminal weight; only the matrix reaching the
first prediction step is kept, from which the first-step feedback gain
follows.  The requested control is then clamped to the actuator range.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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
        for name in ("R1", "R2", "P_terminal"):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {shape}")
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


def _gamma_into(
    M: np.ndarray, n: int, R2: np.ndarray, out: np.ndarray
) -> Callable[[], np.ndarray]:
    """A function of no arguments that computes
    Gamma = (R2 + B'PB)^{-1} B'PA from the current contents of the one
    product M = Z'PZ = [[A'PA, A'PB], [B'PA, B'PB]] and writes it into
    ``out`` (m x n), guarding against an inner matrix that is not positive
    definite or is ill-conditioned.  The views and constants it reads are
    taken here, once per sweep, not once per iteration.

    For one input this is a checked division.  Otherwise the checks read the
    eigenvalues of the symmetric part, but the solve uses R2 + B'PB as
    computed: the sweep leaves its iterates unsymmetrized, and dropping the
    rounding-level asymmetry from the solve (as a Cholesky solve would) lets
    that asymmetry grow through the open-loop A instead of decaying through
    the closed loop.
    """
    m = M.shape[0] - n
    if R2.shape != (m, m):
        raise ValueError(
            f"R2 must be ({m}, {m}) for a B with {m} columns, got {R2.shape}"
        )
    M_ba = M[n:, :n]
    if m == 1:
        r2 = R2.item(0, 0)

        def gamma() -> np.ndarray:
            s = r2 + M.item(n, n)
            if not 0.0 < s < math.inf:
                raise NumericalError("R2 + B'PB is not positive definite")
            return np.divide(M_ba, s, out=out)

        return gamma

    M_bb = M[n:, n:]

    def gamma() -> np.ndarray:
        S = R2 + M_bb
        lam = np.linalg.eigvalsh(0.5 * (S + S.T))
        if not lam[0] > 0.0:
            raise NumericalError("R2 + B'PB is not positive definite")
        if lam[-1] > _COND_LIMIT * lam[0]:
            raise NumericalError("R2 + B'PB is ill-conditioned")
        out[...] = np.linalg.solve(S, M_ba)
        return out

    return gamma


def _stack_ab(A, B) -> tuple[np.ndarray, int]:
    """Z = [A | B] and the state dimension n."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.asarray(B, float).reshape(A.shape[0], -1)
    return np.concatenate((A, B), axis=1), A.shape[0]


def riccati_backward(A: np.ndarray, B: np.ndarray, w: HorizonWeights) -> np.ndarray:
    """Sweep the Riccati recursion backward over the horizon.

    Starting from the terminal weight, iterates

        P_j = A' P_{j+1} A - A' P_{j+1} B Gamma_j + R1,
        Gamma_j = (R2 + B' P_{j+1} B)^{-1} B' P_{j+1} A,

    down to the second prediction step and returns that matrix,
    symmetrized; intermediate iterates are never stored.
    """
    Z, n = _stack_ab(A, B)
    R1, R2 = w.R1, w.R2
    if R1.shape != (n, n) or w.P_terminal.shape != (n, n):
        raise ValueError(
            f"R1 {R1.shape} and P_terminal {w.P_terminal.shape} must be "
            f"({n}, {n}) for A's {n} states"
        )
    # Scratch written in place by every iteration: P, Y = PZ, M = Z'PZ,
    # Gamma and the rank-m term O = A'PB Gamma.
    k = Z.shape[1]
    P = w.P_terminal.copy()
    Y, M = np.empty_like(Z), np.empty((k, k))
    G, O = np.empty((k - n, n)), np.empty((n, n))
    Z_t, M_aa, M_ab = Z.T, M[:n, :n], M[:n, n:]
    gamma = _gamma_into(M, n, R2, G)
    # ndarray.dot, not np.dot or @: on these 10x11 operands all three make
    # the same BLAS call, with bit-identical results, but the method skips
    # the __array_function__ dispatcher, and the step's cost is dispatch
    # rather than arithmetic.
    for _ in range(w.ell - 1):
        Z_t.dot(P.dot(Z, Y), M)
        M_ab.dot(gamma(), O)
        np.subtract(M_aa, O, out=P)
        P += R1
    P = 0.5 * (P + P.T)
    if not np.isfinite(P).all():
        raise NumericalError("Riccati sweep diverged")
    return P


def control_gain(
    A: np.ndarray, B: np.ndarray, R2: np.ndarray, P2: np.ndarray
) -> np.ndarray:
    """First-step feedback gain K = -(R2 + B'P2B)^{-1} B'P2A."""
    Z, n = _stack_ab(A, B)
    R2 = np.atleast_2d(np.asarray(R2, float))
    G = np.empty((Z.shape[1] - n, n))
    return -_gamma_into(Z.T.dot(P2.dot(Z)), n, R2, G)()


def saturate(u_req: np.ndarray, b: SaturationBounds) -> np.ndarray:
    """Componentwise clamp of the requested control to the actuator range."""
    u_req = np.atleast_1d(np.asarray(u_req, float))
    return np.minimum(np.maximum(u_req, b.u_min), b.u_max)
