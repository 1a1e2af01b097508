"""Receding-horizon optimization via a backward Riccati sweep.

The finite-horizon quadratic cost is minimized by sweeping the Riccati
recursion backward from the terminal weight.  The sweep carries each
stage's one-step cost Hessian Z'PZ + diag(0, R2), Z = [A | B], rather than
P, so that a stage is one gain and three matrix products, and it ends in
the first prediction step's Hessian, from which the first-step feedback
gain is read.  The requested control is then clamped to the actuator
range.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import COUNT, NumericalError, check_fields

_COND_LIMIT = 1e12


def _read_only(a, ndmin: int) -> np.ndarray:
    """A float copy of ``a``, at least ``ndmin``-D, that cannot be written."""
    a = np.array(a, float, ndmin=ndmin)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HorizonWeights:
    """Horizon length, stage weights, and terminal weight (read-only copies)."""

    ell: int
    R1: np.ndarray
    R2: np.ndarray
    P_terminal: np.ndarray

    def __post_init__(self):
        check_fields(self, (("ell", COUNT),))
        for name in ("R1", "R2", "P_terminal"):
            M = _read_only(getattr(self, name), 2)
            object.__setattr__(self, name, M)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
        if self.P_terminal.shape != self.R1.shape:
            raise ValueError(
                f"P_terminal {self.P_terminal.shape} must have R1's shape "
                f"{self.R1.shape}"
            )
        _check_symmetric_psd(self.R1, "R1")
        _check_symmetric_psd(self.P_terminal, "P_terminal")
        # The symmetric part, exactly R2 when R2 is symmetric: (R2 + R2.T) / 2
        # overflows above 9e307 and R2 / 2 + R2.T / 2 flushes 5e-324 to zero.
        if np.min(np.linalg.eigvalsh(self.R2 - 0.5 * (self.R2 - self.R2.T))) <= 0:
            raise ValueError("R2 must be positive definite")

    @classmethod
    def output_weighted(cls, n_state: int, p: int, m: int, ell: int, r2: float):
        """Weights on the first state block, the p outputs: R1 = P_terminal = C'C."""
        R1 = np.zeros((n_state, n_state))
        R1[:p, :p] = np.eye(p)
        return cls(ell=ell, R1=R1, R2=r2 * np.eye(m), P_terminal=R1)


@dataclass(frozen=True)
class SaturationBounds:
    """Componentwise actuator magnitude limits, held as read-only copies."""

    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        for name in ("u_min", "u_max"):
            object.__setattr__(self, name, _read_only(getattr(self, name), 1))
        if self.u_min.shape != self.u_max.shape:
            raise ValueError("u_min and u_max shapes differ")
        if not np.all(self.u_min <= self.u_max):  # also refuses NaN
            raise ValueError(f"need u_min <= u_max, got {self.u_min} and {self.u_max}")

    @classmethod
    def symmetric(cls, level: float, m: int = 1) -> "SaturationBounds":
        return cls(-level * np.ones(m), level * np.ones(m))


def _check_symmetric_psd(M: np.ndarray, name: str) -> None:
    if np.max(np.abs(M - M.T)) > 1e-10 * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(M)) < -1e-10 * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be positive semidefinite")


def _gain_into(M: np.ndarray, n: int, out: np.ndarray) -> Callable[[], np.ndarray]:
    """A function of no arguments that writes the gain K = -S^{-1} M_ba into
    ``out`` (m x n) from the current contents of M = Z'PZ + diag(0, R2) =
    [[M_aa, M_ab], [M_ba, S]], guarding against an S = R2 + B'PB that is not
    positive definite or is ill-conditioned.  Its views are taken here, once
    per set of buffers, not once per call.

    For one input this is a checked division.  Otherwise the checks read the
    eigenvalues of the symmetric part, but the solve uses S as computed: the
    sweep leaves its iterates unsymmetrized, and dropping the rounding-level
    asymmetry from the solve (as a Cholesky solve would) lets that asymmetry
    grow through the open-loop A instead of decaying through the closed loop.
    """
    M_ba = M[n:, :n]
    if out.shape[0] == 1:

        def gain() -> np.ndarray:
            s = M.item(n, n)
            if not 0.0 < s < math.inf:
                raise NumericalError("R2 + B'PB is not positive definite")
            return np.divide(M_ba, -s, out=out)

        return gain

    S = M[n:, n:]

    def gain() -> np.ndarray:
        lam = np.linalg.eigvalsh(0.5 * (S + S.T))
        if not lam[0] > 0.0:
            raise NumericalError("R2 + B'PB is not positive definite")
        if lam[-1] > _COND_LIMIT * lam[0]:
            raise NumericalError("R2 + B'PB is ill-conditioned")
        return np.negative(np.linalg.solve(S, M_ba), out=out)

    return gain


class SweepBuffers:
    """The model and scratch of :func:`riccati_backward` and
    :func:`control_gain`, given to them as ``out``: made once for the
    weights ``w``, whose R1 and R2 give the model's n states and m inputs,
    kept as ``self.weights``, and written in place by every call.

    Two stacked (2k x k) buffers, k = n + m, hold W = [Z; KZ; Z; [0 | I]]
    and V = [M W[:k]; R1 Z; [0 | R2]], so that one product W'V is the next
    M = W[:k]' M W[:k] + Z'R1Z + diag(0, R2); with P_terminal Z for R1 Z,
    that of their last two blocks is the first M.  Z = [A | B], W's third
    block, is the model the sweep reads, as it stands: the caller writes
    it into Z's column blocks ``self.A`` and ``self.B``.  W's [0 | I] and
    V's [0 | R2] are written here, the rest by every sweep, which leaves
    the first stage's Hessian in M for the gain K.
    """

    __slots__ = ("weights", "Z", "A", "B", "W", "V", "M", "K", "_gain", "_w_z",
                 "_w_kz", "_w_top", "_v_top", "_v_z", "_w_low", "_v_low")

    def __init__(self, w: HorizonWeights):
        n, m = w.R1.shape[0], w.R2.shape[0]
        k = n + m
        self.weights = w
        self.W, self.V = np.zeros((2 * k, k)), np.zeros((2 * k, k))
        self.M, self.K = np.empty((k, k)), np.empty((m, n))
        self.W[k + n :, n:] = np.eye(m)
        self.V[k + n :, n:] = w.R2
        self.Z = self.W[k : k + n]
        self.A, self.B = self.Z[:, :n], self.Z[:, n:]
        self._gain = _gain_into(self.M, n, self.K)
        self._w_z, self._w_kz, self._w_top = self.W[:n], self.W[n:k], self.W[:k]
        self._v_top, self._v_z = self.V[:k], self.V[k:-m]
        self._w_low, self._v_low = self.W[k:].T, self.V[k:]


def riccati_backward(out: SweepBuffers) -> np.ndarray:
    """Sweep the Riccati recursion backward over ``out.weights``' horizon,
    for the model Z = [A | B] that ``out`` holds, and return the first
    prediction step's cost Hessian M_1 = Z' P_2 Z + diag(0, R2) as ``out.M``.

    Starting from the terminal weight, the recursion

        P_j = R1 + K_j' R2 K_j + (A + B K_j)' P_{j+1} (A + B K_j),
        K_j = -(R2 + B' P_{j+1} B)^{-1} B' P_{j+1} A,

    is carried as M_j = Z' P_{j+1} Z + diag(0, R2) rather than as P: with
    W = [Z; K_j Z], M_{j-1} = W' M_j W + Z' R1 Z + diag(0, R2).  The sweep
    makes ell - 1 such stages from M_ell = Z' P_terminal Z + diag(0, R2),
    none for ell = 1, stores no iterate and symmetrizes none, M_1 included.
    """
    w, Z, M, gain = out.weights, out.Z, out.M, out._gain
    w.P_terminal.dot(Z, out._v_z)
    out._w_low.dot(out._v_low, M)
    # the stages' Z and R1 Z; for ell = 1, scratch that nothing reads
    np.copyto(out._w_z, Z)
    w.R1.dot(Z, out._v_z)
    W_t, W_kz, W_top, V, V_top = out.W.T, out._w_kz, out._w_top, out.V, out._v_top
    # ndarray.dot, not np.dot or @: on these 11x11 operands all three make
    # the same BLAS call, with bit-identical results, but the method skips
    # the __array_function__ dispatcher, and the step's cost is dispatch
    # rather than arithmetic.
    for _ in range(w.ell - 1):
        gain().dot(Z, W_kz)
        M.dot(W_top, V_top)
        W_t.dot(V, M)
    if not np.isfinite(M).all():
        raise NumericalError("Riccati sweep diverged")
    return M


def control_gain(out: SweepBuffers) -> np.ndarray:
    """First-step feedback gain K = -(R2 + B'P_2B)^{-1} B'P_2A, read from
    the Hessian M_1 = Z'P_2Z + diag(0, R2) that :func:`riccati_backward`
    left in ``out``: ``out.K``."""
    return out._gain()


def saturate(u_req: np.ndarray, b: SaturationBounds) -> np.ndarray:
    """Componentwise clamp of the requested control to the actuator range."""
    u_req = np.atleast_1d(np.asarray(u_req, float))
    return np.minimum(np.maximum(u_req, b.u_min), b.u_max)
