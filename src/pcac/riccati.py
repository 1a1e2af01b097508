"""Receding-horizon optimization via a backward Riccati sweep.

The finite-horizon quadratic cost is minimized by sweeping the Riccati
recursion backward from the terminal weight; only the matrix reaching the
first prediction step is kept, from which the first-step feedback gain
follows.  The sweep carries each stage's one-step cost Hessian
Z'PZ + diag(0, R2), Z = [A | B], rather than P, so that a stage is one
gain and three matrix products.  The requested control is then clamped to
the actuator range.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

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
        if self.ell < 1:
            raise ValueError("horizon ell must be >= 1")
        for name in ("R1", "R2", "P_terminal"):
            object.__setattr__(self, name, _read_only(getattr(self, name), 2))
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {shape}")
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
    """Scratch of :func:`riccati_backward` and :func:`control_gain`, given to
    them as ``out``: made once for an n-state, m-input model and written in
    place by every call.

    Two stacked (2k x k) buffers, k = n + m, hold W = [Z; KZ; Z; [0 | I]]
    and V = [M W[:k]; R1 Z; [0 | R2]], so that one product W'V is the next
    M = W[:k]' M W[:k] + Z'R1Z + diag(0, R2).  Z = [A | B], W's third
    block, is read by both functions.  A call whose A and B are Z's own
    column blocks ``self.A`` and ``self.B`` (an identity test) reads Z as it
    stands, so the realization can be written there; other A and B are
    copied in.  W's [0 | I] and the zeros beside V's R2 are written here,
    R2 by every call, and W's first Z and V's R1 Z by every sweep; M, the
    gain K, P and the returned P2 are scratch.
    """

    __slots__ = ("Z", "A", "B", "W", "V", "M", "K", "P", "P2", "_gain", "_w_z",
                 "_w_kz", "_w_top", "_v_top", "_v_z", "_v_r2", "_w_low", "_v_low")

    def __init__(self, n: int, m: int):
        k = n + m
        self.W, self.V = np.zeros((2 * k, k)), np.zeros((2 * k, k))
        self.M, self.K = np.empty((k, k)), np.empty((m, n))
        self.P, self.P2 = np.empty((n, n)), np.empty((n, n))
        self.W[k + n :, n:] = np.eye(m)
        self.Z = self.W[k : k + n]
        self.A, self.B = self.Z[:, :n], self.Z[:, n:]
        self._gain = _gain_into(self.M, n, self.K)
        self._w_z, self._w_kz, self._w_top = self.W[:n], self.W[n:k], self.W[:k]
        self._v_top, self._v_z, self._v_r2 = self.V[:k], self.V[k:-m], self.V[-m:, n:]
        self._w_low, self._v_low = self.W[k:].T, self.V[k:]

    @classmethod
    def like(cls, A, B) -> "SweepBuffers":
        """Buffers sized for the model (A, B); B may be flat, one entry per
        row of A."""
        A = np.atleast_2d(np.asarray(A, float))
        return cls(A.shape[0], np.size(B) // A.shape[0])

    def hessian(self, A, B, R2: np.ndarray, P: np.ndarray) -> np.ndarray:
        """M = Z'PZ + diag(0, R2), with [A | B] in Z and R2 in V, as the
        product of W's and V's last two blocks."""
        if R2.shape != self._v_r2.shape:
            raise ValueError(f"R2 must be {self._v_r2.shape} for a B with "
                             f"{self.B.shape[1]} columns, got {R2.shape}")
        np.copyto(self._v_r2, R2)
        if A is not self.A or B is not self.B:
            A = np.atleast_2d(np.asarray(A, float))
            B = np.asarray(B, float).reshape(A.shape[0], -1)
            if A.shape != self.A.shape or B.shape != self.B.shape:
                raise ValueError(
                    f"A {A.shape} and B {B.shape} do not match the buffers' "
                    f"{self.A.shape} and {self.B.shape}"
                )
            self.A[...] = A
            self.B[...] = B
        P.dot(self.Z, self._v_z)
        return self._w_low.dot(self._v_low, self.M)


def riccati_backward(
    A: np.ndarray, B: np.ndarray, w: HorizonWeights, out: SweepBuffers | None = None
) -> np.ndarray:
    """Sweep the Riccati recursion backward over the horizon.

    Starting from the terminal weight, iterates

        P_j = R1 + K_j' R2 K_j + (A + B K_j)' P_{j+1} (A + B K_j),
        K_j = -(R2 + B' P_{j+1} B)^{-1} B' P_{j+1} A,

    down to the second prediction step and returns that matrix,
    symmetrized (``out.P2`` when given ``out``).  The sweep carries
    M_j = Z' P_{j+1} Z + diag(0, R2), Z = [A | B], rather than P: with
    W = [Z; K_j Z], M_{j-1} = W' M_j W + Z' R1 Z + diag(0, R2), and the
    last step reads P_2 = M_aa + M_ab K + R1.  No iterate is stored.
    """
    if out is None:
        out = SweepBuffers.like(A, B)
    R1, n = w.R1, out.P.shape[0]
    if R1.shape != (n, n) or w.P_terminal.shape != (n, n):
        raise ValueError(
            f"R1 {R1.shape} and P_terminal {w.P_terminal.shape} must be "
            f"({n}, {n}) for A's {n} states"
        )
    P, Z, gain = w.P_terminal, out.Z, out._gain
    M = out.hessian(A, B, w.R2, P)
    if w.ell > 1:
        np.copyto(out._w_z, Z)
        R1.dot(Z, out._v_z)
        W_t, W_kz, W_top, V, V_top = out.W.T, out._w_kz, out._w_top, out.V, out._v_top
        # ndarray.dot, not np.dot or @: on these 11x11 operands all three
        # make the same BLAS call, with bit-identical results, but the method
        # skips the __array_function__ dispatcher, and the step's cost is
        # dispatch rather than arithmetic.
        for _ in range(w.ell - 2):
            gain().dot(Z, W_kz)
            M.dot(W_top, V_top)
            W_t.dot(V, M)
        P = M[:n, n:].dot(gain(), out.P)
        P += M[:n, :n]
        P += R1
    P2 = np.add(P, P.T, out=out.P2)
    P2 *= 0.5
    if not np.isfinite(P2).all():
        raise NumericalError("Riccati sweep diverged")
    return P2


def control_gain(
    A: np.ndarray,
    B: np.ndarray,
    R2: np.ndarray,
    P2: np.ndarray,
    out: SweepBuffers | None = None,
) -> np.ndarray:
    """First-step feedback gain K = -(R2 + B'P2B)^{-1} B'P2A, read from
    Z'P2Z + diag(0, R2) as in the sweep (``out.K`` when given ``out``)."""
    R2 = np.atleast_2d(np.asarray(R2, float))
    if out is None:
        out = SweepBuffers.like(A, B)
    out.hessian(A, B, R2, P2)
    return out._gain()


def saturate(u_req: np.ndarray, b: SaturationBounds) -> np.ndarray:
    """Componentwise clamp of the requested control to the actuator range."""
    u_req = np.atleast_1d(np.asarray(u_req, float))
    return np.minimum(np.maximum(u_req, b.u_min), b.u_max)
