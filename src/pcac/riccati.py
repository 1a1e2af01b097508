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
    def output_weighted(cls, n_state: int, m: int, ell: int = 20, r2: float = 1e-2):
        """Weights penalizing only the first state block (the output)."""
        R1 = np.zeros((n_state, n_state))
        R1[0, 0] = 1.0
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


def _gamma_into(
    M: np.ndarray, n: int, R2: np.ndarray, out: np.ndarray
) -> Callable[[], np.ndarray]:
    """A function of no arguments that computes
    Gamma = (R2 + B'PB)^{-1} B'PA from the current contents of the one
    product M = Z'PZ = [[A'PA, A'PB], [B'PA, B'PB]] and writes it into
    ``out`` (m x n), guarding against an inner matrix that is not positive
    definite or is ill-conditioned.  The views and constants it reads are
    taken here, once per set of buffers, not once per call.

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


class SweepBuffers:
    """Scratch of :func:`riccati_backward` and :func:`control_gain`, given to
    them as ``out``: made once for an n-state, m-input model and written in
    place by every call.

    Z = [A | B] is read by both.  A call whose A and B are this Z's own
    column blocks ``self.A`` and ``self.B`` (an identity test) reads Z as
    it stands, so the realization can be written there; any other A and B
    are copied in.  The scratch is P, Y = PZ, M = Z'PZ, Gamma, the rank-m
    term O and the returned P2, with Gamma computed by one function of M
    made for the R2 it was last called with, told apart by identity (so
    ``HorizonWeights`` holds R2 read-only).
    """

    __slots__ = ("Z", "A", "B", "P", "Y", "M", "G", "O", "P2",
                 "_z_t", "_m_aa", "_m_ab", "_r2", "_gamma")

    def __init__(self, n: int, m: int, R2: np.ndarray):
        k = n + m
        self.Z, self.Y, self.M = np.empty((n, k)), np.empty((n, k)), np.empty((k, k))
        self.P, self.O, self.P2 = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
        self.G = np.empty((m, n))
        self.A, self.B = self.Z[:, :n], self.Z[:, n:]
        self._z_t, self._m_aa, self._m_ab = self.Z.T, self.M[:n, :n], self.M[:n, n:]
        self._r2 = None
        self._hold_r2(R2)

    @classmethod
    def like(cls, A, B, R2: np.ndarray) -> "SweepBuffers":
        """Buffers sized for the model (A, B); B may be flat, one entry per
        row of A."""
        A = np.atleast_2d(np.asarray(A, float))
        return cls(A.shape[0], np.size(B) // A.shape[0], R2)

    def _hold_r2(self, R2: np.ndarray) -> None:
        if R2 is not self._r2:
            self._gamma = _gamma_into(self.M, self.A.shape[0], R2, self.G)
            self._r2 = R2

    def hold(self, A, B, R2: np.ndarray) -> np.ndarray:
        """Z holding [A | B], with Gamma made for R2."""
        self._hold_r2(R2)
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
        return self.Z


def riccati_backward(
    A: np.ndarray, B: np.ndarray, w: HorizonWeights, out: SweepBuffers | None = None
) -> np.ndarray:
    """Sweep the Riccati recursion backward over the horizon.

    Starting from the terminal weight, iterates

        P_j = A' P_{j+1} A - A' P_{j+1} B Gamma_j + R1,
        Gamma_j = (R2 + B' P_{j+1} B)^{-1} B' P_{j+1} A,

    down to the second prediction step and returns that matrix,
    symmetrized (``out.P2`` when given ``out``); intermediate iterates are
    never stored.
    """
    if out is None:
        out = SweepBuffers.like(A, B, w.R2)
    Z, R1 = out.hold(A, B, w.R2), w.R1
    n = Z.shape[0]
    if R1.shape != (n, n) or w.P_terminal.shape != (n, n):
        raise ValueError(
            f"R1 {R1.shape} and P_terminal {w.P_terminal.shape} must be "
            f"({n}, {n}) for A's {n} states"
        )
    # Each iteration writes P, Y = PZ, M = Z'PZ, Gamma and O = A'PB Gamma.
    P, Y, M, O = out.P, out.Y, out.M, out.O
    Z_t, M_aa, M_ab, gamma = out._z_t, out._m_aa, out._m_ab, out._gamma
    np.copyto(P, w.P_terminal)
    # ndarray.dot, not np.dot or @: on these 10x11 operands all three make
    # the same BLAS call, with bit-identical results, but the method skips
    # the __array_function__ dispatcher, and the step's cost is dispatch
    # rather than arithmetic.
    for _ in range(w.ell - 1):
        Z_t.dot(P.dot(Z, Y), M)
        M_ab.dot(gamma(), O)
        np.subtract(M_aa, O, out=P)
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
    Z'P2Z as in the sweep (in ``out``'s scratch when given)."""
    R2 = np.atleast_2d(np.asarray(R2, float))
    if out is None:
        out = SweepBuffers.like(A, B, R2)
    Z = out.hold(A, B, R2)
    out._z_t.dot(P2.dot(Z, out.Y), out.M)
    return -out._gamma()


def saturate(u_req: np.ndarray, b: SaturationBounds) -> np.ndarray:
    """Componentwise clamp of the requested control to the actuator range."""
    u_req = np.atleast_1d(np.asarray(u_req, float))
    return np.minimum(np.maximum(u_req, b.u_min), b.u_max)
