"""ARX input-output model and its block observable canonical form (BOCF).

The model relates the current output to the last ``n_hat`` outputs and
inputs,

    y_k = -sum_i F_i y_{k-i} + sum_i G_i u_{k-i},

with coefficient matrices F_i (p x p) and G_i (p x m) stacked into a single
parameter vector theta = [vec[F_1 ... F_n] ; vec[G_1 ... G_n]].  The vec is
column-major, so each F_i and G_i occupies a contiguous run of theta:
theta[:n p^2].reshape(n, p, p)[i] is F_{i+1} transposed, and
theta[n p^2:].reshape(n, m, p)[i] is G_{i+1} transposed.  The same
coefficients define a block-companion state-space realization whose state is
an explicit function of past data, which is what makes full-state receding
horizon control implementable from output measurements alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import COUNT, check_fields


@dataclass(frozen=True)
class ModelDims:
    """Model order and signal dimensions."""

    n_hat: int
    p: int = 1
    m: int = 1

    def __post_init__(self):
        check_fields(self, [(name, COUNT) for name in ("n_hat", "p", "m")])

    @property
    def n_theta(self) -> int:
        """Length of the stacked parameter vector."""
        return self.n_hat * self.p * (self.m + self.p)

    @property
    def n_f(self) -> int:
        """Length of vec[F_1 ... F_n], the head of the parameter vector."""
        return self.n_hat * self.p * self.p

    @property
    def n_state(self) -> int:
        """Dimension of the BOCF state."""
        return self.n_hat * self.p


class IoHistory:
    """Fixed-length buffer of the ``n_hat`` most recent outputs and inputs.

    Row 0 of ``y_past`` (n_hat, p) and ``u_past`` (n_hat, m) holds the newest
    sample (y_{k-1}, u_{k-1}) and row n_hat-1 the oldest; pre-start samples
    are zero, matching the model's zero initialization.  Both are copies of
    the caller's arrays, and ``push`` returns a new history: immutable values.
    """

    __slots__ = ("y_past", "u_past")

    def __init__(self, y_past: np.ndarray, u_past: np.ndarray):
        self.y_past = np.array(y_past, dtype=float, ndmin=2)
        self.u_past = np.array(u_past, dtype=float, ndmin=2)
        if self.y_past.shape[0] != self.u_past.shape[0]:
            raise ValueError("output and input history lengths differ")

    @classmethod
    def zeros(cls, dims: ModelDims) -> "IoHistory":
        return cls(np.zeros((dims.n_hat, dims.p)), np.zeros((dims.n_hat, dims.m)))

    def push(self, y: np.ndarray, u: np.ndarray) -> "IoHistory":
        """Shift in (y_k, u_k), dropping the oldest pair."""
        y = np.asarray(y, dtype=float).reshape(1, -1)
        u = np.asarray(u, dtype=float).reshape(1, -1)
        new = IoHistory.__new__(IoHistory)
        new.y_past = np.concatenate((y, self.y_past[:-1]))
        new.u_past = np.concatenate((u, self.u_past[:-1]))
        return new

    def check_dims(self, dims: ModelDims) -> None:
        want = ((dims.n_hat, dims.p), (dims.n_hat, dims.m))
        if (self.y_past.shape, self.u_past.shape) != want:
            raise ValueError(
                f"history shapes {self.y_past.shape} and {self.u_past.shape} "
                f"do not match {want[0]} and {want[1]}"
            )


class ArxBuffers:
    """The arrays that :func:`build_regressor`, :func:`assemble_bocf` and
    :func:`compute_bocf_state` write into, given them as ``out``.

    What the data never changes is written here, once: the zeros of phi
    off its lag columns, the identity superdiagonal blocks of A, and the
    zero rows above the history in the state's lag scratch.  A call then
    writes only the lagged data, -F_i and G_i, or the history and the state,
    and returns arrays that the next call overwrites.  ``A`` and ``B`` are
    the column blocks of the Riccati sweep's Z = [A | B], so that the
    realization is written where the sweep reads it.
    """

    __slots__ = ("phi", "A", "B", "y_lag", "u_lag", "x", "_neg_f", "_g", "_x_blocks",
                 "_rows", "_windows")

    def __init__(self, dims: ModelDims, A: np.ndarray, B: np.ndarray):
        n, p, m = dims.n_hat, dims.p, dims.m
        self.phi = np.zeros((p, dims.n_theta))
        if A.shape != (n * p, n * p) or B.shape != (n * p, m):
            raise ValueError(
                f"A {A.shape} and B {B.shape} must be "
                f"({n * p}, {n * p}) and ({n * p}, {m})"
            )
        self.A, self.B = A, B
        A[...] = np.eye(n * p, k=p)
        # Block i of A's first block column, -F_{i+1}, and of B, G_{i+1}.
        self._neg_f = self.A[:, :p].reshape(n, p, p)
        self._g = self.B.reshape(n, p, m)
        self.y_lag = np.empty((n, n * p))
        self.u_lag = np.empty((n, n * m))
        self.x = np.empty(n * p)
        self._x_blocks = self.x.reshape(n, p)
        # Per signal, a (2n-1, width) scratch whose last n rows take the
        # history, and its fixed Hankel view: row j-1 of the lag matrix is
        # history rows 1-j..n-j, zero where the row index is negative.
        pads = [np.zeros((2 * n - 1, width)) for width in (p, m)]
        self._rows = [pad[n - 1 :] for pad in pads]
        self._windows = [np.ndarray(lag.shape, buffer=pad, strides=pad.strides)[::-1]
                         for pad, lag in zip(pads, (self.y_lag, self.u_lag))]


def _checked_theta(theta: np.ndarray, dims: ModelDims) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dims.n_theta,):
        raise ValueError(
            f"theta length {theta.shape} does not match expected ({dims.n_theta},)"
        )
    return theta


def build_regressor(history: IoHistory, dims: ModelDims, out: ArxBuffers) -> np.ndarray:
    """Regressor phi_k = [-y_{k-1}' ... -y_{k-n}'  u_{k-1}' ... u_{k-n}'] kron I_p.

    Returns a (p, n_hat*p*(m+p)) matrix such that phi_k @ theta reproduces
    the ARX prediction for the stacked coefficient layout: row i holds the
    lagged data in columns i, i + p, i + 2p, ... and zeros elsewhere: it
    is ``out.phi``.
    """
    history.check_dims(dims)
    p, phi, split = dims.p, out.phi, dims.n_f
    for i in range(p):
        np.negative(history.y_past.ravel(), out=phi[i, i:split:p])
        phi[i, split + i :: p] = history.u_past.ravel()
    return phi


def assemble_bocf(theta_next: np.ndarray, dims: ModelDims, out: ArxBuffers):
    """Build (A, B) of the block observable canonical form.

    ``theta_next`` holds the coefficient estimate used for the realization
    at the current step (the freshly updated one).  A is block companion
    with -F_i in the first block column and identity superdiagonal blocks,
    and B stacks the G_i: ``out.A`` and ``out.B``.  The output matrix,
    which reads the first state block, is [I_p 0 ... 0].
    """
    theta = _checked_theta(theta_next, dims)
    n, p, m, split = dims.n_hat, dims.p, dims.m, dims.n_f
    np.negative(theta[:split].reshape(n, p, p).transpose(0, 2, 1), out=out._neg_f)
    out._g[...] = theta[split:].reshape(n, m, p).transpose(0, 2, 1)
    return out.A, out.B


def compute_bocf_state(
    history: IoHistory, theta_next: np.ndarray, dims: ModelDims, out: ArxBuffers
) -> np.ndarray:
    """Explicit BOCF state x_{k+1|k} after the newest pair, ``out.x``.

    Row 0 of ``history`` holds (y_k, u_k).  Block j = 1..n collects the
    part of the ARX convolution that the data up to sample k contribute to
    y_{k+j}:

        x(j) = sum_{r=0}^{n-j} (-F_{r+j} y_{k-r} + G_{r+j} u_{k-r}),

    which is A x_k + B u_k for the state x_k whose first block is y_k.
    All n blocks come from one block-Hankel product per signal: block j
    pairs lag l = 0..n-1 (coefficients F_{l+1}, G_{l+1}) with history row
    l-j+1 and reads zero padding where that row index is negative.
    """
    history.check_dims(dims)
    theta = _checked_theta(theta_next, dims)
    n, p, m, split = dims.n_hat, dims.p, dims.m, dims.n_f
    # The Hankel windows are copied C-contiguous into the lag matrices,
    # because a strided operand changes the BLAS summation order.
    pasts, lags = (history.y_past, history.u_past), (out.y_lag, out.u_lag)
    for rows, past, window, lag in zip(out._rows, pasts, out._windows, lags):
        np.copyto(rows, past)
        np.copyto(lag, window)
    # The stacked F_i' and G_i' are theta's two halves, reshaped.
    blocks = out._x_blocks
    out.u_lag.dot(theta[split:].reshape(n * m, p), blocks)
    blocks -= out.y_lag.dot(theta[:split].reshape(n * p, p))
    return out.x
