"""ARX input-output model and its block observable canonical form (BOCF).

The model relates the current output to the last ``n_hat`` outputs and
inputs,

    y_k = -sum_i F_i y_{k-i} + sum_i G_i u_{k-i},

with coefficient matrices F_i (p x p) and G_i (p x m) stacked into a single
parameter vector theta = [vec[F_1 ... F_n] ; vec[G_1 ... G_n]].  The same
coefficients define a block-companion state-space realization whose state is
an explicit function of past data, which is what makes full-state receding
horizon control implementable from output measurements alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelDims:
    """Model order and signal dimensions."""

    n_hat: int
    p: int = 1
    m: int = 1

    def __post_init__(self):
        if self.n_hat < 1:
            raise ValueError("model order n_hat must be >= 1")
        if self.p < 1 or self.m < 1:
            raise ValueError("signal dimensions p, m must be >= 1")

    @property
    def n_theta(self) -> int:
        """Length of the stacked parameter vector."""
        return self.n_hat * self.p * (self.m + self.p)

    @property
    def n_state(self) -> int:
        """Dimension of the BOCF state."""
        return self.n_hat * self.p


class IoHistory:
    """Fixed-length buffer of the ``n_hat`` most recent outputs and inputs.

    Row 0 of ``y_past``/``u_past`` holds the newest sample (y_{k-1}, u_{k-1})
    and row n_hat-1 the oldest; pre-start samples are zero, matching the
    model's zero initialization.  Each signal is stored below n_hat-1 zero
    rows (len // 2 of its 2*n_hat-1), the padding :func:`compute_bocf_state`
    reads.  ``push`` returns a new history; instances are immutable values.
    """

    __slots__ = ("_y", "_u")

    def __init__(self, y_past: np.ndarray, u_past: np.ndarray):
        y_past = np.atleast_2d(np.asarray(y_past, dtype=float))
        u_past = np.atleast_2d(np.asarray(u_past, dtype=float))
        if y_past.shape[0] != u_past.shape[0]:
            raise ValueError("output and input history lengths differ")
        pad = y_past.shape[0] - 1
        self._y = np.concatenate((np.zeros((pad, y_past.shape[1])), y_past))
        self._u = np.concatenate((np.zeros((pad, u_past.shape[1])), u_past))

    @classmethod
    def zeros(cls, dims: ModelDims) -> "IoHistory":
        return cls(np.zeros((dims.n_hat, dims.p)), np.zeros((dims.n_hat, dims.m)))

    @property
    def y_past(self) -> np.ndarray:
        return self._y[len(self._y) // 2 :]

    @property
    def u_past(self) -> np.ndarray:
        return self._u[len(self._u) // 2 :]

    def push(self, y: np.ndarray, u: np.ndarray) -> "IoHistory":
        """Shift in (y_k, u_k), dropping the oldest pair."""
        y = np.asarray(y, dtype=float).reshape(1, -1)
        u = np.asarray(u, dtype=float).reshape(1, -1)
        new, pad = IoHistory.__new__(IoHistory), len(self._y) // 2
        new._y = np.concatenate((self._y[:pad], y, self._y[pad:-1]))
        new._u = np.concatenate((self._u[:pad], u, self._u[pad:-1]))
        return new

    def check_dims(self, dims: ModelDims) -> None:
        if self.y_past.shape != (dims.n_hat, dims.p):
            raise ValueError(
                f"output history shape {self.y_past.shape} does not match "
                f"({dims.n_hat}, {dims.p})"
            )
        if self.u_past.shape != (dims.n_hat, dims.m):
            raise ValueError(
                f"input history shape {self.u_past.shape} does not match "
                f"({dims.n_hat}, {dims.m})"
            )


def build_regressor(history: IoHistory, dims: ModelDims) -> np.ndarray:
    """Regressor phi_k = [-y_{k-1}' ... -y_{k-n}'  u_{k-1}' ... u_{k-n}'] kron I_p.

    Returns a (p, n_hat*p*(m+p)) matrix such that phi_k @ theta reproduces
    the ARX prediction for the stacked coefficient layout.
    """
    history.check_dims(dims)
    row = np.concatenate([-history.y_past.ravel(), history.u_past.ravel()])
    return (np.eye(dims.p)[:, None, :] * row[:, None]).reshape(dims.p, -1)


def predict_output(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One-step prediction y_hat = phi @ theta."""
    theta = np.asarray(theta, dtype=float)
    if phi.shape[1] != theta.shape[0]:
        raise ValueError(
            f"regressor width {phi.shape[1]} does not match theta length "
            f"{theta.shape[0]}"
        )
    return phi @ theta


def split_coefficients(theta: np.ndarray, dims: ModelDims):
    """Unpack theta into coefficient stacks F (n_hat, p, p) and G (n_hat, p, m).

    The layout is column-major vec of the horizontal concatenations
    [F_1 ... F_n] and [G_1 ... G_n], so each F_i and G_i occupies a
    contiguous run of theta.  F and G are views of theta.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dims.n_theta,):
        raise ValueError(
            f"theta length {theta.shape} does not match expected ({dims.n_theta},)"
        )
    n, p, m = dims.n_hat, dims.p, dims.m
    F = theta[: n * p * p].reshape(n, p, p).transpose(0, 2, 1)
    G = theta[n * p * p :].reshape(n, m, p).transpose(0, 2, 1)
    return F, G


def pack_coefficients(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_coefficients`."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    return np.concatenate([F.transpose(0, 2, 1).ravel(), G.transpose(0, 2, 1).ravel()])


def assemble_bocf(theta_next: np.ndarray, dims: ModelDims):
    """Build (A, B, C) of the block observable canonical form.

    ``theta_next`` holds the coefficient estimate used for the realization
    at the current step (the freshly updated one).  A is block companion
    with -F_i in the first block column and identity superdiagonal blocks,
    B stacks the G_i, and C reads the first state block.
    """
    F, G = split_coefficients(theta_next, dims)
    n, p, m = dims.n_hat, dims.p, dims.m
    A = np.eye(n * p, k=p)
    A[:, :p] = -F.reshape(n * p, p)
    return A, G.reshape(n * p, m), np.eye(p, n * p)


def compute_bocf_state(
    history: IoHistory, y_now: np.ndarray, theta_next: np.ndarray, dims: ModelDims
) -> np.ndarray:
    """Explicit BOCF state at the current step.

    Block 1 is the current measurement; block j >= 2 collects the tail of
    the ARX convolution not yet absorbed into the output:

        x(j) = -sum_{i=1}^{n-j+1} F_{i+j-1} y_{k-i} + sum G_{i+j-1} u_{k-i}.

    Blocks 2..n come from one block-Toeplitz product: block j pairs lag
    l = 0..n-1 (coefficients F_{l+1}, G_{l+1}) with history row l-j+1
    (row 0 is the newest sample) and reads zero padding where that row
    index is negative.
    """
    history.check_dims(dims)
    y_now = np.asarray(y_now, dtype=float).reshape(-1)
    if y_now.shape != (dims.p,):
        raise ValueError(f"y_now shape {y_now.shape} does not match p={dims.p}")
    n, p, m = dims.n_hat, dims.p, dims.m
    F, G = split_coefficients(theta_next, dims)
    # Row j-2 of each lag matrix is the padded window of history rows 1-j..n-j,
    # a view with the buffer's own strides (one buffer row per row), copied
    # C-contiguous because a strided operand changes the BLAS summation order.
    y_lag, u_lag = (
        np.ascontiguousarray(
            np.ndarray((n - 1, n * buf.shape[1]), buffer=buf, strides=buf.strides)[::-1]
        )
        for buf in (history._y, history._u)
    )
    tail = (
        u_lag @ G.transpose(0, 2, 1).reshape(n * m, p)
        - y_lag @ F.transpose(0, 2, 1).reshape(n * p, p)
    )
    return np.concatenate([y_now, tail.ravel()])
