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
    """The ``n_hat`` most recent outputs and inputs, held as the regressor
    phi = [-y_{k-1}' ... -y_{k-n}'  u_{k-1}' ... u_{k-n}'] of d = n_hat (p+m)
    entries for every p: newest first, y negated.  Made from ``outputs``
    (n_hat, p) and ``inputs`` (n_hat, m), newest row first; pre-start samples
    are zero, matching the model's zero initialization.  ``push`` returns a
    new history: immutable values.
    """

    __slots__ = ("phi", "dims")

    def __init__(self, outputs: np.ndarray, inputs: np.ndarray):
        outputs = np.array(outputs, dtype=float, ndmin=2)
        inputs = np.array(inputs, dtype=float, ndmin=2)
        if outputs.shape[0] != inputs.shape[0]:
            raise ValueError("output and input history lengths differ")
        self.dims = ModelDims(*outputs.shape, inputs.shape[1])
        self.phi = np.concatenate((-outputs.ravel(), inputs.ravel()))

    @classmethod
    def zeros(cls, dims: ModelDims) -> "IoHistory":
        return cls(np.zeros((dims.n_hat, dims.p)), np.zeros((dims.n_hat, dims.m)))

    def push(self, y: np.ndarray, u: np.ndarray) -> "IoHistory":
        """Shift (y_k, u_k) into both blocks of phi, dropping the oldest pair."""
        y = np.asarray(y, dtype=float).reshape(-1)
        u = np.asarray(u, dtype=float).reshape(-1)
        split, p, m = self.dims.n_state, self.dims.p, self.dims.m
        if (y.size, u.size) != (p, m):
            raise ValueError(f"sample sizes ({y.size}, {u.size}) do not match ({p}, {m})")
        new = IoHistory.__new__(IoHistory)
        new.dims, phi = self.dims, self.phi
        new.phi = np.concatenate((-y, phi[: split - p], u, phi[split:-m]))
        return new

    def check_dims(self, dims: ModelDims) -> None:
        if self.dims != dims:
            raise ValueError(f"history dimensions {self.dims} do not match {dims}")


class ArxBuffers:
    """The arrays that :func:`assemble_bocf` and :func:`compute_bocf_state`
    write into, given them as ``out``.

    What the data never changes is written here, once: the identity
    superdiagonal blocks of A, and the entry of phi that each entry of the
    state's lag matrix takes.  A call then writes only -F_i and G_i, or the
    history and the state, and returns arrays that the next call
    overwrites.  ``A`` and ``B`` are the column blocks of the Riccati
    sweep's Z = [A | B], so that the realization is written where the
    sweep reads it.
    """

    __slots__ = ("A", "B", "lag", "x", "_neg_f", "_g", "_x_blocks", "_padded", "_index")

    def __init__(self, dims: ModelDims, A: np.ndarray, B: np.ndarray):
        n, p, m = dims.n_hat, dims.p, dims.m
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
        d = n * (p + m)
        self.lag = np.empty((n, d))
        self.x = np.empty(n * p)
        self._x_blocks = self.x.reshape(n, p)
        # phi and a zero after it; row r of the lag matrix takes, in each
        # signal's block, lag l from phi's lag l - r, or the zero when l < r.
        self._padded = np.zeros(d + 1)
        lag_of = np.concatenate((np.repeat(np.arange(n), p), np.repeat(np.arange(n), m)))
        width = np.repeat([p, m], [n * p, n * m])
        r = np.arange(n)[:, None]
        self._index = np.where(lag_of >= r, np.arange(d) - r * width, d)


def _checked_theta(theta: np.ndarray, dims: ModelDims) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dims.n_theta,):
        raise ValueError(
            f"theta length {theta.shape} does not match expected ({dims.n_theta},)"
        )
    return theta


def build_regressor(history: IoHistory, dims: ModelDims) -> np.ndarray:
    """Regressor phi_k = [-y_{k-1}' ... -y_{k-n}'  u_{k-1}' ... u_{k-n}'].

    One (n_hat (p+m),) vector for every p: the ARX prediction is
    phi_k' Theta for theta as stored, viewed as the (n_hat (p+m), p) matrix
    Theta = [F_1' ... F_n'; G_1' ... G_n'].  It is the history's ``phi``.
    """
    history.check_dims(dims)
    return history.phi


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

    The newest sample of ``history`` is (y_k, u_k).  Block j = 1..n
    collects the part of the ARX convolution that the data up to sample k
    contribute to y_{k+j}:

        x(j) = sum_{r=0}^{n-j} (-F_{r+j} y_{k-r} + G_{r+j} u_{k-r}),

    which is A x_k + B u_k for the state x_k whose first block is y_k.
    All n blocks come from one product, the block-Hankel lag matrix [-Y | U]
    times theta as stored, [F_1' ... F_n'; G_1' ... G_n']: block j pairs
    lag l = 0..n-1 (coefficients F_{l+1}, G_{l+1}) with history row l-j+1
    and reads zero padding where that row index is negative.  Row 0 of
    the lag matrix, ``out.lag[0]``, is the history's phi.
    """
    history.check_dims(dims)
    theta = _checked_theta(theta_next, dims)
    out._padded[:-1] = history.phi  # which holds y negated
    # every index is in range; mode="raise" would check through a buffer
    np.take(out._padded, out._index, out=out.lag, mode="clip")
    out.lag.dot(theta.reshape(-1, dims.p), out._x_blocks)
    return out.x
