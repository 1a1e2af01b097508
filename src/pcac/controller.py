"""Per-sample orchestration of the adaptive predictive controller.

Each call consumes the latest measurement and produces the control for the
next sample: regressor from the history buffer, RLS update, realization of
the freshly updated coefficients, explicit state construction and one-step
propagation, backward Riccati sweep, gain application, and saturation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arx import (
    IoHistory,
    ModelDims,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
)
from .errors import NumericalError
from .riccati import (
    HorizonWeights,
    SaturationBounds,
    control_gain,
    riccati_backward,
    saturate,
)
from .rls import ForgettingConfig, RlsState, rls_update


@dataclass(frozen=True)
class PcacConfig:
    """Everything needed to instantiate the controller."""

    dims: ModelDims
    theta0: np.ndarray
    psi0_scale: float
    forgetting: ForgettingConfig
    weights: HorizonWeights
    bounds: SaturationBounds
    u0: np.ndarray

    def __post_init__(self):
        theta0 = np.asarray(self.theta0, float).reshape(-1)
        if theta0.shape != (self.dims.n_theta,):
            raise ValueError(
                f"theta0 length {theta0.size} does not match {self.dims.n_theta}"
            )
        object.__setattr__(self, "theta0", theta0)
        u0 = np.atleast_1d(np.asarray(self.u0, float))
        if u0.shape != (self.dims.m,):
            raise ValueError(f"u0 shape {u0.shape} does not match m={self.dims.m}")
        object.__setattr__(self, "u0", u0)
        if self.psi0_scale <= 0:
            raise ValueError("psi0_scale must be positive")
        if self.weights.R1.shape[0] != self.dims.n_state:
            raise ValueError("R1 size does not match the BOCF state dimension")


def default_config(
    n_hat: int = 10,
    p: int = 1,
    m: int = 1,
    theta0_scale: float = 1e-10,
    psi0_scale: float = 1e-4,
    tau_n: int = 40,
    tau_d: int = 200,
    eta: float = 0.1,
    alpha: float = 0.001,
    ell: int = 20,
    r2: float = 1e-2,
    u_sat: float = 8.0,
) -> PcacConfig:
    """Stock hyperparameter set used throughout the experiments."""
    dims = ModelDims(n_hat=n_hat, p=p, m=m)
    return PcacConfig(
        dims=dims,
        theta0=theta0_scale * np.ones(dims.n_theta),
        psi0_scale=psi0_scale,
        forgetting=ForgettingConfig(tau_n=tau_n, tau_d=tau_d, eta=eta, alpha=alpha),
        weights=HorizonWeights.output_weighted(dims.n_state, m, ell=ell, r2=r2),
        bounds=SaturationBounds.symmetric(u_sat, m),
        u0=np.zeros(m),
    )


@dataclass
class PcacState:
    """Controller state between samples."""

    rls: RlsState
    history: IoHistory
    u_implemented: np.ndarray
    u_requested: np.ndarray
    fault_count: int = 0
    last_fault: str | None = None


def pcac_init(cfg: PcacConfig) -> PcacState:
    """Fresh controller state: prior estimate, zeroed history, initial control."""
    rls = RlsState.initialize(cfg.theta0, cfg.psi0_scale, cfg.forgetting, cfg.dims.p)
    u0 = cfg.u0.copy()
    return PcacState(
        rls=rls,
        history=IoHistory.zeros(cfg.dims),
        u_implemented=u0,
        u_requested=u0.copy(),
    )


def pcac_step(state: PcacState, y_k: np.ndarray, cfg: PcacConfig):
    """Advance one sample: returns (u_next_requested, u_next_implemented, state).

    On a numerical failure inside the optimizer the previous implemented
    control is held for one step and the event is flagged on the returned
    state; identification still advances.
    """
    y_k = np.atleast_1d(np.asarray(y_k, float))
    phi = build_regressor(state.history, cfg.dims)
    rls_next = rls_update(state.rls, phi, y_k, cfg.forgetting)

    A, B, _ = assemble_bocf(rls_next.theta, cfg.dims)
    x_now = compute_bocf_state(state.history, y_k, rls_next.theta, cfg.dims)
    x_next = A @ x_now + B @ state.u_implemented

    fault = None
    try:
        P2 = riccati_backward(A, B, cfg.weights)
        K = control_gain(A, B, cfg.weights.R2, P2)
        u_req = K @ x_next
        if not np.all(np.isfinite(u_req)):
            raise NumericalError("non-finite requested control")
        u_impl = saturate(u_req, cfg.bounds)
    except NumericalError as exc:
        fault = str(exc)
        u_req = state.u_requested.copy()
        u_impl = state.u_implemented.copy()

    new_state = PcacState(
        rls=rls_next,
        history=state.history.push(y_k, state.u_implemented),
        u_implemented=u_impl,
        u_requested=np.atleast_1d(u_req),
        fault_count=state.fault_count + (1 if fault else 0),
        last_fault=fault,
    )
    return new_state.u_requested, new_state.u_implemented, new_state
