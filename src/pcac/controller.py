"""Per-sample orchestration of the adaptive predictive controller.

Each call consumes the latest measurement and produces the control for the
next sample: regressor from the history buffer, RLS update, realization of
the freshly updated coefficients, explicit state construction and one-step
propagation, backward Riccati sweep, gain application, and saturation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arx import (
    ArxBuffers,
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
    SweepBuffers,
    control_gain,
    riccati_backward,
    saturate,
)
from .rls import ForgettingConfig, RlsState, rls_update


@dataclass(frozen=True)
class PcacConfig:
    """The controller's hyperparameters.

    The objects the step reads (model dimensions, forgetting test, horizon
    weights and saturation bounds) are derived from them once, here, so an
    out-of-range value raises at construction.
    """

    n_hat: int = 10
    p: int = 1
    m: int = 1
    theta0_scale: float = 1e-10
    psi0_scale: float = 1e-4
    tau_n: int = 40
    tau_d: int = 200
    eta: float = 0.1
    alpha: float = 0.001
    ell: int = 20
    r2: float = 1e-2
    u_sat: float = 8.0
    dims: ModelDims = field(init=False, repr=False, compare=False)
    forgetting: ForgettingConfig = field(init=False, repr=False, compare=False)
    weights: HorizonWeights = field(init=False, repr=False, compare=False)
    bounds: SaturationBounds = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The derived objects check the rest by name; these they do not see
        # (theta0_scale, psi0_scale) or would report as R2 and u_min.
        for name, ok, want in (
            ("theta0_scale", math.isfinite(self.theta0_scale), "finite"),
            ("psi0_scale", 0 < self.psi0_scale < math.inf, "positive and finite"),
            ("r2", 0 < self.r2 < math.inf, "positive and finite"),
            ("u_sat", 0 <= self.u_sat < math.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        dims = ModelDims(n_hat=self.n_hat, p=self.p, m=self.m)
        derived = {
            "dims": dims,
            "forgetting": ForgettingConfig(
                tau_n=self.tau_n, tau_d=self.tau_d, eta=self.eta, alpha=self.alpha
            ),
            "weights": HorizonWeights.output_weighted(
                dims.n_state, self.m, ell=self.ell, r2=self.r2
            ),
            "bounds": SaturationBounds.symmetric(self.u_sat, self.m),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


class StepBuffers(NamedTuple):
    """Scratch of one controller's step, made once by :func:`pcac_init`.

    The realization is written into the column blocks of the sweep's
    Z = [A | B], which the sweep and the gain read without a copy.  Every
    step overwrites all of it before reading it, so nothing in it carries
    from one step to the next.
    """

    arx: ArxBuffers
    sweep: SweepBuffers

    @classmethod
    def for_config(cls, cfg: PcacConfig) -> "StepBuffers":
        sweep = SweepBuffers(cfg.dims.n_state, cfg.dims.m, cfg.weights.R2)
        return cls(ArxBuffers(cfg.dims, sweep.A, sweep.B), sweep)


@dataclass
class PcacState:
    """Controller state between samples.

    Every field but ``buffers`` is a value that a step never writes into;
    the states a controller passes through share its one set of buffers.
    """

    rls: RlsState
    history: IoHistory
    u_implemented: np.ndarray
    u_requested: np.ndarray
    fault_count: int = 0
    last_fault: str | None = None
    buffers: StepBuffers = field(kw_only=True, repr=False, compare=False)


def pcac_init(cfg: PcacConfig) -> PcacState:
    """Fresh controller state: prior estimate, zeroed history, initial
    control, and the step's buffers."""
    theta0 = cfg.theta0_scale * np.ones(cfg.dims.n_theta)
    rls = RlsState.initialize(theta0, cfg.psi0_scale, cfg.forgetting, cfg.p)
    u0 = np.zeros(cfg.m)
    return PcacState(
        rls=rls,
        history=IoHistory.zeros(cfg.dims),
        u_implemented=u0,
        u_requested=u0.copy(),
        buffers=StepBuffers.for_config(cfg),
    )


def pcac_step(state: PcacState, y_k: np.ndarray, cfg: PcacConfig):
    """Advance one sample: returns (u_next_requested, u_next_implemented, state).

    On a numerical failure inside the optimizer the previous implemented
    control is held for one step and the event is flagged on the returned
    state; identification still advances.
    """
    y_k = np.atleast_1d(np.asarray(y_k, float))
    arx, sweep = state.buffers
    phi = build_regressor(state.history, cfg.dims, arx)
    rls_next = rls_update(state.rls, phi, y_k, cfg.forgetting)

    A, B, _ = assemble_bocf(rls_next.theta, cfg.dims, arx)
    x_now = compute_bocf_state(state.history, y_k, rls_next.theta, cfg.dims, arx)
    x_next = A.dot(x_now) + B.dot(state.u_implemented)

    fault = None
    try:
        P2 = riccati_backward(A, B, cfg.weights, sweep)
        K = control_gain(A, B, cfg.weights.R2, P2, sweep)
        u_req = K.dot(x_next)
        if not np.isfinite(u_req).all():
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
        buffers=state.buffers,
    )
    return new_state.u_requested, new_state.u_implemented, new_state
