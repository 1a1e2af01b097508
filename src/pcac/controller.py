"""Per-sample orchestration of the adaptive predictive controller.

Each call consumes the latest measurement and produces the control for the
next sample: regressor from the history buffer, RLS update, realization of
the freshly updated coefficients, the explicit one-step-ahead state of the
history that the sample joins, backward Riccati sweep, gain application,
and saturation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arx import (
    ArxBuffers,
    IoHistory,
    ModelDims,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
)
from .errors import FINITE, NONNEGATIVE, POSITIVE, NumericalError, check_fields
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
    tau_n: int = ForgettingConfig.tau_n
    tau_d: int = ForgettingConfig.tau_d
    eta: float = ForgettingConfig.eta
    alpha: float = ForgettingConfig.alpha
    ell: int = 20
    r2: float = 1e-2
    u_sat: float = 8.0
    dims: ModelDims = field(init=False, repr=False, compare=False)
    forgetting: ForgettingConfig = field(init=False, repr=False, compare=False)
    weights: HorizonWeights = field(init=False, repr=False, compare=False)
    bounds: SaturationBounds = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked here: the derived objects see these late, or as R2 and u_min
        check_fields(self, (("theta0_scale", FINITE), ("psi0_scale", POSITIVE),
                            ("r2", POSITIVE), ("u_sat", NONNEGATIVE)))
        dims = ModelDims(n_hat=self.n_hat, p=self.p, m=self.m)
        derived = {
            "dims": dims,
            "forgetting": ForgettingConfig(
                tau_n=self.tau_n, tau_d=self.tau_d, eta=self.eta, alpha=self.alpha
            ),
            "weights": HorizonWeights.output_weighted(
                dims.n_state, self.p, self.m, self.ell, self.r2),
            "bounds": SaturationBounds.symmetric(self.u_sat, self.m),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if self.p > 1 and self.tau_d <= self.p + 3:  # see rls.multivariable_dof
            raise ValueError(f"tau_d must exceed p + 3 = {self.p + 3}, got {self.tau_d}")


@dataclass
class PcacState:
    """Controller state between samples: what the next step reads, and what
    the step that made it decided: ``fault`` (see :func:`pcac_step`), and
    the forgetting decision that ``rls`` keeps.

    Every field but ``arx`` and ``sweep`` is a value that a step never
    writes into.  Those two, made once by :func:`pcac_init` for the model
    dimensions and horizon weights of its ``cfg``, are the step's scratch,
    shared by the states a controller passes through; the realization is
    written into the sweep's Z = [A | B].  Every step
    overwrites all of it before reading it, so nothing in it carries over.
    """

    rls: RlsState
    history: IoHistory
    u_implemented: np.ndarray
    u_requested: np.ndarray
    fault: str | None = None
    arx: ArxBuffers = field(kw_only=True, repr=False, compare=False)
    sweep: SweepBuffers = field(kw_only=True, repr=False, compare=False)


def pcac_init(cfg: PcacConfig) -> PcacState:
    """Fresh controller state: prior estimate, zeroed history, initial
    control, and the step's buffers."""
    theta0 = cfg.theta0_scale * np.ones((cfg.dims.n_phi, cfg.p))
    rls = RlsState.initialize(theta0, cfg.psi0_scale, cfg.forgetting)
    u0 = np.zeros(cfg.m)
    sweep = SweepBuffers(cfg.weights)
    return PcacState(
        rls=rls,
        history=IoHistory.zeros(cfg.dims),
        u_implemented=u0,
        u_requested=u0,
        arx=ArxBuffers(cfg.dims, sweep.A, sweep.B),
        sweep=sweep,
    )


def pcac_step(state: PcacState, y_k: np.ndarray, cfg: PcacConfig) -> PcacState:
    """Advance one sample: returns the next state.

    The next state holds the controls for the next sample and the step's
    ``fault``: None, or the message of the NumericalError that the step
    caught from the Riccati sweep, the gain or a non-finite request; the
    step then holds the previous requested and implemented controls, and
    identification still advances.  A NumericalError from the RLS update
    propagates, and ``state`` is left as it was passed in.  ``cfg`` is the
    configuration that :func:`pcac_init` made the state's buffers for.
    """
    y_k = np.atleast_1d(np.asarray(y_k, float))
    arx, sweep = state.arx, state.sweep
    phi = build_regressor(state.history)
    # An overflow to inf or nan is left to the finiteness checks, which
    # raise NumericalError, rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        rls_next = rls_update(state.rls, phi, y_k, cfg.forgetting)
        history = state.history.push(y_k, state.u_implemented)

        assemble_bocf(rls_next.theta, arx)

        fault = None
        try:
            x_next = compute_bocf_state(history, rls_next.theta, arx)
            riccati_backward(sweep)
            K = control_gain(sweep)
            u_req = K.dot(x_next)
            if not np.isfinite(u_req).all():
                raise NumericalError("non-finite requested control")
            u_impl = saturate(u_req, cfg.bounds)
        except NumericalError as exc:
            fault = str(exc)
            u_req, u_impl = state.u_requested, state.u_implemented

    return PcacState(rls_next, history, u_impl, u_req, fault, arx=arx, sweep=sweep)
