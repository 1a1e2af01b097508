"""Self-excited oscillator standing in for the thermoacoustic rig.

A forced van der Pol oscillator

    q'' + mu (q^2 - 1) q' + omega^2 q = kappa * u

is the minimal system that self-excites from rest perturbations into a
limit cycle with a dominant acoustic-like tone, which is the behavior the
controller has to suppress.  It is integrated with fixed-substep classical
RK4 under a zero-order-hold input so the sampled-data timing is exact and
runs are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FINITE, INTEGER, NONNEGATIVE, POSITIVE, PlantDivergedError,
                     check_fields)

_BLOWUP = 1e6


@dataclass(frozen=True)
class EmulatorParams:
    """Oscillator and measurement parameters.

    omega is the linear acoustic frequency (rad/s), mu the negative-damping
    strength (1/s, larger = harder to suppress), kappa the input coupling,
    amp_scale converts modal displacement to output units (Pa), and
    noise_std is additive measurement noise.
    """

    omega: float
    mu: float
    kappa: float = 4.0e4
    amp_scale: float = 50.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # numpy seeds its generators from nonnegative integers only
        check_fields(self, (
            ("omega", POSITIVE), ("mu", POSITIVE), ("kappa", FINITE),
            ("amp_scale", POSITIVE), ("noise_std", NONNEGATIVE),
            ("seed", INTEGER), ("seed", (lambda v: v >= 0, ">= 0"))))


@dataclass(frozen=True)
class PlantState:
    """Modal displacement/velocity and elapsed time."""

    q: float = 0.0
    qdot: float = 0.0
    t: float = 0.0


def plant_zoh_step(
    state: PlantState,
    u_held: float,
    params: EmulatorParams,
    T_s: float,
    substeps: int = 10,
) -> PlantState:
    """Advance one sample period with the input held constant (RK4)."""
    if T_s <= 0:
        raise ValueError("sample time must be positive")
    if substeps < 1:
        raise ValueError("need at least one substep")
    h = T_s / substeps
    q, qdot = state.q, state.qdot
    # The oscillator's acceleration, -mu (q^2 - 1) q' - omega^2 q + kappa u,
    # is written out at each RK4 stage with its constants taken once per call.
    neg_mu = -params.mu
    omega_sq = params.omega * params.omega
    force = params.kappa * float(u_held)
    half_h, sixth_h = 0.5 * h, h / 6.0
    for _ in range(substeps):
        k1v = neg_mu * (q * q - 1.0) * qdot - omega_sq * q + force
        q2, k2q = q + half_h * qdot, qdot + half_h * k1v
        k2v = neg_mu * (q2 * q2 - 1.0) * k2q - omega_sq * q2 + force
        q3, k3q = q + half_h * k2q, qdot + half_h * k2v
        k3v = neg_mu * (q3 * q3 - 1.0) * k3q - omega_sq * q3 + force
        q4, k4q = q + h * k3q, qdot + h * k3v
        k4v = neg_mu * (q4 * q4 - 1.0) * k4q - omega_sq * q4 + force
        q += sixth_h * (qdot + 2.0 * k2q + 2.0 * k3q + k4q)
        qdot += sixth_h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if not (abs(q) < _BLOWUP and abs(qdot) < _BLOWUP):  # also catches NaN
        raise PlantDivergedError(
            f"plant state left sane range at t={state.t + T_s:.4f} s"
        )
    return PlantState(q=q, qdot=qdot, t=state.t + T_s)


def plant_output(
    state: PlantState, params: EmulatorParams, rng: np.random.Generator | None = None
) -> float:
    """Emulated microphone sample: scaled displacement plus sensor noise."""
    y = params.amp_scale * state.q
    if params.noise_std > 0.0:
        if rng is None:
            raise ValueError("noise_std > 0 requires an rng")
        y += params.noise_std * rng.standard_normal()
    return float(y)


# Operating-condition grid emulating the 3x3 sweep of heater position and
# power: frequency stands in for position, the negative-damping fraction for
# power.  The smallest fraction is set so every cell self-excites from a
# 1e-3 perturbation to a developed limit cycle within 3 s.
GRID_FREQS_HZ = (140.0, 150.0, 160.0)
GRID_MU_FRACTIONS = (0.007, 0.015, 0.030)


def operating_grid(base_seed: int = 0) -> list[EmulatorParams]:
    """The nine operating conditions, row-major over (frequency, mu), with
    the stock values of every other plant field."""
    omegas = [2.0 * np.pi * f for f in GRID_FREQS_HZ]
    return [EmulatorParams(omega=omega, mu=frac * omega, seed=base_seed + 3 * i + j)
            for i, omega in enumerate(omegas)
            for j, frac in enumerate(GRID_MU_FRACTIONS)]
