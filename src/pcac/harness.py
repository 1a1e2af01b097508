"""Experiment runner: open-loop phase, closed-loop switch, logging, metrics.

An experiment integrates the oscillator in open loop until the limit cycle
is developed, then hands the loop to the adaptive controller and logs every
sample.  Grid and ablation sweeps reuse the same runner over the operating
conditions; analysis helpers compute amplitude spectra and suppression
metrics from the records.

Suppression metric: suppression time is the first time after the switch at
which the trailing 100 ms RMS of the output drops below 1% of the RMS over
the 0.5 s preceding the switch; final attenuation compares that pre-switch
RMS with the RMS over the last 0.5 s of the run.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arx import split_coefficients
from .controller import PcacConfig, default_config, pcac_init, pcac_step
from .plant import EmulatorParams, PlantState, operating_grid, plant_output, plant_zoh_step

SUPPRESSION_WINDOW_S = 0.1
PRE_SWITCH_WINDOW_S = 0.5
FINAL_WINDOW_S = 0.5
SUPPRESSION_FRACTION = 0.01
STEP_BUDGET_S = 1e-3


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: plant, controller, timing, and initial condition."""

    plant: EmulatorParams
    controller: PcacConfig
    t_s: float = 1e-3
    t_open: float = 3.0
    t_total: float = 5.0
    q0: float = 1e-3
    qdot0: float = 0.0
    omega_shift_time: float | None = None
    omega_shift_factor: float = 1.0
    kick_q: float = 0.0  # displacement kick applied at omega_shift_time
    output_path: str | None = None

    def __post_init__(self):
        if self.t_s <= 0:
            raise ValueError("t_s must be positive")
        if not 0.0 <= self.t_open <= self.t_total:
            raise ValueError("need 0 <= t_open <= t_total")

    @property
    def n_steps(self) -> int:
        return round(self.t_total / self.t_s)

    @property
    def k_switch(self) -> int:
        return round(self.t_open / self.t_s)


@dataclass
class ExperimentRecord:
    """Per-sample log of one experiment."""

    t: np.ndarray
    y: np.ndarray
    u_req: np.ndarray
    u: np.ndarray
    theta_f_norm: np.ndarray
    theta_g_norm: np.ndarray
    phase: np.ndarray  # 0 = open loop, 1 = closed loop
    step_wall: np.ndarray  # controller wall time per step, s (0 in open loop)
    k_switch: int
    t_s: float
    fault_count: int = 0


def default_spec(seed: int = 0) -> ExperimentSpec:
    """Mid-grid operating point with the stock controller."""
    plant = operating_grid(base_seed=seed)[4]
    return ExperimentSpec(plant=plant, controller=default_config())


def run_experiment(spec: ExperimentSpec) -> ExperimentRecord:
    """Execute the open-loop/closed-loop protocol and return the full log."""
    params = spec.plant
    rng = np.random.default_rng(params.seed)
    n = spec.n_steps
    k_switch = spec.k_switch

    t = np.arange(n + 1) * spec.t_s
    y = np.zeros(n + 1)
    u_req = np.zeros(n + 1)
    u = np.zeros(n + 1)
    th_f = np.zeros(n + 1)
    th_g = np.zeros(n + 1)
    phase = np.zeros(n + 1, dtype=int)
    wall = np.zeros(n + 1)

    state = PlantState(q=spec.q0, qdot=spec.qdot0)
    ctrl = None
    shifted = False

    for k in range(n + 1):
        if (
            spec.omega_shift_time is not None
            and not shifted
            and t[k] >= spec.omega_shift_time - 0.5 * spec.t_s
        ):
            params = replace(params, omega=params.omega * spec.omega_shift_factor)
            state = replace(state, q=state.q + spec.kick_q)
            shifted = True
        y[k] = plant_output(state, params, rng)
        if k >= k_switch and k_switch < n:
            if ctrl is None:
                ctrl = pcac_init(spec.controller)
            phase[k] = 1
            u_req[k] = ctrl.u_requested[0]
            u[k] = ctrl.u_implemented[0]
            F, G = split_coefficients(ctrl.rls.theta, spec.controller.dims)
            th_f[k] = np.linalg.norm(F)
            th_g[k] = np.linalg.norm(G)
        if k == n:
            break
        if ctrl is not None:
            t0 = time.perf_counter()
            _, _, ctrl = pcac_step(ctrl, np.array([y[k]]), spec.controller)
            wall[k] = time.perf_counter() - t0
        state = plant_zoh_step(state, u[k], params, spec.t_s)

    record = ExperimentRecord(
        t=t,
        y=y,
        u_req=u_req,
        u=u,
        theta_f_norm=th_f,
        theta_g_norm=th_g,
        phase=phase,
        step_wall=wall,
        k_switch=k_switch,
        t_s=spec.t_s,
        fault_count=ctrl.fault_count if ctrl is not None else 0,
    )
    if spec.output_path is not None:
        write_record(record, spec.output_path)
    return record


# ---------------------------------------------------------------------------
# Analysis


def amplitude_spectrum(signal, t_s: float):
    """Single-sided amplitude spectrum, rectangular window.

    Scaled so a bin-aligned sinusoid of amplitude A shows a peak of A.
    Returns (frequencies in Hz, amplitudes).
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    n = x.size
    amp = np.abs(np.fft.rfft(x)) / n
    amp[1:] *= 2.0
    if n % 2 == 0:
        amp[-1] /= 2.0
    return np.fft.rfftfreq(n, t_s), amp


def trailing_rms(y: np.ndarray, window: int) -> np.ndarray:
    """RMS over the trailing ``window`` samples at every index (partial at
    the start)."""
    sq = np.cumsum(np.square(np.asarray(y, float)))
    counts = np.minimum(np.arange(1, y.size + 1), window)
    tail = sq.copy()
    tail[window:] = sq[window:] - sq[:-window]
    return np.sqrt(tail / counts)


def pre_switch_rms(record: ExperimentRecord) -> float:
    n_pre = round(PRE_SWITCH_WINDOW_S / record.t_s)
    lo = max(0, record.k_switch - n_pre)
    seg = record.y[lo : record.k_switch]
    if seg.size == 0:
        raise ValueError("no pre-switch samples")
    return float(np.sqrt(np.mean(np.square(seg))))


def suppression_time(record: ExperimentRecord) -> float | None:
    """Seconds from the switch until the trailing 100 ms RMS first drops
    below 1% of the pre-switch RMS; None if it never does."""
    thresh = SUPPRESSION_FRACTION * pre_switch_rms(record)
    n_w = round(SUPPRESSION_WINDOW_S / record.t_s)
    rms = trailing_rms(record.y, n_w)
    for k in range(record.k_switch, record.t.size):
        if rms[k] < thresh:
            return float(record.t[k] - record.t[record.k_switch])
    return None


def resuppression_time(record: ExperimentRecord, t_event: float) -> float:
    """Seconds from ``t_event`` until the trailing RMS is permanently below
    the suppression threshold (0 if it never re-exceeds it)."""
    thresh = SUPPRESSION_FRACTION * pre_switch_rms(record)
    n_w = round(SUPPRESSION_WINDOW_S / record.t_s)
    rms = trailing_rms(record.y, n_w)
    k0 = int(np.searchsorted(record.t, t_event))
    above = np.nonzero(rms[k0:] >= thresh)[0]
    if above.size == 0:
        return 0.0
    return float(record.t[k0 + above[-1]] - t_event)


def final_attenuation_db(record: ExperimentRecord) -> float:
    """Pre-switch RMS over final-window RMS, in dB."""
    n_fin = round(FINAL_WINDOW_S / record.t_s)
    post = float(np.sqrt(np.mean(np.square(record.y[-n_fin:]))))
    pre = pre_switch_rms(record)
    if post == 0.0:
        return float("inf")
    return 20.0 * np.log10(pre / post)


def peak_attenuation_db(record: ExperimentRecord, band_hz: float = 15.0):
    """Attenuation of the dominant open-loop spectral peak.

    Compares the open-loop spectrum (last 1 s before the switch) with the
    closed-loop spectrum (last 1 s of the run) in a band around the
    open-loop peak.  Returns (peak frequency, attenuation in dB).
    """
    n_win = round(1.0 / record.t_s)
    lo = max(0, record.k_switch - n_win)
    f_open, a_open = amplitude_spectrum(record.y[lo : record.k_switch], record.t_s)
    f_clsd, a_clsd = amplitude_spectrum(record.y[-n_win:], record.t_s)
    sel = f_open > 10.0  # skip DC leakage
    i_peak = np.argmax(a_open[sel])
    f_peak = float(f_open[sel][i_peak])
    a_peak = float(a_open[sel][i_peak])
    band = np.abs(f_clsd - f_peak) <= band_hz
    a_closed = float(np.max(a_clsd[band]))
    if a_closed == 0.0:
        return f_peak, float("inf")
    return f_peak, 20.0 * np.log10(a_peak / a_closed)


def experiment_metrics(record: ExperimentRecord) -> dict:
    closed = record.phase == 1
    wall = record.step_wall[record.step_wall > 0]
    f_peak, peak_db = peak_attenuation_db(record)
    supp = suppression_time(record)
    return {
        "suppression_time_s": supp,
        "attenuation_db": final_attenuation_db(record),
        "peak_freq_hz": f_peak,
        "peak_attenuation_db": peak_db,
        "max_abs_u": float(np.max(np.abs(record.u[closed]))) if closed.any() else 0.0,
        "fault_count": record.fault_count,
        "mean_step_ms": float(np.mean(wall) * 1e3) if wall.size else 0.0,
        "max_step_ms": float(np.max(wall) * 1e3) if wall.size else 0.0,
        "budget_violations": int(np.sum(wall > STEP_BUDGET_S)),
    }


# ---------------------------------------------------------------------------
# Sweeps


def _grid_cell(args):
    index, spec = args
    try:
        record = run_experiment(spec)
        metrics = experiment_metrics(record)
        return index, "ok", metrics
    except Exception as exc:  # per-cell failures must not abort the sweep
        return index, f"failed: {exc}", None


def grid_specs(base: ExperimentSpec, base_seed: int = 0) -> list[ExperimentSpec]:
    cells = operating_grid(
        kappa=base.plant.kappa,
        amp_scale=base.plant.amp_scale,
        noise_std=base.plant.noise_std,
        base_seed=base_seed,
    )
    return [replace(base, plant=cell, output_path=None) for cell in cells]


def run_grid(
    base: ExperimentSpec,
    out_dir: str | None = None,
    base_seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Run the 3x3 operating sweep with identical controller hyperparameters.

    Returns one summary dict per cell; per-cell failures are reported in the
    ``status`` field without aborting the sweep.
    """
    specs = grid_specs(base, base_seed=base_seed)
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        specs = [
            replace(s, output_path=f"{out_dir}/cell_{i}.csv")
            for i, s in enumerate(specs)
        ]
    jobs = list(enumerate(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_cell, jobs))
    else:
        results = [_grid_cell(job) for job in jobs]

    summary = []
    for (index, status, metrics), spec in zip(results, specs):
        row = {
            "cell": index,
            "freq_hz": spec.plant.omega / (2.0 * np.pi),
            "mu": spec.plant.mu,
            "status": status,
        }
        if metrics:
            row.update(metrics)
        summary.append(row)
    if out_dir is not None:
        write_grid_summary(summary, f"{out_dir}/summary.csv")
    return summary


def _ablation_cell(args):
    index, spec_on, spec_off, t_event = args
    rec_on = run_experiment(spec_on)
    rec_off = run_experiment(spec_off)
    return {
        "cell": index,
        "freq_hz": spec_on.plant.omega / (2.0 * np.pi),
        "mu": spec_on.plant.mu,
        "resuppression_forgetting_s": resuppression_time(rec_on, t_event),
        "resuppression_no_forgetting_s": resuppression_time(rec_off, t_event),
    }


def run_ablation(
    base: ExperimentSpec,
    out_dir: str | None = None,
    base_seed: int = 0,
    workers: int = 1,
    omega_shift_factor: float = 1.1,
    kick_q: float = 1.0,
) -> list[dict]:
    """Paired forgetting-on vs forgetting-off comparison under a mid-run
    plant change (frequency shifted by ``omega_shift_factor``).

    A displacement kick re-excites the oscillation at the change so the
    re-suppression metric is not vacuously zero when the loop absorbs the
    frequency shift without any visible transient.  Each pair shares the
    plant seed; only eta differs between the runs.
    """
    t_event = base.t_open + 1.0
    t_total = t_event + 1.5
    jobs = []
    for i, spec in enumerate(grid_specs(base, base_seed=base_seed)):
        spec = replace(
            spec,
            t_total=t_total,
            omega_shift_time=t_event,
            omega_shift_factor=omega_shift_factor,
            kick_q=kick_q,
        )
        cfg = spec.controller
        cfg_off = replace(cfg, forgetting=replace(cfg.forgetting, eta=0.0))
        jobs.append((i, spec, replace(spec, controller=cfg_off), t_event))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_ablation_cell, jobs))
    else:
        rows = [_ablation_cell(job) for job in jobs]
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        write_dict_rows(
            rows,
            f"{out_dir}/ablation.csv",
            comment=(
                "re-suppression time: seconds from the plant change until the "
                "trailing 100 ms RMS is permanently below 1% of the pre-switch RMS"
            ),
        )
    return rows


# ---------------------------------------------------------------------------
# File I/O

RECORD_COLUMNS = ("t", "y", "u_req", "u", "theta_f_norm", "theta_g_norm", "phase")


def write_record(record: ExperimentRecord, path: str) -> None:
    """Comma-separated record with a header row.

    Wall-clock timings are intentionally written to a separate sidecar file
    so that record files are byte-identical across reruns of the same spec.
    """
    with open(path, "w") as fh:
        fh.write(f"# k_switch={record.k_switch} t_s={record.t_s!r}\n")
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for k in range(record.t.size):
            fh.write(
                f"{float(record.t[k])!r},{float(record.y[k])!r},"
                f"{float(record.u_req[k])!r},{float(record.u[k])!r},"
                f"{float(record.theta_f_norm[k])!r},"
                f"{float(record.theta_g_norm[k])!r},{int(record.phase[k])}\n"
            )
    with open(path + ".timing", "w") as fh:
        fh.write("t,step_wall_s\n")
        for k in range(record.t.size):
            fh.write(f"{float(record.t[k])!r},{float(record.step_wall[k])!r}\n")


def read_record(path: str) -> ExperimentRecord:
    with open(path) as fh:
        meta = fh.readline().lstrip("# ").split()
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    if header != list(RECORD_COLUMNS):
        raise ValueError(f"unexpected record header in {path}")
    kv = dict(item.split("=") for item in meta)
    return ExperimentRecord(
        t=data[:, 0],
        y=data[:, 1],
        u_req=data[:, 2],
        u=data[:, 3],
        theta_f_norm=data[:, 4],
        theta_g_norm=data[:, 5],
        phase=data[:, 6].astype(int),
        step_wall=np.zeros(data.shape[0]),
        k_switch=int(kv["k_switch"]),
        t_s=float(kv["t_s"]),
    )


def write_dict_rows(rows: list[dict], path: str, comment: str | None = None) -> None:
    keys = list(rows[0].keys())
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(k, "")) for k in keys) + "\n")


def write_grid_summary(summary: list[dict], path: str) -> None:
    write_dict_rows(
        summary,
        path,
        comment=(
            "suppression time: first time after the switch at which the trailing "
            "100 ms RMS drops below 1% of the RMS over the 0.5 s before the "
            "switch; attenuation compares the same pre-switch RMS with the final "
            "0.5 s RMS"
        ),
    )


# ---------------------------------------------------------------------------
# Spec files: flat "section.key = value" text format


def write_spec_file(spec: ExperimentSpec, path: str) -> None:
    p = spec.plant
    c = spec.controller
    lines = [
        f"plant.omega = {p.omega!r}",
        f"plant.mu = {p.mu!r}",
        f"plant.kappa = {p.kappa!r}",
        f"plant.amp_scale = {p.amp_scale!r}",
        f"plant.noise_std = {p.noise_std!r}",
        f"plant.seed = {p.seed}",
        f"controller.n_hat = {c.dims.n_hat}",
        f"controller.theta0_scale = {float(c.theta0[0])!r}",
        f"controller.psi0_scale = {c.psi0_scale!r}",
        f"controller.tau_n = {c.forgetting.tau_n}",
        f"controller.tau_d = {c.forgetting.tau_d}",
        f"controller.eta = {c.forgetting.eta!r}",
        f"controller.alpha = {c.forgetting.alpha!r}",
        f"controller.ell = {c.weights.ell}",
        f"controller.r2 = {float(c.weights.R2[0, 0])!r}",
        f"controller.u_sat = {float(c.bounds.u_max[0])!r}",
        f"sim.t_s = {spec.t_s!r}",
        f"sim.t_open = {spec.t_open!r}",
        f"sim.t_total = {spec.t_total!r}",
        f"sim.q0 = {spec.q0!r}",
        f"sim.qdot0 = {spec.qdot0!r}",
        f"sim.kick_q = {spec.kick_q!r}",
    ]
    if spec.omega_shift_time is not None:
        lines.append(f"sim.omega_shift_time = {spec.omega_shift_time!r}")
        lines.append(f"sim.omega_shift_factor = {spec.omega_shift_factor!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_spec_file(path: str) -> ExperimentSpec:
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed spec line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val

    known: set[str] = set()

    def get(key, cast, default):
        known.add(key)
        return cast(values[key]) if key in values else default

    plant = EmulatorParams(
        omega=get("plant.omega", float, 2.0 * np.pi * 150.0),
        mu=get("plant.mu", float, 0.015 * 2.0 * np.pi * 150.0),
        kappa=get("plant.kappa", float, 4.0e4),
        amp_scale=get("plant.amp_scale", float, 50.0),
        noise_std=get("plant.noise_std", float, 0.0),
        seed=get("plant.seed", int, 0),
    )
    controller = default_config(
        n_hat=get("controller.n_hat", int, 10),
        theta0_scale=get("controller.theta0_scale", float, 1e-10),
        psi0_scale=get("controller.psi0_scale", float, 1e-4),
        tau_n=get("controller.tau_n", int, 40),
        tau_d=get("controller.tau_d", int, 200),
        eta=get("controller.eta", float, 0.1),
        alpha=get("controller.alpha", float, 0.001),
        ell=get("controller.ell", int, 20),
        r2=get("controller.r2", float, 1e-2),
        u_sat=get("controller.u_sat", float, 8.0),
    )
    shift_time = get("sim.omega_shift_time", float, None)
    spec = ExperimentSpec(
        plant=plant,
        controller=controller,
        t_s=get("sim.t_s", float, 1e-3),
        t_open=get("sim.t_open", float, 3.0),
        t_total=get("sim.t_total", float, 5.0),
        q0=get("sim.q0", float, 1e-3),
        qdot0=get("sim.qdot0", float, 0.0),
        omega_shift_time=shift_time,
        omega_shift_factor=get("sim.omega_shift_factor", float, 1.0),
        kick_q=get("sim.kick_q", float, 0.0),
    )
    unknown = sorted(values.keys() - known)
    if unknown:
        raise ValueError(f"unknown spec keys in {path}: {', '.join(unknown)}")
    return spec
