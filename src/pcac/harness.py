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

import math
import os
import time
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .controller import PcacConfig, pcac_init, pcac_step
from .plant import EmulatorParams, PlantState, operating_grid, plant_output, plant_zoh_step

SUPPRESSION_WINDOW_S = 0.1
PRE_SWITCH_WINDOW_S = 0.5
FINAL_WINDOW_S = 0.5
SUPPRESSION_FRACTION = 0.01
STEP_BUDGET_S = 1e-3  # one sample: the controller step's real-time budget


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
        # the harness drives one actuator from one sensor
        if (self.controller.p, self.controller.m) != (1, 1):
            raise ValueError(
                f"controller must have p = m = 1, got p={self.controller.p}, "
                f"m={self.controller.m}"
            )

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
    return ExperimentSpec(plant=plant, controller=PcacConfig())


def run_experiment(spec: ExperimentSpec) -> ExperimentRecord:
    """Execute the open-loop/closed-loop protocol and return the full log."""
    params = spec.plant
    # A noise-free plant draws nothing: without a generator the run never
    # imports numpy.random (about 6 MB of resident memory).
    rng = np.random.default_rng(params.seed) if params.noise_std > 0 else None
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

    # theta is vec F followed by vec G (see the pcac.arx docstring); the norm
    # of each contiguous half is np.linalg.norm of F and G, to the bit.
    dims = spec.controller.dims
    n_f = dims.n_hat * dims.p * dims.p

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
            f, g = ctrl.rls.theta[:n_f], ctrl.rls.theta[n_f:]
            th_f[k] = math.sqrt(f.dot(f))
            th_g[k] = math.sqrt(g.dot(g))
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
        "step_p50_ms": float(np.percentile(wall, 50) * 1e3) if wall.size else 0.0,
        "step_p99_ms": float(np.percentile(wall, 99) * 1e3) if wall.size else 0.0,
    }


# ---------------------------------------------------------------------------
# Sweeps


def _sweep(specs: list[ExperimentSpec], measure) -> list[dict]:
    """One row per cell: its operating point, ``status`` and ``measure(spec)``.

    The cells run one after another in this process, so the step timings in
    the rows are single-process timings.  A cell whose ``measure`` raises
    gets ``status = "failed: <reason>"`` and no measurements; the sweep goes
    on with the next cell.
    """
    rows = []
    for index, spec in enumerate(specs):
        row = {
            "cell": index,
            "freq_hz": spec.plant.omega / (2.0 * np.pi),
            "mu": spec.plant.mu,
            "status": "ok",
        }
        try:
            row.update(measure(spec))
        except Exception as exc:  # per-cell failures must not abort the sweep
            row["status"] = f"failed: {exc}"
        rows.append(row)
    return rows


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
) -> list[dict]:
    """Run the 3x3 operating sweep with identical controller hyperparameters.

    Returns one row per cell: its ``experiment_metrics``, or a ``status``
    reporting why the cell failed.
    """
    specs = grid_specs(base, base_seed=base_seed)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        specs = [
            replace(s, output_path=f"{out_dir}/cell_{i}.csv")
            for i, s in enumerate(specs)
        ]
    summary = _sweep(specs, lambda spec: experiment_metrics(run_experiment(spec)))
    if out_dir is not None:
        write_grid_summary(summary, f"{out_dir}/summary.csv")
    return summary


def run_ablation(
    base: ExperimentSpec,
    out_dir: str | None = None,
    base_seed: int = 0,
    omega_shift_factor: float = 1.1,
    kick_q: float = 1.0,
) -> list[dict]:
    """Paired forgetting-on vs forgetting-off comparison under a mid-run
    plant change (frequency shifted by ``omega_shift_factor``).

    A displacement kick re-excites the oscillation at the change so the
    re-suppression metric is not vacuously zero when the loop absorbs the
    frequency shift without any visible transient.  Each pair shares the
    plant seed; only eta differs between the runs.  A row's ``fault_count``
    sums both runs'; a pair whose run raises is reported in ``status``.
    """
    t_event = base.t_open + 1.0

    def measure(spec):
        cfg_off = replace(spec.controller, eta=0.0)
        rec_on = run_experiment(spec)
        rec_off = run_experiment(replace(spec, controller=cfg_off))
        return {
            "resuppression_forgetting_s": resuppression_time(rec_on, t_event),
            "resuppression_no_forgetting_s": resuppression_time(rec_off, t_event),
            "fault_count": rec_on.fault_count + rec_off.fault_count,
        }

    specs = [
        replace(
            spec,
            t_total=t_event + 1.5,
            omega_shift_time=t_event,
            omega_shift_factor=omega_shift_factor,
            kick_q=kick_q,
        )
        for spec in grid_specs(base, base_seed=base_seed)
    ]
    rows = _sweep(specs, measure)
    if out_dir is not None:
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

# The record file's columns, in file order, and the type each is written as.
RECORD_COLUMNS = {"t": float, "y": float, "u_req": float, "u": float,
                  "theta_f_norm": float, "theta_g_norm": float, "phase": int}
# Rows converted to Python scalars at a time: bounds the memory of a write.
_CSV_CHUNK_ROWS = 512


def _write_csv(path: str, header: str, columns: list[np.ndarray]) -> None:
    """Write ``header``, then the rows as reprs of Python floats and ints."""
    with open(path, "w") as fh:
        fh.write(header)
        for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + _CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*chunk))


def write_record(record: ExperimentRecord, path: str) -> None:
    """Comma-separated record with a header row.

    Wall-clock timings are intentionally written to a separate sidecar file
    so that record files are byte-identical across reruns of the same spec.
    """
    meta = f"# k_switch={record.k_switch} t_s={float(record.t_s)!r}\n"
    columns = [np.asarray(getattr(record, c), dt) for c, dt in RECORD_COLUMNS.items()]
    _write_csv(path, meta + ",".join(RECORD_COLUMNS) + "\n", columns)
    _write_csv(path + ".timing", "t,step_wall_s\n", [record.t, record.step_wall])


def read_record(path: str) -> ExperimentRecord:
    with open(path) as fh:
        meta = fh.readline().lstrip("# ").split()
        header = fh.readline().strip().split(",")
        if header != list(RECORD_COLUMNS):
            raise ValueError(f"unexpected record header in {path}")
        dtype = list(RECORD_COLUMNS.items())
        data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
    kv = dict(item.split("=") for item in meta)
    return ExperimentRecord(
        **{c: data[c] for c in RECORD_COLUMNS},
        step_wall=np.zeros(data.size),
        k_switch=int(kv["k_switch"]),
        t_s=float(kv["t_s"]),
    )


def write_dict_rows(rows: list[dict], path: str, comment: str | None = None) -> None:
    """CSV of ``rows``; the columns are every row key, in first-seen order."""
    keys = list(dict.fromkeys(k for row in rows for k in row))
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
# Spec files: flat "section.key = value" text format.  The keys are the
# fields of EmulatorParams (plant.*), PcacConfig (controller.*) and
# ExperimentSpec (sim.*) that a constructor takes, less those in _NOT_KEYS:
# the sections themselves, the output path, and p and m, which the harness
# fixes at 1.

_NOT_KEYS = ("plant", "controller", "output_path", "p", "m")
# Declared types; annotations are strings under postponed evaluation.
_CASTS = {"int": int, "float": float, "float | None": float}


def _spec_table(spec: ExperimentSpec) -> dict[str, tuple]:
    """Every spec-file key, mapped to (type, value in ``spec``)."""
    sections = {"plant": spec.plant, "controller": spec.controller, "sim": spec}
    return {
        f"{section}.{f.name}": (_CASTS[f.type], getattr(obj, f.name))
        for section, obj in sections.items()
        for f in fields(obj)
        if f.init and f.name not in _NOT_KEYS
    }


def _build_spec(values: dict) -> ExperimentSpec:
    sections: dict[str, dict] = {"plant": {}, "controller": {}, "sim": {}}
    for key, value in values.items():
        section, name = key.split(".", 1)
        sections[section][name] = value
    plant, controller, sim = sections.values()
    return ExperimentSpec(EmulatorParams(**plant), PcacConfig(**controller), **sim)


def _differences(a, b, name: str = "") -> list[str]:
    """Dotted names of the (nested dataclass) fields in which a and b differ."""
    if not is_dataclass(a):
        return [] if np.array_equal(a, b) else [name]
    return [d for f in fields(a) for d in _differences(
        getattr(a, f.name), getattr(b, f.name), f"{name}.{f.name}".lstrip("."))]


def write_spec_file(spec: ExperimentSpec, path: str) -> None:
    """Write every set value of ``spec`` (all but ``output_path``).

    Raises ValueError, and writes nothing, for a spec the keys cannot
    reproduce: a value of a type its key does not take, or a controller
    whose derived arrays were changed in place; and for a value that is not
    finite, which a spec file does not take.
    """
    values = {key: None if value is None else cast(value)
              for key, (cast, value) in _spec_table(spec).items()}
    for key, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"spec key {key}: {value!r} is not finite")
    lost = _differences(_build_spec(values), replace(spec, output_path=None))
    if lost:
        raise ValueError(f"spec keys cannot hold spec fields {', '.join(lost)}")
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value!r}\n"
                      for key, value in values.items() if value is not None)


def parse_spec_file(path: str) -> ExperimentSpec:
    """Read a spec file; a missing key takes its default_spec() value."""
    table = _spec_table(default_spec())
    values = {key: value for key, (_, value) in table.items()}
    seen: set[str] = set()
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed spec line: {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in table or key in seen:
                problem = "duplicate" if key in seen else "unknown"
                raise ValueError(f"{problem} spec key {key} in {path}")
            seen.add(key)
            cast = table[key][0]
            try:
                values[key] = cast(text)
            except ValueError:
                raise ValueError(
                    f"spec key {key} in {path}: expected {cast.__name__}, got {text!r}"
                ) from None
            if not math.isfinite(values[key]):
                raise ValueError(f"spec key {key} in {path}: {text!r} is not finite")
    return _build_spec(values)
