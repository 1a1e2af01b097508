"""Experiment runner: open-loop phase, closed-loop switch, logging, metrics.

An experiment integrates the oscillator in open loop until the limit cycle
is developed, then hands the loop to the adaptive controller and logs every
sample.  Grid and ablation sweeps reuse the same runner over the operating
conditions; analysis helpers compute amplitude spectra and suppression
metrics from the records.

Suppression metric: suppression time is the first time after the switch at
which the trailing 100 ms RMS of the output drops below 1% of the RMS over
the 0.5 s preceding the switch; final attenuation compares that pre-switch
RMS with the RMS over the last 0.5 s of the closed loop (all of it when the
closed loop is shorter).
"""
from __future__ import annotations

import csv
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .controller import PcacConfig, pcac_init, pcac_step
from .errors import FINITE, POSITIVE, check_fields
from .plant import EmulatorParams, PlantState, operating_grid, plant_output, plant_zoh_step

SUPPRESSION_WINDOW_S = 0.1
PRE_SWITCH_WINDOW_S = 0.5
FINAL_WINDOW_S = 0.5
SUPPRESSION_FRACTION = 0.01
STEP_BUDGET_S = 1e-3  # one sample: the controller step's real-time budget
PEAK_BAND_HZ = 15.0  # closed-loop band searched around the open-loop peak
ABLATION_DELAY_S = 1.0  # from the switch to the ablation's plant change
ABLATION_TAIL_S = 1.5  # closed-loop time after that change
ABLATION_OMEGA_FACTOR = 1.1
ABLATION_KICK_Q = 1.0  # displacement kick at the change
# Longest run, in samples: 10^4 s at 1 kHz, 640 MB for the eight record arrays.
MAX_SAMPLES = 10**7


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
        check_fields(self, (
            ("t_s", POSITIVE), ("t_open", FINITE), ("t_total", FINITE),
            ("q0", FINITE), ("qdot0", FINITE), ("kick_q", FINITE),
            # None: no plant change; the change scales omega, which stays positive
            ("omega_shift_time",
             (lambda v: v is None or FINITE[0](v), "finite as a float, or None")),
            ("omega_shift_factor", POSITIVE)))
        if not 0.0 <= self.t_open <= self.t_total:
            raise ValueError("need 0 <= t_open <= t_total")
        # before the run allocates its record; on the float ratio, since
        # n_steps would raise for a ratio of inf
        if self.t_total / self.t_s > MAX_SAMPLES:
            raise ValueError(
                f"t_total / t_s must be at most {MAX_SAMPLES} samples, got "
                f"{self.t_total!r} / {self.t_s!r}"
            )
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


# The record file's columns, in file order, and the type each is written as.
RECORD_COLUMNS = {"t": float, "y": float, "u_req": float, "u": float,
                  "theta_f_norm": float, "theta_g_norm": float, "phase": int}
# The fields of the record file's meta line, in line order, and their types.
RECORD_META = {"k_switch": int, "t_s": float}


@dataclass
class ExperimentRecord:
    """Per-sample log of one experiment: ``RECORD_COLUMNS`` and ``step_wall``,
    the closed-loop steps that faulted (counted, and tallied by fault message)
    and that forgot (beta > 1).  A record file holds none of these."""

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
    forgetting_steps: int = 0
    fault_reasons: Counter[str] = field(default_factory=Counter)


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
    record = ExperimentRecord(
        **{c: np.zeros(n + 1, dt) for c, dt in RECORD_COLUMNS.items()},
        step_wall=np.zeros(n + 1), k_switch=k_switch, t_s=spec.t_s)
    t, y, u_req, u = record.t, record.y, record.u_req, record.u
    th_f, th_g, wall = record.theta_f_norm, record.theta_g_norm, record.step_wall
    t[:] = np.arange(n + 1) * spec.t_s

    # theta is vec F followed by vec G; the norm of each contiguous half is
    # np.linalg.norm of F and G, to the bit.
    n_f = spec.controller.dims.n_f

    def log(k: int, ctrl) -> None:
        u_req[k] = ctrl.u_requested[0]
        u[k] = ctrl.u_implemented[0]
        f, g = ctrl.rls.theta[:n_f], ctrl.rls.theta[n_f:]
        th_f[k] = math.sqrt(f.dot(f))
        th_g[k] = math.sqrt(g.dot(g))

    # The plant changes at the first sample at or past omega_shift_time, half
    # a sample early so that a time on the sample grid is not lost to rounding.
    k_change = n + 1 if spec.omega_shift_time is None else int(
        np.searchsorted(t, spec.omega_shift_time - 0.5 * spec.t_s))
    # The loop closes at k_switch unless that is the last sample; each step
    # at sample k makes the controls of sample k + 1.
    ctrl = None
    if k_switch < n:
        ctrl = pcac_init(spec.controller)
        record.phase[k_switch:] = 1
        log(k_switch, ctrl)

    state = PlantState(q=spec.q0, qdot=spec.qdot0)
    for k in range(n + 1):
        if k == k_change:
            params = replace(params, omega=params.omega * spec.omega_shift_factor)
            state = replace(state, q=state.q + spec.kick_q)
        y[k] = plant_output(state, params, rng)
        if k == n:
            break
        if k >= k_switch:
            t0 = time.perf_counter()
            ctrl = pcac_step(ctrl, np.array([y[k]]), spec.controller)
            wall[k] = time.perf_counter() - t0
            log(k + 1, ctrl)
            if ctrl.fault is not None:
                record.fault_count += 1
                record.fault_reasons[ctrl.fault] += 1
            record.forgetting_steps += ctrl.rls.beta > 1.0
        state = plant_zoh_step(state, u[k], params, spec.t_s)

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
        raise ValueError(f"need at least two samples, got {x.size}")
    n = x.size
    amp = np.abs(np.fft.rfft(x)) / n
    amp[1:] *= 2.0
    if n % 2 == 0:
        amp[-1] /= 2.0
    return np.fft.rfftfreq(n, t_s), amp


def trailing_rms(y, window: int) -> np.ndarray:
    """RMS over the trailing ``window`` samples at every index (partial at
    the start)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    sq = np.cumsum(np.square(np.asarray(y, float)))
    counts = np.minimum(np.arange(1, sq.size + 1), window)
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


def _suppression_rms(record: ExperimentRecord) -> tuple[np.ndarray, float]:
    """The trailing 100 ms RMS of the output, and the suppression threshold:
    1% of the pre-switch RMS."""
    thresh = SUPPRESSION_FRACTION * pre_switch_rms(record)
    return trailing_rms(record.y, round(SUPPRESSION_WINDOW_S / record.t_s)), thresh


def suppression_time(record: ExperimentRecord) -> float | None:
    """Seconds from the switch until the trailing 100 ms RMS first drops
    below 1% of the pre-switch RMS; None if it never does."""
    rms, thresh = _suppression_rms(record)
    below = np.nonzero(rms[record.k_switch :] < thresh)[0]
    if below.size == 0:
        return None
    return float(record.t[record.k_switch + below[0]] - record.t[record.k_switch])


def resuppression_time(record: ExperimentRecord, t_event: float) -> float | None:
    """Seconds from ``t_event`` until the trailing RMS is permanently below
    the suppression threshold (0 if it never re-exceeds it; None if the
    threshold is zero, as for an all-zero pre-switch output).  An event
    outside the record's span [t[0], t[-1]] raises ValueError."""
    if not record.t[0] <= t_event <= record.t[-1]:
        raise ValueError(f"t_event = {t_event!r} lies outside the record's span "
                         f"[{float(record.t[0])}, {float(record.t[-1])}]")
    rms, thresh = _suppression_rms(record)
    if thresh == 0.0:
        return None
    k0 = int(np.searchsorted(record.t, t_event))
    above = np.nonzero(rms[k0:] >= thresh)[0]
    if above.size == 0:
        return 0.0
    return float(record.t[k0 + above[-1]] - t_event)


def final_attenuation_db(record: ExperimentRecord) -> float | None:
    """Pre-switch RMS over the RMS of the last 0.5 s of the closed loop (all
    of it when shorter), in dB; None when the run has no closed-loop sample
    or the pre-switch output is all zero."""
    n_fin = round(FINAL_WINDOW_S / record.t_s)
    closed = record.y[record.phase == 1][-n_fin:]
    if closed.size == 0:
        return None
    pre = pre_switch_rms(record)
    if pre == 0.0:
        return None
    post = float(np.sqrt(np.mean(np.square(closed))))
    if post == 0.0:
        return float("inf")
    return 20.0 * np.log10(pre / post)


def peak_attenuation_db(record: ExperimentRecord):
    """Attenuation of the dominant open-loop spectral peak.

    Compares the open-loop spectrum (last 1 s before the switch) with the
    closed-loop spectrum (last 1 s of the run, or all of the closed loop
    when it is shorter) within ``PEAK_BAND_HZ`` of the open-loop peak.
    Returns (peak frequency, attenuation in dB); the attenuation is None
    when the closed loop has fewer than two samples, or too few to put a
    frequency bin in that band, and both are None when the open-loop
    spectrum has no peak: no bin above 10 Hz, or all zero there.
    """
    n_win, k_switch = round(1.0 / record.t_s), record.k_switch
    f_open, a_open = amplitude_spectrum(
        record.y[max(0, k_switch - n_win) : k_switch], record.t_s)
    sel = f_open > 10.0  # skip DC leakage
    f_open, a_open = f_open[sel], a_open[sel]
    if not a_open.any():
        return None, None
    i_peak = np.argmax(a_open)
    f_peak, a_peak = float(f_open[i_peak]), float(a_open[i_peak])
    closed = record.y[max(k_switch, record.y.size - n_win) :]
    if closed.size < 2:
        return f_peak, None
    f_clsd, a_clsd = amplitude_spectrum(closed, record.t_s)
    band = np.abs(f_clsd - f_peak) <= PEAK_BAND_HZ
    if not band.any():
        return f_peak, None
    a_closed = float(np.max(a_clsd[band]))
    if a_closed == 0.0:
        return f_peak, float("inf")
    return f_peak, 20.0 * np.log10(a_peak / a_closed)


def experiment_metrics(record: ExperimentRecord) -> dict:
    """A run's figures; the four measured against the open-loop segment
    are None when it has fewer than two samples or is all zero.
    ``clamped_steps`` counts the samples after the switch whose implemented
    control differs from the requested one, ``fault_reasons`` the faulted
    steps by message, ``forgetting_steps`` the steps whose forgetting test
    fired (beta > 1), and ``budget_misses`` the steps longer than ``t_s``."""
    closed = record.phase == 1
    after = slice(record.k_switch + 1, None)
    wall = record.step_wall[record.step_wall > 0]
    supp = atten = f_peak = peak_db = None
    if record.k_switch >= 2:
        supp, atten = suppression_time(record), final_attenuation_db(record)
        f_peak, peak_db = peak_attenuation_db(record)
    return {
        "suppression_time_s": supp,
        "attenuation_db": atten,
        "peak_freq_hz": f_peak,
        "peak_attenuation_db": peak_db,
        "max_abs_u": float(np.max(np.abs(record.u[closed]))) if closed.any() else 0.0,
        "max_abs_u_req": (float(np.max(np.abs(record.u_req[closed])))
                          if closed.any() else 0.0),
        "clamped_steps": int(np.count_nonzero(record.u_req[after] != record.u[after])),
        "fault_count": record.fault_count,
        "fault_reasons": dict(record.fault_reasons),
        "forgetting_steps": record.forgetting_steps,
        "mean_step_ms": float(np.mean(wall) * 1e3) if wall.size else 0.0,
        "step_p50_ms": float(np.percentile(wall, 50) * 1e3) if wall.size else 0.0,
        "step_p99_ms": float(np.percentile(wall, 99) * 1e3) if wall.size else 0.0,
        "budget_misses": int(np.count_nonzero(wall > record.t_s)),
    }


# ---------------------------------------------------------------------------
# Sweeps


def _sweep(specs: list[ExperimentSpec], measure, out_dir: str | None,
           rows_file: str, comment: str) -> list[dict]:
    """One row per cell: its operating point, ``status`` and ``measure(spec)``.

    The cells run one after another in this process, so the step timings in
    the rows are single-process timings.  A cell whose ``measure`` raises
    gets ``status = "failed: <reason>"`` and no measurements; the sweep goes
    on with the next cell.  Given ``out_dir``, the sweep makes it before the
    first cell and writes the rows to ``out_dir/rows_file`` after the last.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
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
    if out_dir is not None:
        write_dict_rows(rows, f"{out_dir}/{rows_file}", comment=comment)
    return rows


def grid_specs(base: ExperimentSpec, base_seed: int = 0) -> list[ExperimentSpec]:
    """``base`` at each grid cell: only its plant's omega, mu and seed change."""
    return [
        replace(base, plant=replace(base.plant, omega=c.omega, mu=c.mu, seed=c.seed),
                output_path=None)
        for c in operating_grid(base_seed)
    ]


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
        specs = [replace(s, output_path=f"{out_dir}/cell_{i}.csv")
                 for i, s in enumerate(specs)]
    return _sweep(
        specs, lambda spec: experiment_metrics(run_experiment(spec)), out_dir,
        "summary.csv", "suppression time: first time after the switch at which the "
        "trailing 100 ms RMS drops below 1% of the RMS over the 0.5 s before the "
        "switch; attenuation compares the same pre-switch RMS with the final 0.5 s RMS")


def run_ablation(
    base: ExperimentSpec,
    out_dir: str | None = None,
    base_seed: int = 0,
) -> list[dict]:
    """Paired forgetting-on vs forgetting-off comparison under a mid-run
    plant change (frequency scaled by ``ABLATION_OMEGA_FACTOR``).

    A displacement kick re-excites the oscillation at the change so the
    re-suppression metric is not vacuously zero when the loop absorbs the
    frequency shift without any visible transient.  Each pair shares the
    plant seed; only eta differs between the runs.  A row's ``fault_count``
    sums both runs', and its ``forgetting_steps`` is the forgetting run's
    (the other's is 0, as eta = 0 makes beta 1); a pair whose run raises is
    reported in ``status``.
    A base spec with no open-loop sample, which re-suppression is measured
    against, or that the change cannot be added to, raises ValueError before
    any run and before ``out_dir`` is made.
    """
    if base.k_switch < 1:
        raise ValueError(
            f"the ablation needs open-loop samples to measure re-suppression "
            f"against; sim.t_open = {base.t_open!r} leaves none"
        )
    t_event = base.t_open + ABLATION_DELAY_S
    shifted = replace(base, t_total=t_event + ABLATION_TAIL_S, omega_shift_time=t_event,
                      omega_shift_factor=ABLATION_OMEGA_FACTOR, kick_q=ABLATION_KICK_Q)

    def measure(spec):
        cfg_off = replace(spec.controller, eta=0.0)
        rec_on = run_experiment(spec)
        rec_off = run_experiment(replace(spec, controller=cfg_off))
        return {
            "resuppression_forgetting_s": resuppression_time(rec_on, t_event),
            "resuppression_no_forgetting_s": resuppression_time(rec_off, t_event),
            "fault_count": rec_on.fault_count + rec_off.fault_count,
            "forgetting_steps": rec_on.forgetting_steps,
        }

    return _sweep(
        grid_specs(shifted, base_seed=base_seed), measure, out_dir, "ablation.csv",
        "re-suppression time: seconds from the plant change until the trailing "
        "100 ms RMS is permanently below 1% of the pre-switch RMS")


# ---------------------------------------------------------------------------
# File I/O

# Rows converted to Python scalars at a time: bounds the memory of a write.
_CSV_CHUNK_ROWS = 512


def write_csv(path: str, header: str, columns: list[np.ndarray]) -> None:
    """Write ``header``, then the rows as reprs of Python floats and ints."""
    row = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header)
        for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + _CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.writelines(row % values for values in zip(*chunk))


def write_record(record: ExperimentRecord, path: str) -> None:
    """Comma-separated record with a header row.

    Wall-clock timings are intentionally written to a separate sidecar file
    so that record files are byte-identical across reruns of the same spec.
    """
    meta = " ".join(f"{k}={cast(getattr(record, k))!r}" for k, cast in RECORD_META.items())
    columns = [np.asarray(getattr(record, c), dt) for c, dt in RECORD_COLUMNS.items()]
    write_csv(path, f"# {meta}\n" + ",".join(RECORD_COLUMNS) + "\n", columns)
    write_csv(path + ".timing", "t,step_wall_s\n", [record.t, record.step_wall])


def read_record(path: str) -> ExperimentRecord:
    """A record written by :func:`write_record`; ValueError naming ``path`` if not."""
    with open(path) as fh:
        meta = [i.partition("=")[::2] for i in fh.readline().lstrip("# ").split()]
        header = fh.readline().strip().split(",")
        if header != list(RECORD_COLUMNS):
            raise ValueError(f"{path} is not a record file")
        if [key for key, _ in meta] != list(RECORD_META):
            raise ValueError(f"{path}: the meta line must hold {', '.join(RECORD_META)}, "
                             "once each and in that order")
        values = []
        for (key, text), cast in zip(meta, RECORD_META.values()):
            try:
                values.append(cast(text))
            except ValueError:
                raise ValueError(
                    f"{path}: {key} must parse as {cast.__name__}, got {text!r}") from None
        body = fh.tell()
        if not fh.readline().strip():  # np.loadtxt only warns on an empty body
            raise ValueError(f"{path} has no rows")
        fh.seek(body)
        data = np.loadtxt(fh, delimiter=",", dtype=list(RECORD_COLUMNS.items()), ndmin=1)
    k_switch, t_s = values
    if not 0 < t_s < math.inf:
        raise ValueError(f"{path}: t_s must be positive and finite, got {t_s!r}")
    if not 0 <= k_switch < data.size:
        raise ValueError(f"{path}: k_switch {k_switch} is not in [0, {data.size - 1}]")
    return ExperimentRecord(**{c: data[c] for c in RECORD_COLUMNS},
                            step_wall=np.zeros(data.size), k_switch=k_switch, t_s=t_s)


def write_dict_rows(rows: list[dict], path: str, comment: str | None = None) -> None:
    """CSV of ``rows``; the columns are every row key, in first-seen order.

    Each value is written as its ``str`` (so None reads ``None``), quoted
    only when it holds a comma, a quote or a line break.
    """
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([str(row.get(k, "")) for k in keys] for row in rows)


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


def write_spec_file(spec: ExperimentSpec, path: str) -> None:
    """Write every set value of ``spec`` (all but ``output_path``).

    The spec classes refuse at construction any value that its key cannot
    hold (a non-finite float, a non-integer for an int key), and everything
    else in a spec is derived from these values, so they reproduce it.
    """
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {cast(value)!r}\n"
                      for key, (cast, value) in _spec_table(spec).items()
                      if value is not None)


def parse_spec_file(path: str) -> ExperimentSpec:
    """Read a spec file; a missing key takes its default_spec() value.

    A value that parses but that the spec's constructors refuse raises their
    ValueError, prefixed with the file's path.
    """
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
    try:
        return _build_spec(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
