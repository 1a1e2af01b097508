"""Experiment runner, analysis helpers, record/spec files, and the CLI."""
import csv
import math
import sys
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcac import (
    EmulatorParams,
    ExperimentSpec,
    NumericalError,
    PcacConfig,
    amplitude_spectrum,
    default_spec,
    experiment_metrics,
    final_attenuation_db,
    operating_grid,
    parse_spec_file,
    read_record,
    resuppression_time,
    run_experiment,
    suppression_time,
    trailing_rms,
    write_record,
    write_spec_file,
)
from pcac import controller, harness
from pcac.cli import main as cli_main
from pcac.harness import MAX_SAMPLES, RECORD_COLUMNS
from test_arx import split_coefficients
from test_controller import noisy_shift_spec


def short_spec(**kw):
    """Small, fast experiment at the mid-grid operating point."""
    base = default_spec()
    kw.setdefault("t_open", 0.3)
    kw.setdefault("t_total", 0.5)
    kw.setdefault("q0", 1.0)
    return replace(base, **kw)


def assert_fields_equal(a, b, name="spec"):
    """Every (nested dataclass) field equal, arrays elementwise."""
    if is_dataclass(a):
        assert type(a) is type(b), name
        for f in fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name),
                                f"{name}.{f.name}")
    else:
        np.testing.assert_array_equal(a, b, err_msg=name)


# What write_spec_file(default_spec()) writes: 23 keys, pinned so that the
# spec format cannot drift under a file written earlier.
DEFAULT_SPEC_FILE = """\
plant.omega = 942.4777960769379
plant.mu = 14.137166941154069
plant.kappa = 40000.0
plant.amp_scale = 50.0
plant.noise_std = 0.0
plant.seed = 4
controller.n_hat = 10
controller.theta0_scale = 1e-10
controller.psi0_scale = 0.0001
controller.tau_n = 40
controller.tau_d = 200
controller.eta = 0.1
controller.alpha = 0.001
controller.ell = 20
controller.r2 = 0.01
controller.u_sat = 8.0
sim.t_s = 0.001
sim.t_open = 3.0
sim.t_total = 5.0
sim.q0 = 0.001
sim.qdot0 = 0.0
sim.omega_shift_factor = 1.0
sim.kick_q = 0.0
"""


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def specs(draw):
    """Any spec a spec file can hold: a PcacConfig with p = m = 1."""
    tau_n = draw(st.integers(1, 300))
    controller = PcacConfig(
        n_hat=draw(st.integers(1, 12)),
        theta0_scale=draw(FINITE),
        psi0_scale=draw(POSITIVE),
        tau_n=tau_n,
        tau_d=tau_n + draw(st.integers(1, 300)),
        eta=draw(NONNEGATIVE),
        # below 2**-53, 1 - alpha rounds to 1
        alpha=draw(st.floats(min_value=2.0**-53, max_value=1.0, exclude_max=True)),
        ell=draw(st.integers(1, 50)),
        r2=draw(POSITIVE),
        u_sat=draw(NONNEGATIVE),
    )
    plant = EmulatorParams(
        omega=draw(POSITIVE),
        mu=draw(POSITIVE),
        kappa=draw(FINITE),
        amp_scale=draw(POSITIVE),
        noise_std=draw(NONNEGATIVE),
        seed=draw(st.integers(0, 2**64)),
    )
    # at most MAX_SAMPLES samples; the assumption drops the rare draw that
    # rounding carries past the cap
    t_s = draw(POSITIVE)
    t_total = draw(st.floats(0.0, min(t_s * MAX_SAMPLES, sys.float_info.max)))
    t_open = draw(st.floats(0.0, t_total))
    assume(t_total / t_s <= MAX_SAMPLES)
    return ExperimentSpec(
        plant=plant,
        controller=controller,
        t_s=t_s,
        t_open=t_open,
        t_total=t_total,
        q0=draw(FINITE),
        qdot0=draw(FINITE),
        omega_shift_time=draw(st.none() | FINITE),
        omega_shift_factor=draw(POSITIVE),
        kick_q=draw(FINITE),
    )


class TestSpectrum:
    T_S = 1e-3

    def test_bin_aligned_sinusoid_amplitude(self):
        t = np.arange(1000) * self.T_S
        y = 3.0 * np.sin(2 * np.pi * 50.0 * t)
        f, a = amplitude_spectrum(y, self.T_S)
        i = np.argmin(np.abs(f - 50.0))
        assert a[i] == pytest.approx(3.0, abs=1e-10)
        mask = np.ones(a.size, bool)
        mask[i] = False
        assert np.max(a[mask]) < 1e-10

    def test_dc_amplitude(self):
        f, a = amplitude_spectrum(np.full(500, 2.5), self.T_S)
        assert a[0] == pytest.approx(2.5, abs=1e-12)
        assert np.max(a[1:]) < 1e-12

    def test_two_tone_projection(self):
        t = np.arange(2000) * self.T_S
        y = 1.5 * np.cos(2 * np.pi * 20 * t) + 0.4 * np.sin(2 * np.pi * 125 * t)
        f, a = amplitude_spectrum(y, self.T_S)
        assert a[np.argmin(np.abs(f - 20.0))] == pytest.approx(1.5, abs=1e-10)
        assert a[np.argmin(np.abs(f - 125.0))] == pytest.approx(0.4, abs=1e-10)

    def test_parseval(self):
        rng = np.random.default_rng(41)
        y = rng.normal(size=1024)
        f, a = amplitude_spectrum(y, self.T_S)
        # undo the single-sided scaling to recover |Y_k|^2
        power = a.copy() * y.size
        power[1:] /= 2.0
        if y.size % 2 == 0:
            power[-1] *= 2.0
        lhs = np.sum(y**2)
        rhs = (power[0] ** 2 + 2 * np.sum(power[1:-1] ** 2)
               + power[-1] ** 2) / y.size
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            amplitude_spectrum([1.0], self.T_S)


class TestTrailingRms:
    def test_constant_signal(self):
        r = trailing_rms(np.full(10, 3.0), window=4)
        np.testing.assert_allclose(r, 3.0)

    def test_step_signal_window_exact(self):
        y = np.concatenate([np.zeros(10), np.ones(10)])
        r = trailing_rms(y, window=5)
        assert r[9] == 0.0
        assert r[14] == pytest.approx(1.0)  # window fully inside the ones
        assert r[11] == pytest.approx(np.sqrt(2 / 5))

    def test_partial_window_at_start(self):
        r = trailing_rms(np.array([2.0, 0.0, 0.0]), window=10)
        assert r[0] == pytest.approx(2.0)
        assert r[2] == pytest.approx(np.sqrt(4.0 / 3.0))

    def test_accepts_a_list(self):
        r = trailing_rms([1.0, 2.0, 3.0], 2)
        np.testing.assert_allclose(r, [1.0, np.sqrt(2.5), np.sqrt(6.5)])

    @pytest.mark.parametrize("window", [0, -1])
    def test_rejects_window_below_one(self, window):
        with pytest.raises(ValueError, match="window"):
            trailing_rms(np.ones(5), window)


class TestRunExperiment:
    def test_row_count_and_time_axis(self):
        rec = run_experiment(short_spec(t_total=0.2, t_open=0.1))
        assert rec.t.size == 201
        assert rec.t[0] == 0.0
        assert rec.t[-1] == pytest.approx(0.2)
        assert rec.k_switch == 100

    def test_open_loop_phase_has_zero_input(self):
        rec = run_experiment(short_spec())
        ks = rec.k_switch
        assert np.all(rec.u[:ks] == 0.0)
        assert np.all(rec.phase[:ks] == 0)
        assert np.all(rec.phase[ks:] == 1)
        assert np.any(rec.u[ks:] != 0.0)

    def test_pure_open_loop_when_topen_equals_ttotal(self):
        rec = run_experiment(short_spec(t_open=0.5, t_total=0.5))
        assert np.all(rec.u == 0.0)
        assert np.all(rec.phase == 0)
        assert rec.fault_count == 0

    @pytest.mark.parametrize("p, m", [(1, 2), (2, 1), (2, 2)])
    def test_rejects_controller_not_siso(self, p, m):
        # the loop feeds u[0] to the plant and y as one output: a second
        # input would be dropped and a second output would fail only at the
        # first closed-loop step
        with pytest.raises(ValueError, match="controller"):
            replace(default_spec(), controller=PcacConfig(p=p, m=m))

    @pytest.mark.parametrize("factor", [0.0, -1.1, np.inf, np.nan])
    def test_rejects_omega_shift_factor_not_positive(self, factor):
        # at construction, not in the plant at the change, mid-run
        with pytest.raises(ValueError, match="omega_shift_factor"):
            replace(default_spec(), omega_shift_time=0.4, omega_shift_factor=factor)

    @pytest.mark.parametrize("field, value", [
        ("t_total", np.inf), ("t_total", np.nan), ("t_open", np.nan),
        ("t_s", np.inf), ("t_s", np.nan)] + [
        (field, value) for field in ("q0", "qdot0", "kick_q", "omega_shift_time")
        for value in (np.nan, np.inf)])
    def test_rejects_time_not_finite(self, field, value):
        # t_total = inf used to pass and raise OverflowError in n_steps; q0 = nan
        # died at the first plant step, and omega_shift_time = nan never
        # changed the plant
        with pytest.raises(ValueError, match=field):
            replace(default_spec(), **{field: value})

    def test_rejects_more_than_max_samples(self):
        # at construction: t_s = 1e-300 used to fail allocating the record
        for t_s, t_total in ((1e-3, 1e5), (1e-300, 5.0)):
            with pytest.raises(ValueError, match="t_total / t_s"):
                replace(default_spec(), t_s=t_s, t_total=t_total)
        spec = replace(default_spec(), t_total=MAX_SAMPLES * 1e-3)
        assert spec.n_steps == MAX_SAMPLES

    def test_deterministic_without_noise(self):
        a = run_experiment(short_spec())
        b = run_experiment(short_spec())
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.u, b.u)

    def test_seeded_noise_reproducible(self):
        spec = short_spec()
        spec = replace(spec, plant=replace(spec.plant, noise_std=0.5, seed=7))
        a = run_experiment(spec)
        b = run_experiment(spec)
        np.testing.assert_array_equal(a.y, b.y)
        assert np.std(a.y[:50]) > 0.1  # noise actually present

    def test_omega_shift_changes_late_output_only(self):
        base = short_spec(t_open=0.5, t_total=0.5)
        shifted = replace(base, omega_shift_time=0.25, omega_shift_factor=1.2)
        a = run_experiment(base)
        b = run_experiment(shifted)
        np.testing.assert_array_equal(a.y[:250], b.y[:250])
        assert not np.array_equal(a.y[260:], b.y[260:])

    @pytest.mark.parametrize("shift, k_change", [
        (0.0, 0),
        (0.1, 100),  # inside the open loop
        (0.1004, 100),  # half a sample early at most
        (0.1006, 101),
        (0.3, 300),  # exactly at the switch
        (0.5, 500),  # the last sample
        (0.6, None),  # after the run
        (None, None),
    ])
    def test_plant_changes_at_first_sample_past_shift_time(self, shift, k_change,
                                                           monkeypatch):
        # the change lands on the first k with t[k] >= shift - t_s / 2
        spec = short_spec(omega_shift_time=shift, omega_shift_factor=1.5,
                          kick_q=0.25)
        output, omegas, qs = harness.plant_output, [], []

        def spy(state, params, rng):
            omegas.append(params.omega)
            qs.append(state.q)
            return output(state, params, rng)

        monkeypatch.setattr(harness, "plant_output", spy)
        rec = run_experiment(spec)
        k = rec.t.size if k_change is None else k_change
        omega = spec.plant.omega
        assert omegas == [omega] * k + [1.5 * omega] * (rec.t.size - k)
        unchanged = run_experiment(short_spec())
        np.testing.assert_array_equal(rec.y[:k], unchanged.y[:k])
        if k_change is not None:  # the kick moves the state the change sees
            assert qs[k] == pytest.approx(unchanged.y[k] / spec.plant.amp_scale
                                          + 0.25, rel=1e-12)

    @pytest.mark.parametrize("t_open, inits, steps", [
        (0.3, 1, 200), (0.499, 1, 1), (0.5, 0, 0),
    ])
    def test_controller_built_once_per_closed_loop_run(self, t_open, inits,
                                                       steps, monkeypatch):
        calls = {"init": 0, "step": 0}
        init, step = harness.pcac_init, harness.pcac_step

        def count_init(cfg):
            calls["init"] += 1
            return init(cfg)

        def count_step(state, y, cfg):
            calls["step"] += 1
            return step(state, y, cfg)

        monkeypatch.setattr(harness, "pcac_init", count_init)
        monkeypatch.setattr(harness, "pcac_step", count_step)
        rec = run_experiment(short_spec(t_open=t_open, t_total=0.5))
        assert calls == {"init": inits, "step": steps}
        assert np.count_nonzero(rec.phase) == steps + inits
        assert np.count_nonzero(rec.step_wall) == steps

    AT_REST = {"q0": 0.0, "t_open": 0.5, "t_total": 1.2}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kw", [
        {"t_open": 0.0, "t_total": 0.2},
        {"t_open": 0.001, "t_total": 0.2},
        AT_REST,
        {**AT_REST, "omega_shift_time": 0.8, "kick_q": 1.0},
    ], ids=["0.0", "0.001", "at_rest", "at_rest_kicked"])
    def test_metrics_without_open_loop_segment_are_none(self, kw):
        # fewer than two open-loop samples, or a plant at rest until the
        # switch, and then kicked or not: nothing to measure against
        rec = run_experiment(short_spec(**kw))
        m = experiment_metrics(rec)
        for key in ("suppression_time_s", "attenuation_db", "peak_freq_hz",
                    "peak_attenuation_db"):
            assert m[key] is None, key
        moved = kw.get("q0") != 0.0 or "kick_q" in kw
        assert m["fault_count"] == 0 and m["max_abs_u"] <= 8.0
        assert (m["max_abs_u"] > 0) == moved
        if rec.k_switch >= 2:
            assert final_attenuation_db(rec) is None
            assert harness.peak_attenuation_db(rec) == (None, None)

    def test_peak_attenuation_reads_only_closed_loop_samples(self, monkeypatch):
        # 0.2 s of closed loop: its spectrum is those 201 samples, not the
        # last 1 s of the run, 800 of which are open loop
        rec = run_experiment(replace(default_spec(0), t_open=1.8, t_total=2.0))
        spectrum, windows = harness.amplitude_spectrum, []

        def spy(signal, t_s):
            windows.append(np.array(signal))
            return spectrum(signal, t_s)

        monkeypatch.setattr(harness, "amplitude_spectrum", spy)
        f_peak, db = harness.peak_attenuation_db(rec)
        assert [w.size for w in windows] == [1000, 201]
        np.testing.assert_array_equal(windows[0], rec.y[800:1800])
        np.testing.assert_array_equal(windows[1], rec.y[rec.phase == 1])
        assert f_peak == 150.0 and 0.0 < db < math.inf

    @pytest.mark.parametrize("t_total", [1.8, 1.801, 1.805])
    def test_peak_attenuation_without_closed_loop_band_is_none(self, t_total):
        # 1, 2 and 6 closed-loop samples: none has a bin within 15 Hz of 150
        rec = run_experiment(replace(default_spec(0), t_open=1.8,
                                     t_total=t_total))
        assert harness.peak_attenuation_db(rec) == (150.0, None)
        assert experiment_metrics(rec)["peak_attenuation_db"] is None

    def test_peak_attenuation_without_open_loop_bin_above_10_hz_is_none(
            self, tmp_path, capsys):
        # at t_s = 0.05 the 20-sample open-loop window's top bin is 10 Hz, so
        # no bin lies above 10 Hz: no peak.  This used to raise ValueError
        # from an argmax over no bins, and `pcac run` died after the record.
        path = tmp_path / "spec.txt"
        path.write_text("sim.t_s = 0.05\nsim.t_open = 2.0\nsim.t_total = 4.0\n"
                        "plant.omega = 10.0\nplant.mu = 0.5\n")
        assert cli_main(["run", "--spec", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "peak_freq_hz: None" in out and "peak_attenuation_db: None" in out
        rec = read_record(str(tmp_path / "record.csv"))
        assert harness.peak_attenuation_db(rec) == (None, None)

    def test_final_attenuation_reads_only_closed_loop_samples(self):
        # 0.2 s of closed loop: the final RMS is over those 201 samples, not
        # the last 0.5 s of the run, 300 of which are open loop
        rec = run_experiment(replace(default_spec(0), t_open=1.8, t_total=2.0))
        pre = np.sqrt(np.mean(np.square(rec.y[1300:1800])))
        post = np.sqrt(np.mean(np.square(rec.y[1800:])))
        db = final_attenuation_db(rec)
        assert db == pytest.approx(20.0 * np.log10(pre / post), rel=1e-12)
        assert 7.5 < db < 8.5
        assert experiment_metrics(rec)["attenuation_db"] == db

    def test_final_attenuation_without_closed_loop_is_none(self):
        rec = run_experiment(replace(default_spec(0), t_open=2.0, t_total=2.0))
        assert final_attenuation_db(rec) is None
        assert experiment_metrics(rec)["attenuation_db"] is None

    def test_theta_norms_are_norms_of_split_coefficients(self, monkeypatch):
        # the logged norms equal np.linalg.norm of F and G to the bit
        spec = short_spec()
        step, thetas = harness.pcac_step, []

        def capture(state, y, cfg):
            result = step(state, y, cfg)
            if not thetas:
                thetas.append(state.rls.theta.copy())
            thetas.append(result.rls.theta.copy())
            return result

        monkeypatch.setattr(harness, "pcac_step", capture)
        rec = run_experiment(spec)
        closed = rec.phase == 1
        assert len(thetas) == np.count_nonzero(closed) == 201
        dims = spec.controller.dims
        F, G = zip(*(split_coefficients(theta, dims) for theta in thetas))
        np.testing.assert_array_equal(rec.theta_f_norm[closed],
                                      [np.linalg.norm(f) for f in F])
        np.testing.assert_array_equal(rec.theta_g_norm[closed],
                                      [np.linalg.norm(g) for g in G])
        assert np.all(rec.theta_f_norm[closed] > 0)

    @pytest.mark.parametrize("spec, count", [(default_spec(0), 0),
                                             (noisy_shift_spec(0), 41)],
                             ids=["default_0", "noisy_shift_0"])
    def test_forgetting_steps_count_the_steps_that_forgot(self, spec, count,
                                                          monkeypatch):
        # beta > 1 on the state each closed-loop step returns; noise-free,
        # the F-test never fires
        step, betas = harness.pcac_step, []

        def capture(state, y, cfg):
            result = step(state, y, cfg)
            betas.append(result.rls.beta)
            return result

        monkeypatch.setattr(harness, "pcac_step", capture)
        rec = run_experiment(spec)
        assert rec.forgetting_steps == sum(b > 1.0 for b in betas) == count
        assert experiment_metrics(rec)["forgetting_steps"] == count

    def test_mid_grid_cell_suppresses(self):
        # the headline behavior: developed limit cycle, switch, suppression
        rec = run_experiment(replace(default_spec(), t_total=4.0))
        assert suppression_time(rec) is not None
        assert final_attenuation_db(rec) > 40.0
        m = experiment_metrics(rec)
        assert m["max_abs_u"] <= 8.0
        assert m["fault_count"] == 0
        assert 135.0 < m["peak_freq_hz"] < 165.0


class TestRecordFiles:
    def test_record_arrays_are_the_columns_and_step_wall(self):
        arrays = {f.name for f in fields(harness.ExperimentRecord)
                  if f.type == "np.ndarray"}
        assert arrays == set(RECORD_COLUMNS) | {"step_wall"}

    def test_run_record_holds_declared_dtypes(self):
        rec = run_experiment(short_spec())
        for column, dtype in RECORD_COLUMNS.items():
            assert getattr(rec, column).dtype == np.dtype(dtype), column
            assert getattr(rec, column).shape == (501,), column
        assert np.issubdtype(rec.phase.dtype, np.integer)
        assert rec.step_wall.dtype == np.float64

    def test_roundtrip(self, tmp_path):
        rec = run_experiment(short_spec())
        path = str(tmp_path / "record.csv")
        write_record(rec, path)
        back = read_record(path)
        for column in RECORD_COLUMNS:
            np.testing.assert_array_equal(getattr(back, column),
                                          getattr(rec, column), err_msg=column)
        assert back.k_switch == rec.k_switch
        assert back.t_s == rec.t_s

    def test_numpy_sample_time_roundtrips(self, tmp_path):
        rec = run_experiment(short_spec(t_s=np.float64(1e-3), t_total=0.1,
                                        t_open=0.05))
        path = str(tmp_path / "record.csv")
        write_record(rec, path)
        assert read_record(path).t_s == 1e-3

    def test_byte_identical_across_reruns(self, tmp_path):
        spec = short_spec()
        spec = replace(spec, plant=replace(spec.plant, noise_std=0.5, seed=3))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_record(run_experiment(spec), p1)
        write_record(run_experiment(spec), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_csv_rows_are_reprs(self, tmp_path):
        # each row is the reprs of its Python floats and ints, across chunks
        rng = np.random.default_rng(2)
        x = rng.normal(size=1100) * 10.0 ** rng.integers(-300, 300, size=1100)
        x[:8] = [0.1, -0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf,
                 np.nan, 1.0]
        k = np.arange(x.size) - 3
        path = tmp_path / "table.csv"
        harness.write_csv(str(path), "x,k\n", [x, k])
        rows = zip(x.tolist(), k.tolist())
        assert path.read_text() == "x,k\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows)

    def test_timing_sidecar_written(self, tmp_path):
        path = str(tmp_path / "record.csv")
        write_record(run_experiment(short_spec()), path)
        lines = Path(path + ".timing").read_text().splitlines()
        assert lines[0] == "t,step_wall_s"
        assert len(lines) == 502


# Values no float key holds: the non-finite floats, an int that its float
# rounds, and one that overflows a float.
FLOAT_REFUSALS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                  "2**53+1": 2**53 + 1, "10**400": 10**400}


class TestSpecFiles:
    def test_roundtrip(self, tmp_path):
        spec = ExperimentSpec(
            plant=EmulatorParams(omega=2 * np.pi * 140, mu=6.0, noise_std=0.2,
                                 seed=5),
            controller=PcacConfig(n_hat=6, eta=0.05, r2=0.5),
            t_open=1.0,
            t_total=2.0,
            qdot0=0.25,
            omega_shift_time=1.5,
            omega_shift_factor=1.1,
            kick_q=0.75,
        )
        path = str(tmp_path / "spec.txt")
        write_spec_file(spec, path)
        assert_fields_equal(parse_spec_file(path), spec)

    @settings(max_examples=100, deadline=None)
    @given(spec=specs())
    def test_roundtrip_property(self, spec, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("spec") / "spec.txt")
        write_spec_file(spec, path)
        assert_fields_equal(parse_spec_file(path), spec)

    @pytest.mark.parametrize("case", ["mutated_R2", "mutated_u_max", "p2_m2",
                                      "float_seed"])
    def test_write_refuses_what_keys_cannot_hold(self, tmp_path, case):
        # a derived array cannot be changed in place, and a controller other
        # than p = m = 1 or a float seed cannot be built
        path = tmp_path / "spec.txt"
        match = {"mutated_R2": "read-only", "mutated_u_max": "read-only",
                 "p2_m2": "controller", "float_seed": r"\bseed must be an integer"}[case]
        with pytest.raises(ValueError, match=match):
            spec = default_spec()
            if case == "mutated_R2":
                spec.controller.weights.R2[0, 0] = 0.5
            elif case == "mutated_u_max":
                spec.controller.bounds.u_max[0] = 5.0
            elif case == "p2_m2":
                spec = replace(spec, controller=PcacConfig(p=2, m=2))
            else:
                spec = replace(spec, plant=replace(spec.plant, seed=1.5))
            write_spec_file(spec, str(path))
        assert not path.exists()

    def test_write_refuses_non_finite_value(self, tmp_path):
        path = tmp_path / "spec.txt"
        # refused where the spec is built, so there is nothing to write
        with pytest.raises(ValueError, match=r"\bq0 must be finite"):
            write_spec_file(replace(default_spec(), q0=np.nan), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key}-{name}")
        for key, (cast, _) in harness._spec_table(default_spec()).items()
        for name, value in (FLOAT_REFUSALS.items() if cast is float
                            else [("1.5", 1.5)])])
    def test_constructors_refuse_what_keys_cannot_hold(self, key, value):
        # built in code, a value no spec file key can hold is refused by its
        # spec class, naming the field, rather than dying mid-run, being
        # written out as another value, or raising OverflowError
        section, name = key.split(".")
        spec = default_spec()
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            if section == "sim":
                replace(spec, **{name: value})
            else:
                replace(getattr(spec, section), **{name: value})

    def test_controller_keys_are_the_config_fields(self):
        keys = [k for k in harness._spec_table(default_spec())
                if k.startswith("controller.")]
        assert keys == [f"controller.{f.name}" for f in fields(PcacConfig)
                        if f.init and f.name not in ("p", "m")]

    def test_default_spec_file_is_pinned(self, tmp_path):
        # a spec file written by an earlier version must keep meaning the
        # same spec, and writing it back must give the same bytes
        path = tmp_path / "spec.txt"
        write_spec_file(default_spec(), str(path))
        assert path.read_bytes() == DEFAULT_SPEC_FILE.encode()
        again = tmp_path / "again.txt"
        write_spec_file(parse_spec_file(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_missing_keys_take_default_spec_values(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("plant.mu = 5.0\n")
        base = default_spec()
        assert_fields_equal(parse_spec_file(str(path)),
                            replace(base, plant=replace(base.plant, mu=5.0)))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("plant.mu = 5.0\nplant.mu = 7.0\n")
        with pytest.raises(ValueError, match="plant.mu"):
            parse_spec_file(str(path))

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("plant.seed = 1.5\n")
        with pytest.raises(ValueError, match="plant.seed"):
            parse_spec_file(str(path))

    def test_defaults_when_keys_missing(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("plant.mu = 5.0\n# a comment\n\n")
        spec = parse_spec_file(str(path))
        assert spec.plant.mu == 5.0
        assert spec.plant.omega == pytest.approx(2 * np.pi * 150)
        assert spec.controller.dims.n_hat == 10

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("plant.mu 5.0\n")
        with pytest.raises(ValueError):
            parse_spec_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("plant.mu = 5.0\nsim.kickq = 1.0\n")
        with pytest.raises(ValueError, match="sim.kickq"):
            parse_spec_file(str(path))

    @pytest.mark.parametrize("line", ["sim.q0 = nan", "plant.omega = inf"])
    def test_non_finite_value_names_key(self, tmp_path, line):
        # a value that parses to nan or inf would not survive writing back
        path = tmp_path / "spec.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=line.split(" = ")[0]):
            parse_spec_file(str(path))


class TestCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(q0=1e-3, t_open=1.8, t_total=2.5), path)
        return path

    def test_run_writes_record_and_exits_zero(self, tmp_path, spec_file,
                                              capsys):
        out = str(tmp_path / "out")
        rc = cli_main(["run", "--spec", spec_file, "--out", out])
        assert rc == 0
        assert (tmp_path / "out" / "record.csv").exists()
        out = capsys.readouterr().out
        for key in ("attenuation_db", "max_abs_u_req", "clamped_steps",
                    "forgetting_steps"):
            assert f"\n{key}: " in out, key

    def test_run_open_loop_only(self, tmp_path, spec_file):
        out = str(tmp_path / "out")
        rc = cli_main(["run", "--spec", spec_file, "--out", out,
                       "--open-loop-only"])
        assert rc == 0
        rec = read_record(str(tmp_path / "out" / "record.csv"))
        assert np.all(rec.u == 0.0)

    def test_run_seed_flag_overrides_plant_seed(self, tmp_path, capsys):
        spec = short_spec()
        spec = replace(spec, plant=replace(spec.plant, noise_std=1.0))
        path = str(tmp_path / "spec.txt")
        write_spec_file(spec, path)
        for seed, name in ((1, "o1"), (2, "o2"), (1, "o3")):
            assert cli_main(["run", "--spec", path,
                             "--out", str(tmp_path / name),
                             "--seed", str(seed)]) == 0
        r1, r2, r3 = ((tmp_path / name / "record.csv").read_bytes()
                      for name in ("o1", "o2", "o3"))
        assert r1 != r2 and r1 == r3

    @pytest.mark.parametrize("command", ["run", "grid", "ablate"])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, command):
        # grid and ablate used to run cell 0 on seed -1
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_writes_summary(self, tmp_path, capsys):
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(q0=1e-3, t_open=1.8, t_total=2.0), path)
        out = tmp_path / "grid"
        assert cli_main(["grid", "--spec", path, "--out", str(out)]) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 2 + 9
        assert "summary written" in capsys.readouterr().out

    def test_failure_status_with_comma_and_quote_reads_back(self, tmp_path,
                                                            monkeypatch):
        # a status holding a comma or a quote stays one column
        reason = 'prob must lie in (0, 1), got "1.0"'

        def fail(spec):
            raise ValueError(reason)

        monkeypatch.setattr(harness, "run_experiment", fail)
        rows = harness.run_grid(default_spec(), out_dir=str(tmp_path))
        with open(tmp_path / "summary.csv", newline="") as fh:
            assert fh.readline().startswith("# ")
            read = list(csv.DictReader(fh))
        assert [row["status"] for row in read] == [f"failed: {reason}"] * 9
        assert read == [{k: str(v) for k, v in row.items()} for row in rows]

    def test_grid_exits_nonzero_when_a_cell_fails(self, tmp_path, monkeypatch):
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(q0=1e-3, t_open=1.8, t_total=2.0), path)
        run = harness.run_experiment
        calls = []

        def fail_second_cell(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise RuntimeError("injected cell failure")
            return run(spec)

        monkeypatch.setattr(harness, "run_experiment", fail_second_cell)
        out = tmp_path / "grid"
        assert cli_main(["grid", "--spec", path, "--out", str(out)]) == 1
        assert len(calls) == 9
        rows = (out / "summary.csv").read_text().splitlines()[2:]
        assert sum("failed: injected cell failure" in r for r in rows) == 1
        assert sum(",ok," in r for r in rows) == 8

    def test_grid_summary_path_taken_exits_two(self, tmp_path, capsys):
        # used to run all nine cells and then exit 1 with an IsADirectoryError
        # traceback, where ablate in the same state exited 2
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(t_total=0.35), path)
        out = tmp_path / "grid"
        (out / "summary.csv").mkdir(parents=True)
        with pytest.raises(SystemExit) as exc:
            cli_main(["grid", "--spec", path, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pcac: ") and str(out / "summary.csv") in err
        assert (out / "cell_8.csv").exists()

    @pytest.mark.parametrize("command", ["run", "grid", "ablate"])
    def test_out_that_is_a_file_exits_two_before_any_run(self, tmp_path, capsys,
                                                         monkeypatch, command):
        # ablate used to run all 18 experiments and then die on the directory
        def no_run(spec):
            pytest.fail("an experiment ran")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "taken"
        out.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pcac: ") and str(out) in err

    # each case's spec file text (None: no file) and a name its error holds
    SPEC_ERRORS = {
        "unknown_key": ("plant.mu = 5.0\nsim.kickq = 1.0\n", "sim.kickq"),
        "missing_file": (None, "No such file"),
        "alpha_one": ("controller.alpha = 1.0\n", "alpha"),
        "tiny_alpha": ("controller.alpha = 1e-17\n", "alpha"),
        "zero_omega_factor": ("sim.omega_shift_time = 0.4\n"
                              "sim.omega_shift_factor = 0.0\n", "omega_shift_factor"),
        "negative_seed": ("plant.seed = -1\nplant.noise_std = 0.5\n", "seed"),
        "tiny_t_s": ("sim.t_s = 1e-300\n", "t_s"),
    }

    @pytest.mark.parametrize("command", ["run", "grid", "ablate"])
    @pytest.mark.parametrize("case", list(SPEC_ERRORS))
    def test_spec_error_exits_two(self, tmp_path, capsys, command, case):
        path = tmp_path / "spec.txt"
        text, names = self.SPEC_ERRORS[case]
        if text is not None:
            path.write_text("sim.t_open = 0.3\nsim.t_total = 0.6\n" + text)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--spec", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pcac: ") and str(path) in err and names in err
        assert not (tmp_path / "out").exists()

    def test_spectrum_subcommand(self, tmp_path, spec_file, capsys):
        out = str(tmp_path / "out")
        cli_main(["run", "--spec", spec_file, "--out", out])
        spec_csv = str(tmp_path / "spec_out.csv")
        rc = cli_main(["spectrum", "--record", f"{out}/record.csv",
                       "--out", spec_csv, "--t-end", "1.8"])
        assert rc == 0
        data = np.loadtxt(spec_csv, delimiter=",", skiprows=1)
        f_peak = data[np.argmax(data[:, 1]), 0]
        assert f_peak == pytest.approx(150.0, abs=3.0)

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_no_open_loop_segment_prints_none_metrics(self, tmp_path, capsys,
                                                      command):
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(t_open=0.0, t_total=0.05), path)
        assert cli_main([command, "--spec", path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("attenuation_db: None" if command == "run"
                else "attenuation None") in out

    def test_grid_prints_no_unit_after_a_missing_suppression_time(self, tmp_path,
                                                                  capsys):
        # at rest until the switch: every cell's suppression time is None
        path = tmp_path / "spec.txt"
        path.write_text("sim.q0 = 0.0\nsim.t_open = 0.3\nsim.t_total = 0.6\n")
        assert cli_main(["grid", "--spec", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("suppression None, attenuation None,") == 9
        assert "None s" not in out

    @pytest.mark.filterwarnings("error")
    def test_plant_at_rest_prints_none_metrics(self, tmp_path, capsys):
        # at rest until the switch, then kicked: no open-loop RMS or peak to
        # compare with, so no division by zero either
        path = tmp_path / "spec.txt"
        path.write_text("sim.q0 = 0.0\nsim.t_open = 0.5\nsim.t_total = 1.2\n"
                        "sim.omega_shift_time = 0.8\nsim.kick_q = 1.0\n")
        assert cli_main(["run", "--spec", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for key in ("suppression_time_s", "attenuation_db", "peak_freq_hz",
                    "peak_attenuation_db"):
            assert f"{key}: None" in out, key

    def test_spectrum_default_path_strips_only_the_suffix(self, tmp_path,
                                                          spec_file):
        out = tmp_path / "run.csv"
        cli_main(["run", "--spec", spec_file, "--out", str(out),
                  "--open-loop-only"])
        assert cli_main(["spectrum", "--record", str(out / "record.csv")]) == 0
        assert (out / "record.spectrum.csv").exists()

    # a record's meta line, and how many of its data rows a copy keeps
    BAD_RECORDS = {
        "zero_t_s": ("k_switch=1 t_s=0", 2),
        "negative_t_s": ("k_switch=1 t_s=-0.001", 2),
        "header_only": ("k_switch=0 t_s=0.001", 0),
        "k_switch_past_rows": ("k_switch=7 t_s=0.001", 2),
        "unparsable_k_switch": ("k_switch=abc t_s=0.001", 2),
        "fractional_k_switch": ("k_switch=2.5 t_s=0.001", 2),
        "unparsable_t_s": ("k_switch=1 t_s=abc", 2),
        "missing_meta_key": ("k_switch=1", 2),
        "extra_meta_key": ("k_switch=1 t_s=0.001 extra", 2),
        "repeated_meta_key": ("k_switch=1 t_s=0.001 t_s=0.002", 2),
        "reordered_meta_keys": ("t_s=0.001 k_switch=1", 2),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["empty_window", "one_sample_window",
                                      "missing_record", "not_a_record",
                                      "out_is_a_directory", *BAD_RECORDS])
    def test_spectrum_input_error_exits_two(self, tmp_path, spec_file, capsys,
                                            case):
        # the directory case used to exit 1 with an IsADirectoryError traceback;
        # t_s = 0 did too, from a ZeroDivisionError, a negative t_s exited 0 with
        # negative frequencies, a header-only record warned, and a k_switch past
        # the rows was read without complaint; an unparsable meta value raised
        # a ValueError naming no file, and an extra, repeated or reordered meta
        # key was read
        record = str(tmp_path / "out" / "record.csv")
        cli_main(["run", "--spec", spec_file, "--out", str(tmp_path / "out"),
                  "--open-loop-only"])
        argv = ["spectrum", "--record", record, "--out", str(tmp_path / "s.csv")]
        named = "two samples"
        if case == "empty_window":
            argv += ["--t-start", "9.0"]
        elif case == "one_sample_window":
            argv += ["--t-start", "1.0", "--t-end", "1.0"]
        elif case == "missing_record":
            argv[2] = named = str(tmp_path / "missing.csv")
        elif case == "not_a_record":
            argv[2] = named = spec_file
        elif case in self.BAD_RECORDS:
            meta, rows = self.BAD_RECORDS[case]
            lines = (tmp_path / "out" / "record.csv").read_text().splitlines(True)
            bad = tmp_path / "bad.csv"
            bad.write_text(f"# {meta}\n" + "".join(lines[1 : 2 + rows]))
            argv[2] = named = str(bad)
        else:
            argv[4] = named = str(tmp_path / "out")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pcac: ") and named in err
        assert not (tmp_path / "s.csv").exists()

    def test_rls_fault_fails_the_run_and_the_cell(self, tmp_path, spec_file,
                                                  capsys, monkeypatch):
        # a fault from the update is not held as the optimizer's are: the
        # run stops with status 1, and a sweep reports it as the cell's status
        def boom(*args):
            raise NumericalError("forced RLS failure")

        monkeypatch.setattr(controller, "rls_update", boom)
        assert cli_main(["run", "--spec", spec_file,
                         "--out", str(tmp_path / "out")]) == 1
        assert "run failed: forced RLS failure" in capsys.readouterr().err
        assert ([row["status"] for row in harness.run_grid(short_spec())]
                == ["failed: forced RLS failure"] * 9)

    def test_sweep_faults_tallied_by_message(self, tmp_path, spec_file, capsys,
                                             monkeypatch):
        # the held faults of a run, by the message pcac_step caught
        sweep, calls = controller.riccati_backward, []

        def flaky(*args):
            calls.append(None)
            if len(calls) % 10 in (3, 7):
                raise NumericalError(f"forced failure {len(calls) % 10}")
            return sweep(*args)

        monkeypatch.setattr(controller, "riccati_backward", flaky)
        rec = run_experiment(short_spec())
        n = len(calls)
        assert rec.fault_reasons == {"forced failure 3": (n + 7) // 10,
                                     "forced failure 7": (n + 3) // 10}
        assert sum(rec.fault_reasons.values()) == rec.fault_count > 0
        m = experiment_metrics(rec)
        assert m["fault_reasons"] == rec.fault_reasons
        assert m["fault_count"] == rec.fault_count

        assert cli_main(["run", "--spec", spec_file,
                         "--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        line = next(s for s in out.splitlines() if s.startswith("fault_reasons: "))
        assert "'forced failure 3': " in line and "'forced failure 7': " in line

        # a grid row holds its run's tally, an ablation row its two runs'
        # summed; the ablation's runs shortened
        monkeypatch.setattr(harness, "ABLATION_DELAY_S", 0.05)
        monkeypatch.setattr(harness, "ABLATION_TAIL_S", 0.1)
        for run_sweep, rows_file in ((harness.run_grid, "summary.csv"),
                                     (harness.run_ablation, "ablation.csv")):
            rows = run_sweep(short_spec(), out_dir=str(tmp_path / run_sweep.__name__))
            for row in rows:
                assert set(row["fault_reasons"]) == {"forced failure 3", "forced failure 7"}
                assert sum(row["fault_reasons"].values()) == row["fault_count"]
            with open(tmp_path / run_sweep.__name__ / rows_file, newline="") as fh:
                fh.readline()
                read = list(csv.DictReader(fh))
            assert [r["fault_reasons"] for r in read] == [
                str(row["fault_reasons"]) for row in rows]

    def test_sweeps_have_no_workers_option(self):
        for command in ("grid", "ablate"):
            with pytest.raises(SystemExit):
                cli_main([command, "--workers", "2"])


def synthetic_record(fault_count=0):
    """A 5.5 s record at t_s = 0.1: oscillating until the switch at 3 s,
    silent after it except one sample at 4.5 s; ``fault_count`` steps
    faulted with the message "stub fault"."""
    t = np.arange(56) * 0.1
    y = np.where(t < 3.0, 1.0, 0.0)
    y[45] = 1.0
    zeros = np.zeros_like(t)
    return harness.ExperimentRecord(
        t=t, y=y, u_req=zeros, u=zeros, theta_f_norm=zeros,
        theta_g_norm=zeros, phase=(t >= 3.0).astype(int), step_wall=zeros,
        k_switch=30, t_s=0.1, fault_reasons=Counter(["stub fault"] * fault_count),
    )


class TestResuppressionTime:
    """On ``synthetic_record``: window 1 sample, so the trailing RMS is |y|,
    and the threshold is 1% of the open loop's 1.0."""

    @staticmethod
    def record_with(bursts):
        rec = synthetic_record()
        rec.y[30:] = 0.0
        for k, value in bursts.items():
            rec.y[k] = value
        return rec

    def test_burst_after_event_gives_its_last_sample_above_threshold(self):
        # 4.4-4.7 s, the last sample (0.005) below the threshold
        rec = self.record_with({44: 1.0, 45: -0.5, 46: 0.02, 47: 0.005})
        assert resuppression_time(rec, 4.0) == pytest.approx(0.6)
        assert resuppression_time(rec, 4.5) == pytest.approx(0.1)

    def test_no_exceedance_after_event_gives_zero(self):
        rec = self.record_with({44: 1.0})
        assert resuppression_time(rec, 4.5) == 0.0
        assert resuppression_time(self.record_with({}), 3.0) == 0.0

    def test_exceedance_before_event_is_ignored(self):
        # the open loop and a burst before the event are above the threshold
        rec = self.record_with({35: 1.0, 36: 1.0, 50: 0.5})
        assert resuppression_time(rec, 4.0) == pytest.approx(1.0)
        assert resuppression_time(rec, 5.1) == 0.0

    def test_event_outside_the_record_raises(self):
        # an event after the last sample is not "re-suppressed at once", and
        # one before the first is not measured from before the run
        rec = self.record_with({44: 1.0})
        for t_event in (rec.t[-1] + 0.1, 99.0, rec.t[0] - 0.1, -1.0):
            with pytest.raises(ValueError, match=r"t_event = .* span \[0\.0, 5\.5"):
                resuppression_time(rec, t_event)

    def test_end_samples_are_inside(self):
        rec = self.record_with({44: 1.0})
        assert resuppression_time(rec, rec.t[0]) == pytest.approx(4.4)
        assert resuppression_time(rec, rec.t[-1]) == 0.0

    def test_all_zero_open_loop_gives_none(self):
        # a zero threshold, which every RMS is at or above, used to return
        # the whole tail after the event
        rec = self.record_with({44: 1.0})
        rec.y[:30] = 0.0
        assert resuppression_time(rec, 4.0) is None


def test_step_time_columns_are_percentiles():
    # samples without a controller step (step_wall 0) are left out
    rec = run_experiment(short_spec())
    wall = np.zeros_like(rec.step_wall)
    wall[-26:] = np.arange(1, 27) * 1e-4  # 0.1 ms ... 2.6 ms
    m = experiment_metrics(replace(rec, step_wall=wall))
    assert m["mean_step_ms"] == pytest.approx(1.35)
    assert m["step_p50_ms"] == pytest.approx(1.35)
    assert m["step_p99_ms"] == pytest.approx(2.575)
    assert "max_step_ms" not in m and "budget_violations" not in m


def test_budget_misses_count_steps_over_the_record_sample_time():
    # at 4 kHz the budget is 0.25 ms; a step of exactly that is no miss
    rec = replace(synthetic_record(), t_s=2.5e-4)
    rec.step_wall[30:34] = [1e-4, 2.5e-4, 2.6e-4, 9e-4]
    assert experiment_metrics(rec)["budget_misses"] == 2
    assert experiment_metrics(replace(rec, t_s=1e-3))["budget_misses"] == 0


def stub_runs(monkeypatch, fail_on=None, fault_count=0):
    """Replace run_experiment: record each spec, raise on call ``fail_on``,
    else return ``synthetic_record(fault_count)``, with 7 forgetting steps
    when eta > 0.  Returns the specs."""
    calls = []

    def fake_run(spec):
        calls.append(spec)
        if len(calls) == fail_on:
            raise RuntimeError("injected run failure")
        forgot = 7 if spec.controller.eta > 0 else 0
        return replace(synthetic_record(fault_count), forgetting_steps=forgot)

    monkeypatch.setattr(harness, "run_experiment", fake_run)
    return calls


class TestAblation:
    """The ablation sweep with run_experiment stubbed out."""

    def test_pairs_and_failure_row(self, tmp_path, monkeypatch, capsys):
        calls = stub_runs(monkeypatch, fail_on=2)  # cell 0's forgetting-off run
        out = tmp_path / "ablation"
        assert cli_main(["ablate", "--out", str(out)]) == 1
        assert "on 8/9 cells" in capsys.readouterr().out

        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[1] == ("cell,freq_hz,mu,status,resuppression_forgetting_s,"
                            "resuppression_no_forgetting_s,fault_count,fault_reasons,"
                            "forgetting_steps")
        statuses = [line.split(",")[3] for line in lines[2:]]
        assert len(statuses) == 9
        assert statuses[0] == "failed: injected run failure"
        assert statuses[1:] == ["ok"] * 8
        # the forgetting run's count; the eta = 0 run's is 0
        assert [line.split(",")[-1] for line in lines[3:]] == ["7"] * 8

        assert len(calls) == 18
        t_open = default_spec().t_open
        for on, off in zip(calls[::2], calls[1::2]):
            assert on.plant.seed == off.plant.seed
            assert on.controller.forgetting.eta > 0.0
            assert off.controller.forgetting.eta == 0.0
            assert_fields_equal(
                replace(off, controller=replace(off.controller,
                                                eta=on.controller.eta)), on)
            assert on.omega_shift_time == t_open + 1.0
            assert on.t_total == t_open + 2.5

    @pytest.mark.parametrize("fault_count, status", [(0, 0), (1, 1)])
    def test_exit_status_follows_faults(self, tmp_path, monkeypatch,
                                        fault_count, status):
        stub_runs(monkeypatch, fault_count=fault_count)
        rows = harness.run_ablation(default_spec(), out_dir=None)
        assert [row["fault_count"] for row in rows] == [2 * fault_count] * 9
        assert cli_main(["ablate", "--out", str(tmp_path)]) == status

    def test_at_rest_cell_is_not_measurable(self, tmp_path, monkeypatch, capsys):
        # a noise-free plant at rest until the kick: nothing to re-suppress
        # below, where the ablation used to report 1.500 s for both runs and
        # count the tie as a win.  One cell keeps the two real runs short.
        cells = harness.grid_specs
        monkeypatch.setattr(harness, "grid_specs",
                            lambda base, base_seed: cells(base, base_seed)[:1])
        path = tmp_path / "spec.txt"
        path.write_text("sim.q0 = 0.0\nsim.t_open = 0.3\nsim.t_total = 0.6\n")
        assert cli_main(["ablate", "--spec", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["cell 0: forgetting None vs None without",
                       "forgetting re-suppressed at least as fast on 0/1 cells",
                       "0/1 cells measured; 1 not measurable (all-zero "
                       "pre-switch output)"]
        row = (tmp_path / "out" / "ablation.csv").read_text().splitlines()[2]
        # no fault, an empty tally; the forgetting run forgot on 45 steps
        # after the kick
        assert row.endswith(",ok,None,None,0,{},45")

    def test_no_open_loop_segment_refused_before_any_run(self, tmp_path,
                                                         monkeypatch, capsys):
        # re-suppression is measured against the open loop: without one the
        # 18 runs used to go ahead and every cell then failed
        calls = stub_runs(monkeypatch)
        path = tmp_path / "spec.txt"
        path.write_text("sim.t_open = 0.0\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["ablate", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pcac: ") and "sim.t_open = 0.0" in err
        assert calls == [] and not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="open-loop"):
            harness.run_ablation(replace(default_spec(), t_open=0.0))
        assert calls == []


class TestSweepCells:
    """A grid or ablation cell is its base spec with only the plant's omega,
    mu and seed replaced, so every other plant field reaches every cell."""

    SWEPT = ("omega", "mu", "seed")

    @staticmethod
    def base():
        spec = default_spec()
        return replace(spec, plant=replace(spec.plant, kappa=3e4, amp_scale=40.0,
                                           noise_std=0.5))

    def assert_carry_base_plant(self, cells, base):
        for cell in cells:
            for f in fields(EmulatorParams):
                if f.name not in self.SWEPT:
                    assert getattr(cell.plant, f.name) == getattr(base.plant, f.name), \
                        f.name

    def test_grid_cells(self):
        base = self.base()
        cells = harness.grid_specs(base, base_seed=5)
        self.assert_carry_base_plant(cells, base)
        assert ([(c.plant.omega, c.plant.mu, c.plant.seed) for c in cells]
                == [(g.omega, g.mu, g.seed) for g in operating_grid(5)])
        for cell in cells:
            assert replace(cell, plant=base.plant) == base

    def test_ablation_cells(self, monkeypatch):
        calls = stub_runs(monkeypatch)
        base = self.base()
        harness.run_ablation(base, base_seed=5)
        assert len(calls) == 18
        self.assert_carry_base_plant(calls, base)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_default_spec_is_mid_grid_cell(self, seed):
        assert default_spec(seed).plant == operating_grid(seed)[4]
        assert harness.grid_specs(default_spec(seed), base_seed=seed)[4] == \
            default_spec(seed)
