"""Experiment runner, analysis helpers, record/spec files, and the CLI."""
import numpy as np
import pytest
from dataclasses import replace

from pcac import (
    EmulatorParams,
    ExperimentSpec,
    amplitude_spectrum,
    default_config,
    default_spec,
    experiment_metrics,
    final_attenuation_db,
    parse_spec_file,
    read_record,
    run_experiment,
    suppression_time,
    trailing_rms,
    write_record,
    write_spec_file,
)
from pcac.cli import main as cli_main


def short_spec(**kw):
    """Small, fast experiment at the mid-grid operating point."""
    base = default_spec()
    kw.setdefault("t_open", 0.3)
    kw.setdefault("t_total", 0.5)
    kw.setdefault("q0", 1.0)
    return replace(base, **kw)


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
    def test_roundtrip(self, tmp_path):
        rec = run_experiment(short_spec())
        path = str(tmp_path / "record.csv")
        write_record(rec, path)
        back = read_record(path)
        np.testing.assert_array_equal(back.t, rec.t)
        np.testing.assert_array_equal(back.y, rec.y)
        np.testing.assert_array_equal(back.u, rec.u)
        np.testing.assert_array_equal(back.phase, rec.phase)
        assert back.k_switch == rec.k_switch
        assert back.t_s == rec.t_s

    def test_byte_identical_across_reruns(self, tmp_path):
        spec = short_spec()
        spec = replace(spec, plant=replace(spec.plant, noise_std=0.5, seed=3))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_record(run_experiment(spec), p1)
        write_record(run_experiment(spec), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_timing_sidecar_written(self, tmp_path):
        path = str(tmp_path / "record.csv")
        write_record(run_experiment(short_spec()), path)
        lines = open(path + ".timing").read().splitlines()
        assert lines[0] == "t,step_wall_s"
        assert len(lines) == 502


class TestSpecFiles:
    def test_roundtrip(self, tmp_path):
        spec = ExperimentSpec(
            plant=EmulatorParams(omega=2 * np.pi * 140, mu=6.0, noise_std=0.2,
                                 seed=5),
            controller=default_config(n_hat=6, eta=0.05, r2=0.5),
            t_open=1.0,
            t_total=2.0,
            qdot0=0.25,
            omega_shift_time=1.5,
            omega_shift_factor=1.1,
            kick_q=0.75,
        )
        path = str(tmp_path / "spec.txt")
        write_spec_file(spec, path)
        back = parse_spec_file(path)
        assert back.plant == spec.plant
        assert back.controller.dims == spec.controller.dims
        assert back.controller.forgetting == spec.controller.forgetting
        assert back.t_open == spec.t_open
        assert back.qdot0 == spec.qdot0
        assert back.omega_shift_time == spec.omega_shift_time
        assert back.omega_shift_factor == spec.omega_shift_factor
        assert back.kick_q == spec.kick_q

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
        assert "attenuation_db" in capsys.readouterr().out

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
        r1 = open(tmp_path / "o1" / "record.csv", "rb").read()
        r2 = open(tmp_path / "o2" / "record.csv", "rb").read()
        r3 = open(tmp_path / "o3" / "record.csv", "rb").read()
        assert r1 != r2 and r1 == r3

    def test_grid_writes_summary(self, tmp_path, capsys):
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(q0=1e-3, t_open=1.8, t_total=2.0), path)
        out = tmp_path / "grid"
        assert cli_main(["grid", "--spec", path, "--out", str(out)]) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 2 + 9
        assert "summary written" in capsys.readouterr().out

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
