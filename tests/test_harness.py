"""Experiment runner, analysis helpers, record/spec files, and the CLI."""
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac import (
    EmulatorParams,
    ExperimentSpec,
    PcacConfig,
    amplitude_spectrum,
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
from pcac import harness
from pcac.cli import main as cli_main
from pcac.harness import RECORD_COLUMNS
from test_arx import split_coefficients


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
        alpha=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
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
    t_open, t_total = sorted(draw(st.lists(NONNEGATIVE, min_size=2, max_size=2)))
    return ExperimentSpec(
        plant=plant,
        controller=controller,
        t_s=draw(POSITIVE),
        t_open=t_open,
        t_total=t_total,
        q0=draw(FINITE),
        qdot0=draw(FINITE),
        omega_shift_time=draw(st.none() | FINITE),
        omega_shift_factor=draw(FINITE),
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

    def test_theta_norms_are_norms_of_split_coefficients(self, monkeypatch):
        # the logged norms equal np.linalg.norm of F and G to the bit
        spec = short_spec()
        step, thetas = harness.pcac_step, []

        def capture(state, y, cfg):
            result = step(state, y, cfg)
            if not thetas:
                thetas.append(state.rls.theta.copy())
            thetas.append(result[2].rls.theta.copy())
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

    def test_timing_sidecar_written(self, tmp_path):
        path = str(tmp_path / "record.csv")
        write_record(run_experiment(short_spec()), path)
        lines = Path(path + ".timing").read_text().splitlines()
        assert lines[0] == "t,step_wall_s"
        assert len(lines) == 502


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

    @pytest.mark.parametrize("case", ["mutated_R2", "mutated_u_max", "p2_m2"])
    def test_write_refuses_what_keys_cannot_hold(self, tmp_path, case):
        path = tmp_path / "spec.txt"
        with pytest.raises(ValueError, match="controller"):
            spec = default_spec()
            if case == "mutated_R2":
                spec.controller.weights.R2[0, 0] = 0.5
            elif case == "mutated_u_max":
                spec.controller.bounds.u_max[0] = 5.0
            else:
                spec = replace(spec, controller=PcacConfig(p=2, m=2))
            write_spec_file(spec, str(path))
        assert not path.exists()

    def test_write_refuses_non_finite_value(self, tmp_path):
        path = tmp_path / "spec.txt"
        with pytest.raises(ValueError, match="sim.q0.*not finite"):
            write_spec_file(replace(default_spec(), q0=np.nan), str(path))
        assert not path.exists()

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
        r1, r2, r3 = ((tmp_path / name / "record.csv").read_bytes()
                      for name in ("o1", "o2", "o3"))
        assert r1 != r2 and r1 == r3

    def test_grid_writes_summary(self, tmp_path, capsys):
        path = str(tmp_path / "spec.txt")
        write_spec_file(short_spec(q0=1e-3, t_open=1.8, t_total=2.0), path)
        out = tmp_path / "grid"
        assert cli_main(["grid", "--spec", path, "--out", str(out)]) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 2 + 9
        assert "summary written" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["run", "grid", "ablate"])
    @pytest.mark.parametrize("case", ["unknown_key", "missing_file"])
    def test_spec_error_exits_two(self, tmp_path, capsys, command, case):
        path = tmp_path / "spec.txt"
        if case == "unknown_key":
            path.write_text("plant.mu = 5.0\nsim.kickq = 1.0\n")
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--spec", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pcac: ") and str(path) in err
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

    def test_sweeps_have_no_workers_option(self):
        for command in ("grid", "ablate"):
            with pytest.raises(SystemExit):
                cli_main([command, "--workers", "2"])


def synthetic_record(fault_count=0):
    """A 5.5 s record at t_s = 0.1: oscillating until the switch at 3 s,
    silent after it except one sample at 4.5 s."""
    t = np.arange(56) * 0.1
    y = np.where(t < 3.0, 1.0, 0.0)
    y[45] = 1.0
    zeros = np.zeros_like(t)
    return harness.ExperimentRecord(
        t=t, y=y, u_req=zeros, u=zeros, theta_f_norm=zeros,
        theta_g_norm=zeros, phase=(t >= 3.0).astype(int), step_wall=zeros,
        k_switch=30, t_s=0.1, fault_count=fault_count,
    )


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


def stub_runs(monkeypatch, fail_on=None, fault_count=0):
    """Replace run_experiment: record each spec, raise on call ``fail_on``,
    else return ``synthetic_record(fault_count)``.  Returns the specs."""
    calls = []

    def fake_run(spec):
        calls.append(spec)
        if len(calls) == fail_on:
            raise RuntimeError("injected run failure")
        return synthetic_record(fault_count)

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
                            "resuppression_no_forgetting_s,fault_count")
        statuses = [line.split(",")[3] for line in lines[2:]]
        assert len(statuses) == 9
        assert statuses[0] == "failed: injected run failure"
        assert statuses[1:] == ["ok"] * 8

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
