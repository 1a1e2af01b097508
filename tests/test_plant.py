"""Self-excited oscillator emulator and its fixed-step integrator."""
import numpy as np
import pytest

from pcac import (
    EmulatorParams,
    PlantDivergedError,
    PlantState,
    operating_grid,
    plant_output,
    plant_zoh_step,
)

T_S = 1e-3


def simulate(params, state, n_steps, u=0.0, substeps=10):
    out = []
    for _ in range(n_steps):
        state = plant_zoh_step(state, u, params, T_S, substeps=substeps)
        out.append(state)
    return out


class TestIntegrator:
    def test_unforced_equilibrium_exact(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0)
        s = PlantState()
        for _ in range(50):
            s = plant_zoh_step(s, 0.0, p, T_S)
        assert s.q == 0.0 and s.qdot == 0.0

    def test_limit_cycle_amplitude(self):
        # classical weakly-nonlinear limit-cycle amplitude is 2
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0, kappa=0.0)
        traj = simulate(p, PlantState(q=0.01), 18_000)
        amp = max(abs(s.q) for s in traj[17_000:])
        assert amp == pytest.approx(2.0, rel=0.01)

    def test_substep_halving_consistency(self):
        # gentle dynamics: halving the substep count barely moves one sample
        p = EmulatorParams(omega=2 * np.pi * 10, mu=2.0, kappa=100.0)
        s0 = PlantState(q=0.8, qdot=3.0)
        a = plant_zoh_step(s0, 0.5, p, T_S, substeps=10)
        b = plant_zoh_step(s0, 0.5, p, T_S, substeps=5)
        scale = max(abs(a.q), abs(a.qdot))
        assert abs(a.q - b.q) / scale < 1e-8
        assert abs(a.qdot - b.qdot) / scale < 1e-8

    def test_fourth_order_convergence(self):
        # global error over one sample decays as h^4
        p = EmulatorParams(omega=2 * np.pi * 80, mu=3.0, kappa=500.0)
        s0 = PlantState(q=1.0, qdot=0.0)
        ref = plant_zoh_step(s0, 0.2, p, T_S, substeps=1024)
        errs, hs = [], []
        for sub in (2, 4, 8, 16):
            s = plant_zoh_step(s0, 0.2, p, T_S, substeps=sub)
            errs.append(np.hypot(s.q - ref.q, (s.qdot - ref.qdot) / p.omega))
            hs.append(T_S / sub)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_deterministic_without_noise(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=10.0)
        t1 = simulate(p, PlantState(q=0.05), 500)
        t2 = simulate(p, PlantState(q=0.05), 500)
        assert all(a.q == b.q and a.qdot == b.qdot for a, b in zip(t1, t2))

    def test_blowup_detected(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0, kappa=4e4)
        with pytest.raises(PlantDivergedError):
            plant_zoh_step(PlantState(), 1e8, p, T_S)

    def test_argument_validation(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0)
        with pytest.raises(ValueError):
            plant_zoh_step(PlantState(), 0.0, p, -1.0)
        with pytest.raises(ValueError):
            plant_zoh_step(PlantState(), 0.0, p, T_S, substeps=0)
        with pytest.raises(ValueError):
            EmulatorParams(omega=-1.0, mu=1.0)

    def test_rejects_negative_seed(self):
        # numpy.random.default_rng(-1) raised only when the run began
        with pytest.raises(ValueError, match="seed"):
            EmulatorParams(omega=2 * np.pi * 150, mu=1.0, noise_std=0.5, seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("noise_std", np.nan),  # nan > 0 is False: the run was noise-free
        ("noise_std", np.inf), ("kappa", np.nan), ("kappa", -np.inf),
        ("omega", np.inf), ("mu", np.inf), ("amp_scale", np.inf),
        ("omega", np.nan), ("mu", np.nan), ("amp_scale", np.nan),
        ("seed", 1.5)])
    def test_rejects_value_outside_domain(self, name, value):
        # at construction, not at the first plant step or RLS update
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            EmulatorParams(**{"omega": 2 * np.pi * 150, "mu": 1.0, name: value})


class TestOutput:
    def test_linear_scaling_without_noise(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0, amp_scale=40.0)
        assert plant_output(PlantState(q=0.5), p) == 20.0

    def test_seeded_noise_reproducible(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0, noise_std=0.5, seed=3)
        a = [plant_output(PlantState(q=0.1), p, np.random.default_rng(p.seed))
             for _ in range(1)]
        b = [plant_output(PlantState(q=0.1), p, np.random.default_rng(p.seed))
             for _ in range(1)]
        assert a == b

    def test_noise_requires_rng(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=1.0, noise_std=0.5)
        with pytest.raises(ValueError):
            plant_output(PlantState(), p)

    def test_dominant_tone_matches_omega(self):
        p = EmulatorParams(omega=2 * np.pi * 150, mu=10.0, kappa=0.0)
        traj = simulate(p, PlantState(q=0.05), 4000)
        y = np.array([plant_output(s, p) for s in traj[2000:]])  # settled, 2 s
        spec = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(y.size, T_S)
        f_peak = freqs[np.argmax(spec)]
        assert f_peak == pytest.approx(150.0, abs=2.0)


class TestOperatingGrid:
    def test_nine_distinct_points(self):
        grid = operating_grid()
        assert len(grid) == 9
        assert len({(g.omega, g.mu) for g in grid}) == 9

    def test_every_point_self_excites_within_3s(self):
        for g in operating_grid():
            traj = simulate(g, PlantState(q=1e-3), 3000)
            amp = max(abs(s.q) for s in traj[2700:])
            assert amp > 1.8, f"cell {g} only reached {amp}"

    def test_peak_to_peak_stabilizes(self):
        g = operating_grid()[0]  # slowest-growing cell
        traj = simulate(g, PlantState(q=1e-3), 6000)
        q = np.array([s.q for s in traj])
        p2p = [np.ptp(q[4000:5000]), np.ptp(q[5000:6000])]
        assert abs(p2p[1] - p2p[0]) / p2p[0] < 0.05
