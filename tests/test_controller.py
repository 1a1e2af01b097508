"""Controller orchestration: sequencing, determinism, causality, fallback."""
from dataclasses import replace

import numpy as np
import pytest
from test_riccati import textbook_control_gain, textbook_riccati_backward
from test_rls import textbook_rls_update

from pcac import (
    ModelDims,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
    control_gain,
    default_spec,
    pcac_init,
    pcac_step,
    riccati_backward,
    rls_update,
    run_experiment,
    saturate,
    suppression_time,
)
from pcac import controller, rls
from pcac.controller import PcacConfig, StepBuffers


def run_sequence(cfg, measurements):
    state = pcac_init(cfg)
    u_req, u = [], []
    for y in measurements:
        r, i, state = pcac_step(state, np.atleast_1d(y), cfg)
        u_req.append(r.copy())
        u.append(i.copy())
    return u_req, u, state


class TestInit:
    def test_stock_configuration(self):
        cfg = PcacConfig()
        state = pcac_init(cfg)
        assert state.rls.theta.shape == (20,)
        assert np.all(state.rls.theta == 1e-10)
        np.testing.assert_array_equal(state.rls.psi, 1e-4 * np.eye(20))
        assert state.u_implemented[0] == 0.0
        np.testing.assert_array_equal(state.history.y_past, np.zeros((10, 1)))

    def test_rejects_zero_psi0(self):
        with pytest.raises(ValueError):
            PcacConfig(psi0_scale=0.0)

    @pytest.mark.parametrize("name, value", [
        ("psi0_scale", -1e-4),
        ("tau_n", 200),  # not below tau_d
        ("tau_n", 0),
        ("eta", -0.1),
        ("alpha", 0.0),
        ("alpha", 1.5),
        ("ell", 0),
        ("r2", 0.0),
        ("r2", -1e-2),
        ("u_sat", -1.0),
        ("n_hat", 0),
        ("p", 0),
        ("m", 0),
    ] + [(name, value)
         for name in ("theta0_scale", "psi0_scale", "eta", "r2", "u_sat")
         for value in (np.nan, np.inf, -np.inf)])
    def test_rejects_out_of_range_hyperparameter(self, name, value):
        # at construction, not at the first step, naming the hyperparameter
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            PcacConfig(**{name: value})

    def test_replace_rederives(self):
        cfg = replace(PcacConfig(), n_hat=4, m=2, eta=0.0, ell=7, r2=0.1, u_sat=3.0)
        assert cfg.dims == ModelDims(n_hat=4, p=1, m=2)
        assert cfg.forgetting.eta == 0.0
        assert cfg.weights.ell == 7
        np.testing.assert_array_equal(cfg.weights.R2, 0.1 * np.eye(2))
        assert cfg.weights.R1.shape == (4, 4)
        np.testing.assert_array_equal(cfg.bounds.u_max, [3.0, 3.0])
        np.testing.assert_array_equal(cfg.bounds.u_min, [-3.0, -3.0])
        with pytest.raises(ValueError, match="weights"):
            replace(cfg, weights=PcacConfig().weights)


class TestStep:
    def test_near_zero_model_requests_near_zero_control(self):
        cfg = PcacConfig()
        state = pcac_init(cfg)
        u_req, u_impl, _ = pcac_step(state, np.array([50.0]), cfg)
        assert abs(u_req[0]) < 1e-3
        assert abs(u_impl[0]) < 1e-3

    def test_deterministic(self):
        cfg = PcacConfig()
        rng = np.random.default_rng(31)
        ys = rng.normal(0, 30, 150)
        a_req, a_imp, _ = run_sequence(cfg, ys)
        b_req, b_imp, _ = run_sequence(cfg, ys)
        assert all(np.array_equal(x, y) for x, y in zip(a_req, b_req))
        assert all(np.array_equal(x, y) for x, y in zip(a_imp, b_imp))

    def test_causality_under_future_truncation(self):
        cfg = PcacConfig()
        rng = np.random.default_rng(32)
        ys = rng.normal(0, 30, 80)
        altered = ys.copy()
        altered[50:] += 100.0
        a_req, _, _ = run_sequence(cfg, ys)
        b_req, _, _ = run_sequence(cfg, altered)
        for k in range(50):
            np.testing.assert_array_equal(a_req[k], b_req[k])
        assert not np.array_equal(a_req[55], b_req[55])

    def test_saturation_always_enforced(self):
        cfg = PcacConfig()
        rng = np.random.default_rng(33)
        _, u_impl, state = run_sequence(cfg, rng.normal(0, 80, 300))
        assert all(abs(u[0]) <= 8.0 for u in u_impl)
        assert state.rls.step == 300

    @pytest.mark.parametrize("p, m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_matches_manual_composition(self, p, m, monkeypatch):
        # a step must equal the four module operations called in order, the
        # layers here allocating what the step writes into its buffers; short
        # windows, alpha = 0.5 and data that jumps 100x make forgetting fire
        cfg = PcacConfig(n_hat=4, p=p, m=m, tau_n=3, tau_d=8, alpha=0.5)
        betas = []

        def recorded(compute_beta):
            def wrapper(*args):
                betas.append(compute_beta(*args))
                return betas[-1]
            return wrapper

        monkeypatch.setattr(rls, "compute_beta", recorded(rls.compute_beta))
        rng = np.random.default_rng(34)
        state = pcac_init(cfg)
        for k in range(25):
            y_k = rng.normal(0, 10 if k < 18 else 1000, p)
            phi = build_regressor(state.history, cfg.dims)
            rls_next = rls_update(state.rls, phi, y_k, cfg.forgetting)
            A, B, _ = assemble_bocf(rls_next.theta, cfg.dims)
            x_now = compute_bocf_state(state.history, y_k, rls_next.theta, cfg.dims)
            x_next = A @ x_now + B @ state.u_implemented
            P2 = riccati_backward(A, B, cfg.weights)
            K = control_gain(A, B, cfg.weights.R2, P2)
            expect_req = K @ x_next
            expect_impl = saturate(expect_req, cfg.bounds)

            u_req, u_impl, state = pcac_step(state, y_k, cfg)
            np.testing.assert_array_equal(u_req, expect_req)
            np.testing.assert_array_equal(u_impl, expect_impl)
            np.testing.assert_array_equal(state.rls.theta, rls_next.theta)
        assert max(betas) > 1.0

    def test_update_and_push_leave_previous_arrays_unchanged(self):
        # states are values: stepping from one must not write into it
        cfg = PcacConfig(n_hat=3, tau_n=2, tau_d=5)
        rng = np.random.default_rng(35)
        state = pcac_init(cfg)
        for _ in range(12):
            y = rng.standard_normal(1)
            rls, history = state.rls, state.history
            arrays = (rls.theta, rls.psi, rls.error_window,
                      history.y_past, history.u_past)
            kept = [a.copy() for a in arrays]
            rls_update(rls, build_regressor(history, cfg.dims), y, cfg.forgetting)
            history.push(y, rng.standard_normal(1))
            _, _, state = pcac_step(state, y, cfg)
            for a, b in zip(arrays, kept):
                np.testing.assert_array_equal(a, b)

    def test_stabilizes_known_arx_plant(self):
        # closed loop against an unstable scalar ARX plant: the open loop
        # grows like 1.01^k (~2e8 over this run), so staying bounded and
        # small demonstrates the loop bootstraps and stabilizes it
        cfg = PcacConfig(n_hat=2, psi0_scale=100.0)
        state = pcac_init(cfg)
        f1, f2, g1, g2 = -1.9, 1.02, 1.0, 0.3  # |roots| ~ 1.01, unstable
        y1 = 0.5
        y2 = u1 = u2 = 0.0
        ys = []
        for _ in range(2000):
            y = -f1 * y1 - f2 * y2 + g1 * u1 + g2 * u2
            _, u_impl, state = pcac_step(state, np.array([y]), cfg)
            y2, y1 = y1, y
            u2, u1 = u1, u_impl[0]
            ys.append(abs(y))
        assert max(ys) < 200.0, "loop failed to contain the unstable plant"
        assert max(ys[1600:]) < 0.2 * max(ys), "late amplitude did not shrink"
        A, B, _ = assemble_bocf(state.rls.theta, cfg.dims)
        K = control_gain(
            A, B, cfg.weights.R2, riccati_backward(A, B, cfg.weights)
        )
        assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0

    def test_calls_each_layer_by_name_once_per_step(self, monkeypatch):
        # the benchmark's span tracer wraps these names in pcac.controller;
        # a refactor that inlines a layer would leave its row empty
        names = ("build_regressor", "rls_update", "assemble_bocf",
                 "compute_bocf_state", "riccati_backward", "control_gain",
                 "saturate")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(controller, name,
                                counted(name, getattr(controller, name)))
        cfg = PcacConfig()
        _, _, state = run_sequence(cfg, np.linspace(0.5, -0.5, 5))
        assert state.fault_count == 0
        assert calls == dict.fromkeys(names, 5)

    def test_riccati_fault_holds_previous_control(self, monkeypatch):
        from pcac import controller as ctl
        from pcac.errors import NumericalError

        cfg = PcacConfig()
        rng = np.random.default_rng(35)
        state = pcac_init(cfg)
        for y in rng.normal(0, 30, 20):
            _, _, state = pcac_step(state, np.array([y]), cfg)
        u_prev = state.u_implemented.copy()

        def boom(*a, **k):
            raise NumericalError("forced failure")

        monkeypatch.setattr(ctl, "riccati_backward", boom)
        u_req, u_impl, new_state = pcac_step(state, np.array([1.0]), cfg)
        np.testing.assert_array_equal(u_impl, u_prev)
        assert new_state.fault_count == state.fault_count + 1
        assert new_state.last_fault is not None
        assert new_state.rls.step == state.rls.step + 1  # identification still advanced


class TestBufferOwnership:
    """Each controller writes its step into its own buffers, and nothing in
    them carries from one step to the next."""

    @staticmethod
    def outputs(steps):
        # every step's (u_req, u_impl) and the state's values, as bytes
        return [b"".join(a.tobytes() for a in (r, i, s.rls.theta, s.rls.psi))
                for r, i, s in steps]

    def test_interleaved_controllers_match_lone_runs(self):
        cfg = PcacConfig(tau_n=5, tau_d=20)
        rng = np.random.default_rng(36)
        ys_a, ys_b = rng.normal(0, 30, (2, 60, 1))
        a, b = pcac_init(cfg), pcac_init(cfg)
        assert not np.shares_memory(a.buffers.sweep.Z, b.buffers.sweep.Z)
        steps_a, steps_b = [], []
        for y_a, y_b in zip(ys_a, ys_b):
            steps_a.append(pcac_step(a, y_a, cfg))
            a = steps_a[-1][2]
            steps_b.append(pcac_step(b, y_b, cfg))
            b = steps_b[-1][2]
        for ys, steps in ((ys_a, steps_a), (ys_b, steps_b)):
            state, alone = pcac_init(cfg), []
            for y in ys:
                alone.append(pcac_step(state, y, cfg))
                state = alone[-1][2]
            assert self.outputs(steps) == self.outputs(alone)

    def test_stepping_a_state_twice_repeats_and_leaves_it(self):
        cfg = PcacConfig(tau_n=5, tau_d=20)
        rng = np.random.default_rng(37)
        _, _, state = run_sequence(cfg, rng.normal(0, 30, 40))
        arrays = (state.rls.theta, state.rls.psi, state.rls.error_window,
                  state.history.y_past, state.history.u_past,
                  state.u_implemented, state.u_requested)
        kept = [a.tobytes() for a in arrays]
        y = np.array([12.5])
        first = pcac_step(state, y, cfg)
        first_bytes = self.outputs([first])
        second = pcac_step(state, y, cfg)
        assert self.outputs([second]) == first_bytes
        assert [a.tobytes() for a in arrays] == kept

    def test_fault_leaves_nothing_for_later_steps(self, monkeypatch):
        # the faulting sweep fills the buffers, spoils them and raises; the
        # steps after it must equal those of a twin with fresh buffers
        from pcac.errors import NumericalError

        cfg = PcacConfig(tau_n=5, tau_d=20)
        rng = np.random.default_rng(38)
        _, _, state = run_sequence(cfg, rng.normal(0, 30, 40))
        sweep = controller.riccati_backward

        def boom(A, B, w, out):
            sweep(A, B, w, out)
            for scratch in (out.P, out.Y, out.M, out.G, out.O, out.P2):
                scratch.fill(np.nan)
            raise NumericalError("forced failure")

        with monkeypatch.context() as patch:
            patch.setattr(controller, "riccati_backward", boom)
            _, _, state = pcac_step(state, np.array([3.0]), cfg)
        assert state.last_fault == "forced failure"
        twin = replace(state, buffers=StepBuffers.for_config(cfg))
        assert twin.buffers is not state.buffers
        steps, twin_steps = [], []
        for y in rng.normal(0, 30, (20, 1)):
            steps.append(pcac_step(state, y, cfg))
            state = steps[-1][2]
            twin_steps.append(pcac_step(twin, y, cfg))
            twin = twin_steps[-1][2]
        assert self.outputs(steps) == self.outputs(twin_steps)
        assert state.fault_count == twin.fault_count == 1


def noisy_shift_spec(seed):
    """Mid-grid cell with sensor noise 0.5, and 1 s after the switch a 1.1x
    frequency shift plus a unit kick, then 1.5 s more: the forgetting case."""
    base = default_spec(seed)
    t_event = base.t_open + 1.0
    return replace(base, plant=replace(base.plant, noise_std=0.5),
                   t_total=t_event + 1.5, omega_shift_time=t_event,
                   omega_shift_factor=1.1, kick_q=1.0)


class TestAgainstTextbookLayers:
    """Whole experiments with the fused Riccati sweep, rank-1 RLS update and
    dot-product F-test against the same runs on their textbook forms."""

    # The forms sum in different orders; the closed loop carries the
    # rounding along, but within 1e-6 on signals of order 100.
    TOL = 1e-6

    @pytest.mark.parametrize("spec", [default_spec(0), noisy_shift_spec(3)],
                             ids=["default_0", "noisy_shift_3"])
    def test_records_within_tolerance(self, spec, monkeypatch):
        rec = run_experiment(spec)
        with monkeypatch.context() as patch:
            patch.setattr(controller, "riccati_backward", textbook_riccati_backward)
            patch.setattr(controller, "control_gain", textbook_control_gain)
            patch.setattr(controller, "rls_update",
                          lambda *args: textbook_rls_update(*args)[0])
            ref = run_experiment(spec)
        assert np.max(np.abs(rec.y - ref.y)) <= self.TOL
        assert np.max(np.abs(rec.u - ref.u)) <= self.TOL
        assert suppression_time(rec) == suppression_time(ref)
        assert rec.fault_count == ref.fault_count == 0
