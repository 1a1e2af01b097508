"""Controller orchestration: sequencing, determinism, causality, fallback."""
from dataclasses import replace

import numpy as np
import pytest
from test_arx import arx_buffers, past
from test_riccati import (
    first_gain,
    sweep_holding,
    textbook_control_gain,
    textbook_riccati_backward,
)
from test_rls import textbook_rls_update

from pcac import (
    ForgettingConfig,
    HorizonWeights,
    IoHistory,
    ModelDims,
    RlsState,
    SaturationBounds,
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
from pcac import controller, harness
from pcac.controller import PcacConfig
from pcac.harness import grid_specs


def run_sequence(cfg, measurements):
    state = pcac_init(cfg)
    u_req, u = [], []
    for y in measurements:
        state = pcac_step(state, np.atleast_1d(y), cfg)
        assert state.fault is None
        u_req.append(state.u_requested)
        u.append(state.u_implemented)
    return u_req, u, state


class TestInit:
    def test_stock_configuration(self):
        cfg = PcacConfig()
        state = pcac_init(cfg)
        assert state.rls.theta.shape == (20, 1)
        assert np.all(state.rls.theta == 1e-10)
        np.testing.assert_array_equal(state.rls.psi, 1e-4 * np.eye(20))
        assert state.u_implemented[0] == 0.0
        np.testing.assert_array_equal(state.history.phi, np.zeros(20))

    def test_rejects_zero_psi0(self):
        with pytest.raises(ValueError):
            PcacConfig(psi0_scale=0.0)

    @pytest.mark.parametrize("name, value", [
        ("psi0_scale", -1e-4),
        ("tau_n", 200),  # not below tau_d
        ("tau_n", 0),
        ("eta", -0.1),
        ("alpha", 0.0),
        ("alpha", 1.0),  # the 1 - alpha = 0 quantile fails at the first F-test
        ("alpha", 1e-17),  # 1 - alpha rounds to 1, whose quantile fails the same way
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

    @staticmethod
    def weights(**kw):
        return HorizonWeights(**{"ell": 5, "R1": np.eye(2), "R2": np.eye(1),
                                 "P_terminal": np.eye(2), **kw})

    # (builder, the field its error names): each derived class refuses its
    # own bad field when built on its own.  Each of these used to construct:
    # tau_n = 40.5 then raised TypeError at step tau_d, a non-finite R2 faulted
    # every step, a NaN bound gave NaN controls, and p = 2 with tau_d = 5
    # raised at the sixth step.
    OWN_FIELD_ERRORS = {
        "fractional_tau_n": (lambda: ForgettingConfig(tau_n=40.5), "tau_n"),
        "fractional_tau_d": (lambda: ForgettingConfig(tau_d=200.5), "tau_d"),
        "fractional_n_hat": (lambda: ModelDims(n_hat=2.5), "n_hat"),
        "fractional_ell": (lambda: TestInit.weights(ell=2.5), "ell"),
        "nan_R2": (lambda: TestInit.weights(R2=[[np.nan]]), "R2"),
        "inf_R2": (lambda: TestInit.weights(R2=[[np.inf]]), "R2"),
        "nan_R1": (lambda: TestInit.weights(R1=[[np.nan, 0.0], [0.0, 1.0]]), "R1"),
        "inf_P_terminal": (lambda: TestInit.weights(P_terminal=np.diag([1.0, np.inf])),
                           "P_terminal"),
        "nan_u_min": (lambda: SaturationBounds([np.nan], [1.0]), "u_min"),
        "nan_u_max": (lambda: SaturationBounds([-1.0], [np.nan]), "u_max"),
        "nan_psi0_scale": (lambda: RlsState.initialize(np.zeros((2, 1)), np.nan,
                                                       ForgettingConfig()), "psi0_scale"),
        "inf_psi0_scale": (lambda: RlsState.initialize(np.zeros((2, 1)), np.inf,
                                                       ForgettingConfig()), "psi0_scale"),
        "nan_theta0": (lambda: RlsState.initialize(np.array([[0.0], [np.nan]]), 1.0,
                                                   ForgettingConfig()), "theta0"),
        "short_tau_d_for_p": (lambda: PcacConfig(p=2, tau_n=1, tau_d=5), "tau_d"),
    }

    @pytest.mark.parametrize("case", list(OWN_FIELD_ERRORS))
    def test_derived_class_refuses_its_own_field(self, case):
        build, name = self.OWN_FIELD_ERRORS[case]
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            build()

    def test_unbounded_actuator_and_smallest_multivariable_window_are_accepted(self):
        b = SaturationBounds([-np.inf], [np.inf])
        assert saturate(np.array([1e300]), b)[0] == 1e300
        assert PcacConfig(p=2, tau_n=1, tau_d=6).forgetting.tau_d == 6

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

    def test_derived_arrays_cannot_change_under_a_controller(self):
        # a controller must not run on weights other than those it was
        # built with: when its buffers took r2 once, an in-place
        # R2[0, 0] = 1.0 after 300 closed-loop steps of default_spec(0) left
        # its gain 2.4x that of the changed weights
        cfg = PcacConfig()
        pcac_init(cfg)
        for held in (cfg.weights.R1, cfg.weights.R2, cfg.weights.P_terminal,
                     cfg.bounds.u_min, cfg.bounds.u_max):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 1.0


class TestStep:
    def test_near_zero_model_requests_near_zero_control(self):
        cfg = PcacConfig()
        state = pcac_step(pcac_init(cfg), np.array([50.0]), cfg)
        assert abs(state.u_requested[0]) < 1e-3
        assert abs(state.u_implemented[0]) < 1e-3

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
    def test_matches_manual_composition(self, p, m):
        # a step must equal the four module operations called in order, the
        # layers here on fresh buffers rather than the step's own; short
        # windows, alpha = 0.5 and data that jumps 100x make forgetting fire
        cfg = PcacConfig(n_hat=4, p=p, m=m, tau_n=3, tau_d=8, alpha=0.5)
        betas = []
        rng = np.random.default_rng(34)
        state = pcac_init(cfg)
        for k in range(25):
            y_k = rng.normal(0, 10 if k < 18 else 1000, p)
            phi = build_regressor(state.history)
            rls_next = rls_update(state.rls, phi, y_k, cfg.forgetting)
            history = state.history.push(y_k, state.u_implemented)
            A, B = assemble_bocf(rls_next.theta, arx_buffers(cfg.dims))
            x_next = compute_bocf_state(history, rls_next.theta,
                                        arx_buffers(cfg.dims))
            sweep = sweep_holding(A, B, cfg.weights)
            riccati_backward(sweep)
            K = control_gain(sweep)
            expect_req = K @ x_next
            expect_impl = saturate(expect_req, cfg.bounds)

            state = pcac_step(state, y_k, cfg)
            np.testing.assert_array_equal(state.u_requested, expect_req)
            np.testing.assert_array_equal(state.u_implemented, expect_impl)
            np.testing.assert_array_equal(state.rls.theta, rls_next.theta)
            assert (state.rls.beta, state.rls.g) == (rls_next.beta, rls_next.g)
            betas.append(state.rls.beta)
        assert max(betas) > 1.0

    def test_update_and_push_leave_previous_arrays_unchanged(self):
        # states are values: stepping from one must not write into it
        cfg = PcacConfig(n_hat=3, tau_n=2, tau_d=5)
        rng = np.random.default_rng(35)
        state = pcac_init(cfg)
        for _ in range(12):
            y = rng.standard_normal(1)
            rls, history = state.rls, state.history
            arrays = (rls.theta, rls.psi, rls.error_window, history.phi)
            kept = [a.copy() for a in arrays]
            phi = build_regressor(history)
            rls_update(rls, phi, y, cfg.forgetting)
            history.push(y, rng.standard_normal(1))
            state = pcac_step(state, y, cfg)
            for a, b in zip(arrays, kept):
                np.testing.assert_array_equal(a, b)

    def test_stabilizes_known_arx_plant(self):
        # closed loop against an unstable scalar ARX plant: the open loop
        # grows like 1.01^k (~2e8 over this run), so staying bounded and
        # small demonstrates the loop bootstraps and stabilizes it.  As in
        # run_experiment, the control a step returns is applied from the next
        # sample on (one sample of computation delay), which is the timing
        # the controller's regressor and its x_next assume.  Applied at once,
        # the plant is one the model class cannot hold: the estimate never
        # settles, the loop bursts, and the outcome on about 1 in 10 runs
        # flips with a 1e-15 relative change of K.
        cfg = PcacConfig(n_hat=2, psi0_scale=100.0)
        state = pcac_init(cfg)
        f1, f2, g1, g2 = -1.9, 1.02, 1.0, 0.3  # |roots| ~ 1.01, unstable
        y1 = 0.5
        y2 = u1 = u2 = 0.0
        ys = []
        for _ in range(2000):
            y = -f1 * y1 - f2 * y2 + g1 * u1 + g2 * u2
            u_now = state.u_implemented[0]  # returned by the previous step
            state = pcac_step(state, np.array([y]), cfg)
            y2, y1 = y1, y
            u2, u1 = u1, u_now
            ys.append(abs(y))
        assert max(ys) < 200.0, "loop failed to contain the unstable plant"
        assert max(ys[1600:]) < 0.2 * max(ys), "late amplitude did not shrink"
        # and it identified the plant it stabilized
        np.testing.assert_allclose(state.rls.theta[:, 0], [f1, f2, g1, g2], atol=1e-2)
        A, B = assemble_bocf(state.rls.theta, arx_buffers(cfg.dims))
        K = first_gain(sweep_holding(A, B, cfg.weights))
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
        run_sequence(cfg, np.linspace(0.5, -0.5, 5))  # which asserts no fault
        assert calls == dict.fromkeys(names, 5)

    def test_riccati_fault_holds_previous_control(self, monkeypatch):
        from pcac import controller as ctl
        from pcac.errors import NumericalError

        cfg = PcacConfig()
        rng = np.random.default_rng(35)
        state = pcac_init(cfg)
        for y in rng.normal(0, 30, 20):
            state = pcac_step(state, np.array([y]), cfg)

        def boom(*a, **k):
            raise NumericalError("forced failure")

        monkeypatch.setattr(ctl, "riccati_backward", boom)
        new_state = pcac_step(state, np.array([1.0]), cfg)
        assert new_state.fault == "forced failure"
        np.testing.assert_array_equal(new_state.u_implemented, state.u_implemented)
        np.testing.assert_array_equal(new_state.u_requested, state.u_requested)
        assert new_state.rls.step == state.rls.step + 1  # identification still advanced

    @pytest.mark.parametrize("y", [1.0, 1e200], ids=["sweep", "state_and_sweep"])
    def test_overflow_is_a_fault_under_warnings_as_errors(self, y):
        # F_1 = -1e200 overflows the sweep's products to inf and nan, and
        # with y = 1e200 the state's too; the step's finiteness checks must
        # report that, not a RuntimeWarning
        import warnings

        cfg = PcacConfig(n_hat=2, ell=3)
        state = pcac_init(cfg)
        theta = np.array([[-1e200], [0.0], [1.0], [1.0]])
        state = replace(state, rls=replace(state.rls, theta=theta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new_state = pcac_step(state, np.array([y]), cfg)
        assert new_state.fault == "R2 + B'PB is not positive definite"
        np.testing.assert_array_equal(new_state.u_implemented, state.u_implemented)

    def test_rls_overflow_raises_numerical_error_under_warnings_as_errors(self):
        # y = 1e200 overflows the RLS update's products on the second step;
        # its checks must raise the NumericalError that propagates, not a
        # RuntimeWarning
        import warnings

        from pcac.errors import NumericalError

        cfg = PcacConfig(n_hat=2, ell=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = pcac_step(pcac_init(cfg), np.array([1e200]), cfg)
            assert state.fault is None
            with pytest.raises(NumericalError, match="RLS inner term"):
                pcac_step(state, np.array([1e200]), cfg)


class TestBufferOwnership:
    """Each controller writes its step into its own buffers, and nothing in
    them carries from one step to the next."""

    @staticmethod
    def outputs(steps):
        # every step's controls and estimate, as bytes, and what it decided
        return [(b"".join(a.tobytes() for a in (s.u_requested, s.u_implemented,
                                                 s.rls.theta, s.rls.psi)),
                 s.rls.beta, s.rls.g, s.fault)
                for s in steps]

    def test_interleaved_controllers_match_lone_runs(self):
        cfg = PcacConfig(tau_n=5, tau_d=20)
        rng = np.random.default_rng(36)
        ys_a, ys_b = rng.normal(0, 30, (2, 60, 1))
        a, b = pcac_init(cfg), pcac_init(cfg)
        assert not np.shares_memory(a.sweep.Z, b.sweep.Z)
        steps_a, steps_b = [], []
        for y_a, y_b in zip(ys_a, ys_b):
            a = pcac_step(a, y_a, cfg)
            steps_a.append(a)
            b = pcac_step(b, y_b, cfg)
            steps_b.append(b)
        for ys, steps in ((ys_a, steps_a), (ys_b, steps_b)):
            state, alone = pcac_init(cfg), []
            for y in ys:
                state = pcac_step(state, y, cfg)
                alone.append(state)
            assert self.outputs(steps) == self.outputs(alone)

    def test_stepping_a_state_twice_repeats_and_leaves_it(self):
        cfg = PcacConfig(tau_n=5, tau_d=20)
        rng = np.random.default_rng(37)
        _, _, state = run_sequence(cfg, rng.normal(0, 30, 40))
        arrays = (state.rls.theta, state.rls.psi, state.rls.error_window,
                  state.history.phi, state.u_implemented, state.u_requested)
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

        def boom(out):
            # everything the sweep writes: W's copy of Z and KZ, V but its
            # [0 | R2] block, M and K
            sweep(out)
            k, n = out.M.shape[0], out.Z.shape[0]
            for scratch in (out.W[:k], out.V[:k + n], out.M, out.K):
                scratch.fill(np.nan)
            raise NumericalError("forced failure")

        with monkeypatch.context() as patch:
            patch.setattr(controller, "riccati_backward", boom)
            state = pcac_step(state, np.array([3.0]), cfg)
        assert state.fault == "forced failure"
        fresh = pcac_init(cfg)
        twin = replace(state, arx=fresh.arx, sweep=fresh.sweep)
        assert twin.sweep is not state.sweep and twin.arx is not state.arx
        steps, twin_steps = [], []
        for y in rng.normal(0, 30, (20, 1)):
            state = pcac_step(state, y, cfg)
            steps.append(state)
            twin = pcac_step(twin, y, cfg)
            twin_steps.append(twin)
        assert self.outputs(steps) == self.outputs(twin_steps)
        assert [s.fault for s in steps] == [None] * 20

    def test_rls_fault_propagates_and_leaves_the_state(self, monkeypatch):
        # only the optimizer's faults are held: one from the update raises,
        # and the state it was given then steps as one that never faulted
        from pcac.errors import NumericalError

        cfg = PcacConfig(tau_n=5, tau_d=20)
        ys = np.random.default_rng(39).normal(0, 30, (41, 1))
        _, _, state = run_sequence(cfg, ys[:40])
        _, _, twin = run_sequence(cfg, ys[:40])

        def boom(*args):
            raise NumericalError("forced RLS failure")

        with monkeypatch.context() as patch:
            patch.setattr(controller, "rls_update", boom)
            with pytest.raises(NumericalError, match="forced RLS failure"):
                pcac_step(state, ys[40], cfg)
        assert (self.outputs([pcac_step(state, ys[40], cfg)])
                == self.outputs([pcac_step(twin, ys[40], cfg)]))


def noisy_shift_spec(seed):
    """Mid-grid cell with sensor noise 0.5, and 1 s after the switch a 1.1x
    frequency shift plus a unit kick, then 1.5 s more: the forgetting case."""
    base = default_spec(seed)
    t_event = base.t_open + 1.0
    return replace(base, plant=replace(base.plant, noise_std=0.5),
                   t_total=t_event + 1.5, omega_shift_time=t_event,
                   omega_shift_factor=1.1, kick_q=1.0)


def test_written_record_replays_bit_for_bit(tmp_path):
    # the state is all that a step carries: the record's closed-loop outputs,
    # fed to a fresh controller, give back its controls to the bit
    spec = replace(noisy_shift_spec(0), output_path=str(tmp_path / "record.csv"))
    run_experiment(spec)
    rec = harness.read_record(spec.output_path)
    state = pcac_init(spec.controller)
    u_req, u = [state.u_requested[0]], [state.u_implemented[0]]
    for y in rec.y[rec.k_switch : -1]:
        state = pcac_step(state, np.array([y]), spec.controller)
        assert state.fault is None
        u_req.append(state.u_requested[0])
        u.append(state.u_implemented[0])
    assert u_req == rec.u_req[rec.k_switch :].tolist()
    assert u == rec.u[rec.k_switch :].tolist()


class TestAgainstTextbookLayers:
    """Whole experiments with the fused Riccati sweep, rank-1 RLS update and
    dot-product F-test against the same runs on their textbook forms."""

    # The forms sum in different orders; the closed loop carries the
    # rounding along, but within 1e-6 on signals of order 100.
    TOL = 1e-6

    @pytest.mark.parametrize(
        "spec",
        [default_spec(0), noisy_shift_spec(3), grid_specs(default_spec(0))[2]],
        ids=["default_0", "noisy_shift_3", "grid_cell_2"])
    def test_records_within_tolerance(self, spec, monkeypatch):
        rec = run_experiment(spec)
        with monkeypatch.context() as patch:
            patch.setattr(controller, "riccati_backward", textbook_riccati_backward)
            patch.setattr(controller, "control_gain", textbook_control_gain)
            patch.setattr(controller, "rls_update", textbook_rls_update)
            ref = run_experiment(spec)
        assert np.max(np.abs(rec.y - ref.y)) <= self.TOL
        assert np.max(np.abs(rec.u - ref.u)) <= self.TOL
        assert suppression_time(rec) == suppression_time(ref)
        assert rec.fault_count == ref.fault_count == 0
        # the same forgetting decisions: 0, 41 and 0 steps
        assert rec.forgetting_steps == ref.forgetting_steps


class TestAgainstSymmetrizedP2Ending:
    """Whole experiments against the same runs on a sweep that stops one
    stage short, at P_2 = M_ab K + M_aa + R1, symmetrizes P_2 and rebuilds
    M_1 = Z'P_2Z + diag(0, R2) from it.  In this order of operations it
    gives bit for bit the records of pcac_step when its sweep returned
    that P_2 and its gain rebuilt M_1.  The two differ by rounding alone."""

    # Measured: y within 5.0e-8 on default_0 and 8.8e-11 on noisy_shift_0,
    # u within 5.0e-8 and 5.4e-11.
    TOL = 1e-7

    @staticmethod
    def p2_ending_sweep(out):
        w = out.weights
        (n, m), P2 = out.B.shape, w.P_terminal
        if w.ell > 1:
            short = sweep_holding(out.A, out.B, replace(w, ell=w.ell - 1))
            M = riccati_backward(short)  # M_2
            P2 = M[:n, n:] @ control_gain(short) + M[:n, :n] + w.R1
        P2 = (P2 + P2.T) * 0.5
        pick = np.eye(m, n + m, n)  # [0 | I]
        W, V = np.vstack([out.Z, pick]), np.vstack([P2 @ out.Z, w.R2 @ pick])
        return np.dot(W.T, V, out=out.M)

    @pytest.mark.parametrize("spec", [default_spec(0), noisy_shift_spec(0)],
                             ids=["default_0", "noisy_shift_0"])
    def test_records_within_tolerance(self, spec, monkeypatch):
        rec = run_experiment(spec)
        with monkeypatch.context() as patch:
            patch.setattr(controller, "riccati_backward", self.p2_ending_sweep)
            ref = run_experiment(spec)
        assert np.max(np.abs(rec.y - ref.y)) <= self.TOL
        assert np.max(np.abs(rec.u - ref.u)) <= self.TOL
        assert suppression_time(rec) == suppression_time(ref)
        assert rec.fault_count == ref.fault_count == 0


class TestAgainstTwoProductState:
    """Whole experiments against the same runs on the state as two Hankel
    products, one per signal: u's lag matrix times the stacked G_i', less
    y's lag matrix times the stacked F_i'.  In this order of operations it
    gives bit for bit the records of compute_bocf_state when it formed
    those two products.  The one product [-Y | U] theta differs by rounding
    alone."""

    # Measured: y within 4.5e-11 on default_0 and 1.0e-11 on noisy_shift_0,
    # u and u_req within 4.7e-11 and 1.1e-11.
    TOL = 1e-9

    @staticmethod
    def two_product_state(history, theta_next, out):
        dims = out.dims
        n, p, m, split = dims.n_hat, dims.p, dims.m, dims.n_state
        offset = np.arange(n) - np.arange(n)[:, None] + (n - 1)
        y_past, u_past = past(history)
        y_pad = np.vstack([np.zeros((n - 1, p)), y_past])
        u_pad = np.vstack([np.zeros((n - 1, m)), u_past])
        y_lag, u_lag = y_pad[offset].reshape(n, n * p), u_pad[offset].reshape(n, n * m)
        blocks = out.x.reshape(n, p)
        u_lag.dot(theta_next[split:], blocks)
        blocks -= y_lag.dot(theta_next[:split])
        return out.x

    @pytest.mark.parametrize("spec", [default_spec(0), noisy_shift_spec(0)],
                             ids=["default_0", "noisy_shift_0"])
    def test_records_within_tolerance(self, spec, monkeypatch):
        rec = run_experiment(spec)
        with monkeypatch.context() as patch:
            patch.setattr(controller, "compute_bocf_state", self.two_product_state)
            ref = run_experiment(spec)
        for name in ("y", "u", "u_req"):
            assert np.max(np.abs(getattr(rec, name) - getattr(ref, name))) <= self.TOL
        assert suppression_time(rec) == suppression_time(ref)
        assert rec.fault_count == ref.fault_count == 0


def arx_predictions(theta, y_hist, u_hist, u_future):
    """Outputs y_{k+1}, ..., y_{k+len(u_future)+1} of the SISO ARX recursion
    y_j = -sum_i f_i y_{j-i} + sum_i g_i u_{j-i} (i = 1..n, theta = [f; g]),
    from y_hist = (y_k, ..., y_{k-n+1}) and u_hist = (u_k, ..., u_{k-n+1}),
    newest first, and the future inputs u_future = (u_{k+1}, ...)."""
    n = y_hist.size
    f, g = theta[:n], theta[n:]
    y = np.concatenate([y_hist[::-1], np.zeros(u_future.size + 1)])
    u = np.concatenate([u_hist[::-1], u_future])
    for j in range(n, y.size):
        y[j] = g.dot(u[j - n : j][::-1]) - f.dot(y[j - n : j][::-1])
    return y[n:]


def least_squares_inputs(theta, y_hist, u_hist, ell, r2):
    """The inputs u_{k+1}, ..., u_{k+ell} minimizing
    sum_{i=2}^{ell+1} y_{k+i}^2 + r2 sum_{i=1}^{ell} u_{k+i}^2.

    The outputs are affine in the inputs, y = y_free + H u, so this is the
    least-squares problem min |S u - b|, S = [H; sqrt(r2) I] and
    b = [-y_free; 0].  An SVD solve alone loses relative accuracy when H is
    tiny beside sqrt(r2), as it is while theta is still the 1e-10 prior;
    the normal equations alone lose it when H is large, on unstable models
    over long horizons.  The SVD solve and one refinement step on the
    normal equations hold both.
    """
    n = y_hist.size
    y_free = arx_predictions(theta, y_hist, u_hist, np.zeros(ell))[1:]
    H = np.column_stack([arx_predictions(theta, np.zeros(n), np.zeros(n), e)[1:]
                         for e in np.eye(ell)])
    S = np.vstack([H, np.sqrt(r2) * np.eye(ell)])
    b = np.concatenate([-y_free, np.zeros(ell)])
    u = np.linalg.lstsq(S, b, rcond=None)[0]
    return u + np.linalg.solve(S.T @ S, S.T @ (b - S @ u))


def random_arx_theta(rng, n, unstable):
    """theta = [f; g] of a SISO ARX model with poles of radius 0.2-0.95 and,
    when ``unstable``, one real pole or conjugate pair at radius 1.02-1.2."""
    radius = rng.uniform(0.2, 0.95, size=n)
    if unstable:
        radius[0] = rng.uniform(1.02, 1.2)
    pole = radius * np.exp(1j * rng.uniform(0.0, np.pi, size=n))
    poles = [z for z in pole[: n // 2] for z in (z, z.conjugate())]
    poles += [radius[-1] * rng.choice([-1.0, 1.0])] * (n % 2)
    return np.concatenate([np.real(np.poly(poles))[1:], rng.normal(size=n)])


def spectral_radius(theta, n):
    return np.max(np.abs(np.roots(np.concatenate([[1.0], theta[:n]]))))


class TestAgainstLeastSquaresOracle:
    """The whole step against the finite-horizon problem it solves, posed
    on the ARX recursion without a realization.

    Horizon indexing in the code: ``pcac_step`` at sample k updates theta
    with y_k and forms x_{k+1} = A x_k + B u_k, where u_k is the control
    already committed (``state.u_implemented``), so x_{k+1}'s first block
    is the ARX prediction of y_{k+1}.  ``riccati_backward`` starts at
    P_terminal = R1 = e_1 e_1' and makes ell - 1 Riccati steps (none for
    ell = 1) down to M_1 = Z'P_2Z + diag(0, R2); ``control_gain`` reads K
    from M_1, and u_req = K x_{k+1} is u_{k+1}.  So u_req is the first
    input of the minimizer of
    y_{k+2}^2 + ... + y_{k+ell+1}^2 + r2 (u_{k+1}^2 + ... + u_{k+ell}^2)
    over u_{k+1}, ..., u_{k+ell}: R1 weights each predicted output and
    the terminal weight the last, y_{k+ell+1}, alike.
    """

    # Relative to the minimizer's largest input.  Measured: at most 8.1e-13
    # over 1800 random draws (n <= 10, every ell 1-30, unstable up to radius
    # 1.2; 1.1e-12 on the same draws for a sweep that ended in a symmetrized
    # P_2) and 2.2e-15 over every 7th step of the default run; an extended-
    # precision sweep puts the step itself within 3.3e-13 on the hardest
    # draw.  A horizon one step off moves u_req by 4e-6 to 3e-2 at the
    # run's steps checked below.
    TOL = 1e-10

    def check(self, state, y_k, u_req, theta, cfg, ell=None):
        n = cfg.n_hat
        y_past, u_past = past(state.history)
        y_hist = np.concatenate([y_k, y_past[: n - 1, 0]])
        u_hist = np.concatenate([state.u_implemented, u_past[: n - 1, 0]])
        u = least_squares_inputs(theta, y_hist, u_hist, ell or cfg.ell, cfg.r2)
        return abs(u_req[0] - u[0]) <= self.TOL * np.max(np.abs(u))

    @pytest.mark.parametrize("unstable", [False, True], ids=["stable", "unstable"])
    @pytest.mark.parametrize("ell", [1, 2, 3, 7, 20, 30])
    def test_random_models(self, ell, unstable):
        rng = np.random.default_rng([ell, int(unstable)])
        for draw in range(4):
            n = int(rng.integers(1, 11))
            cfg = PcacConfig(n_hat=n, ell=ell, r2=float(10 ** rng.uniform(-3, 0)))
            # a covariance of 1e-8 leaves theta near the drawn model
            state = replace(
                pcac_init(cfg),
                rls=RlsState.initialize(random_arx_theta(rng, n, unstable)[:, None], 1e-8,
                                        cfg.forgetting),
                history=IoHistory(rng.normal(size=(n, 1)), rng.normal(size=(n, 1))),
                u_implemented=rng.normal(size=1))
            y_k = rng.normal(size=1)
            new = pcac_step(state, y_k, cfg)
            theta = new.rls.theta[:, 0]
            assert (spectral_radius(theta, n) > 1.0) == unstable, draw
            assert new.fault is None, draw
            assert self.check(state, y_k, new.u_requested, theta, cfg), draw

    def test_steps_of_default_run(self, monkeypatch):
        step, seen, k = harness.pcac_step, [], [0]

        def capture(state, y, cfg):
            result = step(state, y, cfg)
            if k[0] in (0, 1, 10, 100, 1000, 1999):
                seen.append((state, np.array(y, float), result, cfg))
            k[0] += 1
            return result

        monkeypatch.setattr(harness, "pcac_step", capture)
        run_experiment(default_spec(0))
        assert len(seen) == 6
        for i, (state, y_k, new, cfg) in enumerate(seen):
            u_req, theta = new.u_requested, new.rls.theta[:, 0]
            assert self.check(state, y_k, u_req, theta, cfg), i
            if i >= 2:  # past the prior, the horizon's length shows
                for ell in (cfg.ell - 1, cfg.ell + 1):
                    assert not self.check(state, y_k, u_req, theta, cfg, ell), (i, ell)
