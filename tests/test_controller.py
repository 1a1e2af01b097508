"""Controller orchestration: sequencing, determinism, causality, fallback."""
import numpy as np
import pytest

from pcac import (
    ModelDims,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
    control_gain,
    default_config,
    pcac_init,
    pcac_step,
    riccati_backward,
    rls_update,
    saturate,
)
from pcac.controller import PcacConfig


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
        cfg = default_config()
        state = pcac_init(cfg)
        assert state.rls.theta.shape == (20,)
        assert np.all(state.rls.theta == 1e-10)
        np.testing.assert_array_equal(state.rls.psi, 1e-4 * np.eye(20))
        assert state.u_implemented[0] == 0.0
        np.testing.assert_array_equal(state.history.y_past, np.zeros((10, 1)))

    def test_rejects_zero_psi0(self):
        with pytest.raises(ValueError):
            default_config(psi0_scale=0.0)

    def test_rejects_mismatched_theta0(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            PcacConfig(
                dims=ModelDims(10, 1, 1),
                theta0=np.zeros(5),
                psi0_scale=1e-4,
                forgetting=cfg.forgetting,
                weights=cfg.weights,
                bounds=cfg.bounds,
                u0=np.zeros(1),
            )


class TestStep:
    def test_near_zero_model_requests_near_zero_control(self):
        cfg = default_config()
        state = pcac_init(cfg)
        u_req, u_impl, _ = pcac_step(state, np.array([50.0]), cfg)
        assert abs(u_req[0]) < 1e-3
        assert abs(u_impl[0]) < 1e-3

    def test_deterministic(self):
        cfg = default_config()
        rng = np.random.default_rng(31)
        ys = rng.normal(0, 30, 150)
        a_req, a_imp, _ = run_sequence(cfg, ys)
        b_req, b_imp, _ = run_sequence(cfg, ys)
        assert all(np.array_equal(x, y) for x, y in zip(a_req, b_req))
        assert all(np.array_equal(x, y) for x, y in zip(a_imp, b_imp))

    def test_causality_under_future_truncation(self):
        cfg = default_config()
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
        cfg = default_config()
        rng = np.random.default_rng(33)
        _, u_impl, state = run_sequence(cfg, rng.normal(0, 80, 300))
        assert all(abs(u[0]) <= 8.0 for u in u_impl)
        assert state.rls.step == 300

    def test_matches_manual_composition(self):
        # a step must equal the four module operations called in order
        cfg = default_config(n_hat=4)
        rng = np.random.default_rng(34)
        state = pcac_init(cfg)
        for y in rng.normal(0, 10, 25):
            y_k = np.array([y])
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

    def test_update_and_push_leave_previous_arrays_unchanged(self):
        # states are values: stepping from one must not write into it
        cfg = default_config(n_hat=3, tau_n=2, tau_d=5)
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
        cfg = default_config(n_hat=2, psi0_scale=100.0)
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

    def test_riccati_fault_holds_previous_control(self, monkeypatch):
        from pcac import controller as ctl
        from pcac.errors import NumericalError

        cfg = default_config()
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
