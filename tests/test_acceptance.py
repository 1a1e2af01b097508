"""End-to-end acceptance gate.

One test per release criterion, each printing a single PASS line with the
measured numbers, and a bit-for-bit replay of criterion 6's cell records.  Oracles (quadrature F-distribution CDF, regularized batch
least squares, the algebraic Riccati fixed point) are independent of the
implementation routes they check.
"""
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from pcac import (
    ForgettingConfig,
    HorizonWeights,
    IoHistory,
    ModelDims,
    RlsState,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
    default_spec,
    inverse_f_cdf,
    pcac_init,
    pcac_step,
    read_record,
    riccati_backward,
    rls_update,
    run_ablation,
    run_grid,
    write_spec_file,
)
from pcac.cli import main as cli_main
from pcac.harness import grid_specs
from test_arx import arx_buffers, current_state, predict_output
from test_riccati import dare_hessian, sweep_holding
from test_rls import batch_solution, f_cdf_quad

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def report(n, text):
    print(f"criterion {n} PASS: {text}")


# ---------------------------------------------------------------------------
# Shared expensive runs (executed once, reused by criteria 6-9)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("grid"))
    t0 = time.perf_counter()
    summary = run_grid(default_spec(), out_dir=out_dir)
    elapsed = time.perf_counter() - t0
    return summary, out_dir, elapsed


@pytest.fixture(scope="module")
def ablation():
    return run_ablation(default_spec())


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_rls_batch_equivalence():
    t0 = time.perf_counter()
    cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.0)
    rng = np.random.default_rng(101)
    theta0 = rng.standard_normal((4, 1))
    psi0_scale = 0.7
    state = RlsState.initialize(theta0, psi0_scale, cfg)
    phis, ys = [], []
    worst = 0.0
    for _ in range(50):
        phi = rng.standard_normal((1, 4))
        y = rng.standard_normal(1)
        state = rls_update(state, phi, y, cfg)
        phis.append(phi)
        ys.append(y)
        ref = batch_solution(phis, ys, psi0_scale * np.eye(4), theta0[:, 0])
        worst = max(worst, np.linalg.norm(state.theta[:, 0] - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    report(1, f"RLS matches batch oracle at all 50 steps, worst relative "
              f"error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_rls_consistency():
    t0 = time.perf_counter()
    cfg = ForgettingConfig(tau_n=40, tau_d=200, eta=0.0)
    dims = ModelDims(3, 1, 1)
    theta_true = np.array([[-1.2], [0.5], [-0.1], [0.8], [0.3], [-0.4]])
    rng = np.random.default_rng(102)
    state = RlsState.initialize(np.zeros((6, 1)), 1e10, cfg)
    h = IoHistory.zeros(dims)
    hit = None
    for k in range(200):
        phi = build_regressor(h, dims)
        y = predict_output(theta_true, phi)
        state = rls_update(state, phi, y, cfg)
        u = rng.standard_normal(1)  # persistently exciting input
        h = h.push(np.atleast_1d(y), u)
        if hit is None and np.linalg.norm(state.theta - theta_true) < 1e-6:
            hit = k + 1
    elapsed = time.perf_counter() - t0
    assert hit is not None, "never converged to the generating model"
    assert elapsed < 1.0
    report(2, f"recovered the generating model to 1e-6 after {hit} steps, "
              f"{elapsed:.2f} s")


def test_criterion_03_f_quantile_quadrature():
    t0 = time.perf_counter()
    combos = [
        (40.0, 200.0, 0.999),
        (1.0, 1.0, 0.9), (1.0, 5.0, 0.5), (2.0, 2.0, 0.75), (2.0, 10.0, 0.99),
        (3.0, 7.0, 0.1), (4.0, 4.0, 0.95), (5.0, 30.0, 0.999), (6.0, 3.0, 0.6),
        (8.0, 8.0, 0.25), (10.0, 2.0, 0.9), (12.0, 60.0, 0.99),
        (15.0, 15.0, 0.5), (20.0, 100.0, 0.995), (25.0, 5.0, 0.8),
        (40.0, 40.0, 0.999), (60.0, 120.0, 0.95), (80.0, 200.0, 0.999),
        (100.0, 100.0, 0.5), (200.0, 40.0, 0.99),
    ]
    worst = 0.0
    for d1, d2, prob in combos:
        x = inverse_f_cdf(d1, d2, prob)
        worst = max(worst, abs(f_cdf_quad(x, d1, d2) - prob))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    report(3, f"F-quantile round-trips through the quadrature CDF at all "
              f"{len(combos)} combinations, worst error {worst:.2e}, "
              f"{elapsed:.2f} s")


def test_criterion_04_bocf_equivalence():
    rng = np.random.default_rng(104)
    worst = worst_state = 0.0
    for trial in range(100):
        p = 1 + trial % 2
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 6))
        dims = ModelDims(n, p, m)
        theta = rng.standard_normal((dims.n_phi, p))
        h = IoHistory(rng.standard_normal((n, p)), rng.standard_normal((n, m)))
        y_now = rng.standard_normal(p)
        u_now = rng.standard_normal(m)

        A, B = assemble_bocf(theta, dims, arx_buffers(dims))
        x_prop = A @ current_state(h, y_now, theta, dims) + B @ u_now
        pushed = h.push(y_now, u_now)
        x_next = compute_bocf_state(pushed, theta, dims, arx_buffers(dims))
        scale = max(1.0, np.max(np.abs(x_next)))
        worst_state = max(worst_state, np.max(np.abs(x_prop - x_next)) / scale)

        phi = build_regressor(pushed, dims)
        y_arx = predict_output(theta, phi)
        scale = max(np.linalg.norm(np.atleast_1d(y_arx)), 1.0)
        worst = max(worst, np.linalg.norm(np.atleast_1d(x_prop[:p] - y_arx)) / scale)
    assert worst <= 1e-12
    assert worst_state <= 1e-12
    report(4, f"state-space propagation equals the input-output recursion on "
              f"100 random draws, worst relative error {worst:.2e}; A x_k + B u_k "
              f"equals the state of the pushed history to {worst_state:.2e}")


def test_criterion_05_riccati_dare_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, m))
        w = HorizonWeights(ell=500, R1=np.eye(n), R2=np.eye(m),
                           P_terminal=np.zeros((n, n)))
        # the sweep ends in M_1 = Z'P_2Z + diag(0, R2); at the fixed point
        # P_2 is the DARE solution P*
        M = riccati_backward(w, sweep_holding(A, B))
        P_star = linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
        M_star = dare_hessian(A, B, P_star, np.eye(m))
        worst = max(worst, np.linalg.norm(M - M_star) / np.linalg.norm(M_star))
    scalar = riccati_backward(
        HorizonWeights(ell=500, R1=[[1.0]], R2=[[1.0]], P_terminal=[[0.0]]),
        sweep_holding([[1.0]], [[1.0]]),
    )[0, 0]
    golden_err = abs(scalar - GOLDEN)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert golden_err <= 1e-9
    assert elapsed < 10.0
    report(5, f"backward sweep agrees with the algebraic fixed point on 20 "
              f"systems (worst {worst:.2e}) and the scalar analytic value "
              f"({golden_err:.2e}), {elapsed:.2f} s")


def test_criterion_06_grid_suppression(grid):
    summary, _, elapsed = grid
    assert len(summary) == 9
    assert all(row["status"] == "ok" for row in summary)
    supp = [row["suppression_time_s"] for row in summary]
    atten = [row["attenuation_db"] for row in summary]
    assert all(s is not None and s < 2.0 for s in supp)
    assert all(a >= 40.0 for a in atten)
    assert elapsed < 60.0
    report(6, f"all 9 cells suppressed in {min(supp):.2f}-{max(supp):.2f} s "
              f"with >= {min(atten):.0f} dB attenuation, sweep {elapsed:.1f} s")


def test_criterion_07_saturation_invariant(grid):
    _, out_dir, _ = grid
    worst = 0.0
    rows = 0
    for i in range(9):
        rec = read_record(f"{out_dir}/cell_{i}.csv")
        worst = max(worst, float(np.max(np.abs(rec.u))))
        rows += rec.u.size
    assert worst <= 8.0
    report(7, f"|u| <= 8 on every one of {rows} logged samples "
              f"(max {worst:.6f})")


def test_grid_summary_counts_clamped_steps(grid):
    # a step clamps exactly when its request is out of range; cell 4 is
    # default_spec(0), where about 3% of the 2000 closed-loop steps clamp
    summary, out_dir, _ = grid
    for i, row in enumerate(summary):
        rec = read_record(f"{out_dir}/cell_{i}.csv")
        u_req = rec.u_req[rec.k_switch + 1 :]
        assert row["clamped_steps"] == np.count_nonzero(np.abs(u_req) > 8.0), i
        assert row["max_abs_u_req"] == np.max(np.abs(u_req)), i
    assert summary[4]["clamped_steps"] == 61
    with open(f"{out_dir}/summary.csv") as fh:
        fh.readline()
        assert {"clamped_steps", "max_abs_u_req"} <= set(fh.readline().strip().split(","))


def test_grid_cell_records_replay_bit_for_bit(grid):
    # a step carries nothing but its state: each cell's recorded closed-loop
    # outputs, fed to a fresh controller, give back its controls to the bit
    _, out_dir, _ = grid
    for i, spec in enumerate(grid_specs(default_spec())):
        rec = read_record(f"{out_dir}/cell_{i}.csv")
        state = pcac_init(spec.controller)
        u_req, u = [state.u_requested[0]], [state.u_implemented[0]]
        for y in rec.y[rec.k_switch : -1]:
            state = pcac_step(state, np.array([y]), spec.controller)
            assert state.fault is None, (i, state.fault)
            u_req.append(state.u_requested[0])
            u.append(state.u_implemented[0])
        assert u_req == rec.u_req[rec.k_switch :].tolist(), i
        assert u == rec.u[rec.k_switch :].tolist(), i


def test_criterion_08_spectral_suppression(grid):
    summary, _, _ = grid
    peaks = [row["peak_attenuation_db"] for row in summary]
    assert all(p >= 40.0 for p in peaks)
    report(8, f"dominant spectral peak attenuated >= {min(peaks):.0f} dB on "
              f"every cell")


def test_criterion_09_forgetting_ablation(ablation):
    wins = sum(
        row["resuppression_forgetting_s"] <= row["resuppression_no_forgetting_s"]
        for row in ablation
    )
    assert wins >= 7
    report(9, f"forgetting re-suppressed at least as fast on {wins}/9 cells "
              f"after the mid-run plant change")


def test_criterion_10_record_determinism(tmp_path):
    spec = default_spec()
    spec = replace(
        spec,
        plant=replace(spec.plant, noise_std=0.5, seed=11),
        t_open=1.8,
        t_total=2.6,
        q0=1.0,
    )
    spec_path = str(tmp_path / "spec.txt")
    write_spec_file(spec, spec_path)
    assert cli_main(["run", "--spec", spec_path, "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--spec", spec_path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "record.csv").read_bytes()
    b = (tmp_path / "b" / "record.csv").read_bytes()
    assert a == b
    report(10, f"two runs of the same spec file produced byte-identical "
               f"records ({len(a)} bytes)")
