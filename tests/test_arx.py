"""Regressor construction, prediction, and BOCF realization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac import (
    IoHistory,
    ModelDims,
    assemble_bocf,
    build_regressor,
    compute_bocf_state,
)
from pcac.arx import ArxBuffers
from pcac.riccati import SweepBuffers


def arx_buffers(dims):
    """ArxBuffers on the column blocks of a fresh sweep's Z = [A | B], as
    pcac_init makes them."""
    sweep = SweepBuffers(dims.n_state, dims.m)
    return ArxBuffers(dims, sweep.A, sweep.B)


def split_coefficients(theta, dims):
    """Coefficient stacks F (n_hat, p, p) and G (n_hat, p, m) of Theta, as
    views: the layout that the pcac.arx module docstring states."""
    theta = np.asarray(theta, dtype=float)
    assert theta.shape == (dims.n_phi, dims.p)
    n, p, m = dims.n_hat, dims.p, dims.m
    F = theta[: n * p].reshape(n, p, p).transpose(0, 2, 1)
    G = theta[n * p :].reshape(n, m, p).transpose(0, 2, 1)
    return F, G


def pack_coefficients(F, G):
    """Inverse of :func:`split_coefficients`."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    p = F.shape[1]
    return np.vstack([F.transpose(0, 2, 1).reshape(-1, p), G.transpose(0, 2, 1).reshape(-1, p)])


def predict_output(theta, phi):
    """One-step ARX prediction y_hat = Theta' phi for the d-vector regressor
    phi and the (d, p) Theta."""
    theta = np.asarray(theta, dtype=float)
    assert theta.shape[0] == phi.size
    return phi @ theta


def past(history):
    """The history's outputs (n_hat, p) and inputs (n_hat, m), newest row
    first, read back from its regressor phi = [-y ... ; u ...]."""
    n, p, m = history.dims.n_hat, history.dims.p, history.dims.m
    return -history.phi[: n * p].reshape(n, p), history.phi[n * p :].reshape(n, m)


def random_model(rng, n, p, m):
    dims = ModelDims(n, p, m)
    theta = rng.standard_normal((dims.n_phi, p))
    history = IoHistory(rng.standard_normal((n, p)), rng.standard_normal((n, m)))
    return dims, theta, history


def arx_sum(theta, dims, y_past, u_past):
    """Direct evaluation of the ARX double sum (the reference for phi @ theta)."""
    F, G = split_coefficients(theta, dims)
    out = np.zeros(dims.p)
    for i in range(dims.n_hat):
        out += -F[i] @ y_past[i] + G[i] @ u_past[i]
    return out


def gathered_state(history, theta, dims):
    """BOCF state from a zero-padded copy of the history and a lag-index
    table: the lag matrix [-Y | U] times the stacked [F_1' ...; G_1' ...]."""
    n, p, m = dims.n_hat, dims.p, dims.m
    F, G = split_coefficients(theta, dims)
    offset = np.arange(n) - np.arange(n)[:, None] + (n - 1)
    y_past, u_past = past(history)
    y_pad = np.vstack([np.zeros((n - 1, p)), y_past])
    u_pad = np.vstack([np.zeros((n - 1, m)), u_past])
    lag = np.hstack([-y_pad[offset].reshape(n, n * p), u_pad[offset].reshape(n, n * m)])
    coefficients = np.vstack([F.transpose(0, 2, 1).reshape(n * p, p),
                              G.transpose(0, 2, 1).reshape(n * m, p)])
    return (lag @ coefficients).ravel()


def current_state(history, y_now, theta, dims):
    """x_k, the state whose first block is the measured y_k: the state of
    the history before (y_k, u_k) is pushed, its first block (the
    prediction of y_k) replaced by y_k."""
    x = compute_bocf_state(history, theta, dims, arx_buffers(dims)).copy()
    x[: dims.p] = y_now
    return x


class TestRegressor:
    def test_first_order_scalar(self):
        dims = ModelDims(1, 1, 1)
        h = IoHistory(np.array([[3.0]]), np.array([[2.0]]))
        assert np.array_equal(build_regressor(h, dims), [-3.0, 2.0])

    def test_zero_history(self):
        dims = ModelDims(2, 1, 1)
        phi = build_regressor(IoHistory.zeros(dims), dims)
        assert np.array_equal(phi, np.zeros(4))

    def test_vector_output_kron(self):
        # the p=2 regressor is one vector, whose product with the (d, p)
        # Theta must reproduce -F1 y + G1 u for any coefficients
        dims = ModelDims(1, 2, 1)
        h = IoHistory(np.array([[1.0, 2.0]]), np.array([[5.0]]))
        phi = build_regressor(h, dims)
        assert np.array_equal(phi, [-1.0, -2.0, 5.0])
        rng = np.random.default_rng(7)
        F1 = rng.standard_normal((2, 2))
        G1 = rng.standard_normal((2, 1))
        theta = pack_coefficients(F1[None], G1[None])
        expect = -F1 @ np.array([1.0, 2.0]) + G1 @ np.array([5.0])
        np.testing.assert_allclose(predict_output(theta, phi), expect, rtol=1e-13)

    def test_dimension_mismatch(self):
        dims = ModelDims(3, 1, 1)
        h = IoHistory.zeros(ModelDims(2, 1, 1))
        with pytest.raises(ValueError):
            build_regressor(h, dims)

    def test_history_holds_phi_newest_first(self):
        # outputs negated, then inputs, each newest sample first
        dims = ModelDims(2, 2, 1)
        h = IoHistory([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
        assert h.dims == dims
        np.testing.assert_array_equal(h.phi, [-1.0, -2.0, -3.0, -4.0, 5.0, 6.0])
        pushed = h.push([7.0, 8.0], [9.0])
        np.testing.assert_array_equal(pushed.phi, [-7.0, -8.0, -1.0, -2.0, 9.0, 5.0])
        np.testing.assert_array_equal(h.phi, [-1.0, -2.0, -3.0, -4.0, 5.0, 6.0])

    def test_push_rejects_samples_of_another_size(self):
        h = IoHistory.zeros(ModelDims(3, 2, 1))
        with pytest.raises(ValueError, match="sample sizes"):
            h.push(np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="sample sizes"):
            h.push(np.zeros(2), np.zeros(2))

    def test_history_lengths_must_agree(self):
        with pytest.raises(ValueError, match="lengths differ"):
            IoHistory(np.zeros((3, 1)), np.zeros((2, 1)))

    @pytest.mark.parametrize("p, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_regressor_of_pushed_history_is_lag_row_zero(self, p, m):
        # phi_{k+1} is row 0 of the lag matrix [-Y | U] that the state of
        # the same history is formed from, bit for bit
        rng = np.random.default_rng(90 + 2 * p + m)
        dims, theta, h = random_model(rng, 4, p, m)
        out = arx_buffers(dims)
        for _ in range(6):
            h = h.push(rng.standard_normal(p), rng.standard_normal(m))
            compute_bocf_state(h, theta, dims, out)
            assert build_regressor(h, dims).tobytes() == out.lag[0].tobytes()


class TestPredict:
    def test_zero_parameters(self):
        dims = ModelDims(2, 1, 1)
        h = IoHistory(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        phi = build_regressor(h, dims)
        assert predict_output(np.zeros((4, 1)), phi) == 0.0

    def test_hand_example(self):
        dims = ModelDims(1, 1, 1)
        h = IoHistory(np.array([[4.0]]), np.array([[1.0]]))
        theta = np.array([[0.5], [2.0]])
        y_hat = predict_output(theta, build_regressor(h, dims))
        assert y_hat[0] == pytest.approx(-0.5 * 4 + 2 * 1, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 4),
        p=st.integers(1, 3),
        m=st.integers(1, 2),
    )
    def test_kron_consistency(self, seed, n, p, m):
        # phi @ theta must equal the explicit double sum to 1e-12 relative
        rng = np.random.default_rng(seed)
        dims, theta, h = random_model(rng, n, p, m)
        y_hat = predict_output(theta, build_regressor(h, dims))
        expect = arx_sum(theta, dims, *past(h))
        np.testing.assert_allclose(y_hat, expect, rtol=1e-12, atol=1e-12)


class TestBocfAssembly:
    def test_second_order_scalar_pattern(self):
        dims = ModelDims(2, 1, 1)
        theta = np.array([[0.4], [0.7], [1.2], [-0.9]])  # f1 f2 g1 g2
        A, B = assemble_bocf(theta, dims, arx_buffers(dims))
        np.testing.assert_array_equal(A, [[-0.4, 1.0], [-0.7, 0.0]])
        np.testing.assert_array_equal(B, [[1.2], [-0.9]])

    def test_first_order_degenerate(self):
        dims = ModelDims(1, 1, 1)
        A, B = assemble_bocf(np.array([[0.3], [2.0]]), dims, arx_buffers(dims))
        assert A == np.array([[-0.3]]) and B == np.array([[2.0]])

    def test_characteristic_polynomial(self):
        # det(zI - A) must equal det(z^n I + F1 z^{n-1} + ... + Fn)
        rng = np.random.default_rng(42)
        dims = ModelDims(3, 2, 1)
        theta = rng.standard_normal((dims.n_phi, dims.p))
        F, _ = split_coefficients(theta, dims)
        A, _ = assemble_bocf(theta, dims, arx_buffers(dims))
        for z in rng.standard_normal(5) + 1j * rng.standard_normal(5):
            lhs = np.linalg.det(z * np.eye(6) - A)
            rhs = np.linalg.det(
                z**3 * np.eye(2) + F[0] * z**2 + F[1] * z + F[2]
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_sparsity_structure(self):
        rng = np.random.default_rng(3)
        dims = ModelDims(4, 2, 1)
        theta = rng.standard_normal((dims.n_phi, dims.p))
        # avoid accidental zeros in the coefficient blocks
        theta[: dims.n_state] += np.sign(theta[: dims.n_state])
        A, _ = assemble_bocf(theta, dims, arx_buffers(dims))
        n, p = dims.n_hat, dims.p
        mask = np.zeros_like(A, dtype=bool)
        mask[:, :p] = True
        for j in range(n - 1):
            mask[j * p : (j + 1) * p, (j + 1) * p : (j + 2) * p] = np.eye(p, dtype=bool)
        assert np.all(A[~mask] == 0.0)
        assert np.count_nonzero(mask) == n * p**2 + (n - 1) * p


class TestBocfState:
    def test_first_order_is_prediction(self):
        # n = 1: the state is the one-step prediction -F_1 y_k + G_1 u_k
        dims = ModelDims(1, 1, 1)
        h = IoHistory(np.array([[7.0]]), np.array([[1.0]]))
        x = compute_bocf_state(h, np.array([[0.5], [1.0]]), dims, arx_buffers(dims))
        assert np.array_equal(x, [-0.5 * 7.0 + 1.0])

    def test_second_order_hand_value(self):
        dims = ModelDims(2, 1, 1)
        h = IoHistory(np.array([[7.0], [2.0]]), np.array([[5.0], [1.0]]))
        theta = np.array([[0.1], [0.3], [0.7], [1.5]])  # f1 f2 g1 g2; f2, g2 enter block 2
        x = compute_bocf_state(h, theta, dims, arx_buffers(dims))
        np.testing.assert_allclose(
            x, [-0.1 * 7 - 0.3 * 2 + 0.7 * 5 + 1.5 * 1, -0.3 * 7 + 1.5 * 5])

    def test_full_state_propagates_arx_data(self):
        # On data generated by the ARX model, A x_k + B u_k must equal the
        # state of the pushed history in every block, including blocks 3..n
        # that C (A x + B u) never reads
        rng = np.random.default_rng(11)
        for trial in range(120):
            n = 1 if trial % 10 == 0 else int(rng.integers(2, 11))
            p, m = (int(v) for v in rng.integers(1, 4, size=2))
            dims, theta, h = random_model(rng, n, p, m)
            theta *= 0.3
            A, B = assemble_bocf(theta, dims, arx_buffers(dims))
            y = rng.standard_normal(p)
            for _ in range(n + 2):
                x = current_state(h, y, theta, dims)
                u = rng.standard_normal(m)
                h = h.push(y, u)
                x_next = compute_bocf_state(h, theta, dims, arx_buffers(dims))
                scale = max(1.0, np.max(np.abs(x_next)))
                np.testing.assert_allclose(
                    A @ x + B @ u, x_next, rtol=0, atol=1e-12 * scale
                )
                y = arx_sum(theta, dims, *past(h))

    @pytest.mark.parametrize("n, p, m", [(1, 1, 1), (1, 2, 2), (4, 2, 2), (10, 1, 1)])
    def test_push_and_state_match_padded_copy(self, n, p, m):
        # n = 1 has no padding rows; the state must equal, bit for bit, the
        # product over an explicitly padded and gathered copy of the history
        rng = np.random.default_rng(300 + n + p)
        dims, theta, h = random_model(rng, n, p, m)
        for _ in range(n + 2):
            y, u = rng.standard_normal(p), rng.standard_normal(m)
            pushed = h.push(y, u)
            (y_past, u_past), (y_new, u_new) = past(h), past(pushed)
            np.testing.assert_array_equal(y_new, np.vstack([y, y_past[:-1]]))
            np.testing.assert_array_equal(u_new, np.vstack([u, u_past[:-1]]))
            h = pushed
            np.testing.assert_array_equal(
                compute_bocf_state(h, theta, dims, arx_buffers(dims)),
                gathered_state(h, theta, dims),
            )

    def test_first_block_is_arx_prediction(self):
        # C x_{k+1|k}, with C = [I_p 0 ... 0], is the ARX prediction of y_{k+1}
        rng = np.random.default_rng(8)
        dims, theta, h = random_model(rng, 4, 2, 2)
        x = compute_bocf_state(h, theta, dims, arx_buffers(dims))
        C = np.eye(dims.p, dims.n_state)
        np.testing.assert_allclose(C @ x, arx_sum(theta, dims, *past(h)),
                                   rtol=1e-12, atol=1e-12)


class TestBuffers:
    """A layer given a buffer set reused across calls and models returns,
    bit for bit, what it returns given a fresh set."""

    @staticmethod
    def draws(seed):
        # n = 1 (no lag rows, no padding) on every third draw; p, m up to 3
        rng = np.random.default_rng(500 + seed)
        n = 1 if seed % 3 == 0 else int(rng.integers(2, 7))
        p, m = (int(v) for v in rng.integers(1, 4, size=2))
        return rng, *random_model(rng, n, p, m)

    @pytest.mark.parametrize("on_z", [False, True], ids=["own", "z_blocks"])
    @pytest.mark.parametrize("seed", range(9))
    def test_buffered_equals_allocating(self, seed, on_z):
        rng, dims, theta, h = self.draws(seed)
        n, p, m = dims.n_state, dims.p, dims.m
        if on_z:
            # A and B as the column blocks of one Z = [A | B], as the sweep holds them
            Z = np.full((n, n + m), np.nan)
            out = ArxBuffers(dims, Z[:, :n], Z[:, n:])
        else:
            out = ArxBuffers(dims, np.empty((n, n)), np.empty((n, m)))
        for _ in range(4):
            ref = assemble_bocf(theta, dims, arx_buffers(dims))
            for got, want in zip(assemble_bocf(theta, dims, out), ref):
                assert got.tobytes() == want.tobytes()
            x_ref = compute_bocf_state(h, theta, dims, arx_buffers(dims))
            assert compute_bocf_state(h, theta, dims, out).tobytes() == x_ref.tobytes()
            if on_z:
                np.testing.assert_array_equal(Z, np.hstack(ref))
            h = h.push(rng.standard_normal(p), rng.standard_normal(m))
            theta = rng.standard_normal((dims.n_phi, p))

    def test_rejects_blocks_of_another_shape(self):
        dims = ModelDims(3, 1, 2)
        with pytest.raises(ValueError):
            ArxBuffers(dims, np.empty((3, 3)), np.empty((3, 1)))

    def test_theta_length_checked_with_buffers(self):
        # a flat theta of d p entries is refused, as is a (d, p) of another d
        dims = ModelDims(2, 1, 1)
        out = arx_buffers(dims)
        with pytest.raises(ValueError, match="theta"):
            assemble_bocf(np.zeros((5, 1)), dims, out)
        with pytest.raises(ValueError, match="theta"):
            assemble_bocf(np.zeros(4), dims, out)
        with pytest.raises(ValueError, match="theta"):
            compute_bocf_state(IoHistory.zeros(dims), np.zeros((3, 1)), dims, out)
        with pytest.raises(ValueError, match="theta"):
            compute_bocf_state(IoHistory.zeros(dims), np.zeros(4), dims, out)


def test_split_pack_roundtrip():
    rng = np.random.default_rng(5)
    dims = ModelDims(3, 2, 2)
    theta = rng.standard_normal((dims.n_phi, dims.p))
    F, G = split_coefficients(theta, dims)
    np.testing.assert_array_equal(pack_coefficients(F, G), theta)


def test_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(0, 1, 1)
    with pytest.raises(ValueError):
        ModelDims(1, 0, 1)
    assert ModelDims(10, 1, 1).n_phi == 20


def test_f_length_is_the_head_of_theta():
    # Theta's first n_state rows are F_1' ... F_n', the rest G_1' ... G_n'
    dims = ModelDims(4, 2, 3)
    assert (dims.n_phi, dims.n_state) == (4 * (2 + 3), 4 * 2)
    theta = np.arange(dims.n_phi * dims.p, dtype=float).reshape(dims.n_phi, dims.p)
    F, _ = split_coefficients(theta, dims)
    assert F.max() == dims.n_state * dims.p - 1
