"""Backward Riccati sweep, first-step gain, and saturation."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from test_arx import arx_buffers

from pcac import (
    HorizonWeights,
    ModelDims,
    NumericalError,
    PcacConfig,
    SaturationBounds,
    assemble_bocf,
    control_gain,
    riccati_backward,
    saturate,
)
from pcac.arx import ArxBuffers
from pcac.riccati import SweepBuffers

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_weights(ell, r1=1.0, r2=1.0, p_term=0.0):
    return HorizonWeights(ell=ell, R1=[[r1]], R2=[[r2]], P_terminal=[[p_term]])


def random_stable_system(rng, n, m, sprad=0.9):
    A = rng.standard_normal((n, n))
    A *= sprad / max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    return A, B


def sweep_holding(A, B, w):
    """A fresh SweepBuffers for the weights ``w`` whose Z = [A | B] holds
    the model (A, B).  A model of another shape than w's is refused, which
    numpy would otherwise broadcast into Z: a (3, 1) B into a (3, 2) one."""
    out = SweepBuffers(w)
    if (np.shape(A), np.shape(B)) != (out.A.shape, out.B.shape):
        raise ValueError(f"A {np.shape(A)} and B {np.shape(B)} do not fit weights "
                         f"for A {out.A.shape} and B {out.B.shape}")
    out.A[...], out.B[...] = A, B
    return out


def refuse_model_on_weights(A, B, w):
    """A model (A, B) of another shape than the weights ``w`` is refused
    where it meets the buffers made for them: by the realization's
    ArxBuffers on the sweep's A and B, as pcac_init makes them, and by
    :func:`sweep_holding`, before any sweep reads it."""
    n_state, m = np.shape(B)
    out = SweepBuffers(w)
    with pytest.raises(ValueError, match="must be"):
        ArxBuffers(ModelDims(n_state, 1, m), out.A, out.B)
    with pytest.raises(ValueError, match="do not fit"):
        sweep_holding(A, B, w)


def dare_hessian(A, B, P, R2):
    """Z'PZ + diag(0, R2), Z = [A | B]: the sweep's M_1 when P is P_2."""
    Z = np.hstack([A, B])
    M = Z.T @ P @ Z
    M[A.shape[0]:, A.shape[0]:] += R2
    return M


def textbook_riccati_backward(out):
    """The reference for the fused sweep: the textbook recursion
    P <- A'P(A - B Gamma) + R1 on the model and weights that ``out`` holds,
    symmetrized every iteration, down to P_2, and from it
    M_1 = Z'P_2Z + diag(0, R2).  Returns M_1, and writes it into ``out.M``
    as the sweep does, for :func:`textbook_control_gain`; ``out`` is
    otherwise only read."""
    w = out.weights
    A, B, P = out.A, out.B, w.P_terminal
    for _ in range(w.ell - 1):
        BtP = B.T @ P
        gamma = np.linalg.solve(w.R2 + BtP @ B, BtP @ A)
        P = A.T @ P @ (A - B @ gamma) + w.R1
        P = 0.5 * (P + P.T)
    out.M[...] = M = dare_hessian(A, B, P, w.R2)
    return M


def textbook_control_gain(out):
    """K = -(R2 + B'P_2B)^{-1} B'P_2A from the blocks of ``out.M``."""
    n = out.A.shape[0]
    return -np.linalg.solve(out.M[n:, n:], out.M[n:, :n])


def first_gain(out):
    """The sweep, then the gain it leaves for: ``out.K``."""
    riccati_backward(out)
    return control_gain(out)


def random_problem(rng, bocf, shape=None):
    """A system with n <= 10 states and m in {1, 2, 3} inputs, or the given
    (n, m), and a horizon: a BOCF realization of random ARX coefficients
    (spectral radius up to about 1.7) with output weighting, or a general A
    with spectral radius in [0.5, 1.2] and full state weighting."""
    n, m = int(rng.integers(1, 11)), int(rng.integers(1, 4))
    if shape is not None:
        n, m = shape
    ell, r2 = int(rng.integers(2, 41)), 10.0 ** rng.uniform(-3, 1)
    if bocf:
        dims = ModelDims(n, 1, m)
        A, B = assemble_bocf(0.5 * rng.standard_normal((n * (1 + m), 1)),
                             arx_buffers(dims))
        return A, B, HorizonWeights.output_weighted(n, p=1, m=m, ell=ell, r2=r2)
    A, B = random_stable_system(rng, n, m, sprad=rng.uniform(0.5, 1.2))
    return A, B, HorizonWeights(ell=ell, R1=np.eye(n), R2=r2 * np.eye(m),
                                P_terminal=np.eye(n))


# Largest entrywise gap to the textbook recursion, relative to its largest
# entry.  Both are float64 and sum in different orders.  Over 1000 draws of
# each kind of random_problem the gap peaked at 2.3e-12 (M_1) and 1.7e-12
# (gain); for a sweep that ended in a symmetrized P_2, at 1.7e-12 (P_2) and
# 5.2e-13 (gain), and at 9.7e-13 and 7.7e-13 for one that carries P instead
# of Z'PZ; with that sweep, draws in another order reached 2.3e-10 and
# 4.4e-10 on an unstable 4-state BOCF with ell=23, where an extended-precision
# run of the recursion put the sweep (6e-12) closer than the textbook one
# (2e-10).
ORACLE_RTOL = 1e-9


def max_rel_gap(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


class TestRiccatiBackward:
    """The sweep returns M_1 = Z'P_2Z + diag(0, R2); with A = B = 1, as in
    the scalar tests, M_1[0, 0] is P_2."""

    def test_unit_horizon_returns_terminal(self):
        M = riccati_backward(sweep_holding([[1.0]], [[1.0]], scalar_weights(ell=1)))
        np.testing.assert_array_equal(M, [[0.0, 0.0], [0.0, 1.0]])

    def test_single_step_hand_value(self):
        # P_2 = 1: M_1 = [[1, 1], [1, 1 + 1]]
        M = riccati_backward(sweep_holding([[1.0]], [[1.0]], scalar_weights(ell=2)))
        np.testing.assert_allclose(M, [[1.0, 1.0], [1.0, 2.0]])

    def test_long_horizon_reaches_golden_ratio(self):
        # fixed point of P = 1 + P - P^2/(1+P) for A=B=R1=R2=1
        M = riccati_backward(sweep_holding([[1.0]], [[1.0]], scalar_weights(ell=200)))
        assert M[0, 0] == pytest.approx(GOLDEN, abs=1e-9)

    def test_scalar_sequence_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.2, 2.0)
            r1 = rng.uniform(0.1, 3.0)
            r2 = rng.uniform(0.1, 3.0)
            values = [
                riccati_backward(
                    sweep_holding([[a]], [[b]], scalar_weights(ell, r1, r2)))[0, 0]
                for ell in range(1, 12)
            ]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_agrees_with_dare(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 3))
            A, B = random_stable_system(rng, n, m)
            w = HorizonWeights(
                ell=500, R1=np.eye(n), R2=np.eye(m), P_terminal=np.zeros((n, n))
            )
            M = riccati_backward(sweep_holding(A, B, w))
            P_star = linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
            M_star = dare_hessian(A, B, P_star, np.eye(m))
            err = np.linalg.norm(M - M_star) / np.linalg.norm(M_star)
            assert err < 1e-6

    def test_intermediate_iterates_psd(self):
        # M_1 is left unsymmetrized; its symmetric part is PSD
        rng = np.random.default_rng(23)
        A, B = random_stable_system(rng, 4, 1)
        for ell in (2, 5, 20):
            w = HorizonWeights(
                ell=ell, R1=np.eye(4), R2=np.eye(1), P_terminal=np.zeros((4, 4))
            )
            M = riccati_backward(sweep_holding(A, B, w))
            assert np.min(np.linalg.eigvalsh(0.5 * (M + M.T))) >= -1e-12

    @pytest.mark.parametrize("bocf", [True, False], ids=["bocf", "general"])
    def test_matches_textbook_recursion(self, bocf):
        rng = np.random.default_rng(26 + bocf)
        for _ in range(150):
            A, B, w = random_problem(rng, bocf)
            out = sweep_holding(A, B, w)
            M_ref = textbook_riccati_backward(out)
            K_ref = textbook_control_gain(out)
            assert max_rel_gap(riccati_backward(out), M_ref) <= ORACLE_RTOL
            assert max_rel_gap(control_gain(out), K_ref) <= ORACLE_RTOL

    def test_multi_input_cheap_control_matches_textbook(self):
        # Unstable BOCF, m = 2, r2 = 1e-3, ell = 40: the unsymmetrized
        # iterates stay on the textbook ones only if the inner solve uses
        # R2 + B'PB as computed; a solve with its symmetric part (Cholesky)
        # missed by more than ORACLE_RTOL on 11 of 100 such draws.
        rng = np.random.default_rng(27)
        for _ in range(60):
            dims = ModelDims(6, 1, 2)
            A, B = assemble_bocf(0.5 * rng.standard_normal((18, 1)),
                                 arx_buffers(dims))
            w = HorizonWeights.output_weighted(6, p=1, m=2, ell=40, r2=1e-3)
            out = sweep_holding(A, B, w)
            M_ref = textbook_riccati_backward(out)
            K_ref = textbook_control_gain(out)
            assert max_rel_gap(riccati_backward(out), M_ref) <= ORACLE_RTOL
            assert max_rel_gap(control_gain(out), K_ref) <= ORACLE_RTOL

    @pytest.mark.parametrize("m", [1, 2])
    def test_non_finite_model_raises_numerical_error(self, m):
        w = HorizonWeights(ell=3, R1=np.eye(2), R2=np.eye(m),
                           P_terminal=np.eye(2))
        A = np.array([[np.nan, 0.0], [0.0, 0.5]])
        with pytest.raises(NumericalError):
            riccati_backward(sweep_holding(A, np.ones((2, m)), w))


class TestScratchBuffers:
    """The sweep's in-place scratch stays inside one call, and the model it
    reads is left as it was written."""

    @staticmethod
    def problem(seed, m, ell):
        rng = np.random.default_rng(seed)
        dims = ModelDims(6, 1, m)
        A, B = assemble_bocf(0.5 * rng.standard_normal((6 * (1 + m), 1)),
                             arx_buffers(dims))
        return A, B, HorizonWeights.output_weighted(6, p=1, m=m, ell=ell, r2=1e-2)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("ell", [1, 2, 20])
    def test_inputs_unchanged_and_result_not_shared(self, m, ell):
        A, B, w = self.problem(30, m, ell)
        out = sweep_holding(A, B, w)
        held = (out.A, out.B, w.P_terminal, w.R1, w.R2)
        before = [x.copy() for x in held]
        M = riccati_backward(out)
        K = control_gain(out)
        for x, x0 in zip(held, before):
            np.testing.assert_array_equal(x, x0)
        assert not np.shares_memory(M, w.P_terminal)
        assert not np.shares_memory(K, M)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("ell", [1, 2, 20])
    def test_sweeps_do_not_carry_over(self, m, ell):
        A1, B1, w = self.problem(31, m, ell)
        A2, B2, _ = self.problem(32, m, ell)
        out = sweep_holding(A1, B1, w)
        first = riccati_backward(out).tobytes()
        out.A[...], out.B[...] = A2, B2
        riccati_backward(out)
        out.A[...], out.B[...] = A1, B1
        assert riccati_backward(out).tobytes() == first


class TestSweepBuffers:
    """A sweep or gain on a buffer set reused across calls and models
    returns, bit for bit, what it returns on a fresh set made for the same
    weights and holding the same model."""

    @staticmethod
    def check(A, B, out):
        # writes (A, B) into the reused set ``out`` as the realization does
        fresh = sweep_holding(A, B, out.weights)
        M_ref = riccati_backward(fresh)
        K_ref = control_gain(fresh)
        out.A[...], out.B[...] = A, B
        assert riccati_backward(out).tobytes() == M_ref.tobytes()
        assert control_gain(out).tobytes() == K_ref.tobytes()

    @pytest.mark.parametrize("bocf", [True, False], ids=["bocf", "general"])
    def test_own_blocks_equal_allocating(self, bocf):
        # one set, holding the model from the start, swept twice
        rng = np.random.default_rng(40 + bocf)
        for _ in range(40):
            A, B, w = random_problem(rng, bocf)
            out = sweep_holding(A, B, w)
            self.check(A, B, out)
            self.check(A, B, out)

    @pytest.mark.parametrize("bocf", [True, False], ids=["bocf", "general"])
    def test_buffers_holding_another_model(self, bocf):
        # Z holds model 1 when model 2 of the same shape is written over it:
        # the sweep must read model 2, then model 1 again
        rng = np.random.default_rng(42 + bocf)
        for _ in range(40):
            A1, B1, w = random_problem(rng, bocf)
            out = sweep_holding(A1, B1, w)
            riccati_backward(out)
            A2, B2, _ = random_problem(rng, bocf, B1.shape)
            self.check(A2, B2, out)
            self.check(A1, B1, out)

    @pytest.mark.parametrize("bocf", [True, False], ids=["bocf", "general"])
    def test_buffer_sets_for_other_weights_in_turn(self, bocf):
        # R2 is written once, when a set is made: sets made for weights with
        # another r2 and ell, holding one model and swept alternately, each
        # keep giving the gain of their own weights
        rng = np.random.default_rng(44 + bocf)
        for _ in range(20):
            A, B, _ = random_problem(rng, bocf)
            n, m = B.shape
            cheap = HorizonWeights(ell=3, R1=np.eye(n), R2=1e-3 * np.eye(m),
                                   P_terminal=np.eye(n))
            dear = HorizonWeights.output_weighted(n, p=1, m=m, ell=30, r2=3.0)
            sets = [sweep_holding(A, B, cheap), sweep_holding(A, B, dear)]
            for out in sets + sets:
                textbook_riccati_backward(out)
                K_ref = textbook_control_gain(out)
                assert max_rel_gap(first_gain(out), K_ref) <= ORACLE_RTOL

    def test_rejects_a_model_of_another_shape(self):
        # weights for two states and a model of three (a two-input R2 and a
        # one-input model: test_r2_must_match_the_inputs)
        w = HorizonWeights(ell=5, R1=np.eye(2), R2=np.eye(1), P_terminal=np.eye(2))
        refuse_model_on_weights(np.diag([0.5, 0.4, 0.3]), np.ones((3, 1)), w)


class TestControlGain:
    def test_zero_riccati_weight_gives_zero_gain(self):
        K = first_gain(sweep_holding([[0.7]], [[1.3]], scalar_weights(ell=1)))
        assert K[0, 0] == 0.0

    def test_scalar_fixed_point_gain(self):
        K = first_gain(sweep_holding([[1.0]], [[1.0]], scalar_weights(ell=200)))
        assert K[0, 0] == pytest.approx(-GOLDEN / (1.0 + GOLDEN), abs=1e-9)

    def test_long_horizon_gain_stabilizes(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            A, B = random_stable_system(rng, n, 1, sprad=1.2)  # unstable plants too
            w = HorizonWeights(
                ell=300, R1=np.eye(n), R2=np.eye(1), P_terminal=np.zeros((n, n))
            )
            K = first_gain(sweep_holding(A, B, w))
            assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0

    def test_gain_invariant_under_common_weight_scaling(self):
        rng = np.random.default_rng(25)
        A, B = random_stable_system(rng, 3, 1)
        R1 = np.diag([1.0, 0.0, 0.0])
        for scale in (1e-3, 1.0, 1e3):
            w = HorizonWeights(
                ell=40, R1=scale * R1, R2=scale * 1e-2 * np.eye(1),
                P_terminal=scale * R1,
            )
            K = first_gain(sweep_holding(A, B, w))
            if scale == 1e-3:
                K_ref = K
            else:
                np.testing.assert_allclose(K, K_ref, rtol=1e-10, atol=1e-12)


class TestSaturate:
    BOUNDS = SaturationBounds.symmetric(8.0)

    def test_upper_clamp(self):
        assert saturate(np.array([10.0]), self.BOUNDS)[0] == 8.0

    def test_interior_unchanged(self):
        assert saturate(np.array([0.0]), self.BOUNDS)[0] == 0.0

    def test_lower_clamp(self):
        assert saturate(np.array([-9.3]), self.BOUNDS)[0] == -8.0

    @settings(max_examples=100, deadline=None)
    @given(u=st.floats(-100, 100))
    def test_idempotent_and_bounded(self, u):
        once = saturate(np.array([u]), self.BOUNDS)
        np.testing.assert_array_equal(saturate(once, self.BOUNDS), once)
        assert -8.0 <= once[0] <= 8.0
        if -8.0 <= u <= 8.0:
            assert once[0] == u

    def test_componentwise(self):
        b = SaturationBounds(u_min=[-1.0, -2.0], u_max=[1.0, 0.5])
        np.testing.assert_array_equal(
            saturate(np.array([5.0, -5.0]), b), [1.0, -2.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SaturationBounds(u_min=[1.0], u_max=[-1.0])

    def test_holds_read_only_copies(self):
        u_min, u_max = np.array([-1.0]), np.array([1.0])
        b = SaturationBounds(u_min=u_min, u_max=u_max)
        u_min[0], u_max[0] = -5.0, 5.0
        assert u_max.flags.writeable
        for held, value in ((b.u_min, -1.0), (b.u_max, 1.0)):
            assert held[0] == value
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 2.0


class TestHorizonWeights:
    def test_output_weighted_defaults(self):
        # the stock weights are PcacConfig's; output_weighted has no defaults
        w = PcacConfig().weights
        assert w.ell == 20
        assert w.R1[0, 0] == 1.0 and np.count_nonzero(w.R1) == 1
        assert w.R2[0, 0] == pytest.approx(1e-2)

    def test_output_weighted_weights_every_output(self):
        # F_1 = -1.05 I and G_1 = [0; 1]: A = 1.05 I, B = [0; 1], so only the
        # second output is controllable.  Weighting the first output alone
        # left K = 0 and the second output unstable at 1.05.
        cfg = PcacConfig(n_hat=1, p=2)
        A, B = assemble_bocf(np.array([[-1.05, 0.0], [0.0, -1.05], [0.0, 1.0]]),
                             arx_buffers(cfg.dims))
        C = np.eye(2)  # [I_p 0 ... 0], the BOCF output matrix, for n_hat = 1
        w = cfg.weights
        np.testing.assert_array_equal(w.R1, C.T @ C)
        np.testing.assert_array_equal(w.P_terminal, C.T @ C)
        K = first_gain(sweep_holding(A, B, w))
        closed = A + B @ K
        assert closed[0, 1] == 0.0  # lower triangular: [1, 1] is output 2's pole
        assert abs(closed[1, 1]) < 1.0
        C = np.eye(2, 6)  # for n_hat = 3
        np.testing.assert_array_equal(PcacConfig(n_hat=3, p=2).weights.R1, C.T @ C)

    def test_extreme_r2_symmetrises_exactly(self):
        # no overflow near the float maximum, no underflow of a subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r2 in (1.7e308, 5e-324):
                assert PcacConfig(r2=r2).weights.R2[0, 0] == r2
            with pytest.raises(ValueError, match="R2"):
                HorizonWeights(ell=5, R1=np.eye(2), R2=[[-1.7e308]],
                               P_terminal=np.zeros((2, 2)))

    def test_r2_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            HorizonWeights(ell=5, R1=np.eye(2), R2=np.zeros((1, 1)),
                           P_terminal=np.zeros((2, 2)))

    def test_weights_must_be_square(self):
        with pytest.raises(ValueError, match="R1"):
            HorizonWeights(ell=5, R1=np.ones((3, 2)), R2=np.eye(1),
                           P_terminal=np.eye(3))

    def test_r2_must_match_the_inputs(self):
        # a two-input R2 and a one-input B, which numpy would broadcast into
        # the sweep's two B columns
        A, B = np.diag([0.5, 0.4, 0.3]), np.ones((3, 1))
        w = HorizonWeights(ell=5, R1=np.eye(3), R2=np.eye(2), P_terminal=np.eye(3))
        refuse_model_on_weights(A, B, w)

    def test_terminal_weight_must_match_the_states(self):
        # one-state R1 and P_terminal and a three-state model
        A, B = np.diag([0.5, 0.4, 0.3]), np.ones((3, 1))
        w = HorizonWeights(ell=5, R1=np.eye(1), R2=np.eye(1), P_terminal=np.eye(1))
        refuse_model_on_weights(A, B, w)

    def test_holds_read_only_copies(self):
        # the caller's arrays stay the caller's, and the held ones keep the
        # values the weights were checked with
        R1, R2 = np.eye(2), np.eye(1)
        w = HorizonWeights(ell=5, R1=R1, R2=R2, P_terminal=R1)
        R1[0, 0] = R2[0, 0] = 3.0
        assert R1.flags.writeable and R2.flags.writeable
        for held in (w.R1, w.R2, w.P_terminal):
            assert held[0, 0] == 1.0
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 2.0

    def test_terminal_weight_must_match_r1(self):
        # a P_terminal of another shape than R1 used to be accepted here
        with pytest.raises(ValueError, match="P_terminal"):
            HorizonWeights(ell=20, R1=np.eye(3), R2=np.eye(1), P_terminal=np.eye(1))
