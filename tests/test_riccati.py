"""Backward Riccati sweep, first-step gain, and saturation."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from pcac import (
    HorizonWeights,
    SaturationBounds,
    control_gain,
    default_config,
    riccati_backward,
    saturate,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_weights(ell, r1=1.0, r2=1.0, p_term=0.0):
    return HorizonWeights(ell=ell, R1=[[r1]], R2=[[r2]], P_terminal=[[p_term]])


def random_stable_system(rng, n, m, sprad=0.9):
    A = rng.standard_normal((n, n))
    A *= sprad / max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    return A, B


class TestRiccatiBackward:
    def test_unit_horizon_returns_terminal(self):
        P = riccati_backward([[1.0]], [[1.0]], scalar_weights(ell=1))
        assert P[0, 0] == 0.0

    def test_single_step_hand_value(self):
        P = riccati_backward([[1.0]], [[1.0]], scalar_weights(ell=2))
        assert P[0, 0] == pytest.approx(1.0)

    def test_long_horizon_reaches_golden_ratio(self):
        # fixed point of P = 1 + P - P^2/(1+P) for A=B=R1=R2=1
        P = riccati_backward([[1.0]], [[1.0]], scalar_weights(ell=200))
        assert P[0, 0] == pytest.approx(GOLDEN, abs=1e-9)

    def test_scalar_sequence_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.2, 2.0)
            r1 = rng.uniform(0.1, 3.0)
            r2 = rng.uniform(0.1, 3.0)
            values = [
                riccati_backward([[a]], [[b]], scalar_weights(ell, r1, r2))[0, 0]
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
            P = riccati_backward(A, B, w)
            P_star = linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
            err = np.linalg.norm(P - P_star) / np.linalg.norm(P_star)
            assert err < 1e-6

    def test_intermediate_iterates_psd(self):
        rng = np.random.default_rng(23)
        A, B = random_stable_system(rng, 4, 1)
        for ell in (2, 5, 20):
            w = HorizonWeights(
                ell=ell, R1=np.eye(4), R2=np.eye(1), P_terminal=np.zeros((4, 4))
            )
            P = riccati_backward(A, B, w)
            np.testing.assert_array_equal(P, P.T)
            assert np.min(np.linalg.eigvalsh(P)) >= -1e-12


class TestControlGain:
    def test_zero_riccati_weight_gives_zero_gain(self):
        K = control_gain([[0.7]], [[1.3]], [[1.0]], np.zeros((1, 1)))
        assert K[0, 0] == 0.0

    def test_scalar_fixed_point_gain(self):
        P = riccati_backward([[1.0]], [[1.0]], scalar_weights(ell=200))
        K = control_gain([[1.0]], [[1.0]], [[1.0]], P)
        assert K[0, 0] == pytest.approx(-GOLDEN / (1.0 + GOLDEN), abs=1e-9)

    def test_long_horizon_gain_stabilizes(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            A, B = random_stable_system(rng, n, 1, sprad=1.2)  # unstable plants too
            w = HorizonWeights(
                ell=300, R1=np.eye(n), R2=np.eye(1), P_terminal=np.zeros((n, n))
            )
            K = control_gain(A, B, np.eye(1), riccati_backward(A, B, w))
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
            K = control_gain(A, B, w.R2, riccati_backward(A, B, w))
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


class TestHorizonWeights:
    def test_output_weighted_defaults(self):
        w = HorizonWeights.output_weighted(10, 1)
        assert w.ell == 20
        assert w.R1[0, 0] == 1.0 and np.count_nonzero(w.R1) == 1
        assert w.R2[0, 0] == pytest.approx(1e-2)

    def test_extreme_r2_symmetrises_exactly(self):
        # no overflow near the float maximum, no underflow of a subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r2 in (1.7e308, 5e-324):
                assert default_config(r2=r2).weights.R2[0, 0] == r2
            with pytest.raises(ValueError, match="R2"):
                HorizonWeights(ell=5, R1=np.eye(2), R2=[[-1.7e308]],
                               P_terminal=np.zeros((2, 2)))

    def test_r2_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            HorizonWeights(ell=5, R1=np.eye(2), R2=np.zeros((1, 1)),
                           P_terminal=np.zeros((2, 2)))
