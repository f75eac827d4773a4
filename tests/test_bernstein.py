import numpy as np
import pytest

from swarmplan.bernstein import basis_row, derivative, shift_for_initial

from helpers import end_time, hold_plan, position_at, random_trajectory, segment_point
from oracles import de_casteljau, gauss_legendre_integral


class TestBasis:
    def test_endpoint_interpolation(self):
        assert basis_row(5, 0.0)[0] == 1.0
        assert basis_row(5, 1.0)[5] == 1.0

    def test_midpoint_value(self):
        # C(5,2) * 0.5^2 * 0.5^3 = 10 / 32
        assert basis_row(5, 0.5)[2] == pytest.approx(0.3125, abs=1e-15)

    def test_matches_de_casteljau_oracle(self):
        # Basis l equals the curve through unit coefficients delta_{l}.
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            l = int(rng.integers(0, n + 1))
            tau = float(rng.uniform())
            coeffs = np.zeros((n + 1, 1))
            coeffs[l] = 1.0
            assert basis_row(n, tau)[l] == pytest.approx(
                float(de_casteljau(coeffs, tau)[0]), abs=1e-14
            )

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            basis_row(5, 1.5)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            basis_row(11, 0.5)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(2)
        for tau in rng.uniform(size=25):
            row = basis_row(7, float(tau))
            assert np.all(row >= 0)
            assert np.sum(row) == pytest.approx(1.0, abs=1e-12)


class TestEval:
    def test_constant_curve(self):
        plan = hold_plan([1, 2, 3])
        for t in [0.0, 0.3, 0.77, 1.0]:
            assert np.allclose(position_at(plan, 0.0, 0.2, t), [1, 2, 3])

    def test_start_is_first_control_point(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 3))
        assert np.array_equal(position_at(pts[None], 1.4, 0.2, 1.4), pts[0])

    def test_matches_de_casteljau(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(6, 3))
        assert np.linalg.norm(segment_point(pts, 0.37) - de_casteljau(pts, 0.37)) < 1e-12

    def test_knot_agreement(self):
        rng = np.random.default_rng(5)
        plan = random_trajectory(rng)
        for m in range(1, len(plan)):
            left = segment_point(plan[m - 1], 1.0)
            right = segment_point(plan[m], 0.0)
            assert np.linalg.norm(left - right) < 1e-9
            assert np.linalg.norm(position_at(plan, 0.0, 0.2, m * 0.2) - right) == 0.0

    def test_outside_horizon(self):
        plan = hold_plan([0, 0, 0], segments=1)
        with pytest.raises(ValueError):
            position_at(plan, 0.0, 0.2, -0.1)
        with pytest.raises(ValueError):
            position_at(plan, 0.0, 0.2, 0.21)

    def test_convex_hull_property(self):
        # The evaluation is an explicit convex combination of control
        # points: weights non-negative and summing to one certify that the
        # curve point lies in the hull.
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(6, 3))
        for tau in rng.uniform(size=100):
            row = basis_row(5, float(tau))
            assert np.all(row >= -1e-15)
            assert abs(np.sum(row) - 1.0) < 1e-12
            assert np.linalg.norm(segment_point(pts, float(tau)) - row @ pts) < 1e-9


class TestDerivative:
    def test_constant_segment(self):
        der = derivative(np.ones((6, 3)), 0.2)
        assert np.all(der == 0.0)
        assert der.shape == (5, 3)

    def test_linear_segment_constant_velocity(self):
        v = np.array([0.4, -0.2, 0.1])
        dt, n = 0.2, 5
        pts = np.array([l * v * dt / n for l in range(n + 1)])
        assert np.allclose(derivative(pts, dt), np.tile(v, (n, 1)), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        der = derivative(pts, 0.2)
        h = 1e-5
        for tau in rng.uniform(0.1, 0.9, size=20):
            # d/dt with t = tau * dt: central difference on the segment.
            step = segment_point(pts, tau + h) - segment_point(pts, tau - h)
            fd = step / (2 * h * 0.2)
            assert np.linalg.norm(segment_point(der, float(tau)) - fd) < 1e-6

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            derivative(np.zeros((1, 3)), 0.2)

    def test_integral_reconstructs_endpoint_difference(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(6, 3))
        der = derivative(pts, 0.2)
        for axis in range(3):
            integral = gauss_legendre_integral(
                lambda tau: segment_point(der, tau)[axis] * 0.2, 0.0, 1.0
            )
            assert abs(integral - (pts[-1, axis] - pts[0, axis])) < 1e-9


class TestShiftForInitial:
    def test_first_step_holds_position(self):
        # sim.run starts every agent on a plan that holds still at its
        # start; step 0 shifts it to itself, bit for bit.
        plans = np.stack([hold_plan((0, 0, 1)), hold_plan((0.1 / 3, -2.5e-310, 7.0))])
        assert np.array_equal(shift_for_initial(plans), plans)

    def test_shifted_plans_are_read_only(self):
        shifted = shift_for_initial(np.stack([hold_plan((1, 2, 3))]))
        with pytest.raises(ValueError):
            shifted[0, 0, 0, 0] = 9.0

    def test_constant_tail_stays_constant(self):
        rng = np.random.default_rng(9)
        g = np.array([1.0, -0.5, 0.25])
        # Stitch a constant final segment at g onto a continuous prefix.
        prefix = random_trajectory(rng, segments=4)
        prev = np.concatenate([prefix + (g - prefix[-1, -1]), hold_plan(g, segments=1)])
        shifted = shift_for_initial(prev[None])[0]
        for seg in shifted[-2:]:
            assert np.all(seg == seg[0])
            assert np.allclose(seg[0], g)

    def test_index_identity(self):
        rng = np.random.default_rng(10)
        prev = random_trajectory(rng)
        shifted = shift_for_initial(prev[None])[0]
        assert np.array_equal(shifted[:-1], prev[1:])
        assert np.array_equal(shifted[-1], np.tile(prev[-1, -1], (6, 1)))

    def test_pointwise_overlap(self):
        rng = np.random.default_rng(11)
        prev = random_trajectory(rng)
        shifted = shift_for_initial(prev[None])[0]
        for t in np.linspace(0.8, end_time(prev, 0.6, 0.2), 40):
            gap = position_at(shifted, 0.8, 0.2, float(t)) - position_at(prev, 0.6, 0.2, float(t))
            assert np.linalg.norm(gap) < 1e-12
