import numpy as np
import pytest

from swarmplan import bernstein
from swarmplan.bernstein import (
    BernsteinSegment,
    PiecewiseTrajectory,
    basis_row,
    constant_segment,
    derivative,
    shift_for_initial,
)

from helpers import end_time, position_at, random_trajectory, segment_point
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


class TestSegment:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernsteinSegment(np.zeros((6, 2)), 0.2)
        with pytest.raises(ValueError):
            BernsteinSegment(np.zeros((6, 3)), 0.0)
        with pytest.raises(ValueError):
            BernsteinSegment(np.full((6, 3), np.nan), 0.2)

    def test_immutable(self):
        seg = constant_segment([1, 2, 3], 0.2, 5)
        with pytest.raises(ValueError):
            seg.control_points[0, 0] = 9.0


class TestEval:
    def test_constant_curve(self):
        traj = PiecewiseTrajectory(
            [constant_segment([1, 2, 3], 0.2, 5) for _ in range(5)], 0.0
        )
        for t in [0.0, 0.3, 0.77, 1.0]:
            assert np.allclose(position_at(traj, t), [1, 2, 3])

    def test_start_is_first_control_point(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 3))
        traj = PiecewiseTrajectory([BernsteinSegment(pts, 0.2)], 1.4)
        assert np.array_equal(position_at(traj, 1.4), pts[0])

    def test_matches_de_casteljau(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(6, 3))
        seg = BernsteinSegment(pts, 0.2)
        assert np.linalg.norm(segment_point(seg, 0.37) - de_casteljau(pts, 0.37)) < 1e-12

    def test_knot_agreement(self):
        rng = np.random.default_rng(5)
        traj = random_trajectory(rng)
        dt = traj.segment_time
        for m in range(1, traj.segment_count):
            t = traj.start_time + m * dt
            left = segment_point(traj.segments[m - 1], 1.0)
            right = segment_point(traj.segments[m], 0.0)
            assert np.linalg.norm(left - right) < 1e-9
            assert np.linalg.norm(position_at(traj, t) - right) == 0.0

    def test_outside_horizon(self):
        traj = PiecewiseTrajectory([constant_segment([0, 0, 0], 0.2, 5)], 0.0)
        with pytest.raises(ValueError):
            position_at(traj, -0.1)
        with pytest.raises(ValueError):
            position_at(traj, 0.21)

    def test_convex_hull_property(self):
        # The evaluation is an explicit convex combination of control
        # points: weights non-negative and summing to one certify that the
        # curve point lies in the hull.
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(6, 3))
        seg = BernsteinSegment(pts, 0.2)
        for tau in rng.uniform(size=100):
            row = basis_row(5, float(tau))
            assert np.all(row >= -1e-15)
            assert abs(np.sum(row) - 1.0) < 1e-12
            assert np.linalg.norm(segment_point(seg, float(tau)) - row @ pts) < 1e-9


class TestDerivative:
    def test_constant_segment(self):
        seg = constant_segment([1, 1, 1], 0.2, 5)
        der = derivative(seg)
        assert np.all(der.control_points == 0.0)
        assert der.degree == 4

    def test_linear_segment_constant_velocity(self):
        v = np.array([0.4, -0.2, 0.1])
        dt, n = 0.2, 5
        pts = np.array([l * v * dt / n for l in range(n + 1)])
        der = derivative(BernsteinSegment(pts, dt))
        assert np.allclose(der.control_points, np.tile(v, (n, 1)), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        seg = BernsteinSegment(pts, 0.2)
        der = derivative(seg)
        h = 1e-5
        for tau in rng.uniform(0.1, 0.9, size=20):
            # d/dt with t = tau * dt: central difference on the segment.
            step = segment_point(seg, tau + h) - segment_point(seg, tau - h)
            fd = step / (2 * h * seg.duration)
            assert np.linalg.norm(segment_point(der, float(tau)) - fd) < 1e-6

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            derivative(BernsteinSegment(np.zeros((1, 3)), 0.2))

    def test_integral_reconstructs_endpoint_difference(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(6, 3))
        seg = BernsteinSegment(pts, 0.2)
        der = derivative(seg)
        for axis in range(3):
            integral = gauss_legendre_integral(
                lambda tau: segment_point(der, tau)[axis] * seg.duration, 0.0, 1.0
            )
            assert abs(integral - (pts[-1, axis] - pts[0, axis])) < 1e-9


class TestShiftForInitial:
    def test_first_step_holds_position(self):
        traj = shift_for_initial(
            None, (0, 0, 1), segment_count=5, degree=5, segment_time=0.2
        )
        assert traj.segment_count == 5
        for seg in traj.segments:
            assert np.all(seg.control_points == seg.control_points[0])
            assert np.allclose(seg.control_points[0], [0, 0, 1])
        assert traj.start_time == 0.0

    def test_constant_tail_stays_constant(self):
        rng = np.random.default_rng(9)
        g = np.array([1.0, -0.5, 0.25])
        segs = list(random_trajectory(rng, segments=4).segments)
        # Stitch a constant final segment at g onto a continuous prefix.
        prefix_end = segs[-1].control_points[-1]
        offset = g - prefix_end
        moved = [BernsteinSegment(s.control_points + offset, s.duration) for s in segs]
        prev = PiecewiseTrajectory(moved + [constant_segment(g, 0.2, 5)], 0.0)
        shifted = shift_for_initial(prev, position_at(prev, 0.2))
        for seg in shifted.segments[-2:]:
            assert np.all(seg.control_points == seg.control_points[0])
            assert np.allclose(seg.control_points[0], g)

    def test_index_identity(self):
        rng = np.random.default_rng(10)
        prev = random_trajectory(rng)
        shifted = shift_for_initial(prev, position_at(prev, prev.start_time + 0.2))
        for m in range(prev.segment_count - 1):
            assert np.array_equal(
                shifted.segments[m].control_points,
                prev.segments[m + 1].control_points,
            )
        assert np.array_equal(
            shifted.segments[-1].control_points[0],
            prev.segments[-1].control_points[-1],
        )
        assert shifted.start_time == pytest.approx(prev.start_time + 0.2)

    def test_pointwise_overlap(self):
        rng = np.random.default_rng(11)
        prev = random_trajectory(rng, start=0.6)
        shifted = shift_for_initial(prev, position_at(prev, 0.8))
        for t in np.linspace(shifted.start_time, end_time(prev), 40):
            gap = position_at(shifted, float(t)) - position_at(prev, float(t))
            assert np.linalg.norm(gap) < 1e-12

    def test_first_step_requires_shape(self):
        with pytest.raises(ValueError):
            shift_for_initial(None, (0, 0, 0))


class TestTrajectoryValidation:
    def test_discontinuous_rejected(self):
        a = constant_segment([0, 0, 0], 0.2, 5)
        b = constant_segment([1, 0, 0], 0.2, 5)
        with pytest.raises(ValueError):
            PiecewiseTrajectory([a, b], 0.0)

    def test_mixed_degree_rejected(self):
        a = constant_segment([0, 0, 0], 0.2, 5)
        b = constant_segment([0, 0, 0], 0.2, 4)
        with pytest.raises(ValueError):
            PiecewiseTrajectory([a, b], 0.0)
