import numpy as np
import pytest

from swarmplan.geometry import EllipsoidModel, to_sphere_frame

from helpers import closest_point_to_origin
from oracles import min_norm_point_pgd, support


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EllipsoidModel(radius_sum=0.0)
        with pytest.raises(ValueError):
            EllipsoidModel(radius_sum=0.3, downwash=0.5)


class TestSupport:
    def test_sphere_equals_radius(self):
        model = EllipsoidModel(radius_sum=0.3, downwash=1.0)
        assert support(model, (1, 0, 0)) == pytest.approx(0.3, abs=1e-15)

    def test_downwash_stretches_z(self):
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        assert support(model, (0, 0, 1)) == pytest.approx(0.6, abs=1e-15)

    def test_downwash_leaves_x_alone(self):
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        assert support(model, (1, 0, 0)) == pytest.approx(0.3, abs=1e-15)

    def test_sampled_maximization_oracle(self):
        # Sampled max of x.n over boundary points never exceeds the closed
        # form and approaches it.
        rng = np.random.default_rng(20)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        raw = rng.normal(size=(100000, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        boundary = model.radius_sum * raw * model.inverse_scale
        for _ in range(5):
            n = rng.normal(size=3)
            closed = support(model, n)
            sampled = float(np.max(boundary @ n))
            assert sampled <= closed + 1e-12
            assert sampled >= closed - 1e-3 * np.linalg.norm(n)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(21)
        model = EllipsoidModel(radius_sum=0.45, downwash=1.7)
        for _ in range(20):
            n = rng.normal(size=3)
            a = float(rng.uniform(0.1, 10.0))
            assert support(model, a * n) == pytest.approx(
                a * support(model, n), rel=1e-12
            )

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            support(EllipsoidModel(0.3), (0, 0, 0))


class TestSphereFrame:
    def test_scaling(self):
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        out = to_sphere_frame([[1.0, 1.0, 2.0]], model)
        assert np.allclose(out, [[1.0, 1.0, 1.0]], atol=1e-15)

    def test_identity_without_downwash(self):
        model = EllipsoidModel(radius_sum=0.3, downwash=1.0)
        pts = np.array([[0.3, -2.0, 5.5]])
        assert np.array_equal(to_sphere_frame(pts, model), pts)

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        pts = rng.normal(size=(30, 3)) * 4
        back = to_sphere_frame(pts, model) * model.inverse_scale
        assert np.max(np.abs(back - pts)) < 1e-12


class TestClosestPoint:
    def test_single_point(self):
        witness, dist = closest_point_to_origin([[2.0, 0.0, 0.0]])
        assert np.array_equal(witness, [2.0, 0.0, 0.0])
        assert dist == 2.0

    def test_symmetric_edge(self):
        witness, dist = closest_point_to_origin([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
        assert np.allclose(witness, [1.0, 0.0, 0.0], atol=1e-15)
        assert dist == pytest.approx(1.0, abs=1e-15)

    def test_origin_inside_hull(self):
        pts = np.array(
            [[1, 0, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
        )
        witness, dist = closest_point_to_origin(pts)
        assert dist < 1e-12
        assert np.linalg.norm(witness) < 1e-12

    def test_matches_brute_force_on_random_hulls(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            pts = rng.normal(size=(6, 3)) + rng.normal(size=3) * 2
            _, dist = closest_point_to_origin(pts)
            oracle = min_norm_point_pgd(pts)
            assert dist <= oracle + 1e-9
            assert abs(dist - oracle) < 1e-6

    def test_degenerate_hulls(self):
        # Coincident points (hovering agents).
        witness, dist = closest_point_to_origin([[0.5, 0.5, 0.0]] * 6)
        assert np.allclose(witness, [0.5, 0.5, 0.0])
        # Collinear points.
        pts = [[1.0, t, 0.0] for t in np.linspace(-1, 1, 6)]
        witness, dist = closest_point_to_origin(pts)
        assert np.allclose(witness, [1.0, 0.0, 0.0], atol=1e-12)
        # Coplanar square around the z-axis at height 2.
        pts = [[1, 1, 2], [1, -1, 2], [-1, 1, 2], [-1, -1, 2]]
        witness, dist = closest_point_to_origin(pts)
        assert np.allclose(witness, [0, 0, 2], atol=1e-12)

    def test_permutation_invariant_distance(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(6, 3)) + [0, 0, 3]
        _, dist = closest_point_to_origin(pts)
        for _ in range(10):
            perm = rng.permutation(6)
            _, dist2 = closest_point_to_origin(pts[perm])
            assert dist2 == pytest.approx(dist, abs=1e-12)

    def test_never_exceeds_min_point_norm(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            pts = rng.normal(size=(6, 3)) * 3
            _, dist = closest_point_to_origin(pts)
            assert dist <= np.min(np.linalg.norm(pts, axis=1)) + 1e-12

    def test_separation_certificate(self):
        # When the origin is outside, the witness direction supports the
        # hull: every point has dot product >= distance.
        rng = np.random.default_rng(26)
        found = 0
        for _ in range(80):
            pts = rng.normal(size=(6, 3)) + rng.normal(size=3) * 3
            witness, dist = closest_point_to_origin(pts)
            if dist < 1e-9:
                continue
            found += 1
            direction = witness / dist
            assert np.min(pts @ direction) >= dist - 1e-9
        assert found > 40

    def test_deterministic(self):
        rng = np.random.default_rng(27)
        pts = rng.normal(size=(6, 3))
        w1, d1 = closest_point_to_origin(pts)
        w2, d2 = closest_point_to_origin(pts)
        assert np.array_equal(w1, w2) and d1 == d2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            closest_point_to_origin(np.zeros((0, 3)))
