import numpy as np
import pytest

from swarmplan import geometry
from swarmplan.geometry import EllipsoidModel, closest_points_to_origin, to_sphere_frame

from helpers import closest_point_to_origin
from oracles import closest_by_enumeration, min_norm_point_pgd, support


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
        hulls = [rng.normal(size=(6, 3)) + rng.normal(size=3) * 2 for _ in range(60)]
        for pts, oracle in zip(hulls, min_norm_point_pgd(hulls)):
            _, dist = closest_point_to_origin(pts)
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


def assert_matches_enumeration(pts):
    """The staged query returns the referee's bits for every hull."""
    witness, dist = closest_points_to_origin(pts)
    ref_witness, ref_dist = closest_by_enumeration(pts)
    assert np.array_equal(witness, ref_witness)
    assert np.array_equal(dist, ref_dist)


def gap_hulls(rng, exponents, count=6):
    """Hulls whose first vertex v is the nearest and whose other vertices
    clear the plane through v, normal to it, by 10^-k of v.v each."""
    hulls = []
    for k in exponents:
        v = rng.normal(size=3)
        v *= rng.uniform(0.2, 3.0) / np.linalg.norm(v)
        hull = [v]
        for _ in range(count - 1):
            tangent = rng.normal(size=3)
            tangent -= (tangent @ v) / (v @ v) * v
            tangent *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(tangent), 1e-300)
            hull.append(v * (1.0 + 10.0**-k) + tangent)
        hulls.append(hull)
    return np.array(hulls)


def roundoff_clusters(rng, batch, offset=3.0):
    """Random hulls with copies of the nearest vertex moved by a few ulps."""
    pts = rng.normal(size=(batch, 6, 3)) + rng.normal(size=(batch, 1, 3)) * offset
    rows = np.arange(batch)
    nearest = np.argmin(np.sum(pts * pts, axis=2), axis=1)
    v = pts[rows, nearest]
    for slot in (1, 4):
        ulps = rng.integers(-3, 4, size=(batch, 3))
        pts[:, slot] = v + ulps * np.spacing(v)
    return pts


class TestStagedClosestPoint:
    """closest_points_to_origin against the full subset enumeration,
    bit for bit, on hulls that exercise each stage."""

    def test_random_hulls(self):
        rng = np.random.default_rng(60)
        for count in (1, 2, 3, 4, 6, 7):
            for scale, offset in ((1.0, 0.0), (1.0, 3.0), (1e-3, 1e-3), (50.0, 20.0)):
                pts = rng.normal(size=(200, count, 3)) * scale
                pts += rng.normal(size=(200, 1, 3)) * offset
                assert_matches_enumeration(pts)

    def test_gaps_around_the_tolerance(self):
        rng = np.random.default_rng(61)
        assert_matches_enumeration(gap_hulls(rng, np.repeat(np.arange(4, 17), 20)))

    def test_roundoff_clusters(self):
        assert_matches_enumeration(roundoff_clusters(np.random.default_rng(62), 300))

    def test_degenerate_hulls(self):
        rng = np.random.default_rng(63)
        v = rng.normal(size=(50, 1, 3)) * 2
        repeated = np.repeat(v, 6, axis=1)
        partly = rng.normal(size=(50, 6, 3)) * 2
        partly[:, 3:] = partly[:, :1]
        t = np.sort(rng.uniform(-1, 1, size=(50, 6, 1)), axis=1)
        collinear = v + t * rng.normal(size=(50, 1, 3))
        coplanar = v + rng.normal(size=(50, 6, 1)) * rng.normal(size=(50, 1, 3))
        coplanar += rng.normal(size=(50, 6, 1)) * rng.normal(size=(50, 1, 3))
        square = np.array([[[1, 1, 2], [1, -1, 2], [-1, 1, 2], [-1, -1, 2]]], dtype=float)
        for pts in (repeated, partly, collinear, coplanar, square):
            assert_matches_enumeration(pts)

    def test_hulls_containing_the_origin(self):
        rng = np.random.default_rng(64)
        pts = rng.normal(size=(200, 6, 3))
        pts -= np.mean(pts, axis=1, keepdims=True)
        pts[:20, 0] = 0.0  # the origin as a vertex
        assert_matches_enumeration(pts)

    def test_negated_inputs(self):
        rng = np.random.default_rng(65)
        pts = np.concatenate(
            [
                rng.normal(size=(100, 6, 3)) + rng.normal(size=(100, 1, 3)) * 3,
                roundoff_clusters(rng, 100),
                gap_hulls(rng, np.repeat(np.arange(6, 13), 10)),
            ]
        )
        witness, dist = closest_points_to_origin(pts)
        neg_witness, neg_dist = closest_points_to_origin(-pts)
        assert np.array_equal(neg_witness, -witness)
        assert np.array_equal(neg_dist, dist)
        assert_matches_enumeration(-pts)

    def test_hull_alone_matches_mixed_batch(self):
        rng = np.random.default_rng(66)
        pts = np.concatenate(
            [
                rng.normal(size=(30, 6, 3)) + rng.normal(size=(30, 1, 3)) * 3,
                roundoff_clusters(rng, 30),
                gap_hulls(rng, np.arange(4, 16)),
            ]
        )
        pts = pts[rng.permutation(len(pts))]
        witness, dist = closest_points_to_origin(pts)
        for i in range(len(pts)):
            alone_witness, alone_dist = closest_points_to_origin(pts[i : i + 1])
            assert np.array_equal(alone_witness[0], witness[i])
            assert alone_dist[0] == dist[i]

    def test_hulls_near_the_origin(self):
        # Distances of 10^-k of the hull scale straddle the bound below
        # which the 4-vertex faces run.
        rng = np.random.default_rng(67)
        pts = roundoff_clusters(rng, 160)
        pts = np.concatenate([pts, rng.normal(size=(160, 6, 3))])
        rows = np.arange(len(pts))
        nearest = pts[rows, np.argmin(np.sum(pts * pts, axis=2), axis=1)]
        scale = np.max(np.linalg.norm(pts, axis=2), axis=1)
        shrink = 10.0 ** -rng.integers(0, 16, size=len(pts)) * scale
        pts += (shrink / np.linalg.norm(nearest, axis=1) - 1.0)[:, None, None] * nearest[:, None]
        assert_matches_enumeration(pts)

    def test_only_uncertified_hulls_enumerate(self, monkeypatch):
        enumerated = []
        real = geometry._improve_by_faces

        def counting(pts, subsets, witness, dist2):
            enumerated.append((subsets.shape[1], len(pts)))
            return real(pts, subsets, witness, dist2)

        monkeypatch.setattr(geometry, "_improve_by_faces", counting)
        rng = np.random.default_rng(68)
        clear = gap_hulls(rng, [2] * 5)
        closest_points_to_origin(clear)
        assert enumerated == []
        # Round-off clusters far from the origin skip the 4-vertex faces;
        # a hull around the origin runs them.
        around = rng.normal(size=(1, 6, 3))
        around -= np.mean(around, axis=1, keepdims=True)
        far = roundoff_clusters(rng, 3, offset=100.0)
        closest_points_to_origin(np.concatenate([clear, far, around]))
        assert enumerated == [(2, 4), (3, 4), (4, 1)]
