import itertools

import numpy as np
import pytest

from swarmplan.bernstein import (
    BernsteinSegment,
    PiecewiseTrajectory,
    constant_segment,
    shift_for_initial,
)
from swarmplan.corridor import (
    SafeBoxCorridor,
    advance_corridor,
    build_pair_separations,
)
from swarmplan.errors import PlannerError, SafetyDegeneracyError
from swarmplan.geometry import EllipsoidModel
from swarmplan.params import PlanningParams
from swarmplan.planner import shared_pair_separations
from swarmplan.world import AxisBox, OccupancyGrid

from helpers import (
    pair_segments,
    position_at,
    random_trajectory,
    segment_point,
    separation_residuals,
)


def hover_trajectory(position, segments=5, degree=5, dt=0.2):
    return shift_for_initial(
        None, position, segment_count=segments, degree=degree, segment_time=dt
    )


def empty_grid():
    return OccupancyGrid(0.1, (0, 0, 0), (3.0, 3.0, 2.0))


class TestAdvanceCorridor:
    def test_first_step_empty_map(self):
        traj = hover_trajectory((1.5, 1.5, 1.0))
        corridor = advance_corridor(None, traj, empty_grid(), 0.15)
        assert len(corridor.boxes) == 5
        for box in corridor.boxes:
            assert box == corridor.boxes[0]
            assert np.allclose(box.min_corner, [0.15, 0.15, 0.15])
            assert np.allclose(box.max_corner, [2.85, 2.85, 1.85])

    def test_shift_reuses_boxes(self):
        grid = empty_grid()
        traj = hover_trajectory((1.5, 1.5, 1.0))
        first = advance_corridor(None, traj, grid, 0.15)
        shifted = shift_for_initial(traj, position_at(traj, 0.2))
        second = advance_corridor(first, shifted, grid, 0.15)
        assert second.boxes[:-1] == first.boxes[1:]

    def test_containment_over_many_steps(self):
        # Walk a trajectory around a map with obstacles; the corridor must
        # contain the shifted control points at every step (advance_corridor
        # verifies this internally and raises on failure).
        rng = np.random.default_rng(40)
        grid = OccupancyGrid.from_dict(
            {
                "resolution": 0.1,
                "bounds": {"min": [0, 0, 0], "max": [3, 3, 2]},
                "boxes": [
                    {"min": [1.2, 1.2, 0.0], "max": [1.5, 1.5, 2.0]},
                    {"min": [2.0, 0.4, 0.0], "max": [2.3, 0.9, 2.0]},
                ],
            }
        )
        traj = hover_trajectory((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, 0.15)
        for _ in range(20):
            # Perturb within the final box to mimic optimization, keeping the
            # last segment constant so the shifted candidate stays valid.
            box = corridor.boxes[-1]
            target = rng.uniform(
                np.maximum(box.min_corner, 0.2), np.minimum(box.max_corner, [2.8, 2.8, 1.8])
            )
            segs = list(traj.segments[:-1]) + [
                constant_segment(
                    np.clip(traj.segments[-1].control_points[-1], box.min_corner, box.max_corner),
                    traj.segment_time,
                    traj.degree,
                )
            ]
            traj = shift_for_initial(traj, position_at(traj, traj.start_time + 0.2))
            corridor = advance_corridor(corridor, traj, grid, 0.15)
            for seg_box, seg in zip(corridor.boxes, traj.segments):
                assert np.all(seg.control_points >= np.array(seg_box.min_corner) - 1e-9)
                assert np.all(seg.control_points <= np.array(seg_box.max_corner) + 1e-9)


    @pytest.mark.parametrize("segment", range(4))
    def test_point_outside_its_inherited_box_is_refused(self, segment):
        # One control point of one segment 2e-9 past a face of that
        # segment's inherited box: the containment tolerance is 1e-9.
        grid = empty_grid()
        traj = hover_trajectory((1.5, 1.5, 1.0))
        tight = AxisBox((1.0, 1.0, 0.5), (2.0, 2.0, 1.5))
        prev = SafeBoxCorridor((tight,) * 5)
        points = [seg.control_points.copy() for seg in traj.segments]
        inside = advance_corridor(prev, traj, grid, 0.15)
        assert inside.boxes[:-1] == prev.boxes[1:]
        # The inherited boxes serve segments 0..3; segment 4 gets a fresh box.
        points[segment][2, 1] = tight.max_corner[1] + 2e-9
        moved = PiecewiseTrajectory(
            [BernsteinSegment(p, traj.segment_time) for p in points], traj.start_time
        )
        with pytest.raises(PlannerError, match="does not contain"):
            advance_corridor(prev, moved, grid, 0.15)
        points[segment][2, 1] = tight.max_corner[1] + 0.5e-9
        within = PiecewiseTrajectory(
            [BernsteinSegment(p, traj.segment_time) for p in points], traj.start_time
        )
        advance_corridor(prev, within, grid, 0.15)


class TestPairSeparations:
    def test_hovering_pair_hand_example(self):
        # Agents hovering at +-1 on x with sphere model radius 0.3 must get
        # the half-spaces x >= 0.15 and x <= -0.15.
        model = EllipsoidModel(radius_sum=0.3, downwash=1.0)
        traj_i = hover_trajectory((1.0, 0.0, 0.0))
        traj_j = hover_trajectory((-1.0, 0.0, 0.0))
        for_i, for_j = build_pair_separations(traj_i, traj_j, model)
        for seg_i, seg_j in zip(pair_segments(for_i), pair_segments(for_j)):
            assert np.array_equal(seg_i.normal, [1.0, 0.0, 0.0])
            assert np.array_equal(seg_j.normal, [-1.0, 0.0, 0.0])
            assert np.all(seg_i.margins == 0.5 * (0.3 + 2.0))
            assert np.all(seg_j.margins == seg_i.margins)
            # Boundary of the feasible half-space for i: x = -1 + 1.15.
            boundary_i = seg_i.anchors[:, 0] + seg_i.margins * seg_i.normal[0]
            boundary_j = seg_j.anchors[:, 0] + seg_j.margins * seg_j.normal[0]
            assert np.all(np.abs(boundary_i - 0.15) <= 1e-12)
            assert np.all(np.abs(boundary_j + 0.15) <= 1e-12)

    def test_constant_offset_gives_identical_segments(self):
        rng = np.random.default_rng(41)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        base = random_trajectory(rng, scale=0.3)
        offset = np.array([1.5, -0.7, 0.4])
        other_segments = [
            constant_segment((0, 0, 0), base.segment_time, base.degree)
            for _ in range(base.segment_count)
        ]
        import swarmplan.bernstein as bb

        other = bb.PiecewiseTrajectory(
            [
                bb.BernsteinSegment(s.control_points - offset, s.duration)
                for s in base.segments
            ],
            base.start_time,
        )
        for_a, _ = build_pair_separations(base, other, model)
        # The construction sees only difference points; with a constant
        # offset all segments agree (up to the float noise of re-deriving
        # the offset from differently-valued control points).
        first = pair_segments(for_a)[0]
        for seg in pair_segments(for_a)[1:]:
            assert np.allclose(seg.normal, first.normal, atol=1e-12)
            assert np.allclose(seg.margins, first.margins, atol=1e-12)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(42)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        a = random_trajectory(rng, scale=0.3)
        b_pts = random_trajectory(rng, scale=0.3)
        import swarmplan.bernstein as bb

        b = bb.PiecewiseTrajectory(
            [
                bb.BernsteinSegment(s.control_points + np.array([2.5, 0, 0]), s.duration)
                for s in b_pts.segments
            ],
            b_pts.start_time,
        )
        for_a, for_b = build_pair_separations(a, b, model)
        for seg_a, seg_b in zip(pair_segments(for_a), pair_segments(for_b)):
            assert np.array_equal(seg_a.normal, -seg_b.normal)
            assert np.array_equal(seg_a.margins, seg_b.margins)

    def test_swapped_arguments_bit_identical(self):
        # Computing the pair from either agent's perspective must give the
        # same constraints bit for bit, so decentralized recomputation and
        # shared computation coincide.
        rng = np.random.default_rng(43)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        a = random_trajectory(rng, scale=0.3)
        import swarmplan.bernstein as bb

        b = bb.PiecewiseTrajectory(
            [
                bb.BernsteinSegment(
                    s.control_points + np.array([0.9, 0.8, 0.45]), s.duration
                )
                for s in random_trajectory(rng, scale=0.3).segments
            ],
            a.start_time,
        )
        for_a1, for_b1 = build_pair_separations(a, b, model)
        for_b2, for_a2 = build_pair_separations(b, a, model)
        for s1, s2 in zip(pair_segments(for_a1), pair_segments(for_a2)):
            assert np.array_equal(s1.normal, s2.normal)
            assert np.array_equal(s1.margins, s2.margins)
            assert np.array_equal(s1.anchors, s2.anchors)
        for s1, s2 in zip(pair_segments(for_b1), pair_segments(for_b2)):
            assert np.array_equal(s1.normal, s2.normal)
            assert np.array_equal(s1.margins, s2.margins)

    def test_positive_slack_on_random_configurations(self):
        rng = np.random.default_rng(44)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        built = 0
        for _ in range(60):
            a = random_trajectory(rng, scale=0.25)
            shift = rng.normal(size=3) * 2.0
            import swarmplan.bernstein as bb

            b = bb.PiecewiseTrajectory(
                [
                    bb.BernsteinSegment(s.control_points + shift, s.duration)
                    for s in random_trajectory(rng, scale=0.25).segments
                ],
                a.start_time,
            )
            try:
                for_a, for_b = build_pair_separations(a, b, model)
            except SafetyDegeneracyError:
                continue
            built += 1
            for m in range(a.segment_count):
                assert np.all(
                    separation_residuals(pair_segments(for_a)[m], a.segments[m].control_points) > 0
                )
                assert np.all(
                    separation_residuals(pair_segments(for_b)[m], b.segments[m].control_points) > 0
                )
        assert built > 20

    def test_pairwise_separation_implies_distance(self):
        # If both agents' control points satisfy their half-spaces, their
        # sampled scaled distance never undercuts the model radius.
        rng = np.random.default_rng(45)
        model = EllipsoidModel(radius_sum=0.3, downwash=2.0)
        import swarmplan.bernstein as bb

        scale = np.array(model.scale)
        checked = 0
        for _ in range(30):
            a = random_trajectory(rng, scale=0.25)
            shift = rng.normal(size=3) * 1.5
            b = bb.PiecewiseTrajectory(
                [
                    bb.BernsteinSegment(s.control_points + shift, s.duration)
                    for s in random_trajectory(rng, scale=0.25).segments
                ],
                a.start_time,
            )
            try:
                for_a, for_b = build_pair_separations(a, b, model)
            except SafetyDegeneracyError:
                continue
            checked += 1
            for m in range(a.segment_count):
                sa = a.segments[m]
                sb = b.segments[m]
                assert np.all(separation_residuals(pair_segments(for_a)[m], sa.control_points) > 0)
                assert np.all(separation_residuals(pair_segments(for_b)[m], sb.control_points) > 0)
                for tau in np.linspace(0, 1, 200):
                    tau = float(tau)
                    delta = (segment_point(sa, tau) - segment_point(sb, tau)) * scale
                    assert np.linalg.norm(delta) >= model.radius_sum - 1e-6
        assert checked > 10

    def test_touching_hull_raises(self):
        model = EllipsoidModel(radius_sum=0.3, downwash=1.0)
        a = hover_trajectory((0.15, 0.0, 0.0))
        b = hover_trajectory((-0.15, 0.0, 0.0))
        with pytest.raises(SafetyDegeneracyError):
            build_pair_separations(a, b, model)


def random_swarm(rng, ids):
    """Random trajectories for `ids` on distinct lattice sites 2 m apart in
    x/y and 3 m in z, so pairs lie in every direction and none degenerates."""
    sites = rng.permutation(list(itertools.product(range(3), repeat=3)))
    inits = {}
    for agent_id, site in zip(ids, sites):
        base = random_trajectory(rng, scale=0.2)
        offset = site * np.array([2.0, 2.0, 3.0]) + rng.normal(size=3) * 0.2
        inits[agent_id] = PiecewiseTrajectory(
            [BernsteinSegment(s.control_points + offset, s.duration) for s in base.segments],
            base.start_time,
        )
    return inits


class TestBatchedSeparations:
    @pytest.mark.parametrize(
        "ids", [[0], [4, 9], [0, 3, 7], [1, 2, 5, 11, 12, 20]], ids=lambda v: f"n{len(v)}"
    )
    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_batch_bit_identical_to_single_pairs(self, ids, seed):
        rng = np.random.default_rng(seed)
        params = PlanningParams(safety_buffer=1e-3)
        inits = random_swarm(rng, ids)
        radii = {i: float(rng.uniform(0.08, 0.3)) for i in ids}
        shared = shared_pair_separations(inits, radii, params)
        pairs = [(ids[a], ids[b]) for a, b in zip(shared.low, shared.high)]
        assert pairs == list(itertools.combinations(ids, 2))
        for p, (a, b) in enumerate(pairs):
            for_a, for_b = shared.pair(p)
            model = EllipsoidModel(radii[a] + radii[b], params.downwash)
            ref_a, ref_b = build_pair_separations(
                inits[a], inits[b], model, params.safety_buffer
            )
            for got, ref in ((for_a, ref_a), (for_b, ref_b)):
                for name in ("normals", "anchors", "margins"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name))
            shape = for_a.anchors.shape
            assert np.array_equal(for_a.anchors, inits[b].control_point_stack().reshape(shape))
            assert np.array_equal(for_b.anchors, inits[a].control_point_stack().reshape(shape))
            assert np.array_equal(for_b.normals, -for_a.normals)
            assert np.array_equal(for_b.margins, for_a.margins)
        # Each agent's gathered rows are its side of its pairs, in neighbour
        # order.
        for me in ids:
            mine = [
                shared.pair(p)[0 if a == me else 1] for p, (a, b) in enumerate(pairs) if me in (a, b)
            ]
            gathered = shared.rows_for(me)
            assert len(mine) == len(ids) - 1
            for index, name in enumerate(("normals", "anchors", "margins")):
                expected = np.array([getattr(pair, name) for pair in mine])
                assert np.array_equal(gathered[index], expected.reshape(gathered[index].shape))

    def test_segments_view_rows(self):
        rng = np.random.default_rng(63)
        inits = random_swarm(rng, [0, 1])
        for_a, _ = build_pair_separations(inits[0], inits[1], EllipsoidModel(0.3, 2.0))
        assert len(pair_segments(for_a)) == len(for_a.normals)
        for m, seg in enumerate(pair_segments(for_a)):
            assert np.array_equal(seg.normal, for_a.normals[m])
            assert np.array_equal(seg.anchors, for_a.anchors[m])
            assert np.array_equal(seg.margins, for_a.margins[m])
        for name in ("normals", "anchors", "margins"):
            assert not getattr(for_a, name).flags.writeable
