import itertools

import numpy as np
import pytest

from swarmplan.bernstein import shift_for_initial
from swarmplan.corridor import (
    advance_corridor,
    build_pair_separations,
    separate_pairs,
)
from swarmplan.errors import PlannerError, SafetyDegeneracyError
from swarmplan.params import PlanningParams
from swarmplan.planner import ShiftedPlans, shared_pair_separations
from swarmplan.world import OccupancyGrid

from helpers import (
    hold_plan,
    neighbour_rows,
    pair_segments,
    random_trajectory,
    segment_point,
    separation_residuals,
)


def shifted(plan):
    """One plan shifted by one segment."""
    return shift_for_initial(plan[None])[0]


def empty_grid():
    return OccupancyGrid(0.1, (0, 0, 0), (3.0, 3.0, 2.0))


class TestAdvanceCorridor:
    def test_first_step_empty_map(self):
        corridor = advance_corridor(None, hold_plan((1.5, 1.5, 1.0)), empty_grid(), 0.15)
        assert corridor.shape == (5, 2, 3) and not corridor.flags.writeable
        for box in corridor:
            assert np.array_equal(box, corridor[0])
            assert np.allclose(box[0], [0.15, 0.15, 0.15])
            assert np.allclose(box[1], [2.85, 2.85, 1.85])

    def test_shift_reuses_boxes(self):
        grid = empty_grid()
        traj = hold_plan((1.5, 1.5, 1.0))
        first = advance_corridor(None, traj, grid, 0.15)
        second = advance_corridor(first, shifted(traj), grid, 0.15)
        assert np.array_equal(second[:-1], first[1:])

    def test_containment_over_many_steps(self):
        # Shift a plan step after step on a map with obstacles; the corridor
        # must contain the shifted control points at every step
        # (advance_corridor verifies this internally and raises on failure).
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
        traj = hold_plan((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, 0.15)
        for _ in range(20):
            traj = shifted(traj)
            corridor = advance_corridor(corridor, traj, grid, 0.15)
            for seg_box, seg in zip(corridor, traj):
                assert np.all(seg >= seg_box[0] - 1e-9)
                assert np.all(seg <= seg_box[1] + 1e-9)


    @pytest.mark.parametrize("segment", range(4))
    def test_point_outside_its_inherited_box_is_refused(self, segment):
        # One control point of one segment 2e-9 past a face of that
        # segment's inherited box: the containment tolerance is 1e-9.
        grid = empty_grid()
        points = hold_plan((1.5, 1.5, 1.0))
        tight = np.array([(1.0, 1.0, 0.5), (2.0, 2.0, 1.5)])
        prev = np.stack([tight] * 5)
        inside = advance_corridor(prev, points, grid, 0.15)
        assert np.array_equal(inside[:-1], prev[1:])
        # The inherited boxes serve segments 0..3; segment 4 gets a fresh box.
        points[segment, 2, 1] = tight[1, 1] + 2e-9
        with pytest.raises(PlannerError, match="does not contain"):
            advance_corridor(prev, points, grid, 0.15)
        points[segment, 2, 1] = tight[1, 1] + 0.5e-9
        advance_corridor(prev, points, grid, 0.15)


class TestPairSeparations:
    def test_hovering_pair_hand_example(self):
        # Agents hovering at +-1 on x with sphere model radius 0.3 must get
        # the half-spaces x >= 0.15 and x <= -0.15.
        for_i, for_j = build_pair_separations(
            hold_plan((1.0, 0.0, 0.0)), hold_plan((-1.0, 0.0, 0.0)), 0.3, 1.0
        )
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
        base = random_trajectory(rng, scale=0.3)
        offset = np.array([1.5, -0.7, 0.4])
        for_a, _ = build_pair_separations(base, base - offset, 0.3, 2.0)
        # The construction sees only difference points; with a constant
        # offset all segments agree (up to the float noise of re-deriving
        # the offset from differently-valued control points).
        first = pair_segments(for_a)[0]
        for seg in pair_segments(for_a)[1:]:
            assert np.allclose(seg.normal, first.normal, atol=1e-12)
            assert np.allclose(seg.margins, first.margins, atol=1e-12)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(42)
        a = random_trajectory(rng, scale=0.3)
        b = random_trajectory(rng, scale=0.3) + np.array([2.5, 0, 0])
        for_a, for_b = build_pair_separations(a, b, 0.3, 2.0)
        for seg_a, seg_b in zip(pair_segments(for_a), pair_segments(for_b)):
            assert np.array_equal(seg_a.normal, -seg_b.normal)
            assert np.array_equal(seg_a.margins, seg_b.margins)

    def test_swapped_arguments_bit_identical(self):
        # Computing the pair from either agent's perspective must give the
        # same constraints bit for bit, so decentralized recomputation and
        # shared computation coincide.
        rng = np.random.default_rng(43)
        a = random_trajectory(rng, scale=0.3)
        b = random_trajectory(rng, scale=0.3) + np.array([0.9, 0.8, 0.45])
        for_a1, for_b1 = build_pair_separations(a, b, 0.3, 2.0)
        for_b2, for_a2 = build_pair_separations(b, a, 0.3, 2.0)
        for s1, s2 in zip(pair_segments(for_a1), pair_segments(for_a2)):
            assert np.array_equal(s1.normal, s2.normal)
            assert np.array_equal(s1.margins, s2.margins)
            assert np.array_equal(s1.anchors, s2.anchors)
        for s1, s2 in zip(pair_segments(for_b1), pair_segments(for_b2)):
            assert np.array_equal(s1.normal, s2.normal)
            assert np.array_equal(s1.margins, s2.margins)

    def test_positive_slack_on_random_configurations(self):
        rng = np.random.default_rng(44)
        built = 0
        for _ in range(60):
            a = random_trajectory(rng, scale=0.25)
            b = random_trajectory(rng, scale=0.25) + rng.normal(size=3) * 2.0
            try:
                for_a, for_b = build_pair_separations(a, b, 0.3, 2.0)
            except SafetyDegeneracyError:
                continue
            built += 1
            for m in range(len(a)):
                assert np.all(separation_residuals(pair_segments(for_a)[m], a[m]) > 0)
                assert np.all(separation_residuals(pair_segments(for_b)[m], b[m]) > 0)
        assert built > 20

    def test_pairwise_separation_implies_distance(self):
        # If both agents' control points satisfy their half-spaces, their
        # sampled scaled distance never undercuts the model radius.
        rng = np.random.default_rng(45)
        scale = np.array([1.0, 1.0, 0.5])
        checked = 0
        for _ in range(30):
            a = random_trajectory(rng, scale=0.25)
            b = random_trajectory(rng, scale=0.25) + rng.normal(size=3) * 1.5
            try:
                for_a, for_b = build_pair_separations(a, b, 0.3, 2.0)
            except SafetyDegeneracyError:
                continue
            checked += 1
            for m, (sa, sb) in enumerate(zip(a, b)):
                assert np.all(separation_residuals(pair_segments(for_a)[m], sa) > 0)
                assert np.all(separation_residuals(pair_segments(for_b)[m], sb) > 0)
                for tau in np.linspace(0, 1, 200):
                    tau = float(tau)
                    delta = (segment_point(sa, tau) - segment_point(sb, tau)) * scale
                    assert np.linalg.norm(delta) >= 0.3 - 1e-6
        assert checked > 10

    def test_touching_hull_raises(self):
        with pytest.raises(SafetyDegeneracyError):
            build_pair_separations(hold_plan((0.15, 0.0, 0.0)), hold_plan((-0.15, 0.0, 0.0)), 0.3, 1.0)


def random_swarm(rng, count):
    """Random plans (count, M, n+1, 3) on distinct lattice sites 2 m apart in
    x/y and 3 m in z, so pairs lie in every direction and none degenerates."""
    sites = rng.permutation(list(itertools.product(range(3), repeat=3)))
    return np.array(
        [
            random_trajectory(rng, scale=0.2) + site * np.array([2.0, 2.0, 3.0])
            + rng.normal(size=3) * 0.2
            for site in sites[:count]
        ]
    )


class TestBatchedSeparations:
    @pytest.mark.parametrize("count", [1, 2, 3, 6], ids=lambda v: f"n{v}")
    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_batch_bit_identical_to_single_pairs(self, count, seed):
        rng = np.random.default_rng(seed)
        params = PlanningParams(safety_buffer=1e-3)
        points = random_swarm(rng, count)
        radii = [float(rng.uniform(0.08, 0.3)) for _ in range(count)]
        shared = shared_pair_separations(ShiftedPlans(0.0, points), radii, params)
        pairs = list(zip(shared.low.tolist(), shared.high.tolist()))
        assert pairs == list(itertools.combinations(range(count), 2))
        mine = {me: [] for me in range(count)}
        for p, (a, b) in enumerate(pairs):
            ref_a, ref_b = build_pair_separations(
                points[a], points[b], radii[a] + radii[b], params.downwash, params.safety_buffer
            )
            assert np.array_equal(shared.normals[p], ref_a[0][0])
            assert np.array_equal(shared.margins[p], ref_a[2][0])
            assert np.array_equal(ref_a[1][0], points[b])
            assert np.array_equal(ref_b[1][0], points[a])
            assert np.array_equal(ref_b[0], -ref_a[0])
            assert np.array_equal(ref_b[2], ref_a[2])
            mine[a].append(ref_a)
            mine[b].append(ref_b)
        # Each agent's gathered rows are its side of its pairs, each built
        # alone, in neighbour order.
        for me in range(count):
            gathered = shared.rows_for(me)
            assert len(mine[me]) == count - 1
            for got, expected in zip(gathered, neighbour_rows(mine[me])):
                assert np.array_equal(got, expected)

    def test_table_names_pairs_by_its_ids(self):
        # Agents 1 and 2 hover with touching hulls (0.3 m apart on x,
        # radius sum 0.3); agent 0 is clear of both.
        points = np.stack([hold_plan(p) for p in ((0.5, 0.5, 1.0), (1.5, 1.5, 1.0), (1.8, 1.5, 1.0))])
        low, high = np.triu_indices(3, k=1)
        with pytest.raises(SafetyDegeneracyError, match=r"^agents 1 and 2, segment 0: "):
            separate_pairs(points, low, high, np.full(3, 0.3), 2.0, 0.0)

    def test_segments_view_rows(self):
        rng = np.random.default_rng(63)
        points = random_swarm(rng, 2)
        for_a, _ = build_pair_separations(points[0], points[1], 0.3, 2.0)
        normals, anchors, margins = for_a
        assert len(pair_segments(for_a)) == normals.shape[1]
        for m, seg in enumerate(pair_segments(for_a)):
            assert np.array_equal(seg.normal, normals[0, m])
            assert np.array_equal(seg.anchors, anchors[0, m])
            assert np.array_equal(seg.margins, margins[0, m])
        # The rows are copies gathered from a read-only table.
        table = separate_pairs(points, np.array([0]), np.array([1]), np.array([0.3]), 2.0, 0.0)
        for arr in (table.points, table.normals, table.margins):
            assert not arr.flags.writeable
