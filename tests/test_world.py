import heapq
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from swarmplan import world
from swarmplan.errors import InfeasibleSeedError
from swarmplan.scenarios import generate_scenario
from swarmplan.world import OccupancyGrid

from helpers import box_contains, goal_distance_field, static_blocked
from oracles import (
    block_discs_by_loop,
    blocked_by_points,
    box_free_by_counts,
    dijkstra_grid,
    distance_field_by_sweeps,
    grow_box_by_layers,
    prefix_by_cumsum,
    sight_line_by_linspace,
    sight_lines_by_samples,
    sight_samples,
)


def empty_grid(extent=(3.0, 3.0, 2.0), resolution=0.1):
    return OccupancyGrid(resolution, (0, 0, 0), extent)


def grid_with_boxes(boxes, extent=(3.0, 3.0, 2.0), resolution=0.1):
    return OccupancyGrid.from_dict(
        {
            "resolution": resolution,
            "bounds": {"min": [0, 0, 0], "max": list(extent)},
            "boxes": [{"min": list(lo), "max": list(hi)} for lo, hi in boxes],
        }
    )


def corridor_grid():
    """Free row of 5 voxels along x at cells [1..5, 1, 1], walls elsewhere."""
    grid = OccupancyGrid(0.1, (0, 0, 0), (0.7, 0.3, 0.3))
    occupied = np.ones(grid.dims, dtype=bool)
    occupied[1:6, 1, 1] = False
    return OccupancyGrid(0.1, (0, 0, 0), (0.7, 0.3, 0.3), occupied)


class TestVoxelization:
    def test_closed_cell_intersection_rule(self):
        grid = grid_with_boxes([((1.0, 1.0, 1.0), (1.05, 1.05, 1.05))])
        # The box lives inside cell (10, 10, 10) and touches the boundary of
        # cell (9, ..) at exactly 1.0, so both must rasterize occupied.
        assert grid.occupied[10, 10, 10]
        assert grid.occupied[9, 10, 10] and grid.occupied[10, 9, 10]
        assert not grid.occupied[8, 10, 10]
        assert not grid.occupied[11, 10, 10]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            OccupancyGrid(0.1, (0, 0, 0), (1.03, 1, 1))
        with pytest.raises(ValueError):
            OccupancyGrid(0.0, (0, 0, 0), (1, 1, 1))

    @pytest.mark.parametrize(
        "path, value",
        [
            (("resolution",), float("nan")),
            (("resolution",), float("inf")),
            (("bounds", "min", 0), float("-inf")),
            (("bounds", "max", 2), float("nan")),
            (("boxes", 0, "min", 1), float("-inf")),
            (("boxes", 0, "max", 0), float("nan")),
        ],
    )
    def test_non_finite_map_values_rejected(self, path, value):
        data = {
            "resolution": 0.1,
            "bounds": {"min": [0.0, 0.0, 0.0], "max": [3.0, 3.0, 2.0]},
            "boxes": [{"min": [1.0, 1.0, 0.0], "max": [1.2, 1.2, 2.0]}],
        }
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(ValueError, match="finite"):
            OccupancyGrid.from_dict(data)


class TestBoxIsFree:
    def test_empty_grid_in_bounds(self):
        grid = empty_grid()
        assert grid.box_is_free(np.array([(0.5, 0.5, 0.5), (2.0, 2.0, 1.5)]), 0.15)

    def test_overlapping_occupied(self):
        grid = grid_with_boxes([((1.0, 1.0, 0.0), (1.2, 1.2, 2.0))])
        assert not grid.box_is_free(np.array([(0.9, 0.9, 0.5), (1.1, 1.1, 0.6)]), 0.0)

    def test_out_of_bounds(self):
        grid = empty_grid()
        assert not grid.box_is_free(np.array([(0.1, 0.1, 0.1), (0.3, 0.3, 0.3)]), 0.15)

    def test_inflation_distance_threshold(self):
        # Box at distance d from the nearest occupied cell face is free iff
        # d >= inflation; checked against an exhaustive occupied-cell scan.
        # The obstacle sits strictly inside cells x in [1.0, 1.1] so the
        # occupied face is exactly at x = 1.0.
        grid = grid_with_boxes([((1.001, 0.001, 0.001), (1.099, 2.999, 1.999))])
        occ_cells = np.argwhere(grid.occupied)
        for d in [0.05, 0.1, 0.15, 0.1499, 0.1501, 0.2]:
            box = np.array([(0.5, 1.0, 0.5), (1.0 - d, 1.5, 1.0)])
            expected = d >= 0.15 - 1e-12
            assert grid.box_is_free(box, 0.15) == expected
            # Exhaustive oracle: positive-measure overlap of the inflated
            # box with any occupied cell.
            lo = box[0] - 0.15
            hi = box[1] + 0.15
            overlap = False
            for cell in occ_cells:
                clo = grid.bounds_min + cell * grid.resolution
                chi = clo + grid.resolution
                if np.all(np.minimum(hi, chi) - np.maximum(lo, clo) > 1e-12):
                    overlap = True
                    break
            assert overlap == (not expected)


class TestGrowFreeBox:
    def test_empty_grid_fills_bounds(self):
        grid = empty_grid()
        box = grid.grow_free_box((1.5, 1.5, 1.0), 0.15)
        assert np.allclose(box[0], [0.15, 0.15, 0.15])
        assert np.allclose(box[1], [2.85, 2.85, 1.85])

    def test_corridor(self):
        grid = corridor_grid()
        inflation = 0.04
        box = grid.grow_free_box((0.35, 0.15, 0.15), inflation)
        # The free region is cells [1..5] x 1 x 1, eroded by the inflation.
        assert np.allclose(box[0], [0.1 + inflation, 0.1 + inflation, 0.1 + inflation])
        assert np.allclose(box[1], [0.6 - inflation, 0.2 - inflation, 0.2 - inflation])
        assert grid.box_is_free(box, inflation)

    def test_contains_seed_and_positive_extent(self):
        rng = np.random.default_rng(30)
        grid = grid_with_boxes(
            [((1.3, 1.3, 0.0), (1.7, 1.7, 2.0)), ((0.2, 2.2, 0.0), (0.6, 2.6, 2.0))]
        )
        for _ in range(50):
            seed = rng.uniform([0.2, 0.2, 0.2], [2.8, 2.8, 1.8])
            if not grid.point_is_free(seed, 0.15):
                continue
            box = grid.grow_free_box(seed, 0.15)
            assert box_contains(box, seed, tol=1e-12)
            assert np.all(box[1] >= box[0])
            assert grid.box_is_free(box, 0.15)

    def test_infeasible_seed(self):
        grid = grid_with_boxes([((1.0, 1.0, 0.0), (1.2, 1.2, 2.0))])
        with pytest.raises(InfeasibleSeedError):
            grid.grow_free_box((1.1, 1.1, 1.0), 0.15)

    def test_deterministic(self):
        grid = grid_with_boxes([((1.3, 0.9, 0.0), (1.5, 1.8, 2.0))])
        a = grid.grow_free_box((0.8, 0.8, 1.0), 0.15)
        b = grid.grow_free_box((0.8, 0.8, 1.0), 0.15)
        assert np.array_equal(a, b)

    def test_obstacle_free_map_costs_one_query(self, monkeypatch):
        grid = empty_grid()
        queries = []
        count = grid._cells_occupied
        monkeypatch.setattr(
            grid, "_cells_occupied", lambda lo, hi: queries.append(1) or count(lo, hi)
        )
        box = grid.grow_free_box((1.5, 1.5, 1.0), 0.15, toward=(1.0, 0.0, 0.0))
        assert len(queries) == 1
        assert np.allclose(box[0], [0.15, 0.15, 0.15])
        assert np.allclose(box[1], [2.85, 2.85, 1.85])

    def test_negative_inflation_rejected(self):
        with pytest.raises(ValueError):
            empty_grid().grow_free_box((1.5, 1.5, 1.0), -0.1)


class TestAstar:
    def test_start_equals_goal(self):
        grid = empty_grid()
        path = grid.astar((1.51, 1.52, 1.0), (1.54, 1.55, 1.02), 0.15)
        assert len(path) == 1
        assert np.allclose(path[0], grid.voxel_center((15, 15, 10)))

    def test_straight_corridor_matches_dijkstra(self):
        grid = corridor_grid()
        path = grid.astar((0.15, 0.15, 0.15), (0.55, 0.15, 0.15), 0.04)
        assert path.shape == (5, 3) and path.dtype == float
        assert not path.flags.writeable
        free = ~static_blocked(grid, 0.04)
        hops = dijkstra_grid(free, (1, 1, 1), (5, 1, 1))
        assert hops == len(path) - 1

    def test_unreachable_goal(self):
        # Goal cell enclosed by an occupied shell.
        grid = grid_with_boxes([((1.0, 1.0, 0.5), (1.7, 1.7, 1.2))])
        occupied = grid.occupied.copy()
        occupied[12:15, 12:15, 7:10] = False  # hollow pocket inside the shell
        grid2 = OccupancyGrid(0.1, (0, 0, 0), (3.0, 3.0, 2.0), occupied)
        path = grid2.astar((0.3, 0.3, 0.3), (1.35, 1.35, 0.85), 0.0)
        assert path is None

    def test_random_maps_match_dijkstra(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            occupied = rng.uniform(size=(12, 12, 6)) < 0.25
            grid = OccupancyGrid(0.1, (0, 0, 0), (1.2, 1.2, 0.6), occupied)
            free = ~static_blocked(grid, 0.0)
            free_cells = np.argwhere(free)
            if len(free_cells) < 2:
                continue
            a, b = free_cells[0], free_cells[-1]
            path = grid.astar(grid.voxel_center(a), grid.voxel_center(b), 0.0)
            hops = dijkstra_grid(free, tuple(a), tuple(b))
            if hops is None:
                assert path is None
            else:
                assert path is not None and len(path) - 1 == hops

    def test_agent_obstacle_blocks(self):
        grid = empty_grid()
        start, goal = (0.35, 1.55, 1.0), (2.65, 1.55, 1.0)
        direct = grid.astar(start, goal, 0.15)
        blocker = [((1.5, 1.55, 1.0), 0.15)]
        detour = grid.astar(start, goal, 0.15, agent_obstacles=blocker)
        assert detour is not None
        assert len(detour) > len(direct)
        # Every detour waypoint clears the blocked disc.
        d = np.linalg.norm(detour - np.array([1.5, 1.55, 1.0]), axis=1)
        assert np.all(d > 0.3)

    def test_start_cell_exempt_from_agent_blocking(self):
        grid = empty_grid()
        start = (1.5, 1.5, 1.0)
        # The agent disc (radius 0.3) covers the start cell center but not
        # the whole neighborhood; the search must still leave the start.
        agent = [((1.75, 1.5, 1.0), 0.15)]
        path = grid.astar(start, (2.5, 1.5, 1.0), 0.15, agent_obstacles=agent)
        assert path is not None
        d = np.linalg.norm(path[1:] - np.array([1.75, 1.5, 1.0]), axis=1)
        assert np.all(d > 0.3)

    def test_start_exit_check_reads_true_neighbours(self, monkeypatch):
        # The start cell (1, 0, 2) is occupied, so it has no field value,
        # and its in-grid neighbours are blocked. Cell (1, 1, 0) follows it
        # in unpadded row-major order without being a neighbour, and it is
        # the goal: a check on unpadded flat offsets would start a search
        # that cannot leave the start.
        occupied = np.zeros((3, 3, 3), dtype=bool)
        for cell in [(1, 0, 2), (0, 0, 2), (2, 0, 2), (1, 1, 2), (1, 0, 1), (0, 2, 2)]:
            occupied[cell] = True
        pops = []

        def counting_pop(heap):
            pops.append(heap[0])
            return heapq.heappop(heap)

        monkeypatch.setattr(
            world, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop)
        )
        grid = OccupancyGrid(0.25, (0, 0, 0), (0.75, 0.75, 0.75), occupied)
        start, goal = grid.voxel_center((1, 0, 2)), grid.voxel_center((1, 1, 0))
        assert grid.astar(start, goal, 0.0) is None
        assert pops == []
        # With a true neighbour free the search leaves the start.
        occupied = occupied.copy()
        occupied[1, 0, 1] = False
        grid = OccupancyGrid(0.25, (0, 0, 0), (0.75, 0.75, 0.75), occupied)
        path = grid.astar(start, goal, 0.0)
        assert path is not None and len(path) == 4
        assert pops

    def test_budget_gives_none(self):
        grid = empty_grid()
        assert grid.astar((0.3, 0.3, 0.3), (2.7, 2.7, 1.7), 0.15, budget=3) is None

    def test_deterministic_paths(self):
        grid = grid_with_boxes([((1.2, 1.2, 0.0), (1.5, 1.5, 2.0))])
        p1 = grid.astar((0.3, 0.3, 1.0), (2.7, 2.7, 1.0), 0.15)
        p2 = grid.astar((0.3, 0.3, 1.0), (2.7, 2.7, 1.0), 0.15)
        assert np.array_equal(p1, p2)

    def test_waypoints_adjacent_and_los_at_grid_granularity(self):
        grid = grid_with_boxes([((1.2, 1.2, 0.0), (1.5, 1.5, 2.0))])
        path = grid.astar((0.3, 0.3, 1.0), (2.7, 2.7, 1.0), 0.15)
        steps = np.diff(path, axis=0)
        assert np.allclose(np.abs(steps).sum(axis=1), grid.resolution)
        for a, b in zip(path[:-1], path[1:]):
            assert grid.line_of_sight_free(a, b, 0.15)


class TestLineOfSight:
    def test_point_in_free_space(self):
        grid = empty_grid()
        p = (1.5, 1.5, 1.0)
        assert grid.line_of_sight_free(p, p, 0.15)

    def test_crossing_obstacle(self):
        grid = grid_with_boxes([((1.4, 0.0, 0.0), (1.6, 3.0, 2.0))])
        assert not grid.line_of_sight_free((0.5, 1.5, 1.0), (2.5, 1.5, 1.0), 0.15)

    def test_grazing_matches_oversampled_oracle(self):
        grid = grid_with_boxes([((1.0, 1.0, 0.0), (2.0, 1.1, 2.0))])
        inflation = 0.15
        res = grid.resolution
        for offset in [-res / 4, res / 4]:
            y = 1.1 + inflation + offset
            p = np.array([0.5, y, 1.0])
            q = np.array([2.5, y, 1.0])
            got = grid.line_of_sight_free(p, q, inflation)
            # Oracle: 10x oversampling with the same per-point rule.
            n = int(np.ceil(np.linalg.norm(q - p) / (res / 20))) + 1
            dense = np.linspace(p, q, n)
            expected = bool(np.all(grid.points_free(dense, inflation)))
            assert got == expected

    def test_agent_obstacle_ellipsoidal(self):
        grid = empty_grid()
        p = (0.5, 1.5, 1.0)
        q = (2.5, 1.5, 1.0)
        # Agent vertically offset by 0.5: plain distance 0.5 > 0.3 clears,
        # but with downwash 2 the scaled clearance is only 0.25.
        agent = [((1.5, 1.5, 1.5), 0.15)]
        assert grid.line_of_sight_free(p, q, 0.15, agent, downwash=1.0)
        assert not grid.line_of_sight_free(p, q, 0.15, agent, downwash=2.0)

    def test_out_of_bounds_segment(self):
        grid = empty_grid()
        assert not grid.line_of_sight_free((1.5, 1.5, 1.0), (1.5, 1.5, 2.5), 0.15)


class TestInputChecks:
    """Bad input raises instead of deciding: a NaN compares false against
    every threshold, and a negative inflation shrinks the obstacles."""

    def test_negative_inflation_rejected_by_sight_lines(self):
        grid = empty_grid()
        p, q = (1.0, 1.0, 1.0), (2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="inflation"):
            grid.line_of_sight_free(p, q, -0.1)
        with pytest.raises(ValueError, match="inflation"):
            grid.sight_lines_free(p, [q, p], -0.1)

    def test_nan_target_rejected_by_sight_lines(self):
        grid = empty_grid()
        p, q = (1.0, 1.0, 1.0), (2.0, float("nan"), 1.0)
        with pytest.raises(ValueError, match="finite"):
            grid.line_of_sight_free(p, q, 0.15)
        with pytest.raises(ValueError, match="finite"):
            grid.sight_lines_free(p, [(2.0, 1.0, 1.0), q], 0.15)
        with pytest.raises(ValueError, match="finite"):
            grid.line_of_sight_free((float("inf"), 1.0, 1.0), (2.0, 1.0, 1.0), 0.15)

    def test_nan_goal_rejected_by_astar(self):
        grid = empty_grid()
        with pytest.raises(ValueError, match="finite"):
            grid.astar((0.5, 0.5, 1.0), (float("nan"), 2.5, 1.0), 0.15)
        with pytest.raises(ValueError, match="finite"):
            grid.astar((0.5, float("inf"), 1.0), (2.5, 2.5, 1.0), 0.15)

    def test_negative_inflation_rejected_by_astar(self):
        with pytest.raises(ValueError, match="inflation"):
            empty_grid().astar((0.5, 0.5, 1.0), (2.5, 2.5, 1.0), -0.1)

    @pytest.mark.parametrize("inflation", [-0.15, float("nan"), float("inf")])
    def test_bad_inflation_rejected_by_point_queries(self, inflation):
        # (1, 1, 1) is the centre of an occupied box: a negative inflation
        # would report it free, and a NaN or infinite one would cast a
        # non-finite value to int.
        grid = OccupancyGrid.from_dict(
            {
                "resolution": 0.1,
                "bounds": {"min": [0, 0, 0], "max": [3, 3, 2]},
                "boxes": [{"min": [0.5, 0.5, 0.5], "max": [1.5, 1.5, 1.5]}],
            }
        )
        assert not grid.point_is_free((1.0, 1.0, 1.0), 0.15)
        with pytest.raises(ValueError, match="inflation"):
            grid.point_is_free((1.0, 1.0, 1.0), inflation)
        with pytest.raises(ValueError, match="inflation"):
            grid.points_free([(1.0, 1.0, 1.0), (2.5, 2.5, 1.0)], inflation)


INFLATIONS = (0.0, 0.04, 0.175, 0.3)


def random_box_map(seed):
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(int(rng.integers(3, 9))):
        lo = rng.uniform([0, 0, 0], [2.6, 2.6, 1.6])
        boxes.append((lo, lo + rng.uniform(0.05, 0.8, size=3)))
    return grid_with_boxes(boxes)


@pytest.fixture(
    scope="module", params=["random-0", "random-1", "empty", "circle", "forest", "indoor"]
)
def referee_grid(request):
    kind = request.param
    if kind.startswith("random"):
        return random_box_map(int(kind.split("-")[1]))
    return OccupancyGrid.from_dict(generate_scenario(kind, 2, seed=4).map_data)


def assert_box(box, corners):
    """box is a read-only (2, 3) float array equal, bit for bit, to the
    referee's (min_corner, max_corner)."""
    assert box.shape == (2, 3) and box.dtype == float and not box.flags.writeable
    assert np.array_equal(box, corners)


def free_points(grid, inflation, rng, count):
    pts = rng.uniform(grid.bounds_min, grid.bounds_max, size=(8 * count, 3))
    return pts[grid.points_free(pts, inflation)][:count]


class TestExactAgainstReferees:
    """The fast grid queries return bit for bit what the straightforward
    implementations in oracles.py return."""

    def test_prefix_matches_cumsum(self, referee_grid):
        expected = prefix_by_cumsum(referee_grid.occupied)
        assert referee_grid._prefix.dtype == expected.dtype
        assert np.array_equal(referee_grid._prefix, expected)

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_blocked_mask_matches_points_free(self, referee_grid, inflation):
        mask = static_blocked(referee_grid, inflation)
        expected = blocked_by_points(referee_grid, inflation)
        assert mask.dtype == expected.dtype and mask.shape == expected.shape
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_distance_field_matches_sweeps(self, referee_grid, inflation):
        grid = referee_grid
        rng = np.random.default_rng(7)
        goals = [grid.voxel_index(p) for p in free_points(grid, inflation, rng, 1)]
        blocked = np.argwhere(static_blocked(grid, inflation))
        if len(blocked):
            goals.append(tuple(int(v) for v in blocked[len(blocked) // 2]))
        for goal in goals:
            field = goal_distance_field(grid, goal, inflation)
            expected = distance_field_by_sweeps(grid, goal, inflation)
            # Every hop on these maps fits in two bytes.
            assert field.dtype == np.int16
            assert np.array_equal(field, expected)

    def test_distance_field_past_int16_stays_int32(self):
        # A one-cell corridor 33,000 cells long: the farthest hop does not
        # fit in int16, and the field must not wrap around.
        length, goal = 33000, 100
        occupied = np.ones((length, 3, 1), dtype=bool)
        occupied[:, 1] = False
        grid = OccupancyGrid(1.0, (0, 0, 0), (length, 3, 1), occupied=occupied)
        field = goal_distance_field(grid, (goal, 1, 0), 0.0)
        assert field.dtype == np.int32
        assert field[:, 1, 0].max() > np.iinfo(np.int16).max
        assert np.array_equal(field[:, 1, 0], np.abs(np.arange(length) - goal))
        assert (field[:, [0, 2]] == -1).all()

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_grow_free_box_matches_layers(self, referee_grid, inflation):
        grid = referee_grid
        rng = np.random.default_rng(8)
        seeds = free_points(grid, inflation, rng, 25)
        # A seed on cell faces starts, at zero inflation, from an empty
        # index range.
        on_faces = grid.voxel_center(grid.voxel_index(seeds[0])) + grid.resolution / 2
        if grid.point_is_free(on_faces, inflation):
            seeds = [*seeds, on_faces]
        for seed in seeds:
            for toward in (None, rng.normal(size=3)):
                box = grid.grow_free_box(seed, inflation, toward)
                assert_box(box, grow_box_by_layers(grid, seed, inflation, toward))

    @pytest.mark.parametrize("inflation", (0.04, 0.175))
    def test_grow_free_box_matches_layers_in_every_order(self, referee_grid, inflation):
        # Every direction order `toward` can give: each ranking of the axes
        # by weight, with each sign.
        grid = referee_grid
        rng = np.random.default_rng(12)
        towards = [None]
        for ranks in itertools.permutations((1.0, 2.0, 3.0)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                towards.append(np.multiply(ranks, signs))
        for seed in free_points(grid, inflation, rng, 2):
            for toward in towards:
                box = grid.grow_free_box(seed, inflation, toward)
                assert_box(box, grow_box_by_layers(grid, seed, inflation, toward))

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_seed_test_matches_point_is_free(self, referee_grid, inflation):
        # grow_free_box tests its seed on the scalar path box_is_free takes
        # for a box of one point. At random points, at points whose inflated cube ends 1e-12 to
        # either side of a voxel line, and at points 1e-12 to either side of
        # the world bounds and of their 1e-9 slack, it decides as
        # point_is_free does.
        grid = referee_grid
        rng = np.random.default_rng(10)
        lo_edge = grid.bounds_min + inflation
        hi_edge = grid.bounds_max - inflation
        points = list(rng.uniform(grid.bounds_min - 0.1, grid.bounds_max + 0.1, size=(100, 3)))
        for _ in range(200):
            point = rng.uniform(grid.bounds_min, grid.bounds_max)
            axis = int(rng.integers(3))
            line = grid.bounds_min[axis] + grid.resolution * int(rng.integers(grid.dims[axis] + 1))
            face = inflation if rng.integers(2) else -inflation
            point[axis] = line + face + float(rng.choice([-1e-12, 1e-12]))
            points.append(point)
        for _ in range(100):
            point = rng.uniform(lo_edge, hi_edge) if np.all(lo_edge < hi_edge) else lo_edge.copy()
            axis = int(rng.integers(3))
            edge = (lo_edge[axis] - 1e-9, lo_edge[axis], hi_edge[axis], hi_edge[axis] + 1e-9)
            point[axis] = edge[int(rng.integers(4))] + float(rng.choice([-1e-12, 1e-12]))
            points.append(point)
        outcomes = set()
        for point in points:
            free = grid.point_is_free(point, inflation)
            assert grid.box_is_free(np.array([point, point]), inflation) == free
            if free:
                # Seeds within the bounds' 1e-9 slack get boxes clipped to them.
                assert box_contains(grid.grow_free_box(point, inflation), point, tol=1e-9)
            else:
                with pytest.raises(InfeasibleSeedError):
                    grid.grow_free_box(point, inflation)
            outcomes.add(free)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_box_is_free_matches_counts(self, referee_grid, inflation):
        grid = referee_grid
        rng = np.random.default_rng(9)
        for _ in range(200):
            lo = rng.uniform(grid.bounds_min - 0.2, grid.bounds_max)
            box = np.array([lo, lo + rng.uniform(0, 1.0, size=3)])
            assert grid.box_is_free(box, inflation) == box_free_by_counts(grid, box, inflation)

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_sight_lines_match_linspace(self, referee_grid, inflation):
        grid = referee_grid
        rng = np.random.default_rng(10)
        for p in free_points(grid, inflation, rng, 6):
            targets = rng.uniform(grid.bounds_min, grid.bounds_max, size=(12, 3))
            # Axis-parallel lines (a zero step component) and a coincident
            # target take linspace's other branches.
            targets[0] = p
            targets[1, :2] = p[:2]
            targets[2, 1:] = p[1:]
            targets[3, ::2] = p[::2]
            counts = [
                max(2, int(np.ceil(d / (grid.resolution / 2))) + 1) if d > 0 else 1
                for d in (float(np.linalg.norm(q - p)) for q in targets)
            ]
            samples, starts = sight_samples(grid, p, targets)
            assert np.array_equal(starts, np.cumsum(counts) - counts)
            expected = [np.linspace(p, q, n) for q, n in zip(targets, counts)]
            assert np.array_equal(samples, np.concatenate(expected))
            obstacles = [(rng.uniform(grid.bounds_min, grid.bounds_max), 0.15) for _ in range(3)]
            for downwash in (1.0, 2.0):
                got = grid.sight_lines_free(p, targets, inflation, obstacles, downwash)
                assert got.dtype == bool
                assert got.tolist() == [
                    sight_line_by_linspace(grid, p, q, inflation, obstacles, downwash)
                    for q in targets
                ]

    @pytest.mark.parametrize("inflation", INFLATIONS)
    @pytest.mark.parametrize("downwash", (1.0, 2.0))
    def test_sight_lines_at_disc_boundaries(self, referee_grid, inflation, downwash):
        # One disc per line, its scaled distance to the segment or to the
        # nearest sample at reach + offset for offsets around 0: abreast of
        # a sample, between two, beyond either end, and around p for a line
        # of one sample; and at reach - h/2 + offset, h being the spacing of
        # samples, where line_of_sight_free's outright block begins.
        grid = referee_grid
        rng = np.random.default_rng(13)
        scale = np.array([1.0, 1.0, 1.0 / downwash])
        radius = 0.15
        reach = inflation + radius
        outcomes = set()
        for p in free_points(grid, inflation, rng, 2):
            for _ in range(2):
                q = p + rng.normal(size=3) * rng.uniform(0.05, 1.5)
                u = (q - p) * scale
                count = max(2, int(np.ceil(np.linalg.norm(q - p) / (grid.resolution / 2))) + 1)
                h = float(np.linalg.norm(u)) / (count - 1)
                side = np.cross(u, rng.normal(size=3))
                side /= np.linalg.norm(side)
                beyond = u / np.linalg.norm(u) + side
                beyond /= np.linalg.norm(beyond)
                cases = []
                for offset in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9):
                    k = int(rng.integers(count - 1))
                    frac = rng.uniform(0.1, 0.9)
                    gap = min(frac, 1 - frac) * h
                    along = u * (k + frac) / (count - 1)
                    cases += [
                        (q, u * k / (count - 1) + side * (reach + offset)),
                        (q, along + side * np.sqrt((reach + offset) ** 2 - gap**2)),
                        (q, along + side * (reach - h / 2 + offset)),
                        (q, u + beyond * (reach + offset)),
                        (q, -beyond * (reach + offset)),
                        (p, side * (reach + offset)),
                    ]
                for target, centre in cases:
                    disc = [(p + centre / scale, radius)]
                    expected = sight_line_by_linspace(grid, p, target, inflation, disc, downwash)
                    assert grid.line_of_sight_free(p, target, inflation, disc, downwash) == expected
                    got = grid.sight_lines_free(p, [target, q], inflation, disc, downwash)
                    assert got[0] == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_sight_lines_at_static_boundaries(self, referee_grid, inflation):
        # Lines whose inflated samples end a hair to either side of an
        # occupied cell's face or of the world bounds, and of their 1e-9
        # slack, against the same lines with several agent discs.
        grid = referee_grid
        rng = np.random.default_rng(14)
        occupied = np.argwhere(grid.occupied)
        faces = []
        for _ in range(6):
            axis = int(rng.integers(3))
            if len(occupied) and rng.integers(2):
                cell = occupied[int(rng.integers(len(occupied)))]
                low = grid.bounds_min[axis] + cell[axis] * grid.resolution
                faces.append((axis, low - inflation, grid.voxel_center(cell)))
                faces.append((axis, low + grid.resolution + inflation, grid.voxel_center(cell)))
            else:
                centre = rng.uniform(grid.bounds_min, grid.bounds_max)
                faces.append((axis, grid.bounds_min[axis] + inflation, centre))
                faces.append((axis, grid.bounds_max[axis] - inflation, centre))
        for axis, plane, centre in faces:
            p = centre + rng.normal(size=3) * 0.4
            targets = []
            for offset in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9):
                for end in (0, 1):
                    a, b = p.copy(), centre + rng.normal(size=3) * 0.4
                    a[axis] = b[axis] = plane + offset
                    b[axis] += rng.uniform(-0.2, 0.2) * end
                    targets.append((a, b))
            for a, b in targets:
                expected = sight_line_by_linspace(grid, a, b, inflation)
                assert grid.line_of_sight_free(a, b, inflation) == expected
            for start in {tuple(a) for a, _ in targets}:
                ends = np.array([b for a, b in targets if tuple(a) == start])
                discs = [(b + rng.normal(size=3) * 0.3, 0.15) for b in ends[:3]]
                for obstacles in ((), discs):
                    got = grid.sight_lines_free(start, ends, inflation, obstacles, 2.0)
                    assert got.tolist() == [
                        sight_line_by_linspace(grid, start, b, inflation, obstacles, 2.0)
                        for b in ends
                    ]
                    assert np.array_equal(
                        got, sight_lines_by_samples(grid, start, ends, inflation, obstacles, 2.0)
                    )

    def test_sight_line_touching_agent_disc_is_blocked(self):
        # A sample at exactly inflation + radius from an agent, in the
        # downwash-scaled metric, blocks the line.
        grid = empty_grid()
        p = np.array([0.5, 1.5, 1.0])
        targets = np.array([[2.5, 1.5, 1.0], [2.5, 1.5, 1.0001]])
        agent = [(np.array([1.5, 1.5, 1.5]), 0.15)]
        got = grid.sight_lines_free(p, targets, 0.1, agent, downwash=2.0)
        expected = [sight_line_by_linspace(grid, p, q, 0.1, agent, 2.0) for q in targets]
        assert got.tolist() == expected
        assert not got[0]

    @pytest.mark.parametrize("inflation", INFLATIONS)
    def test_agent_discs_match_loop(self, referee_grid, inflation):
        grid = referee_grid
        rng = np.random.default_rng(11)
        obstacles = [
            (rng.uniform(grid.bounds_min - 0.3, grid.bounds_max + 0.3), float(r))
            for r in rng.uniform(0.05, 0.4, size=12)
        ]
        base = grid._padded_blocked(inflation)
        for downwash in (1.0, 2.0):
            padded = base.copy()
            grid._block_discs(padded, obstacles, inflation, downwash)
            expected = block_discs_by_loop(
                grid, base[1:-1, 1:-1, 1:-1].copy(), obstacles, inflation, downwash
            )
            assert np.array_equal(padded[1:-1, 1:-1, 1:-1], expected)
            padded[1:-1, 1:-1, 1:-1] = base[1:-1, 1:-1, 1:-1]
            assert np.array_equal(padded, base)

    def test_touching_agent_disc_blocks_the_cell(self):
        # Cell centres at exactly inflation + radius from the agent, in the
        # downwash-scaled metric, are blocked; every value is exact in
        # binary.
        grid = OccupancyGrid(0.25, (0, 0, 0), (2.0, 2.0, 2.0))
        obstacles = [(np.array([1.125, 1.125, 1.125]), 0.125)]
        for downwash, touching, outside in (
            (1.0, (5, 4, 4), (5, 4, 5)),
            (2.0, (4, 4, 6), (5, 4, 5)),
        ):
            padded = grid._padded_blocked(0.125).copy()
            grid._block_discs(padded, obstacles, 0.125, downwash)
            expected = block_discs_by_loop(
                grid, static_blocked(grid, 0.125).copy(), obstacles, 0.125, downwash
            )
            mask = padded[1:-1, 1:-1, 1:-1]
            assert np.array_equal(mask, expected)
            assert mask[touching] and not mask[outside]
