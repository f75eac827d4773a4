import numpy as np
import pytest

from swarmplan.errors import GoalUnreachableError
from swarmplan.goalplan import plan_current_goal
from swarmplan.params import PlanningParams
from swarmplan.scenarios import generate_scenario
from swarmplan.world import OccupancyGrid

from helpers import AgentMotion, swarm_view, view_motions
from oracles import farthest_visible_by_scan, higher_priority_ids, nearest_priority

PARAMS = PlanningParams()


def motion(position, goal, horizon_end=None, radius=0.15):
    position = np.asarray(position, dtype=float)
    return AgentMotion(
        position=position,
        horizon_end=position if horizon_end is None else np.asarray(horizon_end, float),
        goal=np.asarray(goal, dtype=float),
        radius=radius,
    )


def empty_grid():
    return OccupancyGrid(0.1, (0, 0, 0), (3.0, 3.0, 2.0))


def outranking(agents, me):
    """Rows the shared relation marks as outranking agent me."""
    view = swarm_view(agents, PARAMS)
    return set(np.flatnonzero(view.outranks[me]).tolist())


class TestPriority:
    def test_approaching_closer_agent_outranks(self):
        agents = {
            0: motion((0.5, 1.5, 1.0), (2.5, 1.5, 1.0)),
            # Agent 1 is closer to its goal, not there yet, and its
            # horizon displacement points at agent 0.
            1: motion((1.5, 1.5, 1.0), (1.0, 2.4, 1.0), horizon_end=(1.2, 1.5, 1.0)),
        }
        assert outranking(agents, 0) == {1}

    def test_receding_agent_ignored(self):
        agents = {
            0: motion((0.5, 1.5, 1.0), (2.5, 1.5, 1.0)),
            1: motion((1.5, 1.5, 1.0), (2.0, 1.5, 1.0), horizon_end=(1.8, 1.5, 1.0)),
        }
        assert outranking(agents, 0) == set()

    def test_goal_reached_self_yields_to_active_neighbor(self):
        agents = {
            0: motion((2.45, 1.5, 1.0), (2.5, 1.5, 1.0)),  # within d_g of goal
            1: motion((1.0, 1.5, 1.0), (0.2, 0.2, 1.0), horizon_end=(0.9, 1.4, 1.0)),
        }
        assert outranking(agents, 0) == {1}

    def test_goal_reached_neighbor_demoted(self):
        agents = {
            0: motion((0.5, 1.5, 1.0), (2.5, 1.5, 1.0)),
            1: motion((1.5, 1.5, 1.0), (1.52, 1.5, 1.0), horizon_end=(1.4, 1.5, 1.0)),
        }
        assert outranking(agents, 0) == set()

    def test_antisymmetry_of_distance_rule(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            pa = rng.uniform(0.3, 2.7, size=3)
            pb = rng.uniform(0.3, 2.7, size=3)
            ga = rng.uniform(0.3, 2.7, size=3)
            gb = rng.uniform(0.3, 2.7, size=3)
            agents = {
                0: motion(pa, ga, horizon_end=pb),  # each moves toward the other
                1: motion(pb, gb, horizon_end=pa),
            }
            sets = [outranking(agents, 0), outranking(agents, 1)]
            both_active = np.linalg.norm(pa - ga) > PARAMS.goal_reach_dist and (
                np.linalg.norm(pb - gb) > PARAMS.goal_reach_dist
            )
            if both_active:
                # At most one of two approaching active agents can defer.
                assert not (1 in sets[0] and 0 in sets[1])


class TestPlanCurrentGoal:
    def test_single_agent_empty_map(self):
        goal = np.array([2.5, 2.5, 1.5])
        view = swarm_view({0: motion((0.5, 0.5, 0.5), goal)}, PARAMS)
        out = plan_current_goal(view, 0, empty_grid())
        assert np.array_equal(out, goal)

    def test_repulsion_branch(self):
        # Nearest higher-priority agent at 0.3 < 0.4 triggers a goal at
        # exactly repulsion_dist from it along the separation ray.
        me = np.array([1.5, 1.5, 1.0])
        other = np.array([1.8, 1.5, 1.0])
        view = swarm_view(
            {
                0: motion(me, (2.8, 1.5, 1.0)),
                1: motion(other, (2.4, 1.5, 1.0), horizon_end=(1.7, 1.5, 1.0)),
            },
            PARAMS,
        )
        out = plan_current_goal(view, 0, empty_grid())
        assert np.allclose(out, other + 0.5 * np.array([-1.0, 0.0, 0.0]), atol=1e-12)

    def test_repulsion_vertical_stack_pushes_horizontally(self):
        me = np.array([1.5, 1.5, 1.2])
        other = np.array([1.5, 1.5, 1.0])
        view = swarm_view(
            {
                0: motion(me, (2.8, 1.5, 1.2)),
                1: motion(other, (1.5, 2.6, 1.0), horizon_end=(1.5, 1.55, 1.05)),
            },
            PARAMS,
        )
        out = plan_current_goal(view, 0, empty_grid())
        assert np.allclose(out, other + np.array([0.5, 0.0, 0.0]), atol=1e-12)

    def test_wall_detour_goal_visible(self):
        grid = OccupancyGrid.from_dict(
            {
                "resolution": 0.1,
                "bounds": {"min": [0, 0, 0], "max": [3, 3, 2]},
                "boxes": [{"min": [1.4, 0.0, 0.0], "max": [1.6, 2.2, 2.0]}],
            }
        )
        start = np.array([0.7, 1.0, 1.0])
        goal = np.array([2.3, 1.0, 1.0])
        view = swarm_view({0: motion(start, goal)}, PARAMS)
        out = plan_current_goal(view, 0, grid)
        # The wall blocks the straight shot; the chosen goal must be visible
        # from the start and differ from both endpoints.
        assert grid.line_of_sight_free(start, out, 0.15)
        assert not np.allclose(out, goal)
        assert np.linalg.norm(out - start) > 0.2

    def test_agent_blocking_path_forces_detour_goal(self):
        grid = empty_grid()
        start = np.array([0.5, 1.5, 1.0])
        goal = np.array([2.5, 1.5, 1.0])
        blocker = motion(
            (1.5, 1.5, 1.0), (1.5, 0.3, 1.0), horizon_end=(1.4, 1.4, 1.0)
        )
        view = swarm_view({0: motion(start, goal), 1: blocker}, PARAMS)
        out = plan_current_goal(view, 0, grid)
        seeing = 0.15 - grid.resolution / 4
        assert grid.line_of_sight_free(
            start, out, seeing, [(blocker.position, 0.15)], downwash=PARAMS.downwash
        )

    def test_unreachable_goal_raises(self):
        # Goal sealed inside a closed box.
        grid = OccupancyGrid.from_dict(
            {
                "resolution": 0.1,
                "bounds": {"min": [0, 0, 0], "max": [3, 3, 2]},
                "boxes": [{"min": [1.8, 0.9, 0.4], "max": [2.6, 1.9, 1.4]}],
            }
        )
        occupied = grid.occupied.copy()
        occupied[20:24, 11:17, 6:12] = False  # hollow interior, shell intact
        grid = OccupancyGrid(0.1, (0, 0, 0), (3, 3, 2), occupied)
        view = swarm_view({0: motion((0.5, 1.5, 1.0), (2.15, 1.4, 0.9))}, PARAMS)
        with pytest.raises(GoalUnreachableError):
            plan_current_goal(view, 0, grid)

    def test_deterministic(self):
        rng = np.random.default_rng(61)
        grid = empty_grid()
        agents = {
            i: motion(
                rng.uniform(0.4, 2.6, size=3) * [1, 1, 0.6],
                rng.uniform(0.4, 2.6, size=3) * [1, 1, 0.6],
                horizon_end=rng.uniform(0.4, 2.6, size=3) * [1, 1, 0.6],
            )
            for i in range(4)
        }
        view = swarm_view(agents, PARAMS)
        for i in range(4):
            a = plan_current_goal(view, i, grid)
            b = plan_current_goal(view, i, grid)
            assert np.array_equal(a, b)

    def test_waypoint_scan_matches_per_candidate_scan(self):
        # The batched sight scan picks the waypoint a one-line-at-a-time
        # scan from the goal inward picks, with and without agent obstacles.
        grid = OccupancyGrid.from_dict(generate_scenario("indoor", 2, seed=5).map_data)
        rng = np.random.default_rng(62)
        pad = grid.resolution / 4
        scanned = 0
        while scanned < 12:
            points = rng.uniform(grid.bounds_min + 0.3, grid.bounds_max - 0.3, size=(4, 3))
            if not np.all(grid.points_free(points, 0.15 + pad)):
                continue
            agents = {
                0: motion(points[0], points[1]),
                1: motion(points[2], points[2] + 0.3, horizon_end=points[0]),
                2: motion(points[3], points[3] + 0.3, horizon_end=points[0]),
            }
            prio = sorted(outranking(agents, 0))
            gaps = [np.linalg.norm(points[0] - agents[j].position) for j in prio]
            if min(gaps, default=np.inf) < PARAMS.repulsion_trigger_dist:
                continue
            obstacles = [(agents[j].position, agents[j].radius) for j in prio]
            seeing = 0.15 - pad
            if grid.line_of_sight_free(points[0], points[1], seeing, obstacles, PARAMS.downwash):
                continue
            path = grid.astar(
                points[0], points[1], 0.15 + pad, obstacles, PARAMS.astar_budget, PARAMS.downwash
            )
            if path is None:
                path = grid.astar(points[0], points[1], 0.15 + pad, (), PARAMS.astar_budget)
            expected = farthest_visible_by_scan(
                grid, points[0], list(path) + [points[1]], seeing, obstacles,
                PARAMS.downwash,
            )
            got = plan_current_goal(swarm_view(agents, PARAMS), 0, grid)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            scanned += 1


def assert_relation_matches_referee(view):
    """Every row of the shared relation against the per-agent loop: the
    outranking set, every gap bitwise, and the nearest outranking agent."""
    agents = view_motions(view)
    for me in agents:
        expected = higher_priority_ids(me, agents, PARAMS)
        assert set(np.flatnonzero(view.outranks[me]).tolist()) == expected
        for other in agents:
            gap = float(np.linalg.norm(agents[me].position - agents[other].position))
            assert view.gaps[me, other] == gap
        if expected:
            nearest, gap = nearest_priority(me, agents, expected)
            if gap < PARAMS.repulsion_trigger_dist:
                # Repulsion needs no grid query; the target pins the choice.
                q = agents[nearest].position
                away = agents[me].position - q
                direction = np.array([1.0, 0.0, 0.0]) if np.hypot(*away[:2]) < 1e-6 else away / gap
                target = q + PARAMS.repulsion_dist * direction
                assert np.array_equal(plan_current_goal(view, me, empty_grid()), target)


class TestSharedRelation:
    @pytest.mark.parametrize("workload", ["circle-32", "indoor-8"])
    def test_recorded_views_match_per_agent_loop(self, recorded_steps, workload):
        views, _ = recorded_steps[workload]
        assert len(views) >= 6
        for view in views:
            assert_relation_matches_referee(view)

    def test_equal_goal_distances_lower_id_wins(self):
        # Mirror images: equal goal distances, each approaching the other.
        agents = {
            0: motion((1.0, 1.5, 1.0), (0.5, 1.5, 1.0), horizon_end=(1.1, 1.5, 1.0)),
            1: motion((2.0, 1.5, 1.0), (2.5, 1.5, 1.0), horizon_end=(1.9, 1.5, 1.0)),
        }
        view = swarm_view(agents, PARAMS)
        assert_relation_matches_referee(view)
        assert outranking(agents, 1) == {0} and outranking(agents, 0) == set()

    def test_agent_exactly_at_goal_reach(self):
        # Goal distance exactly goal_reach_dist: neither reached nor under
        # way. The closer-to-goal rule never lets it outrank, but agents
        # that have reached their goals still yield to it.
        reach = PARAMS.goal_reach_dist
        agents = {
            0: motion((0.0, 1.0, 1.0), (reach, 1.0, 1.0)),
            1: motion((2.0, 1.0, 1.0), (2.5, 1.0, 1.0), horizon_end=(1.9, 1.0, 1.0)),
            2: motion((1.0, 2.0, 1.0), (1.0, 2.05, 1.0)),
        }
        assert float(np.linalg.norm(agents[0].position - agents[0].goal)) == reach
        view = swarm_view(agents, PARAMS)
        assert_relation_matches_referee(view)
        assert 0 not in outranking(agents, 1) and 0 in outranking(agents, 2)

    def test_projection_exactly_at_recede_slack(self):
        # Gap 1 along x and a horizon displacement of exactly -slack along
        # the line toward agent 0: the boundary counts as not receding.
        slack = 0.05 * PARAMS.horizon * max(PARAMS.max_velocity)
        for shift, outranks in ((0.0, True), (-1e-12, False)):
            agents = {
                0: motion((1.0, 0.0, 1.0), (2.5, 0.0, 1.0)),
                1: motion((0.0, 0.0, 1.0), (0.0, 0.5, 1.0), horizon_end=(-slack + shift, 0.0, 1.0)),
            }
            view = swarm_view(agents, PARAMS)
            assert_relation_matches_referee(view)
            assert (1 in outranking(agents, 0)) is outranks

    def test_coincident_positions_use_the_clamp(self):
        agents = {
            0: motion((1.0, 1.0, 1.0), (2.5, 1.0, 1.0)),
            1: motion((1.0, 1.0, 1.0), (1.2, 1.0, 1.0), horizon_end=(1.1, 1.0, 1.0)),
            2: motion((1.0, 1.0, 1.0), (1.0, 1.3, 1.0), horizon_end=(0.9, 1.0, 1.0)),
        }
        view = swarm_view(agents, PARAMS)
        assert np.all(view.gaps == 0.0)
        assert_relation_matches_referee(view)
        # 1e-10 apart, moving 0.3 m away: divided by the 1e-9 clamp rather
        # than the gap, the projection is -0.03, inside the -0.05 slack.
        agents = {
            0: motion((0.0, 0.0, 1.0), (2.5, 0.0, 1.0)),
            1: motion((1e-10, 0.0, 1.0), (1e-10, 0.5, 1.0), horizon_end=(0.3, 0.0, 1.0)),
        }
        assert_relation_matches_referee(swarm_view(agents, PARAMS))
        assert outranking(agents, 0) == {1}

    def test_vertically_stacked_agents(self):
        agents = {
            0: motion((1.5, 1.5, 1.2), (2.8, 1.5, 1.2)),
            1: motion((1.5, 1.5, 1.0), (1.5, 2.6, 1.0), horizon_end=(1.5, 1.55, 1.05)),
            2: motion((1.5, 1.5, 1.5), (1.5, 2.7, 1.5), horizon_end=(1.5, 1.5, 1.45)),
        }
        assert_relation_matches_referee(swarm_view(agents, PARAMS))

    def test_equal_gaps_pick_the_lower_id(self):
        # Two outranking agents at the same gap on either side of agent 0.
        agents = {
            0: motion((1.5, 1.5, 1.0), (1.5, 2.8, 1.0)),
            2: motion((1.2, 1.5, 1.0), (1.2, 1.6, 1.0), horizon_end=(1.3, 1.5, 1.0)),
            1: motion((1.8, 1.5, 1.0), (1.8, 1.6, 1.0), horizon_end=(1.7, 1.5, 1.0)),
        }
        view = swarm_view(agents, PARAMS)
        assert view.gaps[0, 1] == view.gaps[0, 2]
        assert_relation_matches_referee(view)
        out = plan_current_goal(view, 0, empty_grid())
        assert np.array_equal(out, agents[1].position + PARAMS.repulsion_dist * np.array([-1.0, 0.0, 0.0]))
