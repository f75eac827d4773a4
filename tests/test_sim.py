import ast
import json
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from swarmplan import corridor, qp, sim
from swarmplan.bernstein import shift_for_initial
from swarmplan.cli import main as cli_main
from swarmplan.errors import LogFormatError, ScenarioGenerationError, StepAbortError
from swarmplan.params import PlanningParams
from swarmplan.qp import param_matrices
from swarmplan.scenarios import AgentSpec, Scenario, generate_scenario
from swarmplan.sim import export_csv, run
from swarmplan.verify import verify
from swarmplan.world import AxisBox, OccupancyGrid

from oracles import (
    closest_by_enumeration,
    csv_rows_by_float,
    de_casteljau,
    dense_separation_rows,
    grow_box_by_layers,
    sampled_block_by_agent,
    shift_by_segments,
    sight_lines_by_samples,
    step_line_by_float,
    success_by_steps,
)


def narrow_corridor_scenario(timeout=6.0):
    """Two agents that cannot pass each other in a 0.5 m square duct."""
    map_data = {
        "resolution": 0.1,
        "bounds": {"min": [0, 0, 0], "max": [3.0, 0.5, 0.5]},
        "boxes": [],
    }
    # Goals sit at the very duct ends: whoever wins the push can still never
    # get within goal range (the loser is pinned there), so the wedge settles
    # into a stationary deadlock instead of a goal-reached/yield oscillation.
    return Scenario(
        kind="custom",
        map_data=map_data,
        agents=[
            AgentSpec((0.4, 0.25, 0.25), (2.85, 0.25, 0.25), 0.1),
            AgentSpec((2.6, 0.25, 0.25), (0.15, 0.25, 0.25), 0.1),
        ],
        params=PlanningParams(agent_radius=0.1),
        seed=0,
        timeout=timeout,
    )


class TestGeneration:
    def test_single_agent_empty(self):
        sc = generate_scenario("empty", 1, seed=3)
        assert len(sc.agents) == 1
        sc.validate()

    def test_circle_four_agents(self):
        sc = generate_scenario("circle", 4, seed=11)
        starts = np.array([a.start for a in sc.agents])
        goals = np.array([a.goal for a in sc.agents])
        expected = np.array([[4, 0, 1], [0, 4, 1], [-4, 0, 1], [0, -4, 1]], dtype=float)
        assert np.allclose(starts, expected, atol=1e-12)
        assert np.allclose(goals, -expected * [1, 1, -1], atol=1e-12)

    def test_seeded_generation_is_byte_identical(self):
        a = generate_scenario("empty", 10, seed=7).to_json()
        b = generate_scenario("empty", 10, seed=7).to_json()
        assert a == b

    def test_forest_has_obstacles_and_missions(self):
        sc = generate_scenario("forest", 6, seed=2)
        assert len(sc.map_data["boxes"]) == 10
        assert len(sc.agents) == 6
        sc.validate()

    def test_indoor_capacity(self):
        with pytest.raises(ScenarioGenerationError):
            generate_scenario("indoor", 99, seed=1)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioGenerationError):
            generate_scenario("volcano", 2, seed=1)

    def test_colliding_starts_rejected_by_validate(self):
        sc = generate_scenario("empty", 2, seed=4)
        bad = Scenario(
            kind="custom",
            map_data=sc.map_data,
            agents=[
                AgentSpec((1.0, 1.0, 1.0), (2.0, 2.0, 1.0), 0.15),
                AgentSpec((1.1, 1.0, 1.0), (2.0, 1.0, 1.0), 0.15),
            ],
            params=sc.params,
            seed=0,
            timeout=10.0,
        )
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("radius", [0.0, -0.15, float("nan"), float("inf")])
    def test_bad_radius_rejected_by_validate(self, radius):
        sc = generate_scenario("circle", 4, seed=1)
        sc.agents[2] = AgentSpec(sc.agents[2].start, sc.agents[2].goal, radius)
        with pytest.raises(ValueError, match=r"^agent 2 radius .* is not positive and finite$"):
            sc.validate()

    def test_json_round_trip(self):
        sc = generate_scenario("forest", 3, seed=9)
        again = Scenario.from_json(sc.to_json())
        assert again.to_json() == sc.to_json()


class TestRun:
    def test_single_agent_short_mission(self, tmp_path):
        sc = generate_scenario("empty", 1, seed=3, timeout=20.0)
        spec = sc.agents[0]
        start = np.array(spec.start)
        goal = start + np.array([1.0, 0.0, 0.0])
        if not sc.grid().point_is_free(goal, spec.radius):
            goal = start - np.array([1.0, 0.0, 0.0])
        sc.agents[0] = AgentSpec(spec.start, tuple(goal), spec.radius)
        metrics = run(sc, tmp_path / "out")
        assert metrics.success
        assert metrics.flight_time <= 3.0
        assert metrics.fallback_count == 0
        assert metrics.safety_ok
        assert (tmp_path / "out" / "metrics.json").is_file()
        assert (tmp_path / "out" / "steps.jsonl").is_file()
        assert (tmp_path / "out" / "states.npy").is_file()

    def test_metrics_reproducible_modulo_timing(self, tmp_path):
        sc = generate_scenario("empty", 3, seed=8, timeout=20.0)
        m1 = run(sc, tmp_path / "a").to_dict()
        m2 = run(sc, tmp_path / "b").to_dict()
        assert m1["pair_ms_per_step"] > 0.0
        for key in ("mean_plan_ms", "max_plan_ms", "pair_ms_per_step"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2
        states1 = (tmp_path / "a" / "states.npy").read_bytes()
        assert states1 == (tmp_path / "b" / "states.npy").read_bytes()

    def test_run_rejects_more_threads(self, tmp_path):
        sc = generate_scenario("empty", 1, seed=3, timeout=2.0)
        with pytest.raises(ValueError, match="threads must be 1"):
            run(sc, tmp_path / "out", threads=2)
        assert not (tmp_path / "out").exists()

    def test_final_row_is_end_of_last_flown_segment(self, tmp_path):
        sc = generate_scenario("circle", 4, seed=1, timeout=2.0)
        metrics = run(sc, tmp_path / "out")
        assert metrics.error is None
        _assert_final_rows_end_last_dumped_plan(tmp_path / "out", sc, metrics.steps)

    def test_abort_keeps_every_agent_on_its_flown_plan(self, tmp_path, monkeypatch):
        # Agent 1 aborts at step 2 after agent 0 has already planned it; the
        # logs must end on the step-1 plans every agent actually flew.
        sc = generate_scenario("circle", 4, seed=1, timeout=2.0)
        calls = {}
        real_plan_step = sim.plan_step

        def plan_step(state, *args):
            calls[state.agent_id] = calls.get(state.agent_id, 0) + 1
            if state.agent_id == 1 and calls[1] == 3:
                raise StepAbortError("agent 1: injected", agent_id=1)
            return real_plan_step(state, *args)

        whole = run(sc, tmp_path / "whole")
        assert whole.error is None and whole.steps > 2
        monkeypatch.setattr(sim, "plan_step", plan_step)
        metrics = run(sc, tmp_path / "out")
        assert metrics.error == "agent 1: injected"
        assert metrics.steps == 2 and calls[0] == 3
        assert len(metrics.flight_distance_per_agent) == len(sc.agents)
        assert verify(tmp_path / "out").ok
        _assert_final_rows_end_last_dumped_plan(tmp_path / "out", sc, metrics.steps)
        # The log, written step by step, is the first two lines of the
        # uncut run's, byte for byte.
        lines = (tmp_path / "out" / "steps.jsonl").read_bytes().splitlines(keepends=True)
        expected = (tmp_path / "whole" / "steps.jsonl").read_bytes().splitlines(keepends=True)
        assert lines == expected[:2]

    def test_other_exception_closes_the_log(self, tmp_path, monkeypatch):
        # An error that is not a PlannerError propagates; the log is closed
        # on the way out and holds the two completed steps, and with no
        # states.npy the run directory is a malformed log.
        sc = generate_scenario("circle", 4, seed=1, timeout=2.0)
        calls = []
        real_plan_step = sim.plan_step

        def plan_step(*args):
            calls.append(None)
            if len(calls) == 2 * len(sc.agents) + 1:
                raise RuntimeError("injected")
            return real_plan_step(*args)

        opened = []

        def tracked_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(sim, "plan_step", plan_step)
        monkeypatch.setattr(sim, "open", tracked_open, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(RuntimeError, match="injected"):
                run(sc, tmp_path / "out")
            assert opened and all(handle.closed for handle in opened)
        assert len((tmp_path / "out" / "steps.jsonl").read_text().splitlines()) == 2
        assert not (tmp_path / "out" / "states.npy").exists()
        with pytest.raises(LogFormatError):
            verify(tmp_path / "out")

    def test_grid_and_fields_released_before_verify(self, tmp_path, monkeypatch):
        # Walls send agents to A*, so the run builds goal fields; neither
        # they nor the grid that holds them are alive when verify starts.
        sc = generate_scenario("indoor", 2, seed=1, timeout=0.6)
        grids, fields, alive = [], [], []
        real_grid = Scenario.grid
        real_field = OccupancyGrid._padded_field
        real_verify = sim.verify_mod.verify

        def grid(self):
            made = real_grid(self)
            grids.append(weakref.ref(made))
            return made

        def padded_field(self, *args):
            made = real_field(self, *args)
            fields.append(weakref.ref(made))
            return made

        def checked_verify(log_dir):
            alive.extend(ref() is not None for ref in grids + fields)
            return real_verify(log_dir)

        monkeypatch.setattr(Scenario, "grid", grid)
        monkeypatch.setattr(OccupancyGrid, "_padded_field", padded_field)
        monkeypatch.setattr(sim.verify_mod, "verify", checked_verify)
        metrics = run(sc, tmp_path / "out")
        assert metrics.verified and metrics.safety_ok
        assert len(grids) == 1 and fields
        assert alive == [False] * (len(grids) + len(fields))

    def test_staged_closest_points_match_enumeration(self, tmp_path, monkeypatch):
        # Six agents on a circle for 20 steps: 1500 hull queries, of which
        # the vertex certificate leaves 552 to the face enumeration.
        sc = generate_scenario("circle", 6, seed=0, timeout=4.0)
        run(sc, tmp_path / "staged")
        monkeypatch.setattr(corridor, "closest_points_to_origin", closest_by_enumeration)
        run(sc, tmp_path / "enumerated")
        staged = (tmp_path / "staged" / "steps.jsonl").read_bytes()
        assert staged == (tmp_path / "enumerated" / "steps.jsonl").read_bytes()

    def test_structured_qp_rows_match_dense_setup(self, tmp_path, monkeypatch):
        # The same six-agent circle with solve's per-point separation
        # products replaced by one dense product of the unit full rows with
        # the reduction's basis must write the same steps.jsonl bytes. Both
        # take the row norms and offsets from the 3-vector coefficients.
        sc = generate_scenario("circle", 6, seed=0, timeout=4.0)
        run(sc, tmp_path / "structured")
        mats = param_matrices(sc.params)
        structured = qp._reduced_rows

        def dense(problem, red, x_part):
            assert red is mats.reduction
            a, d = structured(problem, red, x_part)
            coefficients = problem.separation_coefficients
            norms = np.sqrt(np.square(coefficients) @ np.ones(3))
            a[len(red.static_norms):] = dense_separation_rows(problem, red, norms)
            return a, d

        monkeypatch.setattr(qp, "_reduced_rows", dense)
        run(sc, tmp_path / "dense")
        structured_bytes = (tmp_path / "structured" / "steps.jsonl").read_bytes()
        assert structured_bytes == (tmp_path / "dense" / "steps.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "kind, agents, timeout, reached",
        [("circle", 6, 4.0, "_line_samples"), ("indoor", 4, 6.0, "_sampled_lines_free")],
    )
    def test_world_queries_match_referees(
        self, tmp_path, monkeypatch, kind, agents, timeout, reached
    ):
        # Sight lines decided in closed form and boxes grown by galloping
        # must write the steps.jsonl bytes that sampling every line and
        # growing every layer write. On the circle, agent discs come near
        # enough to some lines that the samples bracketing their closest
        # points are built; among the indoor walls and doors, some lines
        # are left to sampling.
        sc = generate_scenario(kind, agents, seed=1, timeout=timeout)
        calls = []
        real = getattr(OccupancyGrid, reached)

        def spy(*args):
            calls.append(1)
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(OccupancyGrid, reached, spy)
            run(sc, tmp_path / "fast")
        assert calls

        def lines(self, p, targets, inflation, agent_obstacles=(), downwash=1.0):
            return sight_lines_by_samples(self, p, targets, inflation, agent_obstacles, downwash)

        def line(self, p, q, inflation, agent_obstacles=(), downwash=1.0):
            return bool(lines(self, p, [q], inflation, agent_obstacles, downwash)[0])

        def box(self, seed, inflation, toward=None):
            return AxisBox(*grow_box_by_layers(self, seed, inflation, toward))

        monkeypatch.setattr(OccupancyGrid, "sight_lines_free", lines)
        monkeypatch.setattr(OccupancyGrid, "line_of_sight_free", line)
        monkeypatch.setattr(OccupancyGrid, "grow_free_box", box)
        run(sc, tmp_path / "referees")
        fast = (tmp_path / "fast" / "steps.jsonl").read_bytes()
        assert fast == (tmp_path / "referees" / "steps.jsonl").read_bytes()

    def test_mean_plan_ms_counts_the_shared_view(self, tmp_path, monkeypatch):
        # Building the goal view is planning work done once per step; the
        # per-agent plan time must carry its share.
        sc = generate_scenario("empty", 2, seed=3, timeout=1.0)
        real_view = sim.goal_view

        def slow_view(*args):
            time.sleep(0.05)
            return real_view(*args)

        monkeypatch.setattr(sim, "goal_view", slow_view)
        metrics = run(sc, tmp_path / "out")
        assert metrics.steps == 5
        assert metrics.mean_plan_ms >= 25.0

    def test_log_formatters_match_float_referees(self):
        # Special values: signed zeros, subnormals, integral floats, values
        # whose repr switches to exponent notation, and ordinary ones.
        values = np.array(
            [-0.0, 0.0, 5e-324, -2.5e-310, 1.0, -3.0, 1e16, 123456789.0, 1e-5,
             0.1, -1.0 / 3.0, 2.0**0.5, 1e300, -7.25e22, 4.0e-7, 12.5, 2.0**53, -1e-320],
        )
        states = np.resize(values, (20, 9))
        states[1::2] = -states[1::2]
        times = [j / 100 for j in range(20)]
        rows = sim._csv_rows(times, states)
        assert rows == csv_rows_by_float(times, states)
        assert ",-0.0," in rows[0] and ",5e-324," in rows[0]
        pts = np.resize(values, (4, 6, 3))
        plans = np.array([[pts[(i + m) % 4] for m in range(5)] for i in range(3)])
        for step, now in ((0, 0.0), (7, 1.4000000000000001)):
            line = sim._step_line(step, now, plans)
            assert line == step_line_by_float(step, now, plans)
            assert "[-0.0," in line and "5e-324" in line and "1e+16" in line

    def test_narrow_corridor_deadlocks(self, tmp_path):
        # Long enough for the push-and-pin phase to settle into a
        # stationary wedge at the duct end.
        metrics = run(narrow_corridor_scenario(timeout=12.0), tmp_path / "out")
        assert not metrics.success
        assert metrics.deadlock
        assert metrics.safety_ok  # blocked, but never unsafe

    @pytest.mark.parametrize("mission", ["empty-1", "circle-4", "corridor-2"])
    def test_success_rule_matches_the_logs(self, mission, tmp_path):
        if mission == "empty-1":
            sc = generate_scenario("empty", 1, seed=3, timeout=20.0)
            spec = sc.agents[0]
            goal = np.array(spec.start) + np.array([1.0, 0.0, 0.0])
            assert sc.grid().point_is_free(goal, spec.radius)
            sc.agents[0] = AgentSpec(spec.start, tuple(goal), spec.radius)
        elif mission == "circle-4":
            sc = generate_scenario("circle", 4, seed=1, timeout=30.0)
        else:
            sc = narrow_corridor_scenario(timeout=4.0)
        metrics = run(sc, tmp_path / "out")
        assert metrics.error is None
        assert metrics.success == (mission != "corridor-2")
        expected = (metrics.success, metrics.flight_time, metrics.steps)
        assert success_by_steps(tmp_path / "out") == expected

    def test_log_grid_and_header(self, tmp_path):
        sc = generate_scenario("empty", 1, seed=3, timeout=10.0)
        metrics = run(sc, tmp_path / "out")
        states = np.load(tmp_path / "out" / "states.npy", allow_pickle=False)
        assert states.dtype == np.float64 and states.flags.c_contiguous
        assert states.shape == (1, metrics.steps * 20 + 1, 10)
        # Row k's time is the double k / 100, the value its "%.2f" text reads back as.
        times = [float(f"{k / 100:.2f}") for k in range(len(states[0]))]
        assert states[0, :, 0].tolist() == times
        export_csv(tmp_path / "out")
        lines = (tmp_path / "out" / "trajectories" / "agent_000.csv").read_text().splitlines()
        assert lines[0] == "t,px,py,pz,vx,vy,vz,ax,ay,az"
        assert len(lines) == 1 + metrics.steps * 20 + 1

    def test_grid_times_read_back_from_their_text(self):
        # One simulated hour of 10 ms rows: k / 100 is the double nearest
        # the decimal that "%.2f" prints for it.
        k = np.arange(360_001)
        assert (k / 100).tolist() == [float(f"{t:.2f}") for t in (k / 100).tolist()]


class TestBatchedPlans:
    """The step's array work against per-agent referees, bit for bit. On a
    BLAS kernel whose stacked products differ from one product per agent,
    these fail before any digest changes unseen."""

    BASES = {
        "ticks": sim._segment_basis(5, [j / 20 for j in range(20)]),
        "end": sim._segment_basis(5, [1.0]),
    }

    def test_recorded_circle_steps(self, recorded_runs):
        log_dir, _, _ = recorded_runs["circle-32"]
        lines = (log_dir / "steps.jsonl").read_text().splitlines()
        states = np.load(log_dir / "states.npy")
        assert len(lines) >= 5
        for k, line in enumerate(lines):
            cpts = json.loads(line)["cpts"]
            plans = np.array([cpts[str(i)] for i in range(32)])
            assert np.array_equal(shift_for_initial(plans), shift_by_segments(plans))
            blocks = {}
            for name, basis in self.BASES.items():
                blocks[name] = sim._sampled_block(plans, basis, 0.2)[:, :, 1:]
                assert np.array_equal(blocks[name], sampled_block_by_agent(plans, basis, 0.2)[:, :, 1:])
            # The logged states of step k are its sampled block.
            assert np.array_equal(states[:, 20 * k : 20 * k + 20, 1:], blocks["ticks"])
        assert np.array_equal(states[:, -1:, 1:], blocks["end"])

    @pytest.mark.parametrize("basis", ["ticks", "end"])
    def test_random_plans_of_1_to_40_agents(self, basis):
        rng = np.random.default_rng(70)
        for agents in range(1, 41):
            plans = rng.normal(size=(agents, 5, 6, 3)) * rng.uniform(0.1, 10.0)
            got = sim._sampled_block(plans, self.BASES[basis], 0.2)
            ref = sampled_block_by_agent(plans, self.BASES[basis], 0.2)
            assert np.array_equal(got[:, :, 1:], ref[:, :, 1:])
            assert np.array_equal(shift_for_initial(plans), shift_by_segments(plans))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("logs") / "run"
    sc = generate_scenario("forest", 3, seed=6, timeout=40.0)
    metrics = run(sc, out)
    assert metrics.success
    return out


class TestVerify:
    def test_metrics_json_keys(self, run_dir):
        payload = json.loads((run_dir / "metrics.json").read_text())
        assert sorted(payload) == [
            "deadlock",
            "error",
            "fallback_count",
            "flight_distance_per_agent",
            "flight_time",
            "max_candidate_violation",
            "max_continuity_error",
            "max_plan_ms",
            "mean_plan_ms",
            "min_inter_agent_distance",
            "min_obstacle_clearance",
            "min_pair_margin",
            "pair_ms_per_step",
            "safety_ok",
            "sim_time",
            "steps",
            "success",
            "verified",
            "violations",
        ]

    def test_metrics_carry_the_verifier_report(self, run_dir):
        report = verify(run_dir)
        payload = json.loads((run_dir / "metrics.json").read_text())
        assert payload["min_pair_margin"] == report.min_pair_margin
        assert payload["max_continuity_error"] == report.max_continuity_error
        assert payload["violations"] == report.violations

    def test_clean_run_verifies(self, run_dir):
        report = verify(run_dir)
        assert report.ok
        assert report.violations == []
        assert report.min_inter_agent_distance >= 0.3 - 1e-4
        assert report.min_obstacle_clearance >= 0.15 - 1e-4
        assert report.max_continuity_error["position"] <= 1e-6
        assert report.max_continuity_error["acceleration"] <= 1e-6
        assert len(report.flight_distance_per_agent) == 3

    def test_perturbed_row_reported(self, run_dir, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        states = np.load(bad / "states.npy")
        # Teleport the sample into the first obstacle box.
        box = json.loads((bad / "scenario.json").read_text())["map"]["boxes"][0]
        center = [(lo + hi) / 2 for lo, hi in zip(box["min"], box["max"])]
        states[0, states.shape[1] // 2, 1:4] = center
        np.save(bad / "states.npy", states)
        report = verify(bad)
        assert not report.ok
        assert any("clearance" in v or "deviates" in v for v in report.violations)

    def test_truncated_log_is_format_error(self, run_dir, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        path = bad / "states.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(LogFormatError):
            verify(bad)

    def test_missing_artifacts_is_format_error(self, tmp_path):
        with pytest.raises(LogFormatError):
            verify(tmp_path)

    def test_independent_of_planner_geometry(self):
        # The verifier must re-derive safety with its own math: from the
        # package it may import only errors and scenarios, and it never
        # calls the grid's free-space, search or box methods.
        import swarmplan.verify as verify_module

        tree = ast.parse(Path(verify_module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("swarmplan"):
                if node.module == "swarmplan":
                    imported.update(f"swarmplan.{alias.name}" for alias in node.names)
                else:
                    imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names if a.name.startswith("swarmplan"))
        assert imported == {"swarmplan.errors", "swarmplan.scenarios"}
        grid_methods = {
            name
            for name, value in vars(OccupancyGrid).items()
            if callable(value) and name not in ("__init__", "from_dict")
        }
        assert "grow_free_box" in grid_methods and "sight_lines_free" in grid_methods
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not used & (grid_methods | {"OccupancyGrid"})


class TestCli:
    def test_gen_run_check_round_trip(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        out_dir = tmp_path / "logs"
        assert (
            cli_main(
                [
                    "gen",
                    "--kind",
                    "empty",
                    "--agents",
                    "2",
                    "--seed",
                    "5",
                    "--out",
                    str(scenario_path),
                    "--timeout",
                    "20",
                ]
            )
            == 0
        )
        assert scenario_path.is_file()
        assert (
            cli_main(["run", "--scenario", str(scenario_path), "--out", str(out_dir)])
            == 0
        )
        payload = json.loads((out_dir / "metrics.json").read_text())
        assert payload["success"] is True
        assert cli_main(["check", "--log", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_run_mission_failure_exit_code(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(narrow_corridor_scenario(timeout=4.0).to_json())
        code = cli_main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "logs")])
        assert code == 1

    def test_check_detects_corruption(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        cli_main(
            ["gen", "--kind", "empty", "--agents", "1", "--seed", "2", "--out", str(scenario_path)]
        )
        out_dir = tmp_path / "logs"
        cli_main(["run", "--scenario", str(scenario_path), "--out", str(out_dir)])
        states = np.load(out_dir / "states.npy")
        states[0, 4, 1] = 99.0  # far outside the world bounds
        np.save(out_dir / "states.npy", states)
        assert cli_main(["check", "--log", str(out_dir)]) == 2

    def test_export_writes_the_states_as_csv(self, tmp_path, capsys):
        sc = generate_scenario("circle", 3, seed=2, timeout=1.0)
        out_dir = tmp_path / "logs"
        run(sc, out_dir)
        assert cli_main(["export", "--log", str(out_dir)]) == 0
        assert "trajectories" in capsys.readouterr().out
        states = np.load(out_dir / "states.npy", allow_pickle=False)
        for i, agent in enumerate(states):
            text = (out_dir / "trajectories" / f"agent_{i:03d}.csv").read_text()
            rows = csv_rows_by_float(agent[:, 0].tolist(), agent[:, 1:])
            assert text == "\n".join(["t,px,py,pz,vx,vy,vz,ax,ay,az", *rows]) + "\n"
            parsed = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
            assert np.array_equal(np.array(parsed), agent)
            # Bit for bit, signed zeros included.
            assert np.array(parsed).tobytes() == agent.tobytes()

    def test_export_of_malformed_logs_is_config_error(self, tmp_path, capsys):
        assert cli_main(["export", "--log", str(tmp_path)]) == 3
        assert "malformed logs" in capsys.readouterr().err

    def test_bad_scenario_is_config_error(self, tmp_path):
        bad = tmp_path / "scenario.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 3

    def test_bad_kind_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli_main(
                ["gen", "--kind", "moonbase", "--agents", "1", "--seed", "0", "--out", str(tmp_path / "s.json")]
            )
        assert info.value.code == 3

    def test_threads_option_is_gone(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(generate_scenario("empty", 1, seed=3).to_json())
        out_dir = tmp_path / "logs"
        with pytest.raises(SystemExit) as info:
            cli_main(
                ["run", "--scenario", str(scenario_path), "--out", str(out_dir), "--threads", "2"]
            )
        assert info.value.code == 3
        assert not out_dir.exists()

    def test_negative_radius_is_config_error(self, tmp_path, capsys):
        sc = generate_scenario("circle", 4, seed=1)
        sc.agents[1] = AgentSpec(sc.agents[1].start, sc.agents[1].goal, -0.15)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(sc.to_json())
        out_dir = tmp_path / "logs"
        assert cli_main(["run", "--scenario", str(scenario_path), "--out", str(out_dir)]) == 3
        assert "agent 1 radius" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_grid_resolution_key_is_config_error(self, tmp_path, capsys):
        data = generate_scenario("circle", 4, seed=1).to_dict()
        data["params"]["grid_resolution"] = 0.1
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(data))
        out_dir = tmp_path / "logs"
        assert cli_main(["run", "--scenario", str(scenario_path), "--out", str(out_dir)]) == 3
        assert "unknown parameter keys: ['grid_resolution']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("safety_buffer", -1e-6),
            ("degree", 5.5),
            ("downwash", float("nan")),
            ("max_velocity", [0.0, 0.0, 0.0]),
        ],
    )
    def test_unrunnable_params_are_config_error(self, tmp_path, capsys, key, value):
        data = generate_scenario("circle", 4, seed=1).to_dict()
        data["params"][key] = value
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(data))
        out_dir = tmp_path / "logs"
        assert cli_main(["run", "--scenario", str(scenario_path), "--out", str(out_dir)]) == 3
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_check_missing_dir_is_config_error(self, tmp_path):
        assert cli_main(["check", "--log", str(tmp_path / "nope")]) == 3


def _assert_final_rows_end_last_dumped_plan(out, sc, steps):
    """Each agent's last state row is its last dumped plan's segment 0 at
    tau = 1, within 1e-12 in position, velocity and acceleration."""
    dt = sc.params.segment_time
    lines = (out / "steps.jsonl").read_text().splitlines()
    assert len(lines) == steps
    last = json.loads(lines[-1])
    states = np.load(out / "states.npy", allow_pickle=False)
    for i in range(len(sc.agents)):
        pts = np.array(last["cpts"][str(i)][0])
        n = len(pts) - 1
        vel = n * np.diff(pts, axis=0) / dt
        acc = (n - 1) * np.diff(vel, axis=0) / dt
        expected = np.concatenate([de_casteljau(c, 1.0) for c in (pts, vel, acc)])
        row = states[i, -1]
        assert row[0] == pytest.approx(steps * dt, abs=1e-9)
        assert np.max(np.abs(row[1:] - expected)) <= 1e-12
