import ast
import json
from pathlib import Path

import numpy as np
import pytest

from swarmplan import corridor, sim
from swarmplan.cli import main as cli_main
from swarmplan.errors import LogFormatError, ScenarioGenerationError, StepAbortError
from swarmplan.params import PlanningParams
from swarmplan.scenarios import AgentSpec, Scenario, generate_scenario
from swarmplan.sim import run
from swarmplan.verify import verify
from swarmplan.world import OccupancyGrid

from oracles import closest_by_enumeration, de_casteljau


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
        assert (tmp_path / "out" / "trajectories" / "agent_000.csv").is_file()

    def test_metrics_reproducible_modulo_timing(self, tmp_path):
        sc = generate_scenario("empty", 3, seed=8, timeout=20.0)
        m1 = run(sc, tmp_path / "a").to_dict()
        m2 = run(sc, tmp_path / "b").to_dict()
        assert m1["pair_ms_per_step"] > 0.0
        for key in ("mean_plan_ms", "max_plan_ms", "pair_ms_per_step"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2
        csv1 = (tmp_path / "a" / "trajectories" / "agent_000.csv").read_bytes()
        csv2 = (tmp_path / "b" / "trajectories" / "agent_000.csv").read_bytes()
        assert csv1 == csv2

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

        monkeypatch.setattr(sim, "plan_step", plan_step)
        metrics = run(sc, tmp_path / "out")
        assert metrics.error == "agent 1: injected"
        assert metrics.steps == 2 and calls[0] == 3
        assert len(metrics.flight_distance_per_agent) == len(sc.agents)
        assert verify(tmp_path / "out").ok
        _assert_final_rows_end_last_dumped_plan(tmp_path / "out", sc, metrics.steps)

    def test_staged_closest_points_match_enumeration(self, tmp_path, monkeypatch):
        # Six agents on a circle for 20 steps: 1500 hull queries, of which
        # the vertex certificate leaves 552 to the face enumeration.
        sc = generate_scenario("circle", 6, seed=0, timeout=4.0)
        run(sc, tmp_path / "staged")
        monkeypatch.setattr(corridor, "closest_points_to_origin", closest_by_enumeration)
        run(sc, tmp_path / "enumerated")
        staged = (tmp_path / "staged" / "steps.jsonl").read_bytes()
        assert staged == (tmp_path / "enumerated" / "steps.jsonl").read_bytes()

    def test_narrow_corridor_deadlocks(self, tmp_path):
        # Long enough for the push-and-pin phase to settle into a
        # stationary wedge at the duct end.
        metrics = run(narrow_corridor_scenario(timeout=12.0), tmp_path / "out")
        assert not metrics.success
        assert metrics.deadlock
        assert metrics.safety_ok  # blocked, but never unsafe

    def test_log_grid_and_header(self, tmp_path):
        sc = generate_scenario("empty", 1, seed=3, timeout=10.0)
        metrics = run(sc, tmp_path / "out")
        lines = (tmp_path / "out" / "trajectories" / "agent_000.csv").read_text().splitlines()
        assert lines[0] == "t,px,py,pz,vx,vy,vz,ax,ay,az"
        assert len(lines) == 1 + metrics.steps * 20 + 1
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert np.allclose(np.diff(times), 0.01, atol=1e-9)


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
            "max_plan_ms",
            "mean_plan_ms",
            "min_inter_agent_distance",
            "min_obstacle_clearance",
            "pair_ms_per_step",
            "safety_ok",
            "sim_time",
            "steps",
            "success",
            "verified",
            "violations",
        ]

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
        path = bad / "trajectories" / "agent_000.csv"
        lines = path.read_text().splitlines()
        mid = len(lines) // 2
        parts = lines[mid].split(",")
        # Teleport the sample into the first obstacle box.
        box = json.loads((bad / "scenario.json").read_text())["map"]["boxes"][0]
        center = [(lo + hi) / 2 for lo, hi in zip(box["min"], box["max"])]
        parts[1:4] = [repr(c) for c in center]
        lines[mid] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        report = verify(bad)
        assert not report.ok
        assert any("clearance" in v or "deviates" in v for v in report.violations)

    def test_truncated_log_is_format_error(self, run_dir, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        path = bad / "trajectories" / "agent_001.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
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
            if callable(value) and name not in ("__init__", "from_dict", "to_dict")
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
        csv = out_dir / "trajectories" / "agent_000.csv"
        lines = csv.read_text().splitlines()
        parts = lines[5].split(",")
        parts[1] = "99.0"  # far outside the world bounds
        lines[5] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        assert cli_main(["check", "--log", str(out_dir)]) == 2

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

    def test_check_missing_dir_is_config_error(self, tmp_path):
        assert cli_main(["check", "--log", str(tmp_path / "nope")]) == 3


def _assert_final_rows_end_last_dumped_plan(out, sc, steps):
    """Each agent's last CSV row is its last dumped plan's segment 0 at
    tau = 1, within 1e-12 in position, velocity and acceleration."""
    dt = sc.params.segment_time
    lines = (out / "steps.jsonl").read_text().splitlines()
    assert len(lines) == steps
    last = json.loads(lines[-1])
    for i in range(len(sc.agents)):
        pts = np.array(last["cpts"][str(i)][0])
        n = len(pts) - 1
        vel = n * np.diff(pts, axis=0) / dt
        acc = (n - 1) * np.diff(vel, axis=0) / dt
        expected = np.concatenate([de_casteljau(c, 1.0) for c in (pts, vel, acc)])
        csv = out / "trajectories" / f"agent_{i:03d}.csv"
        row = csv.read_text().splitlines()[-1].split(",")
        assert float(row[0]) == pytest.approx(steps * dt, abs=1e-9)
        assert np.max(np.abs(np.array(row[1:], dtype=float) - expected)) <= 1e-12
