"""The array verifier against the per-sample loop verifier on clean and
tampered logs, and its rejection of malformed logs."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from swarmplan.cli import main as cli_main
from swarmplan.errors import LogFormatError
from swarmplan.scenarios import Scenario, generate_scenario
from swarmplan.sim import export_csv, run
from swarmplan.verify import verify

from oracles import verify_by_loops


@pytest.fixture(scope="module")
def forest_logs(tmp_path_factory):
    """Logs of a short forest-8 run (seed 3, 2 s): the referee runs with
    obstacle boxes."""
    out = tmp_path_factory.mktemp("forest")
    assert run(generate_scenario("forest", 8, seed=3, timeout=2.0), out).error is None
    return out


@pytest.fixture
def copy_logs(recorded_runs, forest_logs, tmp_path):
    """copy_logs(name) -> a writable copy of that run's logs."""

    def copy(name):
        source = forest_logs if name == "forest-8" else recorded_runs[name][0]
        return shutil.copytree(source, tmp_path / "logs")

    return copy


def assert_same_report(log_dir):
    """verify and verify_by_loops agree on every field, bit for bit: the
    same violation strings in the same order, and every float (repr
    round-trips a float exactly and shows numpy scalars as such)."""
    got, want = verify(log_dir), verify_by_loops(log_dir)
    assert got.violations == want.violations
    assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
    return got


def scenario_of(log_dir):
    return Scenario.from_json((log_dir / "scenario.json").read_text())


def edit_states(log_dir, edit):
    """Rewrite states.npy after edit(states) changed the (agents, rows, 10)
    array in place."""
    path = log_dir / "states.npy"
    states = np.load(path)
    edit(states)
    np.save(path, states)


def replace_states(log_dir, make):
    """Overwrite states.npy with make(states), pickled if it holds objects."""
    path = log_dir / "states.npy"
    np.save(path, make(np.load(path)), allow_pickle=True)


def edit_steps(log_dir, edit):
    """Rewrite steps.jsonl through edit(payloads), one dict per line."""
    path = log_dir / "steps.jsonl"
    payloads = [json.loads(line) for line in path.read_text().splitlines()]
    edit(payloads)
    path.write_text("".join(json.dumps(p, sort_keys=True, separators=(",", ":")) + "\n" for p in payloads))


class TestAgainstLoopVerifier:
    @pytest.mark.parametrize("name", ["circle-32", "indoor-8", "forest-8"])
    def test_clean_logs(self, copy_logs, name):
        report = assert_same_report(copy_logs(name))
        assert report.ok and report.min_pair_margin is not None

    def test_position_teleported_into_a_box(self, copy_logs):
        logs = copy_logs("forest-8")
        box = scenario_of(logs).map_data["boxes"][0]
        center = [(lo + hi) / 2 for lo, hi in zip(box["min"], box["max"])]

        def teleport(states):
            states[0, states.shape[1] // 2, 1:4] = center

        edit_states(logs, teleport)
        report = assert_same_report(logs)
        assert any("obstacle clearance" in v for v in report.violations)

    def test_velocity_over_its_limit(self, copy_logs):
        logs = copy_logs("indoor-8")
        vmax = scenario_of(logs).params.max_velocity
        edit_states(logs, lambda states: states[3, 7].__setitem__(5, vmax[1] + 0.01))
        report = assert_same_report(logs)
        assert report.violations == ["agent 3: velocity exceeds its limit by 1.000e-02"]

    def test_two_agents_swapped(self, copy_logs):
        # Exchanging two agents' logs leaves every pair distance as it was;
        # only the dumped plans tell the agents apart.
        logs = copy_logs("circle-32")
        edit_states(logs, lambda states: states.__setitem__([0, 1], states[[1, 0]]))
        report = assert_same_report(logs)
        assert all("deviates" in v for v in report.violations)
        assert {v.split()[1] for v in report.violations} == {"0", "1"}

    def test_agent_logged_on_top_of_another(self, copy_logs):
        logs = copy_logs("circle-32")
        edit_states(logs, lambda states: states.__setitem__(5, states[4]))
        report = assert_same_report(logs)
        assert "agents 4,5 at t=0.00: scaled distance 0.0000 under required 0.3000" in report.violations

    def test_violations_capped_in_step_agent_sample_order(self, copy_logs):
        # 32 agents x 6 steps x 5 samples deviate: 960 violations, 250 kept.
        logs = copy_logs("circle-32")

        def shift(states):
            states[:, :, 1] += 0.5

        edit_states(logs, shift)
        report = assert_same_report(logs)
        assert len(report.violations) == 250
        assert report.violations[0].startswith("agent 0 row t=0.00:")
        assert report.violations[5].startswith("agent 1 row t=0.00:")

    def test_continuity_reads_segment_one_where_start_times_fall_short(self, copy_logs):
        # Steps 3 and 4 start at 3 * 0.2 = 0.6000000000000001 and 0.8: their
        # float difference falls short of one period, and floor of it over
        # the period would pick segment 0 at tau just under 1. The check
        # takes segment 1 at tau 0 by step count, so a jump of step 3's
        # segment 1 against step 4's start is caught. The move also breaks
        # step 3's own joint between segments 0 and 1.
        logs = copy_logs("circle-2")
        steps = [json.loads(line) for line in (logs / "steps.jsonl").read_text().splitlines()]
        assert steps[4]["t0"] - steps[3]["t0"] == 0.19999999999999996

        def move(payloads):
            payloads[3]["cpts"]["1"][1][0][0] += 1e-3

        edit_steps(logs, move)
        report = assert_same_report(logs)
        names = ("position", "velocity", "acceleration")
        assert [v.split(" jumps by ")[0] for v in report.violations] == [
            f"agent 1 step {k}: {name}" for k in (4, 3) for name in names
        ]
        assert report.violations[0] == "agent 1 step 4: position jumps by 1.000e-03 at t=0.80"
        assert report.violations[3] == (
            "agent 1 step 3: position jumps by 1.000e-03 between segments 0 and 1"
        )

    def test_velocity_and_acceleration_jumps_between_plans(self, copy_logs):
        # Step 3's plans keep their start points. Moving agent 7's points 1
        # and 2 of segment 0 by 1 mm and 2 mm bends only its start velocity,
        # and moving agent 5's point 2 by 1 mm only its start acceleration.
        # Neither move reaches a joint; both move the logged positions off
        # the dumped plans.
        logs = copy_logs("circle-32")

        def move(payloads):
            bent = payloads[3]["cpts"]["7"][0]
            bent[1][1] += 1e-3
            bent[2][1] += 2e-3
            payloads[3]["cpts"]["5"][0][2][1] += 1e-3

        edit_steps(logs, move)
        report = assert_same_report(logs)
        jumps = [v for v in report.violations if " jumps by " in v]
        assert jumps == [
            "agent 5 step 3: acceleration jumps by 5.000e-01 at t=0.60",
            "agent 7 step 3: velocity jumps by 2.500e-02 at t=0.60",
        ]
        deviations = [v for v in report.violations if v not in jumps]
        assert {v.split()[1] for v in deviations} == {"5", "7"}
        assert all("deviates from the dumped plan" in v for v in deviations)

    @pytest.mark.parametrize("name", ["circle-32", "indoor-8"])
    def test_moved_internal_joint_is_caught(self, copy_logs, name):
        # Segment 2 of a dumped plan is read by no other check: neither the
        # logged states nor the next plan's start depend on it.
        logs = copy_logs(name)

        def move(payloads):
            payloads[2]["cpts"]["1"][2][0][0] += 1e-3

        edit_steps(logs, move)
        report = assert_same_report(logs)
        assert [v.split(" jumps by ")[0] for v in report.violations] == [
            f"agent 1 step 2: {name}" for name in ("position", "velocity", "acceleration")
        ]
        assert report.violations[0] == (
            "agent 1 step 2: position jumps by 1.000e-03 between segments 1 and 2"
        )

    @pytest.mark.parametrize("point", range(6))
    def test_moved_control_point_of_a_later_step_is_caught(self, copy_logs, point):
        logs = copy_logs("circle-32")

        def move(payloads):
            payloads[3]["cpts"]["7"][0][point][1] += 1e-3

        edit_steps(logs, move)
        report = assert_same_report(logs)
        assert not report.ok
        assert all(v.startswith("agent 7 ") for v in report.violations)


def _drop_step_agent(payloads):
    del payloads[1]["cpts"]["1"]


def _add_step_agent(payloads):
    payloads[1]["cpts"]["2"] = payloads[1]["cpts"]["0"]


def _drop_segment(payloads):
    payloads[1]["cpts"]["0"].pop()


def _skip_step(payloads):
    payloads[2]["k"] = 3


def _nan_start_time(payloads):
    payloads[1]["t0"] = float("nan")


def _start_time_off_grid(payloads):
    payloads[2]["t0"] = 0.41


def _write(name, text):
    return lambda logs: (logs / name).write_text(text)


def _break_line(path, index):
    lines = path.read_text().splitlines()
    lines[index] = lines[index][:-1]
    path.write_text("\n".join(lines) + "\n")


def _unbounded_map(logs):
    data = json.loads((logs / "scenario.json").read_text())
    del data["map"]["bounds"]
    (logs / "scenario.json").write_text(json.dumps(data))


def _garble(path, old, new):
    path.write_bytes(path.read_bytes().replace(old, new, 1))


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _archive(logs):
    states = np.load(logs / "states.npy")
    with open(logs / "states.npy", "wb") as f:
        np.savez(f, states=states)


def _ragged_rows(states):
    # Agents with unequal row counts fit only an array of Python objects,
    # which np.save pickles and allow_pickle=False refuses.
    return np.array([states[0].tolist(), states[1, :-1].tolist()], dtype=object)


def _set_states(index, value):
    return lambda logs: edit_states(logs, lambda s: s.__setitem__(index, value))


def _nan_control_point(payloads):
    # NaN compares false against every tolerance: before the loaders refused
    # non-finite values, it passed every check.
    payloads[1]["cpts"]["1"][0][2][0] = float("nan")


MALFORMED = {
    "no trajectories": lambda logs: (logs / "states.npy").unlink(),
    "no agent log": lambda logs: replace_states(logs, lambda s: s[:1]),
    "scenario not json": _write("scenario.json", "{"),
    "scenario without bounds": _unbounded_map,
    "step not json": lambda logs: _break_line(logs / "steps.jsonl", 1),
    "step not an object": lambda logs: edit_steps(logs, lambda p: p.__setitem__(1, [])),
    "steps empty": _write("steps.jsonl", "\n"),
    "step misses an agent": lambda logs: edit_steps(logs, _drop_step_agent),
    "step has an extra agent": lambda logs: edit_steps(logs, _add_step_agent),
    "control points of a wrong shape": lambda logs: edit_steps(logs, _drop_segment),
    "control point not finite": lambda logs: edit_steps(logs, _nan_control_point),
    "steps not contiguous": lambda logs: edit_steps(logs, _skip_step),
    "start time not finite": lambda logs: edit_steps(logs, _nan_start_time),
    "t0 off the replanning grid": lambda logs: edit_steps(logs, _start_time_off_grid),
    "bad header": lambda logs: _garble(logs / "states.npy", b"'descr'", b"'dtype'"),
    "states truncated": lambda logs: _truncate(logs / "states.npy"),
    "states of float32": lambda logs: replace_states(logs, lambda s: s.astype(np.float32)),
    "states of nine columns": lambda logs: replace_states(logs, lambda s: s[:, :, :9]),
    "states in an archive": _archive,
    "ragged rows": lambda logs: replace_states(logs, _ragged_rows),
    "field not a number": _set_states((0, slice(5, 300), slice(1, 4)), float("nan")),
    "field infinite": _set_states((1, 3, 8), float("inf")),
    "extra row": lambda logs: replace_states(
        logs, lambda s: np.concatenate([s, s[:, -1:]], axis=1)
    ),
    "row off the 10 ms grid": _set_states((1, 6, 0), 0.065),
}


class TestMalformedLogs:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_as_format_error(self, copy_logs, capsys, case):
        logs = copy_logs("circle-2")
        MALFORMED[case](logs)
        for check in (verify, verify_by_loops):
            with pytest.raises(LogFormatError):
                check(logs)
        assert cli_main(["check", "--log", str(logs)]) == 3
        assert "malformed logs" in capsys.readouterr().err

    def test_csv_logs_of_an_older_version_name_the_old_format(self, copy_logs, capsys):
        logs = copy_logs("circle-2")
        export_csv(logs)
        (logs / "states.npy").unlink()
        with pytest.raises(LogFormatError, match="CSV logs"):
            verify(logs)
        assert cli_main(["check", "--log", str(logs)]) == 3
        assert "agent_NNN.csv" in capsys.readouterr().err

