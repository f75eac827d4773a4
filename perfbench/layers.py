"""Per-layer metrics from the spans of a traced run.

Layers are named after the swarmplan modules. `*_per_step` values divide a
layer's total over every traced simulated step; `*_p50`/`*_p99` are per
call. The warm-up split (planner.first_step_ms_max, steady_plan_ms_p50,
plan_ms_p95, plan_ms_max) comes from the untraced pass of the same
missions, so tracing overhead does not inflate it.
"""

from __future__ import annotations

from collections import defaultdict

from stats import median, percentile
from tracing import END, NAME, NOTE, PARENT, RUN, START, STEP_START, self_times

GOAL = "goalplan.plan_current_goal"
PLAN = "planner.plan_step"


class _Layer:
    __slots__ = ("calls", "total", "own", "durations", "notes")

    def __init__(self):
        self.calls = 0
        self.total = 0
        self.own = 0
        self.durations: list[int] = []
        self.notes: list = []


def summarize(spans) -> dict[str, _Layer]:
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for rec, own in zip(spans, self_times(spans)):
        layer = layers[rec[NAME]]
        layer.calls += 1
        layer.total += rec[END] - rec[START]
        layer.own += own
        layer.durations.append(rec[END] - rec[START])
        if rec[NOTE] is not None:
            layer.notes.append(rec[NOTE])
    return layers


def accounting(spans, walls: dict[int, float]) -> tuple[dict, list[str]]:
    """Sum span self times per traced run, to check them against the
    `sim.run` wall time measured outside.

    Returns {run id: (self-time sum in s, wall in s)} and a problem string
    for every span of those runs that does not nest under their root.
    """
    selfs = self_times(spans)
    totals: dict[int, int] = defaultdict(int)
    orphans = []
    for index, rec in enumerate(spans):
        if rec[RUN] not in walls:
            continue
        totals[rec[RUN]] += selfs[index]
        if rec[PARENT] < 0 and rec[NAME] != "sim.run":
            orphans.append(f"run {rec[RUN]}: span {rec[NAME]} outside sim.run")
    return {run: (totals[run] / 1e9, wall) for run, wall in walls.items()}, orphans


def layer_metrics(layers, steps: int, untraced_plan_ms, log_bytes: int, overhead):
    """Every per-layer metric as name -> (value, unit).

    `steps` and `log_bytes` are totals over the traced missions, whose only
    `verify` calls are the ones `sim.run` makes on its own logs.
    """

    def layer(name):
        return layers.get(name) or _Layer()

    def ms_per_step(name, own=False):
        item = layer(name)
        return (item.own if own else item.total) / 1e6 / steps

    def calls_per_step(name):
        return layer(name).calls / steps

    def durations_ms(name):
        return [d / 1e6 for d in layer(name).durations]

    def ratio(name):
        notes = layer(name).notes
        return sum(bool(n) for n in notes) / len(notes) if notes else 0.0

    first = [ms for step, ms in untraced_plan_ms if step == 0]
    steady = [ms for step, ms in untraced_plan_ms if step > 0]
    every = [ms for _, ms in untraced_plan_ms]
    iterations = [n for n in layer("qp.solve").notes if n is not None]
    rows = layer("qp.assemble").notes
    grids = durations_ms("world.from_dict")
    verify = layer("verify.verify")
    return {
        "corridor.pairs_ms_per_step": (ms_per_step("corridor.build_pair_separations"), "ms"),
        "corridor.pairs_per_step": (calls_per_step("corridor.build_pair_separations"), "count"),
        "geometry.closest_calls_per_step": (
            calls_per_step("geometry.closest_points_to_origin"), "count"),
        "geometry.closest_ms_per_step": (
            ms_per_step("geometry.closest_points_to_origin"), "ms"),
        "goalplan.goal_ms_p50": (median(durations_ms(GOAL)), "ms"),
        "goalplan.goal_ms_p99": (percentile(durations_ms(GOAL), 99), "ms"),
        "goalplan.self_ms_per_step": (ms_per_step(GOAL, own=True), "ms"),
        "world.astar_calls_per_step": (calls_per_step("world.astar"), "count"),
        "world.astar_ms_per_step": (ms_per_step("world.astar"), "ms"),
        "world.astar_found_ratio": (ratio("world.astar"), "ratio"),
        "world.los_calls_per_step": (calls_per_step("world.line_of_sight_free"), "count"),
        "world.los_ms_per_step": (ms_per_step("world.line_of_sight_free"), "ms"),
        "world.los_clear_ratio": (ratio("world.line_of_sight_free"), "ratio"),
        "corridor.advance_ms_p50": (median(durations_ms("corridor.advance_corridor")), "ms"),
        "world.grow_box_ms_p50": (median(durations_ms("world.grow_free_box")), "ms"),
        "qp.assemble_ms_p50": (median(durations_ms("qp.assemble")), "ms"),
        "qp.solve_ms_p50": (median(durations_ms("qp.solve")), "ms"),
        "qp.solve_ms_p99": (percentile(durations_ms("qp.solve"), 99), "ms"),
        "qp.iterations_mean": (sum(iterations) / len(iterations), "count"),
        "qp.rows_mean": (sum(rows) / len(rows), "count"),
        "qp.fallback_ratio": (ratio(PLAN), "ratio"),
        "planner.first_step_ms_max": (max(first), "ms"),
        "planner.steady_plan_ms_p50": (median(steady), "ms"),
        "planner.plan_ms_p95": (percentile(every, 95), "ms"),
        "planner.plan_ms_max": (max(every), "ms"),
        "planner.self_ms_per_step": (ms_per_step(PLAN, own=True), "ms"),
        "planner.shift_ms_per_step": (ms_per_step(STEP_START), "ms"),
        "world.grid_build_ms": (sum(grids) / len(grids), "ms"),
        "sim.self_ms_per_step": (ms_per_step("sim.run", own=True), "ms"),
        "sim.log_bytes_per_step": (log_bytes / steps, "B"),
        "verify.ms_per_call": (verify.total / 1e6 / verify.calls, "ms"),
        "verify.mb_per_s": (log_bytes / 1e6 / (verify.total / 1e9), "MB/s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def table(layers, wall_s: float) -> list[str]:
    """Human-readable self-time breakdown, largest first."""
    lines = [f"{'layer':40s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s} {'self%':>6s}"]
    for name, item in sorted(layers.items(), key=lambda kv: -kv[1].own):
        lines.append(
            f"{name:40s} {item.calls:9d} {item.total / 1e6:11.1f} "
            f"{item.own / 1e6:11.1f} {100 * item.own / 1e9 / wall_s:6.1f}"
        )
    return lines
