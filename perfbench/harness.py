"""Workload runs: the end-to-end run and the traced run."""

from __future__ import annotations

import resource
from pathlib import Path

from swarmplan import verify as verify_mod

from layers import accounting, layer_metrics, summarize, table
from missions import discard, probe_setup, run_mission
from stats import TooFewSamples, median, min_samples, percentile
from tracing import LAYERS, TIMERS, Tracer
from workloads import NOMINAL_MISSION_S, SIM_WORKLOADS, mission_seed

#: sim.run set-ups probed per end-to-end run, on top of each mission's own.
SETUP_PROBES = 25
#: Tail percentile of plan_step latency. On indoor-8 about 0.9% of calls
#: are first steps with distance-field fills, so p99 sits on the edge
#: between those and the A* tail and jumps between them from seed to seed;
#: p99.5 stays inside the first-step population.
PLAN_TAIL = 99.5


class Bench:
    """One benchmark run: its work directory, output lines and gate."""

    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
        self.lines: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.missions_run = 0

    def run(self) -> dict:
        """Metrics as name -> (value, unit, sample count or None)."""
        discard(self.work)
        try:
            return self.traced() if self.args.trace else self.end_to_end()
        finally:
            discard(self.work)

    def scenario(self, index):
        build = SIM_WORKLOADS[self.args.workload]
        return build(mission_seed(self.args.seed, index))

    def mission(self, scenario, tracer, run_id, tag):
        """Run one mission, gate it, and verify its logs a second time: the
        verdict and minimum distances must repeat."""
        out = self.work / f"{tag}{run_id}"
        m = run_mission(
            scenario, out, tracer, run_id, f"{self.args.workload}/{tag}{run_id}",
            first_in_process=self.missions_run == 0,
        )
        self.missions_run += 1
        report = verify_mod.verify(out)
        again = (
            report.ok,
            tuple(report.violations),
            report.min_inter_agent_distance,
            report.min_obstacle_clearance,
        )
        if again != m.verdict:
            m.problems.append(f"second verify disagrees: {again} vs {m.verdict}")
        discard(out)
        self.lines.append(m.line())
        self.problems += [f"{m.label}: {p}" for p in m.problems]
        self.attempted += m.agent_steps
        self.failed += m.failed_ops
        return m

    # -- end-to-end run ------------------------------------------------------

    def end_to_end(self):
        """A fixed number of missions for the workload and --seconds, back to
        back, with only the end-to-end timers installed."""
        args = self.args
        count = max(1, round(args.seconds / NOMINAL_MISSION_S[args.workload]))
        first = self.scenario(0)
        setups = [probe_setup(first, self.work / "probe") for _ in range(SETUP_PROBES)]
        timers = Tracer(TIMERS)
        missions = []
        while len(missions) < count or sum(len(m.plan_ms) for m in missions) < min_samples(PLAN_TAIL):
            index = len(missions)
            scenario = first if index == 0 else self.scenario(index)
            missions.append(self.mission(scenario, timers, index, "m"))
            timers.spans.clear()

        agent_steps = sum(m.agent_steps for m in missions)
        plan = [ms for m in missions for _, ms in m.plan_ms]
        setups += [m.setup_s for m in missions]
        self.warmup_lines(missions)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        n = len(missions)
        return {
            "agent_steps_per_s": (
                agent_steps / sum(m.wall_s for m in missions), "1/s", agent_steps
            ),
            "plan_ms_p50": (median(plan), "ms", len(plan)),
            "plan_ms_p99.5": (percentile(plan, PLAN_TAIL), "ms", len(plan)),
            "verdict_ms_p50": (median([m.verify_ms for m in missions]), "ms", n),
            "setup_s": (median(setups), "s", len(setups)),
            "peak_rss_mb": (peak_kb / 1024, "MB", 1),
            "success_rate": (sum(m.success for m in missions) / n, "ratio", n),
            "mission_sim_s": (median([m.sim_s for m in missions]), "s", n),
        }

    def warmup_lines(self, missions):
        """Step-0 plan_step latency apart from the steady state."""
        for label, keep in (("first_step", lambda s: s == 0), ("steady", lambda s: s > 0)):
            values = [ms for m in missions for s, ms in m.plan_ms if keep(s)]
            try:
                p95 = f"{percentile(values, 95):.2f}"
            except TooFewSamples:
                p95 = "n/a"
            self.lines.append(
                f"plan_step {label}: n={len(values)} p50_ms={median(values):.2f} "
                f"p95_ms={p95} max_ms={max(values):.2f}"
            )

    # -- traced run ------------------------------------------------------------

    def traced(self):
        """Run missions untraced until they hold 1000 plan calls, then the
        same missions traced; report per-layer metrics."""
        timers = Tracer(TIMERS)
        scenarios, plain = [], []
        while sum(len(m.plan_ms) for m in plain) < min_samples(99):
            scenarios.append(self.scenario(len(scenarios)))
            plain.append(self.mission(scenarios[-1], timers, len(plain), "u"))

        full = Tracer(LAYERS)
        traced = [self.mission(sc, full, i, "t") for i, sc in enumerate(scenarios)]
        for u, t in zip(plain, traced):
            same = u.digest == t.digest
            self.lines.append(f"digest {t.label}: traced==untraced {same}")
            if not same:
                self.problems.append(f"{t.label}: traced run changed steps.jsonl")
        walls = {i: m.wall_s for i, m in enumerate(traced)}
        sums, orphans = accounting(full.spans, walls)
        self.problems += orphans
        for run_id, (total, wall) in sums.items():
            self.lines.append(
                f"accounting run {run_id}: span self times sum to {total:.4f} s, "
                f"sim.run wall {wall:.4f} s"
            )
            if abs(total - wall) > 0.01 * wall:
                self.problems.append(f"run {run_id}: self times miss the wall by over 1%")

        layers = summarize(full.spans)
        traced_wall = sum(walls.values())
        self.lines += table(layers, traced_wall)
        path = self.root / ".perfbench_work" / "traces" / (
            f"{self.args.workload}-seed{self.args.seed}.jsonl.gz"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        full.dump(path)
        self.lines.append(f"spans: {len(full.spans)} written to {path}")
        metrics = layer_metrics(
            layers,
            steps=sum(m.steps for m in traced),
            untraced_plan_ms=[p for m in plain for p in m.plan_ms],
            log_bytes=sum(m.log_bytes for m in traced),
            overhead=traced_wall / sum(m.wall_s for m in plain),
        )
        return {name: (value, unit, None) for name, (value, unit) in metrics.items()}
