"""Command-line entry points: gen / run / check / export.

Exit codes: 0 success, 1 mission failure (deadlock or timeout), 2 safety
violation reported by the verifier, 3 configuration or format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from swarmplan.errors import LogFormatError, PlannerError, ScenarioGenerationError
from swarmplan.scenarios import Scenario, generate_scenario
from swarmplan.sim import export_csv, run as run_sim
from swarmplan.verify import verify

EXIT_OK = 0
EXIT_MISSION_FAILURE = 1
EXIT_SAFETY_VIOLATION = 2
EXIT_CONFIG_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 3, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swarmplan",
        description="Multi-quadrotor trajectory planning: scenario generation, "
        "synchronized simulation, and offline safety verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["empty", "forest", "indoor", "circle"],
        help="scenario family",
    )
    gen.add_argument("--agents", type=int, required=True, help="number of agents")
    gen.add_argument("--seed", type=int, required=True, help="generation seed")
    gen.add_argument("--out", required=True, help="output scenario JSON path")
    gen.add_argument("--timeout", type=float, default=60.0, help="mission timeout [s]")

    runp = sub.add_parser("run", help="simulate a scenario and verify its logs")
    runp.add_argument("--scenario", required=True, help="scenario JSON path")
    runp.add_argument("--out", required=True, help="log output directory")
    runp.add_argument(
        "--timeout", type=float, default=None, help="override scenario timeout [s]"
    )

    check = sub.add_parser("check", help="verify logs of a finished run")
    check.add_argument("--log", required=True, help="run output directory")

    export = sub.add_parser("export", help="write a run's states as per-agent CSV logs")
    export.add_argument("--log", required=True, help="run output directory")
    return parser


def _cmd_gen(args) -> int:
    try:
        scenario = generate_scenario(
            args.kind, args.agents, args.seed, timeout=args.timeout
        )
    except (ScenarioGenerationError, ValueError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(scenario.to_json() + "\n")
    print(f"wrote {args.kind} scenario with {args.agents} agents to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    path = Path(args.scenario)
    try:
        scenario = Scenario.from_json(path.read_text())
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        metrics = run_sim(scenario, args.out, timeout=args.timeout)
    except (ValueError, PlannerError) as exc:
        print(f"run rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(json.dumps(metrics.to_dict(), sort_keys=True, indent=2))
    if metrics.verified and not metrics.safety_ok:
        return EXIT_SAFETY_VIOLATION
    if not metrics.success:
        return EXIT_MISSION_FAILURE
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        report = verify(args.log)
    except LogFormatError as exc:
        print(f"malformed logs: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_SAFETY_VIOLATION


def _cmd_export(args) -> int:
    try:
        traj_dir = export_csv(args.log)
    except LogFormatError as exc:
        print(f"malformed logs: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"wrote per-agent CSV logs to {traj_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "check": _cmd_check,
        "export": _cmd_export,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
