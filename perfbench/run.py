"""swarmplan benchmark.

    python3 perfbench/run.py --workload indoor-8 --seed 1 --seconds 20 --trace 0

Drives swarmplan only through its public functions, from one process with
one planner thread, running missions back to back in a closed loop. Prints
one line per mission (with the SHA-256 of its steps.jsonl), one line per
metric with unit and sample count, and as the last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run repeats its
missions with every layer boundary traced and reports per-layer metrics.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# One BLAS thread: the planner's matrices are small, a second thread only
# contends for the other core, and steps.jsonl digests are identical either
# way. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_line() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"machine nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
        f"cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} planner_threads=1"
    )


def main(argv=None) -> int:
    if not (ROOT / "src" / "swarmplan" / "__init__.py").is_file():
        print(f"error: no swarmplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import Bench
    from workloads import SIM_WORKLOADS

    args = parse_args(argv, sorted(SIM_WORKLOADS))

    bench = Bench(args, ROOT)
    print(machine_line())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    metrics = bench.run()
    for line in bench.lines:
        print(line)
    for name, (value, unit, n) in metrics.items():
        count = "" if n is None else f" n={n}"
        print(f"metric {name} = {value!r} {unit}{count}")
    for problem in bench.problems:
        print(f"gate failure: {problem}")
    print(f"failed_ratio = {bench.failed}/{bench.attempted}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
