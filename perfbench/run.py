"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mf-lapse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced trial).
Exit codes: 0 when every output check passed, 1 when a check failed or the
run raised, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run that has not finished after this many wall seconds is aborted and
#: counted as failed.
RUN_TIMEOUT_S = 170


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S} s")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, as a single-workload run would be."""
    from bench_workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(args.root)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed-trial budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this script's checkout)")
    args = parser.parse_args(argv)

    src = args.root.resolve() / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program under test at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
        from bench_harness import measure, report
        from bench_workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root=args.root)
    except Exception:
        traceback.print_exc()
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 1
    finally:
        signal.alarm(0)
    print(report(result), flush=True)
    print(result.result_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
