"""Profile the simulator's hot path: top functions for one MF epoch per system.

Future perf PRs should start from data, not guesses: this helper runs one
matrix-factorization epoch per parameter-server variant under ``cProfile``
and prints the top-N functions by cumulative time, so the current bottleneck
distribution is one command away::

    PYTHONPATH=src python benchmarks/profile_hotpath.py
    PYTHONPATH=src python benchmarks/profile_hotpath.py --sort tottime --top 30
    PYTHONPATH=src python benchmarks/profile_hotpath.py --systems classic lapse
    REPRO_DISABLE_FASTPATH=1 PYTHONPATH=src python benchmarks/profile_hotpath.py

For sampling-based profiles of longer runs (no instrumentation skew), run the
same workloads under ``py-spy`` instead — see the "Simulation engine
performance" section of docs/architecture.md.
"""

import cProfile
import io
import pstats
import sys
import time

from benchmark_utils import make_arg_parser

from repro.experiments.runner import MFScale, run_mf_experiment

#: Systems profiled by default (the bench_perf end-to-end set).
DEFAULT_SYSTEMS = ("classic", "classic_fast_local", "lapse", "stale_ssp", "replica", "hybrid")


def profile_system(
    system, scale, sort, top, num_nodes=2, workers_per_node=2,
    seed=0, jobs=1,
):
    """Profile one MF epoch on ``system`` and print the top-``top`` functions."""
    # Warm-up run outside the profile: import costs and lazily built caches
    # (lanes, dispatch tables, epoch plans) would otherwise dominate.
    kwargs = dict(
        num_nodes=num_nodes, workers_per_node=workers_per_node, scale=scale,
        epochs=1, seed=seed, jobs=jobs,
    )
    start = time.perf_counter()
    run_mf_experiment(system, **kwargs)
    warm_seconds = time.perf_counter() - start

    profile = cProfile.Profile()
    profile.enable()
    run_mf_experiment(system, **kwargs)
    profile.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    steps = scale.num_entries
    print(f"\n=== {system}: one MF epoch, {steps} entries, "
          f"jobs={jobs} seed={seed}, "
          f"~{steps / warm_seconds:,.0f} steps/s unprofiled ===")
    # Drop the pstats preamble up to the column header for compact output.
    lines = buffer.getvalue().splitlines()
    header = next(i for i, line in enumerate(lines) if "ncalls" in line)
    print("\n".join(lines[header:]).rstrip())


def main(argv=None):
    # Shared benchmark CLI (--seed/--out/--smoke/--jobs) plus the
    # profiler-specific flags; --out and --smoke are accepted but unused here
    # (the profile is a printed report, not a JSON artifact).
    parser = make_arg_parser(__doc__.splitlines()[0])
    parser.add_argument(
        "--systems", nargs="+", default=list(DEFAULT_SYSTEMS),
        help=f"PS variants to profile (default: {' '.join(DEFAULT_SYSTEMS)})",
    )
    parser.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument("--top", type=int, default=20, help="functions to print (default: 20)")
    parser.add_argument("--entries", type=int, default=2000, help="MF matrix entries")
    args = parser.parse_args(argv)

    scale = MFScale(num_rows=64, num_cols=32, num_entries=args.entries)
    for system in args.systems:
        profile_system(
            system, scale, args.sort, args.top,
            seed=args.seed, jobs=args.jobs,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
