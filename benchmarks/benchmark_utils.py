"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper on scaled-down
synthetic workloads (see DESIGN.md for the substitution rationale).  The
benchmarks print the regenerated rows/series and assert the *shape* of the
paper's findings (who wins, roughly by how much, where crossovers lie) rather
than absolute numbers.

All benchmarks use 2 simulated worker threads per node (the paper uses 4) and
the parallelism levels 1, 2, 4 and 8 nodes, matching the paper's x-axes.
"""

import argparse
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Repository root (where the standalone benchmarks write their JSON reports).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Worker threads per simulated node used by all benchmarks.
WORKERS_PER_NODE = 2

#: Node counts swept by the figure benchmarks (the paper uses 1, 2, 4, 8).
PARALLELISM = (1, 2, 4, 8)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def make_arg_parser(description, default_out=None):
    """Shared CLI for the standalone (non-pytest) benchmark scripts.

    Every script gets the same four flags instead of hand-rolling them:

    * ``--seed`` — base random seed forwarded to the workload generators,
    * ``--out`` (alias ``--output``) — where to write the JSON report,
    * ``--smoke`` — CI-sized run: small workloads, full correctness checks,
    * ``--jobs`` — shard count for the parallel simulation engine
      (``repro.simnet.parallel``); ``1`` (default) keeps the sequential
      kernel, ``N > 1`` forks the simulated nodes across N processes with
      bit-identical results.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--seed", type=int, default=0, help="base random seed (default: 0)"
    )
    parser.add_argument(
        "--out",
        "--output",
        dest="out",
        default=default_out,
        help=f"where to write the JSON report (default: {default_out})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: small workloads, fewer repeats, full correctness checks",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard count for the parallel simulation engine (default: 1 = "
        "sequential kernel; N > 1 forks simulated nodes across N processes)",
    )
    return parser
