"""The ``bench_perf.py --compare`` path still reads the committed history.

CI runs the perf smoke benchmark with ``--compare BENCH_PERF.json`` as an
informational step, so a crash in the comparison code would go unnoticed
there.  The committed run history mixes row schemas (older rows carry the
retired ``backend`` and ``real_backend`` keys); loading it and comparing its
runs must keep working.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


@pytest.fixture()
def bench_perf():
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    import bench_perf

    return bench_perf


def test_compare_against_committed_history(bench_perf, capsys):
    report = bench_perf.load_report(os.path.join(ROOT, "BENCH_PERF.json"))
    runs = report["runs"]
    assert runs
    last = runs[-1]
    # A run compared against itself has ratio 1.0 on every cell.
    assert bench_perf.compare_reports(last, last) == 0
    output = capsys.readouterr().out
    assert output.count("compare ") == len(last["end_to_end"])
    # Every older row, whatever its schema, compares against the latest.
    for run in runs:
        assert bench_perf.compare_reports(run, last) >= 0
