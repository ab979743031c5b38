"""One benchmark run: timed trials, output checks, optional traced trial.

The end-to-end metrics come from untraced trials only; the traced trial
(``trace=True``) runs after them and gives the per-layer split.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from bench_layers import layer_metrics, traced_trial
from bench_stats import median, summarize, throughput
from bench_workloads import (
    WORKLOADS,
    Check,
    compare,
    output_checks,
    run_trial,
    setup_trial,
    train_trial,
)

#: Timed trials per run, at least, however long they take.
MIN_TRIALS = 3

#: Set-ups timed per trial (the trial trains on the last one).
SETUP_SAMPLES = 3

#: Iterations of the host-speed probe.
PROBE_STEPS = 6000

#: The probe's wall time on the reference host (2-core 2 GHz x86-64,
#: Python 3.11, NumPy 2.4).  ``setup_s`` is given in the reference host's
#: seconds: measured set-up time x this / the probe time around it.
REFERENCE_PROBE_S = 0.03

#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "samples_per_probe": "samples/probe",
    "train_wall_probes": "probes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_epoch_s": "sim_s",
    "remote_messages": "count",
    "final_loss": "loss",
}

#: Raw wall-clock series printed beside them, not gated: name -> unit.
WALL_CLOCK_UNITS = {
    "samples_per_s": "samples/s",
    "train_wall_s": "s",
    "setup_wall_s": "s",
    "host_probe_s": "s",
}


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def host_probe(steps: int = PROBE_STEPS) -> float:
    """Wall time of a fixed loop shaped like the program's hot paths.

    Heap-ordered events, a generator resumed per step, small objects, and
    Python-level arithmetic on small NumPy rows -- none of it from the
    program under test.  Its time tracks how fast this host runs such code
    at the moment, so training time divided by the probes run between its
    epochs cancels most of the host's drift.  The cyclic garbage collector
    is off while it runs, so its time does not depend on how many objects
    the program under test holds alive.
    """
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(64, 8))
    rows = rng.normal(size=(512, 8))
    heap: list = []
    last = {}

    def consumer():
        total = 0.0
        while True:
            total += yield total

    resume = consumer()
    next(resume)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(steps):
            row = rows[i % 512]
            col = cols[i % 64]
            error = float(row @ col) - 0.5
            rows[i % 512] = row - 0.01 * (error * col)
            heapq.heappush(heap, (i * 0.5 % 7.0, i, _ProbeItem(i, error)))
            if len(heap) > 256:
                heapq.heappop(heap)
            resume.send(error)
            last[i & 1023] = error
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction")):
        return "fraction"
    if name.endswith("_per_localize"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def git_rev(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class RunResult:
    workload: str
    seed: int
    checks: List[Check]
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    timings: Dict[str, Dict[str, Any]]
    manifest: Dict[str, Any]
    #: Per-layer metrics of the traced trial (None without ``trace``).
    per_layer: Optional[Dict[str, float]] = None

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)

    def result_line(self) -> str:
        """The final JSON line: per-layer metrics when traced, else end-to-end."""
        if self.per_layer is not None:
            metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in self.per_layer.items()}
        else:
            metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in self.end_to_end.items()}
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Any = None,
    root: Optional[Path] = None,
) -> RunResult:
    """Run ``workload_name`` for ``seconds`` of timed trials and check its outputs."""
    workload = WORKLOADS[workload_name]
    scale = scale or workload.scale
    # The first trial warms the process up and is kept whole: every check
    # compares against its outputs.  It is not timed.
    baseline = run_trial(workload, seed, scale)
    expected = baseline.fingerprint()
    repeat = Check("timed trials repeat the first", True)
    trials = []
    setup_walls: List[float] = []
    start = time.perf_counter()

    def probe() -> float:
        """One host probe of the workload's length, in standard-probe time."""
        return host_probe(PROBE_STEPS * workload.probe_repeats) / workload.probe_repeats

    # Each timed trial is set up SETUP_SAMPLES times in a row and trained
    # once, on the last set-up.  A host probe runs before the set-ups, after
    # them and after every epoch: each set-up time is divided by the mean of
    # the two probes around the set-ups, the training time by the mean of the
    # probes from the one after the set-ups to the one after the last epoch.
    probes = [probe()]
    ratios = []
    setup_ratios = []
    while len(trials) < MIN_TRIALS or time.perf_counter() - start < seconds:
        walls = []
        for _ in range(SETUP_SAMPLES):
            # Collect the previous set-up's or trial's reference cycles
            # outside the timed region, so none pays for another's garbage.
            gc.collect()
            trial = setup_trial(workload, seed, scale)
            walls.append(trial.setup_s)
        probes.append(probe())
        around = statistics.fmean(probes[-2:])
        setup_walls.extend(walls)
        setup_ratios.extend(wall / around for wall in walls)
        first = len(probes) - 1
        train_trial(trial, after_epoch=lambda: probes.append(probe()))
        ratios.append(trial.train_wall_s / statistics.fmean(probes[first:]))
        if repeat.ok:
            repeat = compare("timed trials repeat the first", expected, trial.fingerprint())
        trial.release()
        trials.append(trial)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [repeat]
    checks.extend(output_checks(workload, seed, scale, baseline))

    effective_jobs = getattr(baseline.ps, "_last_effective_jobs", 1)
    checks.append(Check("effective_jobs == 1", effective_jobs == 1, f"effective_jobs={effective_jobs}"))

    per_epoch = baseline.samples_per_epoch
    series = {
        "samples_per_probe": [throughput(per_epoch, workload.epochs, r) for r in ratios],
        "train_wall_probes": ratios,
        "setup_s": [REFERENCE_PROBE_S * r for r in setup_ratios],
        "samples_per_s": [throughput(per_epoch, workload.epochs, t.train_wall_s) for t in trials],
        "train_wall_s": [t.train_wall_s for t in trials],
        "setup_wall_s": setup_walls,
        "host_probe_s": probes,
    }
    end_to_end: Dict[str, float] = {
        "samples_per_probe": median(series["samples_per_probe"]),
        "train_wall_probes": median(ratios),
        "setup_s": median(series["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        "sim_epoch_s": baseline.sim_epoch_s(),
        "remote_messages": expected.remote_messages,
        "final_loss": baseline.final_loss(),
    }
    timings = {name: summarize(values) for name, values in series.items()}
    per_layer = None
    if trace:
        trial, wall, tracer = traced_trial(workload, seed, scale)
        checks.append(compare("traced run fingerprint", expected, trial.fingerprint()))
        untraced = median([t.setup_s + t.train_wall_s for t in trials])
        per_layer = layer_metrics(trial, wall, tracer, untraced)

    # A failed output check (a lost key included) fails every operation.
    attempted = baseline.attempted_ops() * (1 + len(trials))
    failed = 0 if all(check.ok for check in checks) else attempted
    manifest = {
        "workload": workload_name,
        "seed": seed,
        "scale": asdict(scale),
        "epochs": workload.epochs,
        "timed_trials": len(trials),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(root) if root is not None else "unknown",
        "requested_jobs": 1,
        "effective_jobs": effective_jobs,
        "fallback_reason": getattr(baseline.ps, "_last_fallback_reason", None),
        "error_rate": failed / attempted if attempted else 0.0,
    }
    return RunResult(workload_name, seed, checks, attempted, failed, end_to_end,
                     timings, manifest, per_layer)


def _timing_note(timing: Dict[str, Any]) -> str:
    tail = (f"p{timing['tail_p']:g}={timing['tail']:.6g}" if timing["tail_p"] is not None
            else "no tail percentile (<20 samples)")
    return f"  (median of n={timing['n']}; {tail})"


def report(result: RunResult) -> str:
    """Human-readable lines printed before the result line."""
    lines = [f"workload {result.workload} seed {result.seed}: "
             f"{result.manifest['timed_trials']} timed trials"]
    for name, value in result.end_to_end.items():
        line = f"  {name:<36} {value:>16.6g} {END_TO_END_UNITS[name]}"
        if name in result.timings:
            line += _timing_note(result.timings[name])
        lines.append(line)
    lines.append(f"  {'error_rate':<36} {result.manifest['error_rate']:>16.6g} fraction"
                 f"  ({result.failed} of {result.attempted} PS ops failed)")
    lines.append("wall clock (reported, not gated: the host's speed drifts between runs):")
    for name, unit in WALL_CLOCK_UNITS.items():
        timing = result.timings[name]
        lines.append(f"  {name:<36} {timing['median']:>16.6g} {unit}" + _timing_note(timing))
    if result.per_layer is not None:
        wall = result.per_layer["trace.wall_s"]
        lines.append(f"traced trial, {wall:.4g} s wall:")
        for name, value in result.per_layer.items():
            share = f"  {100 * value / wall:5.1f}% of traced wall" if name.endswith("self_s") else ""
            lines.append(f"  {name:<36} {value:>16.6g} {per_layer_unit(name)}{share}")
    for check in result.checks:
        status = "ok  " if check.ok else "FAIL"
        lines.append(f"  check {status} {check.name}" + (f": {check.detail}" if check.detail and not check.ok else ""))
    lines.append("manifest " + json.dumps(result.manifest, sort_keys=True))
    return "\n".join(lines)
