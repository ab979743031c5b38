"""Interleaved A/B of this checkout against another, with identical benchmark code.

Usage, from the root of the checkout holding this script::

    python3 perfbench/ab.py --base ../parent-checkout --workload mf-lapse --pairs 10

Each pair runs this directory's ``run.py`` once against ``--base``'s ``src/``
and once against this checkout's, alternating which side goes first, with
the pair index as the seed and ``run_seconds`` from ``BENCHMARK.json`` (the
run length its bounds were set on).  For every end-to-end
metric it prints each side's median and quartiles, how many pairs the head
won, and a verdict:

* ``gain``: the head won at least 9 of 10 pairs and the medians differ by
  more than the base's own quartile spread;
* ``regression``: the head's median is worse than the base's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the base's own spread is wider than the bound, unless
  every head run reads better than every base run;
* ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--root", str(root)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{root}: run failed (exit {out.returncode}):\n{out.stdout}{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(base, head, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    spread = quartile_spread(base)
    mb, mh = statistics.median(base), statistics.median(head)
    if wins >= 0.9 * len(base) and sign * (mh - mb) > spread * mb:
        return "gain"
    if sign * (mh - mb) < -bound * abs(mb):
        return "regression"
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}

    base, head = [], []
    for pair in range(args.pairs):
        sides = [(args.base.resolve(), base), (ROOT, head)]
        for root, runs in sides if pair % 2 == 0 else reversed(sides):
            runs.append(run_side(root, args.workload, pair, bench["run_seconds"]))
        print(f"pair {pair} done", file=sys.stderr)

    print(f"{'metric':<16} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} "
          f"{'head wins':>9}  verdict")
    for name, m in spec.items():
        b = [run[name] for run in base]
        h = [run[name] for run in head]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
        qb, qh = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        print(f"{name:<16} {qb[1]:>12.6g} [{qb[0]:.4g}, {qb[2]:.4g}] "
              f"{qh[1]:>12.6g} [{qh[0]:.4g}, {qh[2]:.4g}] {wins:>5}/{len(b)}  "
              f"{verdict(b, h, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
