"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload mc-deep --seeds 1-10

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their
median, printed next to the metric's bound from ``BENCHMARK.json``. A
benchmark is steady when every spread stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = doc["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m.get("bound") for m in doc["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        figures = " ".join(
            f"{name}={entry['value']:.6g}"
            for name, entry in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{figures}", flush=True)
    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) >= 2 and median else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} {median:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
