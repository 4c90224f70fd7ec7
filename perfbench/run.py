"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there, so nothing needs installing. Workloads and their
parameters are in ``perfbench/config.py``; metric names, units,
directions and regression bounds are in ``BENCHMARK.json``.

``--trace 0`` measures untraced and prints every end-to-end metric. It
makes ``round(seconds / pass_seconds)`` passes (at least 2) over the
workload's seeded inputs, a number that depends on ``--seconds`` alone.
``--trace 1`` runs a fixed prefix of the workload twice untraced and
twice with spans around each layer boundary (``perfbench/spans.py``),
alternating, then once under cProfile, and prints every per-layer
metric; its spans are written to ``.perfbench-out/`` at exit.

A ``--trace 0`` run also times ``SETUP_PROBES`` fresh processes from
start to the first decodable frame, spread evenly through its passes
(between units or served passes) so that they sample the same host
conditions as the measurement; ``setup_s`` is their median. End-to-end
timings are scaled to the reference host speed measured inside the run
(see ``perfbench/workloads.py``); the report prints them as measured
too. Every run records a host-speed reference at its start and end. A
human-readable
report precedes the result; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when the run completed,
whatever ``correct`` says.
"""

from __future__ import annotations

import os

# Serial by design: one process, no BLAS worker threads. Set before
# NumPy is imported, here and in every setup probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def _program_on_path() -> None:
    """Make ``perfbench`` and the program under ``src/`` importable."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {src}")
    sys.path[:0] = [str(ROOT), str(src)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set up, print the monotonic clock, exit",
    )
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first decodable frame."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-probe",
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - started


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report(lines: list[tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in lines)
    for name, value, unit in lines:
        print(f"  {name.ljust(width)}  {value:14.6g}  {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    _program_on_path()
    from perfbench.config import (
        DEFAULT_SEED,
        SETUP_PROBES,
        TAIL_MIN_BEYOND,
        WORKLOADS,
    )

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    seed = DEFAULT_SEED if args.seed is None else args.seed
    params = WORKLOADS[args.workload]

    from perfbench.workloads import make_workload

    if args.setup_probe:
        make_workload(args.workload, params, seed).setup()
        print("ready", repr(time.monotonic()))
        return 0

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    seconds = doc["run_seconds"] if args.seconds is None else args.seconds

    from perfbench.stats import host_ref_ops_per_s
    from perfbench.workloads import (
        end_to_end,
        layer_metrics,
        pass_count,
        served_figures,
    )

    host_refs = [host_ref_ops_per_s()]
    workload = make_workload(args.workload, params, seed)
    workload.setup()
    extra: list[tuple[str, float, str]] = []
    if args.trace:
        traced = workload.traced()
        metrics = layer_metrics(traced)
        attempted, failed = traced.attempted, traced.failed
        names = [entry["name"] for entry in doc["per_layer"]]
        path = OUT_DIR / f"spans-{args.workload}-seed{seed}.json"
        traced.recorder.write(path)
        extra.append(("spans written", len(traced.recorder.spans), str(path)))
    else:
        passes = pass_count(seconds, params["pass_seconds"])
        setups: list[float] = []

        def probe(step: int, steps: int) -> None:
            # Probe k runs before step k * steps // SETUP_PROBES.
            for k in range(SETUP_PROBES):
                if k * steps // SETUP_PROBES == step:
                    setups.append(_probe_setup(args.workload, seed))

        m = workload.measure(passes, between=probe)
        metrics, notes = end_to_end(m, TAIL_MIN_BEYOND)
        metrics["setup_s"] = statistics.median(setups) * m.scale
        notes.insert(2, ("setup_s as timed", statistics.median(setups), "s"))
        metrics["peak_rss_mb"] = _peak_rss_mb()
        attempted, failed = m.attempted, m.failed
        names = [entry["name"] for entry in doc["end_to_end"]]
        extra.extend(notes)
        if m.served:
            for name, value in served_figures(m.served).items():
                extra.append((name, value, units[name]))
            extra.append(("serve SLO on p95", params["slo_s"] * 1e3, "ms"))
    host_refs.append(host_ref_ops_per_s())
    metrics["host.ref_ops_per_s"] = statistics.median(host_refs)

    print(f"== perfbench {args.workload} seed={seed} trace={args.trace} ==")
    rows = [(name, metrics[name], units[name]) for name in names]
    rows.append(("failed_frac", failed / max(attempted, 1), "ratio"))
    if "host.ref_ops_per_s" not in names:
        rows.append(("host.ref_ops_per_s", metrics["host.ref_ops_per_s"], "1/s"))
    _report(rows + extra)
    result_doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in names
        },
    }
    print(json.dumps(result_doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
