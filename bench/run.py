"""The repo benchmark: one command, four workloads, every metric by name.

Usage::

    python3 bench/run.py --seed 7                 # all workloads, both passes
    python3 bench/run.py --smoke                  # plumbing check, ~1/20 of the steps
    python3 bench/run.py --workload halo-ib-64r --seed 3 --seconds 12 --trace 0

Without ``--trace`` each selected workload runs twice, each time in a
fresh interpreter (``worker.py``) with BLAS pinned to one thread: first
untraced for the end-to-end metrics, then traced for the per-layer
metrics.  Every metric is printed by name with its unit and sample
count, and the whole record goes to ``bench/out/results.json`` for
``compare.py``.

With ``--trace 0|1`` (the form a benchmark driver uses) exactly one pass
of one workload runs and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` (``--trace 0``) or every ``per_layer`` (``--trace 1``)
metric that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: This numpy links a 64-thread OpenBLAS; unpinned, its pool oversubscribes
#: the two cores the executor's workers are meant to have.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKER_TIMEOUT_S = 170


def run_worker(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One pass of one workload in a fresh, pinned interpreter."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", str(OUT_DIR / f"{name}.trace.json")]
    proc = subprocess.run(
        cmd, env={**os.environ, **PINNED_ENV}, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload {name} (trace={trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def contract_line(bench: dict, result: dict, trace: int) -> str:
    """The driver's result object for one pass."""
    if trace:
        values, declared = result["per_layer"], bench["per_layer"]
    else:
        values, declared = result["end_to_end"], bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_pass(bench: dict, result: dict, per_layer: bool) -> None:
    samples = result["samples"]
    counts = {
        "setup_s": samples["setups"], "ms_per_step": samples["steps"] + samples["rebuilds"],
        "step_ms_p50": samples["steps"], "ns_ms_p50": samples["rebuilds"],
    }
    name = result["workload"]
    if not per_layer:
        for m in bench["end_to_end"]:
            n = counts.get(m["name"])
            suffix = f"  (n={n})" if n else ""
            print(f"{name:<20} {m['name']:<38} {result['end_to_end'][m['name']]:>14.4f} {m['unit']}{suffix}")
        print(
            f"{name:<20} {'fail_frac':<38} {result['fail_frac']:>14.4f} frac"
            f"  (ops_attempted={result['attempted']} ops_failed={result['failed']})"
        )
        for note in result["failures"]:
            print(f"{name:<20} FAILED: {note}")
    else:
        for m in bench["per_layer"]:
            print(f"{name:<20} {m['name']:<38} {result['per_layer'][m['name']]:>14.4f} {m['unit']}")
    sys.stdout.flush()


def workload_record(bench: dict, untraced: list[dict], traced: dict) -> dict:
    """One workload's entry in results.json.

    End-to-end values come from the untraced passes, or from the traced
    pass when there are none (``--smoke``).
    """
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    runs = untraced + [traced]
    passes = untraced or [traced]
    return {
        "end_to_end": {
            m: {
                "unit": units[m],
                "values": [r["end_to_end"][m] for r in passes],
                "median": statistics.median(r["end_to_end"][m] for r in passes),
            }
            for m in passes[0]["end_to_end"]
        },
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "samples": passes[0]["samples"],
        "per_layer": {m: {"unit": units[m], "value": v} for m, v in traced["per_layer"].items()},
        # Identical between two runs of one commit on one seed, or
        # compare.py reports the pair as different programs.
        "exact": {
            **traced["exact"],
            "traj_digest": [r["exact"]["traj_digest"] for r in runs],
            "steps": [r["exact"]["steps"] for r in runs],
        },
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds make_system, the backend seed and the halo RNG")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="length of the timed window the step counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass only and end with the driver's JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="one nstlist cycle per window, one set-up, traced pass only")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced passes per workload (run-to-run spread for compare.py)")
    parser.add_argument("--out", default=str(OUT_DIR / "results.json"))
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        print_pass(bench, result, per_layer=bool(args.trace))
        print(contract_line(bench, result, args.trace))
        return 0

    record = {
        "schema": 1,
        "provenance": {
            "git_sha": git_sha(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "pinned_env": PINNED_ENV,
        },
        "workloads": {},
    }
    failed = 0
    for name in [args.workload] if args.workload else names:
        # The smoke pass takes both kinds of metric from one traced run.
        untraced = [
            run_worker(name, args.seed, args.seconds, 0, False)
            for _ in range(0 if args.smoke else args.repeats)
        ]
        traced = run_worker(name, args.seed, args.seconds, 1, args.smoke)
        for result in untraced or [traced]:
            print_pass(bench, result, per_layer=False)
        print_pass(bench, traced, per_layer=True)
        record["workloads"][name] = workload_record(bench, untraced, traced)
        failed += record["workloads"][name]["failed"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
