"""Benchmark entry point for mmmspace.

    python3 bench/run.py --workload laws --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it first times the workload's set-up (interpreter start,
imports, building or writing the inputs) in fresh interpreters, one after
another: one warm-up that is discarded, then SETUP_REPEATS timed ones whose
median is ``setup_s``.  Then one fresh worker process runs the timed phase
(see ``worker.py``).  With ``--trace 1`` only the worker runs, and it
reports the per-layer metrics.  The last line of standard output is the
result as one JSON object; the worker's full record (rounds, spans) goes to
``.bench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("laws", "distances", "cli")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mmmspace benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "mmmspace" / "__init__.py").is_file():
        print(f"no mmmspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setup_times = []
        if not args.trace:
            for k in range(SETUP_REPEATS + 1):
                t0 = time.perf_counter()
                subprocess.run(base + ["--setup-only"], env=env, cwd=ROOT, check=True,
                               timeout=60, stdout=subprocess.DEVNULL)
                if k:
                    setup_times.append(time.perf_counter() - t0)
        left = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, check=True, timeout=max(left, 10.0),
            stdout=subprocess.PIPE, text=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(record["metrics"])
    if setup_times:
        measured["setup_s"] = statistics.median(setup_times)
        record["setup_times"] = setup_times
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
