"""Run one benchmark workload in this process and print its result.

    python3 bench/worker.py --workload laws --seed 1 --seconds 10 --trace 0 \
        --workdir .bench_work/laws-seed1 [--setup-only]

`run.py` starts this script once per set-up sample (``--setup-only``) and
once for the timed phase.  BLAS and OpenMP pools are set to one thread
before numpy is imported.  The timed phase runs whole rounds until
``--seconds`` have passed; round 1 is checked and serves as the warm-up,
and the medians are over the rounds after it.  With ``--trace 1`` the
rounds alternate untraced and traced, and one more round runs with
tracemalloc on for the ``peak_mib`` metrics.  The last line of standard
output is one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import mmmspace  # noqa: E402

from tracer import Tracer, finish_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Layers whose work happens while the inputs are built: their traced
# set-up values are added to the per-round medians.
SETUP_LAYERS = ("gen.", "serialize.")
MIN_ROUNDS = 4
MAX_ERRORS = 20


class Runner:
    """Times program calls and counts them as operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.wall = 0.0
        self.cpu = 0.0

    def call(self, fn, *args, expect=None, **kwargs):
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failing operation is counted, not fatal
            result = None
            self.note(traceback.format_exc(limit=3))
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0
        if result is None or (expect is not None and not expect(result)):
            self.failed += 1
            if result is not None:
                self.note(f"{getattr(fn, '__name__', fn)}{args} -> {result!r}"[:500])
            return None
        return result

    def note(self, error: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(error)

    def take(self):
        wall, cpu, self.wall, self.cpu = self.wall, self.cpu, 0.0, 0.0
        return wall, cpu


def median_values(rounds: list) -> dict:
    keys = sorted({k for r in rounds for k in r})
    return {k: statistics.median(r.get(k, 0) for r in rounds) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(mmmspace.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"mmmspace imported from {mmmspace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    if tracer:
        tracer.install()
    inputs = workload.setup(args.seed, args.workdir)
    if args.setup_only:
        return 0
    setup_values = {}
    if tracer:
        setup_values = {k: v for k, v in finish_round(tracer.take()).items()
                        if k.startswith(SETUP_LAYERS)}
        tracer.uninstall()

    runner = Runner()
    failures: list = []
    plain: list = []  # (wall, cpu) of the untraced rounds after round 1
    traced: list = []  # wall of the traced rounds
    traced_values: list = []
    first = out = None
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            tracer.install()
        out = workload.run_round(inputs, runner.call)
        wall, cpu = runner.take()
        if tracing:
            traced_values.append(finish_round(tracer.take()))
            tracer.uninstall()
            traced.append(wall)
        elif k > 0:
            plain.append((wall, cpu))
        if k == 0:
            try:
                failures += workload.check(inputs, out)
            except Exception:  # a check that cannot run is a failed check
                failures.append("checks raised:\n" + traceback.format_exc(limit=5))
            first = workload.fingerprint(out)
        elif workload.fingerprint(out) != first:
            failures.append(f"round {k + 1} outputs differ from round 1")
        k += 1
        enough = k >= (2 * MIN_ROUNDS if tracer else MIN_ROUNDS)
        if enough and time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rounds": k, "round_walls": [w for w, _ in plain],
              "round_cpus": [c for _, c in plain]}
    wall_s = statistics.median(w for w, _ in plain)
    if tracer:
        tracemalloc.start()
        tracer.memory = True
        tracer.install()
        out = workload.run_round(inputs, runner.call)
        runner.take()
        peaks = {key: v for key, v in tracer.take().items() if key.endswith(".peak_mib")}
        tracer.uninstall()
        tracemalloc.stop()
        if workload.fingerprint(out) != first:
            failures.append("the tracemalloc round's outputs differ from round 1")
        metrics = median_values(traced_values)
        for key, value in setup_values.items():
            metrics[key] = metrics.get(key, 0) + value
        metrics.update(peaks)
        metrics["trace.overhead_s"] = statistics.median(traced) - wall_s
        result["traced_walls"] = traced
        result["spans"] = tracer.spans
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mib": peak_rss_mib,
            "mgp_gap": workload.gap(inputs, out),
        }
    result.update(correct=not failures, attempted=runner.attempted, failed=runner.failed,
                  failures=failures, errors=runner.errors, metrics=metrics)
    for line in failures + runner.errors:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
