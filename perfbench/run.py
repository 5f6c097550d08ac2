"""flowsel benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload grid-cold --seed 3 --seconds 20 --trace 0

Run from the root of a flowsel source tree; the package is imported from
its ``src`` directory.  Set-up runs SETUPS times, each in a fresh child
interpreter, and ``setup_s`` is the median of their wall times.  The
timed part then repeats whole rounds of the workload in this process
until ``--seconds`` have passed, each round in a fresh output directory
(grid-warm reuses the warm cache of its set-up); ``wall_s`` is the median
round.  With ``--trace 1`` the rounds alternate between plain and traced,
and the per-layer metrics and tracing overhead are reported instead.
Outputs are checked after the timed part.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUPS = 3
SETUP_TIMEOUT_S = 120
# One thread per process: BLAS threads contending for two shared cores make
# timings noisy, and the workloads' matrices are small.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("search-seeds", "grid-cold", "grid-warm", "ingest"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_setups(workload: str, seed: int, run_dir: str) -> tuple[list[float], str]:
    env = dict(os.environ, **THREAD_ENV)
    times = []
    for i in range(SETUPS):
        directory = os.path.join(run_dir, f"setup{i}")
        start = perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "fixtures.py"), workload,
                        str(seed), directory],
                       check=True, env=env, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - start)
    return times, directory


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def timed_rounds(rnd, seconds: float, run_dir: str, tracer=None):
    """Repeat whole rounds until ``seconds`` have passed.  With a tracer,
    even rounds run plain and odd rounds traced, at least one of each."""
    plain, traced, kept = [], [], []
    attempted = failed = 0
    artifact_bytes = 0
    start = perf_counter()
    index = 0
    while True:
        out_dir = os.path.join(run_dir, f"round{index}")
        use_tracer = tracer is not None and index % 2 == 1
        t0 = perf_counter()
        if use_tracer:
            with tracer:
                f, output = rnd.run(index, out_dir)
        else:
            f, output = rnd.run(index, out_dir)
        wall = perf_counter() - t0
        (traced if use_tracer else plain).append(wall)
        if use_tracer and rnd.artifacts(output):
            artifact_bytes += dir_bytes(rnd.artifacts(output))
        kept.append(rnd.keep(output))
        attempted += rnd.ops
        failed += f
        index += 1
        if perf_counter() - start >= seconds and (tracer is None or traced):
            break
    return plain, traced, kept, attempted, failed, artifact_bytes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowsel", "__init__.py")):
        print(f"error: no flowsel package under {SRC}; run from a flowsel source tree",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import flowsel

    if os.path.dirname(os.path.abspath(flowsel.__file__)) != os.path.join(SRC, "flowsel"):
        print(f"error: imported flowsel from {flowsel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_times, setup_dir = run_setups(args.workload, args.seed, run_dir)
        rnd = workloads.ROUNDS[args.workload](setup_dir, args.seed)
        tracer = Tracer() if args.trace else None
        plain, traced, kept, attempted, failed, artifact_bytes = timed_rounds(
            rnd, args.seconds, run_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            errors = rnd.check(kept)
        except Exception as exc:  # an output too malformed to check is a failed check
            errors = [f"check raised {exc!r}"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)} plain and {len(traced)} traced rounds; "
          f"setups {[round(t, 3) for t in setup_times]} s; "
          f"rounds {[round(t, 3) for t in plain + traced]} s", file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = tracer.metrics(artifact_bytes, overhead)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
