"""Benchmark launcher for cvkaf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds nothing: the program is the Python
package under ``src/``. The launcher pins BLAS to one thread, generates the
seeded inputs in one child process, measures in a second child that runs
only program calls, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``. Work files go to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, both children included

# Pinned in the environment of every child; one thread keeps a 2-core host
# from sharing BLAS work with whatever else runs on it.
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cvkaf benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cvkaf" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a cvkaf checkout; {ROOT}/src/cvkaf or BENCHMARK.json "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_THREADS)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work", str(work)]
    deadline = time.monotonic() + DEADLINE_S
    for mode in (["generate"], ["measure", "--trace", str(args.trace)]):
        cmd = [sys.executable, str(HERE / "worker.py"), *mode, *common]
        try:
            done = subprocess.run(cmd, env=env, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: {mode[0]} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
            return 3
        if done.returncode != 0:
            print(f"error: {mode[0]} exited with {done.returncode}", file=sys.stderr)
            return 3

    result = json.loads((work / "measure.json").read_text(encoding="utf-8"))
    summary, problems = report(result, wanted)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    for problem in problems:
        print("problem: " + problem)
    print(json.dumps(summary))
    return 0


def report(result: dict, wanted: list[dict]) -> tuple[dict, list[str]]:
    """The result line for the metrics ``wanted``, and every problem found."""
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in result["metrics"]}
    problems = list(result["problems"])
    problems += [f"metric {m['name']} was not measured" for m in wanted
                 if m["name"] not in metrics]
    summary = {"correct": not problems and result["failed"] == 0,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    return summary, problems


if __name__ == "__main__":
    sys.exit(main())
