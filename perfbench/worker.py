"""Measured process of the benchmark; ``run.py`` starts it twice per run.

    python3 perfbench/worker.py generate --workload W --seed N --seconds S --work DIR
    python3 perfbench/worker.py measure  --workload W --seed N --seconds S --work DIR --trace 0|1

``generate`` writes the seeded inputs. ``measure`` then runs only program
calls: the set-up several times (``setup_s`` is their median) and the timed
part once, with the step clock on. With ``--trace 1`` it runs the workload
again with the tracer on, checks that both passes produced the same
outputs, and reports the per-layer metrics. The result goes to
``DIR/measure.json``; spans go to ``DIR/spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from harness import Tracer, across_variants, installed, now  # noqa: E402
from workloads import WORKLOADS, Pass, Shape  # noqa: E402

SETUP_REPEATS = 5


def run_pass(workload, p: Pass, setup_repeats: int) -> tuple[list[float], str]:
    """Set up ``setup_repeats`` times, run the timed part once, check outputs.

    The step clock (and the tracer, if the pass has one) is installed around
    the timed part only; with a tracer it also covers one set-up.
    """
    p.out.mkdir(parents=True, exist_ok=True)
    instruments = [p.clock] + ([p.tracer] if p.tracer else [])
    setup_s = []
    for _ in range(setup_repeats):
        t0 = now()
        state = workload.setup(p)
        setup_s.append(now() - t0)
    with installed(*instruments):
        if p.tracer:
            state = workload.setup(p)
        t0 = now()
        workload.timed(p, state)
        p.run_s = now() - t0
    fingerprint = workload.check(p, state)
    if not p.accuracy >= workload.floor:
        p.problems.append(f"accuracy {p.accuracy} is below the floor {workload.floor}")
    return setup_s, fingerprint


def end_to_end(workload, p: Pass, setup_s: list[float]) -> dict[str, float]:
    m = {"setup_s": statistics.median(setup_s),
         "run_s": statistics.median(p.repeat_s or [p.run_s])}
    times = (p.clock.chunk_times() if workload.step_span == "network.predict"
             else p.clock.iteration_times())
    if times:
        m["step_ms_p50"] = 1000 * across_variants(times, 50)
        m["step_ms_p90"] = 1000 * across_variants(times, 90)
    if p.clock.evals:
        # per-sample times are averaged, so the slow variants weigh most
        m["eval_samples_per_s"] = 1.0 / across_variants(p.clock.eval_sample_times())
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not math.isnan(p.accuracy):
        m["accuracy"] = p.accuracy
    m["success_rate"] = 1.0 - p.failed / p.attempted
    return m


def environment() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    src = HERE.parent / "src" / "cvkaf"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                         for f in sorted(src.glob("*.py"))),
    }


def measure(name: str, work: Path, seed: int, seconds: float, trace: bool,
            shape: Shape = Shape(), setup_repeats: int = SETUP_REPEATS) -> dict:
    workload = WORKLOADS[name]
    plain = Pass(work, work / "untraced", seed, seconds, shape)
    setup_s, fingerprint = run_pass(workload, plain, setup_repeats)
    result = {"attempted": plain.attempted, "failed": plain.failed,
              "problems": plain.problems, "environment": environment()}
    if not trace:
        result["metrics"] = end_to_end(workload, plain, setup_s)
        return result
    tracer = Tracer(workload.step_span)
    traced = Pass(work, work / "traced", seed, seconds, shape, tracer=tracer)
    _, traced_fingerprint = run_pass(workload, traced, 0)
    tracer.write(work / "spans.csv")
    if traced_fingerprint != fingerprint or traced.accuracy != plain.accuracy:
        traced.problems.append("the traced pass produced different outputs")
    metrics = tracer.layer_metrics(traced.run_s)
    metrics["cli.failed_runs"] = traced.failed
    metrics["harness.trace_overhead_frac"] = (traced.run_s - plain.run_s) / plain.run_s
    result.update(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed,
                  problems=plain.problems + traced.problems, metrics=metrics)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("generate", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "generate":
        WORKLOADS[args.workload].generate(args.work, args.seed, Shape())
        return 0
    result = measure(args.workload, args.work, args.seed, args.seconds, bool(args.trace))
    (args.work / "measure.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
