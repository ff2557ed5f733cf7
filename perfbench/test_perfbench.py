"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cvkaf  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from harness import installed  # noqa: E402
from workloads import WORKLOADS, Pass, Shape  # noqa: E402

TINY = Shape(k=8, hidden=(6,), dict_points=4, batch_size=8, eval_every=5,
             train_split=(60, 20, 20), eval_split=(60, 20, 50),
             compare_split=(60, 20, 20), compare_eval_every=5, pretrain_iterations=5)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cvkaf_attributes() -> dict:
    """Every attribute of every cvkaf module and of the classes they define."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cvkaf" or mod_name.startswith("cvkaf."):
            for name, value in vars(mod).items():
                found[(mod_name, name)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        found[(mod_name, name, attr)] = member
    return found


def not_floor(problems):
    # tiny models learn little, so the accuracy floors do not apply here
    return [p for p in problems if "below the floor" not in p]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    WORKLOADS[name].generate(tmp_path, 3, TINY)
    before = cvkaf_attributes()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = worker.measure(name, tmp_path, 3, 0.01, trace, TINY, setup_repeats=2)
        summary, problems = run.report(result, SPEC[kind])
        assert not_floor(problems) == []
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        assert set(summary["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            got = summary["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    after = cvkaf_attributes()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_corrupted_cache_counts_as_failed_operations(tmp_path):
    workload = WORKLOADS["evaluate-variants"]
    workload.generate(tmp_path, 4, TINY)
    p = Pass(tmp_path, tmp_path / "out", 4, 0.01, TINY)
    p.out.mkdir()
    cache = workload.setup(p)
    cache.write_bytes(cache.read_bytes()[:100])
    with installed(p.clock):
        workload.timed(p, cache)
    assert p.attempted == 3 and p.failed == 3
    assert all("exited 3" in problem for problem in p.problems)
    assert worker.end_to_end(workload, p, [1.0])["success_rate"] == 0.0


def test_wrappers_are_removed_when_the_timed_part_raises(tmp_path):
    before = cvkaf_attributes()
    tracer = worker.Tracer("network.loss_and_grads")
    with pytest.raises(RuntimeError), installed(Pass(tmp_path, tmp_path, 0, 0, TINY).clock, tracer):
        assert cvkaf.optim.train is not before[("cvkaf.optim", "train")]
        raise RuntimeError("boom")
    after = cvkaf_attributes()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_same_seed_same_inputs():
    a, la = inputs.glyphs(50, 7)
    b, lb = inputs.glyphs(50, 7)
    c, _ = inputs.glyphs(50, 8)
    assert (a == b).all() and (la == lb).all() and not (a == c).all()


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-case1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
