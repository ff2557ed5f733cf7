"""Release gate: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criteria 7 and 8 need the MNIST IDX files (60k training images). When they
are absent the tests skip with a message naming the expected paths, and a
desk-scale surrogate on the built-in ``glyphs`` dataset runs the same
pipeline end to end. It asserts absolute bars only, calibrated on split and
training seeds it does not use; the comparative claims are left to the
MNIST subset.

The gate trains nothing itself: the surrogate and criteria 7 and 8 each run
``cvkaf preprocess``, then ``cvkaf compare`` (which spreads its runs over the
usable CPUs), and read the test accuracies from the report's
``comparison.json`` and the training curves from each run's ``trace.csv``.
"""

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from cvkaf.cli import _run_dir, main, usable_cpus
from cvkaf.data import fft2
from cvkaf.gradcheck import ALL_MODELS
from cvkaf.kernels import build_dictionary
from cvkaf.network import complex_softmax, softmax_from_squared_magnitudes
from cvkaf.optim import read_trace_csv
from cvkaf.activations import KafActivation, WlKafCase1Activation

from conftest import random_complex
from reference import (
    KernelBlockSet,
    blocks_from_complex_kernel,
    kaf_forward,
    vector_model_eval,
    wl_from_blocks,
    wlkaf_forward_case1,
)

pytestmark = pytest.mark.acceptance


def show(line: str) -> None:
    """Print ``line`` and repeat it in the run's closing summary."""
    import conftest

    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def report(criterion: int, ok: bool, detail: str) -> None:
    show(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


DATA_DIR = Path(os.environ.get("CVKAF_DATA_DIR", "data"))


def find_mnist():
    base = DATA_DIR / "mnist"
    pair = []
    for stem in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        for cand in (base / stem, base / (stem + ".gz")):
            if cand.exists():
                pair.append(cand)
                break
    return tuple(pair) if len(pair) == 2 else None


MNIST_SKIP = (
    f"MNIST IDX files not found: expected {DATA_DIR / 'mnist'}/"
    "train-images-idx3-ubyte[.gz] and train-labels-idx1-ubyte[.gz] "
    "(set CVKAF_DATA_DIR to the IDX root)"
)


class TestCriterion1KernelIdentities:
    def test_widely_linear_equals_block_model(self):
        """1000 random (z, alpha, blocks) triples, <= 1e-12, under 1 s."""
        rng = np.random.default_rng(42)
        d4 = build_dictionary(4)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(1000):
            d = int(rng.integers(1, 24))
            if trial % 2 == 0:
                blocks = KernelBlockSet(*[rng.normal(size=d) for _ in range(4)])
            else:
                z = complex(rng.normal(), rng.normal())
                blocks = blocks_from_complex_kernel("independent", z, d4, 1.0)
                d = d4.size
            alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
            k, kt = wl_from_blocks(blocks)
            wl = k @ alpha + kt @ np.conj(alpha)
            direct = vector_model_eval(blocks, alpha)
            worst = max(worst, abs(wl - direct))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and elapsed < 1.0
        report(1, ok, f"max |wl - block| = {worst:.2e}, runtime {elapsed:.3f}s")
        assert worst <= 1e-12
        assert elapsed < 1.0


class TestCriterion2StandardKernelConstraint:
    def test_transposed_expansion_forces_block_structure(self):
        """k_rr = k_ii and k_ri = -k_ir exactly, all three kernels, 1000 points."""
        rng = np.random.default_rng(7)
        d4 = build_dictionary(4)
        checked = 0
        for kernel in ("complex_gaussian", "independent", "real_gaussian"):
            for _ in range(1000):
                z = complex(rng.normal(), rng.normal())
                blocks = blocks_from_complex_kernel(kernel, z, d4, 0.9)
                assert np.array_equal(blocks.k_rr, blocks.k_ii)
                assert np.array_equal(blocks.k_ri, -blocks.k_ir)
                checked += 1
        report(2, True, f"exact equality over {checked} random points x 3 kernels")


class TestCriterion3Case1Degeneracy:
    def test_equal_bandwidths_reduce_to_standard_kaf(self):
        """WL case 1 with equal bandwidths == standard KAF within 1e-14."""
        rng = np.random.default_rng(11)
        d8 = build_dictionary(8)
        z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        alpha = rng.normal(size=64) + 1j * rng.normal(size=64)
        gamma = 49.0 / 32.0
        wl = wlkaf_forward_case1(z, alpha, d8, gamma, gamma)
        std = kaf_forward(z, alpha, d8, "real_gaussian", gamma)
        worst = float(np.max(np.abs(wl - std)))
        ok = worst <= 1e-14
        # the layers train and evaluate run: 100 neurons, each with its own
        # alpha and one bandwidth shared by gamma_rr and gamma_ii
        case1 = WlKafCase1Activation()
        params = case1.init_params(100, d8)
        params["alpha"] = random_complex(rng, params["alpha"].shape, scale=0.3 / np.sqrt(2.0))
        log_gamma = np.log(gamma) + 0.3 * rng.normal(size=100)
        params["log_gamma_rr"] = params["log_gamma_ii"] = log_gamma
        zs = rng.normal(size=(1000, 100)) + 1j * rng.normal(size=(1000, 100))
        wl_layer = case1.forward(zs, params, d8)[0]
        std_layer = KafActivation("real_gaussian").forward(
            zs, {"alpha": params["alpha"], "log_gamma": log_gamma}, d8)[0]
        shipped = float(np.max(np.abs(wl_layer - std_layer)))
        shipped_ok = shipped <= 1e-14
        report(3, ok and shipped_ok, f"max |case1 - standard| = {worst:.2e} over 1000 inputs; "
                                     f"shipped layers {shipped:.2e} over 1000 x 100")
        assert ok
        assert shipped_ok


class TestCriterion4GradientCorrectness:
    def test_every_model_twenty_seeds(self, capsys):
        """``cvkaf gradcheck --seeds 20``: every model train accepts, tiny nets
        (3 -> 4 -> 4 -> 2), < 30 s.

        The bound is on the user and system CPU time of this process and of
        the helpers the command forks and reaps, which other load on the host
        does not inflate; the wall time is reported next to it.
        """
        t0, before = time.perf_counter(), os.times()
        code = main(["gradcheck", "--seeds", "20"])
        elapsed, after = time.perf_counter() - t0, os.times()
        cpu = sum(after[:4]) - sum(before[:4])  # user, system, children's user and system
        out = capsys.readouterr().out
        lines = re.findall(r"^\[\w+\] (\S+) +worst=(\S+) over 20 seeds, (\S+) s CPU$", out, re.M)
        ok = code == 0 and cpu < 30.0
        detail = ", ".join(f"{name}={float(worst):.1e} in {seconds}s"
                           for name, worst, seconds in lines)
        report(4, ok, f"worst rel err {detail}; runtime {cpu:.1f}s CPU, {elapsed:.1f}s wall")
        assert code == 0, out
        assert [name for name, _, _ in lines] == list(ALL_MODELS)
        assert cpu < 30.0


class TestCriterion5SoftmaxProperties:
    def test_normalization_phase_and_stabilization(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(500, 9)) + 1j * rng.normal(size=(500, 9))
        p = complex_softmax(h)
        norm_err = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        theta = rng.uniform(0, 2 * np.pi, size=h.shape)
        phase_err = float(np.max(np.abs(p - complex_softmax(h * np.exp(1j * theta)))))
        s = h.real**2 + h.imag**2
        stab_exact = np.array_equal(
            softmax_from_squared_magnitudes(s),
            softmax_from_squared_magnitudes(s - s.max(axis=-1, keepdims=True)),
        )
        s_int = rng.integers(-20, 20, size=(200, 6)).astype(np.float64)
        stab_exact &= np.array_equal(
            softmax_from_squared_magnitudes(s_int),
            softmax_from_squared_magnitudes(s_int + 32.0),
        )
        ok = norm_err <= 1e-12 and phase_err <= 1e-12 and stab_exact
        report(5, ok, f"norm err {norm_err:.1e}, phase err {phase_err:.1e}, "
                      f"stabilization exact: {stab_exact}")
        assert ok


def naive_dft2_reference(img: np.ndarray) -> np.ndarray:
    """Test-local quadratic DFT, independent of the package implementation."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for r in range(h):
                for c in range(w):
                    angle = -2.0 * np.pi * (u * r / h + v * c / w)
                    acc += img[r, c] * complex(np.cos(angle), np.sin(angle))
            out[u, v] = acc
    return out


class TestCriterion6FftOracle:
    def test_fft_matches_naive_dft_and_parseval(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for shape in ((4, 4), (8, 8)):
            img = rng.normal(size=shape) * 3
            worst = max(worst, float(np.max(np.abs(fft2(img) - naive_dft2_reference(img)))))
        img = rng.normal(size=(8, 8)) * 5
        coeffs = fft2(img)
        pixel_energy = float(np.sum(img**2))
        rel = abs(pixel_energy - float(np.sum(np.abs(coeffs) ** 2)) / img.size) / pixel_energy
        ok = worst <= 1e-9 and rel <= 1e-6
        report(6, ok, f"max |fft - dft| = {worst:.2e}, Parseval rel err {rel:.2e}")
        assert ok


# -- criteria 7 and 8: the MNIST-subset benchmark ---------------------------

BENCH_VARIANTS = ("real_nn", "kaf_independent", "wlkaf_case1", "wlkaf_case2")
BENCH_SEEDS = (0, 1, 2)


def run_compare(cache: Path, out: Path, models, max_iterations: int, patience: int) -> dict:
    """One ``cvkaf compare`` of ``models`` over ``BENCH_SEEDS`` at C = 0, with the
    benchmark-shaped networks: three hidden layers of 100, an 8x8 dictionary,
    batches of 40 and validation every 50 iterations.

    Returns, per model, each seed's test accuracy from ``comparison.json`` and
    each seed's trace, read back from its run directory's ``trace.csv``.
    """
    assert main(["compare", "--cache", str(cache), "--out", str(out),
                 "--models", ",".join(models), "--seeds", ",".join(map(str, BENCH_SEEDS)),
                 "--c-grid", "0", "--max-iterations", str(max_iterations),
                 "--patience", str(patience), "--eval-every", "50", "--batch-size", "40",
                 "--hidden", "100,100,100", "--dict-points", "8"]) == 0
    rows = json.loads((out / "comparison.json").read_text())["models"]
    failed = {m: row["error"] for m, row in rows.items() if "error" in row}
    assert not failed, failed
    return {m: (rows[m]["test_accuracies"],
                [read_trace_csv(_run_dir(out, m, seed, 0.0, 0.01) / "trace.csv")
                 for seed in BENCH_SEEDS])
            for m in models}


@pytest.fixture(scope="module")
def mnist_cache(tmp_path_factory):
    if find_mnist() is None:
        pytest.skip(MNIST_SKIP)
    cache = tmp_path_factory.mktemp("mnist") / "mnist.cvkc"
    assert main(["preprocess", "--dataset", "mnist", "--data-dir", str(DATA_DIR),
                 "--k-coeffs", "100", "--split-counts", "10000,2000,2000", "--seed", "0",
                 "--out", str(cache)]) == 0
    return cache


@pytest.mark.slow
class TestCriterion7MnistBenchmark:
    def test_scaled_table_one(self, mnist_cache, tmp_path):
        """10k/2k/2k MNIST subset, benchmark defaults, 3 seeds per variant."""
        results = run_compare(mnist_cache, tmp_path, BENCH_VARIANTS,
                              max_iterations=12000, patience=1000)
        means = {v: float(np.mean(accs)) for v, (accs, _) in results.items()}
        # runs train in compare's processes, so each run's time is its trace's clock
        runtimes = [t.records[-1].elapsed_seconds for _, traces in results.values()
                    for t in traces]
        ok = (
            means["wlkaf_case1"] >= 0.93
            and means["wlkaf_case1"] >= means["real_nn"]
            and means["wlkaf_case2"] >= means["real_nn"]
        )
        detail = ", ".join(f"{v}={a:.4f}" for v, a in means.items())
        report(7, ok, f"{detail}; max run {max(runtimes) / 60:.1f} min")
        assert means["wlkaf_case1"] >= 0.93
        assert means["wlkaf_case1"] >= means["real_nn"]
        assert means["wlkaf_case2"] >= means["real_nn"]
        assert max(runtimes) < 20 * 60


@pytest.mark.slow
class TestCriterion8ConvergenceOrdering:
    def test_wl_case1_trains_at_least_as_fast_as_kaf(self, mnist_cache, tmp_path):
        """Mean training loss over iterations 500-4000, matched seeds."""
        results = run_compare(mnist_cache, tmp_path, ("kaf_independent", "wlkaf_case1"),
                              max_iterations=4000, patience=10**9)
        means = {v: float(np.mean([r.train_loss for t in traces for r in t.records
                                   if 500 <= r.iteration <= 4000]))
                 for v, (_, traces) in results.items()}
        ok = means["wlkaf_case1"] <= means["kaf_independent"]
        report(8, ok, f"mean loss wlkaf_case1={means['wlkaf_case1']:.4f} "
                      f"vs kaf={means['kaf_independent']:.4f}")
        assert ok


# The surrogate's bars, calibrated on the built-in glyphs with split seeds
# 1-6, each with its own three training seeds (3-5, 6-8, ..., 18-20); the
# test runs split seed 0 with training seeds 0-2. Each bar is the lowest
# calibration value of what it bounds, less a margin of 0.05, rounded down
# to 0.05: mean test accuracy was at least 0.565 for case 1 and 0.561 for
# every variant, and the KAF loss ratios were at most 0.173.
SURROGATE_ACCURACY_BAR = 0.50  # mean test accuracy of case 1, and of every variant
SURROGATE_LOSS_RATIO_BAR = 0.2  # last train loss over first, for each KAF run
# criteria 7 and 8's arms plus kaf_real_gaussian, case 1 at d = 0, for the printed comparison
SURROGATE_VARIANTS = (*BENCH_VARIANTS, "kaf_real_gaussian")


@pytest.fixture(scope="module")
def glyphs_benchmark(tmp_path_factory):
    """Desk-scale surrogate: the same pipeline on the built-in glyphs.

    ``cvkaf preprocess`` (1440/180/180 split, 40 FFT coefficients), then one
    ``cvkaf compare`` of the benchmark-shaped networks for 800 iterations.
    The variants do not differ beyond seed noise here, so only absolute bars
    are asserted; the comparative claims run on the MNIST subset. Returns
    :func:`run_compare`'s results, the wall seconds of both commands and the
    ``compare`` directory.
    """
    t0 = time.perf_counter()
    work = tmp_path_factory.mktemp("glyphs")
    assert main(["preprocess", "--dataset", "glyphs", "--k-coeffs", "40", "--seed", "0",
                 "--out", str(work / "glyphs.cvkc")]) == 0
    results = run_compare(work / "glyphs.cvkc", work / "comparison", SURROGATE_VARIANTS,
                          max_iterations=800, patience=10**9)
    return results, time.perf_counter() - t0, work / "comparison"


@pytest.mark.slow
class TestDeskScaleSurrogate:
    """Environment-feasible stand-in exercising the criterion 7/8 pipeline."""

    def test_wl_case1_meets_absolute_bar(self, glyphs_benchmark):
        results, seconds, _ = glyphs_benchmark
        mean = float(np.mean(results["wlkaf_case1"][0]))
        runs = len(SURROGATE_VARIANTS) * len(BENCH_SEEDS)
        ok = mean >= SURROGATE_ACCURACY_BAR
        report(7, ok, f"surrogate (glyphs): wlkaf_case1 mean test acc {mean:.4f} "
                      f"(bar {SURROGATE_ACCURACY_BAR}; MNIST-gated test holds the "
                      f"comparative claims); {runs} runs, compare in "
                      f"{min(usable_cpus(), runs)} processes, {seconds:.1f}s wall")
        assert ok

    def test_every_variant_learns(self, glyphs_benchmark):
        for variant, (accs, _) in glyphs_benchmark[0].items():
            assert float(np.mean(accs)) >= SURROGATE_ACCURACY_BAR, (variant, accs)

    def test_losses_collapse_from_start(self, glyphs_benchmark):
        for variant in ("kaf_independent", "wlkaf_case1", "wlkaf_case2"):
            _, traces = glyphs_benchmark[0][variant]
            for trace in traces:
                first, last = trace.records[0].train_loss, trace.records[-1].train_loss
                assert last < SURROGATE_LOSS_RATIO_BAR * first, (variant, first, last)

    def test_prints_case1_against_each_kaf(self, glyphs_benchmark):
        """No assertion: for each comparator, one line of case 1's per-seed differences
        from it (case 1 minus the comparator) in test accuracy and in mean train loss
        over iterations 500-800, their sign counts, and per seed case 1's median
        |d| = |log gamma_rr - log gamma_ii| per hidden layer, from its summary.json."""
        results, _, out = glyphs_benchmark

        def window_loss(trace):
            return float(np.mean([r.train_loss for r in trace.records
                                  if 500 <= r.iteration <= 800]))

        def paired(case1, kaf):
            diffs = [a - b for a, b in zip(case1, kaf)]
            return (" ".join(f"{x:+.4f}" for x in diffs)
                    + f" ({sum(x > 0 for x in diffs)}+ {sum(x < 0 for x in diffs)}-)")

        splits = []
        for seed in BENCH_SEEDS:
            run_dir = _run_dir(out, "wlkaf_case1", seed, 0.0, 0.01)
            summary = json.loads((run_dir / "summary.json").read_text())
            splits.append("/".join(f"{layer['median']:.4f}"
                                   for layer in summary["bandwidth_split"]))
        accs, traces = results["wlkaf_case1"]
        for kaf in ("kaf_real_gaussian", "kaf_independent"):
            kaf_accs, kaf_traces = results[kaf]
            show(f"[surrogate] wlkaf_case1 - {kaf}, seeds {list(BENCH_SEEDS)}: test acc "
                 f"{paired(accs, kaf_accs)}; mean train loss it. 500-800 "
                 f"{paired(map(window_loss, traces), map(window_loss, kaf_traces))}; "
                 f"case 1 median |d| by layer {', '.join(splits)}")


class TestCriterion9Determinism:
    def test_identical_config_and_seed_reproduce_artifacts(self, tmp_path):
        """Bit-identical caches, models, summaries; traces modulo the
        elapsed_seconds column (the designated timestamp carve-out)."""
        caches = []
        for name in ("a", "b"):
            cache = tmp_path / f"{name}.cvkc"
            assert main(["preprocess", "--dataset", "glyphs", "--k-coeffs", "16",
                         "--seed", "3", "--out", str(cache)]) == 0
            caches.append(cache.read_bytes())
        cache_ok = caches[0] == caches[1]

        run_dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in run_dirs:
            assert main(["train", "--cache", str(tmp_path / "a.cvkc"),
                         "--model", "wlkaf_case1", "--seed", "5", "--c", "1e-4",
                         "--hidden", "30,30", "--dict-points", "4",
                         "--batch-size", "20", "--eval-every", "25",
                         "--patience", "100", "--max-iterations", "200",
                         "--out", str(d)]) == 0
        model_ok = (run_dirs[0] / "model.cvkm").read_bytes() == \
            (run_dirs[1] / "model.cvkm").read_bytes()

        def masked(path):
            return "\n".join(line.rsplit(",", 1)[0]
                             for line in path.read_text().splitlines())

        trace_ok = masked(run_dirs[0] / "trace.csv") == masked(run_dirs[1] / "trace.csv")
        summary_ok = (run_dirs[0] / "summary.json").read_text() == \
            (run_dirs[1] / "summary.json").read_text()
        ok = cache_ok and model_ok and trace_ok and summary_ok
        report(9, ok, f"cache={cache_ok}, model={model_ok}, trace={trace_ok}, "
                      f"summary={summary_ok}")
        assert ok
