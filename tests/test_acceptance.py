"""Release gate: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criteria 7 and 8 need the MNIST IDX files (60k training images). When they
are absent the tests skip with a message naming the expected paths, and a
desk-scale benchmark on the bundled digits dataset exercises the identical
pipeline end to end with the absolute accuracy bar; the comparative claims
are only meaningful at MNIST scale where models do not saturate.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from cvkaf.cli import main
from cvkaf.data import build_complex_dataset, fft2, load_idx, load_named_dataset
from cvkaf.gradcheck import gradcheck_variant
from cvkaf.kernels import build_dictionary
from cvkaf.network import (
    build_model,
    complex_softmax,
    softmax_from_squared_magnitudes,
    TrainObjective,
)
from cvkaf.optim import TrainConfig, evaluate, train
from cvkaf.activations import ACTIVATION_VARIANTS, KafActivation, WlKafCase1Activation

from reference import (
    KernelBlockSet,
    blocks_from_complex_kernel,
    kaf_forward,
    vector_model_eval,
    wl_from_blocks,
    wlkaf_forward_case1,
)

pytestmark = pytest.mark.acceptance


def report(criterion: int, ok: bool, detail: str) -> None:
    import conftest

    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


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
        params = case1.init_params(100, d8, rng, alpha_init="random")
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
    def test_all_variants_twenty_seeds(self):
        """Every variant, tiny nets (3 -> 4 -> 4 -> 2), 20 seeds, < 30 s.

        The bound is on this process's CPU time, which other load on the
        host does not inflate; the wall time is reported next to it.
        """
        t0, c0 = time.perf_counter(), time.process_time()
        worst, seconds = {}, {}  # per variant: worst error, CPU seconds
        for v in ACTIVATION_VARIANTS:
            start = time.process_time()
            worst[v] = max(gradcheck_variant(v, range(20)).values())
            seconds[v] = time.process_time() - start
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        bad = {v: e for v, e in worst.items() if e > 1e-5}
        ok = not bad and cpu < 30.0
        detail = ", ".join(f"{v}={e:.1e} in {seconds[v]:.1f}s" for v, e in worst.items())
        report(4, ok, f"worst rel err {detail}; runtime {cpu:.1f}s CPU, {elapsed:.1f}s wall")
        assert not bad, bad
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


def _train_variant(ds, variant, seed, max_iterations, patience):
    model = build_model(
        variant, ds.feature_dim, ds.class_count, seed,
        hidden_widths=(100, 100, 100), dictionary=build_dictionary(8, (-2.0, 2.0)),
    )
    config = TrainConfig(batch_size=40, patience=patience, eval_every=50,
                         max_iterations=max_iterations, seed=seed)
    trace = train(model, ds.train_xy(), ds.val_xy(), config,
                  TrainObjective("cross_entropy", 0.0))
    return model, trace


@pytest.fixture(scope="module")
def mnist_subset():
    pair = find_mnist()
    if pair is None:
        pytest.skip(MNIST_SKIP)
    raw = load_idx(*pair)
    return build_complex_dataset(raw, k=100, split_counts=(10000, 2000, 2000), seed=0)


@pytest.mark.slow
class TestCriterion7MnistBenchmark:
    def test_scaled_table_one(self, mnist_subset):
        """10k/2k/2k MNIST subset, benchmark defaults, 3 seeds per variant."""
        means = {}
        runtimes = []
        for variant in BENCH_VARIANTS:
            accs = []
            for seed in BENCH_SEEDS:
                t0 = time.perf_counter()
                model, _ = _train_variant(mnist_subset, variant, seed,
                                          max_iterations=12000, patience=1000)
                runtimes.append(time.perf_counter() - t0)
                accs.append(evaluate(model, *mnist_subset.test_xy()))
            means[variant] = float(np.mean(accs))
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
    def test_wl_case1_trains_at_least_as_fast_as_kaf(self, mnist_subset):
        """Mean training loss over iterations 500-4000, matched seeds."""
        means = {}
        for variant in ("kaf_independent", "wlkaf_case1"):
            losses = []
            for seed in BENCH_SEEDS:
                _, trace = _train_variant(mnist_subset, variant, seed,
                                          max_iterations=4000, patience=10**9)
                losses.extend(r.train_loss for r in trace.records
                              if 500 <= r.iteration <= 4000)
            means[variant] = float(np.mean(losses))
        ok = means["wlkaf_case1"] <= means["kaf_independent"]
        report(8, ok, f"mean loss wlkaf_case1={means['wlkaf_case1']:.4f} "
                      f"vs kaf={means['kaf_independent']:.4f}")
        assert ok


@pytest.fixture(scope="module")
def digits_benchmark():
    """Desk-scale surrogate: same pipeline on the bundled digits set.

    1437/180/180 split, 40 FFT coefficients, benchmark-shaped networks.
    Every variant saturates near ceiling here, so only absolute bars are
    asserted; the comparative claims run on the MNIST subset.
    """
    raw = load_named_dataset("digits", data_dir="unused")
    ds = build_complex_dataset(raw, k=40, split=(0.8, 0.1, 0.1), seed=0)
    results = {}
    for variant in BENCH_VARIANTS:
        accs, traces = [], []
        for seed in BENCH_SEEDS:
            model, trace = _train_variant(ds, variant, seed,
                                          max_iterations=800, patience=10**9)
            accs.append(evaluate(model, *ds.test_xy()))
            traces.append(trace)
        results[variant] = (accs, traces)
    return results


@pytest.mark.slow
class TestDeskScaleSurrogate:
    """Environment-feasible stand-in exercising the criterion 7/8 pipeline."""

    def test_wl_case1_meets_absolute_bar(self, digits_benchmark):
        accs, _ = digits_benchmark["wlkaf_case1"]
        mean = float(np.mean(accs))
        ok = mean >= 0.93
        report(7, ok, f"surrogate (digits): wlkaf_case1 mean test acc {mean:.4f} "
                      f"(MNIST-gated test holds the comparative claims)")
        assert ok

    def test_every_variant_learns(self, digits_benchmark):
        for variant, (accs, _) in digits_benchmark.items():
            assert float(np.mean(accs)) >= 0.90, (variant, accs)

    def test_losses_collapse_from_start(self, digits_benchmark):
        for variant in ("kaf_independent", "wlkaf_case1", "wlkaf_case2"):
            _, traces = digits_benchmark[variant]
            for trace in traces:
                first, last = trace.records[0].train_loss, trace.records[-1].train_loss
                assert last < 0.2 * first, (variant, first, last)


class TestCriterion9Determinism:
    def test_identical_config_and_seed_reproduce_artifacts(self, tmp_path):
        """Bit-identical caches, models, summaries; traces modulo the
        elapsed_seconds column (the designated timestamp carve-out)."""
        caches = []
        for name in ("a", "b"):
            cache = tmp_path / f"{name}.cvkc"
            assert main(["preprocess", "--dataset", "digits", "--k-coeffs", "16",
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
