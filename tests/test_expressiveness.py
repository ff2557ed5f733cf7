"""Expressiveness certificate for the widely linear claim, with no training.

For fixed bandwidths a KAF-family neuron is real-linear in alpha, so its
function class is the column space of :func:`cvkaf.activations.alpha_design`.
One neuron on the 8x8 grid over [-2, 2] is fitted by least squares to each
target below on seeded random points of the grid's square, and scored by its
relative residual on as many other points, at the best log-bandwidths of a
fixed grid of offsets around the rule of thumb ``g0``.

Case 1 with ``gamma_rr == gamma_ii`` is exactly the standard KAF (criterion 3),
and the offset grid holds that diagonal, so case 1's best residual can be no
larger than the KAF's: a widely linear model contains the strictly linear one
(Picinbono & Chevalier, *Widely linear estimation with complex data*, IEEE
TSP 1995). The test asserts that and prints each target's KAF/case-1 and
KAF/case-2 residual ratios (run with ``-s``, or read the summary lines).
"""

import numpy as np

from cvkaf import activations as act
from cvkaf.kernels import build_dictionary

TARGETS = {  # x = Re z, y = Im z
    "sin 5x + 0.2i(x^2+y^2)": lambda x, y: np.sin(5 * x) + 0.2j * (x**2 + y**2),
    "tanh 8x + iy": lambda x, y: np.tanh(8 * x) + 1j * y,
    "0.5x + i*sign(y)*sqrt|y|": lambda x, y: 0.5 * x + 1j * np.sign(y) * np.sqrt(np.abs(y)),
    "z (identity)": lambda x, y: x + 1j * y,
    "sin x cos y + 0.3i*xy": lambda x, y: np.sin(x) * np.cos(y) + 0.3j * x * y,
}
POINTS, SEED = 600, 0  # fit points, and as many held-out points, uniform on [-2, 2]^2
OFFSETS = (-3.0, -1.5, 0.0, 1.5, 3.0)  # log-bandwidth offsets around log(g0)


def _residuals(layer, dictionary, bandwidths, points, targets):
    """Held-out relative residual per target column, and the design it came from."""
    design = act.alpha_design(layer, dictionary, bandwidths, points)
    n = points.size
    fit = np.r_[0:POINTS, n:n + POINTS]  # [Re; Im] rows of the first POINTS points
    held = np.r_[POINTS:n, n + POINTS:2 * n]
    sol = np.linalg.lstsq(design[fit], targets[fit], rcond=None)[0]
    error = design[held] @ sol - targets[held]
    return np.linalg.norm(error, axis=0) / np.linalg.norm(targets[held], axis=0), design


def test_case1_is_at_least_as_expressive_as_the_standard_kaf():
    import conftest

    dictionary = build_dictionary(8, (-2.0, 2.0))
    log_g0 = np.log(act.gamma_rule_of_thumb(dictionary))
    rng = np.random.default_rng(SEED)
    points = rng.uniform(-2.0, 2.0, 2 * POINTS) + 1j * rng.uniform(-2.0, 2.0, 2 * POINTS)
    t = np.stack([f(points.real, points.imag) for f in TARGETS.values()], axis=1)
    targets = np.concatenate([t.real, t.imag])

    kaf, case1, case2 = [], [], []
    kaf_designs = {}
    for a in OFFSETS:
        res, kaf_designs[a] = _residuals(act.KafActivation("real_gaussian"), dictionary,
                                         {"log_gamma": log_g0 + a}, points, targets)
        kaf.append(res)
    for a in OFFSETS:
        for b in OFFSETS:
            res, design = _residuals(act.WlKafCase1Activation(), dictionary,
                                     {"log_gamma_rr": log_g0 + a, "log_gamma_ii": log_g0 + b},
                                     points, targets)
            case1.append(res)
            if a == b:
                np.testing.assert_array_equal(design, kaf_designs[a])
            case2.append(_residuals(act.WlKafCase2Activation(), dictionary,
                                    {"log_gamma": np.array([log_g0 + a]),
                                     "log_gamma_tilde": np.array([log_g0 + b])},
                                    points, targets)[0])
    kaf, case1, case2 = (np.min(r, axis=0) for r in (kaf, case1, case2))

    for name, k, c1, c2 in zip(TARGETS, kaf, case1, case2):
        line = (f"[expressiveness] {name}: residual KAF {k:.2e}, case 1 {c1:.2e}, "
                f"case 2 {c2:.2e}; KAF/case 1 {k / c1:.2f}, KAF/case 2 {k / c2:.2f}")
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
    assert np.all(case1 <= kaf)
    # and gains where the two output parts need different length scales
    assert kaf[0] / case1[0] > 1.2
