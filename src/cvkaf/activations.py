"""Complex activation functions with forward and backward passes.

Four families are implemented:

* split tanh: ``tanh`` applied independently to the real and imaginary
  parts;
* phase-amplitude: ``tanh(|z|) * z/|z|``, magnitude squashed, phase kept;
* kernel activations (KAF): ``g(z) = k(z)^T alpha`` over a fixed dictionary,
  with per-neuron trainable mixing coefficients and log-bandwidths;
* widely linear KAF: ``g(z) = k^T alpha + kt^T conj(alpha)`` with a
  pseudo-kernel ``kt``, in the case-1 (separate real/imaginary bandwidths)
  and case-2 (separable kernels, fixed imaginary mixing) constructions.

Over the square dictionary grid every KAF-family layer is a sum of
separable Gaussian terms ``scale * e_b^T A e_a``: ``A`` is the (m, m) grid
of ``Re alpha`` or ``Im alpha``, ``e_b`` and ``e_a`` are per-axis Gaussians
of ``Im z`` and ``Re z``, and each term adds to the real or the imaginary
output. The term tables are:

* ``kaf_real_gaussian``: 2 terms on one bandwidth;
* ``kaf_independent``: none; the engine adds its closed form (:class:`_KafBase`);
* ``wlkaf_case1``: ``Re alpha`` on ``gamma_rr`` to the real part and
  ``Im alpha`` on ``gamma_ii`` to the imaginary part;
* ``wlkaf_case2``: 2Q kernel terms plus 2Q pseudo-kernel terms scaled by
  ``2*omega_q`` with the routing crossed.

One forward, one backward and one ``init_params`` (:class:`_KafBase`) serve
every table; the backward follows from the real partial derivatives of the
per-axis Gaussians. Initialization fits alpha through the layer's own map:
for fixed bandwidths every table is real-linear in ``(Re alpha, Im alpha)``,
so :func:`alpha_design` reads the design matrix off one forward run, and
:func:`fit_alpha` solves one real ridge system in it for the identity on the
grid.
Layer classes vectorize over a (batch, width) activation matrix with
per-neuron parameters.
This engine is the one implementation of the kernels in the package; the
tests check it against dense per-atom reference forms kept with them.
Backward passes return cogradients in the package-wide convention
(see :mod:`cvkaf.cnum`) and are all validated against finite differences.

A descriptor's ``name`` is its one spelling, which :func:`activation_named`
parses back: a registry key, or case 2 at other mixing weights such as
``wlkaf_case2:0.7:0.2``. Model configs and files carry only the name.

Every ``forward(z, params, dictionary, cache=True)`` returns ``(out,
cache)``, where the cache holds what ``backward(g_out, cache, params)``
reads. Callers that only need ``out`` (prediction, the objective alone,
:func:`fit_alpha`) pass ``cache=False`` and get ``(out, None)``: the KAF
engine then computes each part's squares in place of its offsets and
keeps no ``A @ R`` product, with the same arithmetic in the same order, so
``out`` is bit-identical to the cached pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .kernels import Dictionary

__all__ = [
    "alpha_design",
    "fit_alpha",
    "gamma_rule_of_thumb",
    "SplitActivation",
    "PhaseAmplitudeActivation",
    "KafActivation",
    "WlKafCase1Activation",
    "WlKafCase2Activation",
    "ACTIVATION_VARIANTS",
    "activation_named",
]

DEFAULT_RIDGE = 1e-4  # ridge weight of the identity fit in :func:`fit_alpha`
_CASE2, _CASE2_OMEGAS = "wlkaf_case2", (0.3,)  # case 2's name and its default mixing weight


def gamma_rule_of_thumb(dictionary: Dictionary) -> float:
    """Default bandwidth ``1/(2*spacing^2)``.

    Puts neighbouring dictionary atoms at roughly exp(-1/2) overlap;
    :func:`~cvkaf.kernels.build_dictionary` makes it finite and positive.
    """
    return 1.0 / (2.0 * dictionary.spacing**2)


def alpha_design(layer, dictionary: Dictionary, bandwidths: dict, points) -> np.ndarray:
    """The real (2P, 2D) matrix taking one neuron's ``[Re alpha; Im alpha]``
    to ``[Re g; Im g]`` at the P complex ``points``.

    ``layer`` is a KAF-family layer and ``bandwidths`` one neuron's
    log-bandwidths by name, as ``layer.init_params`` names them. For fixed
    bandwidths the layer is real-linear in alpha, so one run of its own
    ``forward`` with 2D neurons holding ``e_j`` and ``i*e_j`` gives the
    matrix. Its rank counts the alpha directions that reach the output.
    """
    d = dictionary.size
    params = {name: np.broadcast_to(v, (2 * d, *np.shape(v)))
              for name, v in bandwidths.items()}
    params["alpha"] = np.concatenate([np.eye(d), 1j * np.eye(d)])
    g, _ = layer.forward(np.broadcast_to(points[:, None], (points.shape[0], 2 * d)),
                         params, dictionary, cache=False)
    return np.concatenate([g.real, g.imag])


def fit_alpha(layer, dictionary: Dictionary, bandwidths: dict) -> np.ndarray:
    """Ridge-fit one neuron's mixing coefficients to the identity on the grid.

    With ``X`` the design matrix of :func:`alpha_design` on the D grid points
    and ``t = [Re z; Im z]`` there, the fit solves the real ridge system
    ``(X^T X + DEFAULT_RIDGE*I) a = X^T t``, giving a near-linear initial
    activation. The system is symmetric positive definite, so Gaussian
    elimination needs no pivoting. The sums are ``np.einsum`` and the
    elimination elementwise numpy: no BLAS or LAPACK call, so alpha's bits do
    not depend on their thread count.
    """
    pts = dictionary.points
    design = alpha_design(layer, dictionary, bandwidths, pts)
    n = design.shape[1]
    system = np.empty((n, n + 1))  # [X^T X + ridge*I | X^T t]
    system[:, :n] = np.einsum("pi,pj->ij", design, design)
    system[:, n] = np.einsum("pi,p->i", design, np.concatenate([pts.real, pts.imag]))
    system[range(n), range(n)] += DEFAULT_RIDGE
    for k in range(n - 1):  # forward elimination, on the trailing block only
        system[k + 1:, k + 1:] -= (system[k + 1:, k] / system[k, k])[:, None] * system[k, k + 1:]
    sol = np.zeros(n)
    for k in reversed(range(n)):  # back substitution
        sol[k] = (system[k, n] - np.einsum("i,i", system[k, k + 1:n], sol[k + 1:])) / system[k, k]
    return _complex_assemble(sol[:n // 2], sol[n // 2:])


def _complex_assemble(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + 1j*im`` without the slow complex-multiply path."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _tanh_over_r(r: np.ndarray) -> np.ndarray:
    """``tanh(r)/r`` with its Taylor value near zero."""
    small = r < 1e-3
    safe = np.where(small, 1.0, r)
    return np.where(small, 1.0 - r**2 / 3.0, np.tanh(safe) / safe)


def _pseudo_tanh_factor(r: np.ndarray) -> np.ndarray:
    """``(tanh'(r)*r - tanh(r)) / (2 r^3)``, limit -1/3 at the origin."""
    small = r < 1e-3
    safe = np.where(small, 1.0, r)
    t = np.tanh(safe)
    exact = ((1.0 - t**2) * safe - t) / (2.0 * safe**3)
    return np.where(small, -1.0 / 3.0 + 0.2 * r**2, exact)


# ---------------------------------------------------------------------------
# Layer-level activations: (batch, width) inputs with per-neuron parameters.
# Each class is a stateless descriptor; parameters live in a plain dict of
# numpy arrays owned by the network layer. forward() returns (out, cache),
# or (out, None) with cache=False; backward() consumes the cache and returns
# (cograd_z, {name: cograd}). A descriptor's ``name`` is its one spelling
# (see :func:`activation_named`).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitActivation:
    """``tanh`` applied to the real and imaginary parts independently."""

    name = "split_tanh"

    def init_params(self, width, dictionary):
        return {}

    def forward(self, z, params, dictionary, cache=True):
        re, im = np.tanh(z.real), np.tanh(z.imag)
        return re + 1j * im, {"d_re": 1.0 - re**2, "d_im": 1.0 - im**2} if cache else None

    def backward(self, g_out, cache, params):
        gz = g_out.real * cache["d_re"] + 1j * (g_out.imag * cache["d_im"])
        return gz, {}


@dataclass(frozen=True)
class PhaseAmplitudeActivation:
    name = "phase_amplitude"

    def init_params(self, width, dictionary):
        return {}

    def forward(self, z, params, dictionary, cache=True):
        r = np.abs(z)
        out = z * _tanh_over_r(r)
        return out, {"z": z, "r": r} if cache else None

    def backward(self, g_out, cache, params):
        z, r = cache["z"], cache["r"]
        t = np.tanh(r)
        dz = 0.5 * (_tanh_over_r(r) + (1.0 - t**2))  # d out/d z, real
        dz_star = z**2 * _pseudo_tanh_factor(r)  # d out/d conj(z)
        gz = g_out * dz + np.conj(g_out) * dz_star
        return gz, {}


# ---------------------------------------------------------------------------
# Kernel-expansion activations: one separable-Gaussian term engine.
# ---------------------------------------------------------------------------

_PARTS = ("real", "imag")


@dataclass(frozen=True)
class _Term:
    """``scale * sum_ij Ei[b,h,i] * A[h,i,j] * Er[b,h,j]``, added to the ``out`` part.

    ``A`` is the (H, m, m) grid of the ``coef`` part of alpha; its rows
    follow the imaginary axis and its columns the real axis, in dictionary
    point order. ``Ei`` and ``Er`` are the per-axis Gaussians
    ``exp(-gamma * (x - axis)^2)`` of ``Im z`` and ``Re z``. ``gamma`` names
    the log-bandwidth parameter; ``col`` is its column when that parameter
    is (H, Q).
    """

    gamma: str
    coef: str
    out: str
    scale: float = 1.0
    col: int | None = None


def _kernel_terms(gamma, col=None, scale=1.0, cross=False):
    """Terms ``scale * e_imag^T A e_real`` for both alpha parts.

    ``cross`` routes ``Im alpha`` to the real output and ``Re alpha`` to the
    imaginary one, as the case-2 pseudo-kernel does.
    """
    return tuple(
        _Term(gamma, coef, out, scale, col)
        for coef, out in zip(_PARTS, _PARTS[::-1] if cross else _PARTS)
    )


_KAF_KERNELS = {"real_gaussian": (_kernel_terms("log_gamma"), None),
                "independent": ((), "log_gamma")}


def _accumulate(sums: dict, key, value: np.ndarray) -> None:
    if key in sums:
        sums[key] += value
    else:
        sums[key] = value


class _KafBase:
    """Forward and backward of a sum of :class:`_Term` over a square grid, plus,
    on the log-bandwidth ``closed_form`` names, ``h(Re z) - i*h(Im z)`` with
    ``h(x) = w^T e(x)`` and ``w = c(alpha) + i*r(alpha)`` (grid column and row sums).

    Subclasses provide ``terms``, and ``closed_form`` if any. Arrays are laid
    out (H, m, B): neuron, grid axis, batch row.
    """

    terms: tuple[_Term, ...]
    closed_form: str | None = None

    def __init_subclass__(cls):
        # per-class instrumentation (perfbench/harness.py) wraps a class's own
        # attribute: each variant holds the passes, so each is timed alone
        for name in ("init_params", "forward", "backward"):
            if name not in vars(cls):
                setattr(cls, name, vars(_KafBase)[name])

    @cached_property
    def _plan(self) -> tuple[tuple, dict]:
        """The factor keys ``(gamma, col, part)`` in first-use order, and the
        last key that reads each part: that factor overwrites the part's
        squares, which are dead once it is formed."""
        keys = [(t.gamma, t.col, p) for t in self.terms for p in ("imag", "real")]
        keys = tuple(dict.fromkeys(keys + [(self.closed_form, None, p) for p in _PARTS
                                           if self.closed_form]))
        return keys, {key[2]: key for key in keys}

    def forward(self, z, params, dictionary, cache=True):
        m = dictionary.points_per_axis
        axis = dictionary.points.real[:m, None]
        zt = np.ascontiguousarray(z.T)
        # repeat, then subtract the tiled grid: the broadcast subtraction's
        # values, without numpy's inner loop running once per B-element row
        grid = np.repeat(axis, zt.shape[1], axis=1)
        offsets = {p: np.repeat(getattr(zt, p)[:, None, :], m, axis=1) for p in _PARTS}
        for o in offsets.values():
            o -= grid
        # only backward reads the offsets: without a cache the squares replace them
        squares = {p: np.multiply(o, o, out=None if cache else o) for p, o in offsets.items()}
        grids = {p: np.ascontiguousarray(getattr(params["alpha"], p)).reshape(-1, m, m)
                 for p in _PARTS}
        keys, last = self._plan
        factors = {}  # (gamma, col, part) -> (bandwidth (H, 1, 1), Gaussian E)
        for key in keys:
            name, col, part = key
            gamma = np.exp(params[name] if col is None else params[name][:, col])[:, None, None]
            e = np.multiply(-gamma, squares[part], out=squares[part] if key == last[part] else None)
            factors[key] = (gamma, np.exp(e, out=e))

        out = {p: np.zeros(zt.shape) for p in _PARTS}
        bilinear = []  # (term, Ei key, Er key, A @ Er)
        for t in self.terms:
            left, right = (t.gamma, t.col, "imag"), (t.gamma, t.col, "real")
            ar = grids[t.coef] @ factors[right][1]
            out[t.out] += t.scale * np.einsum("hib,hib->hb", factors[left][1], ar)
            if cache:
                bilinear.append((t, left, right, ar))
        w = None
        if self.closed_form:  # c, r: column and row sums of each part's grid
            c, r = ({p: np.einsum(s, a) for p, a in grids.items()} for s in ("hij->hj", "hij->hi"))
            w = c["real"] - r["imag"], c["imag"] + r["real"]
            e_re, e_im = (factors[self.closed_form, None, p][1] for p in _PARTS)
            out["real"] += (w[0][:, None] @ e_re)[:, 0]
            out["imag"] += (w[1][:, None] @ e_re)[:, 0]
            out["real"] += (w[1][:, None] @ e_im)[:, 0]
            out["imag"] -= (w[0][:, None] @ e_im)[:, 0]
        result = _complex_assemble(out["real"].T, out["imag"].T)
        if not cache:
            return result, None
        return result, {"offsets": offsets, "grids": grids, "factors": factors,
                        "bilinear": bilinear, "w": w}

    def backward(self, g_out, cache, params):
        offsets, grids, factors = cache["offsets"], cache["grids"], cache["factors"]
        g_t = np.ascontiguousarray(g_out.T)
        weights = {}  # factor key -> dJ/dE, (H, m, B)
        g_grid = {p: np.zeros_like(a) for p, a in grids.items()}
        for t, left, right, ar in cache["bilinear"]:
            gs = t.scale * getattr(g_t, t.out)[:, None, :]
            ge = gs * factors[left][1]
            g_grid[t.coef] += ge @ factors[right][1].transpose(0, 2, 1)
            _accumulate(weights, left, gs * ar)
            _accumulate(weights, right, grids[t.coef].transpose(0, 2, 1) @ ge)
        if self.closed_form:
            (w_re, w_im), g_re, g_im = cache["w"], g_t.real, g_t.imag
            keys = [(self.closed_form, None, p) for p in _PARTS]
            # s_pq = E_p @ g_q, the batch sum of dJ/dout_q times E_p
            s_rr, s_ri, s_ir, s_ii = ((factors[key][1] @ g[:, :, None])[:, :, 0]
                                      for key in keys for g in (g_re, g_im))
            re, im = w_re[:, :, None], w_im[:, :, None]
            _accumulate(weights, keys[0], re * g_re[:, None] + im * g_im[:, None])
            _accumulate(weights, keys[1], im * g_re[:, None] - re * g_im[:, None])
            # the adjoint of w: Re alpha[i, j] reaches Re w[j] and Im w[i],
            # Im alpha[i, j] reaches Im w[j] and -Re w[i]
            g_grid["real"] += s_rr[:, None] + s_ir[..., None] + s_ri[..., None] - s_ii[:, None]
            g_grid["imag"] += s_ri[:, None] + s_ii[..., None] - s_rr[..., None] + s_ir[:, None]
        # E = exp(-gamma*o^2): dE/dx = -2*gamma*o*E, dE/dlog(gamma) = -gamma*o^2*E
        g_z = {p: np.zeros(g_t.shape) for p in _PARTS}
        grads = {name: np.zeros_like(params[name]) for name, _, _ in factors}
        for (name, col, part), (gamma, e) in factors.items():
            o = offsets[part]
            w = weights[name, col, part]
            w *= e
            w *= o
            g_z[part] -= 2.0 * gamma[:, :, 0] * np.einsum("hib->hb", w)
            g_log_gamma = -gamma[:, 0, 0] * np.einsum("hib,hib->h", w, o)
            if col is None:
                grads[name] += g_log_gamma
            else:
                grads[name][:, col] += g_log_gamma
        h = g_t.shape[0]
        grads["alpha"] = _complex_assemble(g_grid["real"].reshape(h, -1),
                                           g_grid["imag"].reshape(h, -1))
        return _complex_assemble(g_z["real"].T, g_z["imag"].T), grads

    def start_bandwidths(self, dictionary) -> dict[str, np.ndarray]:
        """One neuron's log-bandwidths by name, each at the rule of thumb. The
        factor plan names each; one with a ``col`` holds Q values."""
        log_g0 = np.log(gamma_rule_of_thumb(dictionary))
        cols = {}  # log-bandwidth name -> Q, or 0 for one value per neuron
        for name, col, _ in self._plan[0]:
            cols[name] = max(cols.get(name, 0), 0 if col is None else col + 1)
        return {name: np.full((q,) if q else (), log_g0) for name, q in cols.items()}

    def init_params(self, width, dictionary):
        """Every log-bandwidth at its start and every neuron's alpha at the
        identity that :func:`fit_alpha` fits once; width 0 fits nothing."""
        bandwidths = self.start_bandwidths(dictionary)
        alpha = (np.tile(fit_alpha(self, dictionary, bandwidths), (width, 1)) if width
                 else np.empty((0, dictionary.size), np.complex128))
        return {"alpha": alpha, **{name: np.repeat(b[None], width, axis=0)
                                   for name, b in bandwidths.items()}}


@dataclass(frozen=True)
class KafActivation(_KafBase):
    """Standard kernel activation, one bandwidth per neuron."""

    kernel: str = "real_gaussian"

    def __post_init__(self):
        if self.kernel not in _KAF_KERNELS:
            raise ParameterError(f"unknown kernel {self.kernel!r}; "
                                 f"choose from {sorted(_KAF_KERNELS)}")

    name = property(lambda self: f"kaf_{self.kernel}")
    terms = property(lambda self: _KAF_KERNELS[self.kernel][0])
    closed_form = property(lambda self: _KAF_KERNELS[self.kernel][1])


@dataclass(frozen=True)
class WlKafCase1Activation(_KafBase):
    """Widely linear activation, separate bandwidths per response part.

    ``k^T alpha + kt^T conj(alpha) = k_rr^T Re(alpha) + i*k_ii^T Im(alpha)``:
    each output part sees only its own separable kernel.
    """

    name = "wlkaf_case1"
    terms = (_Term("log_gamma_rr", "real", "real"), _Term("log_gamma_ii", "imag", "imag"))


@dataclass(frozen=True)
class WlKafCase2Activation(_KafBase):
    """Widely linear activation from separable kernels with fixed mixing.

    ``k = sum_q K_q`` is real and ``kt = 2i * sum_q omega_q * Kt_q`` purely
    imaginary, so ``kt^T conj(alpha)`` routes ``Im alpha`` to the real
    output and ``Re alpha`` to the imaginary one, scaled by ``2*omega_q``;
    Q is the number of mixing weights.
    """

    omegas: tuple[float, ...] = _CASE2_OMEGAS

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        if not self.omegas or any(not 0.0 < w < 1.0 for w in self.omegas):
            raise ParameterError(f"need mixing weights, each in (0, 1), got {self.omegas}")

    name = property(lambda self: ":".join(
        [_CASE2] if self.omegas == _CASE2_OMEGAS else [_CASE2, *map(repr, self.omegas)]))

    @cached_property
    def terms(self) -> tuple[_Term, ...]:
        kernel = [_kernel_terms("log_gamma", q) for q in range(len(self.omegas))]
        pseudo = [_kernel_terms("log_gamma_tilde", q, 2.0 * w, cross=True)
                  for q, w in enumerate(self.omegas)]
        return sum(kernel + pseudo, ())


# Every activation variant, keyed by its name: the one list that model
# names and the gradient check are derived from.
ACTIVATION_VARIANTS = {a.name: a for a in (
    SplitActivation(),
    PhaseAmplitudeActivation(),
    KafActivation("independent"),
    KafActivation("real_gaussian"),
    WlKafCase1Activation(),
    WlKafCase2Activation(),
)}


def activation_named(name: str):
    """The descriptor whose ``name`` is ``name``: a registry key, or case 2 at
    other mixing weights, ``wlkaf_case2:w1:w2...``, each weight in (0, 1) as
    ``repr`` prints it; another spelling is a :class:`ParameterError`."""
    if name in ACTIVATION_VARIANTS:
        return ACTIVATION_VARIANTS[name]
    kind, _, weights = name.partition(":")
    if kind != _CASE2 or not weights:
        raise ParameterError(f"unknown activation variant {name!r}; choose from "
                             f"{list(ACTIVATION_VARIANTS)} or {_CASE2}:w1:w2... "
                             "with each mixing weight in (0, 1)")
    try:
        omegas = tuple(float(w) for w in weights.split(":"))
    except ValueError:
        raise ParameterError(f"{name!r}: mixing weights must be numbers in (0, 1)") from None
    layer = WlKafCase2Activation(omegas)
    if layer.name != name:
        raise ParameterError(f"{name!r} is not the canonical spelling; write {layer.name!r}")
    return layer
