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
of ``Im z`` and ``Re z`` (or all ones), and each term adds to the real or
the imaginary output. The term tables are:

* ``kaf_real_gaussian``: 2 terms on one bandwidth;
* ``kaf_independent``: 8 one-sided terms, each summing one grid axis out;
* ``wlkaf_case1``: ``Re alpha`` on ``gamma_rr`` to the real part and
  ``Im alpha`` on ``gamma_ii`` to the imaginary part;
* ``wlkaf_case2``: 2Q kernel terms plus 2Q pseudo-kernel terms scaled by
  ``2*omega_q`` with the routing crossed.

One forward, one backward and one ``init_params`` (:class:`_KafBase`) serve
every table; the backward follows from the real partial derivatives of the
per-axis Gaussians. Initialization fits alpha through the layer's own map:
for fixed bandwidths every table is real-linear in ``(Re alpha, Im alpha)``,
so :func:`fit_alpha` reads the design matrix off one forward run over the
grid and solves one real ridge system, for any table and any bandwidths
(case 1 with ``gamma_rr != gamma_ii`` included). Layer classes vectorize
over a (batch, width) activation matrix with per-neuron parameters.
This engine is the one implementation of the kernels in the package; the
tests check it against dense per-atom reference forms kept with them.
Backward passes return cogradients in the package-wide convention
(see :mod:`cvkaf.cnum`) and are all validated against finite differences.

Every ``forward(z, params, dictionary, cache=True)`` returns ``(out,
cache)``, where the cache holds what ``backward`` reads. Callers that
only need ``out`` (prediction, the objective alone, :func:`fit_alpha`)
pass ``cache=False`` and get ``(out, None)``: the KAF engine then
computes each part's squares in place of its offsets and keeps no
``A @ R`` product, with the same arithmetic in the same order, so ``out``
is bit-identical to the cached pass.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ParameterError
from .kernels import Dictionary

__all__ = [
    "fit_alpha",
    "gamma_rule_of_thumb",
    "SplitActivation",
    "PhaseAmplitudeActivation",
    "KafActivation",
    "WlKafCase1Activation",
    "WlKafCase2Activation",
    "ACTIVATION_VARIANTS",
    "activation_named",
    "spec_dict",
    "activation_from_spec",
]

DEFAULT_RIDGE = 1e-4  # ridge weight of the identity fit in :func:`fit_alpha`


def gamma_rule_of_thumb(dictionary: Dictionary) -> float:
    """Default bandwidth ``1/(2*spacing^2)``.

    Puts neighbouring dictionary atoms at roughly exp(-1/2) overlap.
    """
    if dictionary.spacing <= 0:
        raise ParameterError("dictionary spacing must be positive")
    return 1.0 / (2.0 * dictionary.spacing**2)


def fit_alpha(layer, dictionary: Dictionary, bandwidths: dict, target=None,
              ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """Ridge-fit one neuron's mixing coefficients to ``target`` on the grid.

    ``layer`` is a KAF-family layer and ``bandwidths`` one neuron's
    log-bandwidth parameters by name, as ``layer.init_params`` names them.
    For fixed bandwidths the layer is real-linear in ``(Re alpha, Im
    alpha)``, so one run of its own ``forward`` over the D grid points, with
    2D neurons holding the unit coefficients ``e_j`` and ``i*e_j``, gives
    the real (2D, 2D) design matrix of the map. ``target`` is a callable on
    complex points or a length-D array; the default is the identity
    function, giving a near-linear initial activation. ``ridge=0`` requests
    exact interpolation and fails on a singular system.
    """
    if ridge < 0:
        raise ParameterError(f"ridge must be nonnegative, got {ridge}")
    pts = dictionary.points
    t = _target_values(target, pts)
    d = dictionary.size
    eye = np.eye(d)
    params = {name: np.broadcast_to(v, (2 * d, *np.shape(v)))
              for name, v in bandwidths.items()}
    params["alpha"] = np.concatenate([eye, 1j * eye])
    g, _ = layer.forward(np.broadcast_to(pts[:, None], (d, 2 * d)), params, dictionary,
                         cache=False)
    design = np.concatenate([g.real, g.imag])
    rhs = np.concatenate([t.real, t.imag])
    if ridge == 0:
        try:
            sol = np.linalg.solve(design, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular kernel fit system with ridge=0: {exc}") from exc
    else:
        sol = np.linalg.solve(design.T @ design + ridge * np.eye(2 * d), design.T @ rhs)
    return _complex_assemble(sol[:d], sol[d:])


def _target_values(target, pts: np.ndarray) -> np.ndarray:
    if target is None:
        return pts.copy()
    if callable(target):
        return np.asarray(target(pts), dtype=np.complex128)
    t = np.asarray(target, dtype=np.complex128)
    if t.shape != pts.shape:
        raise ParameterError(f"target has shape {t.shape}, expected {pts.shape}")
    return t


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
# (cograd_z, {name: cograd}). A descriptor's ``name`` is its registry key;
# its class's ``variant`` tag and its dataclass fields are its entry in a
# model header (see :func:`spec_dict`).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitActivation:
    """``tanh`` applied to the real and imaginary parts independently."""

    variant = "split"
    name = "split_tanh"
    fn: str = "tanh"  # the only nonlinearity; model headers carry it

    def __post_init__(self):
        if self.fn != "tanh":
            raise ParameterError(f"unknown split nonlinearity {self.fn!r}")

    def init_params(self, width, dictionary, rng, alpha_init="identity", ridge=DEFAULT_RIDGE):
        return {}

    def forward(self, z, params, dictionary, cache=True):
        re, im = np.tanh(z.real), np.tanh(z.imag)
        return re + 1j * im, {"d_re": 1.0 - re**2, "d_im": 1.0 - im**2} if cache else None

    def backward(self, g_out, cache, params, dictionary):
        gz = g_out.real * cache["d_re"] + 1j * (g_out.imag * cache["d_im"])
        return gz, {}


@dataclass(frozen=True)
class PhaseAmplitudeActivation:
    variant = name = "phase_amplitude"

    def init_params(self, width, dictionary, rng, alpha_init="identity", ridge=DEFAULT_RIDGE):
        return {}

    def forward(self, z, params, dictionary, cache=True):
        r = np.abs(z)
        out = z * _tanh_over_r(r)
        return out, {"z": z, "r": r} if cache else None

    def backward(self, g_out, cache, params, dictionary):
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
    """``scale * sum_ij L[b,h,i] * A[h,i,j] * R[b,h,j]``, added to the ``out`` part.

    ``A`` is the (H, m, m) grid of the ``coef`` part of alpha; its rows
    follow the imaginary axis and its columns the real axis, in dictionary
    point order. ``left`` and ``right`` name the part of z whose per-axis
    Gaussian ``exp(-gamma * (x - axis)^2)`` forms L and R, or None for all
    ones. ``gamma`` names the log-bandwidth parameter; ``col`` is its column
    when that parameter is (H, Q).
    """

    gamma: str
    left: str | None
    coef: str
    right: str | None
    out: str
    scale: float = 1.0
    col: int | None = None


def _kernel_terms(gamma, col=None, scale=1.0, cross=False):
    """Two-sided terms ``scale * e_imag^T A e_real`` for both alpha parts.

    ``cross`` routes ``Im alpha`` to the real output and ``Re alpha`` to the
    imaginary one, as the case-2 pseudo-kernel does.
    """
    return tuple(
        _Term(gamma, "imag", coef, "real", out, scale, col)
        for coef, out in zip(_PARTS, _PARTS[::-1] if cross else _PARTS)
    )


# sum_ij alpha_ij (ka[j] + kb[i] + i*(ka[i] - kb[j])) with ka, kb the
# per-axis Gaussians of Re z and Im z: every term sums one grid axis out
_INDEPENDENT_TERMS = (
    _Term("log_gamma", None, "real", "real", "real"),
    _Term("log_gamma", None, "imag", "real", "imag"),
    _Term("log_gamma", "imag", "real", None, "real"),
    _Term("log_gamma", "imag", "imag", None, "imag"),
    _Term("log_gamma", "real", "imag", None, "real", -1.0),
    _Term("log_gamma", "real", "real", None, "imag"),
    _Term("log_gamma", None, "imag", "imag", "real"),
    _Term("log_gamma", None, "real", "imag", "imag", -1.0),
)

_KAF_TERMS = {
    "real_gaussian": _kernel_terms("log_gamma"),
    "independent": _INDEPENDENT_TERMS,
}


def _accumulate(sums: dict, key, value: np.ndarray) -> None:
    if key in sums:
        sums[key] += value
    else:
        sums[key] = value


class _KafBase:
    """Forward and backward of a sum of :class:`_Term` over a square grid.

    Subclasses provide ``terms``. They also bind ``init_params``, ``forward``
    and ``backward`` as their own attributes, so per-class instrumentation
    (``perfbench/harness.py``) can wrap one variant at a time. Arrays are
    laid out (H, m, B): neuron, grid axis, batch row.
    """

    terms: tuple[_Term, ...]

    @cached_property
    def _plan(self) -> tuple[tuple, dict]:
        """The factor keys ``(gamma, col, part)`` in first-use order, and the
        last key that reads each part: that factor overwrites the part's
        squares, which are dead once it is formed."""
        keys = tuple(dict.fromkeys((t.gamma, t.col, p) for t in self.terms
                                   for p in (t.left, t.right) if p))
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
        bilinear = []  # two-sided terms: (term, left key, right key, A @ R)
        linear = {}  # one-sided terms summed per (factor key, out part): scaled grid sums
        for t in self.terms:
            a = grids[t.coef]
            if t.left and t.right:
                left, right = (t.gamma, t.col, t.left), (t.gamma, t.col, t.right)
                ar = a @ factors[right][1]
                out[t.out] += t.scale * np.einsum("hib,hib->hb", factors[left][1], ar)
                if cache:
                    bilinear.append((t, left, right, ar))
            else:
                key = (t.gamma, t.col, t.left or t.right)
                v = np.einsum("hij->hi" if t.left else "hij->hj", a)
                _accumulate(linear, (key, t.out), t.scale * v)
        for (key, part), v in linear.items():
            out[part] += (v[:, None, :] @ factors[key][1])[:, 0, :]
        result = _complex_assemble(out["real"].T, out["imag"].T)
        if not cache:
            return result, None
        return result, {"offsets": offsets, "grids": grids, "factors": factors,
                        "bilinear": bilinear, "linear": linear}

    def backward(self, g_out, cache, params, dictionary):
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
        g_sums = {}  # (factor key, out part) -> sum over the batch of dJ/dout * E
        for (key, part), v in cache["linear"].items():
            g = getattr(g_t, part)
            g_sums[key, part] = (factors[key][1] @ g[:, :, None])[:, :, 0]
            _accumulate(weights, key, np.einsum("hi,hb->hib", v, g))
        for t in self.terms:
            if not (t.left and t.right):
                s = t.scale * g_sums[(t.gamma, t.col, t.left or t.right), t.out]
                g_grid[t.coef] += s[:, :, None] if t.left else s[:, None, :]
        # E = exp(-gamma*o^2): dE/dx = -2*gamma*o*E, dE/dlog(gamma) = -gamma*o^2*E
        g_z = {p: np.zeros(g_t.shape) for p in _PARTS}
        grads = {t.gamma: np.zeros_like(params[t.gamma]) for t in self.terms}
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

    def init_params(self, width, dictionary, rng, alpha_init="identity", ridge=DEFAULT_RIDGE):
        """Every log-bandwidth at the rule of thumb; alpha fit or drawn.

        The term table names each log-bandwidth; one with a ``col`` is
        (width, Q). ``identity`` fits one neuron through :func:`fit_alpha`
        and repeats it; ``random`` draws alpha with complex std 0.3.
        """
        log_g0 = np.log(gamma_rule_of_thumb(dictionary))
        cols = {}  # log-bandwidth name -> Q, or 0 for one value per neuron
        for t in self.terms:
            cols[t.gamma] = max(cols.get(t.gamma, 0), 0 if t.col is None else t.col + 1)
        bandwidths = {name: np.full((q,) if q else (), log_g0) for name, q in cols.items()}
        if alpha_init == "identity":
            alpha = np.tile(fit_alpha(self, dictionary, bandwidths, ridge=ridge), (width, 1))
        elif alpha_init == "random":
            # std 0.3 for the complex value -> 0.3/sqrt(2) per component
            s = 0.3 / np.sqrt(2.0)
            alpha = (rng.normal(0.0, s, (width, dictionary.size))
                     + 1j * rng.normal(0.0, s, (width, dictionary.size)))
        else:
            raise ParameterError(f"unknown alpha_init {alpha_init!r}")
        return {"alpha": alpha,
                **{name: np.full((width, *b.shape), log_g0) for name, b in bandwidths.items()}}


@dataclass(frozen=True)
class KafActivation(_KafBase):
    """Standard kernel activation, one bandwidth per neuron."""

    variant = "kaf"
    kernel: str = "real_gaussian"

    def __post_init__(self):
        if self.kernel not in _KAF_TERMS:
            raise ParameterError(f"unknown kernel {self.kernel!r}; "
                                 f"choose from {sorted(_KAF_TERMS)}")

    name = property(lambda self: f"kaf_{self.kernel}")
    terms = property(lambda self: _KAF_TERMS[self.kernel])

    init_params = _KafBase.init_params
    forward = _KafBase.forward
    backward = _KafBase.backward


@dataclass(frozen=True)
class WlKafCase1Activation(_KafBase):
    """Widely linear activation, separate bandwidths per response part.

    ``k^T alpha + kt^T conj(alpha) = k_rr^T Re(alpha) + i*k_ii^T Im(alpha)``:
    each output part sees only its own separable kernel.
    """

    variant = name = "wlkaf_case1"
    terms = (
        _Term("log_gamma_rr", "imag", "real", "real", "real"),
        _Term("log_gamma_ii", "imag", "imag", "real", "imag"),
    )

    init_params = _KafBase.init_params
    forward = _KafBase.forward
    backward = _KafBase.backward


@dataclass(frozen=True)
class WlKafCase2Activation(_KafBase):
    """Widely linear activation from separable kernels with fixed mixing.

    ``k = sum_q K_q`` is real and ``kt = 2i * sum_q omega_q * Kt_q`` purely
    imaginary, so ``kt^T conj(alpha)`` routes ``Im alpha`` to the real
    output and ``Re alpha`` to the imaginary one, scaled by ``2*omega_q``.
    """

    variant = name = "wlkaf_case2"
    q: int = 1
    omegas: tuple[float, ...] = (0.3,)

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(self.omegas))  # a header holds a list
        if self.q < 1 or len(self.omegas) != self.q:
            raise ParameterError(f"need q >= 1 mixing weights, got q={self.q}, {self.omegas}")
        if any(not 0.0 < w < 1.0 for w in self.omegas):
            raise ParameterError(f"mixing weights must lie in (0, 1), got {self.omegas}")

    @cached_property
    def terms(self) -> tuple[_Term, ...]:
        kernel = [_kernel_terms("log_gamma", q) for q in range(self.q)]
        pseudo = [_kernel_terms("log_gamma_tilde", q, 2.0 * w, cross=True)
                  for q, w in enumerate(self.omegas)]
        return sum(kernel + pseudo, ())

    init_params = _KafBase.init_params
    forward = _KafBase.forward
    backward = _KafBase.backward


# Every activation variant, keyed by its name: the one list that model
# names, the gradient check and model headers are derived from.
ACTIVATION_VARIANTS = {a.name: a for a in (
    SplitActivation(),
    PhaseAmplitudeActivation(),
    KafActivation("independent"),
    KafActivation("real_gaussian"),
    WlKafCase1Activation(),
    WlKafCase2Activation(),
)}


def activation_named(name: str):
    """The registry's descriptor called ``name``."""
    if name not in ACTIVATION_VARIANTS:
        raise ParameterError(f"unknown activation variant {name!r}; "
                             f"choose from {list(ACTIVATION_VARIANTS)}")
    return ACTIVATION_VARIANTS[name]


def spec_dict(activation) -> dict:
    """A descriptor's entry in a model header: its class's variant tag and
    its dataclass fields, which are its settings."""
    return {"variant": activation.variant, **dataclasses.asdict(activation)}


def activation_from_spec(spec: dict):
    """Rebuild an activation descriptor from its :func:`spec_dict` form."""
    settings = dict(spec)
    classes = {a.variant: type(a) for a in ACTIVATION_VARIANTS.values()}
    cls = classes.get(settings.pop("variant", None))
    if cls is None or set(settings) != {f.name for f in dataclasses.fields(cls)}:
        raise ParameterError(f"not an activation spec: {spec}")
    return cls(**settings)
