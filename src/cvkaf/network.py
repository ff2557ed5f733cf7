"""Network assembly, the softmax cross-entropy rule and the regularized objective.

A :class:`NetworkConfig` is a model's whole description, and a model
file's header (format version 3, the only one read): its
``activation`` name, ``real_nn`` or an activation name such as
``wlkaf_case2:0.7:0.2``, picks the class and the hidden activation, by the
one rule :func:`_network_kind`.

Both network classes are one chain, :class:`_Network`, of affine layers
whose hidden outputs pass through a shared activation descriptor with each
layer's own parameters. The one constructor (it draws a network or holds a
loaded model's arrays), ``forward``, ``backward``, ``parameters()`` (a
name->array dict the optimizer mutates in place), ``objective``,
``loss_and_grads`` and ``predict_proba`` are written there once, beside
:func:`softmax_cross_entropy` and :func:`regularize`, the one loss and the
one penalty rule. Each class supplies only hooks: its weights'
dtype and draw, its first layer's input and its softmax scores. The complex
network reads the input as it is and scores the squared magnitudes of its
complex logits; the real baseline is an MLP with float64 weights and ReLU
hiddens that reads [Re x, Im x] and scores its logits.

Forward caches are tied to a parameter version counter so a backward pass
against a mutated network fails loudly instead of silently using stale
intermediates. Prediction and :meth:`objective` run ``forward(x,
cache=False)``, which returns no cache and keeps no per-layer entry.

Every entry point takes only a complex (rows, ``config.input_dim``) batch,
one sample being a one-row batch; any other shape, a 1-D vector included,
is a :class:`ParameterError`.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass

import numpy as np

from . import activations as act
from . import container
from .cnum import backward_affine, complex_affine, components, hermitian_norm_sq
from .errors import (
    DataFormatError,
    NumericError,
    ParameterError,
    StateError,
    check_int,
    check_number,
    describe,
)
from .kernels import DEFAULT_AXIS_RANGE, DEFAULT_POINTS_PER_AXIS, build_dictionary

__all__ = [
    "NetworkConfig",
    "TrainObjective",
    "ComplexNetwork",
    "RealBaselineNetwork",
    "complex_softmax",
    "softmax_cross_entropy",
    "regularize",
    "build_model",
    "save_model",
    "load_model",
    "parameter_count",
    "effective_parameter_count",
    "bandwidth_split",
    "outside_grid_share",
    "MODEL_VARIANTS",
]

_MODEL_MAGIC = b"CVKM"
_MODEL_VERSION = 3

_P_FLOOR = 1e-12  # probability clamp inside the cross-entropy

# Prediction runs the forward pass over row blocks of this many elements
# per (rows, width, points_per_axis) KAF temporary: 51200 float64 values are
# 400 KiB, so a block's half-dozen live temporaries stay near a 2 MiB L2
# cache instead of streaming through main memory (64 rows at the paper's
# width 100 and 8x8 dictionary). The other activations' largest temporaries
# are (rows, width), so their blocks hold points_per_axis times the rows.
_PREDICT_BLOCK_ELEMENTS = 51200


def _squared_magnitudes(h: np.ndarray) -> np.ndarray:
    return h.real**2 + h.imag**2


def complex_softmax(h) -> np.ndarray:
    """Class probabilities proportional to ``exp(|h_n|^2)``.

    The squared magnitudes are shifted by their maximum before
    exponentiation; the shift cancels in the normalization, so the output
    is invariant to it (and to any per-component phase rotation of ``h``).
    """
    return softmax_from_squared_magnitudes(
        _squared_magnitudes(np.asarray(h, dtype=np.complex128)))


def softmax_from_squared_magnitudes(s) -> np.ndarray:
    """The softmax over the last axis of the scores ``s``: squared
    magnitudes for the complex network, logits for the real baseline."""
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(scores: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the softmax over ``scores`` (rows, classes).

    Returns the loss, with each probability clamped below at 1e-12 inside
    the log, and its gradient ``p - onehot`` with respect to each row's
    scores, not yet divided by the row count. A label outside
    ``[0, classes)`` raises ``IndexError``. Both network classes use this
    one rule.
    """
    labels = np.asarray(labels, dtype=np.intp)
    p = softmax_from_squared_magnitudes(scores)
    n, classes = p.shape
    if np.any(labels < 0) or np.any(labels >= classes):
        raise IndexError(f"label out of range for {classes} classes")
    rows = np.arange(n)
    loss = float(-np.log(np.clip(p[rows, labels], _P_FLOOR, None)).mean())
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0
    return loss, p - onehot


def regularize(params: dict[str, np.ndarray], c: float, grads=None) -> float:
    """The parameter-norm penalty ``c * sum_w ||w||^2`` over ``params``.

    With ``grads``, also adds the penalty's cogradient ``2c * w`` to each
    gradient array in place; those arrays must be fresh, as ``backward``
    returns them. Both network classes use this one rule.
    """
    if c == 0:
        return 0.0
    if grads is not None:
        for name, w in params.items():
            grads[name] += 2.0 * c * w
    return c * sum(hermitian_norm_sq(w) for w in params.values())


@dataclass(frozen=True)
class TrainObjective:
    """The softmax cross-entropy plus the weight of the parameter-norm regularizer."""

    loss: str = "cross_entropy"  # the only loss
    reg_weight: float = 0.0

    def __post_init__(self):
        if self.loss != "cross_entropy":
            raise ParameterError(f"unknown loss {self.loss!r}; only 'cross_entropy' is defined")
        object.__setattr__(self, "reg_weight",
                           check_number("reg_weight", self.reg_weight, zero_ok=True))


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a model is built from; a model file's header holds it. Its
    ``dictionary``, the grid its fields give, is not a field."""

    input_dim: int
    hidden_widths: tuple[int, ...] = (100, 100, 100)
    class_count: int = 10
    activation: str = "kaf_independent"  # real_nn, or an activation name
    seed: int = 0
    dict_points: int = DEFAULT_POINTS_PER_AXIS
    dict_range: tuple[float, float] = DEFAULT_AXIS_RANGE

    def __post_init__(self):
        # a header holds lists, and its JSON takes plain ints, not numpy's
        object.__setattr__(self, "dict_range", tuple(self.dict_range))
        for name, minimum in (("input_dim", 1), ("class_count", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        object.__setattr__(self, "hidden_widths", tuple(
            check_int("hidden_widths entry", w, 1) for w in self.hidden_widths))
        try:  # built for every name, real_nn too, whose ReLU reads no grid
            dictionary = build_dictionary(self.dict_points, self.dict_range)
        except ParameterError as exc:
            raise ParameterError(f"dict_points {self.dict_points!r} and dict_range "
                                 f"{self.dict_range}: {exc}") from exc
        object.__setattr__(self, "dict_points", dictionary.points_per_axis)
        object.__setattr__(self, "dictionary", dictionary)


class _Network:
    """The one layer chain and training surface of both network classes; a subclass
    sets the hooks ``_dtype``, ``_weights``, ``_scores`` (logits to softmax scores) and
    ``_chain_scores`` (a score gradient to a logit gradient), and may replace ``_input``
    and ``_input_features``. :func:`_network_kind` gives each class its model names."""

    _input_features = 1  # the first layer reads the complex input itself
    _input = staticmethod(lambda x: x)

    def __init_subclass__(cls):
        # per-class instrumentation (perfbench/harness.py) wraps a class's own
        # attribute: each network class holds these, so each is timed alone
        for name in ("forward", "backward", "predict", "loss_and_grads"):
            if name not in vars(cls):
                setattr(cls, name, vars(_Network)[name])

    # -- construction --------------------------------------------------------

    def __init__(self, config: NetworkConfig, values: dict[str, np.ndarray] | None = None):
        """Draw each layer's weights from ``config.seed``, zero its biases and start
        each hidden layer's activation parameters at the activation's start; or hold
        ``values``, whose names, shapes and dtypes must fit exactly, as
        :meth:`set_parameters` checks, drawing and fitting nothing."""
        kind, activation = _network_kind(config.activation)
        if not isinstance(self, kind):
            raise ParameterError(f"the real baseline is named 'real_nn', not {config.activation!r}"
                                 if kind is ComplexNetwork else
                                 f"'real_nn' is the real baseline, not a {type(self).__name__}")
        self.config, self.activation, self._version = config, activation(), 0
        self.dictionary = None if self.activation is _RELU else config.dictionary  # ReLU reads none
        draw = values is None
        rng = np.random.default_rng(config.seed) if draw else None
        # drawing makes one neuron and repeats it to each layer's width, as every neuron starts
        # alike; loading reads each activation parameter's name, trailing shape and dtype from
        # a zero-width layer, which fits nothing
        neuron = self.activation.init_params(1 if draw else 0, self.dictionary)
        widths = [self._input_features * config.input_dim, *config.hidden_widths,
                  config.class_count]
        self._layers = []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            w = (self._weights(rng, fan_out, fan_in) if draw
                 else np.empty((fan_out, fan_in), self._dtype))
            hidden = {name: np.repeat(arr, fan_out, axis=0) if draw
                      else np.empty((fan_out, *arr.shape[1:]), arr.dtype)
                      for name, arr in neuron.items()} if i < len(widths) - 2 else None
            self._layers.append((w, np.zeros(fan_out, dtype=w.dtype), hidden))
        self._params = {f"layer{i}.{name}": arr for i, (w, b, act_params) in enumerate(self._layers)
                        for name, arr in {"W": w, "b": b, **(act_params or {})}.items()}
        if not draw:
            self.set_parameters(values)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Live (mutable) name->array view of every trainable parameter."""
        return self._params

    def bump_version(self) -> None:
        """Invalidate outstanding forward caches after in-place updates."""
        self._version += 1

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            raise ParameterError("parameter name sets differ")
        for name, arr in values.items():
            own = self._params[name]
            if arr.shape != own.shape:
                raise ParameterError(f"shape mismatch for {name}")
            if arr.dtype != own.dtype:  # a cast would change the values
                raise ParameterError(f"dtype mismatch for {name}: expected {own.dtype}, "
                                     f"got {arr.dtype}")
        for name, arr in values.items():
            self._params[name][...] = arr
        self.bump_version()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self._params.items()}

    def _batch(self, x) -> np.ndarray:
        """``x`` as a complex (rows, input_dim) batch, the one input form; any
        other shape is a :class:`ParameterError`."""
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ParameterError(f"expected a (rows, {self.config.input_dim}) batch, "
                                 f"got shape {x.shape}")
        return x

    def _check_cache(self, cache: dict | None) -> None:
        if cache is None:
            raise StateError("no forward cache: forward() ran with cache=False")
        if cache.get("version") != self._version:
            raise StateError("forward cache is stale: parameters changed since forward()")

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = True) -> tuple[np.ndarray, dict | None]:
        """Map inputs to logits and the cache of every intermediate that
        :meth:`backward` reads, or None with ``cache=False``."""
        h = self._input(self._batch(x))
        layers = []
        for w, b, hidden in self._layers:
            entry = {"x": h}
            h = complex_affine(w, h, b)
            if hidden is not None:
                h, entry["act_cache"] = self.activation.forward(
                    h, hidden, self.dictionary, cache=cache)
            if cache:
                layers.append(entry)
        return h, {"version": self._version, "layers": layers} if cache else None

    def backward(self, cograd_logits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Cogradients of a real objective for every trainable parameter; none
        for the network's input, which nothing reads."""
        self._check_cache(cache)
        g = cograd_logits
        grads: dict[str, np.ndarray] = {}
        for i in reversed(range(len(self._layers))):
            w, _, hidden = self._layers[i]
            entry = cache["layers"][i]
            if hidden is not None:
                g, act_grads = self.activation.backward(g, entry["act_cache"], hidden)
                for name, garr in act_grads.items():
                    grads[f"layer{i}.{name}"] = garr
            grads[f"layer{i}.W"], g, grads[f"layer{i}.b"] = backward_affine(
                g, w if i else None, entry["x"])
        return grads

    # -- prediction ----------------------------------------------------------

    def _predict_block_rows(self) -> int:
        """Rows per forward block in :meth:`predict_proba`."""
        # only the kernel activations make (rows, width, points_per_axis) temporaries
        m = self.dictionary.points_per_axis if isinstance(self.activation, act._KafBase) else 1
        return max(1, _PREDICT_BLOCK_ELEMENTS // (max(self.config.hidden_widths, default=1) * m))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, from a forward pass over consecutive row blocks.

        Peak memory is bounded by one block, not by the number of rows.
        """
        x = self._batch(x)
        rows = self._predict_block_rows()
        # a 0-row input still runs one empty block, giving shape (0, classes)
        return np.concatenate([
            softmax_from_squared_magnitudes(
                self._scores(self.forward(x[lo:lo + rows], cache=False)[0]))
            for lo in range(0, max(x.shape[0], 1), rows)])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=-1)

    # -- objective -----------------------------------------------------------

    def objective(self, x: np.ndarray, labels, objective: TrainObjective) -> float:
        """Mean cross-entropy over the batch plus the weighted parameter norm."""
        logits, _ = self.forward(x, cache=False)
        value = softmax_cross_entropy(self._scores(logits), labels)[0]
        value += regularize(self._params, objective.reg_weight)
        self._check_finite(value)
        return value

    def loss_and_grads(
        self, x: np.ndarray, labels, objective: TrainObjective
    ) -> tuple[float, dict[str, np.ndarray]]:
        """:meth:`objective` and its cogradient for every parameter."""
        logits, cache = self.forward(x)
        data_loss, g_scores = softmax_cross_entropy(self._scores(logits), labels)
        grads = self.backward(self._chain_scores(g_scores, logits) / logits.shape[0], cache)
        value = data_loss + regularize(self._params, objective.reg_weight, grads)
        self._check_finite(value)
        return value, grads

    def _check_finite(self, value: float) -> None:
        if np.isfinite(value):
            return
        bad = [name for name, arr in self._params.items() if not np.isfinite(arr).all()]
        raise NumericError(
            f"objective is {value!r}; parameters with non-finite entries: {bad or 'none'}"
        )


class ComplexNetwork(_Network):
    """Feedforward complex network with a shared hidden activation."""

    _dtype = np.complex128

    @staticmethod
    def _weights(rng, fan_out: int, fan_in: int) -> np.ndarray:
        s = np.sqrt(1.0 / (2.0 * fan_in))  # per part, so each weight has variance 1/fan_in
        return rng.normal(0.0, s, (fan_out, fan_in)) + 1j * rng.normal(0.0, s, (fan_out, fan_in))

    _scores = staticmethod(_squared_magnitudes)  # the softmax runs over |h|^2
    _chain_scores = staticmethod(lambda g, logits: 2.0 * g * logits)  # |h|^2's cogradient is 2h


class _Relu:
    """The real baseline's hidden activation ``max(z, 0)``; it has no parameters."""

    def init_params(self, width, dictionary):
        return {}

    def forward(self, z, params, dictionary, cache=True):
        return np.maximum(z, 0.0), {"active": z > 0} if cache else None

    def backward(self, g_out, cache, params):
        return g_out * cache["active"], {}


_RELU = _Relu()


class RealBaselineNetwork(_Network):
    """Conventional real MLP fed [Re(x); Im(x)], ReLU hiddens, softmax output."""

    _dtype = np.float64
    _input_features = 2

    _input = staticmethod(lambda x: np.hstack([x.real, x.imag]))

    @staticmethod
    def _weights(rng, fan_out: int, fan_in: int) -> np.ndarray:
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in))

    _scores = staticmethod(lambda logits: logits)  # the softmax runs over the logits
    _chain_scores = staticmethod(lambda g, logits: g)


def _network_kind(name: str):
    """The network class of the model named ``name`` and its hidden activation's lookup:
    ``real_nn`` is the real baseline with ReLU hiddens, any other name a complex network
    with the activation of that name. The lookup waits, so that a class refuses a name
    of the other class before an unknown activation name is looked up."""
    if name == "real_nn":
        return RealBaselineNetwork, lambda: _RELU
    return ComplexNetwork, lambda: act.activation_named(name)


# the baseline, then every kernel-family layer: what ``compare`` sweeps by default
MODEL_VARIANTS = ("real_nn", *(name for name, layer in act.ACTIVATION_VARIANTS.items()
                               if isinstance(layer, act._KafBase)))


def build_model(
    variant: str,
    input_dim: int,
    class_count: int,
    seed: int,
    hidden_widths: tuple[int, ...] = NetworkConfig.hidden_widths,
    dictionary=None,
):
    """Construct the model named ``variant``: ``real_nn`` or an activation name. A
    :class:`~cvkaf.kernels.Dictionary` sets the config's ``dict_points`` and ``dict_range``."""
    grid = {} if dictionary is None else {"dict_points": dictionary.points_per_axis,
                                          "dict_range": dictionary.axis_range}
    cfg = NetworkConfig(input_dim, hidden_widths, class_count, activation=variant, seed=seed,
                        **grid)
    return _network_kind(variant)[0](cfg)


def save_model(path, model) -> None:
    """Write a model, its config as the header, to the versioned container (timestamp-free)."""
    container.write_container(path, _MODEL_MAGIC, _MODEL_VERSION,
                              {"config": dataclasses.asdict(model.config)}, model.parameters())


def load_model(path):
    """Reconstruct a model saved by :func:`save_model`, bit-exact.

    A file that cannot be read, or whose header or arrays do not describe a
    model of this package, is a :class:`DataFormatError` that names the file.
    """
    meta, arrays = container.read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
    try:
        c, names = meta.pop("config"), sorted(f.name for f in dataclasses.fields(NetworkConfig))
        if meta or sorted(c) != names:
            raise ValueError(f"header {sorted(meta)} with config {sorted(c)}, expected {names}")
        return _network_kind(c["activation"])[0](NetworkConfig(**c), arrays)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path} does not hold a usable model: {describe(exc)}") from exc


def parameter_count(model) -> int:
    """The real values ``model`` trains: each complex entry counts two, its (re, im) pair."""
    return sum(components(arr).size for arr in model.parameters().values())


def effective_parameter_count(model) -> int:
    """:func:`parameter_count` less, per hidden neuron of a KAF-family model, the
    alpha directions that do not reach the output: 2D less the rank of the layer's
    ``alpha_design`` on the D grid points. The rank is taken there at the start
    bandwidths, not the trained ones. Every other model loses nothing."""
    count, layer = parameter_count(model), model.activation
    if not isinstance(layer, act._KafBase):
        return count
    d = model.dictionary
    design = act.alpha_design(layer, d, layer.start_bandwidths(d), d.points)
    unreached = 2 * d.size - int(np.linalg.matrix_rank(design))
    return count - unreached * sum(model.config.hidden_widths)


def bandwidth_split(model) -> list[dict[str, float]] | None:
    """Per hidden layer of a ``wlkaf_case1`` model, the median and max over its neurons
    of |log gamma_rr - log gamma_ii|; None for every other model."""
    if model.config.activation != "wlkaf_case1":
        return None
    splits = [np.abs(hidden["log_gamma_rr"] - hidden["log_gamma_ii"]).tolist()
              for _, _, hidden in model._layers[:-1]]
    # np.median would import numpy.ma on its first call, 0.5 MB more resident memory
    return [{"median": statistics.median(d), "max": max(d)} for d in splits]


def outside_grid_share(model, x) -> list[float] | None:
    """Per hidden layer of a KAF-family model, the share of its pre-activations on the
    rows of ``x`` whose real or imaginary part lies outside the grid's axis range, where
    every Gaussian is flat; None for every other model. The rows run in the blocks of
    prediction, so memory is bounded by one block."""
    if not isinstance(model.activation, act._KafBase):
        return None
    x, (lo, hi) = model._batch(x), model.dictionary.axis_range
    hidden, rows = model._layers[:-1], model._predict_block_rows()
    outside = [0] * len(hidden)
    for start in range(0, x.shape[0], rows):
        h = x[start:start + rows]
        for i, (w, b, params) in enumerate(hidden):
            z = complex_affine(w, h, b)
            parts = components(z)  # (rows, width, 2): re, im
            outside[i] += np.count_nonzero(((parts < lo) | (parts > hi)).any(axis=-1))
            h = model.activation.forward(z, params, model.dictionary, cache=False)[0]
    return [n / (x.shape[0] * w.shape[0]) for n, (w, _, _) in zip(outside, hidden)]
