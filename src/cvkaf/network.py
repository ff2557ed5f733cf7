"""Network assembly, the softmax cross-entropy rule and the regularized objective.

A :class:`NetworkConfig` is a model's whole description, and a model
file's header (format version 3, the only one read): its
``activation`` name, ``real_nn`` or an activation name such as
``wlkaf_case2:0.7:0.2``, picks the class and the hidden activation.

Both network classes are one chain, :class:`_Network`, of affine layers
whose hidden outputs pass through a shared activation descriptor with each
layer's own parameters. Construction, loading, ``forward``, ``backward``,
``parameters()`` (a name->array dict the optimizer mutates in place),
``objective``, ``loss_and_grads`` and ``predict_proba`` are written there
once, beside :func:`softmax_cross_entropy` and :func:`regularize`, the one
loss and the one penalty rule. Each class supplies only hooks: its weights'
dtype and draw, its hidden activation, its first layer's input and its
softmax scores. The complex network reads the input as it is and scores
the squared magnitudes of its complex logits; the real baseline is an MLP
with float64 weights and ReLU hiddens that reads [Re x, Im x] and scores
its logits.

Forward caches are tied to a parameter version counter so a backward pass
against a mutated network fails loudly instead of silently using stale
intermediates. Prediction and :meth:`objective` run ``forward(x,
cache=False)``, which returns no cache and keeps no per-layer entry.

Every entry point takes only a complex (rows, ``config.input_dim``) batch,
one sample being a one-row batch; any other shape, a 1-D vector included,
is a :class:`DimensionError`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import activations as act
from . import container
from .cnum import backward_affine, complex_affine, hermitian_norm_sq
from .errors import (
    CacheError,
    DimensionError,
    NumericError,
    ParameterError,
    StateError,
    _is_a,
    check_seed,
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
        if not 0 <= self.reg_weight < math.inf:
            raise ParameterError(
                f"regularization weight must be finite and nonnegative, got {self.reg_weight}")


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a model is built from; a model file's header holds it."""

    input_dim: int
    hidden_widths: tuple[int, ...] = (100, 100, 100)
    class_count: int = 10
    activation: str = "kaf_independent"  # real_nn, or an activation name
    seed: int = 0
    dict_points: int = DEFAULT_POINTS_PER_AXIS
    dict_range: tuple[float, float] = DEFAULT_AXIS_RANGE

    def __post_init__(self):
        for name in ("hidden_widths", "dict_range"):  # a header holds lists
            object.__setattr__(self, name, tuple(getattr(self, name)))
        sizes = (self.input_dim, self.class_count, *self.hidden_widths)
        if not all(_is_a(n, numbers.Integral) for n in sizes):
            raise ParameterError(f"input_dim {self.input_dim!r}, class_count "
                                 f"{self.class_count!r} and hidden_widths "
                                 f"{self.hidden_widths!r} must be integers")
        if self.input_dim < 1 or self.class_count < 1:
            raise ParameterError("input_dim and class_count must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ParameterError(f"hidden_widths must be positive, got {self.hidden_widths}")
        check_seed(self.seed)
        try:  # checked for every name, real_nn too, which builds no grid and fits no alpha
            build_dictionary(self.dict_points, self.dict_range)
        except ParameterError as exc:
            raise ParameterError(f"dict_points {self.dict_points!r} and dict_range "
                                 f"{self.dict_range}: {exc}") from exc
        # plain ints, such as numpy's, go into the header's JSON
        for name in ("input_dim", "class_count", "seed", "dict_points"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))


class _Network:
    """The one layer chain and training surface of both network classes; a subclass
    sets the hooks ``_dtype``, ``_weights``, ``_hidden_activation`` (a name to its
    descriptor), ``_scores`` (logits to softmax scores) and ``_chain_scores`` (a score
    gradient to a logit gradient), and may replace ``_input`` and ``_input_features``."""

    _input_features = 1  # the first layer reads the complex input itself
    _input = staticmethod(lambda x: x)

    def __init_subclass__(cls):
        # per-class instrumentation (perfbench/harness.py) wraps a class's own
        # attribute: each network class holds these, so each is timed alone
        for name in ("forward", "backward", "predict", "loss_and_grads"):
            if name not in vars(cls):
                setattr(cls, name, vars(_Network)[name])

    # -- construction --------------------------------------------------------

    def __init__(self, config: NetworkConfig):
        """Draw each layer's weights from ``config.seed``, zero its biases and
        start each hidden layer's activation parameters at the activation's start."""
        self._setup(config)
        rng = np.random.default_rng(config.seed)
        # every neuron starts alike: make one and repeat it to each layer's width
        neuron = self.activation.init_params(1, self.dictionary)
        hidden = lambda width: {name: np.repeat(arr, width, axis=0)  # noqa: E731
                                for name, arr in neuron.items()}
        self._make_layers(lambda fan_out, fan_in: self._weights(rng, fan_out, fan_in), hidden)

    @classmethod
    def _from_parameters(cls, config: NetworkConfig, values: dict[str, np.ndarray]):
        """The network holding ``values``, whose names and shapes must fit
        exactly, as :meth:`set_parameters` checks; nothing is drawn or fit."""
        model = cls.__new__(cls)
        model._setup(config)
        # a zero-width layer gives each activation parameter's name, trailing
        # shape and dtype, and fits nothing
        empty = model.activation.init_params(0, model.dictionary)
        model._make_layers(lambda fan_out, fan_in: np.empty((fan_out, fan_in), cls._dtype),
                           lambda width: {name: np.empty((width, *arr.shape[1:]), arr.dtype)
                                          for name, arr in empty.items()})
        model.set_parameters(values)
        return model

    def _setup(self, config: NetworkConfig) -> None:
        """Set everything but the parameters."""
        self.config = config
        self.activation = self._hidden_activation(config.activation)
        self.dictionary = (None if self.activation is _RELU  # ReLU reads no dictionary
                           else build_dictionary(config.dict_points, config.dict_range))
        self._version = 0

    def _make_layers(self, weights, hidden) -> None:
        """Make each layer's (W, b, activation parameters or None for the last)
        from ``weights(fan_out, fan_in)``, zeros and ``hidden(width)``, in that
        order, and the flat name->array view that :meth:`parameters` returns."""
        c = self.config
        widths = [self._input_features * c.input_dim, *c.hidden_widths, c.class_count]
        self._layers = []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            w = weights(fan_out, fan_in)
            self._layers.append((w, np.zeros(fan_out, dtype=w.dtype),
                                 hidden(fan_out) if i < len(widths) - 2 else None))
        self._params = {f"layer{i}.{name}": arr for i, (w, b, act_params) in enumerate(self._layers)
                        for name, arr in {"W": w, "b": b, **(act_params or {})}.items()}

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
                raise DimensionError(f"shape mismatch for {name}")
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
        other shape is a :class:`DimensionError`."""
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise DimensionError(f"expected a (rows, {self.config.input_dim}) batch, "
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

    _hidden_activation = staticmethod(act.activation_named)

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
    def _hidden_activation(name: str):
        if name != "real_nn":
            raise ParameterError(f"the real baseline is named 'real_nn', not {name!r}")
        return _RELU

    @staticmethod
    def _weights(rng, fan_out: int, fan_in: int) -> np.ndarray:
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in))

    _scores = staticmethod(lambda logits: logits)  # the softmax runs over the logits
    _chain_scores = staticmethod(lambda g, logits: g)


MODEL_VARIANTS = ("real_nn", "kaf_independent", "kaf_real_gaussian", "wlkaf_case1", "wlkaf_case2")


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
    return (RealBaselineNetwork if variant == "real_nn" else ComplexNetwork)(cfg)


def save_model(path, model) -> None:
    """Write a model, its config as the header, to the versioned container (timestamp-free)."""
    container.write_container(path, _MODEL_MAGIC, _MODEL_VERSION,
                              {"config": dataclasses.asdict(model.config)}, model.parameters())


def load_model(path):
    """Reconstruct a model saved by :func:`save_model`, bit-exact.

    A file whose header or arrays do not describe a model of this package
    is a :class:`CacheError` that names the file.
    """
    try:
        meta, arrays = container.read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        c, names = meta.pop("config"), sorted(f.name for f in dataclasses.fields(NetworkConfig))
        if meta or sorted(c) != names:
            raise ValueError(f"header {sorted(meta)} with config {sorted(c)}, expected {names}")
        cls = RealBaselineNetwork if c["activation"] == "real_nn" else ComplexNetwork
        return cls._from_parameters(NetworkConfig(**c), arrays)
    except CacheError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CacheError(f"{path} does not hold a usable model: {describe(exc)}") from exc
