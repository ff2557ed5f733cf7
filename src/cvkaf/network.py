"""Network assembly, the softmax cross-entropy rule and the regularized objective.

A complex network is a chain of affine layers with a shared hidden
activation descriptor; the final affine emits raw complex logits which a
softmax over squared magnitudes turns into class probabilities. The real
baseline is a conventional MLP fed the concatenated real and imaginary
parts of the input, with a softmax over its logits.

Both network classes share one training surface, :class:`_Network`:
``parameters()`` returning an ordered name->array dict (arrays mutated in
place by the optimizer), ``objective`` and ``loss_and_grads`` for one
evaluation of the regularized cross-entropy (the latter with full
cogradients), and ``predict_proba``. Each class supplies only its
``forward``, its ``backward`` and its map from logits to softmax scores;
:func:`softmax_cross_entropy` and :func:`regularize` are the one loss and
the one penalty rule. Forward caches are tied to a parameter version
counter so a backward pass against a mutated network fails loudly instead
of silently using stale intermediates. Prediction and :meth:`objective`
run ``forward(x, cache=False)``, which returns no cache and keeps no
per-layer entry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

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
)
from .kernels import Dictionary, build_dictionary

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
    "MODEL_NAMES",
]

_MODEL_MAGIC = b"CVKM"
_MODEL_VERSION = 1

_P_FLOOR = 1e-12  # probability clamp inside the cross-entropy

# Prediction runs the forward pass over row blocks of this many elements
# per (rows, width, points_per_axis) KAF temporary: 51200 float64 values are
# 400 KiB, so a block's half-dozen live temporaries stay near a 2 MiB L2
# cache instead of streaming through main memory (64 rows at the paper's
# width 100 and 8x8 dictionary).
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
        if self.reg_weight < 0:
            raise ParameterError("regularization weight must be nonnegative")


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_widths: tuple[int, ...] = (100, 100, 100)
    class_count: int = 10
    activation: str = "kaf_independent"
    seed: int = 0
    alpha_init: str = "identity"
    ridge: float = act.DEFAULT_RIDGE

    def __post_init__(self):
        if self.input_dim < 1 or self.class_count < 1:
            raise ParameterError("input_dim and class_count must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ParameterError(f"hidden widths must be positive, got {self.hidden_widths}")


class _Network:
    """The training surface both network classes share.

    A subclass sets ``config``, ``dictionary``, ``_params`` and ``_version``,
    and supplies ``forward`` (inputs to logits plus a cache), ``backward``
    (logit cogradient plus cache to parameter gradients), ``_scores`` (logits
    to the scores the softmax runs over) and ``_chain_scores`` (a gradient
    with respect to the scores to one with respect to the logits).
    """

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
            if arr.shape != self._params[name].shape:
                raise DimensionError(f"shape mismatch for {name}")
            self._params[name][...] = arr
        self.bump_version()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self._params.items()}

    def _check_cache(self, cache: dict | None) -> None:
        if cache is None:
            raise StateError("no forward cache: forward() ran with cache=False")
        if cache.get("version") != self._version:
            raise StateError("forward cache is stale: parameters changed since forward()")

    # -- prediction ----------------------------------------------------------

    def _predict_block_rows(self) -> int:
        """Rows per forward block in :meth:`predict_proba`."""
        m = self.dictionary.points_per_axis if self.dictionary is not None else 1
        return max(1, _PREDICT_BLOCK_ELEMENTS // (max(self.config.hidden_widths, default=1) * m))

    def _proba(self, x: np.ndarray) -> np.ndarray:
        return softmax_from_squared_magnitudes(self._scores(self.forward(x, cache=False)[0]))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, from a forward pass over consecutive row blocks.

        Peak memory is bounded by one block, not by the number of rows.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim < 2:
            return self._proba(x)
        rows = self._predict_block_rows()
        # a 0-row input still runs one empty block, giving shape (0, classes)
        return np.concatenate([self._proba(x[lo:lo + rows])
                               for lo in range(0, max(x.shape[0], 1), rows)])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=-1)

    # -- objective -----------------------------------------------------------

    def objective(self, x: np.ndarray, labels, objective: TrainObjective) -> float:
        """Mean cross-entropy over the batch plus the weighted parameter norm."""
        logits, _ = self.forward(np.atleast_2d(np.asarray(x, dtype=np.complex128)), cache=False)
        value = softmax_cross_entropy(self._scores(logits), labels)[0]
        value += regularize(self._params, objective.reg_weight)
        self._check_finite(value)
        return value

    def loss_and_grads(
        self, x: np.ndarray, labels, objective: TrainObjective
    ) -> tuple[float, dict[str, np.ndarray]]:
        """:meth:`objective` and its cogradient for every parameter."""
        logits, cache = self.forward(np.atleast_2d(np.asarray(x, dtype=np.complex128)))
        data_loss, g_scores = softmax_cross_entropy(self._scores(logits), labels)
        grads = self.backward(self._chain_scores(g_scores, logits) / logits.shape[0], cache)
        value = data_loss + regularize(self._params, objective.reg_weight, grads)
        self._check_finite(value)
        return value, grads

    def _check_finite(self, value: float) -> None:
        if np.isfinite(value):
            return
        bad = [
            name for name, arr in self._params.items()
            if not np.all(np.isfinite(arr.view(np.float64) if np.iscomplexobj(arr) else arr))
        ]
        raise NumericError(
            f"objective is {value!r}; parameters with non-finite entries: {bad or 'none'}"
        )


class ComplexNetwork(_Network):
    """Feedforward complex network with a shared hidden activation."""

    def __init__(self, config: NetworkConfig, dictionary: Optional[Dictionary] = None,
                 activation=None):
        """``activation``, the hidden activation descriptor, must be named
        ``config.activation``; it defaults to the registry's descriptor so named."""
        widths = self._describe(config, dictionary, activation)
        rng = np.random.default_rng(config.seed)
        # the identity start draws nothing and fits the same neuron in every
        # hidden layer: fit it once and repeat it to each layer's width
        neuron = (self.activation.init_params(1, self.dictionary, rng, ridge=config.ridge)
                  if config.alpha_init == "identity" else None)
        self._params: dict[str, np.ndarray] = {}
        for i in range(self.n_layers):
            fan_in, fan_out = widths[i], widths[i + 1]
            s = np.sqrt(1.0 / (2.0 * fan_in))
            w = rng.normal(0.0, s, (fan_out, fan_in)) + 1j * rng.normal(0.0, s, (fan_out, fan_in))
            self._params[f"layer{i}.W"] = w.astype(np.complex128)
            self._params[f"layer{i}.b"] = np.zeros(fan_out, dtype=np.complex128)
            if i < self.n_layers - 1:  # hidden layer: activation parameters
                layer = ({pname: np.repeat(arr, fan_out, axis=0) for pname, arr in neuron.items()}
                         if neuron is not None else self.activation.init_params(
                             fan_out, self.dictionary, rng,
                             alpha_init=config.alpha_init, ridge=config.ridge))
                for pname, arr in layer.items():
                    self._params[f"layer{i}.{pname}"] = arr

    def _describe(self, config, dictionary, activation) -> list[int]:
        """Set everything but the parameters; return the layer widths."""
        self.config = config
        self.activation = (activation if activation is not None
                           else act.activation_named(config.activation))
        if self.activation.name != config.activation:
            raise ParameterError(f"activation {self.activation.name!r} does not match "
                                 f"config.activation {config.activation!r}")
        if isinstance(self.activation, act._KafBase) and dictionary is None:
            dictionary = build_dictionary()
        self.dictionary = dictionary
        self._version = 0
        widths = [config.input_dim, *config.hidden_widths, config.class_count]
        self.n_layers = len(widths) - 1
        return widths

    @classmethod
    def _from_parameters(cls, config, dictionary, activation, values: dict[str, np.ndarray]):
        """The network holding ``values``, built without initialization.

        Names and shapes must fit ``config`` and ``activation`` exactly, as
        :meth:`set_parameters` checks; nothing is drawn and no ridge fit runs.
        """
        model = cls.__new__(cls)
        widths = model._describe(config, dictionary, activation)
        # one neuron's worth gives each activation parameter's name, trailing
        # shape and dtype; random alphas skip the ridge fit
        neuron = model.activation.init_params(
            1, model.dictionary, np.random.default_rng(0), alpha_init="random")
        model._params = {}
        for i in range(model.n_layers):
            fan_in, fan_out = widths[i], widths[i + 1]
            model._params[f"layer{i}.W"] = np.empty((fan_out, fan_in), dtype=np.complex128)
            model._params[f"layer{i}.b"] = np.empty(fan_out, dtype=np.complex128)
            if i < model.n_layers - 1:
                for pname, arr in neuron.items():
                    model._params[f"layer{i}.{pname}"] = np.empty(
                        (fan_out, *arr.shape[1:]), dtype=arr.dtype)
        model.set_parameters(values)
        return model

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = True) -> tuple[np.ndarray, dict | None]:
        """Map inputs to raw complex logits and the cache of every intermediate
        that :meth:`backward` reads, or None with ``cache=False``."""
        x = np.asarray(x, dtype=np.complex128)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.config.input_dim:
            raise DimensionError(
                f"input has {x.shape[1]} features, expected {self.config.input_dim}"
            )
        layers = []
        h = x
        for i in range(self.n_layers):
            w = self._params[f"layer{i}.W"]
            b = self._params[f"layer{i}.b"]
            entry = {"x": h}
            h = complex_affine(w, h, b)
            if i < self.n_layers - 1:
                act_params = self._layer_act_params(i)
                h, entry["act_cache"] = self.activation.forward(
                    h, act_params, self.dictionary, cache=cache)
            if cache:
                layers.append(entry)
        logits = h[0] if squeeze else h
        return logits, {"version": self._version, "layers": layers} if cache else None

    def backward(self, cograd_logits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Cogradients of a real objective for every trainable parameter."""
        self._check_cache(cache)
        g = np.asarray(cograd_logits, dtype=np.complex128)
        if g.ndim == 1:
            g = g[None, :]
        grads: dict[str, np.ndarray] = {}
        for i in reversed(range(self.n_layers)):
            entry = cache["layers"][i]
            if i < self.n_layers - 1:
                act_params = self._layer_act_params(i)
                g, act_grads = self.activation.backward(
                    g, entry["act_cache"], act_params, self.dictionary
                )
                for pname, garr in act_grads.items():
                    grads[f"layer{i}.{pname}"] = garr
            w = self._params[f"layer{i}.W"]
            g_w, g_x, g_b = backward_affine(g, w, entry["x"])
            grads[f"layer{i}.W"] = g_w
            grads[f"layer{i}.b"] = g_b
            g = g_x
        return grads

    def _layer_act_params(self, i: int) -> dict[str, np.ndarray]:
        prefix = f"layer{i}."
        skip = (prefix + "W", prefix + "b")
        return {
            name[len(prefix):]: arr
            for name, arr in self._params.items()
            if name.startswith(prefix) and name not in skip
        }

    # bound in each class so that each holds them as its own attributes, which
    # is where perfbench's per-class wrappers look them up
    predict = _Network.predict
    loss_and_grads = _Network.loss_and_grads

    _scores = staticmethod(_squared_magnitudes)  # the softmax runs over |h|^2

    @staticmethod
    def _chain_scores(g: np.ndarray, logits: np.ndarray) -> np.ndarray:
        return 2.0 * g * logits  # the cogradient of |h|^2 is 2h


class RealBaselineNetwork(_Network):
    """Conventional real MLP fed [Re(x); Im(x)], ReLU hiddens, softmax output."""

    dictionary = None

    def __init__(self, config: NetworkConfig):
        self.config = config
        self._version = 0
        rng = np.random.default_rng(config.seed)
        widths = [2 * config.input_dim, *config.hidden_widths, config.class_count]
        self._params: dict[str, np.ndarray] = {}
        self.n_layers = len(widths) - 1
        for i in range(self.n_layers):
            fan_in, fan_out = widths[i], widths[i + 1]
            s = np.sqrt(2.0 / fan_in)
            self._params[f"layer{i}.W"] = rng.normal(0.0, s, (fan_out, fan_in))
            self._params[f"layer{i}.b"] = np.zeros(fan_out)

    @staticmethod
    def split_input(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.complex128))
        return np.hstack([x.real, x.imag])

    def forward(self, x: np.ndarray, cache: bool = True) -> tuple[np.ndarray, dict | None]:
        h = self.split_input(x)
        pres = []
        acts = [h]
        for i in range(self.n_layers):
            z = h @ self._params[f"layer{i}.W"].T + self._params[f"layer{i}.b"]
            h = np.maximum(z, 0.0) if i < self.n_layers - 1 else z
            if cache:
                pres.append(z)
                acts.append(h)
        return h, {"version": self._version, "pres": pres, "acts": acts} if cache else None

    def backward(self, grad_logits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Gradients of a real objective for every parameter."""
        self._check_cache(cache)
        grads: dict[str, np.ndarray] = {}
        g = grad_logits
        for i in reversed(range(self.n_layers)):
            grads[f"layer{i}.W"] = g.T @ cache["acts"][i]
            grads[f"layer{i}.b"] = g.sum(axis=0)
            if i > 0:
                g = (g @ self._params[f"layer{i}.W"]) * (cache["pres"][i - 1] > 0)
        return grads

    predict = _Network.predict
    loss_and_grads = _Network.loss_and_grads

    @staticmethod
    def _scores(logits: np.ndarray) -> np.ndarray:
        return logits

    @staticmethod
    def _chain_scores(g: np.ndarray, logits: np.ndarray) -> np.ndarray:
        return g


MODEL_VARIANTS = ("real_nn", "kaf_independent", "wlkaf_case1", "wlkaf_case2")  # compare's sweep
MODEL_NAMES = ("real_nn", *act.ACTIVATION_VARIANTS)  # every name build_model accepts


def build_model(
    variant: str,
    input_dim: int,
    class_count: int,
    seed: int,
    hidden_widths: tuple[int, ...] = NetworkConfig.hidden_widths,
    dictionary: Optional[Dictionary] = None,
):
    """Construct the model that one of :data:`MODEL_NAMES` names."""
    if variant not in MODEL_NAMES:
        raise ParameterError(f"unknown model variant {variant!r}; choose from {MODEL_NAMES}")
    cfg = NetworkConfig(input_dim, tuple(hidden_widths), class_count,
                        activation=variant, seed=seed)
    if variant == "real_nn":
        return RealBaselineNetwork(cfg)
    return ComplexNetwork(cfg, dictionary)


def save_model(path, model) -> None:
    """Write a model to the versioned binary container (timestamp-free)."""
    if isinstance(model, RealBaselineNetwork):
        meta = {"kind": "real_baseline"}
    else:
        meta = {"kind": "complex", "activation": act.spec_dict(model.activation)}
    meta["config"] = dataclasses.asdict(model.config)
    if model.dictionary is not None:
        meta["dictionary"] = {
            "points_per_axis": model.dictionary.points_per_axis,
            "axis_range": list(model.dictionary.axis_range),
        }
    container.write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, model.parameters())


def load_model(path):
    """Reconstruct a model saved by :func:`save_model`, bit-exact.

    A file whose header or arrays do not describe a model of this package
    is a :class:`CacheError` that names the file.
    """
    meta, arrays = container.read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
    try:
        return _model_from(meta, arrays)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CacheError(f"{path} does not hold a usable model: "
                         f"{type(exc).__name__}: {exc}") from exc


def _model_from(meta: dict, arrays: dict[str, np.ndarray]):
    """The model that a :func:`save_model` header and its arrays describe."""
    c = meta["config"]
    names = {f.name for f in dataclasses.fields(NetworkConfig)}
    if set(c) != names:
        raise ValueError(f"config fields {sorted(c)}, expected {sorted(names)}")
    cfg = NetworkConfig(**{**c, "hidden_widths": tuple(c["hidden_widths"])})
    if meta["kind"] == "real_baseline":
        model = RealBaselineNetwork(cfg)
        model.set_parameters(arrays)
        return model
    if meta["kind"] != "complex":
        raise ValueError(f"unknown model kind {meta['kind']!r}")
    dmeta = meta.get("dictionary")
    dictionary = (
        build_dictionary(dmeta["points_per_axis"], tuple(dmeta["axis_range"]))
        if dmeta else None
    )
    activation = act.activation_from_spec(meta["activation"])
    return ComplexNetwork._from_parameters(cfg, dictionary, activation, arrays)
