"""Feed-forward network with ReLU hidden layers, trained from scratch with Adam.

Instantiates both the 4-class nasality model ([39, 1024, 1024, 1024, 4],
softmax + cross-entropy) and the scalar regressor ([39, 512, 512, 512, 1],
linear + MSE). All math is done in double precision; serialized parameters
are single precision.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .alignment import PhoneClass
from .errors import ConfigError, ModelFormatError, TrainingDivergedError

NASALITY_LAYERS = [39, 1024, 1024, 1024, 4]
REGRESSOR_LAYERS = [39, 512, 512, 512, 1]

# Output-class order everywhere: nasal consonant, oral consonant,
# nasalized vowel, oral vowel.
CLASS_ORDER = [PhoneClass.NC, PhoneClass.OC, PhoneClass.NV, PhoneClass.OV]
CLASS_INDEX = {c: i for i, c in enumerate(CLASS_ORDER)}

MODEL_MAGIC = b"OHMNET01"
_ACTIVATION_CODES = {"softmax": 0, "linear": 1}


@dataclass
class MlpModel:
    layer_sizes: list
    weights: list
    biases: list
    output_activation: str  # "softmax" or "linear"
    feature_config_hash: int = 0

    def __post_init__(self):
        if self.output_activation not in _ACTIVATION_CODES:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect or b.shape != (expect[0],):
                raise ConfigError(f"layer {i}: weight shape {w.shape}, expected {expect}")


@dataclass
class TrainConfig:
    epochs: int = 25
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 256
    loss: str = "categorical_cross_entropy"  # or "mse"
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.loss not in ("categorical_cross_entropy", "mse"):
            raise ConfigError(f"unknown loss {self.loss!r}")


def init_model(layer_sizes, output_activation, seed=42, feature_config_hash=0):
    """He-normal weights (std sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(list(layer_sizes), weights, biases, output_activation, feature_config_hash)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(model, x, return_hidden=False):
    """Network output for a single 39-vector or an (N, 39) batch.

    Softmax head returns class probabilities; linear head returns scalars.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.layer_sizes[0]:
        raise ConfigError(
            f"input width {a.shape[1]} does not match model input {model.layer_sizes[0]}"
        )
    activations = [a]
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        if i < n_layers - 1:
            a = np.maximum(z, 0.0)
        elif model.output_activation == "softmax":
            a = _softmax(z)
        else:
            a = z
        activations.append(a)
    out = a
    if model.output_activation == "linear" and model.layer_sizes[-1] == 1:
        out = out[:, 0]
    if single:
        out = out[0]
    if return_hidden:
        return out, activations
    return out


def _loss_and_output_grad(model, x, y, loss):
    """Mean loss over the batch and dL/dz at the output layer (pre-activation)."""
    _, activations = forward(model, x, return_hidden=True)
    z_out = activations[-1]  # post-activation of last layer, (B, n_out)
    batch = x.shape[0]
    if loss == "categorical_cross_entropy":
        probs = z_out
        picked = probs[np.arange(batch), y]
        value = -np.mean(np.log(np.maximum(picked, 1e-300)))
        grad_z = probs.copy()
        grad_z[np.arange(batch), y] -= 1.0
        grad_z /= batch
    else:
        pred = z_out
        target = np.asarray(y, dtype=np.float64).reshape(pred.shape)
        diff = pred - target
        value = float(np.mean(diff**2))
        grad_z = 2.0 * diff / diff.size
    return value, grad_z, activations


def _backprop(model, grad_z, activations):
    """Gradients w.r.t. every weight matrix and bias, given dL/dz at the output."""
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    delta = grad_z
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = delta.T @ activations[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (activations[i] > 0.0)
    return grads_w, grads_b


def compute_loss(model, x, y, loss):
    value, _, _ = _loss_and_output_grad(model, np.atleast_2d(x), y, loss)
    return value


def train(x, y, layer_sizes, cfg, feature_config_hash=0, log_fn=None):
    """Mini-batch Adam training with seeded shuffling; returns (model, epoch losses).

    Deterministic for a given seed: the same data and config always produce
    identical parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("training set must be a non-empty 2-D array")
    classification = cfg.loss == "categorical_cross_entropy"
    y = np.asarray(y, dtype=np.int64 if classification else np.float64)
    activation = "softmax" if classification else "linear"
    model = init_model(layer_sizes, activation, seed=cfg.seed, feature_config_hash=feature_config_hash)

    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    rng = np.random.default_rng(cfg.seed)
    step = 0
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        batch_losses = []
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, grad_z, activations = _loss_and_output_grad(model, x[idx], y[idx], cfg.loss)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch)
            grads_w, grads_b = _backprop(model, grad_z, activations)
            step += 1
            bc1 = 1.0 - cfg.beta1**step
            bc2 = 1.0 - cfg.beta2**step
            for i in range(len(model.weights)):
                for params, grads, m, v in (
                    (model.weights, grads_w, m_w, v_w),
                    (model.biases, grads_b, m_b, v_b),
                ):
                    m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * grads[i]
                    v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * grads[i] ** 2
                    params[i] -= (
                        cfg.learning_rate * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.adam_eps)
                    )
            batch_losses.append(value)
        epoch_losses.append(float(np.mean(batch_losses)))
        if log_fn is not None:
            log_fn(epoch, epoch_losses[-1])
    return model, epoch_losses


def build_classification_dataset(feature_matrices, frame_labels):
    """Stack per-utterance features and frame classes into (X, y) for training.

    Excluded frames are dropped here and, by construction, can never reach a
    training batch.
    """
    xs, ys = [], []
    for vectors, labels in zip(feature_matrices, frame_labels):
        keep = [i for i, lab in enumerate(labels) if lab is not PhoneClass.EXCLUDED]
        if not keep:
            continue
        xs.append(np.asarray(vectors)[keep])
        ys.append(np.array([CLASS_INDEX[labels[i]] for i in keep], dtype=np.int64))
    if not xs:
        raise ConfigError("no labeled frames left after dropping Excluded frames")
    x = np.vstack(xs)
    y = np.concatenate(ys)
    assert np.all((y >= 0) & (y < len(CLASS_ORDER)))
    return x, y


def grad_check(model, x, y, loss, h=1e-5, n_coords=200, seed=0, abs_floor=1e-8):
    """Max relative error between analytic and central finite-difference gradients.

    A random subsample of at least n_coords parameter coordinates is checked;
    coordinates where both gradients are below abs_floor are compared with
    absolute tolerance (reported error 0 when both vanish).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    value, grad_z, activations = _loss_and_output_grad(model, x, y, loss)
    grads_w, grads_b = _backprop(model, grad_z, activations)
    params = list(model.weights) + list(model.biases)
    grads = list(grads_w) + list(grads_b)

    rng = np.random.default_rng(seed)
    total = sum(p.size for p in params)
    n_check = min(total, max(n_coords, 200))
    flat_idx = rng.choice(total, size=n_check, replace=False)

    offsets = np.cumsum([0] + [p.size for p in params])
    worst = 0.0
    for fi in flat_idx:
        pi = int(np.searchsorted(offsets, fi, side="right")) - 1
        local = np.unravel_index(fi - offsets[pi], params[pi].shape)
        original = params[pi][local]
        params[pi][local] = original + h
        f_plus = compute_loss(model, x, y, loss)
        params[pi][local] = original - h
        f_minus = compute_loss(model, x, y, loss)
        params[pi][local] = original
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = grads[pi][local]
        denom = max(abs(numeric), abs(analytic))
        if denom < abs_floor:
            err = abs(numeric - analytic)  # absolute comparison at dead coordinates
        else:
            err = abs(numeric - analytic) / denom
        worst = max(worst, err)
    return worst


def save_model(model, path):
    """Serialize to the OHMNET01 little-endian binary format."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(model.layer_sizes)))
        fh.write(struct.pack(f"<{len(model.layer_sizes)}I", *model.layer_sizes))
        fh.write(struct.pack("<B", _ACTIVATION_CODES[model.output_activation]))
        fh.write(struct.pack("<I", model.feature_config_hash & 0xFFFFFFFF))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_model(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic bytes")
    pos = len(MODEL_MAGIC)
    try:
        (n_sizes,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        sizes = list(struct.unpack_from(f"<{n_sizes}I", raw, pos))
        pos += 4 * n_sizes
        (act_code,) = struct.unpack_from("<B", raw, pos)
        pos += 1
        (cfg_hash,) = struct.unpack_from("<I", raw, pos)
        pos += 4
    except struct.error as exc:
        raise ModelFormatError(f"{path}: truncated header") from exc
    activation = {v: k for k, v in _ACTIVATION_CODES.items()}.get(act_code)
    if activation is None:
        raise ModelFormatError(f"{path}: unknown activation code {act_code}")
    if n_sizes < 2:
        raise ModelFormatError(f"{path}: model needs at least 2 layers, got {n_sizes}")

    expected = sum(o * i + o for i, o in zip(sizes, sizes[1:]))
    payload = np.frombuffer(raw, dtype="<f4", offset=pos)
    if payload.size != expected:
        raise ModelFormatError(
            f"{path}: payload holds {payload.size} floats, layer sizes require {expected}"
        )
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(payload[at : at + fan_out * fan_in].reshape(fan_out, fan_in).astype(np.float64))
        at += fan_out * fan_in
        biases.append(payload[at : at + fan_out].astype(np.float64))
        at += fan_out
    return MlpModel(sizes, weights, biases, activation, cfg_hash)
