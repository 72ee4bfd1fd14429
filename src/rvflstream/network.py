"""Random-feature backbone with per-layer input reconnection.

The network stacks L hidden layers whose weights are drawn once and
never trained. Layer 1 sees the raw input; every deeper layer sees the
previous hidden activations concatenated with the raw input again. Only
the per-layer output heads (owned by the learners module) are learned,
so the feature extraction here is a pure function of (X, weights).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure


def _sigmoid(z):
    # exp only sees -|z| <= 0, so it cannot overflow for any z.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "leaky_relu": lambda z: np.where(z > 0.0, z, 0.01 * z),
    "sigmoid": _sigmoid,
    "tanh": np.tanh,
    "swish": lambda z: z * _sigmoid(z),
}


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and randomness of the backbone.

    Attributes:
        L: number of stacked hidden layers (each one sub-learner).
        N: hidden nodes per layer.
        s: raw input feature dimension.
        m: total class load; fixed up front, one-hot targets use it.
        activation: one of relu, leaky_relu, sigmoid, tanh, swish.
        lam: regularization strength, a single value shared by all
            layers or a sequence of L per-layer values.
        seed: seed for the random weight draw.
        standardize: when True the harness freezes per-feature z-score
            statistics from the first observed batch and applies them
            to all later inputs.
    """

    L: int
    N: int
    s: int
    m: int
    activation: str = "relu"
    lam: float | tuple = 1.0
    seed: int = 0
    standardize: bool = False

    def __post_init__(self):
        for name in ("L", "N", "s"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.m < 2:
            raise ContractError(f"m must be >= 2 for classification, got {self.m}")
        if not isinstance(self.activation, str) or self.activation not in ACTIVATIONS:
            raise ContractError(
                f"unknown activation {self.activation!r}; "
                f"choose from {sorted(ACTIVATIONS)}"
            )
        lams = self.lambdas
        if len(lams) != self.L:
            raise ContractError(
                f"lam must be scalar or length {self.L}, got {len(lams)} values"
            )
        if any(not v > 0 for v in lams):
            raise ContractError("every lam must be positive")

    @property
    def lambdas(self):
        """Per-layer regularization strengths, always length L."""
        if np.isscalar(self.lam):
            return (float(self.lam),) * self.L
        return tuple(float(v) for v in self.lam)

    @property
    def feature_dim(self):
        """Columns of every per-layer design matrix [H | X]."""
        return self.s + self.N


@dataclass(frozen=True)
class RandomWeights:
    """Innate random hidden weights; immutable after initialization.

    layers[0] has shape s x N, all deeper matrices (s + N) x N because
    they consume the previous activations concatenated with the input.
    """

    layers: tuple

    def __post_init__(self):
        for W in self.layers:
            W.flags.writeable = False


@dataclass
class FeatureBatch:
    """One layer's design matrix D = [H | X] for one batch.

    Attributes:
        D: b x (s + N) matrix, hidden activations then raw input.
        layer: 1-based layer index.
        t: 1-based batch index within the stream (0 for ad hoc data).
    """

    D: np.ndarray
    layer: int
    t: int = 0


def init_random_weights(config):
    """Draw the fixed hidden weights for every layer.

    Entries are uniform on (-1, 1) from a seeded generator, so equal
    (config, seed) pairs reproduce the weights bit for bit.
    """
    rng = np.random.default_rng(config.seed)
    layers = [rng.uniform(-1.0, 1.0, size=(config.s, config.N))]
    for _ in range(1, config.L):
        layers.append(rng.uniform(-1.0, 1.0, size=(config.s + config.N, config.N)))
    return RandomWeights(layers=tuple(layers))


def extract_features(X, weights, config, t=0, order="C"):
    """Run the forward pass and return [H_l | X] for every layer.

    Layer 1 computes H_1 = g(X W_1); layer l >= 2 computes
    H_l = g([H_{l-1} | X] W_l), i.e. g(D_{l-1} W_l). The raw input is
    reconnected to every layer's design matrix.

    Args:
        X: b x s input rows, finite.
        weights: RandomWeights from init_random_weights.
        config: matching NetworkConfig.
        t: batch index stamped onto the returned FeatureBatch objects.
        order: memory layout of every returned D. "F" stores each D
            column-major, so that D^T is C-contiguous. Each layer writes
            its H and X straight into a fresh D of this order. The
            forward gemm always reads row-major rows (for "F", a
            temporary copy freed as soon as the product exists),
            because OpenBLAS can round D @ W differently for a
            column-major D at small sizes; so the values do not depend
            on the order or on the layout of X.

    Returns:
        List of L FeatureBatch objects in layer order.

    Raises:
        ContractError: wrong column count or non-finite input.
        NumericalFailure: an activation produced non-finite output,
            reported with the layer index.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != config.s:
        raise ContractError(f"X must have {config.s} columns, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ContractError("X must be finite")
    if len(weights.layers) != config.L:
        raise ContractError(
            f"weights hold {len(weights.layers)} layers, config says {config.L}"
        )

    act = ACTIVATIONS[config.activation]
    out = []
    D = X
    for l, W in enumerate(weights.layers, start=1):
        H = act(np.ascontiguousarray(D) @ W)
        if not np.all(np.isfinite(H)):
            raise NumericalFailure(
                "activation output is non-finite", batch_index=t, layer=l
            )
        # The gemm's row-major input and product are freed before D is
        # allocated, and H before the next gemm, so the peak is the
        # stored layers, one layer's H and the D in hand.
        D = np.empty((len(X), config.feature_dim), order=order)
        D[:, :config.N] = H
        D[:, config.N:] = X
        del H
        out.append(FeatureBatch(D=D, layer=l, t=t))
    return out


def softmax(Z):
    """Softmax over the last axis of a b x m matrix or an (L, b, m) stack.

    Shifted by the max for stability and normalised in place in one new
    array, so the input is left unchanged. The new array takes the
    memory layout of Z: for a view of class-major (L, m, b) logits the
    class reductions run elementwise along rows of b.
    """
    Z = np.asarray(Z, dtype=float)
    P = Z - Z.max(axis=-1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    return P


def _stack_layers(arrays):
    """One (L, b, m) float array from a stack or a list of L b x m matrices."""
    try:
        stacked = np.asarray(arrays, dtype=float)
    except ValueError:
        raise ContractError("all learners must produce the same shape") from None
    if stacked.ndim != 3 or stacked.shape[0] < 1:
        raise ContractError(f"need (L, b, m) with L >= 1, got shape {stacked.shape}")
    return stacked


def fuse_probs(probs, mode="mean"):
    """Fuse per-learner probability matrices into one.

    The ensemble is the element-wise mean (or median) across learners.
    Median rows lose the sum-to-one property, so they are renormalized;
    a row whose medians are all zero (the learners put their mass on
    different classes) is the learners' mean row, renormalized too.

    Args:
        probs: an (L, b, m) array, used as it is, or a sequence of L
            b x m matrices; rows sum to one.
        mode: "mean" or "median".

    Returns:
        b x m matrix whose rows are probability vectors.
    """
    if mode not in ("mean", "median"):
        raise ContractError(f"unknown ensemble mode {mode!r}")
    probs = _stack_layers(probs)
    if mode == "mean":
        return probs.mean(axis=0)
    med = np.median(probs, axis=0)
    empty = ~med.any(axis=1)
    med[empty] = probs[:, empty].mean(axis=0)
    return med / med.sum(axis=1, keepdims=True)


def ensemble_decision(logits, mode="mean"):
    """Softmax each learner's logits, then fuse them; see fuse_probs."""
    return fuse_probs(softmax(_stack_layers(logits)), mode=mode)
