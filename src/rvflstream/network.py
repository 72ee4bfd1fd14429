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


# Rows per block of the forward pass: a block's activations and scratch
# stay small next to the stored layers, and a batch of the stream takes
# a single block.
BLOCK_ROWS = 256


def row_blocks(n):
    """Slices over range(n), BLOCK_ROWS rows each but for the last one.

    The last block takes up to BLOCK_ROWS + 1 rows, so no block holds a
    single row unless n == 1: numpy hands a one-row product to gemv,
    which rounds differently from the gemm of the rows around it.
    """
    i = 0
    while i < n:
        j = n if n - i <= BLOCK_ROWS + 1 else i + BLOCK_ROWS
        yield slice(i, j)
        i = j


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


def check_layers(L, N, activation, lam):
    """NetworkConfig's rules for L, N, activation and lam; lam per layer.

    None of them needs the data, so a config is checked by them before
    its dataset is read. Raises ContractError naming the broken field;
    returns the L per-layer regularization strengths as floats.
    """
    for name, value in (("L", L), ("N", N)):
        if value < 1:
            raise ContractError(f"{name} must be >= 1, got {value}")
    if not isinstance(activation, str) or activation not in ACTIVATIONS:
        raise ContractError(
            f"unknown activation {activation!r}; choose from {sorted(ACTIVATIONS)}"
        )
    lams = (float(lam),) * L if np.isscalar(lam) else tuple(float(v) for v in lam)
    if len(lams) != L:
        raise ContractError(f"lam must be scalar or length {L}, got {len(lams)} values")
    if any(not 0 < v < np.inf for v in lams):
        raise ContractError("every lam must be positive and finite")
    return lams


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
        check_layers(self.L, self.N, self.activation, self.lam)
        if self.s < 1:
            raise ContractError(f"s must be >= 1, got {self.s}")
        if self.m < 2:
            raise ContractError(f"m must be >= 2 for classification, got {self.m}")

    @property
    def lambdas(self):
        """Per-layer regularization strengths, always length L."""
        return check_layers(self.L, self.N, self.activation, self.lam)

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


def extract_features(X, weights, config, t=0):
    """Run the forward pass and return [H_l | X] for every layer.

    Layer 1 computes H_1 = g(X W_1); layer l >= 2 computes
    H_l = g([H_{l-1} | X] W_l), i.e. g(D_{l-1} W_l). The raw input is
    reconnected to every layer's design matrix.

    The rows go through all L layers in the blocks of row_blocks (a
    stream batch of at most BLOCK_ROWS + 1 rows is a single block), and
    each block's H and X are written straight into the stored row-major
    D of every layer, so no n x N H exists at all. Each forward gemm
    reads row-major rows: X for layer 1, then the stored block of
    [H | X], since OpenBLAS can round D @ W differently for a
    column-major D. So the values do not depend on the layout of X, and
    a call on one of those blocks alone, as ContinualModel.eval_features
    makes to fill a FeatureStore, gives its rows the same bits. They
    match one gemm over all n rows bit for bit at the widths the tests
    pin; at others (N=500 on 784 inputs) OpenBLAS rounds a few rows in
    the last bit by the row count of the gemm, as it does between a
    stream batch and the whole test set.

    Args:
        X: b x s input rows, finite.
        weights: RandomWeights from init_random_weights.
        config: matching NetworkConfig.
        t: batch index stamped onto the returned FeatureBatch objects.

    Returns:
        List of L FeatureBatch objects in layer order.

    Raises:
        ContractError: wrong column count or non-finite input.
        NumericalFailure: an activation produced non-finite output,
            reported with the layer index (the first failing layer of
            the first block that fails).
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
    N, n = config.N, len(X)
    Ds = [np.empty((n, config.feature_dim)) for _ in weights.layers]
    for rows in row_blocks(n):
        Xb = X[rows]
        inp = Xb
        for l, (W, D) in enumerate(zip(weights.layers, Ds), start=1):
            H = act(inp @ W)
            if not np.all(np.isfinite(H)):
                raise NumericalFailure(
                    "activation output is non-finite", batch_index=t, layer=l
                )
            D[rows, :N] = H
            D[rows, N:] = Xb
            inp = D[rows]
    return [FeatureBatch(D=D, layer=l, t=t) for l, D in enumerate(Ds, start=1)]


class FeatureStore:
    """A fixed test set's design matrices [H_l | X], with X held once.

    One column-major n x (L N + s) block [H_1 | ... | H_L | X], so n (L N
    + s) doubles where L separate [H_l | X] would take n L (N + s), and
    every H_l^T and X^T is C-contiguous for the class-major logits (see
    learners._layer_logits). len(store) is L. Iterating the store, or
    indexing it by layer, builds [H_l | X] one layer at a time as a new
    column-major n x (N + s) array, equal bit for bit to the l-th D of
    extract_features on the same rows.

    Attributes:
        block: the n x (L N + s) array.
        L: layers.
        N: hidden nodes per layer.
    """

    def __init__(self, block, L, N):
        self.block, self.L, self.N = block, L, N

    @classmethod
    def empty(cls, n, config):
        """An unfilled store of n rows for config's backbone."""
        L, N = config.L, config.N
        return cls(np.empty((n, L * N + config.s), order="F"), L, N)

    def __len__(self):
        return self.L

    def __getitem__(self, layer):
        """[H_l | X] of 0-based layer l as a new column-major array."""
        H = self.hidden(layer)
        D = np.empty((self.n, self.N + self.X.shape[1]), order="F")
        D[:, :self.N] = H
        D[:, self.N:] = self.X
        return D

    def __iter__(self):
        return (self[l] for l in range(self.L))

    @property
    def n(self):
        return len(self.block)

    @property
    def X(self):
        """The n x s input rows, held once for every layer."""
        return self.block[:, self.L * self.N:]

    def hidden(self, layer):
        """H_l of 0-based layer l, an n x N view of the block."""
        l = range(self.L)[layer]
        return self.block[:, l * self.N:(l + 1) * self.N]

    def rows(self, index):
        """The store of the selected rows, gathered in one copy of the block."""
        return FeatureStore(self.block[index], self.L, self.N)


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

