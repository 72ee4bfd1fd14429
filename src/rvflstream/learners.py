"""One-pass continual learners and the non-continual baselines.

Three regularization styles share one recursive update skeleton:

    theta_{t+1} = theta_t - eta_{t+1} [ ((1 - k_cur) D_t^T D_t
                                        + k_next D_next^T D_next) theta_t
                                        - D_t^T Y_t ]

ridge uses k_cur = k_next = 0 (no forward term), the forward style uses
a constant k_cur = k_next = k, and the Bayes-adaptive style recomputes
k_cur and k_next every step from the trace of the inverse projected
covariance. Writing the drift as (1 - k_cur) G_t + k_next G_next makes
the k = 0 and k = 1 degenerations exact in floating point, not just
algebraically.

Each learner keeps a pseudo-incomplete rate eta_dag that accumulates the
labeled batches only; the complete rate eta additionally absorbs the
k-weighted Gram of the upcoming unlabeled batch and is rebuilt from
eta_dag every step. State size never grows with t.

No step builds a d x d Gram: each data term is applied to theta through
its b x d block. Fixed pairs (ridge, kf and an overridden kf_bayes) form
the complete rate with a second Woodbury correction and move theta by
it, the reference form the k = 1 pin checks bit for bit.

An adaptive kf_bayes layer carries eta_dag in the deferred form
E - A^T A: a d x d base E and a block A of the correction rows of its
latest absorbs, at most R = min(_CARRY_ROWS, d // 4) of them (see
_carry_cap). Its absorb (_adaptive_absorb) takes the projections
M = X E - (X A^T) A of X = [D_t; D_next] from one stacked product and
O(R b d) more, the rows W of the correction from the b x b inner system
of M's D_t rows, and the projections on the new eta_dag as
M - (X W^T) W. It appends W to A and writes no d x d matrix; both k
come from the projections, and the complete rate is applied through its
b x b inner system, with no d x d by d x m product. Once every R // b
steps the layer flushes: it writes E - A^T A into a fresh base and
empties A. Layer l flushes at the steps t = l modulo R // b, so the
layers of a model take turns and a batch pays at most one flush while
L * b <= R. Per layer, the state is d^2 + R d numbers. A layer with
R // b < 2 flushes every step, which is the dense rank-b write.

Every step keeps only its forward term: the upcoming block and k_next,
and for an adaptive step D_next eta_dag, from which the correction rows
W_f of the complete rate follow in O(b^2 d) (_forward_rows). A
previous_complete step takes the previous complete rate from them, and
eta is built from them when it is read.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure
from .network import (
    FeatureBatch,
    NetworkConfig,
    extract_features,
    fuse_probs,
    init_random_weights,
    softmax,
)
from .solvers import (
    _correction_rows,
    _minus_gram,
    _solve_inner,
    offline_ridge_fit,
    solve_spd,
    woodbury_update,
)
from .stream import one_hot

# Adaptive k values are clamped here; the sigma floor in the trace
# formula guards the inverse but not extreme traces on degenerate
# batches.
K_CLAMP_LO = 1e-6
K_CLAMP_HI = 1e6

# Most correction rows an adaptive layer carries before writing them
# into its d x d base; _carry_cap lowers it to d // 4 for narrow layers.
# A low-rank write of the d x d matrix is bound by memory traffic: at
# d=1040 on a 2-vCPU x86_64 VM, writing eta - W^T W took 4.6 ms for 20
# rows of W and 7.6 ms for 160. Per adaptive step at b=20, the carried
# form took 5.2 ms against 9.8 ms dense at d=1040 and 2.1 against 3.2 ms
# at d=512; at d=128 a fixed 160-row carry took 0.80 ms against 0.67 ms
# dense, which the d // 4 cap (every step dense there) avoids.
_CARRY_ROWS = 160

BASELINE_KINDS = ("offline", "separate", "fine_tune", "non_incremental")


@dataclass(frozen=True)
class RegStyle:
    """Which regularization the stream learner runs, plus its knobs.

    Attributes:
        kind: "ridge", "kf" (constant forward weight), or "kf_bayes"
            (adaptive forward weight).
        k: the constant forward weight, kf only.
        kappa: positive scale on the adaptive k, kf_bayes only.
        sigma: small positive floor inside the adaptive-k inverse,
            kf_bayes only.
        init_mode: "theorem" accumulates the first batch into eta_dag so
            the recursion matches the closed form exactly;
            "paper_strict" skips that accumulation at t == 1, leaving
            the learner fully uninformed at the start of the stream.
        k_source: which rate matrix feeds the adaptive-k formula.
            "pseudo" uses the freshly updated eta_dag (listing order);
            "previous_complete" uses the complete eta of the previous
            step instead. Exposed because the two readings differ.
        fast_k: None for the exact trace-of-inverse formula, or one of
            "random_pick" (reciprocal of one random diagonal entry of
            the inverse) and "trace_only" (trace of the projection
            itself, no inverse) as cheap approximations.
    """

    kind: str
    k: float = 0.0
    kappa: float = 1.0
    sigma: float = 1e-5
    init_mode: str = "theorem"
    k_source: str = "pseudo"
    fast_k: str | None = None

    def __post_init__(self):
        if self.kind not in ("ridge", "kf", "kf_bayes"):
            raise ContractError(f"unknown style kind {self.kind!r}")
        if self.init_mode not in ("theorem", "paper_strict"):
            raise ContractError(f"unknown init_mode {self.init_mode!r}")
        if self.k_source not in ("pseudo", "previous_complete"):
            raise ContractError(f"unknown k_source {self.k_source!r}")
        if self.fast_k not in (None, "random_pick", "trace_only"):
            raise ContractError(f"unknown fast_k {self.fast_k!r}")
        if self.kind == "kf" and self.k < 0:
            raise ContractError(f"kf requires k >= 0, got {self.k}")
        if self.kind == "kf_bayes":
            if not self.kappa > 0:
                raise ContractError(f"kf_bayes requires kappa > 0, got {self.kappa}")
            if not self.sigma > 0:
                raise ContractError(f"kf_bayes requires sigma > 0, got {self.sigma}")


@dataclass
class SubLearnerState:
    """Everything one layer's learner carries between batches.

    theta starts at zero (theta_{l,0} = theta_{l,1} = 0) and eta_dag at
    (lam * I)^{-1}. t counts consumed batches. eta is the complete rate
    produced by the most recent step; it is None before the first step.

    eta_dag is carried as base - rows^T rows: a d x d base E and an
    r x d block A of correction rows not yet written into it. Fixed
    pairs keep no rows. An adaptive step appends its b absorb rows and
    writes E - A^T A into a fresh base only on a flush, once every
    R // b steps with R = _carry_cap(d) = min(_CARRY_ROWS, d // 4) (see
    _flush_due), so r never exceeds R. Reading eta_dag builds E - A^T A
    when rows are carried.

    A step stores only its forward term (D_next, k_next), O(b * d), or
    None when it had none. An adaptive step adds V = D_next eta_dag, the
    b rows from which the complete rate's correction
    eta = eta_dag - W_f^T W_f, W_f = sqrt(k_next) L^{-1} V, follows in
    O(b^2 d); a previous_complete step takes its projections from it.
    Reading eta writes one fresh d x d array on every read: for an
    adaptive forward term E - [A; W_f]^T [A; W_f], and for a fixed pair,
    or an inner system that is not positive definite,
    woodbury_update(eta_dag, D_next, k_next). It returns eta_dag when
    there is no forward term. No step writes into an array an earlier
    state holds.
    """

    theta: np.ndarray
    base: np.ndarray
    t: int
    lam: float
    style: RegStyle
    rows: np.ndarray
    _forward: tuple | None = None

    @classmethod
    def initial(cls, d, m, lam, style):
        if not lam > 0:
            raise ContractError(f"lam must be positive, got {lam}")
        return cls(
            theta=np.zeros((d, m)),
            base=np.eye(d) / lam,
            t=0,
            lam=float(lam),
            style=style,
            rows=np.empty((0, d)),
        )

    @property
    def eta_dag(self):
        if len(self.rows) == 0:
            return self.base
        return _minus_gram(self.base, self.rows, self.t)

    @property
    def eta(self):
        if self.t == 0:
            return None
        if self._forward is None:
            return self.eta_dag
        W_f = _forward_rows(self)
        if W_f is None:
            return woodbury_update(self.eta_dag, *self._forward[:2],
                                   batch_index=self.t)
        return _minus_gram(self.base, np.vstack([self.rows, W_f]), self.t)

    @property
    def d(self):
        return self.theta.shape[0]

    @property
    def m(self):
        return self.theta.shape[1]


class AdaptiveKTrace:
    """Ordered (t, layer, k_cur, k_next) rows, one per adaptive layer-step."""

    def __init__(self, layer_count):
        self.layer_count = layer_count
        self._rows = []

    def record(self, layer, t, k_cur, k_next):
        """Store the pair used at batch t for 1-based layer index.

        k_next is 0 exactly once per layer, on the step that closed the
        stream; every other weight comes out of the clamp positive.
        """
        if not 1 <= layer <= self.layer_count:
            raise ContractError(f"layer must be in 1..{self.layer_count}, got {layer}")
        if not (np.isfinite(k_cur) and np.isfinite(k_next)):
            raise NumericalFailure(
                "adaptive k is non-finite", batch_index=t, layer=layer
            )
        if k_cur <= 0 or k_next < 0:
            raise ContractError(
                f"adaptive k must be positive, got ({k_cur}, {k_next})"
            )
        self._rows.append((t, layer, float(k_cur), float(k_next)))

    def rows(self):
        """The recorded rows in batch-major order, layers ascending within a batch."""
        return sorted(self._rows, key=lambda r: (r[0], r[1]))


def _as_matrix(D):
    if isinstance(D, FeatureBatch):
        return np.asarray(D.D, dtype=float)
    return np.asarray(D, dtype=float)


def _check_batch(state, D_t, Y_t, D_next):
    D = _as_matrix(D_t)
    Y = np.asarray(Y_t, dtype=float)
    DN = None if D_next is None else _as_matrix(D_next)
    for name, block in (("D_t", D), ("D_next", DN)):
        if block is not None and (block.ndim != 2 or block.shape[0] == 0
                                  or block.shape[1] != state.d):
            raise ContractError(
                f"{name} must have rows and {state.d} columns, "
                f"got shape {block.shape}"
            )
    if Y.ndim != 2 or Y.shape != (D.shape[0], state.m):
        raise ContractError(
            f"Y_t must be {D.shape[0]} x {state.m}, got shape {Y.shape}"
        )
    return D, Y, DN


def _carry_cap(d):
    """Most rows a layer of width d carries: R = min(_CARRY_ROWS, d // 4).

    Carried rows cost 4 (b + b') R d flops per step, for b' upcoming
    rows, and R d numbers of state, which pays only while the d x d
    write they defer is large. The d // 4 bound keeps the state within
    d^2 / 4 and those flops within half of the stacked product
    [D_t; D_next] @ E.
    """
    return min(_CARRY_ROWS, d // 4)


def _flush_due(t, layer, carried, b, d):
    """Whether the absorb at batch t writes its layer's base.

    Layer l (0 for a bare array) flushes when t = l modulo R // b, with
    R = _carry_cap(d), so the layers of one model take turns and no
    batch pays more than one flush while L * b <= R. A batch that would
    carry more than R rows flushes too, which bounds the rows for any
    mix of batch sizes. When R // b < 2 every step flushes, which is the
    dense rank-b write.
    """
    cap = _carry_cap(d)
    period = max(1, cap // b)
    return carried + b > cap or (t - (layer or 0)) % period == 0


def _adaptive_absorb(state, D, DN, t, layer, absorb, rng):
    """Absorb D_t into the carried eta_dag and adapt both k from it.

    eta_dag is E - A^T A (see SubLearnerState). With X = [D_t; D_next],
    one stacked product gives the projections on the carried matrix,
    M = X E - (X A^T) A. The correction rows W = L^{-1} M_t, with M_t
    the D_t rows of M and L L^T = I + M_t D_t^T, follow from the b x b
    inner system, and the projections on the new eta_dag are
    M - (X W^T) W. W is appended to A; on a flush (_flush_due) the new
    base E - A^T A is written once and no rows are carried. When the
    inner system is not positive definite, the dense woodbury_update
    of the built eta_dag takes over and no rows are carried.

    Returns (base, rows, proj, (k_cur, k_next)), with proj the rows
    X @ eta_dag on the new eta_dag.
    """
    X = D if DN is None else np.vstack([D, DN])
    base, rows = state.base, state.rows
    before = proj = X @ base
    if absorb:
        if len(rows):
            before -= (X @ rows.T) @ rows
        W = _correction_rows(before[:len(D)], D, 1.0, t)[1]
        if W is None:
            base, rows = woodbury_update(state.eta_dag, D, 1.0, t), rows[:0]
            proj = X @ base
        else:
            proj = (X @ W.T) @ W
            np.subtract(before, proj, out=proj)
            rows = np.vstack([rows, W]) if len(rows) else W
            if _flush_due(t, layer, len(state.rows), len(D), state.d):
                base, rows = _minus_gram(base, rows, t), rows[:0]
    return base, rows, proj, _adaptive_pair(state, before, proj, D, DN, rng)


def _forward_rows(state):
    """The rows W_f of the complete rate's correction, or None.

    eta = eta_dag - W_f^T W_f with W_f = sqrt(k_next) L^{-1} V, from the
    V = D_next eta_dag an adaptive step keeps. None for a state without
    V, or when the inner system is not positive definite.
    """
    if state._forward is None or len(state._forward) < 3:
        return None
    D_next, k_next, V = state._forward
    return _correction_rows(V, D_next, k_next, state.t)[1]


def _step(state, D_t, Y_t, D_next, pair=None, rng=None):
    """Advance one head by the shared recursion of all three styles.

    The sequence: absorb D_t into eta_dag (skipped at t == 1 in
    paper_strict mode, reproducing the literal listing where eta_dag
    stays at eta_0), take (k_cur, k_next) from the fixed pair or, when
    pair is None, adapt both from eta_dag, and move the head by
    theta -= eta [((1 - k_cur) G_t + k_next G_next) theta - D_t^T Y_t]
    with the complete rate eta. The forward term is skipped when D_next
    is None or k_next == 0.

    A fixed pair writes the new eta_dag, forms eta with a second
    Woodbury correction and applies G_next as a matrix. An adaptive step
    touches no d x d matrix beyond the absorb, which appends its rows to
    the carried ones and writes the base only on a flush (_flush_due).
    The absorb also returns A = D_t eta_dag and V = D_next eta_dag on
    the new eta_dag from its one stacked product, both k come from
    them, and with g = D_t^T u + D_next^T v the step applies eta as

        eta g = A^T u + V^T (v - k_next S^{-1} (V g)),
        S = I + k_next V D_next^T = L L^T.

    The difference is taken in the b-space. Forming V^T v - W_f^T (W_f g)
    in the d-space instead, with the correction rows W_f of eta, cancels
    large terms: at lam=1e-6 in paper_strict mode it took a
    previous_complete run from 0.93 accuracy to 0.12.

    The new state keeps (D_next, k_next), plus V for an adaptive step,
    or None without a forward term.

    A NumericalFailure raised on the way is stamped with the batch index
    and, when D_t is a FeatureBatch, with its layer.

    Returns:
        (new_state, (k_cur, k_next)).
    """
    D, Y, DN = _check_batch(state, D_t, Y_t, D_next)
    theta = state.theta
    t = state.t + 1
    absorb = not (t == 1 and state.style.init_mode == "paper_strict")
    layer = getattr(D_t, "layer", None)
    try:
        if pair is None:
            base, rows, proj, (k_cur, k_next) = _adaptive_absorb(
                state, D, DN, t, layer, absorb, rng)
        else:
            base = state.eta_dag
            if absorb:
                base = woodbury_update(base, D, 1.0, batch_index=t)
            rows = state.rows[:0]
            k_cur, k_next = pair
        # The current side of the drift minus the cross term, through
        # the b x d block instead of the Gram G_t.
        u = (1.0 - k_cur) * (D @ theta) - Y
        forward = None if DN is None or k_next == 0.0 else (DN, k_next)
        if pair is None:
            A, V = proj[:D.shape[0]], proj[D.shape[0]:]
            step = A.T @ u
            if forward is not None:
                v = k_next * (DN @ theta)
                S = np.eye(DN.shape[0]) + k_next * (V @ DN.T)
                Vg = V @ (D.T @ u + DN.T @ v)
                step += V.T @ (v - k_next * _solve_inner(S, Vg))
                forward = (DN, k_next, V)
        elif forward is None:
            step = base @ (D.T @ u)
        else:
            eta = woodbury_update(base, DN, k_next, batch_index=t)
            step = eta @ (k_next * ((DN.T @ DN) @ theta) + D.T @ u)
        theta = theta - step
        if not np.all(np.isfinite(theta)):
            raise NumericalFailure("weight update is non-finite")
    except NumericalFailure as exc:
        exc.batch_index, exc.layer = t, layer
        raise
    new_state = dataclasses.replace(state, theta=theta, base=base, rows=rows,
                                    t=t, _forward=forward)
    return new_state, (k_cur, k_next)


def step_ridge(state, D_t, Y_t):
    """One recursive ridge step on batch (D_t, Y_t).

    eta absorbs D_t (mode dependent at t == 1) and the weights move by
    theta_{t+1} = theta_t - eta_{t+1} (D_t^T D_t theta_t - D_t^T Y_t).
    In theorem mode the result equals the offline ridge fit on all seen
    batches at every step.
    """
    if state.style.kind != "ridge":
        raise ContractError(f"step_ridge needs a ridge style, got {state.style.kind!r}")
    return _step(state, D_t, Y_t, None, (0.0, 0.0))[0]


def step_kf(state, D_t, Y_t, D_next=None):
    """One forward-regularized step with constant k.

    The unlabeled next batch D_next contributes k * D_next^T D_next to
    the complete rate and steers the drift term; no Y_{t+1} is read.
    When D_next is None (end of stream) the step keeps the current-side
    weight k so the forward mass baked into theta by the previous step
    cancels; the final head then equals the plain ridge fit on the whole
    stream (in theorem init mode, exactly).
    """
    if state.style.kind != "kf":
        raise ContractError(f"step_kf needs a kf style, got {state.style.kind!r}")
    k = float(state.style.k)
    return _step(state, D_t, Y_t, D_next, (k, 0.0 if D_next is None else k))[0]


def _k_from_projection(proj, kappa, sigma, fast, rng):
    """The b x b rule of compute_adaptive_k on proj = D eta D^T."""
    b = proj.shape[0]
    P = proj + sigma * np.eye(b)
    if not np.all(np.isfinite(P)):
        raise NumericalFailure("projected covariance is non-finite")

    if fast == "trace_only":
        value = kappa * (np.trace(P) / b)
    elif fast == "random_pick":
        if rng is None:
            rng = np.random.default_rng(0)
        inv = solve_spd(P, np.eye(b))
        j = int(rng.integers(b))
        value = kappa / inv[j, j]
    else:
        inv = solve_spd(P, np.eye(b))
        trace = float(np.trace(inv))
        if not np.isfinite(trace):
            raise NumericalFailure("trace of inverted projection is non-finite")
        value = kappa * (b / trace)

    if not np.isfinite(value):
        raise NumericalFailure("adaptive k is non-finite")
    return float(value)


def compute_adaptive_k(D, eta, kappa, sigma, fast=None, rng=None):
    """Forward weight from the projected covariance of one batch.

    The exact rule inverts the b x b projection:

        k = kappa * ( trace[(D eta D^T + sigma I)^{-1}] / b )^{-1}

    Args:
        D: b x d feature block, b >= 1.
        eta: d x d PSD rate matrix.
        kappa: positive scale; the result is exactly linear in it.
        sigma: nonnegative diagonal floor (the style default is 1e-5;
            zero is accepted when the projection is already invertible).
        fast: None for the exact rule, "random_pick" to use one random
            diagonal entry of the inverse, "trace_only" to use
            trace(D eta D^T) / b without any inverse.
        rng: generator for "random_pick"; a fresh default_rng(0)
            otherwise.

    Returns:
        A finite scalar, positive whenever the projection is PD.
    """
    D = _as_matrix(D)
    eta = np.asarray(eta, dtype=float)
    if D.ndim != 2 or D.shape[0] < 1:
        raise ContractError(f"D must have at least one row, got shape {D.shape}")
    if D.shape[1] != eta.shape[0]:
        raise ContractError(
            f"D must have {eta.shape[0]} columns, got shape {D.shape}"
        )
    return _k_from_projection(D @ eta @ D.T, kappa, sigma, fast, rng)


def _adaptive_pair(state, before, proj, D, DN, rng):
    """Clamped adaptive (k_cur, k_next) from the projections of the step.

    proj holds [D; D_next] @ eta_dag on the new eta_dag and before the
    same rows on the previous one. Under k_source="previous_complete"
    the projections are taken on the previous complete rate instead,
    once one exists: before - ([D; D_next] @ W_f^T) @ W_f, with the
    correction rows W_f built from the V the previous step kept. A
    fixed-pair forward term, or one whose inner system is not positive
    definite, builds the previous complete rate instead. k_next is 0 at
    the end of the stream.
    """
    style = state.style
    if style.k_source == "previous_complete" and state.t > 0:
        proj = before
        if state._forward is not None:
            W_f = _forward_rows(state)
            X = D if DN is None else np.vstack([D, DN])
            if W_f is None:
                proj = X @ state.eta
            else:
                proj = (X @ W_f.T) @ W_f
                np.subtract(before, proj, out=proj)

    def clamped(block):
        k = _k_from_projection(block, style.kappa, style.sigma, style.fast_k, rng)
        return float(np.clip(k, K_CLAMP_LO, K_CLAMP_HI))

    b = D.shape[0]
    k_cur = clamped(proj[:b] @ D.T)
    return k_cur, (0.0 if DN is None else clamped(proj[b:] @ DN.T))


def step_kf_bayes(state, D_t, Y_t, D_next=None, k_override=None, rng=None):
    """One Bayes-adaptive forward step.

    Both forward weights are recomputed from the current rate matrix:
    k_cur from the labeled batch D_t and k_next from the unlabeled
    D_next, then clamped to [1e-6, 1e6]. The complete rate absorbs
    k_next * D_next^T D_next and the drift is
    (1 - k_cur) D_t^T D_t + k_next D_next^T D_next. The adaptive step
    applies the complete rate implicitly; state.eta builds it on read.

    At the end of a stream (D_next is None) k_cur is still recomputed
    for the labeled batch; only the forward term vanishes, so the pair
    recorded for that step is (k_cur, 0).

    Args:
        state: kf_bayes SubLearnerState.
        D_t, Y_t: the labeled batch.
        D_next: the upcoming unlabeled batch, or None.
        k_override: test hook; a (k_cur, k_next) pair that bypasses the
            adaptive formula and the clamp, and takes the fixed-pair
            form of the step.
        rng: generator for the random_pick fast variant.

    Returns:
        (new_state, pair) where pair is the recorded (k_cur, k_next) or
        None when an override suppressed the adaptive formula.
    """
    if state.style.kind != "kf_bayes":
        raise ContractError(
            f"step_kf_bayes needs a kf_bayes style, got {state.style.kind!r}"
        )
    pair = None
    if k_override is not None:
        pair = float(k_override[0]), float(k_override[1])
    new_state, pair = _step(state, D_t, Y_t, D_next, pair, rng)
    return new_state, (None if k_override is not None else pair)


class ContinualModel:
    """L per-layer sub-learners sharing one random backbone.

    The model consumes a stream strictly in order: observe(X_t, Y_t,
    X_next) steps every layer once. Features of X_next are cached and
    reused as the current features of the following call, so each batch
    is run through the backbone exactly once. Nothing older than the
    current pair of batches is retained.
    """

    def __init__(self, config, style):
        self.config = config
        self.style = style
        self.weights = init_random_weights(config)
        d = config.feature_dim
        self.states = [
            SubLearnerState.initial(d, config.m, lam, style)
            for lam in config.lambdas
        ]
        self.k_trace = AdaptiveKTrace(config.L)
        self._pending = None
        self._norm = None
        self._fast_rng = np.random.default_rng(config.seed ^ 0x5EED)

    @property
    def t(self):
        return self.states[0].t

    def _prepare(self, X):
        X = np.asarray(X, dtype=float)
        if self.config.standardize:
            if self._norm is None:
                raise ContractError(
                    "standardize: no batch observed yet, so no statistics to "
                    "scale by")
            mu, sd = self._norm
            X = (X - mu) / sd
        return X

    def _features(self, X, t):
        return extract_features(self._prepare(X), self.weights, self.config, t=t)

    def observe(self, X_t, Y_t, X_next=None):
        """Step every sub-learner on batch (X_t, Y_t).

        X_next is the upcoming batch (labels not needed); pass None at
        the end of the stream. Its features are cached and reused for the
        following call, whose X_t must therefore equal this X_next: the
        same array passes at no cost, an equal copy is compared, and
        anything else raises a ContractError naming the batch. Under
        network.standardize the z-score statistics are frozen from the
        first observed X_t.
        """
        t = self.t + 1
        if self.config.standardize and self._norm is None:
            X = np.asarray(X_t, dtype=float)
            sd = X.std(axis=0)
            sd[sd == 0.0] = 1.0
            self._norm = (X.mean(axis=0), sd)
        if self._pending is None:
            feats = self._features(X_t, t)
        else:
            X_prev, feats = self._pending
            if X_t is not X_prev and not np.array_equal(X_t, X_prev):
                raise ContractError(
                    f"batch {t}: X_t is not the X_next of batch {t - 1}")
        nxt = self._features(X_next, t + 1) if X_next is not None else None
        Y = np.asarray(Y_t, dtype=float)

        for i, state in enumerate(self.states):
            D_t = feats[i]
            D_n = nxt[i] if nxt is not None else None
            if self.style.kind == "ridge":
                self.states[i] = step_ridge(state, D_t, Y)
            elif self.style.kind == "kf":
                self.states[i] = step_kf(state, D_t, Y, D_n)
            else:
                self.states[i], pair = step_kf_bayes(
                    state, D_t, Y, D_n, rng=self._fast_rng
                )
                if pair is not None:
                    self.k_trace.record(i + 1, t, pair[0], pair[1])
        self._pending = None if nxt is None else (X_next, nxt)

    def eval_features(self, X):
        """Precompute per-layer design matrices for a fixed test set."""
        return [fb.D for fb in self._features(X, 0)]

    def per_learner_probs(self, X=None, eval_feats=None):
        """Every sub-learner's softmax outputs on X or eval_feats: (L, n, m)."""
        feats = self.eval_features(X) if eval_feats is None else eval_feats
        return _layer_probs(feats, [st.theta for st in self.states])

    def predict_proba(self, X=None, mode="mean", eval_feats=None):
        return fuse_probs(self.per_learner_probs(X, eval_feats), mode=mode)


def _layer_probs(feats, thetas):
    """softmax(D_l theta_l) of every layer, written into one (L, n, m) array."""
    Z = np.empty((len(thetas), len(feats[0]), thetas[0].shape[1]))
    for D, theta, out in zip(feats, thetas, Z):
        np.matmul(D, theta, out=out)
    return softmax(Z)


@dataclass
class BaselineResult:
    """Evaluation record of one non-continual baseline.

    per_task_accuracy[q] is the model's accuracy on the test rows of
    task q; for the separate baseline it is expert q's accuracy on its
    own task, which is exactly the independent-expert vector the
    forward-transfer metric needs.
    """

    kind: str
    accuracy: float
    per_task_accuracy: np.ndarray


def _ridge_heads(X, y, config, weights):
    """Per-layer offline ridge heads for a labeled pool."""
    Y = one_hot(y, config.m)
    feats = extract_features(np.asarray(X, dtype=float), weights, config, t=0)
    return [
        offline_ridge_fit(fb.D, Y, lam).theta
        for fb, lam in zip(feats, config.lambdas)
    ]


def _predict(feats, thetas, class_mask=None):
    """Ensemble class predictions from per-layer design matrices."""
    probs = fuse_probs(_layer_probs(feats, thetas))
    if class_mask is not None:
        blocked = np.full_like(probs, -np.inf)
        blocked[:, class_mask] = probs[:, class_mask]
        probs = blocked
    return probs.argmax(axis=1)


def fit_baseline(tasks, test, config):
    """Train and evaluate the four non-continual baselines in one pass.

    Args:
        tasks: ordered task list from split_class_incremental; these
            baselines alone may see the boundaries.
        test: held-out LabeledDataset used for all accuracies.
        config: NetworkConfig shared with the continual runs, so the
            random backbone is identical.

    Returns:
        {kind: BaselineResult} in BASELINE_KINDS order. "offline" is
        ridge on the whole stream, the accuracy upper bound. "separate"
        fits one expert per task, each evaluated only on its own task
        with predictions restricted to that task's classes. "fine_tune"
        (refit on each task in order, overwriting the weights) is the
        last expert and "non_incremental" (fit on the first task, then
        frozen) the first; both are evaluated on the full test set. The
        test set and each task's pool meet the backbone once; offline
        extracts its stacked pool itself.
    """
    tasks = list(tasks)
    if not tasks or any(not getattr(tk, "classes", None) for tk in tasks):
        raise ContractError("baselines require task annotations")

    weights = init_random_weights(config)
    feats = [fb.D for fb in extract_features(test.X, weights, config, t=0)]
    y_te = np.asarray(test.y)
    classes = [np.asarray(tk.classes, dtype=int) for tk in tasks]
    task_rows = [np.isin(y_te, cls) for cls in classes]

    def scored(kind, thetas):
        hit = _predict(feats, thetas) == y_te
        per_task = np.array([np.mean(hit[rows]) for rows in task_rows])
        return BaselineResult(kind, float(np.mean(hit)), per_task)

    experts = [_ridge_heads(tk.X, tk.y, config, weights) for tk in tasks]
    own = np.array([
        np.mean(_predict([D[rows] for D in feats], heads, class_mask=cls) == y_te[rows])
        for heads, rows, cls in zip(experts, task_rows, classes)
    ])
    pooled = _ridge_heads(np.vstack([tk.X for tk in tasks]),
                          np.concatenate([tk.y for tk in tasks]), config, weights)
    return {"offline": scored("offline", pooled),
            "separate": BaselineResult("separate", float(own.mean()), own),
            "fine_tune": scored("fine_tune", experts[-1]),
            "non_incremental": scored("non_incremental", experts[0])}
