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
it, the reference form the k = 1 pin checks bit for bit. An adaptive
kf_bayes step applies the complete rate implicitly through its b x b
inner system. Every step keeps only the upcoming block and k_next; eta
is built from them when it is read.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure
from .network import (
    FeatureBatch,
    NetworkConfig,
    ensemble_decision,
    extract_features,
    init_random_weights,
    softmax,
)
from .solvers import _solve_inner, offline_ridge_fit, solve_spd, woodbury_update

# Adaptive k values are clamped here; the sigma floor in the trace
# formula guards the inverse but not extreme traces on degenerate
# batches.
K_CLAMP_LO = 1e-6
K_CLAMP_HI = 1e6

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

    A step stores only its forward term (D_next, k_next), O(b * d), or
    None when it had none. Reading eta then builds
    woodbury_update(eta_dag, D_next, k_next) afresh on every read, or
    returns eta_dag when there is no forward term.
    """

    theta: np.ndarray
    eta_dag: np.ndarray
    t: int
    lam: float
    style: RegStyle
    _forward: tuple | None = None

    @classmethod
    def initial(cls, d, m, lam, style):
        if not lam > 0:
            raise ContractError(f"lam must be positive, got {lam}")
        return cls(
            theta=np.zeros((d, m)),
            eta_dag=np.eye(d) / lam,
            t=0,
            lam=float(lam),
            style=style,
        )

    @property
    def eta(self):
        if self.t == 0:
            return None
        if self._forward is None:
            return self.eta_dag
        return woodbury_update(self.eta_dag, *self._forward, batch_index=self.t)

    @property
    def d(self):
        return self.theta.shape[0]

    @property
    def m(self):
        return self.theta.shape[1]


class AdaptiveKTrace:
    """Ordered (k_cur, k_next) pairs per layer, one per adaptive step."""

    def __init__(self, layer_count):
        self.layer_count = layer_count
        self._pairs = [[] for _ in range(layer_count)]

    def record(self, layer, t, k_cur, k_next):
        """Store the pair used at batch t for 1-based layer index.

        k_next is 0 exactly once per layer, on the step that closed the
        stream; every other weight comes out of the clamp positive.
        """
        if not (np.isfinite(k_cur) and np.isfinite(k_next)):
            raise NumericalFailure(
                "adaptive k is non-finite", batch_index=t, layer=layer
            )
        if k_cur <= 0 or k_next < 0:
            raise ContractError(
                f"adaptive k must be positive, got ({k_cur}, {k_next})"
            )
        self._pairs[layer - 1].append((t, float(k_cur), float(k_next)))

    def rows(self):
        """Flat (t, layer, k_cur, k_next) rows in batch-major order."""
        out = []
        for layer in range(1, self.layer_count + 1):
            for t, k_cur, k_next in self._pairs[layer - 1]:
                out.append((t, layer, k_cur, k_next))
        out.sort(key=lambda r: (r[0], r[1]))
        return out


def _as_matrix(D):
    if isinstance(D, FeatureBatch):
        return np.asarray(D.D, dtype=float)
    return np.asarray(D, dtype=float)


def _check_batch(state, D_t, Y_t):
    D = _as_matrix(D_t)
    Y = np.asarray(Y_t, dtype=float)
    if D.ndim != 2 or D.shape[1] != state.d:
        raise ContractError(f"D_t must have {state.d} columns, got shape {D.shape}")
    if Y.ndim != 2 or Y.shape != (D.shape[0], state.m):
        raise ContractError(
            f"Y_t must be {D.shape[0]} x {state.m}, got shape {Y.shape}"
        )
    return D, Y


def _step(state, D_t, Y_t, D_next, pair=None, rng=None):
    """Advance one head by the shared recursion of all three styles.

    The sequence: absorb D_t into eta_dag (skipped at t == 1 in
    paper_strict mode, reproducing the literal listing where eta_dag
    stays at eta_0), take (k_cur, k_next) from the fixed pair or, when
    pair is None, adapt both from eta_dag, and move the head by
    theta -= eta [((1 - k_cur) G_t + k_next G_next) theta - D_t^T Y_t]
    with the complete rate eta. The forward term is skipped when D_next
    is None or k_next == 0.

    A fixed pair forms eta with a second Woodbury correction and applies
    G_next as a matrix. An adaptive step applies eta implicitly,

        eta g = eta_dag g - k_next V^T S^{-1} (V g),
        V = D_next eta_dag,  S = I + k_next V D_next^T.

    Either way the new state keeps only (D_next, k_next), or None without
    a forward term, for SubLearnerState.eta to build on read.

    A NumericalFailure raised on the way is stamped with the batch index
    and, when D_t is a FeatureBatch, with its layer.

    Returns:
        (new_state, (k_cur, k_next)).
    """
    D, Y = _check_batch(state, D_t, Y_t)
    DN = None if D_next is None else _as_matrix(D_next)
    theta = state.theta
    t = state.t + 1
    try:
        eta_dag = state.eta_dag
        if not (t == 1 and state.style.init_mode == "paper_strict"):
            eta_dag = woodbury_update(eta_dag, D, 1.0, batch_index=t)
        if pair is None:
            k_cur, k_next, V = _adaptive_pair(state, eta_dag, D, DN, rng)
        else:
            k_cur, k_next = pair
        # The current side of the drift minus the cross term, through
        # the b x d block instead of the Gram G_t.
        grad = D.T @ ((1.0 - k_cur) * (D @ theta) - Y)
        forward = None if DN is None or k_next == 0.0 else (DN, k_next)
        if forward is None:
            step = eta_dag @ grad
        elif pair is None:
            g = grad + DN.T @ (k_next * (DN @ theta))
            S = np.eye(DN.shape[0]) + k_next * (V @ DN.T)
            step = eta_dag @ g - k_next * (V.T @ _solve_inner(S, V @ g))
        else:
            eta = woodbury_update(eta_dag, DN, k_next, batch_index=t)
            step = eta @ (k_next * ((DN.T @ DN) @ theta) + grad)
        theta = theta - step
        if not np.all(np.isfinite(theta)):
            raise NumericalFailure("weight update is non-finite")
    except NumericalFailure as exc:
        exc.batch_index, exc.layer = t, getattr(D_t, "layer", None)
        raise
    new_state = dataclasses.replace(state, theta=theta, eta_dag=eta_dag, t=t,
                                    _forward=forward)
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


def _adaptive_pair(state, eta_dag, D, DN, rng):
    """Clamped adaptive (k_cur, k_next) and V = D_next eta_dag.

    Both projections come from one stacked [D; D_next] @ basis product.
    The basis is eta_dag, or the previous complete rate under
    k_source="previous_complete"; with eta_dag its lower rows are V.
    V is None at the end of the stream, where k_next is 0.
    """
    style = state.style
    basis = state.eta if style.k_source == "previous_complete" else None
    if basis is None:
        basis = eta_dag

    def clamped(proj):
        k = _k_from_projection(proj, style.kappa, style.sigma, style.fast_k, rng)
        return float(np.clip(k, K_CLAMP_LO, K_CLAMP_HI))

    b = D.shape[0]
    M = (D if DN is None else np.vstack([D, DN])) @ basis
    k_cur = clamped(M[:b] @ D.T)
    if DN is None:
        return k_cur, 0.0, None
    k_next = clamped(M[b:] @ DN.T)
    return k_cur, k_next, (M[b:] if basis is eta_dag else DN @ eta_dag)


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
                # Statistics frozen from the first batch ever seen.
                mu = X.mean(axis=0)
                sd = X.std(axis=0)
                sd[sd == 0.0] = 1.0
                self._norm = (mu, sd)
            mu, sd = self._norm
            X = (X - mu) / sd
        return X

    def _features(self, X, t):
        return extract_features(self._prepare(X), self.weights, self.config, t=t)

    def observe(self, X_t, Y_t, X_next=None):
        """Step every sub-learner on batch (X_t, Y_t).

        X_next is the feature block of the upcoming batch (labels not
        needed); pass None at the end of the stream. Consecutive calls
        must present the same array as X_next and then X_t.
        """
        t = self.t + 1
        feats = self._pending if self._pending is not None else self._features(X_t, t)
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
        self._pending = nxt

    def logits(self, X):
        """Per-layer raw scores D_l theta_l for ad hoc input."""
        feats = self._features(X, 0)
        return [fb.D @ st.theta for fb, st in zip(feats, self.states)]

    def eval_features(self, X):
        """Precompute per-layer design matrices for a fixed test set."""
        return [fb.D for fb in self._features(X, 0)]

    def logits_from(self, eval_feats):
        return [D @ st.theta for D, st in zip(eval_feats, self.states)]

    def per_learner_probs(self, X=None, eval_feats=None):
        """Softmax outputs of every sub-learner, for regret and KL."""
        zs = self.logits(X) if eval_feats is None else self.logits_from(eval_feats)
        return [softmax(Z) for Z in zs]

    def predict_proba(self, X=None, mode="mean", eval_feats=None):
        zs = self.logits(X) if eval_feats is None else self.logits_from(eval_feats)
        return ensemble_decision(zs, mode=mode)


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
    m = config.m
    Y = np.zeros((len(y), m))
    Y[np.arange(len(y)), np.asarray(y, dtype=int)] = 1.0
    feats = extract_features(np.asarray(X, dtype=float), weights, config, t=0)
    return [
        offline_ridge_fit(fb.D, Y, lam).theta
        for fb, lam in zip(feats, config.lambdas)
    ]


def _predict(feats, thetas, class_mask=None):
    """Ensemble class predictions from per-layer design matrices."""
    probs = ensemble_decision([D @ th for D, th in zip(feats, thetas)], mode="mean")
    if class_mask is not None:
        blocked = np.full_like(probs, -np.inf)
        blocked[:, class_mask] = probs[:, class_mask]
        probs = blocked
    return probs.argmax(axis=1)


def fit_baseline(kind, tasks, test, config):
    """Train and evaluate one of the four non-continual baselines.

    Args:
        kind: "offline" (ridge on the whole stream, the accuracy upper
            bound), "separate" (one expert per task, each evaluated only
            on its own task with predictions restricted to that task's
            classes), "fine_tune" (refit on each task in order,
            overwriting the weights), or "non_incremental" (fit on the
            first task, then frozen).
        tasks: ordered task list from split_class_incremental; these
            baselines alone may see the boundaries.
        test: held-out LabeledDataset used for all accuracies.
        config: NetworkConfig shared with the continual runs, so the
            random backbone is identical.

    Returns:
        BaselineResult with the full-test accuracy and per-task
        accuracies.
    """
    if kind not in BASELINE_KINDS:
        raise ContractError(f"unknown baseline kind {kind!r}")
    tasks = list(tasks)
    if not tasks or any(not getattr(tk, "classes", None) for tk in tasks):
        raise ContractError("baselines require task annotations")

    weights = init_random_weights(config)
    feats = [fb.D for fb in extract_features(test.X, weights, config, t=0)]
    y_te = np.asarray(test.y)
    task_rows = [np.isin(y_te, np.asarray(tk.classes, dtype=int)) for tk in tasks]

    if kind == "separate":
        per_task = np.array([
            np.mean(_predict([D[rows] for D in feats],
                             _ridge_heads(tk.X, tk.y, config, weights),
                             class_mask=np.asarray(tk.classes, dtype=int))
                    == y_te[rows])
            for tk, rows in zip(tasks, task_rows)
        ])
        return BaselineResult(kind, float(per_task.mean()), per_task)

    if kind == "offline":
        X = np.vstack([tk.X for tk in tasks])
        y = np.concatenate([tk.y for tk in tasks])
    elif kind == "non_incremental":
        X, y = tasks[0].X, tasks[0].y
    else:  # fine_tune: each refit overwrites the previous, so only the last counts
        X, y = tasks[-1].X, tasks[-1].y
    hit = _predict(feats, _ridge_heads(X, y, config, weights)) == y_te
    per_task = np.array([np.mean(hit[rows]) for rows in task_rows])
    return BaselineResult(kind, float(np.mean(hit)), per_task)
