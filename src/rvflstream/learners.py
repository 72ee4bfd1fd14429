"""One-pass continual learners and the non-continual baselines.

The three styles share one recursive update,

    theta_{t+1} = theta_t - eta_{t+1} [ ((1 - k_cur) D_t^T D_t
                                        + k_next D_next^T D_next) theta_t
                                        - D_t^T Y_t ]

ridge with k_cur = k_next = 0 (no forward term), the forward style kf
with a constant k_cur = k_next = k, and the Bayes-adaptive kf_bayes with
k_next taken every step from the rule of compute_adaptive_k. Every
style runs it as one carried step (_step): the head q moves by the
recursive least squares gain of D_t, and theta is q's exact correction
by the forward term k_next D_next^T D_next, with no d x d Gram. Only kf
at k = 1 under theorem runs the literal pure-forward form on dense
rates instead, because the k = 1 contract pins it to that chain bit for
bit.

Each mechanism is described once, in the docstring of its code:

- SubLearnerState: what a layer carries between batches, its heads
  and its rate.
- _Rate: eta_dag in the deferred form E - A^T A, the forward term
  (D_next, k_next, V), and how the complete rate eta is read from them
  (_Rate.eta); _Rate.absorb and _carry_cap: how a step absorbs D_t
  into eta_dag and when the carried rows are written into E.
- _step: how every step moves the head q and forms theta from it.
- _adaptive_pair and compute_adaptive_k: the adaptive k.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure
from .network import (
    FeatureBatch,
    FeatureStore,
    NetworkConfig,
    extract_features,
    fuse_probs,
    init_random_weights,
    row_blocks,
)
from .solvers import (
    _add_terms,
    _correction_rows,
    _gram_terms,
    _minus_gram,
    _solve_inner,
    _solve_terms,
    solve_spd,
    woodbury_update,  # uncalled; test_tracer_restores_every_wrapped_name reads it
)
from .stream import one_hot

# Adaptive k values are clamped here; the sigma floor in the trace
# formula guards the inverse but not extreme traces on degenerate
# batches.
K_CLAMP_LO = 1e-6
K_CLAMP_HI = 1e6

# Most correction rows a carried layer holds before writing them into
# its d x d base (_Rate); _carry_cap lowers it to d // 4 for narrow
# layers.
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
            ridge and kf still move their head q by D_1^T Y_1 on the
            first batch, at eta_0 = I / lam, so ridge's
            theta_1 = D_1^T Y_1 / lam, and kf's theta_1, the forward
            correction of that q, is
            (lam I + k D_2^T D_2)^{-1} D_1^T Y_1. kf_bayes's
            head q skips the batch along with eta_dag, so it is zero
            after batch 1 and from then on the closed form over batches
            2..t.
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
        if self.kind == "kf" and not 0 <= self.k < np.inf:
            raise ContractError(f"kf requires a finite k >= 0, got {self.k}")
        if self.kind == "kf_bayes":
            if not 0 < self.kappa < np.inf:
                raise ContractError(f"kf_bayes requires a finite kappa > 0, got {self.kappa}")
            if not 0 < self.sigma < np.inf:
                raise ContractError(f"kf_bayes requires a finite sigma > 0, got {self.sigma}")


class _Rate:
    """A layer's rate eta_dag and the forward term of the step that made it.

    eta_dag, the pseudo-incomplete rate, accumulates the labeled batches
    only. It is carried as base - rows^T rows: a d x d base E and an
    r x d block A of correction rows not yet written into it. absorb
    appends each batch's rows and writes E - A^T A into a fresh base on
    a flush, so r never exceeds the cap R, and a rate is d^2 + R d
    numbers, whatever t. R is _carry_cap(d), or 0 for kf at k = 1 under
    theorem (_dense), whose every absorb flushes. eta_dag(t) builds
    E - A^T A when rows are carried.

    forward is the step's forward term, O(b * d), or None when it had
    none: the triple (D_next, k_next, V) of the step's own copy of
    D_next, the weight and V = D_next eta_dag (project), one layout for
    every style. V serves two steps: the next absorb takes the rows of
    its D_t from it when that D_t equals the stored D_next (cached), and
    the complete rate's correction eta = eta_dag - W_f^T W_f,
    W_f = sqrt(k_next) L^{-1} V, follows from it in O(b^2 d)
    (forward_rows); a previous_complete step takes its projections from
    that correction. The stored k_next is the next adaptive step's k_cur.

    eta(t), the complete rate, also absorbs the k_next-weighted Gram of
    the upcoming unlabeled batch: it is eta_dag without a forward term,
    and otherwise one fresh d x d array E - [A; W_f]^T [A; W_f], built
    on every read. Every correction here factors its b x b inner system
    by Cholesky; one that is not positive definite means eta_dag has
    lost positive definiteness, and the absorb or the read raises
    NumericalFailure with the batch index t it was given. No method
    writes into an array a rate holds.
    """

    def __init__(self, base, rows, cap):
        self.base, self.rows, self.cap, self.forward = base, rows, cap, None

    def project(self, X):
        """X eta_dag: 2 n d^2 + 4 n r d flops for n rows of X and r carried rows."""
        out = X @ self.base
        if len(self.rows):
            out -= (X @ self.rows.T) @ self.rows
        return out

    def cached(self, D):
        """The V of the forward term when its D_next equals D by content, else None.

        The stored block is the step's own copy, so a caller's array
        changed in place since then no longer matches it.
        """
        if self.forward is None or not np.array_equal(self.forward[0], D):
            return None
        return self.forward[2]

    def absorb(self, D, t, layer, absorb):
        """Absorb D_t at batch t: the new rate and the projections of the step.

        M = D_t eta_dag is the V of the forward term when its D_next
        equals D_t (cached): the product made when D_t was the upcoming
        batch serves both steps. Otherwise M is one projection
        (project), 2 b d^2 + 4 b r d flops through r carried rows. The
        correction rows W = L^{-1} M, with L L^T = S = I + M D_t^T,
        follow from the b x b inner system, and the D_t rows on the new
        eta_dag are the gain L^{-T} W = S^{-1} M, with no subtraction. W
        is appended to A and no d x d matrix is written, except on a
        flush: the new base E - A^T A is written once into a fresh
        array, (r + b) d^2 flops, and no rows are carried.

        A layer flushes once every R // b steps: layer l (0 for a bare
        array) when t = l modulo R // b, so the layers of one model take
        turns and no batch pays more than one flush while L * b <= R. A
        batch that would carry more than R rows flushes too, which bounds
        the rows for any mix of batch sizes. When R // b < 2 every step
        flushes, which is the dense rank-b write. At R = 0, the dense
        chain of kf at k = 1 under theorem (_step), every absorb is
        woodbury_update(E, D_t, 1.0) on a base that carries no rows,
        operation for operation, the chain the k = 1 contract pins bit
        for bit; carried rows would round otherwise.

        An inner system that is not positive definite raises
        NumericalFailure (_correction_rows). A batch that is not
        absorbed leaves eta_dag as it is, and its gain is M.

        Returns (rate, M, gain, W): the new rate has no forward term
        until the step sets one, and W is None when the batch is not
        absorbed.
        """
        base, rows = self.base, self.rows
        M = self.cached(D)
        if M is None:
            M = self.project(D)
        gain, W = M, None
        if absorb:
            W, L_inv = _correction_rows(M, D, 1.0, t)
            gain = L_inv.T @ W
            rows = np.vstack([rows, W]) if len(rows) else W
            period = max(1, self.cap // len(D))
            if len(self.rows) + len(D) > self.cap or (t - (layer or 0)) % period == 0:
                base, rows = _minus_gram(base, rows, t), rows[:0]
        return _Rate(base, rows, self.cap), M, gain, W

    def forward_rows(self, t):
        """The rows W_f = sqrt(k_next) L^{-1} V of the complete rate's correction."""
        D_next, k_next, V = self.forward
        return _correction_rows(V, D_next, k_next, t)[0]

    def eta_dag(self, t):
        if len(self.rows) == 0:
            return self.base
        return _minus_gram(self.base, self.rows, t)

    def eta(self, t):
        """eta = (eta_dag^{-1} + k_next D_next^T D_next)^{-1}, or eta_dag."""
        if self.forward is None:
            return self.eta_dag(t)
        return _minus_gram(self.base, np.vstack([self.rows, self.forward_rows(t)]), t)


@dataclass
class SubLearnerState:
    """Everything one layer's learner carries between batches.

    q is the head every step's recursion moves (_step), whatever the
    style, and theta the head the layer predicts with: q itself, except
    after a carried step that keeps a forward term (kf's or kf_bayes's
    with a D_next), where theta is q's forward correction. Both start as
    one zero array (theta_{l,0} = theta_{l,1} = 0). t counts consumed
    batches.

    rate is the layer's _Rate: eta_dag, starting at (lam * I)^{-1} and
    carried as E - A^T A, and the forward term of the latest step, so a
    state is d^2 + R d numbers beside its heads. eta_dag and eta read it
    at batch t; eta is None before the first step. No step writes into
    an array an earlier state holds.
    """

    theta: np.ndarray
    rate: _Rate
    t: int
    lam: float
    style: RegStyle
    q: np.ndarray

    @classmethod
    def initial(cls, d, m, lam, style):
        for name, value in (("d", d), ("m", m)):
            if value < 1:
                raise ContractError(f"{name} must be >= 1, got {value}")
        if not 0 < lam < np.inf:
            raise ContractError(f"lam must be positive and finite, got {lam}")
        # I / lam written in place: the same bytes as np.eye(d) / lam,
        # without a second d x d array.
        base = np.zeros((d, d))
        np.fill_diagonal(base, 1.0 / lam)
        head = np.zeros((d, m))
        rate = _Rate(base, np.empty((0, d)), 0 if _dense(style) else _carry_cap(d))
        return cls(theta=head, rate=rate, t=0, lam=float(lam), style=style, q=head)

    @property
    def eta_dag(self):
        return self.rate.eta_dag(self.t)

    @property
    def eta(self):
        return None if self.t == 0 else self.rate.eta(self.t)

    @property
    def d(self):
        return self.q.shape[0]

    @property
    def m(self):
        return self.q.shape[1]


class AdaptiveKTrace:
    """Ordered (t, layer, k_cur, k_next) rows, one per adaptive layer-step."""

    def __init__(self, layer_count):
        self.layer_count = layer_count
        self._rows = []

    def extend(self, rows):
        """Store (layer, t, k_cur, k_next) rows, all or none.

        Each row is the pair used at batch t by the 1-based layer index.
        k_next is 0 exactly once per layer, on the step that closed the
        stream; every other weight comes out of the clamp positive.
        """
        for layer, t, k_cur, k_next in rows:
            if not 1 <= layer <= self.layer_count:
                raise ContractError(
                    f"layer must be in 1..{self.layer_count}, got {layer}")
            if not (np.isfinite(k_cur) and np.isfinite(k_next)):
                raise NumericalFailure(
                    "adaptive k is non-finite", batch_index=t, layer=layer
                )
            if k_cur <= 0 or k_next < 0:
                raise ContractError(
                    f"adaptive k must be positive, got ({k_cur}, {k_next})"
                )
        self._rows += [(t, layer, float(k_cur), float(k_next))
                       for layer, t, k_cur, k_next in rows]

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

    Carried rows cost 4 b' R d flops per step, for the b' upcoming rows
    projected on them, and R d numbers of state, which pays only while
    the d x d write they defer is large. The d // 4 bound keeps the
    state within d^2 / 4 and those flops within half of the product
    D_next @ E.
    """
    return min(_CARRY_ROWS, d // 4)


def _dense(style):
    """Whether style runs the dense chain: kf at k = 1 under theorem (_step)."""
    return style.kind == "kf" and style.k == 1.0 and style.init_mode == "theorem"


def _step(state, D_t, Y_t, D_next, pair=None, rng=None):
    """Advance one head on batch (D_t, Y_t).

    The step absorbs D_t into eta_dag through _Rate.absorb (skipped at
    t == 1 in paper_strict mode, reproducing the literal listing where
    eta_dag stays at eta_0), which returns the new rate and the gain
    D_t eta_dag on it, and projects D_next on the new rate
    (_Rate.project), V = D_next eta_dag. It takes (k_cur, k_next) from
    the fixed pair of ridge or kf or, when pair is None, the kf_bayes
    step, adapts them from those projections (_adaptive_pair).

    Every step moves one head, q (SubLearnerState), and every step but
    one is carried: ridge, kf and kf_bayes move q by the recursive least
    squares step q -= gain^T (D_t q - Y_t), on every absorbed batch and,
    for the fixed pairs of ridge and kf, also on a paper_strict first
    batch, whose gain is D_1 eta_0, so there ridge's
    theta_1 = D_1^T Y_1 / lam while kf_bayes's q stays zero.

    The one dense step is kf at k = 1 under theorem, the case the k = 1
    contract pins bit for bit to the literal pure-forward form
    q -= eta (G_next q - D_t^T Y_t), or q -= eta (-D_t^T Y_t) at the end
    of the stream: its rate carries no rows (a cap of 0, _dense), eta is
    the complete rate _Rate.eta writes as one d x d array, and G_next
    the d x d Gram D_next^T D_next. No other step forms a d x d Gram or
    multiplies a d x d rate by a head.

    theta is q, except after a carried step that keeps a forward term
    (kf or kf_bayes with D_next). There theta is the exact minimizer of
    the objective with the forward term k_next G_next, one rank-b'
    correction of q through its b' x b' inner system, with no d x d by
    d x m product,

        theta = q - k_next V^T S^{-1} (D_next q),
        S = I + k_next V D_next^T,

    so it equals offline_kf_fit(seen, D_next, k_next, lam) after every
    step and no earlier k is left in it. k_cur is the previous step's
    k_next, the weight on G_t carried into this step.

    The forward term is skipped when D_next is None or k_next == 0, and
    then D_next is not projected. Otherwise the new rate keeps the
    forward term (its own copy of D_next, k_next, V), whichever the
    style (see _Rate); a caller that changes its D_next array afterwards
    changes no state.

    A NumericalFailure raised on the way is stamped with the batch index
    and, when D_t is a FeatureBatch, with its layer.

    Returns:
        (new_state, (k_cur, k_next)).
    """
    D, Y, DN = _check_batch(state, D_t, Y_t, D_next)
    q = state.q
    t = state.t + 1
    absorb = not (t == 1 and state.style.init_mode == "paper_strict")
    layer = getattr(D_t, "layer", None)
    dense = _dense(state.style)
    try:
        rate, M, gain, W = state.rate.absorb(D, t, layer, absorb)
        V = None if DN is None or pair == (0.0, 0.0) else rate.project(DN)
        k_cur, k_next = pair or _adaptive_pair(state, M, gain, W, V, D, DN, rng)
        if V is not None:
            rate.forward = (DN.copy(), k_next, V)
        if dense:
            # k_cur = 1 leaves G_t out of the drift. eta is the complete
            # rate, one d x d write, or eta_dag at the end of the stream.
            drift = -(D.T @ Y) if V is None else (DN.T @ DN) @ q - D.T @ Y
            q = q - rate.eta(t) @ drift
        elif absorb or pair is not None:
            q = q - gain.T @ (D @ q - Y)
        theta = q
        if not dense and V is not None:
            S = np.eye(len(DN)) + k_next * (V @ DN.T)
            theta = q - k_next * (V.T @ _solve_inner(S, DN @ q))
        if not np.all(np.isfinite(theta)):
            raise NumericalFailure("weight update is non-finite")
    except NumericalFailure as exc:
        exc.batch_index, exc.layer = t, layer
        raise
    return SubLearnerState(theta, rate, t, state.lam, state.style, q), (k_cur, k_next)


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
    the objective the head minimizes; no Y_{t+1} is read. The head q
    moves as ridge's does, and theta is its forward correction (see
    _step), so it equals offline_kf_fit(seen, D_next, k, lam) after
    every step. When D_next is None (end of stream) no forward term is
    left and the final head is the plain ridge fit on the whole stream
    (in theorem init mode, exactly). k = 1 under theorem runs the dense
    pure-forward form instead, which the k = 1 contract pins.
    """
    if state.style.kind != "kf":
        raise ContractError(f"step_kf needs a kf style, got {state.style.kind!r}")
    k = float(state.style.k)
    return _step(state, D_t, Y_t, D_next, (k, 0.0 if D_next is None else k))[0]


def _k_from_projection(proj, kappa, sigma, fast, rng):
    """The b x b rule of compute_adaptive_k on proj = D eta D^T."""
    b = proj.shape[0]
    # solve_spd keeps its least squares fallback here, unlike the
    # Woodbury corrections: P is only read for k, no state is carried on
    # from it, and in floating point it can be singular while eta_dag is
    # positive definite, as when sigma is lost against entries of D eta
    # D^T many orders of magnitude larger.
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
        kappa: positive finite scale; the result is exactly linear in it.
        sigma: nonnegative finite diagonal floor (the style default is 1e-5;
            zero is accepted when the projection is already invertible).
        fast: None for the exact rule, "random_pick" to use one random
            diagonal entry of the inverse, "trace_only" to use
            trace(D eta D^T) / b without any inverse.
        rng: generator for "random_pick"; a fresh default_rng(0)
            otherwise.

    Returns:
        A finite scalar, positive whenever the projection is PD.

    Raises:
        ContractError: eta not square, kappa not in (0, inf), sigma not
            in [0, inf), or D not a nonempty block with d columns.
        NumericalFailure: finite inputs whose projection overflows.
    """
    D = _as_matrix(D)
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        raise ContractError(f"eta must be square, got shape {eta.shape}")
    if not 0 < kappa < np.inf:
        raise ContractError(f"kappa must be positive and finite, got {kappa}")
    if not 0 <= sigma < np.inf:
        raise ContractError(f"sigma must be nonnegative and finite, got {sigma}")
    if D.ndim != 2 or D.shape[0] < 1:
        raise ContractError(f"D must have at least one row, got shape {D.shape}")
    if D.shape[1] != eta.shape[0]:
        raise ContractError(
            f"D must have {eta.shape[0]} columns, got shape {D.shape}"
        )
    return _k_from_projection(D @ eta @ D.T, kappa, sigma, fast, rng)


def _adaptive_pair(state, M, gain, W, V, D, DN, rng):
    """Clamped adaptive (k_cur, k_next) from the projections of the absorb.

    gain and V are D_t eta_dag and D_next eta_dag on the new eta_dag, M
    is D_t eta_dag on the previous one, and W the absorb's correction
    rows (see _Rate.absorb). k_cur is the k_next the previous step
    stored with its forward term; only a rate without one, at the first
    step or after a closing step, takes k_cur from the rule on D. Under
    k_source="previous_complete" the projections are taken on the
    previous complete rate instead, once one exists: M, and for D_next
    V + (D_next W^T) W, less (D_next W_f^T) W_f when the state's rate
    has a forward term, with the correction rows W_f built from the V
    the previous step kept (_Rate.forward_rows). k_next is 0 at the end
    of the stream.
    """
    style = state.style

    def clamped(block):
        k = _k_from_projection(block, style.kappa, style.sigma, style.fast_k, rng)
        return float(np.clip(k, K_CLAMP_LO, K_CLAMP_HI))

    # A previous complete rate exists from the second step on, and every
    # such step absorbs, so W is set.
    complete = style.k_source == "previous_complete" and state.t > 0
    forward = state.rate.forward
    if forward is None:
        k_cur = clamped((M if complete else gain) @ D.T)
    else:
        k_cur = forward[1]
    if DN is None:
        return k_cur, 0.0
    P = V
    if complete:
        P = V + (DN @ W.T) @ W
        if forward is not None:
            W_f = state.rate.forward_rows(state.t)
            P -= (DN @ W_f.T) @ W_f
    return k_cur, clamped(P @ DN.T)


def step_kf_bayes(state, D_t, Y_t, D_next=None, rng=None):
    """One Bayes-adaptive forward step.

    k_next is recomputed every step from the rate matrix and the
    unlabeled D_next, then clamped to [1e-6, 1e6]. The head minimizes the
    ridge objective over the batches eta_dag absorbed plus the forward
    term k_next |D_next theta|^2 / 2 (see _step), so it equals
    offline_kf_fit(seen, D_next, k_next, lam) at every step; state.eta
    builds the complete rate on read.

    The recorded k_cur is the previous step's k_next. A state without a
    forward term, at the first step or after a closing one, takes it
    from the same rule on D_t. At the end of a stream (D_next is None)
    the head is the ridge head and the recorded pair is (k_cur, 0).

    Args:
        state: kf_bayes SubLearnerState.
        D_t, Y_t: the labeled batch.
        D_next: the upcoming unlabeled batch, or None.
        rng: generator for the random_pick fast variant.

    Returns:
        (new_state, pair) where pair is the recorded (k_cur, k_next).
    """
    if state.style.kind != "kf_bayes":
        raise ContractError(
            f"step_kf_bayes needs a kf_bayes style, got {state.style.kind!r}"
        )
    return _step(state, D_t, Y_t, D_next, None, rng)


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

        A call commits every layer or none: the layers step into locals,
        and the states, the k-trace rows and the cached features are set
        together once all have stepped. A call that raises leaves the
        model as it found it, its z-score statistics and its fast-k
        generator included, so a retry of the batch runs as if the
        failed call had not happened.
        """
        t = self.t + 1
        norm, draws = self._norm, self._fast_rng.bit_generator.state
        try:
            if self.config.standardize and norm is None:
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

            states, rows = [], []
            for i, state in enumerate(self.states):
                D_t = feats[i]
                D_n = nxt[i] if nxt is not None else None
                if self.style.kind == "ridge":
                    state = step_ridge(state, D_t, Y)
                elif self.style.kind == "kf":
                    state = step_kf(state, D_t, Y, D_n)
                else:
                    state, pair = step_kf_bayes(state, D_t, Y, D_n,
                                                rng=self._fast_rng)
                    rows.append((i + 1, t, *pair))
                states.append(state)
            self.k_trace.extend(rows)
        except BaseException:
            self._norm = norm
            self._fast_rng.bit_generator.state = draws
            raise
        self.states = states
        self._pending = None if nxt is None else (X_next, nxt)

    def eval_features(self, X):
        """Precompute the design matrices of a fixed test set, X held once.

        X is n x s rows: an array, or a stream.HeldRows such as a
        dataset's rows, whose idx pixels are held as uint8. Returns a
        network.FeatureStore: one column-major n x (L N + s) block
        [H_1 | ... | H_L | X] of the prepared rows, n (L N + s) doubles.
        Each block of row_blocks is read from X (X[rows], which scales
        held pixels to float64), prepared and run through
        extract_features on its own, and its H_l and X are copied in, so
        beyond the store only one block's float rows and features exist
        at a time. len() of the store is L, and iterating it, or
        indexing it by layer, yields each layer's [H_l | X] one layer at
        a time, equal bit for bit to the D that extract_features gives.
        """
        store = FeatureStore.empty(len(X), self.config)
        for rows in row_blocks(len(X)):
            block = self._prepare(X[rows])
            feats = extract_features(block, self.weights, self.config)
            for l in range(store.L):
                store.hidden(l)[rows] = feats[l].D[:, :store.N]
            store.X[rows] = block
            del feats, block  # before the next block's rows exist
        return store

    def per_learner_probs(self, X=None, eval_feats=None, out=None):
        """Every sub-learner's softmax outputs on X or eval_feats: (L, n, m).

        eval_feats is the FeatureStore eval_features returns. The result
        is a view of a class-major (L, m, n) array: out when it is given
        (a C-contiguous, writeable float64 array of that shape, else
        ContractError before anything is written), which lets a caller
        that evaluates the same test set repeatedly reuse one buffer. It
        is the one-head-set call of _layer_probs. Exactly one of X and
        eval_feats is required.
        """
        if (X is None) == (eval_feats is None):
            raise ContractError("pass the rows to score as X or eval_feats, "
                                "one of the two")
        feats = self.eval_features(X) if eval_feats is None else eval_feats
        shape = (self.config.L, self.config.m, feats.n)
        if out is not None and (
                out.shape != shape or out.dtype != np.float64
                or not out.flags.c_contiguous or not out.flags.writeable):
            raise ContractError(
                f"out must be a writeable C-contiguous float64 array of shape "
                f"{shape}, got {out.dtype} {out.shape}")
        heads = [[st.theta for st in self.states]]
        return _layer_probs(feats, heads, None if out is None else out[None])[0]

    def predict_proba(self, X=None, mode="mean", eval_feats=None):
        return fuse_probs(self.per_learner_probs(X, eval_feats), mode=mode)


def _layer_logits(store, heads, out=None):
    """[H_l | X] theta_{k,l} of K head sets, class-major, as one (K, L, m, n) array.

    heads holds K sets of L heads, each (N + s) x m. The logits are
    written into out when it is given, a C-contiguous float64 array of
    that shape the caller owns, else into a new array, which is
    returned. With every head split into its H rows and its X rows, the
    X parts of all K L heads are one stacked (K L m x s) product with
    X^T, written straight into out, and each layer's H_l^T product for
    all K sets is one stacked (K m x N) product per block of w columns
    of H_l^T, added through one scratch. w is n / K rounded up to a
    multiple of 8 (at least 8): the scratch holds about m n numbers, as
    one set's product does, K = 1 takes all n columns in one product,
    and a block edge at a multiple of 8 keeps the bits one product over
    all columns gives (on the OpenBLAS named below). So each logit sums
    the X part, then the H part, and every block of the store is read
    once per call, whatever K.

    A set's logits are those of a call with that set alone, bit for
    bit, wherever BLAS rounds a row of a product independently of the
    rows stacked beside it. The x86_64 OpenBLAS 0.3.31 that numpy 2.4
    bundles (Haswell kernels) does so on every column-major store (as eval_features builds it)
    whose row count is a multiple of 8, as the benchmark's 10 000 test
    rows are. At other row counts, such as 1 or 257, and on a gathered
    store (FeatureStore.rows), it rounds some entries by the shape of
    the whole product, and a set's logits can move in the last bits
    with K.

    Args:
        store: the network.FeatureStore of the rows.
        heads: K sequences of L heads.
        out: optional (K, L, m, n) buffer.
    """
    K, L, m = len(heads), len(heads[0]), heads[0][0].shape[1]
    n, N = store.n, store.N
    if out is None:
        out = np.empty((K, L, m, n))
    theta_X = np.stack([theta[N:].T for thetas in heads for theta in thetas])
    np.matmul(theta_X.reshape(K * L * m, -1), store.X.T,
              out=out.reshape(K * L * m, n))
    w = max(8, -(-n // (8 * K)) * 8)
    scratch = np.empty(K * m * min(n, w))
    for l in range(L):
        theta_H = np.stack([thetas[l][:N].T for thetas in heads]).reshape(K * m, N)
        H_T = store.hidden(l).T
        for c in range(0, n, w):
            cols = slice(c, min(n, c + w))
            Z = scratch[:K * m * (cols.stop - c)].reshape(K * m, -1)
            np.matmul(theta_H, H_T[:, cols], out=Z)
            out[:, l, :, cols] += Z.reshape(K, m, -1)
    return out


def _layer_probs(store, heads, out=None):
    """softmax([H_l | X] theta_{k,l}) of K head sets as one (K, L, n, m) array.

    The softmax runs in place on the class-major logits of
    _layer_logits, out when it is given, its max, exp, sum and divide
    each along rows of n, and the (K, L, n, m) view of them is returned.
    network.softmax on each (L, n, m) set gives the same bits.
    """
    out = _layer_logits(store, heads, out)
    out -= out.max(axis=2, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=2, keepdims=True)
    return out.transpose(0, 1, 3, 2)


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


def fit_baseline(tasks, model, targets, test_feats, mode="mean"):
    """Train and evaluate the four non-continual baselines in one pass.

    Args:
        tasks: ordered task list from split_class_incremental; these
            baselines alone may see the boundaries. Each task's rows are
            read as float64 once, as its pool (task.X, which divides a
            task's held idx pixels by 255).
        model: the run's ContinualModel. The baselines take its config,
            its random backbone and its input preprocessing, so under
            network.standardize they see the z-scores the learner froze
            from its first observed batch.
        targets: metrics.Targets of the test set. Its target classes are
            the test labels, and it scores every baseline.
        test_feats: the test set's network.FeatureStore, as
            model.eval_features returns it: H_1 ... H_L and X held once,
            in one n x (L N + s) block.
        mode: ensemble fusion of every baseline's layers, "mean" or
            "median", the rule the continual run is scored under.

    Returns:
        {kind: BaselineResult} in BASELINE_KINDS order. "offline" is
        ridge on the whole stream, the accuracy upper bound. "separate"
        fits one expert per task, each evaluated only on its own task
        with predictions restricted to that task's classes (the first
        maximum among them, in ascending class order). "fine_tune"
        (refit on each task in order, overwriting the weights) is the
        last expert and "non_incremental" (fit on the first task, then
        frozen) the first; both are evaluated on the full test set.

    Raises:
        ContractError: no tasks or no task annotations, test_feats that
            do not fit, a task without test rows, an unknown mode, or a
            standardizing model that has observed no batch.

    Only the task pools meet the backbone, each once, in one pass: each
    layer's Gram D^T D and cross term D^T Y of a pool are formed once,
    solved for that pool's expert and added to the pooled sums in task
    order, the sums offline_kf_fit forms over the tasks' feature blocks,
    and then the pool's float rows and features are dropped. So no
    task's inputs are stacked and only one pool's float rows and
    features are held at a time. The three full-test baselines are
    scored as the runner scores the learner, by targets.score, one head
    set per pass of _layer_probs over the store, into one (1, L, m, n)
    logits buffer. Each separate expert scores its task's test
    rows once, a row block at a time, each block one gather of its rows
    of the store's [H_1 | ... | H_L | X] block,
    so beyond boolean row masks only that buffer and each score's fused
    probabilities are test-sized. Every logit sums the X part, then the
    H part, as the runner's evaluations do (_layer_probs).
    """
    tasks = list(tasks)
    if not tasks or any(not getattr(tk, "classes", None) for tk in tasks):
        raise ContractError("baselines require task annotations")

    config = model.config
    y_te = targets.cls
    if (not isinstance(test_feats, FeatureStore)
            or (test_feats.L, test_feats.N, test_feats.X.shape)
            != (config.L, config.N, (len(y_te), config.s))):
        raise ContractError(
            f"test_feats must be the FeatureStore of {len(y_te)} rows, "
            f"{config.L} layers of {config.N} nodes and {config.s} inputs")
    classes = [np.sort(np.asarray(tk.classes, dtype=int)) for tk in tasks]
    task_rows = [np.isin(y_te, cls) for cls in classes]

    # One pass over the pools: each layer's Gram and cross term serve the
    # pool's expert and join the pooled sums in task order, then the
    # pool's features go.
    sums = [None] * config.L
    experts = []
    for tk in tasks:
        feats = model._features(tk.X, 0)
        Y = one_hot(tk.y, config.m)
        heads = []
        for l, lam in enumerate(config.lambdas):
            terms = _gram_terms(feats[l].D, Y)
            heads.append(_solve_terms(*_add_terms(None, terms, lam)).theta)
            sums[l] = _add_terms(sums[l], terms, lam)
        experts.append(heads)
        del feats
    pooled = [_solve_terms(*sums_l).theta for sums_l in sums]
    del sums

    buf = np.empty((1, config.L, config.m, len(y_te)))

    def scored(kind, thetas):
        scores = targets.score(_layer_probs(test_feats, [thetas], out=buf)[0],
                               mode)
        per_task = np.array([scores.accuracy(rows) for rows in task_rows])
        return BaselineResult(kind, scores.accuracy(), per_task)

    def separate():
        # Each expert scores each of its task's test rows once, gathered
        # out of the store a row block at a time, whatever the rows' order.
        own = []
        for heads, rows, cls in zip(experts, task_rows, classes):
            idx = np.flatnonzero(rows)
            hits = 0
            for b in (idx[block] for block in row_blocks(len(idx))):
                probs = fuse_probs(_layer_probs(test_feats.rows(b), [heads])[0],
                                   mode)
                hits += np.count_nonzero(cls[probs[:, cls].argmax(axis=1)] == y_te[b])
            own.append(hits / len(idx))
        return BaselineResult("separate", float(np.mean(own)), np.array(own))

    # In BASELINE_KINDS order, so a task without test rows fails in the
    # offline score before its expert divides by zero.
    return {"offline": scored("offline", pooled),
            "separate": separate(),
            "fine_tune": scored("fine_tune", experts[-1]),
            "non_incremental": scored("non_incremental", experts[0])}
