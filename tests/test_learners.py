"""Recursive head update tests.

The recursions are checked against their closed-form counterparts on
small random streams; hand-computed scalar cases pin the exact
arithmetic. Degeneration cases (k = 0 ridge, k = 1 pure forward) must
hold exactly in floating point, not just to tolerance, because the
drift term is assembled so those coefficients cancel structurally.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rvflstream.errors import ContractError, NumericalFailure
from rvflstream.learners import (
    BASELINE_KINDS,
    K_CLAMP_HI,
    K_CLAMP_LO,
    AdaptiveKTrace,
    ContinualModel,
    RegStyle,
    SubLearnerState,
    _carry_cap,
    _layer_logits,
    _layer_probs,
    compute_adaptive_k,
    fit_baseline,
    step_kf,
    step_kf_bayes,
    step_ridge,
)
from rvflstream.metrics import Targets
from rvflstream.network import (
    BLOCK_ROWS,
    FeatureBatch,
    FeatureStore,
    NetworkConfig,
    extract_features,
    fuse_probs,
    init_random_weights,
    row_blocks,
    softmax,
)
from rvflstream.solvers import offline_kf_fit, offline_ridge_fit, woodbury_update
from rvflstream.stream import (
    LabeledDataset,
    Task,
    TaskSplitSpec,
    batchify,
    make_gaussian_dataset,
    one_hot,
    split_class_incremental,
)


def fresh_state(d=3, m=2, lam=1.0, **style_kw):
    style = RegStyle(**style_kw)
    return SubLearnerState.initial(d, m, lam, style)


def ensemble_classes(layers, thetas, class_mask=None):
    """The mean ensemble's first-maximum class per row, over class_mask.

    Each layer's softmax comes from its own row-major [H_l | X] rows, one
    gemm over all d columns, not through the test store.
    """
    probs = fuse_probs([softmax(D @ theta) for D, theta in zip(layers, thetas)])
    if class_mask is not None:
        blocked = np.full_like(probs, -np.inf)
        blocked[:, class_mask] = probs[:, class_mask]
        probs = blocked
    return probs.argmax(axis=1)


def random_stream(rng, T, b, d, m):
    return [
        (rng.standard_normal((b, d)), rng.standard_normal((b, m)))
        for _ in range(T)
    ]


class TestRegStyle:
    def test_defaults(self):
        style = RegStyle(kind="kf_bayes")
        assert style.kappa == 1.0
        assert style.sigma == 1e-5
        assert style.init_mode == "theorem"
        assert style.k_source == "pseudo"
        assert style.fast_k is None

    def test_validation(self):
        with pytest.raises(ContractError):
            RegStyle(kind="dropout")
        with pytest.raises(ContractError):
            RegStyle(kind="kf", k=-1.0)
        with pytest.raises(ContractError):
            RegStyle(kind="kf_bayes", kappa=0.0)
        with pytest.raises(ContractError):
            RegStyle(kind="kf_bayes", sigma=-1e-9)
        with pytest.raises(ContractError):
            RegStyle(kind="ridge", init_mode="warm")
        with pytest.raises(ContractError):
            RegStyle(kind="kf_bayes", fast_k="cholesky")

    @pytest.mark.parametrize("build, message", [
        (lambda: RegStyle(kind="kf", k=np.nan), "finite k "),
        (lambda: RegStyle(kind="kf", k=np.inf), "finite k "),
        (lambda: RegStyle(kind="kf_bayes", kappa=np.inf), "finite kappa"),
        (lambda: RegStyle(kind="kf_bayes", sigma=np.inf), "finite sigma"),
        (lambda: NetworkConfig(L=2, N=4, s=3, m=2, lam=np.inf),
         "lam must be positive and finite"),
        (lambda: NetworkConfig(L=2, N=4, s=3, m=2, lam=(1.0, np.inf)),
         "lam must be positive and finite"),
        (lambda: SubLearnerState.initial(3, 2, np.inf, RegStyle(kind="ridge")),
         "lam must be positive and finite"),
    ], ids=["kf k nan", "kf k inf", "kappa inf", "sigma inf", "lam inf",
            "one layer lam inf", "state lam inf"])
    def test_non_finite_weight_or_lam_is_a_contract_error(self, build, message):
        # Caller errors, caught where they are made: a non-finite style
        # weight would fail numerically at batch 1, and lam = inf would
        # run to all-zero heads.
        with pytest.raises(ContractError, match=message):
            build()


class TestInitialState:
    def test_zero_weights_and_scaled_identity_rate(self):
        state = fresh_state(d=4, m=3, lam=2.0, kind="ridge")
        assert np.array_equal(state.theta, np.zeros((4, 3)))
        assert np.array_equal(state.eta_dag, np.eye(4) / 2.0)
        assert state.eta is None
        assert state.t == 0

    @pytest.mark.parametrize("lam", [1.0, 3.0, 1e-6])
    def test_initial_rate_has_the_bytes_of_a_scaled_identity(self, lam):
        # A pin: I / lam is written in place, with the bytes of
        # np.eye(d) / lam, which rounds 1 / lam the same way.
        state = fresh_state(d=37, m=2, lam=lam, kind="kf_bayes")
        assert state.base.flags.c_contiguous
        assert state.base.tobytes() == (np.eye(37) / lam).tobytes()


class TestRidgeStep:
    def test_scalar_hand_case(self):
        # lam=1, D=[[1]], Y=[[1]]: eta = 1/2, theta = 0 - 1/2*(0 - 1) = 0.5.
        state = fresh_state(d=1, m=1, kind="ridge")
        state = step_ridge(state, np.array([[1.0]]), np.array([[1.0]]))
        assert state.theta[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert state.t == 1

    def test_matches_offline_every_step(self):
        # Theorem-mode recursion carries the full history: after t
        # batches the head equals ridge fit on their concatenation.
        rng = np.random.default_rng(31)
        for trial in range(5):
            d, m, b = 4, 2, 3
            state = fresh_state(d=d, m=m, lam=0.7, kind="ridge")
            seen = []
            for D, Y in random_stream(rng, 6, b, d, m):
                state = step_ridge(state, D, Y)
                seen.append((D, Y))
                ref = offline_kf_fit(seen, None, 0.0, 0.7).theta
                assert np.allclose(state.theta, ref, rtol=1e-9, atol=1e-11)

    def test_paper_strict_skips_first_gram(self):
        state = fresh_state(d=2, m=1, lam=1.0, kind="ridge",
                            init_mode="paper_strict")
        D = np.array([[1.0, 0.0]])
        state = step_ridge(state, D, np.array([[1.0]]))
        # eta never absorbed D_1: still the initial (lam I)^{-1}.
        assert np.array_equal(state.eta_dag, np.eye(2))

    def test_style_guard(self):
        state = fresh_state(kind="kf", k=1.0)
        with pytest.raises(ContractError):
            step_ridge(state, np.ones((1, 3)), np.ones((1, 2)))

    def test_batch_shape_guard(self):
        state = fresh_state(d=3, m=2, kind="ridge")
        with pytest.raises(ContractError):
            step_ridge(state, np.ones((1, 4)), np.ones((1, 2)))
        with pytest.raises(ContractError):
            step_ridge(state, np.ones((2, 3)), np.ones((1, 2)))

    def test_zero_row_batch_is_rejected(self):
        state = fresh_state(d=3, m=2, kind="ridge")
        with pytest.raises(ContractError, match="D_t"):
            step_ridge(state, np.ones((0, 3)), np.ones((0, 2)))


class TestForwardStep:
    def test_matches_offline_every_step(self):
        # With the upcoming batch in hand, the recursion must equal the
        # direct minimizer over history + k-weighted next Gram.
        rng = np.random.default_rng(77)
        for k in (0.5, 2.0):
            d, m, b = 4, 2, 3
            state = fresh_state(d=d, m=m, lam=1.0, kind="kf", k=k)
            stream = random_stream(rng, 6, b, d, m)
            seen = []
            for i, (D, Y) in enumerate(stream):
                D_next = stream[i + 1][0] if i + 1 < len(stream) else None
                state = step_kf(state, D, Y, D_next)
                seen.append((D, Y))
                ref = offline_kf_fit(seen, D_next, k, 1.0).theta
                assert np.allclose(state.theta, ref, rtol=1e-9, atol=1e-11)

    def test_k_zero_equals_ridge_exactly(self):
        # d=3 flushes every step; at d=160 _carry_cap gives 40 rows, a
        # period of 8 at b=5, so rows are carried across two flushes.
        # A kf_bayes state stepped without D_next keeps no forward term,
        # so its recursion is ridge's too, bit for bit.
        rng = np.random.default_rng(13)
        m = 2
        for d, b, T, most_carried in ((3, 2, 5, 0), (160, 5, 20, 35)):
            ridge = fresh_state(d=d, m=m, kind="ridge")
            kf = fresh_state(d=d, m=m, kind="kf", k=0.0)
            bayes = fresh_state(d=d, m=m, kind="kf_bayes")
            stream = random_stream(rng, T, b, d, m)
            carried = 0
            for i, (D, Y) in enumerate(stream):
                D_next = stream[i + 1][0] if i + 1 < len(stream) else None
                ridge = step_ridge(ridge, D, Y)
                kf = step_kf(kf, D, Y, D_next)
                bayes, _ = step_kf_bayes(bayes, D, Y, None)
                for other in (kf, bayes):
                    assert np.array_equal(ridge.theta, other.theta), (d, i + 1)
                    assert np.array_equal(ridge.rows, other.rows), (d, i + 1)
                    assert np.array_equal(ridge.base, other.base), (d, i + 1)
                carried = max(carried, len(ridge.rows))
            assert carried == most_carried, d

    def test_k_one_matches_pure_forward_form(self):
        # At k=1 the labeled batch drops out of the drift entirely:
        # theta' = theta - eta' (G_next theta - D^T Y), and the closing
        # step has no drift at all. Bitwise equal.
        rng = np.random.default_rng(14)
        d, m, b = 3, 2, 2
        state = fresh_state(d=d, m=m, kind="kf", k=1.0)
        stream = random_stream(rng, 5, b, d, m)
        theta_ref = np.zeros((d, m))
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < len(stream) else None
            state = step_kf(state, D, Y, D_next)
            if D_next is None:
                theta_ref = theta_ref + state.eta @ (D.T @ Y)
            else:
                G_next = D_next.T @ D_next
                theta_ref = theta_ref - state.eta @ (
                    G_next @ theta_ref - D.T @ Y
                )
            assert np.array_equal(state.theta, theta_ref)

    def test_k_one_theorem_matches_the_dense_chain_bit_for_bit(self, monkeypatch):
        # kf at k = 1 under theorem, the one case on the dense chain,
        # carries no rows, so every absorb writes eta_dag: theta and
        # eta_dag equal a dense woodbury_update chain bit for bit, the
        # complete rate its rank-b' update by D_next^T D_next. Step 5's
        # D_t is not step 4's D_next, so it is projected afresh; step 7's
        # is an equal copy of step 6's D_next and takes the cached V.
        # d=150 spans two panels of the d x d write.
        rng = np.random.default_rng(90)
        d, m, b, T, lam = 150, 3, 5, 9, 0.3
        stream = random_stream(rng, T, b, d, m)
        other = rng.standard_normal((b, d))
        counts = _count_projected_rows(monkeypatch)
        state = fresh_state(d=d, m=m, lam=lam, kind="kf", k=1.0)
        theta, eta_dag = np.zeros((d, m)), np.eye(d) / lam
        for i, (D, Y) in enumerate(stream):
            D_next = other if i == 3 else stream[i + 1][0] if i + 1 < T else None
            counts.clear()
            state = step_kf(state, D.copy() if i == 6 else D, Y, D_next)
            eta_dag = woodbury_update(eta_dag, D, 1.0)
            eta, drift = eta_dag, -(D.T @ Y)
            if D_next is not None:
                eta = woodbury_update(eta_dag, D_next, 1.0)
                drift = (D_next.T @ D_next) @ theta - D.T @ Y
            theta = theta - eta @ drift
            assert len(state.rows) == 0, f"step {i + 1}"
            assert np.array_equal(state.eta_dag, eta_dag), f"step {i + 1}"
            assert np.array_equal(state.theta, theta), f"step {i + 1}"
            want = [] if D_next is None else [b]
            assert counts == ([b] + want if i in (0, 4) else want), f"step {i + 1}"

    def test_final_step_without_next_is_ridge(self):
        state = fresh_state(d=2, m=1, kind="kf", k=5.0)
        D = np.array([[1.0, 2.0]])
        Y = np.array([[1.0]])
        stepped = step_kf(state, D, Y, None)
        ref = offline_ridge_fit(D, Y, 1.0).theta
        assert np.allclose(stepped.theta, ref, rtol=1e-12)


class TestPaperStrictFirstHead:
    """paper_strict leaves batch 1 out of eta_dag for every style.

    ridge and kf still move their heads by D_1^T Y_1 at their complete
    rate after batch 1: I / lam for ridge, and (lam I + k D_2^T D_2)^{-1}
    for kf, whose rate also holds the forward term. kf_bayes's head
    skips the batch too and stays zero.
    """

    def test_first_head_and_rate(self):
        rng = np.random.default_rng(47)
        d, m, b, lam, k = 6, 3, 4, 0.7, 0.8
        D1, Y1, D2 = (rng.standard_normal(shape)
                      for shape in ((b, d), (b, m), (b, d)))
        heads = {}
        for kind in ("ridge", "kf", "kf_bayes"):
            state = fresh_state(d=d, m=m, lam=lam, kind=kind, k=k,
                                init_mode="paper_strict")
            if kind == "ridge":
                state = step_ridge(state, D1, Y1)
            elif kind == "kf":
                state = step_kf(state, D1, Y1, D2)
            else:
                state, _ = step_kf_bayes(state, D1, Y1, D2)
            assert np.array_equal(state.eta_dag, np.eye(d) / lam), kind
            heads[kind] = state.theta

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        assert rel(heads["ridge"], D1.T @ Y1 / lam) <= 1e-12
        kf_ref = np.linalg.solve(lam * np.eye(d) + k * (D2.T @ D2), D1.T @ Y1)
        assert rel(heads["kf"], kf_ref) <= 1e-12
        assert np.array_equal(heads["kf_bayes"], np.zeros((d, m)))


class TestFixedPairOwnsItsForwardBlock:
    @pytest.mark.parametrize("how", ["kf"])
    def test_caller_changing_d_next_leaves_eta(self, how):
        # eta is rebuilt from the stored (D_next, k_next, V) on every
        # read, so the state must hold its own copy of D_next.
        rng = np.random.default_rng(88)
        d, m, b = 6, 2, 3
        (D, Y), (D_next, _) = random_stream(rng, 2, b, d, m)
        state = step_kf(fresh_state(d=d, m=m, kind="kf", k=0.5), D, Y, D_next)
        eta = state.eta.copy()
        D_next *= 2.0
        assert np.array_equal(state.eta, eta)


class TestForwardLayout:
    @pytest.mark.parametrize("style_kw", [
        {"kind": "ridge"},
        {"kind": "kf", "k": 0.0},
        {"kind": "kf", "k": 0.5},
        {"kind": "kf_bayes"},
        {"kind": "kf_bayes", "init_mode": "paper_strict"},
    ])
    def test_every_style_keeps_d_next_k_next_and_v(self, style_kw):
        # A step with a forward term keeps (D_next, k_next, V) with
        # V = D_next eta_dag on the new eta_dag, whichever the style;
        # ridge, kf at k = 0 and the closing step keep none.
        rng = np.random.default_rng(89)
        d, m, b, T = 150, 2, 5, 12
        stream = random_stream(rng, T, b, d, m)
        state = fresh_state(d=d, m=m, **style_kw)
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            if state.style.kind == "ridge":
                state = step_ridge(state, D, Y)
            elif state.style.kind == "kf":
                state = step_kf(state, D, Y, D_next)
            else:
                state, _ = step_kf_bayes(state, D, Y, D_next)
            if D_next is None or state.style.kind == "ridge" or style_kw.get("k") == 0.0:
                assert state._forward is None, f"step {i + 1}"
                continue
            stored, k_next, V = state._forward
            assert np.array_equal(stored, D_next) and stored is not D_next
            assert k_next > 0
            assert _rel(V, D_next @ state.eta_dag) <= 1e-12, f"step {i + 1}"


class TestTelescoping:
    def test_forward_cancellation(self):
        # Between consecutive steps the weighted heads differ by exactly
        # the new cross term: A_{t+1} theta_{t+1} - A~_t theta_t = D^T Y.
        rng = np.random.default_rng(21)
        d, m, b, lam, k = 4, 2, 3, 0.9, 1.7
        state = fresh_state(d=d, m=m, lam=lam, kind="kf", k=k)
        stream = random_stream(rng, 6, b, d, m)
        S = np.zeros((d, d))                      # sum of seen Grams
        for i, (D, Y) in enumerate(stream):
            G = D.T @ D
            D_next = stream[i + 1][0] if i + 1 < len(stream) else None
            before = (lam * np.eye(d) + S + k * G) @ state.theta
            state = step_kf(state, D, Y, D_next)
            S += G
            k_next = k if D_next is not None else 0.0
            G_next = D_next.T @ D_next if D_next is not None else 0.0
            after = (lam * np.eye(d) + S + k_next * G_next) @ state.theta
            assert np.allclose(after - before, D.T @ Y, rtol=1e-8, atol=1e-10)


class TestAdaptiveK:
    def test_diagonal_hand_case(self):
        # D eta D^T = diag(1,3), sigma=0: trace(inv) = 4/3, k = 2/(4/3).
        D = np.array([[1.0, 0.0], [0.0, np.sqrt(3.0)]])
        k = compute_adaptive_k(D, np.eye(2), kappa=1.0, sigma=0.0)
        assert k == pytest.approx(1.5, abs=1e-12)

    def test_exactly_linear_in_kappa(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            D = rng.standard_normal((4, 5))
            base = rng.standard_normal((7, 5))
            eta = np.linalg.inv(base.T @ base + np.eye(5))
            k1 = compute_adaptive_k(D, eta, kappa=1.0, sigma=1e-5)
            k2 = compute_adaptive_k(D, eta, kappa=2.0, sigma=1e-5)
            assert k2 == 2.0 * k1

    def test_positive_on_pd_projections(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            D = rng.standard_normal((3, 6))
            base = rng.standard_normal((8, 6))
            eta = np.linalg.inv(base.T @ base + 0.5 * np.eye(6))
            k = compute_adaptive_k(D, eta, kappa=1.0, sigma=1e-5)
            assert np.isfinite(k) and k > 0

    def test_trace_only_variant(self):
        D = np.array([[1.0, 0.0], [0.0, 2.0]])
        # trace(D eta D^T + 0 I) = 1 + 4 = 5; k = kappa * 5 / 2.
        k = compute_adaptive_k(D, np.eye(2), kappa=1.0, sigma=0.0,
                               fast="trace_only")
        assert k == pytest.approx(2.5, abs=1e-12)

    def test_random_pick_variant_deterministic(self):
        D = np.array([[1.0, 0.0], [0.0, 2.0]])
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)
        a = compute_adaptive_k(D, np.eye(2), 1.0, 0.0, fast="random_pick",
                               rng=rng1)
        b = compute_adaptive_k(D, np.eye(2), 1.0, 0.0, fast="random_pick",
                               rng=rng2)
        assert a == b
        # diag(inv diag(1,4)) = (1, 1/4): the pick is one of 1 or 4.
        assert a in (pytest.approx(1.0), pytest.approx(4.0))

    def test_non_finite_projection_is_numerical_failure(self):
        D = np.array([[1e170, 1.0]])
        for fast in (None, "random_pick", "trace_only"):
            with np.errstate(over="ignore"), \
                    pytest.raises(NumericalFailure, match="non-finite"):
                compute_adaptive_k(D, np.eye(2), 1.0, 1e-5, fast=fast)

    def test_shape_guards(self):
        with pytest.raises(ContractError):
            compute_adaptive_k(np.ones((0, 2)), np.eye(2), 1.0, 0.0)
        with pytest.raises(ContractError):
            compute_adaptive_k(np.ones((1, 3)), np.eye(2), 1.0, 0.0)
        D = np.random.default_rng(0).standard_normal((8, 3))
        with pytest.raises(ContractError, match="eta must be square"):
            compute_adaptive_k(D, np.ones((3, 4)), 1.0, 1e-5)
        for kappa in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ContractError, match="kappa"):
                compute_adaptive_k(D, np.eye(3), kappa, 1e-5)
        for sigma in (-1.0, np.inf, np.nan):
            with pytest.raises(ContractError, match="sigma"):
                compute_adaptive_k(D, np.eye(3), 1.0, sigma)


@pytest.mark.parametrize("D_t, D_next, name", [
    (np.ones((0, 3)), np.ones((2, 3)), "D_t"),
    (np.ones((2, 3)), np.ones((0, 3)), "D_next"),
    (np.ones((2, 3)), np.ones((2, 4)), "D_next"),
    (np.ones((2, 3)), np.ones(3), "D_next"),
])
class TestStepInputs:
    # Every style checks its blocks before any work: a zero-row block or
    # an upcoming block of the wrong width is a ContractError.
    def test_kf_rejects(self, D_t, D_next, name):
        state = fresh_state(d=3, m=2, kind="kf", k=0.5)
        with pytest.raises(ContractError, match=name):
            step_kf(state, D_t, np.ones((len(D_t), 2)), D_next)

    def test_kf_bayes_rejects(self, D_t, D_next, name):
        state = fresh_state(d=3, m=2, kind="kf_bayes")
        state, _ = step_kf_bayes(state, np.ones((2, 3)), np.ones((2, 2)),
                                 np.eye(3)[:2])
        with pytest.raises(ContractError, match=name):
            step_kf_bayes(state, D_t, np.ones((len(D_t), 2)), D_next)


class TestBayesStep:
    def test_records_clamped_pairs(self):
        # A vanishing batch pushes the raw k to ~0; the recorded pair
        # must sit at the lower clamp.
        state = fresh_state(d=2, m=1, kind="kf_bayes", sigma=1e-9)
        D = np.array([[1.0, 0.0]])
        Y = np.array([[1.0]])
        D_next = np.array([[1e-12, 0.0]])
        state, pair = step_kf_bayes(state, D, Y, D_next)
        assert pair is not None
        k_cur, k_next = pair
        assert k_next == pytest.approx(1e-6)
        assert k_cur > 0

    def test_final_step_records_zero_next(self):
        # The closing step still adapts k_cur but has nothing ahead.
        state = fresh_state(d=2, m=1, kind="kf_bayes")
        state, pair = step_kf_bayes(state, np.ones((1, 2)), np.ones((1, 1)),
                                    None)
        assert pair is not None
        assert pair[0] > 0
        assert pair[1] == 0.0
        assert state.t == 1

    def test_previous_complete_source_differs(self):
        rng = np.random.default_rng(66)
        d, m, b = 3, 2, 2
        stream = random_stream(rng, 3, b, d, m)

        def run(k_source):
            state = fresh_state(d=d, m=m, kind="kf_bayes",
                                k_source=k_source)
            pairs = []
            for i, (D, Y) in enumerate(stream):
                D_next = stream[i + 1][0] if i + 1 < len(stream) else None
                state, pair = step_kf_bayes(state, D, Y, D_next)
                if pair:
                    pairs.append(pair)
            return pairs

        a = run("pseudo")
        b_ = run("previous_complete")
        assert a[0] == b_[0]          # identical before any eta exists
        assert a[1] != b_[1]          # sources diverge from step 2 on


class TestRoundingSensitivity:
    @pytest.mark.parametrize("init_mode", ["theorem", "paper_strict"])
    def test_one_ulp_of_lam_barely_moves_the_deepest_head(self, init_mode):
        # The closed-form head is a smooth function of lam, so the next
        # float above lam = 1 moves it by rounding only (~4e-9 measured).
        # A head that keeps a stale forward weight amplified the same
        # change to 7e-4 (theorem) and 5e-2 (paper_strict).
        train, _ = make_gaussian_dataset(6, 12, 2.0, 40, 1, seed=3)
        stream = batchify(split_class_incremental(train, TaskSplitSpec(Q=3, order_seed=3)),
                          8, 6)

        def deepest_head(lam):
            config = NetworkConfig(L=3, N=256, s=12, m=6, lam=lam, seed=3)
            model = ContinualModel(config, RegStyle(kind="kf_bayes",
                                                    init_mode=init_mode))
            for i, batch in enumerate(stream):
                X_next = stream[i + 1].X if i + 1 < stream.T else None
                model.observe(batch.X, batch.Y, X_next)
            return model.states[2].theta

        lam = 1.0
        assert _rel(deepest_head(np.nextafter(lam, 2.0)), deepest_head(lam)) <= 1e-7


def _observed_stream(stream, config, style):
    """A model stepped through stream, each layer's stacked D and all Y."""
    model = ContinualModel(config, style)
    for i, batch in enumerate(stream):
        model.observe(batch.X, batch.Y, stream[i + 1].X if i + 1 < stream.T else None)
    layers = [[] for _ in range(config.L)]
    for batch in stream:
        for l, feats in enumerate(model._features(batch.X, 0)):
            layers[l].append(feats.D)
    return model, [np.vstack(D) for D in layers], np.vstack([b.Y for b in stream])


class TestCarriedHeadAccuracy:
    # The carried absorb moves each head by its gain L^{-T} W = S^{-1} M
    # with no subtraction. Bounds are about 4x the gaps measured with it
    # and below those of the subtractive update M - (D_t W^T) W.

    def test_paper_strict_ridge_is_the_listings_closed_form(self):
        # paper_strict ridge solves
        # (lam I + sum_{t>=2} D_t^T D_t) theta = sum_{t>=1} D_t^T Y_t;
        # the reference solves it through the R factor of
        # [D_2; ...; D_T; sqrt(lam) I]. Measured gaps 2.1e-6, 4.3e-5 and
        # 9.3e-4 per layer; a dense Woodbury chain reads 2.4e4, 5.5e6 and
        # 2.8e9.
        lam = 1e-6
        train, _ = make_gaussian_dataset(10, 64, 1.5, 200, 1, seed=3)
        stream = batchify(split_class_incremental(train, TaskSplitSpec(Q=5, order_seed=3)),
                          20, 10)
        config = NetworkConfig(L=3, N=128, s=64, m=10, lam=lam, seed=3)
        model, layers, Y = _observed_stream(
            stream, config, RegStyle("ridge", init_mode="paper_strict"))
        b1 = len(stream[0].X)
        for l, (state, D, bound) in enumerate(zip(model.states, layers,
                                                  (1e-5, 2e-4, 4e-3))):
            R = np.linalg.qr(np.vstack([D[b1:], np.sqrt(lam) * np.eye(D.shape[1])]),
                             mode="r")
            ref = np.linalg.solve(R, np.linalg.solve(R.T, D.T @ Y))
            assert _rel(state.theta, ref) <= bound, f"layer {l + 1}"

    @pytest.mark.parametrize("kind", ["ridge", "kf_bayes"])
    def test_final_heads_match_least_squares_on_pixels(self, kind):
        # Pixels in [0, 1] at lam = 1e-6, d = 784 + 128: each layer's
        # final head against lstsq of [D; sqrt(lam) I]. Measured gaps
        # 2.1e-7, 6.5e-6 and 2.6e-4 for both styles; a dense Woodbury
        # chain reads 2.2e-6, 1.4e-4 and 3.6e-3 for ridge, and the
        # subtractive update 3.0e-6, 2.5e-4 and 4.2e-3 for kf_bayes.
        from perfbench.workloads import pixel_standin

        lam = 1e-6
        (images, labels), _ = pixel_standin(461, 100, 1)
        train = LabeledDataset(images.reshape(len(images), -1) / 255.0, labels, 10)
        stream = batchify(split_class_incremental(train, TaskSplitSpec(5, 461)), 20, 10)
        config = NetworkConfig(L=3, N=128, s=784, m=10, lam=lam, seed=461)
        model, layers, Y = _observed_stream(stream, config, RegStyle(kind))
        for l, (state, D, bound) in enumerate(zip(model.states, layers,
                                                  (1e-6, 3e-5, 1.2e-3))):
            d = D.shape[1]
            ref = np.linalg.lstsq(np.vstack([D, np.sqrt(lam) * np.eye(d)]),
                                  np.vstack([Y, np.zeros((d, Y.shape[1]))]),
                                  rcond=None)[0]
            assert _rel(state.theta, ref) <= bound, f"layer {l + 1}"


class TestForwardHeadAccuracy:
    @pytest.mark.parametrize("init_mode", ["theorem", "paper_strict"])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_every_head_is_the_listings_closed_form(self, k, init_mode):
        # kf's head after batch t solves
        # (lam I + sum_{i>=lo} G_i + k G_next) theta = sum_{i>=1} D_i^T Y_i,
        # lo = 2 under paper_strict; the reference solves it through the
        # R factor of [D_lo; ...; D_t; sqrt(k) D_next; sqrt(lam) I].
        # Worst gaps over the 30 steps: 6.1e-9 to 8.2e-9 under theorem
        # (k = 1 on the dense chain), 2.3e-9 under paper_strict, where
        # the dense chain read 7.4e-3 to 5.6e-2.
        rng = np.random.default_rng(0)
        d, m, b, T, lam = 60, 4, 8, 30, 1e-6
        stream = [(np.maximum(D, 0.0), Y) for D, Y in random_stream(rng, T, b, d, m)]
        state = fresh_state(d=d, m=m, lam=lam, kind="kf", k=k, init_mode=init_mode)
        lo = 1 if init_mode == "theorem" else 2
        cross = np.zeros((d, m))
        for t, (D, Y) in enumerate(stream, start=1):
            D_next = stream[t][0] if t < T else None
            state = step_kf(state, D, Y, D_next)
            cross = cross + D.T @ Y
            blocks = [D_i for D_i, _ in stream[lo - 1:t]]
            if D_next is not None:
                blocks.append(np.sqrt(k) * D_next)
            R = np.linalg.qr(np.vstack(blocks + [np.sqrt(lam) * np.eye(d)]), mode="r")
            ref = np.linalg.solve(R, np.linalg.solve(R.T, cross))
            assert _rel(state.theta, ref) <= 5e-8, f"step {t}"


def _rel(got, want):
    """Relative Frobenius distance; absolute when want is zero."""
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / (scale if scale else 1.0))


def _traced_peak(fn):
    """fn() and the peak bytes traced while it ran, above the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def _count_dxd_work(monkeypatch):
    """Record the learners' inner systems (_correction_rows) and d x d writes."""
    from rvflstream import learners

    calls, writes = [], []
    for name, log in (("_correction_rows", calls), ("_minus_gram", writes)):
        def counted(*args, _inner=getattr(learners, name), _log=log, **kwargs):
            _log.append(args[0].shape)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(learners, name, counted)
    return calls, writes


def _closed_form(stream, i, D_next, k_next, init_mode="theorem", lam=1.0):
    """theta, eta_dag and eta after step i + 1, straight from the Grams.

    theta is offline_kf_fit over the absorbed batches with the forward
    term (D_next, k_next); eta_dag and eta are explicit inverses of the
    information matrix without and with that term. paper_strict absorbs
    batches 2..t only, so its head is zero after batch 1.
    """
    seen = stream[1 if init_mode == "paper_strict" else 0:i + 1]
    d, m = stream[0][0].shape[1], stream[0][1].shape[1]
    info = lam * np.eye(d) + sum((D.T @ D for D, _ in seen), np.zeros((d, d)))
    theta = (offline_kf_fit(seen, D_next, k_next, lam).theta if seen
             else np.zeros((d, m)))
    full = info if D_next is None else info + k_next * (D_next.T @ D_next)
    return theta, np.linalg.inv(info), np.linalg.inv(full)


class TestImplicitForwardRate:
    @pytest.mark.parametrize("style_kw", [
        {},
        {"init_mode": "paper_strict"},
        {"fast_k": "trace_only"},
    ])
    def test_matches_dense_replay(self, style_kw, monkeypatch):
        # The adaptive step carries the ridge head and applies the forward
        # correction through the b' x b' system only. Its head must equal
        # the closed form with the pair it records, and eta the explicit
        # inverse, at every step, the closing step (no D_next) included,
        # and k_cur must be the previous step's k_next.
        rng = np.random.default_rng(71)
        d, m, b, T = 10, 3, 4, 24
        calls, writes = _count_dxd_work(monkeypatch)
        stream = random_stream(rng, T, b, d, m)
        adaptive = fresh_state(d=d, m=m, kind="kf_bayes", **style_kw)
        init_mode = adaptive.style.init_mode
        pair = None
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            calls.clear()
            writes.clear()
            previous = pair
            adaptive, pair = step_kf_bayes(adaptive, D, Y, D_next)
            if previous is not None:
                assert pair[0] == previous[1], f"step {i + 1}"
            skipped = i == 0 and style_kw.get("init_mode") == "paper_strict"
            # d=10 carries no rows at b=4: the absorb is the one inner
            # system and the one write.
            assert len(calls) == (0 if skipped else 1), f"step {i + 1}"
            assert len(writes) == (0 if skipped else 1), f"step {i + 1}"
            theta, _, eta = _closed_form(stream, i, D_next, pair[1], init_mode)
            assert _rel(adaptive.theta, theta) <= 1e-9, f"step {i + 1}"
            assert _rel(adaptive.eta, eta) <= 1e-9, f"step {i + 1}"
        assert pair[1] == 0.0


class TestAdaptivePairFromProjections:
    @pytest.mark.parametrize("style_kw", [
        {},
        {"init_mode": "paper_strict"},
        {"fast_k": "trace_only"},
        {"fast_k": "random_pick"},
    ])
    def test_pairs_follow_rule_on_new_eta_dag(self, style_kw):
        # The adaptive step takes k_next from the projections its absorb
        # returns; it must equal the clamped rule applied afresh to the
        # eta_dag the step leaves behind (d spans two panels). k_cur is
        # the previous k_next, bit for bit; only the first step, which
        # has no forward term before it, takes k_cur from the rule.
        rng = np.random.default_rng(72)
        d, m, b, T = 150, 3, 4, 24
        stream = random_stream(rng, T, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes", **style_kw)
        step_rng, rule_rng = np.random.default_rng(5), np.random.default_rng(5)

        def rule(block):
            k = compute_adaptive_k(block, state.eta_dag, state.style.kappa,
                                   state.style.sigma, state.style.fast_k,
                                   rng=rule_rng)
            return float(np.clip(k, K_CLAMP_LO, K_CLAMP_HI))

        k_next = None
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            previous = k_next
            state, (k_cur, k_next) = step_kf_bayes(state, D, Y, D_next,
                                                   rng=step_rng)
            if i == 0:
                assert k_cur == pytest.approx(rule(D), rel=1e-10)
            else:
                assert k_cur == previous, f"step {i + 1}"
            want = 0.0 if D_next is None else rule(D_next)
            assert k_next == pytest.approx(want, rel=1e-10), f"step {i + 1}"
        assert k_next == 0.0


class TestStepAllocations:
    def test_adaptive_step_builds_one_dxd_array(self):
        # The new eta_dag is the step's only d x d allocation; the peak
        # leaves room for panel-sized and b x d temporaries only.
        rng = np.random.default_rng(81)
        d, m, b = 400, 10, 20
        stream = random_stream(rng, 3, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        state, _ = step_kf_bayes(state, *stream[0], stream[1][0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step_kf_bayes(state, *stream[1], stream[2][0])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * d * d * 8, f"peak {peak / (d * d * 8):.2f} x d^2"


class TestDeferredAbsorb:
    # An adaptive layer carries eta_dag as base - rows^T rows and writes
    # the base only on a flush, once every _carry_cap(d) // b steps.

    @pytest.mark.parametrize("init_mode", ["theorem", "paper_strict"])
    def test_matches_dense_replay_over_flushes(self, init_mode):
        # d=150 carries up to 37 rows, so b=4 flushes every 9 steps: 35
        # steps span three flushes and end on a short batch; d spans two
        # panels.
        rng = np.random.default_rng(73)
        d, m, b, T = 150, 3, 4, 35
        stream = random_stream(rng, T, b, d, m)
        stream[-1] = (stream[-1][0][:3], stream[-1][1][:3])
        adaptive = fresh_state(d=d, m=m, kind="kf_bayes", init_mode=init_mode)
        flushes = 0
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            prev = adaptive
            adaptive, pair = step_kf_bayes(adaptive, D, Y, D_next)
            theta, eta_dag, eta = _closed_form(stream, i, D_next, pair[1],
                                               init_mode)
            if i > 0 and len(adaptive.rows) == 0:
                flushes += 1
                assert np.array_equal(adaptive.base, adaptive.base.T)
            elif i > 0:
                # Without a flush the base is kept and the rows appended.
                assert adaptive.base is prev.base, f"step {i + 1}"
                assert len(adaptive.rows) == len(prev.rows) + len(D)
                assert np.array_equal(adaptive.rows[:len(prev.rows)], prev.rows)
            assert _rel(adaptive.theta, theta) <= 1e-9, f"step {i + 1}"
            assert _rel(adaptive.eta_dag, eta_dag) <= 1e-9, f"step {i + 1}"
            assert _rel(adaptive.eta, eta) <= 1e-9, f"step {i + 1}"
        assert flushes == 3
        assert pair[1] == 0.0

    def test_earlier_states_stay_bit_for_bit(self):
        # States kept mid-period hold carried rows and forward rows; the
        # later steps, a flush among them, and a second branch from a
        # kept state must not touch them.
        rng = np.random.default_rng(74)
        d, m, b = 160, 3, 5
        stream = random_stream(rng, 12, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        kept = []
        for i, (D, Y) in enumerate(stream[:-1]):
            state, _ = step_kf_bayes(state, D, Y, stream[i + 1][0])
            if i + 1 in (5, 7):
                assert len(state.rows) > 0
                kept.append((state, state.theta.copy(), state.rows.copy(),
                             state.eta_dag.copy(), state.eta.copy(),
                             [a.copy() for a in state._forward[::2]]))
        assert state.t == 11 and len(state.rows) == 3 * b  # flushed at t=8
        branch, _ = step_kf_bayes(kept[0][0], *stream[5], stream[6][0])
        again, _ = step_kf_bayes(kept[0][0], *stream[5], stream[6][0])
        assert np.array_equal(branch.theta, again.theta)
        for st, theta, rows, eta_dag, eta, forward in kept:
            assert np.array_equal(st.theta, theta)
            assert np.array_equal(st.rows, rows)
            assert np.array_equal(st.eta_dag, eta_dag)
            assert np.array_equal(st.eta, eta)
            # The next absorb copied V, the cached D_next eta_dag, into
            # its own projections and left the stored D_next alone.
            assert np.array_equal(st._forward[0], forward[0])
            assert np.array_equal(st._forward[2], forward[1])

    def test_model_flushes_at_most_one_layer_per_observe(self, monkeypatch):
        from rvflstream import learners

        minus_gram, calls = learners._minus_gram, []

        def counted(*args, **kwargs):
            calls.append(1)
            return minus_gram(*args, **kwargs)

        monkeypatch.setattr(learners, "_minus_gram", counted)
        # d = s + N = 640 carries up to 160 rows, a period of 8 at b=20.
        config = NetworkConfig(L=3, N=630, s=10, m=3, lam=1.0, seed=4)
        T, b = 30, 20
        for kind in ("kf_bayes", "ridge"):
            rng = np.random.default_rng(76)
            model = ContinualModel(config, RegStyle(kind=kind))
            X = rng.standard_normal((T, b, 10))
            Y = np.eye(3)[rng.integers(0, 3, (T, b))]
            per_observe = []
            for t in range(T):
                calls.clear()
                model.observe(X[t], Y[t], X[t + 1] if t + 1 < T else None)
                per_observe.append(len(calls))
            assert max(per_observe) == 1, kind
            # Layer l flushes at t = l mod 8: batches 1-3, 9-11, 17-19, 25-27.
            assert sum(per_observe) == 12, kind

    def test_non_flush_step_builds_no_dxd_array(self):
        # A step without a flush allocates no d x d array: besides b x d
        # temporaries, only the new copy of its carried rows grows with
        # the period. ridge carries its rows as kf_bayes does.
        rng = np.random.default_rng(82)
        d, m, b = 400, 10, 20
        stream = random_stream(rng, 8, b, d, m)
        steps = {
            "kf_bayes": lambda state, i: step_kf_bayes(state, *stream[i],
                                                       stream[i + 1][0])[0],
            "ridge": lambda state, i: step_ridge(state, *stream[i]),
        }
        for kind, step in steps.items():
            state = fresh_state(d=d, m=m, kind=kind)
            for i in range(_carry_cap(d) // b - 1):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    new = step(state, i)
                    peak = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                assert len(new.rows) == len(state.rows) + b, f"{kind} step {i + 1} flushed"
                if i == 1:
                    assert peak <= 0.5 * d * d * 8, (
                        f"{kind} peak {peak / (d * d * 8):.2f} x d^2")
                assert peak - new.rows.nbytes <= 0.5 * d * d * 8, f"{kind} step {i + 1}"
                state = new

    def test_flush_step_memory_is_bounded(self):
        # The flush writes the new base once; with the carried rows and
        # _minus_gram's panel temporaries it stays within 2 d^2.
        rng = np.random.default_rng(83)
        d, m, b = 400, 10, 20
        period = _carry_cap(d) // b
        stream = random_stream(rng, period + 1, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        for i in range(period - 1):
            state, _ = step_kf_bayes(state, *stream[i], stream[i + 1][0])
        assert len(state.rows) == (period - 1) * b
        state, peak = _traced_peak(
            lambda: step_kf_bayes(state, *stream[period - 1], stream[period][0])[0])
        assert len(state.rows) == 0
        assert peak <= 2.0 * d * d * 8, f"peak {peak / (d * d * 8):.2f} x d^2"

    def test_eta_read_writes_one_dxd_array(self):
        # With rows carried, eta is E - [A; W_f]^T [A; W_f], written once.
        rng = np.random.default_rng(84)
        d, m, b = 400, 10, 20
        stream = random_stream(rng, 3, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        for i in range(2):
            state, _ = step_kf_bayes(state, *stream[i], stream[i + 1][0])
        assert len(state.rows) == 2 * b
        eta, peak = _traced_peak(lambda: state.eta)
        assert np.array_equal(eta, eta.T)
        assert peak <= 1.5 * d * d * 8, f"peak {peak / (d * d * 8):.2f} x d^2"

    def test_indefinite_inner_system_stops_the_step(self, monkeypatch):
        # base - rows^T rows = -I makes S indefinite: the absorb raises
        # without a least squares solve, and the step names the batch and
        # the layer.
        from rvflstream import solvers

        def unreached(A, B):
            raise AssertionError("least squares fallback reached")

        monkeypatch.setattr(solvers, "_ldl_solve", unreached)
        d, b = 300, 4
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((6, d)) / np.sqrt(d)
        state = dataclasses.replace(fresh_state(d=d, m=2, kind="kf_bayes"),
                                    base=-np.eye(d) + rows.T @ rows, rows=rows,
                                    t=1)
        D = FeatureBatch(D=rng.standard_normal((b, d)), layer=2, t=2)
        with pytest.raises(NumericalFailure, match="not positive definite") as info:
            step_kf_bayes(state, D, np.zeros((b, 2)))
        assert (info.value.batch_index, info.value.layer) == (2, 2)
        assert str(info.value).endswith("batch=2 layer=2")

    @pytest.mark.parametrize("sizes", [
        [7] * 60,
        [20] * 30,
        [170] * 4,
        [5, 150, 3, 90, 170, 1, 60] * 3,
    ])
    def test_carried_rows_stay_within_cap(self, sizes):
        rng = np.random.default_rng(77)
        d, m = 640, 2
        assert _carry_cap(d) == 160
        batches = [(rng.standard_normal((n, d)), rng.standard_normal((n, m)))
                   for n in sizes]
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        for i, (D, Y) in enumerate(batches):
            D_next = batches[i + 1][0] if i + 1 < len(batches) else None
            state, _ = step_kf_bayes(state, D, Y, D_next)
            assert len(state.rows) <= _carry_cap(d), f"step {i + 1}"

    def test_narrow_layer_writes_every_step(self, monkeypatch):
        # At d=32 a layer may carry 8 rows, fewer than b=20: every
        # adaptive step writes its rank-b correction, as the dense chain
        # does, and carries nothing.
        from rvflstream import learners

        minus_gram, calls = learners._minus_gram, []

        def counted(*args, **kwargs):
            calls.append(1)
            return minus_gram(*args, **kwargs)

        monkeypatch.setattr(learners, "_minus_gram", counted)
        rng = np.random.default_rng(78)
        d, m, b, T = 32, 3, 20, 12
        stream = random_stream(rng, T, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            calls.clear()
            state, _ = step_kf_bayes(state, D, Y, D_next)
            assert len(state.rows) == 0, f"step {i + 1}"
            assert len(calls) == 1, f"step {i + 1}"


def _count_projected_rows(monkeypatch):
    """Record the row count of every projection on a carried eta_dag."""
    from rvflstream import learners

    counts = []

    def counted(X, *args, _inner=learners._project):
        counts.append(X.shape[0])
        return _inner(X, *args)

    monkeypatch.setattr(learners, "_project", counted)
    return counts


def _forward_step(state, D, Y, D_next):
    """One kf or kf_bayes step: (new_state, (k_cur, k_next))."""
    if state.style.kind == "kf_bayes":
        return step_kf_bayes(state, D, Y, D_next)
    k = state.style.k
    return step_kf(state, D, Y, D_next), (k, k if D_next is not None else 0.0)


class TestCachedProjection:
    # A step with a forward term keeps V = D_next eta_dag; the next absorb
    # takes its D_t rows from V and projects only D_next on the carried
    # matrix.

    FORWARD_STYLES = ({"kind": "kf_bayes"}, {"kind": "kf", "k": 0.5})

    def _run(self, stream, style_kw):
        d, m = stream[0][0].shape[1], stream[0][1].shape[1]
        state = fresh_state(d=d, m=m, kind="kf_bayes", **style_kw)
        thetas, pairs = [], []
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < len(stream) else None
            state, pair = step_kf_bayes(state, D, Y, D_next)
            thetas.append(state.theta)
            pairs.append(pair)
        return thetas, pairs

    @pytest.mark.parametrize("init_mode", ["theorem", "paper_strict"])
    @pytest.mark.parametrize("k_source, k_bound", [
        ("pseudo", 1e-8),
        # The previous complete rate subtracts the forward correction
        # from the projections, a cancellation that scales the rounding
        # of the D_t rows by up to 1 + k_next, and k_next reaches ~1.4e2
        # on this stream. Those rows feed k_cur only at the first step;
        # the measured worst is 1.1e-15 (pseudo 9.7e-16).
        ("previous_complete", 1e-10),
    ])
    def test_matches_full_product_over_flushes(self, init_mode, k_source,
                                               k_bound, monkeypatch):
        # d=150 carries up to 37 rows, so b=5 flushes every 7 steps: 30
        # steps span four flushes, after which the cached V was taken on
        # the carried form and the fresh product on the written base.
        from rvflstream import learners

        rng = np.random.default_rng(79)
        d, m, b, T = 150, 3, 5, 30
        assert _carry_cap(d) == 37
        stream = random_stream(rng, T, b, d, m)
        style_kw = {"init_mode": init_mode, "k_source": k_source}
        counts = _count_projected_rows(monkeypatch)
        thetas, pairs = self._run(stream, style_kw)
        # The first step projects D_t and then D_next on the new eta_dag.
        assert counts == [b, b] + [b] * (T - 2)
        monkeypatch.setattr(learners, "_cached_rows", lambda state, D: None)
        full_thetas, full_pairs = self._run(stream, style_kw)
        for i in range(T):
            assert _rel(thetas[i], full_thetas[i]) <= 1e-9, f"step {i + 1}"
            for k, want in zip(pairs[i], full_pairs[i]):
                assert k == pytest.approx(want, rel=k_bound, abs=0), f"step {i + 1}"

    @pytest.mark.parametrize("style_kw", [{"kind": "kf_bayes"},
                                          {"kind": "kf", "k": 0.5}],
                             ids=["kf_bayes", "kf"])
    def test_model_projects_only_the_next_batch(self, style_kw, monkeypatch):
        # After the first observe every layer projects only the b' rows
        # of its next batch on the base; the first projects its b rows
        # of D_t, then the b' of D_next, and the closing observe projects
        # nothing. kf absorbs as kf_bayes does, with no woodbury_update.
        from rvflstream import learners, solvers

        def unreached(*args, **kwargs):
            raise AssertionError("woodbury_update called on the step path")

        for module in (learners, solvers):
            monkeypatch.setattr(module, "woodbury_update", unreached)
        counts = _count_projected_rows(monkeypatch)
        rng = np.random.default_rng(80)
        config = NetworkConfig(L=3, N=150, s=10, m=3, lam=1.0, seed=4)
        model = ContinualModel(config, RegStyle(**style_kw))
        sizes = [20, 20, 7, 20, 13, 20]
        X = [rng.standard_normal((n, 10)) for n in sizes]
        Y = [np.eye(3)[rng.integers(0, 3, n)] for n in sizes]
        for t, n in enumerate(sizes):
            counts.clear()
            X_next = X[t + 1] if t + 1 < len(sizes) else None
            model.observe(X[t], Y[t], X_next)
            want = [] if X_next is None else [len(X_next)] * config.L
            if t == 0:
                want = [n, len(X_next)] * config.L
            assert counts == want, f"batch {t + 1}"

    @pytest.mark.parametrize("case", ["other_batch", "mutated"])
    def test_unmatched_block_takes_the_full_product(self, case, monkeypatch):
        # A D_t other than the stored D_next, and the caller's D_next
        # array changed in place after the step, both project D_t afresh;
        # the step then equals one from the same state with the cache
        # turned off, which keeps k_next as the step's k_cur, bit for bit.
        from rvflstream import learners

        for style_kw in self.FORWARD_STYLES:
            rng = np.random.default_rng(86)
            d, m, b = 160, 3, 5
            stream = random_stream(rng, 4, b, d, m)
            state = fresh_state(d=d, m=m, **style_kw)
            state, _ = _forward_step(state, *stream[0], stream[1][0])
            D_next = stream[1][0].copy()
            state, _ = _forward_step(state, *stream[1], D_next)
            D_t = D_next
            if case == "other_batch":
                D_t = stream[3][0]
            elif case == "mutated":
                D_next[0, 0] += 1.0
            with monkeypatch.context() as patch:
                counts = _count_projected_rows(patch)
                got, got_pair = _forward_step(state, D_t, stream[2][1], stream[3][0])
                assert counts == [b, b], style_kw
                patch.setattr(learners, "_cached_rows", lambda state, D: None)
                want, want_pair = _forward_step(state, D_t, stream[2][1], stream[3][0])
            assert got_pair == want_pair
            assert got_pair[0] == state._forward[1]
            for name in ("theta", "q", "base", "rows"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert np.array_equal(got._forward[2], want._forward[2])

    def test_equal_copy_of_the_next_batch_uses_the_cache(self, monkeypatch):
        for style_kw in self.FORWARD_STYLES:
            rng = np.random.default_rng(87)
            d, m, b = 160, 3, 5
            stream = random_stream(rng, 3, b, d, m)
            state = fresh_state(d=d, m=m, **style_kw)
            state, _ = _forward_step(state, *stream[0], stream[1][0])
            with monkeypatch.context() as patch:
                counts = _count_projected_rows(patch)
                _forward_step(state, stream[1][0].copy(), stream[1][1], stream[2][0])
            assert counts == [b], style_kw


class TestPreviousCompleteSource:
    def test_one_absorb_per_step_on_the_parent_rule(self, monkeypatch):
        # k_next comes from the previous complete rate, taken from the
        # absorb's product and the forward rows the previous step kept:
        # one inner system for the absorb, one more for those rows once
        # a step has kept them and has a D_next, and at most one d x d
        # write (the flush). The reference inverts that rate's
        # information matrix. k_cur is the
        # previous k_next; the first step takes it from the rule, on
        # eta_dag with D_t absorbed.
        calls, writes = _count_dxd_work(monkeypatch)
        rng = np.random.default_rng(75)
        d, m, b, T = 150, 3, 16, 25
        stream = random_stream(rng, T, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes",
                            k_source="previous_complete")
        style = state.style

        def rule(block, eta):
            k = compute_adaptive_k(block, eta, style.kappa, style.sigma)
            return float(np.clip(k, K_CLAMP_LO, K_CLAMP_HI))

        k_next = None
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            if i == 0:
                basis = np.linalg.inv(np.eye(d) + D.T @ D)
            else:
                basis = _closed_form(stream, i - 1, D, k_next)[2]
            calls.clear()
            writes.clear()
            previous = k_next
            state, (k_cur, k_next) = step_kf_bayes(state, D, Y, D_next)
            assert len(calls) == (2 if 0 < i < T - 1 else 1), f"step {i + 1}"
            assert len(writes) <= 1, f"step {i + 1}"
            if i == 0:
                assert k_cur == pytest.approx(rule(D, basis), rel=1e-10)
            else:
                assert k_cur == previous, f"step {i + 1}"
            want = 0.0 if D_next is None else rule(D_next, basis)
            assert k_next == pytest.approx(want, rel=1e-10), f"step {i + 1}"
            theta = _closed_form(stream, i, D_next, k_next)[0]
            assert _rel(state.theta, theta) <= 1e-9, f"step {i + 1}"


class TestOneBlasPool:
    def test_pd_streams_never_call_scipy_linalg(self, monkeypatch):
        # numpy and scipy wheels bundle separate OpenBLAS pools, so no
        # step or offline fit may touch scipy.linalg. solvers imports
        # none today (test_numpy_only refuses scipy altogether); this
        # guard catches a scipy.linalg callable brought back into it.
        from rvflstream import solvers

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg called on positive definite data")

        for name, value in list(vars(solvers).items()):
            if callable(value) and getattr(value, "__module__", "").startswith("scipy.linalg"):
                monkeypatch.setattr(solvers, name, forbidden)

        rng = np.random.default_rng(12)
        config = NetworkConfig(L=2, N=6, s=4, m=3, lam=1.0, seed=2)
        X = rng.standard_normal((5, 6, 4))
        Y = np.eye(3)[rng.integers(0, 3, (5, 6))]
        for style in (RegStyle(kind="ridge"), RegStyle(kind="kf", k=0.5),
                      RegStyle(kind="kf_bayes"),
                      RegStyle(kind="kf_bayes", k_source="previous_complete",
                               fast_k="random_pick")):
            model = ContinualModel(config, style)
            for t in range(5):
                model.observe(X[t], Y[t], X[t + 1] if t + 1 < 5 else None)
            assert all(np.all(np.isfinite(st.theta)) for st in model.states)

        train, test = make_gaussian_dataset(classes=3, dims=4, separation=4.0,
                                            samples=10, test_samples=5, seed=3)
        tasks = [Task(train.X, train.y, (0, 1, 2))]
        res = fit_baseline(tasks, *baseline_inputs(config, test))["offline"]
        assert np.isfinite(res.accuracy)


class TestKTrace:
    def test_rows_sorted_and_complete(self):
        trace = AdaptiveKTrace(2)
        trace.record(2, 1, 0.5, 0.6)
        trace.record(1, 1, 0.1, 0.2)
        trace.record(1, 2, 0.3, 0.4)
        assert trace.rows() == [(1, 1, 0.1, 0.2), (1, 2, 0.5, 0.6),
                                (2, 1, 0.3, 0.4)]

    def test_rejects_nonpositive(self):
        trace = AdaptiveKTrace(1)
        with pytest.raises(ContractError):
            trace.record(1, 1, 0.0, 0.5)

    def test_rejects_nonfinite(self):
        trace = AdaptiveKTrace(1)
        with pytest.raises(NumericalFailure):
            trace.record(1, 1, np.nan, 0.5)

    @pytest.mark.parametrize("layer", [0, -1, 4])
    def test_rejects_layer_outside_range(self, layer):
        trace = AdaptiveKTrace(3)
        with pytest.raises(ContractError, match="layer"):
            trace.record(layer, 1, 0.5, 0.5)
        assert trace.rows() == []


class TestContinualModel:
    def small(self, style_kw=None, **cfg_kw):
        cfg = dict(L=2, N=4, s=3, m=2, lam=1.0, seed=9)
        cfg.update(cfg_kw)
        config = NetworkConfig(**cfg)
        style = RegStyle(**(style_kw or {"kind": "ridge"}))
        return ContinualModel(config, style)

    def test_observe_matches_manual_steps(self):
        rng = np.random.default_rng(17)
        model = self.small(style_kw={"kind": "kf", "k": 0.5})
        config, weights = model.config, model.weights
        batches = [(rng.standard_normal((4, 3)),
                    np.eye(2)[rng.integers(0, 2, 4)]) for _ in range(3)]

        states = [SubLearnerState.initial(config.feature_dim, 2, 1.0,
                                          model.style)
                  for _ in range(config.L)]
        for i, (X, Y) in enumerate(batches):
            X_next = batches[i + 1][0] if i + 1 < len(batches) else None
            model.observe(X, Y, X_next)
            feats = extract_features(X, weights, config)
            nxt = (extract_features(X_next, weights, config)
                   if X_next is not None else None)
            for j in range(config.L):
                states[j] = step_kf(states[j], feats[j], Y,
                                    nxt[j] if nxt else None)
                assert np.array_equal(model.states[j].theta, states[j].theta)

    def test_t_advances(self):
        rng = np.random.default_rng(1)
        model = self.small()
        assert model.t == 0
        model.observe(rng.standard_normal((2, 3)),
                      np.eye(2)[[0, 1]], None)
        assert model.t == 1

    def test_bayes_traces_every_layer(self):
        rng = np.random.default_rng(2)
        model = self.small(style_kw={"kind": "kf_bayes"})
        X1, X2 = rng.standard_normal((2, 4, 3))
        Y = np.eye(2)[[0, 1], :]
        model.observe(X1, Y[:2].repeat(2, axis=0), X2)
        model.observe(X2, Y[:2].repeat(2, axis=0), None)
        rows = model.k_trace.rows()
        # Every step adapts on every layer; the closing step has
        # k_next = 0.
        assert [(t, layer) for t, layer, _, _ in rows] == [
            (1, 1), (1, 2), (2, 1), (2, 2)]
        assert all(r[3] == 0.0 for r in rows if r[0] == 2)

    def trained(self):
        rng = np.random.default_rng(8)
        model = self.small(L=3, m=3, style_kw={"kind": "kf_bayes"})
        X = rng.standard_normal((3, 6, 3))
        Y = np.eye(3)[rng.integers(0, 3, (3, 6))]
        for t in range(3):
            model.observe(X[t], Y[t], X[t + 1] if t + 1 < 3 else None)
        return model, rng.standard_normal((9, 3))

    def test_per_learner_probs_is_one_stack(self):
        model, X_te = self.trained()
        P = model.per_learner_probs(X_te)
        assert isinstance(P, np.ndarray)
        assert P.shape == (3, 9, 3)
        assert np.allclose(P.sum(axis=2), 1.0, atol=1e-12)
        feats = model.eval_features(X_te)
        assert len(feats) == 3
        assert np.array_equal(P, model.per_learner_probs(eval_feats=feats))
        # The store sums each logit's X part, then its H part, so the
        # one-gemm rule D theta is matched to rounding, not bit for bit.
        for layer, (D, st) in enumerate(zip(feats, model.states)):
            assert np.allclose(P[layer], softmax(D @ st.theta), rtol=1e-12, atol=0)

    def trained_wide(self):
        rng = np.random.default_rng(9)
        model = self.small(L=3, N=40, s=12, m=10, style_kw={"kind": "kf", "k": 0.5})
        X = rng.standard_normal((4, 30, 12))
        Y = np.eye(10)[rng.integers(0, 10, (4, 30))]
        for t in range(4):
            model.observe(X[t], Y[t], X[t + 1] if t + 1 < 4 else None)
        return model, rng.standard_normal((600, 12)) * 3

    def test_read_path_is_class_major(self):
        # The store is one column-major [H_1 | H_2 | H_3 | X] block, so
        # every H_l^T and X^T the logits read is C-contiguous; the stack
        # is an (L, n, m) view of class-major logits, softmaxed over the
        # class axis.
        model, X_te = self.trained_wide()
        feats = model.eval_features(X_te)
        assert feats.block.shape == (600, 3 * 40 + 12)
        assert feats.block.flags.f_contiguous and feats.X.T.flags.c_contiguous
        assert all(feats.hidden(l).T.flags.c_contiguous for l in range(3))
        rows = [fb.D for fb in model._features(X_te, 0)]
        P = model.per_learner_probs(eval_feats=feats)
        assert P.shape == (3, 600, 10)
        assert P.transpose(0, 2, 1).flags.c_contiguous
        for layer, st in enumerate(model.states):
            # The row-major rule softmax(D theta) sums in another order;
            # at this shape it moves the last bit.
            assert np.allclose(P[layer], softmax(rows[layer] @ st.theta),
                               rtol=0, atol=1e-15)

    def test_store_layers_are_the_row_major_layers_bit_for_bit(self):
        # A pin: indexing or iterating the store builds [H_l | X] one
        # layer at a time, byte for byte the D of extract_features.
        model, X_te = self.trained_wide()
        feats = model.eval_features(X_te)
        rows = [fb.D for fb in model._features(X_te, 0)]
        assert len(feats) == len(rows) == 3
        assert [D.tobytes() for D in feats] == [D.tobytes() for D in rows]
        assert all(feats[l].tobytes() == rows[l].tobytes() for l in range(3))

    def test_store_logits_match_the_one_gemm_reference(self):
        # Each logit against [H_l | X] theta_l, the one-gemm rule on the
        # layer's row-major rows, within 1e-12 of the scale |D| |theta| of
        # its dot product: on the whole store, on a gathered store of
        # shuffled rows, and through per_learner_probs(X).
        model, X_te = self.trained_wide()
        thetas = [st.theta for st in model.states]
        rows = [fb.D for fb in model._features(X_te, 0)]
        feats = model.eval_features(X_te)
        picked = np.random.default_rng(10).permutation(600)[:300]
        for store, index in ((feats, slice(None)), (feats.rows(picked), picked)):
            Z = _layer_logits(store, [thetas])[0]
            assert Z.shape == (3, 10, store.n)
            for D, theta, Z_l in zip(rows, thetas, Z):
                want = D[index] @ theta
                scale = np.abs(D[index]) @ np.abs(theta)
                assert np.all(np.abs(Z_l.T - want) <= 1e-12 * scale)
        P = model.per_learner_probs(X_te)
        for layer, (D, theta) in enumerate(zip(rows, thetas)):
            assert np.allclose(P[layer], softmax(D @ theta), rtol=1e-12, atol=0)

    def test_out_buffer_holds_the_stack(self):
        model, X_te = self.trained()
        feats = model.eval_features(X_te)
        want = model.per_learner_probs(eval_feats=feats)
        buf = np.full((3, 3, 9), 7.0)
        got = model.per_learner_probs(eval_feats=feats, out=buf)
        assert np.array_equal(got, want)
        assert got.base is buf and got.shape == (3, 9, 3)
        assert np.array_equal(model.per_learner_probs(X_te, out=buf), want)

    def test_out_buffer_of_another_shape_dtype_or_layout_is_rejected(self):
        model, X_te = self.trained()
        feats = model.eval_features(X_te)
        read_only = np.full((3, 3, 9), 7.0)
        read_only.flags.writeable = False
        bad = [np.full((3, 9, 3), 7.0), np.full((2, 3, 9), 7.0),
               np.full((3, 3, 9), 7.0, dtype=np.float32),
               np.full((3, 3, 9), 7.0, order="F"),
               np.full((3, 3, 18), 7.0)[:, :, ::2], read_only]
        for buf in bad:
            with pytest.raises(ContractError, match="out must be"):
                model.per_learner_probs(eval_feats=feats, out=buf)
            assert np.all(buf == 7.0)

    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_predict_proba_fuses_per_learner_probs(self, mode):
        model, X_te = self.trained()
        expected = fuse_probs(model.per_learner_probs(X_te), mode)
        assert np.array_equal(model.predict_proba(X_te, mode=mode), expected)
        feats = model.eval_features(X_te)
        assert np.array_equal(
            model.predict_proba(mode=mode, eval_feats=feats), expected)

    @pytest.mark.parametrize("read", ["per_learner_probs", "predict_proba"])
    def test_read_without_rows_names_both_parameters(self, read):
        model, _ = self.trained()
        with pytest.raises(ContractError, match="X or eval_feats"):
            getattr(model, read)()

    @pytest.mark.parametrize("read", ["per_learner_probs", "predict_proba"])
    def test_read_with_both_rows_and_store_names_both_parameters(self, read):
        # X would be silently dropped for the store's rows.
        model, X_te = self.trained()
        feats = model.eval_features(X_te[:7])
        with pytest.raises(ContractError, match="X or eval_feats"):
            getattr(model, read)(X_te[:5], eval_feats=feats)

    def test_standardize_freezes_first_batch_stats(self):
        rng = np.random.default_rng(3)
        model = self.small(standardize=True)
        X1 = rng.standard_normal((5, 3)) * 10 + 4
        X2 = rng.standard_normal((5, 3)) * 0.1 - 7
        Y = np.eye(2)[rng.integers(0, 2, 5)]
        model.observe(X1, Y, X2)
        mu, sd = model._norm
        assert np.allclose(mu, X1.mean(axis=0))
        model.observe(X2, Y, None)
        mu2, _ = model._norm
        assert np.array_equal(mu, mu2)

    def test_standardize_needs_an_observed_batch_before_evaluation(self):
        rng = np.random.default_rng(3)
        model = self.small(standardize=True)
        X_te = rng.standard_normal((9, 3)) * 10 + 4
        with pytest.raises(ContractError, match="standardize"):
            model.predict_proba(X_te)
        X1 = rng.standard_normal((5, 3))
        model.observe(X1, np.eye(2)[rng.integers(0, 2, 5)], None)
        assert np.array_equal(model._norm[0], X1.mean(axis=0))
        assert model.predict_proba(X_te).shape == (9, 2)

    def test_observe_rejects_a_batch_other_than_the_cached_next(self):
        rng = np.random.default_rng(6)
        model = self.small()
        X1, X2, X3 = rng.standard_normal((3, 4, 3))
        Y = np.eye(2)[[0, 1, 0, 1]]
        model.observe(X1, Y, X2)
        with pytest.raises(ContractError, match="batch 2"):
            model.observe(X3, Y, None)
        assert model.t == 1
        model.observe(X2.copy(), Y, None)
        assert model.t == 2

    def test_head_failure_names_batch_and_layer(self):
        rng = np.random.default_rng(5)
        model = self.small(style_kw={"kind": "kf_bayes"})
        X = rng.standard_normal((3, 4, 3))
        Y = np.eye(2)[rng.integers(0, 2, (3, 4))]
        Y[1][0, 0] = np.inf
        model.observe(X[0], Y[0], X[1])
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as info:
            model.observe(X[1], Y[1], X[2])
        assert (info.value.batch_index, info.value.layer) == (2, 1)
        assert "batch=2 layer=1" in str(info.value)

    def test_adaptive_k_failure_names_batch_and_layer(self):
        # Only the unlabeled next batch overflows, so the absorb of the
        # current batch succeeds and k_next's projection fails.
        model = self.small(style_kw={"kind": "kf_bayes"})
        Y = np.eye(2)[[0, 1, 0, 1]]
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as info:
            model.observe(np.ones((4, 3)), Y, np.full((4, 3), 1e170))
        assert "projected covariance" in str(info.value)
        assert (info.value.batch_index, info.value.layer) == (1, 1)

    @pytest.mark.parametrize("fast_k, batch, standardize", [
        (None, 2, False), ("random_pick", 2, False), (None, 1, True)])
    def test_failed_observe_commits_no_layer(self, monkeypatch, fast_k, batch,
                                             standardize):
        # A failure forced in layer 2 of the batch leaves layer 1 unstepped
        # too, with no k-trace row, no fast-k draw and no z-scores kept, so
        # a retry of the batch equals an uninterrupted run bit for bit.
        from rvflstream import learners

        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 5, 3)) * 3 + 1
        Y = np.eye(2)[rng.integers(0, 2, (4, 5))]

        def build():
            return self.small(L=3, standardize=standardize, style_kw={
                "kind": "kf_bayes", "fast_k": fast_k})

        def observe(model, batches):
            for t in batches:
                model.observe(X[t], Y[t], X[t + 1] if t + 1 < len(X) else None)

        want = build()
        observe(want, range(len(X)))
        model = build()
        observe(model, range(batch - 1))
        states, rows = list(model.states), model.k_trace.rows()
        step = learners._step

        def failing(state, D_t, *args, **kwargs):
            if D_t.layer == 2:
                raise NumericalFailure("forced")
            return step(state, D_t, *args, **kwargs)

        monkeypatch.setattr(learners, "_step", failing)
        with pytest.raises(NumericalFailure):
            observe(model, [batch - 1])
        assert len(model.states) == len(states)
        assert all(got is kept for got, kept in zip(model.states, states))
        assert model.k_trace.rows() == rows
        if batch == 1:
            assert model._norm is None
        monkeypatch.setattr(learners, "_step", step)
        observe(model, range(batch - 1, len(X)))

        assert model.k_trace.rows() == want.k_trace.rows()
        for got, kept in zip(model.states, want.states):
            assert got.t == kept.t == len(X)
            for name in ("theta", "q", "base", "rows"):
                assert getattr(got, name).tobytes() == getattr(kept, name).tobytes()

    def test_predict_proba_shape(self):
        rng = np.random.default_rng(4)
        model = self.small()
        Y = np.eye(2)[rng.integers(0, 2, 6)]
        model.observe(rng.standard_normal((6, 3)), Y, None)
        P = model.predict_proba(rng.standard_normal((9, 3)))
        assert P.shape == (9, 2)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


class TestStackedHeadSets:
    # K head sets scored in one pass over the store, against K calls with
    # one set each. OpenBLAS rounds an entry of a product by the shape of
    # the whole product at some sizes: on a column-major store whose row
    # count is a multiple of 8, as the runner's store of the benchmark's
    # 10 000 rows is, a stacked set keeps the bits it has alone; at
    # n = 1 and 257 and on a gathered store some entries move in the
    # last bits with K (see _layer_logits).

    def sets(self, L, m, n, gathered):
        rng = np.random.default_rng(31 * L + m + n)
        N, s = 40, 12
        store = FeatureStore(np.asfortranarray(rng.standard_normal((n, L * N + s))),
                             L, N)
        heads = [[rng.standard_normal((N + s, m)) for _ in range(L)]
                 for _ in range(4)]
        return (store.rows(rng.permutation(n)) if gathered else store), heads

    @pytest.mark.parametrize("n", [0, 600, 2048])
    @pytest.mark.parametrize("m", [2, 10])
    @pytest.mark.parametrize("L", [1, 3])
    def test_k_sets_equal_one_set_calls_bit_for_bit(self, L, m, n):
        # A pin: logits and probabilities, byte for byte.
        store, heads = self.sets(L, m, n, gathered=False)
        alone = [_layer_logits(store, [thetas])[0] for thetas in heads]
        probs = [_layer_probs(store, [thetas])[0] for thetas in heads]
        for K in range(1, 5):
            Z = _layer_logits(store, heads[:K])
            P = _layer_probs(store, heads[:K])
            assert Z.shape == (K, L, m, n) and P.shape == (K, L, n, m)
            for k in range(K):
                assert Z[k].tobytes() == alone[k].tobytes()
                assert P[k].tobytes() == probs[k].tobytes()

    @pytest.mark.parametrize("gathered", [False, True])
    @pytest.mark.parametrize("n", [1, 257, 600])
    @pytest.mark.parametrize("m", [2, 10])
    @pytest.mark.parametrize("L", [1, 3])
    def test_k_sets_match_one_set_calls_to_rounding(self, L, m, n, gathered):
        # Every shape, within 1e-12 of the scale |D| |theta| of each dot
        # product, the bound the one-gemm reference is held to.
        store, heads = self.sets(L, m, n, gathered)
        D = [store[l] for l in range(L)]
        for K in range(1, 5):
            Z = _layer_logits(store, heads[:K])
            for k in range(K):
                alone = _layer_logits(store, [heads[k]])[0]
                for Dl, theta, Z_kl, want in zip(D, heads[k], Z[k], alone):
                    scale = (np.abs(Dl) @ np.abs(theta)).T
                    assert np.all(np.abs(Z_kl - want) <= 1e-12 * scale)


class TestReadPathAllocations:
    def test_prepared_evaluation_allocates_less_than_one_stack(self):
        # With the logits buffer and the targets built once, as the runner
        # does, an evaluation holds no (L, m, n) array of its own.
        rng = np.random.default_rng(12)
        L, m, n = 3, 10, 4000
        model = ContinualModel(NetworkConfig(L=L, N=64, s=16, m=m, seed=1),
                               RegStyle(kind="ridge"))
        X = rng.standard_normal((2, 40, 16))
        Y = np.eye(m)[rng.integers(0, m, (2, 40))]
        model.observe(X[0], Y[0], X[1])
        model.observe(X[1], Y[1], None)
        feats = model.eval_features(rng.standard_normal((n, 16)))
        buf = np.empty((L, m, n))
        targets = Targets(np.eye(m)[rng.integers(0, m, n)])

        def evaluate():
            return targets.score(model.per_learner_probs(eval_feats=feats, out=buf))

        want = evaluate()
        got, peak = _traced_peak(evaluate)
        assert peak < L * m * n * 8, f"peak {peak / (L * m * n * 8):.2f} stacks"
        assert (got.regret, got.kl) == (want.regret, want.kl)
        assert np.array_equal(got.hits, want.hits)

    def test_store_holds_the_input_once(self):
        # n (L N + s) doubles for the store, and beyond it what one row
        # block's forward pass holds: L separate [H_l | X] would hold
        # n L (N + s), the input L times.
        n, s, N, L = 10_000, 64, 128, 3
        config = NetworkConfig(L=L, N=N, s=s, m=10, seed=2)
        model = ContinualModel(config, RegStyle(kind="ridge"))
        X = np.random.default_rng(2).standard_normal((n, s))
        _, block = _traced_peak(
            lambda: extract_features(X[:BLOCK_ROWS + 1], model.weights, config))
        feats, peak = _traced_peak(lambda: model.eval_features(X))
        store = n * (L * N + s) * 8
        assert feats.block.nbytes == store
        assert peak < store + block, (
            f"{(peak - store) / block:.2f} row blocks beyond the store")


def baseline_inputs(config, test):
    """A fresh model, the test targets and the stored test features, as
    the runner hands them to fit_baseline."""
    model = ContinualModel(config, RegStyle(kind="ridge"))
    return model, Targets(one_hot(test.y, config.m)), model.eval_features(test.X)


class TestBaselines:
    def setup_method(self):
        train, test = make_gaussian_dataset(
            classes=4, dims=5, separation=4.0, samples=25, test_samples=10,
            seed=20,
        )
        perm = [0, 1, 2, 3]
        self.tasks = []
        for q in range(2):
            cls = perm[2 * q: 2 * q + 2]
            rows = np.isin(train.y, cls)
            self.tasks.append(Task(train.X[rows], train.y[rows], tuple(cls)))
        self.test = test
        self.config = NetworkConfig(L=2, N=8, s=5, m=4, lam=1.0, seed=5)

    def fit(self, test=None):
        test = self.test if test is None else test
        return fit_baseline(self.tasks, *baseline_inputs(self.config, test))

    def test_offline_dominates(self):
        res = self.fit()["offline"]
        assert res.accuracy > 0.9

    def test_separate_scores_own_tasks(self):
        res = self.fit()["separate"]
        assert res.per_task_accuracy.shape == (2,)
        assert np.all(res.per_task_accuracy > 0.9)

    def test_non_incremental_forgets_later_tasks(self):
        res = self.fit()["non_incremental"]
        assert res.per_task_accuracy[0] > 0.9
        # Never saw task 2's classes; at most chance there.
        assert res.per_task_accuracy[1] <= 0.5

    def test_fine_tune_tracks_last_task(self):
        res = self.fit()["fine_tune"]
        assert res.per_task_accuracy[-1] > 0.9

    def test_given_test_features_are_not_extracted_again(self, monkeypatch):
        # Only the task pools meet the backbone, each once (offline reuses
        # their features), and the caller's targets score every baseline.
        from rvflstream import learners, metrics

        model, targets, feats = baseline_inputs(self.config, self.test)
        extract, rows = learners.extract_features, []
        init, built = metrics.Targets.__init__, []

        def counted(X, *args, **kwargs):
            rows.append(len(X))
            return extract(X, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(learners, "extract_features", counted)
        monkeypatch.setattr(metrics.Targets, "__init__", counted_init)
        results = fit_baseline(self.tasks, model, targets, feats)
        assert sorted(rows) == sorted(len(tk.y) for tk in self.tasks)
        assert built == []
        assert list(results) == list(BASELINE_KINDS)
        assert [res.kind for res in results.values()] == list(BASELINE_KINDS)
        with pytest.raises(ContractError, match="test_feats"):
            fit_baseline(self.tasks, model, targets, [D[:-1] for D in feats])

    def test_separate_experts_score_each_test_row_once(self, monkeypatch):
        # Each expert gathers its task's test rows out of the store a row
        # block at a time, one gather of [H_1 | ... | H_L | X] a block:
        # every row once, and no other row.
        from rvflstream.network import FeatureStore

        tasks, test = self._shuffled_pairs(6, 8, 1.0, 30, 300, seed=21)
        config = NetworkConfig(L=2, N=16, s=8, m=6, lam=1e-3, seed=6)
        inputs = baseline_inputs(config, test)
        gather, gathered = FeatureStore.rows, []

        def recorded(store, index):
            gathered.append(np.asarray(index))
            return gather(store, index)

        monkeypatch.setattr(FeatureStore, "rows", recorded)
        fit_baseline(tasks, *inputs)
        task_rows = [np.flatnonzero(np.isin(test.y, tk.classes)) for tk in tasks]
        assert [len(b) for b in gathered] == [
            len(blk) for rows in task_rows for blk in
            (range(len(rows))[s] for s in row_blocks(len(rows)))]
        assert np.array_equal(np.concatenate(gathered), np.concatenate(task_rows))

    def test_task_without_test_rows_is_a_contract_error(self):
        test = LabeledDataset(self.test.X[self.test.y < 2],
                              self.test.y[self.test.y < 2], 4)
        with pytest.raises(ContractError, match="empty test set"):
            self.fit(test)

    def test_one_call_extracts_test_set_and_each_pool_once(self, monkeypatch):
        # The runner's path: the model stores the test features once, and
        # one fit_baseline call runs each task's pool through the same
        # backbone once; offline reuses the pools' features, so no stacked
        # pool is extracted.
        from rvflstream import learners

        extract, rows = learners.extract_features, []

        def counted(X, *args, **kwargs):
            rows.append(len(X))
            return extract(X, *args, **kwargs)

        monkeypatch.setattr(learners, "extract_features", counted)
        results = self.fit()
        assert len(rows) == len(self.tasks) + 1
        assert list(results) == list(BASELINE_KINDS)
        assert [res.kind for res in results.values()] == list(BASELINE_KINDS)
        pools = [len(tk.y) for tk in self.tasks]
        assert sorted(rows) == sorted([len(self.test.y), *pools])

    @staticmethod
    def _shuffled_pairs(classes, dims, separation, samples, test_samples, seed):
        # Tasks of two classes each, and a test set whose rows are
        # shuffled, so that every task's rows fall in every row block.
        train, test = make_gaussian_dataset(
            classes=classes, dims=dims, separation=separation, samples=samples,
            test_samples=test_samples, seed=seed)
        perm = np.random.default_rng(seed).permutation(len(test.y))
        test = LabeledDataset(test.X[perm], test.y[perm], test.m)
        tasks = []
        for cls in np.arange(classes).reshape(-1, 2):
            rows = np.isin(train.y, cls)
            tasks.append(Task(train.X[rows], train.y[rows], tuple(cls)))
        return tasks, test

    def test_single_pass_matches_the_per_pool_reference(self, monkeypatch):
        # The reference: offline_kf_fit per pool and over all pools, and
        # each expert scored on a copy of its task's test rows.
        from rvflstream import learners

        # 300 test rows a class: each expert scores its 600 rows in blocks.
        tasks, test = self._shuffled_pairs(6, 8, 1.0, 30, 300, seed=21)
        config = NetworkConfig(L=2, N=16, s=8, m=6, lam=1e-3, seed=6)
        inputs = baseline_inputs(config, test)
        solve, solved = learners._solve_terms, []

        def recorded(gram, cross):
            sol = solve(gram, cross)
            solved.append(sol.theta)
            return sol

        monkeypatch.setattr(learners, "_solve_terms", recorded)
        got = fit_baseline(tasks, *inputs)

        weights = init_random_weights(config)
        feats = [fb.D for fb in extract_features(test.X, weights, config)]
        pools = [(extract_features(tk.X, weights, config), one_hot(tk.y, config.m))
                 for tk in tasks]

        def heads(group):
            return [offline_kf_fit([(fs[l].D, Y) for fs, Y in group], None, 0.0, lam).theta
                    for l, lam in enumerate(config.lambdas)]

        experts = [heads([pool]) for pool in pools]
        pooled = heads(pools)
        want_thetas = [theta for ex in experts for theta in ex] + pooled
        assert len(solved) == len(want_thetas)
        assert all(np.array_equal(a, b) for a, b in zip(solved, want_thetas))

        y = test.y
        task_rows = [np.isin(y, tk.classes) for tk in tasks]

        def scored(thetas):
            hit = ensemble_classes(feats, thetas) == y
            return float(np.mean(hit)), np.array([np.mean(hit[rows]) for rows in task_rows])

        own = np.array([
            np.mean(ensemble_classes([D[rows] for D in feats], ex,
                                     class_mask=np.asarray(tk.classes)) == y[rows])
            for ex, rows, tk in zip(experts, task_rows, tasks)])
        want = {"offline": scored(pooled),
                "separate": (float(own.mean()), own),
                "fine_tune": scored(experts[-1]),
                "non_incremental": scored(experts[0])}
        assert 0.5 < want["offline"][0] < 1.0 and 0.5 < own.min() < 1.0
        for kind in BASELINE_KINDS:
            assert got[kind].accuracy == want[kind][0]
            assert np.array_equal(got[kind].per_task_accuracy, want[kind][1])

    def test_given_test_features_peak_below_a_quarter_layer_beyond_the_logits(self):
        # fit_baseline builds nothing test-sized but the (L, m, n) logits
        # of a full-test score and their fused (n, m) mean; Grams, heads
        # and one pool's features stay under a quarter of one stored layer
        # here. Copying each task's test rows out of the store, L/Q = 0.6
        # layer, breaks the bound.
        L, m, s, N = 3, 10, 32, 128
        tasks, test = self._shuffled_pairs(m, s, 2.0, 20, 1000, seed=22)
        config = NetworkConfig(L=L, N=N, s=s, m=m, seed=7)
        inputs = baseline_inputs(config, test)
        n, d = len(test.y), config.feature_dim
        _, peak = _traced_peak(lambda: fit_baseline(tasks, *inputs))
        logits = (L + 1) * m * n * 8
        assert peak < logits + n * d * 8 / 4, (
            f"{(peak - logits) / (n * d * 8):.2f} layers beyond the logits")
