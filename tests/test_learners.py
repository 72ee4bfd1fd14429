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
    compute_adaptive_k,
    fit_baseline,
    step_kf,
    step_kf_bayes,
    step_ridge,
)
from rvflstream.network import (
    NetworkConfig,
    extract_features,
    fuse_probs,
    init_random_weights,
    softmax,
)
from rvflstream.solvers import offline_kf_fit, offline_ridge_fit
from rvflstream.stream import Task, make_gaussian_dataset


def fresh_state(d=3, m=2, lam=1.0, **style_kw):
    style = RegStyle(**style_kw)
    return SubLearnerState.initial(d, m, lam, style)


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


class TestInitialState:
    def test_zero_weights_and_scaled_identity_rate(self):
        state = fresh_state(d=4, m=3, lam=2.0, kind="ridge")
        assert np.array_equal(state.theta, np.zeros((4, 3)))
        assert np.array_equal(state.eta_dag, np.eye(4) / 2.0)
        assert state.eta is None
        assert state.t == 0


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
        rng = np.random.default_rng(13)
        d, m, b = 3, 2, 2
        ridge = fresh_state(d=d, m=m, kind="ridge")
        kf = fresh_state(d=d, m=m, kind="kf", k=0.0)
        stream = random_stream(rng, 5, b, d, m)
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < len(stream) else None
            ridge = step_ridge(ridge, D, Y)
            kf = step_kf(kf, D, Y, D_next)
            assert np.array_equal(ridge.theta, kf.theta)

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

    def test_final_step_without_next_is_ridge(self):
        state = fresh_state(d=2, m=1, kind="kf", k=5.0)
        D = np.array([[1.0, 2.0]])
        Y = np.array([[1.0]])
        stepped = step_kf(state, D, Y, None)
        ref = offline_ridge_fit(D, Y, 1.0).theta
        assert np.allclose(stepped.theta, ref, rtol=1e-12)


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

    def test_override_bypasses_adaptation(self):
        # Forcing (k, k) must reproduce the constant-k step bitwise.
        rng = np.random.default_rng(55)
        d, m, b, k = 3, 2, 2, 0.8
        bayes = fresh_state(d=d, m=m, kind="kf_bayes")
        const = fresh_state(d=d, m=m, kind="kf", k=k)
        stream = random_stream(rng, 4, b, d, m)
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < len(stream) else None
            override = (k, k) if D_next is not None else (k, 0.0)
            bayes, pair = step_kf_bayes(bayes, D, Y, D_next,
                                        k_override=override)
            const = step_kf(const, D, Y, D_next)
            assert pair is None
            assert np.array_equal(bayes.theta, const.theta)

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


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


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
    """Record the learners' woodbury_update calls and _minus_gram writes."""
    from rvflstream import learners

    calls, writes = [], []
    for name, log in (("woodbury_update", calls), ("_minus_gram", writes)):
        def counted(*args, _inner=getattr(learners, name), _log=log, **kwargs):
            _log.append(args[0].shape)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(learners, name, counted)
    return calls, writes


class TestImplicitForwardRate:
    @pytest.mark.parametrize("style_kw", [
        {},
        {"init_mode": "paper_strict"},
        {"fast_k": "trace_only"},
    ])
    def test_matches_dense_replay(self, style_kw, monkeypatch):
        # The adaptive step applies the complete rate implicitly and
        # absorbs only D_t; replaying its pairs through k_override takes
        # the dense form with a second Woodbury. Both must agree at
        # every step, the closing step (no D_next) included.
        rng = np.random.default_rng(71)
        d, m, b, T = 10, 3, 4, 24
        calls, writes = _count_dxd_work(monkeypatch)
        stream = random_stream(rng, T, b, d, m)
        adaptive = fresh_state(d=d, m=m, kind="kf_bayes", **style_kw)
        dense = fresh_state(d=d, m=m, kind="kf_bayes", **style_kw)
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            calls.clear()
            writes.clear()
            adaptive, pair = step_kf_bayes(adaptive, D, Y, D_next)
            skipped = i == 0 and style_kw.get("init_mode") == "paper_strict"
            # d=10 carries no rows at b=4: the absorb is the one write.
            assert calls == []
            assert len(writes) == (0 if skipped else 1), f"step {i + 1}"
            dense, _ = step_kf_bayes(dense, D, Y, D_next, k_override=pair)
            assert _rel(adaptive.theta, dense.theta) <= 1e-9, f"step {i + 1}"
            assert _rel(adaptive.eta, dense.eta) <= 1e-9, f"step {i + 1}"
        assert pair[1] == 0.0


class TestAdaptivePairFromProjections:
    @pytest.mark.parametrize("style_kw", [
        {},
        {"init_mode": "paper_strict"},
        {"fast_k": "trace_only"},
        {"fast_k": "random_pick"},
    ])
    def test_pairs_follow_rule_on_new_eta_dag(self, style_kw):
        # The adaptive step takes both k from the projections its absorb
        # returns; they must equal the clamped rule applied afresh to
        # the eta_dag the step leaves behind (d spans two panels).
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

        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            state, (k_cur, k_next) = step_kf_bayes(state, D, Y, D_next,
                                                   rng=step_rng)
            assert k_cur == pytest.approx(rule(D), rel=1e-10), f"step {i + 1}"
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
        dense = fresh_state(d=d, m=m, kind="kf_bayes", init_mode=init_mode)
        flushes = 0
        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            prev = adaptive
            adaptive, pair = step_kf_bayes(adaptive, D, Y, D_next)
            dense, _ = step_kf_bayes(dense, D, Y, D_next, k_override=pair)
            if i > 0 and len(adaptive.rows) == 0:
                flushes += 1
                assert np.array_equal(adaptive.base, adaptive.base.T)
            elif i > 0:
                # Without a flush the base is kept and the rows appended.
                assert adaptive.base is prev.base, f"step {i + 1}"
                assert len(adaptive.rows) == len(prev.rows) + len(D)
                assert np.array_equal(adaptive.rows[:len(prev.rows)], prev.rows)
            assert _rel(adaptive.theta, dense.theta) <= 1e-9, f"step {i + 1}"
            assert _rel(adaptive.eta_dag, dense.eta_dag) <= 1e-9, f"step {i + 1}"
            assert _rel(adaptive.eta, dense.eta) <= 1e-9, f"step {i + 1}"
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
                             state.eta_dag.copy(), state.eta.copy()))
        assert state.t == 11 and len(state.rows) == 3 * b  # flushed at t=8
        branch, _ = step_kf_bayes(kept[0][0], *stream[5], stream[6][0])
        again, _ = step_kf_bayes(kept[0][0], *stream[5], stream[6][0])
        assert np.array_equal(branch.theta, again.theta)
        for st, theta, rows, eta_dag, eta in kept:
            assert np.array_equal(st.theta, theta)
            assert np.array_equal(st.rows, rows)
            assert np.array_equal(st.eta_dag, eta_dag)
            assert np.array_equal(st.eta, eta)

    def test_model_flushes_at_most_one_layer_per_observe(self, monkeypatch):
        from rvflstream import learners

        minus_gram, calls = learners._minus_gram, []

        def counted(*args, **kwargs):
            calls.append(1)
            return minus_gram(*args, **kwargs)

        monkeypatch.setattr(learners, "_minus_gram", counted)
        rng = np.random.default_rng(76)
        # d = s + N = 640 carries up to 160 rows, a period of 8 at b=20.
        config = NetworkConfig(L=3, N=630, s=10, m=3, lam=1.0, seed=4)
        model = ContinualModel(config, RegStyle(kind="kf_bayes"))
        T, b = 30, 20
        X = rng.standard_normal((T, b, 10))
        Y = np.eye(3)[rng.integers(0, 3, (T, b))]
        per_observe = []
        for t in range(T):
            calls.clear()
            model.observe(X[t], Y[t], X[t + 1] if t + 1 < T else None)
            per_observe.append(len(calls))
        assert max(per_observe) == 1
        # Layer l flushes at t = l mod 8: batches 1-3, 9-11, 17-19, 25-27.
        assert sum(per_observe) == 12

    def test_non_flush_step_builds_no_dxd_array(self):
        # A step without a flush allocates no d x d array: besides b x d
        # temporaries, only the new copy of its carried rows grows with
        # the period.
        rng = np.random.default_rng(82)
        d, m, b = 400, 10, 20
        stream = random_stream(rng, 8, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes")
        for i in range(_carry_cap(d) // b - 1):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                new, _ = step_kf_bayes(state, *stream[i], stream[i + 1][0])
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert len(new.rows) == len(state.rows) + b, f"step {i + 1} flushed"
            if i == 1:
                assert peak <= 0.5 * d * d * 8, f"peak {peak / (d * d * 8):.2f} x d^2"
            assert peak - new.rows.nbytes <= 0.5 * d * d * 8, f"step {i + 1}"
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

    def test_indefinite_inner_system_builds_matrix_and_drops_rows(self, monkeypatch):
        # base - rows^T rows = -I makes S indefinite: the absorb hands the
        # built matrix to the dense Woodbury, whose least squares fallback
        # runs once, and carries no rows.
        from rvflstream import learners, solvers

        ldl, calls = solvers._ldl_solve, []

        def counted(A, B):
            calls.append(A.shape)
            return ldl(A, B)

        monkeypatch.setattr(solvers, "_ldl_solve", counted)
        d, b = 300, 4
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((6, d)) / np.sqrt(d)
        state = dataclasses.replace(fresh_state(d=d, m=2, kind="kf_bayes"),
                                    base=-np.eye(d) + rows.T @ rows, rows=rows,
                                    t=1)
        D = rng.standard_normal((b, d))
        base, new_rows, after, _ = learners._adaptive_absorb(
            state, D, None, 2, None, True, None)
        assert calls == [(b, b)]
        assert new_rows.shape == (0, d)
        assert np.array_equal(base, base.T)
        direct = np.linalg.inv(-np.eye(d) + D.T @ D)
        assert np.linalg.norm(base - direct) <= 1e-9 * np.linalg.norm(direct)
        assert np.linalg.norm(after - D @ direct) <= 1e-9 * np.linalg.norm(D @ direct)

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


class TestPreviousCompleteSource:
    def test_one_absorb_per_step_on_the_parent_rule(self, monkeypatch):
        # k comes from the previous complete rate, taken from the absorb's
        # product and the forward rows the previous step kept: no
        # Woodbury call and at most one d x d write (the flush). The
        # reference builds that rate with the dense chain.
        from rvflstream.solvers import woodbury_update as woodbury

        calls, writes = _count_dxd_work(monkeypatch)
        rng = np.random.default_rng(75)
        d, m, b, T = 150, 3, 16, 25
        stream = random_stream(rng, T, b, d, m)
        state = fresh_state(d=d, m=m, kind="kf_bayes",
                            k_source="previous_complete")
        dense = fresh_state(d=d, m=m, kind="kf_bayes",
                            k_source="previous_complete")
        style = state.style

        def rule(block, eta):
            k = compute_adaptive_k(block, eta, style.kappa, style.sigma)
            return float(np.clip(k, K_CLAMP_LO, K_CLAMP_HI))

        for i, (D, Y) in enumerate(stream):
            D_next = stream[i + 1][0] if i + 1 < T else None
            basis = dense.eta if dense.t else woodbury(dense.eta_dag, D, 1.0)
            calls.clear()
            writes.clear()
            state, (k_cur, k_next) = step_kf_bayes(state, D, Y, D_next)
            assert calls == [], f"step {i + 1}"
            assert len(writes) <= 1, f"step {i + 1}"
            assert k_cur == pytest.approx(rule(D, basis), rel=1e-10), f"step {i + 1}"
            want = 0.0 if D_next is None else rule(D_next, basis)
            assert k_next == pytest.approx(want, rel=1e-10), f"step {i + 1}"
            dense, _ = step_kf_bayes(dense, D, Y, D_next,
                                     k_override=(k_cur, k_next))


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
        res = fit_baseline(tasks, test, config)["offline"]
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
        assert np.array_equal(P, model.per_learner_probs(eval_feats=feats))
        for layer, (D, st) in enumerate(zip(feats, model.states)):
            assert np.array_equal(P[layer], softmax(D @ st.theta))

    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_predict_proba_fuses_per_learner_probs(self, mode):
        model, X_te = self.trained()
        expected = fuse_probs(model.per_learner_probs(X_te), mode)
        assert np.array_equal(model.predict_proba(X_te, mode=mode), expected)
        feats = model.eval_features(X_te)
        assert np.array_equal(
            model.predict_proba(mode=mode, eval_feats=feats), expected)

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

    def test_predict_proba_shape(self):
        rng = np.random.default_rng(4)
        model = self.small()
        Y = np.eye(2)[rng.integers(0, 2, 6)]
        model.observe(rng.standard_normal((6, 3)), Y, None)
        P = model.predict_proba(rng.standard_normal((9, 3)))
        assert P.shape == (9, 2)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


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

    def test_offline_dominates(self):
        res = fit_baseline(self.tasks, self.test, self.config)["offline"]
        assert res.accuracy > 0.9

    def test_separate_scores_own_tasks(self):
        res = fit_baseline(self.tasks, self.test, self.config)["separate"]
        assert res.per_task_accuracy.shape == (2,)
        assert np.all(res.per_task_accuracy > 0.9)

    def test_non_incremental_forgets_later_tasks(self):
        res = fit_baseline(self.tasks, self.test, self.config)["non_incremental"]
        assert res.per_task_accuracy[0] > 0.9
        # Never saw task 2's classes; at most chance there.
        assert res.per_task_accuracy[1] <= 0.5

    def test_fine_tune_tracks_last_task(self):
        res = fit_baseline(self.tasks, self.test, self.config)["fine_tune"]
        assert res.per_task_accuracy[-1] > 0.9

    def test_one_call_extracts_test_set_and_each_pool_once(self, monkeypatch):
        from rvflstream import learners

        extract, rows = learners.extract_features, []

        def counted(X, *args, **kwargs):
            rows.append(len(X))
            return extract(X, *args, **kwargs)

        monkeypatch.setattr(learners, "extract_features", counted)
        results = fit_baseline(self.tasks, self.test, self.config)
        assert len(rows) == len(self.tasks) + 2
        assert list(results) == list(BASELINE_KINDS)
        assert [res.kind for res in results.values()] == list(BASELINE_KINDS)
        # The test set, each task's pool, and the stacked pool for offline.
        pools = [len(tk.y) for tk in self.tasks]
        assert sorted(rows) == sorted([len(self.test.y), *pools, sum(pools)])
