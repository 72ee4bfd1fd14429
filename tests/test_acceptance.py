"""End-to-end acceptance checks for the package's advertised guarantees.

Each test stands for one contract: online/offline equivalence of the
recursion, the constant-k degenerations, the rank-b inverse update, the
telescoping structure of the weight updates, the adaptive gain formula,
the metric definitions, the qualitative ordering of the regularization
styles on a cluster stream, the optional pixel-stream run, and the
constant per-batch cost. Tolerances are part of the contract and are
asserted as stated, never loosened to make a run pass.
"""

import gzip
import os
import shutil
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from rvflstream.learners import (
    ContinualModel,
    RegStyle,
    SubLearnerState,
    compute_adaptive_k,
    step_kf,
    step_kf_bayes,
    step_ridge,
)
from rvflstream.metrics import (
    AccuracyMatrix,
    compute_acc,
    compute_bwt,
    compute_fwt,
    immediate_accuracy,
    immediate_kl,
    immediate_regret,
)
from rvflstream.network import NetworkConfig, extract_features, init_random_weights
from rvflstream.errors import ContractError
from rvflstream.runner import run_experiment, validate_config, with_seed_offset
from rvflstream.solvers import offline_kf_fit, woodbury_update
from rvflstream.stream import one_hot


def _random_batches(rng, T, b, d, m):
    """T labeled feature batches with every class present overall."""
    out = []
    for _ in range(T):
        D = rng.standard_normal((b, d))
        y = rng.integers(0, m, size=b)
        out.append((D, one_hot(y, m)))
    return out


def _rel_err(got, want):
    denom = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(got - want)) / denom


# ---------------------------------------------------------------------------
# 1. The forward-regularized recursion never drifts from the offline fit.
# ---------------------------------------------------------------------------

def test_online_recursion_matches_offline_fit_at_every_step():
    """Recursive per-layer weights equal the closed-form batch solution.

    Streams run through the full random backbone (L=3, N=16) for input
    widths at both ends of the supported range, with the forward weight
    k swept over {0, 0.5, 1, 2}. At every step t the recursive head of
    every layer must match the offline fit on all batches seen so far
    (with the same forward term), to a relative 1e-8. The whole sweep
    must stay under five seconds.
    """
    start = time.perf_counter()
    b, T, lam = 5, 30, 1.0
    m = 4
    worst = 0.0
    for s in (8, 24):
        config = NetworkConfig(L=3, N=16, s=s, m=m, activation="relu", lam=lam, seed=7)
        weights = init_random_weights(config)
        rng = np.random.default_rng(1000 + s)
        raw = _random_batches(rng, T, b, s, m)
        # Per-layer feature matrices, computed once for the whole stream.
        feats = [[fb.D for fb in extract_features(X, weights, config, t=i)]
                 for i, (X, _) in enumerate(raw)]
        for k in (0.0, 0.5, 1.0, 2.0):
            style = RegStyle(kind="kf", k=k, init_mode="theorem")
            for layer in range(config.L):
                d = feats[0][layer].shape[1]
                state = SubLearnerState.initial(d, m, lam, style)
                seen = []
                for t in range(T):
                    D_t = feats[t][layer]
                    Y_t = raw[t][1]
                    D_next = feats[t + 1][layer] if t + 1 < T else None
                    state = step_kf(state, D_t, Y_t, D_next)
                    seen.append((D_t, Y_t))
                    ref = offline_kf_fit(seen, D_next, k, lam)
                    worst = max(worst, _rel_err(state.theta, ref.theta))
                    assert _rel_err(state.theta, ref.theta) <= 1e-8, (
                        f"s={s} k={k} layer={layer} step={t + 1}"
                    )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"offline-equivalence sweep took {elapsed:.2f}s"
    assert worst <= 1e-8


def test_adaptive_recursion_matches_offline_fit_at_every_step():
    """The adaptive head is the closed-form fit with its own forward weight.

    The same backbone streams as above (L=3, N=16, lam=1) run kf_bayes
    in both init modes, with both k sources and every k rule. At every
    step t the head of every layer must equal
    offline_kf_fit(seen, D_next, k_next_t, lam), with k_next_t the
    forward weight the step recorded, to a relative 1e-8: no earlier
    weight lingers in it. In paper_strict mode eta_dag never absorbs the
    first batch, and neither does the head: seen holds batches 2..t,
    and the head after batch 1 is zero.
    """
    b, T, lam = 5, 30, 1.0
    m = 4
    worst = 0.0
    for s in (8, 24):
        config = NetworkConfig(L=3, N=16, s=s, m=m, activation="relu", lam=lam, seed=7)
        weights = init_random_weights(config)
        rng = np.random.default_rng(1000 + s)
        raw = _random_batches(rng, T, b, s, m)
        feats = [[fb.D for fb in extract_features(X, weights, config, t=i)]
                 for i, (X, _) in enumerate(raw)]
        for init_mode in ("theorem", "paper_strict"):
            for k_source in ("pseudo", "previous_complete"):
                for fast_k in (None, "trace_only", "random_pick"):
                    style = RegStyle(kind="kf_bayes", init_mode=init_mode,
                                     k_source=k_source, fast_k=fast_k)
                    for layer in range(config.L):
                        d = feats[0][layer].shape[1]
                        state = SubLearnerState.initial(d, m, lam, style)
                        pick = np.random.default_rng(layer)
                        seen = []
                        for t in range(T):
                            D_t = feats[t][layer]
                            Y_t = raw[t][1]
                            D_next = feats[t + 1][layer] if t + 1 < T else None
                            state, (_, k_next) = step_kf_bayes(
                                state, D_t, Y_t, D_next, rng=pick)
                            where = (f"s={s} {init_mode} {k_source} {fast_k} "
                                     f"layer={layer} step={t + 1}")
                            if t == 0 and init_mode == "paper_strict":
                                assert not state.theta.any(), where
                                continue
                            seen.append((D_t, Y_t))
                            ref = offline_kf_fit(seen, D_next, k_next, lam)
                            err = _rel_err(state.theta, ref.theta)
                            worst = max(worst, err)
                            assert err <= 1e-8, where
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 2. Constant-k extremes reduce to the two known update forms.
# ---------------------------------------------------------------------------

def test_constant_k_extremes_reduce_to_known_forms():
    """k=0 reproduces plain recursive ridge; k=1 the pure-forward form.

    Fifty random cases each. The k=0 chain must agree with step_ridge
    within 1e-12 absolutely at every step; the k=1 chain must agree
    exactly (bit for bit) with an independently written recursion whose
    drift is the next batch's Gram alone.
    """
    rng = np.random.default_rng(42)
    for case in range(50):
        d = int(rng.integers(2, 13))
        b = int(rng.integers(1, 7))
        m = int(rng.integers(2, 6))
        T = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.1, 3.0))
        batches = _random_batches(rng, T, b, d, m)

        zero = SubLearnerState.initial(d, m, lam, RegStyle(kind="kf", k=0.0))
        plain = SubLearnerState.initial(d, m, lam, RegStyle(kind="ridge"))
        for t in range(T):
            D, Y = batches[t]
            D_next = batches[t + 1][0] if t + 1 < T else None
            zero = step_kf(zero, D, Y, D_next)
            plain = step_ridge(plain, D, Y)
            gap = float(np.max(np.abs(zero.theta - plain.theta)))
            assert gap <= 1e-12, f"case {case} step {t + 1}: k=0 gap {gap}"

    rng = np.random.default_rng(43)
    for case in range(50):
        d = int(rng.integers(2, 13))
        b = int(rng.integers(1, 7))
        m = int(rng.integers(2, 6))
        T = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.1, 3.0))
        batches = _random_batches(rng, T, b, d, m)

        unit = SubLearnerState.initial(d, m, lam, RegStyle(kind="kf", k=1.0))
        # Reference: accumulate the labeled Gram, pre-invert the next
        # batch at full weight, and let only the next Gram steer theta.
        theta_ref = np.zeros((d, m))
        eta_dag_ref = np.eye(d) / lam
        for t in range(T):
            D, Y = batches[t]
            D_next = batches[t + 1][0] if t + 1 < T else None
            eta_dag_ref = woodbury_update(eta_dag_ref, D, 1.0)
            if D_next is None:
                drift = 0.0 * (D.T @ D)
                theta_ref = theta_ref - eta_dag_ref @ (drift @ theta_ref - D.T @ Y)
            else:
                eta_ref = woodbury_update(eta_dag_ref, D_next, 1.0)
                G_next = D_next.T @ D_next
                theta_ref = theta_ref - eta_ref @ (G_next @ theta_ref - D.T @ Y)
            unit = step_kf(unit, D, Y, D_next)
            assert np.array_equal(unit.theta, theta_ref), (
                f"case {case} step {t + 1}: k=1 form differs"
            )


# ---------------------------------------------------------------------------
# 3. The rank-b inverse update agrees with direct inversion.
# ---------------------------------------------------------------------------

def test_rank_b_inverse_update_matches_direct_inversion():
    """200 random SPD instances, d<=32, b<=8, c in [0,4], error < 1e-8."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(200):
        d = int(rng.integers(2, 33))
        b = int(rng.integers(1, 9))
        c = 0.0 if case % 25 == 0 else float(rng.uniform(0.0, 4.0))
        A = rng.standard_normal((d, d))
        eta = A @ A.T / d + 0.5 * np.eye(d)
        D = rng.standard_normal((b, d))
        got = woodbury_update(eta, D, c)
        direct = np.linalg.inv(np.linalg.inv(eta) + c * (D.T @ D))
        err = float(np.max(np.abs(got - direct)))
        worst = max(worst, err)
        assert err < 1e-8, f"case {case}: d={d} b={b} c={c:.3f} err={err:.3e}"
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# 4. Inverse-rate-weighted updates telescope to the batch cross term.
# ---------------------------------------------------------------------------

def test_inverse_rate_weighted_updates_telescope_to_batch_gram():
    """eta_{t+1}^{-1} theta_{t+1} - eta_t^{-1} theta_t = D_t^T Y_t.

    Checked at every step over 20 random streams for all three styles,
    to a relative 1e-8. For ridge and constant-k the stored rates are
    inverted directly. The adaptive style's forward weight changes from
    step to step, so its inverse rates are rebuilt from the recorded
    (k_cur, k_next) pairs: a batch keeps, as k_cur while it is current,
    the k_next it was given as the upcoming batch, so each step's
    starting rate is the previous step's complete rate.
    """
    b, d, m, T, lam = 6, 10, 3, 8, 1.0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        batches = _random_batches(rng, T, b, d, m)
        grams = [D.T @ D for D, _ in batches]
        crosses = [D.T @ Y for D, Y in batches]

        def run(style):
            state = SubLearnerState.initial(d, m, lam, style)
            thetas = [state.theta]
            etas = [state.eta_dag]
            pairs = []
            for t in range(T):
                D, Y = batches[t]
                D_next = batches[t + 1][0] if t + 1 < T else None
                if style.kind == "ridge":
                    state = step_ridge(state, D, Y)
                    pairs.append((0.0, 0.0))
                elif style.kind == "kf":
                    state = step_kf(state, D, Y, D_next)
                    pairs.append((style.k, style.k if D_next is not None else 0.0))
                else:
                    state, pair = step_kf_bayes(state, D, Y, D_next)
                    pairs.append(pair)
                thetas.append(state.theta)
                etas.append(state.eta)
            return thetas, etas, pairs

        for style in (
            RegStyle(kind="ridge"),
            RegStyle(kind="kf", k=0.7),
            RegStyle(kind="kf_bayes"),
        ):
            thetas, etas, pairs = run(style)
            if style.kind in ("ridge", "kf"):
                for t in range(T):
                    lhs = (np.linalg.inv(etas[t + 1]) @ thetas[t + 1]
                           - np.linalg.inv(etas[t]) @ thetas[t])
                    err = _rel_err(lhs, crosses[t])
                    assert err <= 1e-8, f"{style.kind} seed={seed} step={t + 1}"
            else:
                # Effective inverse rate while batch t is current: the
                # regularizer, all earlier Grams, and k_cur on Gram t.
                running = lam * np.eye(d)
                for t in range(T):
                    k_cur, k_next = pairs[t]
                    inv_cur = running + k_cur * grams[t]
                    running = running + grams[t]
                    if t + 1 < T:
                        inv_next = running + k_next * grams[t + 1]
                    else:
                        assert k_next == 0.0
                        inv_next = running
                    lhs = inv_next @ thetas[t + 1] - inv_cur @ thetas[t]
                    err = _rel_err(lhs, crosses[t])
                    assert err <= 1e-8, f"kf_bayes seed={seed} step={t + 1}"


# ---------------------------------------------------------------------------
# 5. The adaptive forward gain obeys its closed form.
# ---------------------------------------------------------------------------

def test_adaptive_gain_identity_scaling_and_positivity():
    """Identity projection returns kappa; gain is linear in kappa;
    every gain emitted on live streams is finite and positive.

    On the identity case (D = eta = I, sigma = 0) the trace ratio is
    exactly one, so the gain must equal kappa bit for bit. Doubling
    kappa must double the gain to 1e-12 for the exact formula and both
    fast variants. Twenty streamed runs must emit strictly positive
    finite gains everywhere, with the single exception of the forward
    gain on each stream's closing step, which is the structural zero
    recorded when no next batch exists.
    """
    for n in (3, 8):
        eye = np.eye(n)
        for kappa in (0.5, 1.0, 2.0, 3.75):
            got = compute_adaptive_k(eye, eye, kappa, 0.0)
            assert got == kappa, f"identity case: {got} != {kappa}"

    rng = np.random.default_rng(11)
    for _ in range(30):
        d = int(rng.integers(2, 12))
        b = int(rng.integers(1, 7))
        D = rng.standard_normal((b, d))
        A = rng.standard_normal((d, d))
        eta = A @ A.T / d + 0.1 * np.eye(d)
        kappa = float(rng.uniform(0.2, 4.0))
        for fast in (None, "trace_only", "random_pick"):
            pick_rng = np.random.default_rng(77)
            k1 = compute_adaptive_k(D, eta, kappa, 1e-5, fast=fast, rng=pick_rng)
            pick_rng = np.random.default_rng(77)
            k2 = compute_adaptive_k(D, eta, 2.0 * kappa, 1e-5, fast=fast, rng=pick_rng)
            assert abs(k2 - 2.0 * k1) <= 1e-12 * max(1.0, abs(k2))
            assert np.isfinite(k1) and k1 > 0

    from rvflstream.stream import (
        TaskSplitSpec,
        batchify,
        make_gaussian_dataset,
        split_class_incremental,
    )

    for seed in range(20):
        train, _ = make_gaussian_dataset(4, 6, 2.0, 18, 4, seed=500 + seed)
        tasks = split_class_incremental(train, TaskSplitSpec(Q=2, order_seed=seed))
        stream = batchify(tasks, b=12, m=4)
        config = NetworkConfig(L=2, N=8, s=6, m=4, lam=1.0, seed=seed)
        model = ContinualModel(config, RegStyle(kind="kf_bayes"))
        batches = list(stream)
        for i, batch in enumerate(batches):
            X_next = batches[i + 1].X if i + 1 < len(batches) else None
            model.observe(batch.X, batch.Y, X_next)
        rows = model.k_trace.rows()
        assert rows, "no gains were recorded"
        T = max(r[0] for r in rows)
        for t, layer, k_cur, k_next in rows:
            assert np.isfinite(k_cur) and k_cur > 0, (t, layer, k_cur)
            assert np.isfinite(k_next), (t, layer, k_next)
            if t < T:
                assert k_next > 0, (t, layer, k_next)
            else:
                assert k_next == 0.0, (t, layer, k_next)


# ---------------------------------------------------------------------------
# 6. Metric definitions match hand calculations.
# ---------------------------------------------------------------------------

def test_metric_definitions_match_hand_calculations():
    """Every documented metric example, plus monotone cumulative regret
    on a real run."""
    # Final-row average accuracy.
    mat = AccuracyMatrix(2)
    mat.record(1, 0, 0.8)
    mat.record(1, 1, 0.6)
    assert abs(compute_acc(mat) - 0.7) <= 1e-15

    perfect = AccuracyMatrix(3)
    for q in range(3):
        perfect.record(2, q, 1.0)
    assert compute_acc(perfect) == 1.0

    single = AccuracyMatrix(1)
    single.record(0, 0, 0.37)
    assert compute_acc(single) == 0.37
    with pytest.raises(ContractError):
        compute_bwt(single)

    # Retention: mean of final-minus-diagonal differences.
    mat = AccuracyMatrix(3)
    mat.record(0, 0, 0.9)
    mat.record(1, 1, 0.9)
    mat.record(2, 0, 0.8)   # drop of 0.1
    mat.record(2, 1, 0.6)   # drop of 0.3
    mat.record(2, 2, 0.7)
    assert abs(compute_bwt(mat) - (-0.2)) <= 1e-12

    flat = AccuracyMatrix(2)
    flat.record(0, 0, 0.5)
    flat.record(1, 0, 0.5)
    flat.record(1, 1, 0.5)
    assert compute_bwt(flat) == 0.0

    # Gain over independent experts.
    mat = AccuracyMatrix(3)
    mat.record(1, 1, 0.85)
    mat.record(2, 2, 0.70)
    mat.set_independent(1, 0.90)   # diff -0.05
    mat.set_independent(2, 0.85)   # diff -0.15
    assert abs(compute_fwt(mat) - (-0.1)) <= 1e-12

    parity = AccuracyMatrix(2)
    parity.record(1, 1, 0.6)
    parity.set_independent(1, 0.6)
    assert compute_fwt(parity) == 0.0

    # Argmax accuracy with the lowest-index tie rule.
    m = 10
    P = np.full((m, m), 1.0 / m)
    Y = np.eye(m)
    assert immediate_accuracy(P, Y) == 0.1

    tie = np.array([[0.4, 0.4, 0.2]])
    assert immediate_accuracy(tie, np.array([[1.0, 0.0, 0.0]])) == 1.0
    assert immediate_accuracy(tie, np.array([[0.0, 1.0, 0.0]])) == 0.0
    assert immediate_accuracy(np.eye(4), np.eye(4)) == 1.0
    wrong = np.roll(np.eye(4), 1, axis=1)
    assert immediate_accuracy(wrong, np.eye(4)) == 0.0

    # Squared ensemble deviation. One sample, one learner.
    Y1 = np.array([[1.0, 0.0]])
    half = np.array([[0.5, 0.5]])
    assert immediate_regret([half], Y1) == 0.5
    assert immediate_regret([Y1], Y1) == 0.0
    # Duplicating identical learners leaves the value unchanged.
    rng = np.random.default_rng(3)
    Z = rng.random((5, 4))
    Pr = Z / Z.sum(axis=1, keepdims=True)
    Yr = one_hot(rng.integers(0, 4, size=5), 4)
    assert abs(immediate_regret([Pr, Pr], Yr) - immediate_regret([Pr], Yr)) <= 1e-15

    # Divergence of the fused prediction from the one-hot target.
    assert immediate_kl([half], Y1) == np.log(2.0)
    assert immediate_kl([Y1], Y1) == 0.0
    # A zero target entry contributes nothing, whatever sits under it.
    assert immediate_kl([half], np.array([[0.0, 1.0]])) == np.log(2.0)
    # Learner order cannot matter.
    learners = [rng.random((5, 4)) for _ in range(3)]
    learners = [P / P.sum(axis=1, keepdims=True) for P in learners]
    forward = immediate_kl(learners, Yr)
    backward = immediate_kl(list(reversed(learners)), Yr)
    assert abs(forward - backward) <= 1e-12
    assert abs(immediate_regret(learners, Yr)
               - immediate_regret(list(reversed(learners)), Yr)) <= 1e-12

    # Spreadsheet-style recomputation of a fully populated 3x3 record.
    vals = {(0, 0): 0.92, (1, 0): 0.88, (1, 1): 0.81,
            (2, 0): 0.86, (2, 1): 0.79, (2, 2): 0.84}
    ind = [0.95, 0.83, 0.87]
    mat = AccuracyMatrix(3)
    for (a, q), v in vals.items():
        mat.record(a, q, v)
    for q, v in enumerate(ind):
        mat.set_independent(q, v)
    acc_hand = (vals[(2, 0)] + vals[(2, 1)] + vals[(2, 2)]) / 3
    bwt_hand = ((vals[(2, 0)] - vals[(0, 0)]) + (vals[(2, 1)] - vals[(1, 1)])) / 2
    fwt_hand = ((vals[(1, 1)] - ind[1]) + (vals[(2, 2)] - ind[2])) / 2
    assert abs(compute_acc(mat) - acc_hand) <= 1e-15
    assert abs(compute_bwt(mat) - bwt_hand) <= 1e-15
    assert abs(compute_fwt(mat) - fwt_hand) <= 1e-15

    # Cumulative regret never decreases on a live run.
    report = run_experiment(validate_config({
        "dataset": {"kind": "synthetic", "classes": 4, "dims": 5,
                    "separation": 2.5, "samples": 20, "test_samples": 10},
        "split": {"Q": 2},
        "batch_size": 8,
        "network": {"L": 2, "N": 6},
        "style": {"kind": "kf_bayes"},
        "baselines": False,
        "seeds": {"weights": 1, "order": 2, "synthetic": 3},
    }))
    regret = np.array(report.trace.regret)
    cum = np.array(report.trace.cum_regret)
    assert np.all(regret >= 0.0)
    assert np.all(np.diff(cum) >= 0.0)
    assert np.allclose(cum, np.cumsum(regret), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# 7. Style ordering on a boundary-free cluster stream.
# ---------------------------------------------------------------------------

def test_forward_adaptive_style_dominates_plain_ridge_on_cluster_stream():
    """Median final accuracy: adaptive-forward >= ridge; median
    cumulative regret: adaptive-forward <= ridge; offline fit >= both.

    Ten paired runs on a 10-class, 5-task Gaussian cluster stream with
    batch size 20 and no boundary signal to the learner. The streaming
    initialization (first Gram absorbed late) makes plain ridge
    overshoot early; the forward term caps the step size, so the
    ordering reflects mechanism, not seed luck. Must finish in 2 min.
    """
    start = time.perf_counter()

    def tree(style_kind, baselines):
        return {
            "dataset": {"kind": "synthetic", "classes": 10, "dims": 16,
                        "separation": 1.5, "samples": 32, "test_samples": 100},
            "split": {"Q": 5},
            "batch_size": 20,
            "network": {"L": 3, "N": 16, "lam": 1e-6},
            "style": {"kind": style_kind, "init_mode": "paper_strict"},
            "baselines": baselines,
            "shuffle_within": False,
            "seeds": {"weights": 100, "order": 200, "synthetic": 300},
        }

    ridge_cfg = validate_config(tree("ridge", True))
    bayes_cfg = validate_config(tree("kf_bayes", False))

    ridge_acc, bayes_acc = [], []
    ridge_reg, bayes_reg = [], []
    offline_acc = []
    for r in range(10):
        a = run_experiment(with_seed_offset(ridge_cfg, r))
        z = run_experiment(with_seed_offset(bayes_cfg, r))
        assert a.boundary_audit["learning_loop_reads"] == 0
        assert z.boundary_audit["learning_loop_reads"] == 0
        ridge_acc.append(a.final["acc"])
        bayes_acc.append(z.final["acc"])
        ridge_reg.append(a.final["cum_regret"])
        bayes_reg.append(z.final["cum_regret"])
        offline_acc.append(a.baselines["offline"].accuracy)

    med = lambda v: float(np.median(v))
    assert med(bayes_acc) >= med(ridge_acc), (
        f"accuracy medians: adaptive {med(bayes_acc):.4f} "
        f"< ridge {med(ridge_acc):.4f}"
    )
    assert med(bayes_reg) <= med(ridge_reg), (
        f"regret medians: adaptive {med(bayes_reg):.5f} "
        f"> ridge {med(ridge_reg):.5f}"
    )
    assert med(offline_acc) >= med(ridge_acc)
    assert med(offline_acc) >= med(bayes_acc)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"ordering sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. Optional pixel-image stream (runs only when the files are present).
# ---------------------------------------------------------------------------

FASHION_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _find_fashion_dir():
    candidates = []
    env = os.environ.get("FASHION_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates += [
        Path(__file__).resolve().parent.parent / "data" / "fashion-mnist",
        Path.home() / "data" / "fashion-mnist",
        Path.home() / ".cache" / "fashion-mnist",
    ]
    for root in candidates:
        if all((root / n).exists() or (root / (n + ".gz")).exists()
               for n in FASHION_FILES.values()):
            return root
    return None


def _materialize_idx(root, name, tmp_path):
    """Return a plain idx path, gunzipping next to the test if needed."""
    plain = root / name
    if plain.exists():
        return plain
    out = tmp_path / name
    with gzip.open(root / (name + ".gz"), "rb") as src, open(out, "wb") as dst:
        shutil.copyfileobj(src, dst)
    return out


def _write_idx_subset(ds, rows_per_class, images_path, labels_path, seed):
    """Bake a deterministic per-class subsample back into idx files."""
    rng = np.random.default_rng(seed)
    y = ds.y
    keep = []
    for c in range(ds.m):
        idx = np.flatnonzero(y == c)
        take = min(rows_per_class, idx.size)
        keep.append(rng.choice(idx, size=take, replace=False))
    keep = np.sort(np.concatenate(keep))
    X = np.clip(np.rint(ds.X[keep] * 255.0), 0, 255).astype(np.uint8)
    labels = y[keep].astype(np.uint8)
    n, d = X.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, 1, d))
        f.write(X.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, n))
        f.write(labels.tobytes())


def test_pixel_image_stream_completes_and_orders_styles(tmp_path):
    """Raw-pixel 10-class/5-task stream end to end, adaptive >= ridge.

    Skipped unless the four idx files (optionally gzipped) are found
    under FASHION_MNIST_DIR, <repo>/data/fashion-mnist, ~/data, or
    ~/.cache. The train split is subsampled to 100 rows per class so
    the whole check, both styles included, stays far under its
    fifteen-minute budget. No absolute accuracy is asserted; only that
    the run completes, the boundary audit stays clean, and the adaptive
    style's final full-test accuracy is at least ridge's.
    """
    root = _find_fashion_dir()
    if root is None:
        pytest.skip("pixel-image idx files not present")
    start = time.perf_counter()

    from rvflstream.stream import load_idx

    paths = {k: _materialize_idx(root, n, tmp_path) for k, n in FASHION_FILES.items()}
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])

    small = tmp_path / "small"
    small.mkdir()
    _write_idx_subset(train, 100, small / "train-images-idx3-ubyte",
                      small / "train-labels-idx1-ubyte", seed=0)
    _write_idx_subset(test, 100, small / "t10k-images-idx3-ubyte",
                      small / "t10k-labels-idx1-ubyte", seed=1)

    def tree(style_kind):
        return {
            "dataset": {"kind": "idx",
                        "train_images": str(small / "train-images-idx3-ubyte"),
                        "train_labels": str(small / "train-labels-idx1-ubyte"),
                        "test_images": str(small / "t10k-images-idx3-ubyte"),
                        "test_labels": str(small / "t10k-labels-idx1-ubyte")},
            "split": {"Q": 5},
            "batch_size": 20,
            "network": {"L": 3, "N": 16, "lam": 1e-6},
            "style": {"kind": style_kind, "init_mode": "paper_strict"},
            "baselines": False,
            "shuffle_within": False,
            "seeds": {"weights": 100, "order": 200},
        }

    ridge = run_experiment(validate_config(tree("ridge")))
    bayes = run_experiment(validate_config(tree("kf_bayes")))

    for rep in (ridge, bayes):
        assert rep.boundary_audit["learning_loop_reads"] == 0
        assert all(np.isfinite(v) for v in rep.trace.regret)
    assert bayes.final["acc_full"] >= ridge.final["acc_full"], (
        f"adaptive {bayes.final['acc_full']:.4f} "
        f"< ridge {ridge.final['acc_full']:.4f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"pixel stream check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. Per-batch cost stays flat over a long stream.
# ---------------------------------------------------------------------------

def test_per_batch_cost_does_not_grow_with_stream_length():
    """Mean wall-clock of the last 100 of 1000 batches stays under
    twice the first 100. Nothing retained by the learner grows with t,
    so the only admissible difference is timer noise and warmup (which
    biases the early batches upward, against the check)."""
    report = run_experiment(validate_config({
        "dataset": {"kind": "synthetic", "classes": 10, "dims": 32,
                    "separation": 2.0, "samples": 1000, "test_samples": 10},
        "split": {"Q": 5},
        "batch_size": 10,
        "network": {"L": 2, "N": 48},
        "style": {"kind": "kf_bayes"},
        "eval_every": "task",
        "baselines": False,
        "seeds": {"weights": 5, "order": 6, "synthetic": 7},
    }))
    wall = np.asarray(report.wall_clock)
    assert wall.shape[0] == 1000
    first = float(wall[:100].mean())
    last = float(wall[-100:].mean())
    assert last < 2.0 * first, (
        f"per-batch cost grew: first-decile mean {first * 1e6:.1f}us, "
        f"last-decile mean {last * 1e6:.1f}us"
    )


# ---------------------------------------------------------------------------
# The idx -> subset -> runner path of test 8, on a tiny generated fixture.
# ---------------------------------------------------------------------------

def _write_idx(images, labels, images_path, labels_path):
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, n))
        f.write(labels.tobytes())


def test_idx_subset_round_trips_through_the_runner(tmp_path):
    """_write_idx_subset keeps exact pixels and a per-class quota, and
    the baked files run end to end through dataset.kind: idx."""
    from rvflstream.stream import load_idx

    rng = np.random.default_rng(8)
    paths = {}
    for split, per_class in (("train", 12), ("test", 6)):
        labels = np.repeat(np.arange(4, dtype=np.uint8), per_class)
        images = rng.integers(0, 256, (labels.size, 6, 6), dtype=np.uint8)
        images[:, 0, :] = labels[:, None] * 60  # a class-revealing row
        full = (tmp_path / f"{split}-images", tmp_path / f"{split}-labels")
        _write_idx(images, labels, *full)
        ds = load_idx(*full)
        paths[split] = (tmp_path / f"{split}-sub-images",
                        tmp_path / f"{split}-sub-labels")
        _write_idx_subset(ds, 5, *paths[split], seed=3)

        sub = load_idx(*paths[split])
        assert np.bincount(sub.y).tolist() == [5] * 4
        matches = (sub.X[:, None, :] == ds.X[None, :, :]).all(axis=2)
        assert np.all(matches.any(axis=1))
        assert np.array_equal(sub.y, ds.y[matches.argmax(axis=1)])

    report = run_experiment(validate_config({
        "dataset": {"kind": "idx",
                    "train_images": str(paths["train"][0]),
                    "train_labels": str(paths["train"][1]),
                    "test_images": str(paths["test"][0]),
                    "test_labels": str(paths["test"][1])},
        "split": {"Q": 2},
        "batch_size": 4,
        "network": {"L": 2, "N": 8},
        "style": {"kind": "kf_bayes"},
        "seeds": {"weights": 1, "order": 2},
    }))
    assert (report.resolved["s"], report.resolved["m"]) == (36, 4)
    assert report.resolved["T"] == 5
    assert report.boundary_audit["ok"]
    assert np.isfinite(report.final["acc"])
