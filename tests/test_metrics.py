"""Continual-learning metric tests.

Every formula is pinned by a hand-computed case: the matrices are small
enough that the expected numbers were derived on paper and frozen here.
"""

import numpy as np
import pytest

from rvflstream.errors import ContractError
from rvflstream.metrics import (
    AccuracyMatrix,
    Targets,
    TraceSeries,
    _first_argmax,
    compute_acc,
    compute_bwt,
    compute_fwt,
    immediate_accuracy,
    immediate_kl,
    immediate_metrics,
    immediate_regret,
)
from rvflstream.network import fuse_probs, softmax


def filled_matrix():
    # R[q, j]: accuracy on task j after finishing task q, Q = 3.
    mat = AccuracyMatrix(3)
    mat.record(0, 0, 0.9)
    mat.record(1, 0, 0.85)
    mat.record(1, 1, 0.8)
    mat.record(2, 0, 0.8)
    mat.record(2, 1, 0.5)
    mat.record(2, 2, 0.7)
    return mat


class TestAccuracyMatrix:
    def test_upper_triangle_rejected(self):
        mat = AccuracyMatrix(2)
        with pytest.raises(ContractError):
            mat.record(0, 1, 0.5)

    def test_out_of_range_value_rejected(self):
        mat = AccuracyMatrix(2)
        with pytest.raises(ContractError):
            mat.record(0, 0, 1.5)

    def test_independent_vector(self):
        mat = AccuracyMatrix(2)
        mat.set_independent(1, 0.75)
        assert mat.independent[1] == 0.75
        assert np.isnan(mat.independent[0])


class TestFinalMetrics:
    def test_acc_is_final_row_mean(self):
        # mean(0.8, 0.5, 0.7) = 2/3, by hand.
        assert compute_acc(filled_matrix()) == pytest.approx(2.0 / 3.0,
                                                             abs=1e-15)

    def test_acc_requires_complete_final_row(self):
        mat = AccuracyMatrix(2)
        mat.record(0, 0, 0.9)
        with pytest.raises(ContractError):
            compute_acc(mat)

    def test_bwt_hand_case(self):
        # (R[2,0]-R[0,0]) = -0.1, (R[2,1]-R[1,1]) = -0.3: mean = -0.2.
        assert compute_bwt(filled_matrix()) == pytest.approx(-0.2, abs=1e-12)

    def test_bwt_needs_two_tasks(self):
        mat = AccuracyMatrix(1)
        mat.record(0, 0, 1.0)
        with pytest.raises(ContractError):
            compute_bwt(mat)

    def test_fwt_hand_case(self):
        # (R[1,1]-ind[1]) = -0.05, (R[2,2]-ind[2]) = -0.15: mean = -0.1.
        mat = filled_matrix()
        mat.set_independent(1, 0.85)
        mat.set_independent(2, 0.85)
        assert compute_fwt(mat) == pytest.approx(-0.1, abs=1e-12)

    def test_fwt_requires_independent_entries(self):
        with pytest.raises(ContractError):
            compute_fwt(filled_matrix())


class TestImmediateAccuracy:
    def test_counts_argmax_matches(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        Y = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=float)
        assert immediate_accuracy(probs, Y) == 0.5

    def test_ties_resolve_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert immediate_accuracy(probs, np.array([[1.0, 0.0]])) == 1.0
        assert immediate_accuracy(probs, np.array([[0.0, 1.0]])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            immediate_accuracy(np.zeros((0, 2)), np.zeros((0, 2)))


class TestImmediateRegret:
    def test_single_learner_hand_case(self):
        # (P - Y)/1 = (0.5, -0.5): squared Frobenius norm = 0.5, by hand.
        P = [np.array([[0.5, 0.5]])]
        Y = np.array([[0.0, 1.0]])
        assert immediate_regret(P, Y) == pytest.approx(0.5, abs=1e-15)

    def test_division_happens_inside_norm(self):
        # Two identical learners, two rows: residual (sum - L Y) / (L n)
        # with L=2, n=2 scales entries by 1/4 and the square by 1/16.
        P1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        Y = np.array([[0.0, 1.0], [0.0, 1.0]])
        one = immediate_regret([P1], Y)
        two = immediate_regret([P1, P1], Y)
        # L=1,n=2: ((1,-1)/2 per row) -> 4 * (1/4) = 1.0
        assert one == pytest.approx(1.0, abs=1e-15)
        # L=2,n=2: ((2,-2)/4 per row) -> 4 * 2*(1/4) = 1.0
        assert two == pytest.approx(1.0, abs=1e-15)

    def test_zero_for_perfect_prediction(self):
        Y = np.array([[1.0, 0.0]])
        assert immediate_regret([Y.copy()], Y) == 0.0


class TestImmediateKL:
    def test_single_learner_hand_case(self):
        # Y=(0,1), P=(0.5,0.5): sum_j Y ln(L Y / P) = ln 2, by hand.
        P = [np.array([[0.5, 0.5]])]
        Y = np.array([[0.0, 1.0]])
        assert immediate_kl(P, Y) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_zero_when_ensemble_matches_targets(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert immediate_kl([Y.copy()], Y) == pytest.approx(0.0, abs=1e-15)

    def test_zero_target_terms_are_dropped(self):
        # 0 * ln(0/x) contributes nothing even when P puts mass there.
        P = [np.array([[0.999, 0.001]])]
        Y = np.array([[1.0, 0.0]])
        val = immediate_kl(P, Y)
        assert np.isfinite(val)
        assert val == pytest.approx(np.log(1.0 / 0.999), rel=1e-9)

    def test_averages_over_rows(self):
        P = [np.array([[0.5, 0.5], [1.0, 0.0]])]
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        # Row KLs: ln 2 and 0; mean = ln(2)/2.
        assert immediate_kl(P, Y) == pytest.approx(np.log(2.0) / 2.0,
                                                   rel=1e-12)

    @pytest.mark.parametrize("L", [3, 9])
    def test_sums_layers_in_order_bit_for_bit(self, L):
        # Only the target columns are summed, but each in the order of a
        # full layer sum. Added one by one to the first layer's values in
        # [0.5, 1), the later layers' 3e-17 are each lost; a pairwise sum
        # (numpy's, at L >= 8) adds them up first and keeps them.
        rng = np.random.default_rng(L)
        P = np.full((L, 200, 10), 3e-17)
        P[0] = 0.5 + rng.random((200, 10)) / 2
        Y = np.eye(10)[rng.integers(0, 10, 200)] * rng.random((200, 1))
        mask = Y > 0
        summed = P.sum(axis=0)[mask]
        want = np.sum(Y[mask] * np.log(L * Y[mask] / summed)) / 200
        assert immediate_kl(P, Y) == float(want)


class TestStackedLearners:
    def learners(self):
        rng = np.random.default_rng(12)
        Z = rng.random((3, 6, 4))
        P = Z / Z.sum(axis=2, keepdims=True)
        Y = np.eye(4)[rng.integers(0, 4, 6)]
        return P, Y

    @pytest.mark.parametrize("metric", [immediate_regret, immediate_kl])
    def test_list_and_stack_give_identical_floats(self, metric):
        P, Y = self.learners()
        assert metric(list(P), Y) == metric(P, Y)

    @pytest.mark.parametrize("metric", [immediate_regret, immediate_kl])
    def test_ragged_list_rejected(self, metric):
        P, Y = self.learners()
        with pytest.raises(ContractError):
            metric([P[0], P[1][:, :3]], Y)

    @pytest.mark.parametrize("metric", [immediate_regret, immediate_kl])
    def test_empty_and_mismatched_rejected(self, metric):
        P, Y = self.learners()
        with pytest.raises(ContractError):
            metric([], Y)
        with pytest.raises(ContractError):
            metric(P[:, :5], Y)


class TestImmediateMetrics:
    """One pass over the stack equals the separate metrics."""

    def stack(self, L, n=40, m=5):
        # Random softmax outputs, plus two rows with a tie between
        # classes 1 and 3 (one targeting each) and a row whose true
        # class underflows to 0 in every learner.
        rng = np.random.default_rng(30 + L)
        P = softmax(rng.standard_normal((L, n, m)) * 3)
        y = rng.integers(0, m, n)
        P[:, :2] = 0.0
        P[:, :2, [1, 3]] = 0.5
        y[:2] = (3, 1)
        P[:, 2] = softmax(np.array([800.0, 0.0, 0.0, 0.0, 0.0]))
        y[2] = 4
        return P, np.eye(m)[y]

    @staticmethod
    def loop_regret_kl(P, Y):
        # The formulas written out element by element, for reference.
        L, n, m = P.shape
        regret, kl = 0.0, 0.0
        for i in range(n):
            for j in range(m):
                s = sum(P[l, i, j] for l in range(L))
                regret += ((s - L * Y[i, j]) / (L * n)) ** 2
                if Y[i, j] > 0:
                    s = max(s, np.finfo(float).tiny)
                    kl += Y[i, j] * np.log(L * Y[i, j] / s)
        return regret, kl / n

    @pytest.mark.parametrize("L", [1, 3])
    @pytest.mark.parametrize("mode", ["mean", "median"])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_equals_the_separate_metrics(self, L, mode, as_list):
        P, Y = self.stack(L)
        assert P[0, 2, 4] == 0.0
        got = immediate_metrics(list(P) if as_list else P, Y, mode=mode)
        probs = fuse_probs(P, mode=mode)
        assert np.array_equal(got.probs, probs)
        assert np.array_equal(got.hits, probs.argmax(1) == Y.argmax(1))
        assert got.hits[:2].tolist() == [False, True]
        assert got.accuracy() == immediate_accuracy(probs, Y)
        rows = np.arange(len(Y)) % 3 == 0
        assert got.accuracy(rows) == immediate_accuracy(probs[rows], Y[rows])
        assert got.regret == immediate_regret(P, Y)
        assert got.kl == immediate_kl(P, Y)
        regret, kl = self.loop_regret_kl(P, Y)
        assert got.regret == pytest.approx(regret, rel=1e-14, abs=0)
        assert got.kl == pytest.approx(kl, rel=1e-14, abs=0)
        # The underflowed row contributes ln(L / tiny) to the sum.
        assert np.isfinite(got.kl)
        assert got.kl > np.log(L / np.finfo(float).tiny) / len(Y)

    def test_class_major_stack_gives_the_same_numbers(self):
        # per_learner_probs hands over an (L, n, m) view of a class-major
        # array; the layer sum and every number read from it are the same.
        P, Y = self.stack(3)
        view = np.ascontiguousarray(P.transpose(0, 2, 1)).transpose(0, 2, 1)
        got, want = immediate_metrics(view, Y), immediate_metrics(P, Y)
        assert np.array_equal(got.probs, want.probs)
        assert np.array_equal(got.hits, want.hits)
        assert got.kl == want.kl
        assert got.regret == pytest.approx(want.regret, rel=1e-14, abs=0)

    def test_rejects_bad_input(self):
        P, Y = self.stack(3)
        with pytest.raises(ContractError):
            immediate_metrics(P[:, :5], Y)
        with pytest.raises(ContractError):
            immediate_metrics([P[0], P[1][:, :3]], Y)
        with pytest.raises(ContractError):
            immediate_metrics([], Y)
        with pytest.raises(ContractError):
            immediate_metrics(P[:, :0], Y[:0])
        with pytest.raises(ContractError):
            immediate_metrics(P, Y, mode="max")
        with pytest.raises(ContractError):
            immediate_metrics(P, Y).accuracy(np.zeros(len(Y), dtype=bool))


class TestTargets:
    """Targets.score against the formulas it replaced, bit for bit."""

    @staticmethod
    def reference(P, Y, mode):
        # The pre-change formulas: one layer sum, median fusion of the
        # stack as given, the regret summed row-major, the KL over the
        # targets > 0.
        P = np.asarray(P, dtype=float)
        L, n = P.shape[0], Y.shape[0]
        S = P.sum(axis=0)
        probs = S / L if mode == "mean" else fuse_probs(P, mode=mode)
        R = np.ascontiguousarray((S - L * Y) / (L * n))
        mask = Y > 0
        summed = np.maximum(S[mask], np.finfo(float).tiny)
        terms = Y[mask] * np.log(L * Y[mask] / summed)
        return (probs, probs.argmax(axis=1) == Y.argmax(axis=1),
                float(np.sum(R * R)), float(terms.sum() / n))

    @staticmethod
    def stack(seed, L=3, n=300, m=10, soft=False):
        # Random softmax outputs with three planted rows: a tie between
        # classes 0 and 2 targeting 2 (a miss: the first maximum wins),
        # the same tie targeting 0 (a hit), and a row whose true class
        # underflows to 0 in every learner. Soft targets spread each
        # row's mass over two classes, with ties in the target too.
        rng = np.random.default_rng(seed)
        P = softmax(rng.standard_normal((L, n, m)) * 4)
        y = rng.integers(0, m, n)
        P[:, :2] = 0.0
        P[:, :2, [0, 2]] = 0.5
        y[:2] = (2, 0)
        P[:, 2] = softmax(np.r_[800.0, np.zeros(m - 1)])
        y[2] = m - 1
        Y = np.eye(m)[y]
        if soft:
            w = 0.5 + rng.random((n, 1)) / 2
            w[::7] = 0.5
            Y = w * Y + (1 - w) * np.eye(m)[(y + 1) % m]
        return P, Y

    @staticmethod
    def assert_same(got, want):
        probs, hits, regret, kl = want
        assert np.array_equal(got.probs, probs)
        assert np.array_equal(got.hits, hits)
        assert got.regret == regret
        assert got.kl == kl

    @pytest.mark.parametrize("mode", ["mean", "median"])
    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("layout", ["stack", "list", "class_major"])
    def test_score_is_the_reference_bit_for_bit(self, mode, soft, layout):
        P, Y = self.stack(5, soft=soft)
        given = {"stack": P, "list": list(P),
                 "class_major": np.ascontiguousarray(
                     P.transpose(0, 2, 1)).transpose(0, 2, 1)}[layout]
        want = self.reference(given, Y, mode)
        assert want[1][:2].tolist() == [False, True]
        assert np.isfinite(want[3])
        self.assert_same(Targets(Y).score(given, mode), want)
        self.assert_same(immediate_metrics(given, Y, mode=mode), want)

    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_one_targets_scores_stacks_in_turn(self, mode):
        # The scratch is reused across calls; no result may alias it.
        Y = self.stack(0)[1]
        targets = Targets(Y)
        stacks = [softmax(np.random.default_rng(s).standard_normal((3, 300, 10)))
                  for s in (1, 2, 3)]
        results, snapshots = [], []
        for P in stacks:
            got = targets.score(P, mode)
            self.assert_same(got, astuple_of(Targets(Y).score(P, mode)))
            results.append(got)
            snapshots.append((got.probs.copy(), got.hits.copy(), got.regret, got.kl))
        for got, snap in zip(results, snapshots):
            self.assert_same(got, snap)

    def test_targets_are_copied_and_checked(self):
        P, Y = self.stack(7)
        targets = Targets(Y)
        want = targets.score(P)
        Y[:] = 0.0
        self.assert_same(targets.score(P), astuple_of(want))
        for bad in (np.zeros((0, 10)), np.zeros(10)):
            with pytest.raises(ContractError):
                Targets(bad)
        with pytest.raises(ContractError):
            targets.score(P[:, :-1])
        with pytest.raises(ContractError):
            targets.score(P, mode="max")

    def test_first_argmax_is_numpys_argmax(self):
        # Ties at the first class, at later classes, and NaN columns.
        rng = np.random.default_rng(4)
        A = rng.integers(0, 3, (6, 40)).astype(float)
        A[:, :4] = np.nan
        A[2:, 4] = np.nan
        A[0, 5], A[3, 5] = np.nan, np.nan
        A[:, 6] = -np.inf
        got = _first_argmax(A)
        assert np.array_equal(got, np.argmax(A, axis=0))
        assert np.array_equal(got, A.T.argmax(axis=1))


def astuple_of(scores):
    return scores.probs, scores.hits, scores.regret, scores.kl


class TestTraceSeries:
    def test_cumulative_regret_accumulates(self):
        trace = TraceSeries()
        trace.append(1, 0.5, 0.4, 0.2, 0.1)
        trace.append(2, 0.6, 0.5, 0.3, 0.2)
        assert trace.cum_regret == [0.2, 0.5]

    def test_rows_zip_all_columns(self):
        trace = TraceSeries()
        trace.append(1, 0.5, 0.4, 0.2, 0.1)
        assert trace.rows() == [(1, 0.5, 0.4, 0.2, 0.2, 0.1)]
