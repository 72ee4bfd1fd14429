"""Continual-learning evaluation metrics.

The accuracy matrix R records R[i, j] = accuracy on task j after
learning task i (0-based here; defined for j <= i). ACC averages the
final row, backward transfer measures retention against the diagonal,
and forward transfer compares the diagonal with independent per-task
experts. The per-batch metrics (immediate accuracy, regret, KL) are
pure functions of the ensemble outputs on a test set; regret and KL
take every learner's outputs as one (L, n, m) array or a list of L
n x m matrices. Targets(Y_te) prepares what depends only on the test
targets once, and its score takes all of them from one such stack in
one pass, reading a class-major stack in place; the runner builds one
per run and scores every evaluation with it, and immediate_metrics is
a fresh Targets' score.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .network import _stack_layers, fuse_probs


class AccuracyMatrix:
    """Lower-triangular task accuracy record plus the expert vector."""

    def __init__(self, Q):
        if Q < 1:
            raise ContractError(f"Q must be >= 1, got {Q}")
        self.Q = Q
        self.R = np.full((Q, Q), np.nan)
        self.independent = np.full(Q, np.nan)

    def record(self, after_task, on_task, value):
        """Store accuracy on on_task measured after learning after_task."""
        if on_task > after_task:
            raise ContractError(
                f"R[{after_task},{on_task}] is above the diagonal"
            )
        if not 0.0 <= value <= 1.0:
            raise ContractError(f"accuracy must be in [0,1], got {value}")
        self.R[after_task, on_task] = value

    def set_independent(self, q, value):
        self.independent[q] = value


def compute_acc(mat):
    """Mean of the final row: average accuracy over all learned tasks."""
    bottom = mat.R[mat.Q - 1, :]
    if np.any(np.isnan(bottom)):
        raise ContractError("final row of R is not fully recorded")
    return float(bottom.mean())


def compute_bwt(mat):
    """Backward transfer: mean of R[Q-1, q] - R[q, q] over q < Q-1.

    Positive values mean later tasks improved earlier ones.
    """
    if mat.Q < 2:
        raise ContractError("backward transfer needs at least two tasks")
    diffs = [mat.R[mat.Q - 1, q] - mat.R[q, q] for q in range(mat.Q - 1)]
    if np.any(np.isnan(diffs)):
        raise ContractError("R entries needed for BWT are not recorded")
    return float(np.mean(diffs))


def compute_fwt(mat):
    """Forward transfer: mean of R[q, q] - independent[q] over q >= 1."""
    if mat.Q < 2:
        raise ContractError("forward transfer needs at least two tasks")
    diffs = [mat.R[q, q] - mat.independent[q] for q in range(1, mat.Q)]
    if np.any(np.isnan(diffs)):
        raise ContractError("independent accuracies for FWT are not recorded")
    return float(np.mean(diffs))


def immediate_accuracy(probs, Y_te):
    """Fraction of rows whose argmax matches the target argmax.

    Ties go to the lowest class index on both sides, which makes the
    rule deterministic.
    """
    probs = np.asarray(probs, dtype=float)
    Y_te = np.asarray(Y_te, dtype=float)
    if probs.shape != Y_te.shape:
        raise ContractError(
            f"shapes must agree, got {probs.shape} vs {Y_te.shape}"
        )
    if probs.shape[0] < 1:
        raise ContractError("empty test set")
    return float(np.mean(probs.argmax(axis=1) == Y_te.argmax(axis=1)))


def _first_argmax(A):
    """np.argmax(A, axis=0) of an m x n array, computed along rows of n.

    The first maximum wins, and a NaN counts as the maximum, as in
    np.argmax; but no row of n is copied or transposed.
    """
    top = A.max(axis=0)
    idx = np.empty(A.shape[1], dtype=np.intp)
    for j in range(len(A) - 1, -1, -1):
        np.copyto(idx, j, where=A[j] == top)
    nan = np.isnan(top)
    if nan.any():
        idx[nan] = np.isnan(A[:, nan]).argmax(axis=0)
    return idx


@dataclass(frozen=True)
class ImmediateMetrics:
    """One evaluation of the learners on a test set; see Targets.score.

    Attributes:
        probs: n x m fused ensemble prediction.
        hits: n booleans, True where the argmax of probs is the
            target's (ties go to the lowest class index on both sides).
        regret: immediate_regret of the stack.
        kl: immediate_kl of the stack.
    """

    probs: np.ndarray
    hits: np.ndarray
    regret: float
    kl: float

    def accuracy(self, rows=None):
        """immediate_accuracy of probs over the rows selected by rows, or all."""
        hits = self.hits if rows is None else self.hits[rows]
        if hits.size < 1:
            raise ContractError("empty test set")
        return float(np.mean(hits))


class Targets:
    """A fixed test set's targets, prepared once for repeated scoring.

    Holds what depends only on Y_te: each row's target class (the first
    maximum), the row, column and value of every nonzero target in
    row-major order, and an n x m row-major scratch for the regret. A
    runner that evaluates after every batch builds one per run and
    calls score on each evaluation's stack.
    """

    def __init__(self, Y_te):
        Y = np.array(Y_te, dtype=float, order="C")
        if Y.ndim != 2 or len(Y) < 1:
            raise ContractError(
                f"targets must be a nonempty n x m matrix, got shape {Y.shape}")
        self.Y = Y
        self.cls = Y.argmax(axis=1)
        self.rows, self.cols = np.nonzero(Y > 0)
        self.vals = Y[self.rows, self.cols]
        self._scratch = np.empty_like(Y)

    def score(self, per_learner, mode="mean"):
        """Fused prediction, hits, regret and KL of one stack in one pass.

        The stack is checked once and summed over layers once, into a
        class-major m x n array: each element layer by layer, in order.
        That sum S gives the mean fusion S / L (median fusion goes
        through fuse_probs) and its argmax along rows of n, the regret,
        squared in the scratch and summed row-major, and the KL,
        gathered at the nonzero targets. The result shares no memory
        with the scratch, so a later call leaves it unchanged.

        Args:
            per_learner: an (L, n, m) array or a list of L n x m
                matrices, every learner's softmax outputs on the test
                set; an (L, n, m) view of class-major memory, as
                per_learner_probs returns, is read in place.
            mode: ensemble fusion, "mean" or "median".

        Returns:
            ImmediateMetrics.

        Raises:
            ContractError: a ragged or empty stack, a stack that does not
                fit the targets, or an unknown mode.
        """
        P = _stack_layers(per_learner)
        if P.shape[1:] != self.Y.shape:
            raise ContractError(
                f"learner outputs {P.shape} do not fit targets {self.Y.shape}")
        L, n = P.shape[0], len(self.Y)
        S = P.transpose(0, 2, 1).sum(axis=0).T
        R = np.multiply(self.Y, L, out=self._scratch)
        np.subtract(S, R, out=R)
        R /= L * n
        R *= R
        floor = np.finfo(float).tiny
        summed = np.maximum(S[self.rows, self.cols], floor)
        terms = self.vals * np.log(L * self.vals / summed)
        if mode == "mean":
            probs = np.divide(S, L, out=S)
        else:
            probs = fuse_probs(P, mode=mode)
        return ImmediateMetrics(probs=probs,
                                hits=_first_argmax(probs.T) == self.cls,
                                regret=float(R.sum()),
                                kl=float(terms.sum() / n))


def immediate_metrics(per_learner, Y_te, mode="mean"):
    """Targets(Y_te).score(per_learner, mode); see Targets.score."""
    return Targets(Y_te).score(per_learner, mode)


def immediate_regret(per_learner, Y_te):
    """Squared Frobenius cost of the raw ensemble sum on the test set.

    || (sum_l P_l - L * Y) / (L * n) ||_F^2 where n is the number of
    test rows. Identical learners cancel the L, so duplicating a
    learner leaves the value unchanged. The regret of immediate_metrics.
    """
    return immediate_metrics(per_learner, Y_te).regret


def immediate_kl(per_learner, Y_te):
    """Divergence of the summed softmax outputs from the targets.

    Mean over test rows of sum_j Y[i,j] * ln(L * Y[i,j] / sum_l P_l[i,j])
    with the convention 0 * ln(0 / x) = 0. Natural logarithm throughout;
    nonnegative for one-hot targets because the summed probabilities
    never exceed L. Summed probabilities are floored at the smallest
    normal double before the log, so a learner that underflows the true
    class yields a large finite divergence instead of inf. The kl of
    immediate_metrics.
    """
    return immediate_metrics(per_learner, Y_te).kl


@dataclass
class TraceSeries:
    """Per-batch evaluation curves collected during a run."""

    t: list = field(default_factory=list)
    acc_seen: list = field(default_factory=list)
    acc_full: list = field(default_factory=list)
    regret: list = field(default_factory=list)
    cum_regret: list = field(default_factory=list)
    kl: list = field(default_factory=list)

    def append(self, t, acc_seen, acc_full, regret, kl):
        prev = self.cum_regret[-1] if self.cum_regret else 0.0
        self.t.append(int(t))
        self.acc_seen.append(float(acc_seen))
        self.acc_full.append(float(acc_full))
        self.regret.append(float(regret))
        self.cum_regret.append(prev + float(regret))
        self.kl.append(float(kl))

    def rows(self):
        return list(
            zip(self.t, self.acc_seen, self.acc_full, self.regret,
                self.cum_regret, self.kl)
        )
