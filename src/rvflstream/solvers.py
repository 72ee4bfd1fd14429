"""Closed-form solvers and rank-b inverse updates.

The streaming learners never refactor a full Gram matrix: every learning
rate matrix eta is carried forward through Woodbury corrections of rank
b (the batch size). A correction's rows W, a b x d block, follow from the
Cholesky factor of the b x b inner system (_correction_rows); writing
eta - W^T W is d x d work, done in row panels and symmetric by
construction (_minus_gram). The learners carry the rows and write them
only on a flush, and take the product D @ eta from the step before when
they can, so no step calls woodbury_update: it is the dense reference,
one product and one write per call. The offline solver offline_kf_fit
computes the same quantities directly and is the exact reference for
what the recursions must reproduce step by step.

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
    solution, which is exact for consistent systems. The adaptive-k rule
    and the offline solves use it; the Woodbury corrections do not, and
    raise instead (_inner_cholesky).
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

    Only the b x b inner system S = I + c * D eta D^T is factorized, so
    the cost per call is independent of how many batches eta has already
    absorbed. With the Cholesky factor S = L L^T and P = D eta, the
    correction is W^T W for the b x d block W = sqrt(c) * L^{-1} P.

    Args:
        eta: d x d symmetric positive definite matrix. Not modified.
        D: b x d data block. b may be zero (the update is a no-op).
        c: nonnegative finite weight on the D^T D term. c == 0 is a
            no-op.
        batch_index: optional stream position, used only in error reports.

    Returns:
        The corrected inverse, one fresh d x d array, symmetric by
        construction: eta - W^T W is formed one row panel at a time,
        each panel is written to the upper triangle and its transpose to
        the lower, so no other d x d temporary is built.

    Raises:
        ContractError: on shape mismatch, or c not in [0, inf).
        NumericalFailure: if the inner b x b system is non-finite or not
            positive definite (so eta is not positive semidefinite), or
            the result contains non-finite entries. The error carries
            batch_index.
    """
    eta = np.asarray(eta, dtype=float)
    D = np.asarray(D, dtype=float)
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        raise ContractError(f"eta must be square, got shape {eta.shape}")
    d = eta.shape[0]
    if D.ndim != 2 or D.shape[1] != d:
        raise ContractError(f"D must have {d} columns, got shape {D.shape}")
    if not 0 <= c < np.inf:
        raise ContractError(f"c must be nonnegative and finite, got {c}")
    if c == 0.0 or D.shape[0] == 0:
        return eta.copy()
    return _minus_gram(eta, _correction_rows(D @ eta, D, c, batch_index)[0],
                       batch_index)


def _correction_rows(P, D, c, batch_index=None):
    """The rows W = sqrt(c) L^{-1} P of a rank-b correction, and L^{-1}.

    S = I + c * P D^T is the b x b inner system and L its Cholesky
    factor (_inner_cholesky, which raises when there is none). With
    c = 1 and P = D eta, L^{-T} W = S^{-1} P is D eta' on the corrected
    eta' = eta - W^T W, the gain of a recursive least squares step.

    Returns:
        (W, L_inv).
    """
    L = _inner_cholesky(np.eye(D.shape[0]) + c * (P @ D.T), batch_index)
    # W = L^{-1} P through the explicit b x b inverse plus one step of
    # refinement on the residual P - L W. np.linalg.solve with d = 1040
    # right-hand sides took ~0.6 ms (2-vCPU x86_64, OpenBLAS) against
    # ~0.06 ms for the product. The unrefined product loses accuracy on
    # the ill-conditioned S of lam = 1e-6: over eight ridge streams of
    # d=192, the median gap to a least squares reference was 3.6e-4
    # unrefined, 1.3e-4 with the solve and 1.4e-4 refined.
    L_inv = np.linalg.inv(L)
    W = L_inv @ P
    residual = L @ W
    np.subtract(P, residual, out=residual)
    W += L_inv @ residual
    W *= np.sqrt(c)
    return W, L_inv


def _inner_cholesky(S, batch_index=None):
    """The Cholesky factor of a Woodbury inner system S = I + c P D^T.

    S is at least I while the carried inverse is positive semidefinite,
    so a failed factorization means that inverse has lost positive
    definiteness, and no step goes on from it: NumericalFailure, stamped
    with batch_index, when S is non-finite or not positive definite.
    """
    if not np.all(np.isfinite(S)):
        raise NumericalFailure(
            "inner system of the Woodbury correction is non-finite",
            batch_index=batch_index,
        )
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "Woodbury inner system is not positive definite",
            batch_index=batch_index,
        ) from exc


def _solve_inner(S, B, batch_index=None):
    """Solve the b x b inner system S X = B of a Woodbury correction.

    _inner_cholesky checks S first; the solve itself is np.linalg.solve.
    """
    _inner_cholesky(S, batch_index)
    return np.linalg.solve(S, B)


def _check_finite(out, batch_index):
    if not np.all(np.isfinite(out)):
        raise NumericalFailure(
            "Woodbury correction produced non-finite entries",
            batch_index=batch_index,
        )


# Rows per panel of _minus_gram, and the strict lower triangle of its
# diagonal blocks. At d=1040, b=20 on a 2-vCPU x86_64 VM, 128- and
# 192-row panels ran equally fast and ahead of 64, 96 and 256 rows;
# the smaller keeps the panel temporaries smaller.
_PANEL = 128
_PANEL_LOWER = np.tri(_PANEL, k=-1, dtype=bool)


def _minus_gram(eta, W, batch_index=None):
    # eta - W^T W, written once and symmetric by construction. Each row
    # panel of the upper triangle is one gemm into the output, minus
    # eta's panel in place, and is checked for finiteness while it is
    # in cache; its transpose then fills the panel's columns below the
    # diagonal block, and the diagonal block mirrors its upper triangle.
    # The only temporaries are a panel-sized bool array and one
    # diagonal block.
    d = eta.shape[0]
    out = np.empty_like(eta)
    for i in range(0, d, _PANEL):
        j = min(i + _PANEL, d)
        upper = out[i:j, i:]
        np.matmul(W[:, i:j].T, W[:, i:], out=upper)
        np.subtract(eta[i:j, i:], upper, out=upper)
        _check_finite(upper, batch_index)
        block = out[i:j, i:j]
        np.copyto(block, block.T, where=_PANEL_LOWER[:j - i, :j - i])
        out[j:, i:j] = out[i:j, j:].T
    return out


@dataclass
class OfflineSolution:
    """A direct (non-recursive) solution of the regularized least squares.

    Attributes:
        theta: d x m weight matrix, the reference the recursive learners
            are checked against.
    """

    theta: np.ndarray


def _checked_block(D, Y, d=None):
    """(D, Y) as float arrays: 2-D, rows agreeing, nonempty, finite."""
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if D.ndim != 2 or Y.ndim != 2 or D.shape[0] != Y.shape[0]:
        raise ContractError(f"row counts must agree: D {D.shape}, Y {Y.shape}")
    if D.shape[0] < 1:
        raise ContractError("at least one row is required")
    if d is not None and D.shape[1] != d:
        raise ContractError(f"batch has {D.shape[1]} columns, expected {d}")
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(Y))):
        raise ContractError("inputs must be finite")
    return D, Y


def offline_ridge_fit(D_all, Y_all, lam):
    """Ridge regression in primal closed form.

    theta = (D^T D + lam * I)^{-1} D^T Y over the full data matrix, which
    is offline_kf_fit on the single block (D_all, Y_all).

    Args:
        D_all: n x d stacked feature rows.
        Y_all: n x m stacked targets.
        lam: positive finite regularization strength.

    Returns:
        OfflineSolution with the fitted weights.
    """
    return offline_kf_fit([(D_all, Y_all)], None, 0.0, lam)


def offline_kf_fit(batches, D_next, k, lam):
    """Direct minimizer of the forward-regularized objective.

    theta = (lam I + sum_i D_i^T D_i + k * D_next^T D_next)^{-1}
            * sum_i D_i^T Y_i

    over labeled batches (D_i, Y_i) for i = 1..t, where D_next is the
    upcoming unlabeled batch and k weights its contribution. With
    D_next=None or k=0 this reduces to ridge on the seen batches. It is
    the package's one offline solver; offline_ridge_fit is its
    single-block call.

    Args:
        batches: sequence of (D_i, Y_i) pairs, at least one, each with
            at least one row, matching row counts and finite entries.
        D_next: finite b x d feature block of the next batch, or None
            at the end of a stream.
        k: nonnegative finite forward weight.
        lam: positive finite regularization strength.

    Returns:
        OfflineSolution for the combined system.
    """
    batches = list(batches)
    if len(batches) < 1:
        raise ContractError("at least one labeled batch is required")
    if not 0 < lam < np.inf:
        raise ContractError(f"lam must be positive and finite, got {lam}")
    if not 0 <= k < np.inf:
        raise ContractError(f"k must be nonnegative and finite, got {k}")

    sums = d = None
    for D_i, Y_i in batches:
        terms = _gram_terms(D_i, Y_i, d)
        d = len(terms[0])
        sums = _add_terms(sums, terms, lam)
    gram, cross = sums
    if D_next is not None:
        D_next = np.asarray(D_next, dtype=float)
        if D_next.ndim != 2 or D_next.shape[1] != d or not np.all(np.isfinite(D_next)):
            raise ContractError(f"D_next must be finite with {d} columns, got {D_next.shape}")
        if k != 0.0:
            gram += k * (D_next.T @ D_next)
    return _solve_terms(gram, cross)


def _gram_terms(D, Y, d=None):
    """One labeled block's (D^T D, D^T Y), after _checked_block's checks."""
    D, Y = _checked_block(D, Y, d)
    return D.T @ D, D.T @ Y


def _add_terms(sums, terms, lam):
    """The running (gram, cross) of offline_kf_fit with one block added.

    sums None starts the Gram at lam * I and the cross term at the
    block's own; otherwise the block's Gram is added in place and its
    cross term added out of place, so terms are never written and the
    sums of any task order equal offline_kf_fit's over that order.
    """
    gram_i, cross_i = terms
    if sums is None:
        gram = lam * np.eye(len(gram_i))
        gram += gram_i
        return gram, cross_i
    gram, cross = sums
    gram += gram_i
    return gram, cross + cross_i


def _solve_terms(gram, cross):
    """OfflineSolution of gram theta = cross; NumericalFailure if not finite."""
    theta = solve_spd(gram, cross)
    if not np.all(np.isfinite(theta)):
        raise NumericalFailure("offline solve produced non-finite weights")
    return OfflineSolution(theta=theta)
