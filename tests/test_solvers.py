"""Closed-form solver and Woodbury-update tests.

Expected values marked "hand" were computed on paper from the 1x1 or
2x2 closed forms and are frozen here as literals.
"""

import numpy as np
import pytest

from rvflstream.errors import ContractError, NumericalFailure
from rvflstream.solvers import (
    _PANEL,
    offline_kf_fit,
    offline_ridge_fit,
    solve_spd,
    woodbury_update,
)


def _ridge_dual(D, Y, lam):
    # Dual form of ridge, theta = D^T (D D^T + lam I)^{-1} Y: an
    # independent route to offline_ridge_fit's weights.
    return D.T @ solve_spd(D @ D.T + lam * np.eye(len(D)), Y)


def random_psd(rng, d, rank=None):
    A = rng.standard_normal((rank or d + 2, d))
    return A.T @ A


class TestSolveSpd:
    def test_matches_generic_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            A = random_psd(rng, d) + 0.5 * np.eye(d)
            B = rng.standard_normal((d, 3))
            assert np.allclose(solve_spd(A, B), np.linalg.solve(A, B),
                               rtol=1e-10, atol=1e-10)

    def test_semidefinite_falls_back(self):
        # Rank-deficient but consistent system: A = vv^T, B = vv^T.
        v = np.array([[1.0], [2.0]])
        A = v @ v.T
        X = solve_spd(A, A)
        assert np.allclose(A @ X, A, atol=1e-8)


class TestWoodburyUpdate:
    def test_scalar_hand_case(self):
        # eta=1, D=[[1]], c=1: (1 + 1)^{-1} = 0.5, by hand.
        out = woodbury_update(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_weight_is_identity(self):
        rng = np.random.default_rng(0)
        eta = np.linalg.inv(random_psd(rng, 4) + np.eye(4))
        D = rng.standard_normal((3, 4))
        out = woodbury_update(eta, D, 0.0)
        assert np.array_equal(out, eta)
        assert out is not eta

    def test_empty_batch_is_identity(self):
        eta = np.eye(3)
        out = woodbury_update(eta, np.zeros((0, 3)), 2.0)
        assert np.array_equal(out, eta)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            b = int(rng.integers(1, 6))
            lam = float(rng.uniform(0.1, 2.0))
            base = random_psd(rng, d) + lam * np.eye(d)
            eta = np.linalg.inv(base)
            D = rng.standard_normal((b, d))
            c = float(rng.uniform(0.0, 3.0))
            direct = np.linalg.inv(base + c * (D.T @ D))
            out = woodbury_update(eta, D, c)
            assert np.max(np.abs(out - direct)) < 1e-8

    def test_output_is_symmetric(self):
        rng = np.random.default_rng(3)
        eta = np.linalg.inv(random_psd(rng, 5) + np.eye(5))
        out = woodbury_update(eta, rng.standard_normal((2, 5)), 1.7)
        assert np.array_equal(out, out.T)

    def test_non_finite_inner_system_is_numerical_failure(self):
        D = np.array([[1e170, 1.0]])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalFailure, match="batch=7"):
            woodbury_update(np.eye(2), D, 1.0, batch_index=7)

    @pytest.mark.parametrize("c", [-0.5, np.nan, np.inf])
    def test_rejects_negative_weight(self, c):
        with pytest.raises(ContractError, match="c must"):
            woodbury_update(np.eye(2), np.ones((1, 2)), c)

    def test_rejects_column_mismatch(self):
        with pytest.raises(ContractError):
            woodbury_update(np.eye(2), np.ones((1, 3)), 1.0)


class TestPanelledUpdate:
    # The update writes eta - W^T W in row panels of solvers._PANEL rows;
    # both widths span several panels and end on a partial one.
    @pytest.fixture(scope="class", params=[300, 1040])
    def system(self, request):
        d = request.param
        assert d > 2 * _PANEL and d % _PANEL != 0
        rng = np.random.default_rng(d)
        A = rng.standard_normal((d, d)) / np.sqrt(d)
        base = A @ A.T + np.eye(d)
        return base, np.linalg.inv(base)

    @pytest.mark.parametrize("b", [1, 20])
    @pytest.mark.parametrize("c", [0.5, 1.0, 3.7])
    def test_symmetric_and_matches_direct_inverse(self, system, b, c):
        base, eta = system
        d = base.shape[0]
        D = np.random.default_rng(d + b).standard_normal((b, d))
        out = woodbury_update(eta, D, c)
        direct = np.linalg.inv(base + c * (D.T @ D))
        assert np.array_equal(out, out.T)
        assert np.linalg.norm(out - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_indefinite_inner_system_is_numerical_failure(self, monkeypatch):
        # eta = -I makes S = I - D D^T indefinite: the Cholesky test fails
        # and the update stops, naming the batch, without a least squares
        # solve of S.
        from rvflstream import solvers

        def unreached(A, B):
            raise AssertionError("least squares fallback reached")

        monkeypatch.setattr(solvers, "_ldl_solve", unreached)
        d, b = 300, 4
        eta = -np.eye(d)
        D = np.random.default_rng(8).standard_normal((b, d))
        with pytest.raises(NumericalFailure, match="not positive definite batch=5"):
            woodbury_update(eta, D, 1.0, batch_index=5)


class TestOfflineRidge:
    def test_scalar_hand_case(self):
        # (1 + 1)^{-1} * 1 = 0.5, by hand.
        sol = offline_ridge_fit(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        assert sol.theta[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_primal_equals_dual(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, d, m = 8, 5, 3
            D = rng.standard_normal((n, d))
            Y = rng.standard_normal((n, m))
            lam = float(rng.uniform(0.2, 2.0))
            primal = offline_ridge_fit(D, Y, lam).theta
            dual = _ridge_dual(D, Y, lam)
            assert np.allclose(primal, dual, rtol=1e-9, atol=1e-9)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((12, 4))
        Y = rng.standard_normal((12, 2))
        sol = offline_ridge_fit(D, Y, 0.7)
        lhs = (D.T @ D + 0.7 * np.eye(4)) @ sol.theta
        assert np.allclose(lhs, D.T @ Y, rtol=1e-10, atol=1e-10)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ContractError):
            offline_ridge_fit(np.ones((2, 2)), np.ones((2, 1)), 0.0)

    def test_dual_rejects_what_the_primal_rejects(self):
        for D, Y in ((np.ones((3, 2)), np.ones((2, 1))),
                     (np.full((2, 2), np.nan), np.ones((2, 1)))):
            with pytest.raises(ContractError):
                offline_ridge_fit(D, Y, 1.0)


class TestOfflineForwardFit:
    def test_scalar_hand_case(self):
        # gram = 1 + 1 + 1*4 = 6, cross = 1, theta = 1/6, by hand.
        sol = offline_kf_fit(
            [(np.array([[1.0]]), np.array([[1.0]]))],
            np.array([[2.0]]), 1.0, 1.0,
        )
        assert sol.theta[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_k_zero_is_ridge(self):
        rng = np.random.default_rng(9)
        D = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 2))
        DN = rng.standard_normal((6, 3))
        ridge = offline_ridge_fit(D, Y, 1.3).theta
        kf = offline_kf_fit([(D, Y)], DN, 0.0, 1.3).theta
        assert np.array_equal(ridge, kf)

    def test_none_next_is_ridge(self):
        rng = np.random.default_rng(10)
        D = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 2))
        ridge = offline_ridge_fit(D, Y, 0.8).theta
        kf = offline_kf_fit([(D, Y)], None, 2.0, 0.8).theta
        assert np.array_equal(ridge, kf)

    def test_multi_batch_matches_concatenation(self):
        rng = np.random.default_rng(12)
        parts = [(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
                 for _ in range(3)]
        D_all = np.vstack([p[0] for p in parts])
        Y_all = np.vstack([p[1] for p in parts])
        a = offline_kf_fit(parts, None, 0.0, 1.0).theta
        b = offline_ridge_fit(D_all, Y_all, 1.0).theta
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_rejects_empty_batches(self):
        with pytest.raises(ContractError):
            offline_kf_fit([], None, 0.0, 1.0)

    @pytest.mark.parametrize("case", [
        "mismatched_rows", "empty_block", "nonfinite_block", "nonfinite_next",
        "inf_lam", "nan_k", "inf_k",
    ])
    def test_rejects_malformed_inputs(self, case):
        good = (np.ones((4, 3)), np.ones((4, 2)))
        bad, D_next, k, lam = good, np.ones((2, 3)), 0.5, 1.0
        if case == "mismatched_rows":
            bad = (np.ones((4, 3)), np.ones((3, 2)))
        elif case == "empty_block":
            bad = (np.ones((0, 3)), np.ones((0, 2)))
        elif case == "nonfinite_block":
            bad = (np.full((4, 3), np.inf), np.ones((4, 2)))
        elif case == "inf_lam":
            lam = np.inf
        elif case == "nan_k":
            k = np.nan
        elif case == "inf_k":
            k = np.inf
        else:
            D_next = np.full((2, 3), np.nan)
        name = {"inf_lam": "^lam ", "nan_k": "^k ", "inf_k": "^k "}.get(case)
        with pytest.raises(ContractError, match=name):
            offline_kf_fit([good, bad], D_next, k, lam)

