"""Random feature backbone and ensemble fusion tests."""

import numpy as np
import pytest

from rvflstream.errors import ContractError, NumericalFailure
from rvflstream.network import (
    ACTIVATIONS,
    BLOCK_ROWS,
    NetworkConfig,
    extract_features,
    fuse_probs,
    init_random_weights,
    row_blocks,
    softmax,
)


def small_config(**overrides):
    base = dict(L=3, N=5, s=4, m=3, activation="relu", lam=1.0, seed=0)
    base.update(overrides)
    return NetworkConfig(**base)


class TestActivations:
    def test_known_values(self):
        z = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(ACTIVATIONS["relu"](z), [0.0, 0.0, 3.0])
        assert np.allclose(ACTIVATIONS["leaky_relu"](z), [-0.02, 0.0, 3.0])
        assert np.allclose(ACTIVATIONS["sigmoid"](np.array([0.0])), [0.5])
        assert np.allclose(ACTIVATIONS["tanh"](np.array([0.0])), [0.0])
        # swish(z) = z * sigmoid(z); swish(0) = 0, swish(1) = 1/(1+e^-1).
        assert ACTIVATIONS["swish"](np.array([1.0]))[0] == pytest.approx(
            1.0 / (1.0 + np.exp(-1.0))
        )

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = ACTIVATIONS["sigmoid"](np.array([-1000.0, 1000.0]))
        assert np.array_equal(out, [0.0, 1.0])

    def test_all_registered(self):
        assert set(ACTIVATIONS) == {"relu", "leaky_relu", "sigmoid", "tanh",
                                    "swish"}

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractError):
            small_config(activation="gelu")

    @pytest.mark.parametrize("activation", [["relu"], {"relu": 1}, None])
    def test_non_string_activation_rejected(self, activation):
        # A list or a dict used to reach the dict lookup and raise
        # TypeError: unhashable.
        with pytest.raises(ContractError, match="unknown activation"):
            small_config(activation=activation)


class TestNetworkConfig:
    def test_scalar_lam_broadcasts(self):
        cfg = small_config(lam=0.5)
        assert cfg.lambdas == (0.5, 0.5, 0.5)

    def test_per_layer_lam(self):
        cfg = small_config(lam=(0.1, 0.2, 0.3))
        assert cfg.lambdas == (0.1, 0.2, 0.3)

    def test_lam_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            small_config(lam=(0.1, 0.2))

    def test_feature_dim(self):
        assert small_config().feature_dim == 9  # N + s

    def test_invalid_sizes_rejected(self):
        # m=1 is a degenerate classifier and rejected alongside zeros.
        for bad in (dict(L=0), dict(N=0), dict(s=0), dict(m=1)):
            with pytest.raises(ContractError):
                small_config(**bad)


class TestRandomWeights:
    def test_shapes(self):
        cfg = small_config()
        w = init_random_weights(cfg)
        assert len(w.layers) == 3
        assert w.layers[0].shape == (4, 5)          # s x N
        assert w.layers[1].shape == (9, 5)          # (N + s) x N
        assert w.layers[2].shape == (9, 5)

    def test_deterministic_by_seed(self):
        a = init_random_weights(small_config(seed=123))
        b = init_random_weights(small_config(seed=123))
        c = init_random_weights(small_config(seed=124))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la, lb)
        assert not np.array_equal(a.layers[0], c.layers[0])

    def test_range_and_immutability(self):
        w = init_random_weights(small_config(seed=1))
        for layer in w.layers:
            assert layer.min() >= -1.0 and layer.max() <= 1.0
            with pytest.raises(ValueError):
                layer[0, 0] = 0.0


class TestExtractFeatures:
    def test_shapes_and_reconnection(self):
        cfg = small_config(N=6, s=4)
        w = init_random_weights(cfg)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 4))
        feats = extract_features(X, w, cfg, t=5)
        assert len(feats) == cfg.L
        for fb in feats:
            assert fb.D.shape == (7, 10)            # b x (N + s)
            assert fb.t == 5
            # The raw input rides along as the last s columns.
            assert np.array_equal(fb.D[:, -4:], X)

    def test_layer_chain(self):
        # Layer l>1 reads the previous layer's full block, by definition.
        cfg = small_config(L=2, N=3, s=2, activation="tanh")
        w = init_random_weights(cfg)
        X = np.array([[0.5, -1.0], [2.0, 0.25]])
        feats = extract_features(X, w, cfg)
        H1 = np.tanh(X @ w.layers[0])
        D1 = np.hstack([H1, X])
        assert np.allclose(feats[0].D, D1, rtol=1e-15)
        H2 = np.tanh(D1 @ w.layers[1])
        assert np.allclose(feats[1].D, np.hstack([H2, X]), rtol=1e-15)

    @pytest.mark.parametrize("N", [12, 33])
    def test_layout_does_not_change_a_bit(self, N):
        # Every D is stored row-major and each forward gemm reads
        # row-major rows, whatever the layout of X: at 52 rows and N=33,
        # OpenBLAS rounds a column-major D @ W differently, so a
        # column-major operand would move the deeper layers' last bits.
        cfg = small_config(N=N, s=5)
        w = init_random_weights(cfg)
        X = np.random.default_rng(1).standard_normal((52, 5))
        want = [fb.D for fb in extract_features(X, w, cfg)]
        for X_in in (X, np.asfortranarray(X)):
            got = extract_features(X_in, w, cfg)
            for fb, D in zip(got, want):
                assert fb.D.flags.c_contiguous
                assert np.array_equal(fb.D, D)

    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 7])
    def test_row_blocks_do_not_change_a_bit(self, n):
        # A partial last block, or one row past a whole block, against
        # every layer run on the whole matrix at once, row-major.
        cfg = small_config(N=33, s=5)
        w = init_random_weights(cfg)
        X = np.random.default_rng(3).standard_normal((n, 5))
        act = ACTIVATIONS[cfg.activation]
        want, D = [], X
        for W in w.layers:
            D = np.hstack([act(D @ W), X])
            want.append(D)
        for X_in in (X, np.asfortranarray(X)):
            got = extract_features(X_in, w, cfg)
            for fb, D in zip(got, want):
                assert fb.D.flags.c_contiguous
                assert np.array_equal(fb.D, D)

    @pytest.mark.parametrize("n", [0, 1, 20, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 1])
    def test_row_blocks_cover_the_rows_without_a_one_row_block(self, n):
        blocks = list(row_blocks(n))
        assert [i for blk in blocks for i in range(n)[blk]] == list(range(n))
        sizes = [blk.stop - blk.start for blk in blocks]
        assert all(size == BLOCK_ROWS for size in sizes[:-1])
        assert all(1 < size <= BLOCK_ROWS + 1 for size in sizes) or sizes == [1]

    def test_nonfinite_input_rejected(self):
        cfg = small_config()
        w = init_random_weights(cfg)
        X = np.full((2, 4), np.inf)
        with pytest.raises(ContractError):
            extract_features(X, w, cfg)

    def test_overflow_during_extraction_raises(self):
        # Finite input whose first-layer products overflow to inf.
        cfg = small_config(seed=0)
        w = init_random_weights(cfg)
        X = np.full((2, 4), 1e308)
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
            extract_features(X, w, cfg)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        P = softmax(rng.standard_normal((20, 6)) * 50)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)

    def test_shift_invariance(self):
        Z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(Z), softmax(Z + 1000.0), atol=1e-12)

    def test_large_logits_stay_finite(self):
        P = softmax(np.array([[1e300, 0.0], [-1e300, 0.0]]))
        assert np.all(np.isfinite(P))

    def test_stack_equals_each_layer_and_leaves_input(self):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((3, 7, 4)) * 20
        before = Z.copy()
        P = softmax(Z)
        assert P.shape == Z.shape
        for layer in range(3):
            assert np.array_equal(P[layer], softmax(Z[layer]))
        assert np.array_equal(Z, before)


class TestEnsemble:
    def test_mean_hand_case(self):
        # softmax([0,0]) = (.5,.5); softmax([ln3,0]) = (.75,.25);
        # mean = (.625,.375), by hand.
        probs = fuse_probs(
            softmax([np.array([[0.0, 0.0]]), np.array([[np.log(3.0), 0.0]])]),
            mode="mean",
        )
        assert np.allclose(probs, [[0.625, 0.375]], atol=1e-12)

    def test_median_renormalizes(self):
        rng = np.random.default_rng(4)
        logits = [rng.standard_normal((5, 3)) for _ in range(4)]
        probs = fuse_probs(softmax(logits), mode="median")
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_learner_passthrough(self):
        Z = np.array([[1.0, -1.0, 0.0]])
        assert np.allclose(fuse_probs(softmax([Z])), softmax(Z), atol=1e-15)

    def test_fuse_rejects_empty_and_bad_mode(self):
        with pytest.raises(ContractError):
            fuse_probs([])
        with pytest.raises(ContractError):
            fuse_probs([np.ones((1, 2))], mode="max")

    def test_fuse_rejects_shape_mismatch(self):
        with pytest.raises(ContractError):
            fuse_probs([np.ones((1, 2)), np.ones((2, 2))])

    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_fuse_takes_the_stack_or_its_list(self, mode):
        rng = np.random.default_rng(6)
        P = softmax(rng.standard_normal((4, 5, 3)))
        assert np.array_equal(fuse_probs(P, mode), fuse_probs(list(P), mode))

    def test_ragged_lists_are_contract_errors(self):
        ragged = [np.ones((2, 3)), np.ones((2, 2))]
        with pytest.raises(ContractError):
            fuse_probs(ragged)
        with pytest.raises(ContractError):
            fuse_probs(np.ones((2, 3)))

    def test_median_of_disjoint_learners_falls_back_to_mean(self):
        # Row 0: three one-hot learners on three classes, every median 0.
        # Row 1: two learners agree, so the median is one-hot.
        P = np.array([
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
            [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]],
        ])
        fused = fuse_probs(P, mode="median")
        assert np.all(np.isfinite(fused))
        assert np.array_equal(fused[0], P[:, 0].mean(axis=0))
        assert np.array_equal(fused[1], [0.0, 1.0, 0.0])
        assert np.allclose(fused.sum(axis=1), 1.0, atol=1e-15)
