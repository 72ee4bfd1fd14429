"""Experiment runner, report emission, and CLI tests."""

import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from perfbench.workloads import pixel_standin, write_idx
from rvflstream import cli
from rvflstream.errors import ConfigError, ContractError, NumericalFailure
from rvflstream.learners import ContinualModel, RegStyle, compute_adaptive_k
from rvflstream.metrics import TraceSeries
from rvflstream.runner import (
    RunReport,
    compare_styles,
    emit_report,
    load_config,
    run_experiment,
    stream_sha256,
    validate_config,
    with_seed_offset,
)
from rvflstream.network import (
    NetworkConfig,
    extract_features,
    fuse_probs,
    init_random_weights,
    softmax,
)
from rvflstream.solvers import offline_ridge_fit
from rvflstream.stream import (
    HeldRows,
    LabeledDataset,
    TaskSplitSpec,
    batchify,
    load_csv_features,
    make_gaussian_dataset,
    one_hot,
    split_class_incremental,
)


def assert_same_bits(got, want):
    """Equal shapes and float64 bit patterns, NaN included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def base_tree(**overrides):
    tree = {
        "dataset": {"kind": "synthetic", "classes": 4, "dims": 5,
                    "separation": 3.0, "samples": 20, "test_samples": 10},
        "split": {"Q": 2},
        "batch_size": 8,
        "network": {"L": 2, "N": 6, "lam": 1.0},
        "style": {"kind": "kf_bayes"},
        "seeds": {"weights": 3, "order": 4, "synthetic": 5},
    }
    tree.update(overrides)
    return tree


class TestValidateConfig:
    def test_accepts_base_tree(self):
        cfg = validate_config(base_tree())
        assert cfg.split.Q == 2
        assert cfg.network["seed"] == 3
        assert cfg.split.order_seed == 4
        assert cfg.dataset["seed"] == 5
        assert cfg.style.kind == "kf_bayes"

    def test_missing_dataset_rejected(self):
        tree = base_tree()
        del tree["dataset"]
        with pytest.raises(ConfigError, match="dataset"):
            validate_config(tree)

    def test_unknown_dataset_kind_rejected(self):
        tree = base_tree()
        tree["dataset"]["kind"] = "parquet"
        with pytest.raises(ConfigError, match="dataset.kind"):
            validate_config(tree)

    def test_missing_synthetic_field_rejected(self):
        tree = base_tree()
        del tree["dataset"]["separation"]
        with pytest.raises(ConfigError, match="separation"):
            validate_config(tree)

    def test_nonexistent_csv_path_rejected(self):
        tree = base_tree()
        tree["dataset"] = {"kind": "csv", "train": "/nonexistent/a.csv",
                           "test": "/nonexistent/b.csv"}
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(tree)

    def test_bad_eval_every_rejected(self):
        with pytest.raises(ConfigError, match="eval_every"):
            validate_config(base_tree(eval_every="epoch"))

    def test_bad_ensemble_rejected(self):
        with pytest.raises(ConfigError, match="ensemble"):
            validate_config(base_tree(ensemble="vote"))

    def test_bad_style_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="style"):
            validate_config(base_tree(style={"kind": "dropout"}))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            validate_config(base_tree(batch_size=0))

    @pytest.mark.parametrize("section, key", [
        ("config", "repeats"),
        ("dataset", "seed"),
        ("split", "batches_per_class"),
        ("network", "lamda"),
        ("style", "kk"),
        ("seeds", "weight"),
    ])
    def test_unknown_key_rejected(self, section, key):
        tree = base_tree()
        (tree if section == "config" else tree[section])[key] = 1
        with pytest.raises(ConfigError, match=f"{section}: unknown key '{key}'"):
            validate_config(tree)

    def test_dataset_keys_follow_kind(self, tmp_path):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("0.5,1.5,0\n1.5,0.5,1\n")
        tree = base_tree(dataset={"kind": "csv", "m": 4,
                                  "train": str(tmp_path / "train.csv"),
                                  "test": str(tmp_path / "test.csv")})
        assert validate_config(tree).dataset["m"] == 4
        tree["dataset"]["kind"] = "idx"
        with pytest.raises(ConfigError, match="dataset: unknown key"):
            validate_config(tree)

    def test_defaults(self):
        cfg = validate_config(base_tree())
        assert cfg.eval_every == "batch"
        assert cfg.ensemble == "mean"
        assert cfg.baselines is True


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(base_tree()))
        cfg = load_config(p)
        assert cfg.batch_size == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("dataset: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(p)


class TestSeedOffset:
    def test_zero_is_identity(self):
        cfg = validate_config(base_tree())
        assert with_seed_offset(cfg, 0) is cfg

    def test_offsets_every_seed(self):
        cfg = validate_config(base_tree())
        shifted = with_seed_offset(cfg, 7)
        assert shifted.network["seed"] == 10
        assert shifted.split.order_seed == 11
        assert shifted.dataset["seed"] == 12
        assert cfg.network["seed"] == 3      # original untouched

    def test_echoed_seeds_reproduce_the_run(self):
        # Offset 5 on seeds (3, 4, 5) runs with (8, 9, 10); the report
        # used to echo the unshifted seeds.
        shifted = run_experiment(with_seed_offset(validate_config(base_tree()), 5))
        want = {"weights": 8, "order": 9, "synthetic": 10}
        assert shifted.seeds == want
        assert shifted.config["seeds"] == want
        again = run_experiment(validate_config(base_tree(seeds=shifted.seeds)))
        assert again.stream_hash == shifted.stream_hash
        assert again.final == shifted.final


class TestRunExperiment:
    def test_end_to_end_report(self):
        report = run_experiment(validate_config(base_tree()))
        T = report.resolved["T"]
        assert T == 10                       # 80 rows / batch_size 8
        assert len(report.trace.t) == T      # eval_every batch
        assert len(report.wall_clock) == T
        assert report.boundary_audit["ok"]
        assert report.boundary_audit["sanctioned_reads"] == 2
        assert not np.any(np.isnan(report.acc_matrix[np.tril_indices(2)]))
        assert set(report.baselines) == {"offline", "separate", "fine_tune",
                                         "non_incremental"}
        for key in ("acc", "bwt", "fwt", "acc_full", "acc_seen",
                    "cum_regret"):
            assert report.final[key] is not None
        # One (k_cur, k_next) row per layer per batch.
        assert len(report.k_trace_rows) == 2 * T

    def test_eval_every_task_only_logs_boundaries(self):
        report = run_experiment(
            validate_config(base_tree(eval_every="task"))
        )
        assert report.trace.t == report.resolved["task_end_batches"]

    def test_deterministic_given_seeds(self):
        a = run_experiment(validate_config(base_tree()))
        b = run_experiment(validate_config(base_tree()))
        assert a.stream_hash == b.stream_hash
        assert a.final == b.final
        assert np.array_equal(a.acc_matrix, b.acc_matrix, equal_nan=True)
        assert a.k_trace_rows == b.k_trace_rows

    def test_seed_changes_stream(self):
        a = run_experiment(validate_config(base_tree()))
        b = run_experiment(with_seed_offset(validate_config(base_tree()), 1))
        assert a.stream_hash != b.stream_hash

    def test_baselines_can_be_disabled(self):
        report = run_experiment(validate_config(base_tree(baselines=False)))
        assert report.baselines == {}
        assert report.final["fwt"] is None

    def test_standardized_run_fits_baselines_on_the_learners_inputs(self):
        # Under network.standardize the learner z-scores with its first
        # batch's statistics; the baselines must see the same inputs, so
        # offline equals a ridge fit on the standardized pooled features.
        # On this data raw inputs give offline 0.95, the learner's 0.935.
        tree = base_tree(dataset={"kind": "synthetic", "classes": 4, "dims": 12,
                                  "separation": 1.0, "samples": 40,
                                  "test_samples": 50})
        tree["network"]["standardize"] = True
        config = validate_config(tree)
        report = run_experiment(config)

        train, test = make_gaussian_dataset(seed=config.dataset["seed"], **{
            k: config.dataset[k] for k in ("classes", "dims", "separation",
                                           "samples", "test_samples")})
        net = NetworkConfig(s=train.X.shape[1], m=train.m, **config.network)
        tasks = split_class_incremental(train, config.split)
        first = batchify(tasks, config.batch_size, train.m)[0].X
        mu, sd = first.mean(axis=0), first.std(axis=0)
        weights = init_random_weights(net)
        pooled = [fb.D for fb in extract_features(
            (np.vstack([tk.X for tk in tasks]) - mu) / sd, weights, net)]
        y = np.concatenate([tk.y for tk in tasks])
        heads = [offline_ridge_fit(D, one_hot(y, train.m), lam).theta
                 for D, lam in zip(pooled, net.lambdas)]
        feats = [fb.D for fb in extract_features((test.X - mu) / sd, weights, net)]
        probs = fuse_probs(np.stack([softmax(D @ th) for D, th in zip(feats, heads)]))
        hit = probs.argmax(axis=1) == test.y
        offline = report.baselines["offline"]
        assert offline.accuracy == float(np.mean(hit))
        for q, tk in enumerate(tasks):
            rows = np.isin(test.y, tk.classes)
            assert offline.per_task_accuracy[q] == float(np.mean(hit[rows]))


def _write_pixel_standin(root, seed, train_per_class, test_per_class,
                         classes=10):
    """The pixel_standin images as idx files; returns their dataset block."""
    paths = {}
    splits = pixel_standin(seed, train_per_class, test_per_class, classes)
    for split, (images, labels) in zip(("train", "test"), splits):
        paths[f"{split}_images"] = str(root / f"{split}-images")
        paths[f"{split}_labels"] = str(root / f"{split}-labels")
        write_idx(paths[f"{split}_images"], paths[f"{split}_labels"],
                  images, labels)
    return {"kind": "idx", **paths}


class TestPixelStream:
    def test_adaptive_style_keeps_ridge_accuracy_at_small_lam(self, tmp_path):
        # d = 784 + 64 at lam = 1e-6: a kf_bayes head that keeps a stale
        # forward weight from one step to the next drifts off the closed
        # form in its deeper layers (0.38 final accuracy here against
        # ridge's 1.0). The closed-form head stays with ridge.
        dataset = _write_pixel_standin(tmp_path, 3, 100, 50)

        def final(kind):
            return run_experiment(validate_config({
                "dataset": dataset,
                "split": {"Q": 5},
                "batch_size": 20,
                "network": {"L": 3, "N": 64, "lam": 1e-6},
                "style": {"kind": kind, "init_mode": "theorem"},
                "eval_every": "task",
                "baselines": False,
                "seeds": {"weights": 3, "order": 3},
            })).final["acc"]

        ridge, bayes = final("ridge"), final("kf_bayes")
        assert bayes >= ridge - 0.05, f"kf_bayes {bayes:.3f}, ridge {ridge:.3f}"


class TestRawPixelStream:
    # Raw 0-255 pixels at lam = 1e-6: the recursive inverse Gram loses
    # positive definiteness, and a Woodbury inner system without a
    # Cholesky factor stops the run. Standardized inputs keep it definite.
    @staticmethod
    def write_csv(root, train_per_class, test_per_class):
        paths = {}
        splits = pixel_standin(461, train_per_class, test_per_class)
        for split, (images, labels) in zip(("train", "test"), splits):
            paths[split] = str(root / f"{split}.csv")
            np.savetxt(paths[split],
                       np.column_stack([images.reshape(len(images), -1), labels]),
                       fmt="%d", delimiter=",")
        return {"kind": "csv", **paths}

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        return self.write_csv(tmp_path_factory.mktemp("raw"), 100, 50)

    @staticmethod
    def tree(dataset, kind, standardize=False):
        return {
            "dataset": dataset,
            "split": {"Q": 5},
            "batch_size": 20,
            "network": {"L": 3, "N": 128, "lam": 1e-6,
                        "standardize": standardize},
            "style": {"kind": kind},
            "eval_every": "task",
            "baselines": standardize,
            "seeds": {"weights": 461, "order": 461, "synthetic": 461},
        }

    @staticmethod
    def assert_exits_3(tree, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(tree))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "not positive definite batch=" in err and " layer=" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ridge", "kf_bayes"])
    def test_indefinite_inverse_exits_3_naming_batch_and_layer(
            self, tmp_path, capsys, dataset, kind):
        self.assert_exits_3(self.tree(dataset, kind), tmp_path, capsys)

    def test_kf_stops_where_ridge_and_kf_bayes_stop(self, tmp_path, capsys):
        # On pixel_standin(461, 200, 100) at N = 256 and lam = 1e-3, kf
        # at k = 0.5 loses positive definiteness of eta_dag where ridge
        # and kf_bayes do. Its batch moves with the BLAS thread count
        # (61 at one thread, 62 at two), so only the naming is checked.
        tree = self.tree(self.write_csv(tmp_path, 200, 100), "kf")
        tree["network"].update(N=256, lam=1e-3)
        tree["style"].update(k=0.5, init_mode="theorem")
        self.assert_exits_3(tree, tmp_path, capsys)

    def test_standardized_ridge_reaches_offline(self, tmp_path, dataset):
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(self.tree(dataset, "ridge", True)))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        offline = report["baselines"]["offline"]["accuracy"]
        assert report["final"]["acc"] >= offline - 0.05

    def test_k_rule_keeps_its_least_squares_path(self, monkeypatch):
        # P + sigma I of the k rule can be singular in floating point
        # while eta_dag is positive definite; the rule solves it by least
        # squares instead of stopping. The raw first batch does not
        # reach it: its k come from the gain's projection I - S^{-1},
        # which is well conditioned. Two equal rows of norm
        # 1e15 at eta = I make P + sigma I singular: sigma is lost
        # against entries of 1e30.
        from rvflstream import solvers

        calls, ldl = [], solvers._ldl_solve

        def counted(A, B):
            calls.append(A.shape)
            return ldl(A, B)

        monkeypatch.setattr(solvers, "_ldl_solve", counted)
        (images, labels), _ = pixel_standin(461, 100, 50)
        train = LabeledDataset(images.reshape(len(images), -1), labels, 10)
        stream = batchify(split_class_incremental(train, TaskSplitSpec(5, 461)),
                          20, 10)
        model = ContinualModel(
            NetworkConfig(L=3, N=128, s=784, m=10, lam=1e-6, seed=461),
            RegStyle("kf_bayes"))
        model.observe(stream[0].X, stream[0].Y, stream[1].X)
        assert model.t == 1
        assert calls == []
        D = np.array([[1e15, 0.0], [1e15, 0.0]])
        k = compute_adaptive_k(D, np.eye(2), kappa=1.0, sigma=1e-5)
        assert calls == [(2, 2)]
        assert np.isfinite(k)


class TestTrainingRowsHeldOnce:
    @pytest.mark.parametrize("kind", ["synthetic", "idx"])
    def test_loaded_train_set_is_released_before_the_model_is_built(
            self, tmp_path, monkeypatch, kind):
        # The task split holds the only copy of the training rows; the
        # loaded set must not outlive it.
        from rvflstream import runner

        load, model_class = runner._load_datasets, runner.ContinualModel
        loaded, released = [], []

        def watched_load(ds):
            train, test = load(ds)
            loaded.append(weakref.ref(train.rows.held))
            return train, test

        def record_model(*args, **kwargs):
            released.append(loaded[-1]() is None)
            return model_class(*args, **kwargs)

        monkeypatch.setattr(runner, "_load_datasets", watched_load)
        monkeypatch.setattr(runner, "ContinualModel", record_model)
        tree = base_tree()
        if kind == "idx":
            tree.update(dataset=_write_pixel_standin(tmp_path, 3, 10, 5),
                        split={"Q": 5})
        report = run_experiment(validate_config(tree))
        assert released == [True]
        assert report.boundary_audit["ok"]


class TestHeldPixelsThroughTheRunner:
    def test_pixels_stay_bytes_and_each_step_gets_its_x_next(
            self, tmp_path, monkeypatch):
        # The tasks and the test set hold the idx file's uint8; each
        # step's X_t is the very array the step before received as
        # X_next, so observe compares nothing, and every batch the
        # learner sees is read-only float64.
        from rvflstream import runner

        calls, stream_tasks, store_inputs = [], [], []
        observe = ContinualModel.observe
        eval_features = ContinualModel.eval_features

        def spied_observe(self, X_t, Y_t, X_next=None):
            calls.append((X_t, X_next))
            return observe(self, X_t, Y_t, X_next)

        def spied_eval_features(self, X):
            store_inputs.append(X)
            return eval_features(self, X)

        def spied_batchify(tasks, b, m):
            stream_tasks.extend(tasks)
            return batchify(tasks, b, m)

        monkeypatch.setattr(ContinualModel, "observe", spied_observe)
        monkeypatch.setattr(ContinualModel, "eval_features", spied_eval_features)
        monkeypatch.setattr(runner, "batchify", spied_batchify)
        tree = base_tree(dataset=_write_pixel_standin(tmp_path, 3, 10, 5),
                         split={"Q": 5}, batch_size=6, baselines=True)
        report = run_experiment(validate_config(tree))

        assert all(tk.rows.held.dtype == np.uint8 for tk in stream_tasks)
        assert [type(X) for X in store_inputs] == [HeldRows]
        assert store_inputs[0].held.dtype == np.uint8
        assert len(calls) == report.resolved["T"] == 17
        for (_, handed), (X_t, _) in zip(calls, calls[1:]):
            assert X_t is handed
        assert calls[-1][1] is None
        for X in [X_t for X_t, _ in calls]:
            assert X.dtype == np.float64 and not X.flags.writeable


def _run_outputs(report):
    """Every number a report holds but the wall clock, for an exact compare."""
    out = report.as_dict()
    out.pop("wall_clock")
    out.pop("config")
    return out


class TestIdxMatchesItsCsv:
    @pytest.mark.parametrize("standardize", [False, True])
    def test_same_pixels_give_the_same_run(self, tmp_path, standardize):
        # The pixels once as an idx pair and once as a csv of pixel / 255
        # at %.17g: the held bytes must read as those floats in every
        # batch, in both row blocks of the 300-row test store and in the
        # baseline pools, so the two runs agree to the bit. b = 12 cuts
        # batches across the 40-row tasks.
        dataset = _write_pixel_standin(tmp_path, 6, 20, 30)
        csv = {"kind": "csv"}
        for split, (images, labels) in zip(("train", "test"),
                                            pixel_standin(6, 20, 30)):
            path = tmp_path / f"{split}.csv"
            np.savetxt(path, np.column_stack([images.reshape(len(images), -1) / 255.0,
                                              labels]),
                       fmt=["%.17g"] * 784 + ["%d"], delimiter=",")
            csv[split] = str(path)

        def run(data):
            return run_experiment(validate_config(base_tree(
                dataset=data, split={"Q": 5}, batch_size=12,
                network={"L": 2, "N": 16, "lam": 1e-2, "standardize": standardize},
                eval_every="batch", baselines=True)))

        from_idx, from_csv = run(dataset), run(csv)
        assert from_idx.resolved["T"] == 17
        assert json.dumps(_run_outputs(from_idx)) == json.dumps(_run_outputs(from_csv))


class TestTestInputsHeldOnce:
    @pytest.mark.parametrize("eval_every", ["batch", "task"])
    def test_loaded_test_inputs_are_released_before_the_baselines(
            self, monkeypatch, eval_every):
        # The stored test features and the run's targets replace the
        # loaded test set; its inputs must not outlive the first
        # evaluation.
        from rvflstream import runner

        load, fit = runner._load_datasets, runner.fit_baseline
        loaded, released = [], []

        def watched_load(ds):
            train, test = load(ds)
            loaded.append(weakref.ref(test.X))
            return train, test

        def watched_fit(*args, **kwargs):
            released.append(loaded[-1]() is None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(runner, "_load_datasets", watched_load)
        monkeypatch.setattr(runner, "fit_baseline", watched_fit)
        run_experiment(validate_config(
            base_tree(eval_every=eval_every, baselines=True)))
        assert released == [True]


class TestOneEvaluationPass:
    def tree(self):
        # 52 test rows: no batch, task pool or pooled stack has that size.
        return base_tree(dataset={"kind": "synthetic", "classes": 4, "dims": 5,
                                  "separation": 3.0, "samples": 20,
                                  "test_samples": 13},
                         eval_every="batch", baselines=True)

    def test_test_rows_meet_the_backbone_once(self, monkeypatch):
        from rvflstream import learners, runner

        extract, rows = learners.extract_features, []
        probs, evaluations = runner._layer_probs, []

        def counted_extract(X, *args, **kwargs):
            rows.append(len(X))
            return extract(X, *args, **kwargs)

        def counted_probs(store, heads, *args, **kwargs):
            evaluations.extend(heads)
            return probs(store, heads, *args, **kwargs)

        monkeypatch.setattr(learners, "extract_features", counted_extract)
        monkeypatch.setattr(runner, "_layer_probs", counted_probs)
        report = run_experiment(validate_config(self.tree()))
        assert rows.count(52) == 1
        # The stream's 80 rows once each, the 52 test rows once, and the
        # baselines' two task pools once.
        assert sum(rows) == 80 + 52 + 80
        # One head set scored per evaluation request.
        assert len(evaluations) == len(report.trace.t) == report.resolved["T"]

    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_last_row_is_immediate_metrics_of_the_final_model(self, mode):
        # The runner scores into a reused buffer against run-constant
        # targets; its last row must be the plain allocating read path's.
        from rvflstream import runner
        from rvflstream.metrics import immediate_metrics

        tree = self.tree()
        tree["ensemble"] = mode
        config = validate_config(tree)
        models, model_class = [], runner.ContinualModel

        def record_model(*args, **kwargs):
            models.append(model_class(*args, **kwargs))
            return models[-1]

        runner.ContinualModel = record_model
        try:
            report = run_experiment(config)
        finally:
            runner.ContinualModel = model_class
        _, test = make_gaussian_dataset(seed=config.dataset["seed"], **{
            k: config.dataset[k] for k in ("classes", "dims", "separation",
                                           "samples", "test_samples")})
        want = immediate_metrics(models[-1].per_learner_probs(test.X),
                                 one_hot(test.y, report.resolved["m"]), mode)
        assert report.trace.regret[-1] == want.regret
        assert report.trace.kl[-1] == want.kl
        assert report.trace.acc_full[-1] == want.accuracy()

    @pytest.mark.parametrize("standardize", [False, True])
    def test_baselines_on_the_runners_features_are_bit_identical(
            self, standardize):
        # The report's baselines are fit_baseline on the run's model,
        # targets and test store. A model that observed only the first
        # batch has the run's backbone and, under standardize, its
        # z-scores, which that batch froze.
        from rvflstream.learners import (BASELINE_KINDS, ContinualModel,
                                         fit_baseline)
        from rvflstream.metrics import Targets

        tree = self.tree()
        tree["network"]["standardize"] = standardize
        config = validate_config(tree)
        report = run_experiment(config)
        train, test = make_gaussian_dataset(seed=config.dataset["seed"], **{
            k: config.dataset[k] for k in ("classes", "dims", "separation",
                                           "samples", "test_samples")})
        net = NetworkConfig(s=train.X.shape[1], m=train.m, **config.network)
        tasks = split_class_incremental(train, config.split,
                                        shuffle_within=config.shuffle_within)
        model = ContinualModel(net, config.style)
        first = batchify(tasks, config.batch_size, train.m)[0]
        model.observe(first.X, first.Y)
        want = fit_baseline(tasks, model, Targets(one_hot(test.y, train.m)),
                            model.eval_features(test.X), mode=config.ensemble)
        for kind in BASELINE_KINDS:
            assert report.baselines[kind].accuracy == want[kind].accuracy
            assert np.array_equal(report.baselines[kind].per_task_accuracy,
                                  want[kind].per_task_accuracy)


class TestLogitsBufferReleasedBeforeTheBaselines:
    def test_buffer_is_dead_when_fit_baseline_runs(self, monkeypatch):
        # The baselines score into a buffer of their own, so the run's
        # logits buffer must be gone before they start.
        from rvflstream import runner

        probs, fit = runner._layer_probs, runner.fit_baseline
        buffers, dead = [], []

        def watched_probs(*args, out=None, **kwargs):
            # The runner passes the leading rows of its buffer.
            buffers.append(weakref.ref(out if out.base is None else out.base))
            return probs(*args, out=out, **kwargs)

        def watched_fit(*args, **kwargs):
            dead.append([ref() is None for ref in buffers])
            return fit(*args, **kwargs)

        monkeypatch.setattr(runner, "_layer_probs", watched_probs)
        monkeypatch.setattr(runner, "fit_baseline", watched_fit)
        run_experiment(validate_config(base_tree(eval_every="batch",
                                                 baselines=True)))
        assert len(dead) == 1 and dead[0] and all(dead[0])


class TestOneLogitsBuffer:
    @pytest.mark.parametrize("eval_every, passes", [("batch", [3, 3, 3, 2]),
                                                    ("task", [2])])
    def test_every_pass_writes_into_one_buffer(self, tmp_path, monkeypatch,
                                               eval_every, passes):
        # Classes of 2, 2, 20 and 20 rows, and order seed 1 puts classes
        # 0 and 1 first: the first task ends at batch 1 of 11, so a
        # buffer sized by a task end would be too short for the passes
        # after it.
        from rvflstream import runner

        rng = np.random.default_rng(0)
        for name, y in (("train", np.repeat(np.arange(4), [2, 2, 20, 20])),
                        ("test", np.repeat(np.arange(4), 2))):
            np.savetxt(tmp_path / f"{name}.csv",
                       np.column_stack([rng.standard_normal((len(y), 3)), y]),
                       fmt="%.17g", delimiter=",")
        probs, outs = runner._layer_probs, []

        def watched_probs(store, heads, out=None):
            outs.append(out)
            return probs(store, heads, out=out)

        monkeypatch.setattr(runner, "_layer_probs", watched_probs)
        report = run_experiment(validate_config(base_tree(
            dataset={"kind": "csv", "train": str(tmp_path / "train.csv"),
                     "test": str(tmp_path / "test.csv")},
            batch_size=4, eval_every=eval_every, seeds={"order": 1})))
        assert report.resolved["task_end_batches"] == [1, 11]
        assert [len(out) for out in outs] == passes
        buf = outs[0].base
        assert buf.shape == (passes[0], 2, 4, 8)
        assert all(out.base is buf for out in outs)


class TestQueuedEvaluations:
    def tree(self, tmp_path, eval_every, mode):
        # 48 train rows in batches of 5 over two tasks: T = 10 is not a
        # multiple of the queue's 3, and the task end at batch 5 falls
        # with two requests queued, so a pass holds requests on both
        # sides of it. The test set has no class 0, which the first two
        # batches see alone (see
        # test_batch_whose_seen_classes_have_no_test_rows_is_null), so
        # acc_seen starts at NaN. Its 24 rows are a multiple of 8, where
        # BLAS rounds the stacked heads as it rounds one set (see
        # learners._layer_logits).
        rng = np.random.default_rng(0)
        for name, y in (("train", np.repeat(np.arange(4), 12)),
                        ("test", np.repeat(np.arange(1, 4), 8))):
            X = rng.standard_normal((len(y), 3)) + y[:, None]
            np.savetxt(tmp_path / f"{name}.csv", np.column_stack([X, y]),
                       fmt="%.17g", delimiter=",")
        return base_tree(dataset={"kind": "csv",
                                  "train": str(tmp_path / "train.csv"),
                                  "test": str(tmp_path / "test.csv"), "m": 4},
                         batch_size=5, network={"L": 3, "N": 6},
                         style={"kind": "kf_bayes"}, shuffle_within=False,
                         eval_every=eval_every, ensemble=mode,
                         seeds={"weights": 3, "order": 0})

    def replay(self, config):
        # Each request scored on its own, right after its step, through
        # the public read path.
        from rvflstream.metrics import AccuracyMatrix, Targets

        train = load_csv_features(config.dataset["train"], m=4)
        test = load_csv_features(config.dataset["test"], m=4)
        net = NetworkConfig(s=3, m=4, **config.network)
        tasks = split_class_incremental(train, config.split,
                                        shuffle_within=config.shuffle_within)
        stream = batchify(tasks, config.batch_size, 4)
        ends = stream.task_end_batches
        model = ContinualModel(net, config.style)
        targets = Targets(one_hot(test.y, 4))
        trace, acc = TraceSeries(), AccuracyMatrix(config.split.Q)
        seen, feats = np.zeros(4, dtype=bool), None
        for i, batch in enumerate(stream):
            model.observe(batch.X, batch.Y,
                          stream[i + 1].X if i + 1 < stream.T else None)
            seen |= batch.Y.any(axis=0)
            finished = [q for q, end in enumerate(ends) if end == batch.t]
            if config.eval_every == "task" and not finished:
                continue
            if feats is None:
                feats = model.eval_features(test.rows)
            scores = targets.score(model.per_learner_probs(eval_feats=feats),
                                   config.ensemble)
            rows = seen[targets.cls]
            trace.append(batch.t, scores.accuracy(rows) if rows.any() else math.nan,
                         scores.accuracy(), scores.regret, scores.kl)
            for q in finished:
                for j in range(q + 1):
                    acc.record(q, j, scores.accuracy(
                        np.isin(test.y, tasks[j].classes)))
        return trace, acc.R

    @pytest.mark.parametrize("mode", ["mean", "median"])
    @pytest.mark.parametrize("eval_every, passes", [("batch", [3, 3, 3, 1]),
                                                    ("task", [2])])
    def test_trace_and_matrix_equal_an_immediate_replay(
            self, tmp_path, monkeypatch, eval_every, passes, mode):
        from rvflstream import runner

        probs, sets = runner._layer_probs, []

        def counted(store, heads, *args, **kwargs):
            sets.append(len(heads))
            return probs(store, heads, *args, **kwargs)

        monkeypatch.setattr(runner, "_layer_probs", counted)
        config = validate_config(self.tree(tmp_path, eval_every, mode))
        report = run_experiment(config)
        assert report.resolved["T"] == 10
        assert report.resolved["task_end_batches"] == [5, 10]
        # The queue is scored when it is full and at the stream's end,
        # whatever the task ends.
        assert sets == passes
        trace, R = self.replay(config)
        assert report.trace.t == trace.t
        for name in ("acc_seen", "acc_full", "regret", "cum_regret", "kl"):
            assert_same_bits(getattr(report.trace, name), getattr(trace, name))
        assert_same_bits(report.acc_matrix, R)
        if eval_every == "batch":
            assert np.isnan(report.trace.acc_seen[:2]).all()


class TestBaselinesFollowTheEnsembleRule:
    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_baselines_equal_a_reference_fused_by_the_runs_rule(self, mode):
        # A stream on which mean and median fusion score the baselines
        # apart: a median run's FWT reads -0.2333 with median-fused
        # baselines and -0.2542 with mean-fused ones.
        from rvflstream.learners import BASELINE_KINDS
        from rvflstream.solvers import offline_kf_fit

        dataset = {"kind": "synthetic", "classes": 6, "dims": 8,
                   "separation": 0.6, "samples": 30, "test_samples": 60}
        config = validate_config(base_tree(
            dataset=dataset, split={"Q": 3}, batch_size=10,
            network={"L": 5, "N": 12, "activation": "tanh"}, ensemble=mode,
            seeds={"weights": 1, "order": 1, "synthetic": 1}))
        report = run_experiment(config)

        train, test = make_gaussian_dataset(
            seed=1, **{k: v for k, v in dataset.items() if k != "kind"})
        net = NetworkConfig(s=8, m=6, **config.network)
        tasks = split_class_incremental(train, config.split)
        weights = init_random_weights(net)
        feats = [fb.D for fb in extract_features(test.X, weights, net)]
        pools = [(extract_features(tk.X, weights, net), one_hot(tk.y, 6))
                 for tk in tasks]
        task_rows = [np.isin(test.y, tk.classes) for tk in tasks]

        def heads(group):
            return [offline_kf_fit([(fs[l].D, Y) for fs, Y in group],
                                   None, 0.0, lam).theta
                    for l, lam in enumerate(net.lambdas)]

        def predicted(thetas, rows, fusion, cls=None):
            # Each layer's softmax from its row-major [H_l | X] rows, one
            # gemm over all d columns.
            probs = fuse_probs([softmax(D[rows] @ theta)
                                for D, theta in zip(feats, thetas)], mode=fusion)
            if cls is not None:
                masked = np.full_like(probs, -np.inf)
                masked[:, cls] = probs[:, cls]
                probs = masked
            return probs.argmax(axis=1)

        def reference(fusion):
            everything = np.ones(len(test.y), dtype=bool)

            def scored(thetas):
                hit = predicted(thetas, everything, fusion) == test.y
                return float(np.mean(hit)), [np.mean(hit[r]) for r in task_rows]

            experts = [heads([pool]) for pool in pools]
            own = [np.mean(predicted(ex, r, fusion, list(tk.classes)) == test.y[r])
                   for ex, r, tk in zip(experts, task_rows, tasks)]
            return {"offline": scored(heads(pools)),
                    "separate": (float(np.mean(own)), own),
                    "fine_tune": scored(experts[-1]),
                    "non_incremental": scored(experts[0])}

        want = reference(mode)
        for kind in BASELINE_KINDS:
            got = report.baselines[kind]
            assert got.accuracy == want[kind][0], kind
            assert np.array_equal(got.per_task_accuracy, want[kind][1]), kind
        assert np.array_equal(report.independent, want["separate"][1])
        # The two rules disagree on this stream, so the check has teeth.
        assert reference("median") != reference("mean")


class TestStreamHash:
    def test_digest_is_the_bytes_digest(self):
        # Reports compare stream_sha256 across commits, so the digest of
        # the batch buffers must stay that of their .tobytes().
        import dataclasses
        import hashlib

        from rvflstream.stream import TaskSplitSpec

        train, _ = make_gaussian_dataset(classes=4, dims=5, separation=3.0,
                                         samples=20, test_samples=10, seed=3)
        tasks = split_class_incremental(train, TaskSplitSpec(Q=2, order_seed=1))
        stream = list(batchify(tasks, 7, train.m))
        # One batch with column-major X, which the hash reads row-major.
        stream[1] = dataclasses.replace(stream[1], X=np.asfortranarray(stream[1].X))
        h = hashlib.sha256()
        for batch in stream:
            h.update(np.ascontiguousarray(batch.X).tobytes())
            h.update(np.ascontiguousarray(batch.Y).tobytes())
        assert stream_sha256(stream) == h.hexdigest()


class TestEmitReport:
    def test_files_and_exact_round_trip(self, tmp_path):
        report = run_experiment(validate_config(base_tree()))
        emit_report(report, tmp_path)
        for name in ("report.json", "curves.csv", "kmatrix.csv",
                     "accmatrix.csv"):
            assert (tmp_path / name).exists()

        tree = json.loads((tmp_path / "report.json").read_text())
        assert tree["boundary_audit"]["ok"] is True
        assert tree["final"]["acc"] == report.final["acc"]

        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0] == "t,acc_seen,acc_full,regret,cum_regret,kl"
        assert len(lines) == 1 + len(report.trace.t)
        # 17 significant digits reproduce the doubles bit for bit.
        first = lines[1].split(",")
        assert float(first[3]) == report.trace.regret[0]

        acc_lines = (tmp_path / "accmatrix.csv").read_text().splitlines()
        assert len(acc_lines) == 2
        top_right = acc_lines[0].split(",")[1]
        assert top_right == "nan"

        # Every CSV value reloads bit for bit, as the run holds it and as
        # report.json holds it (null there, NaN in the CSV).
        def reload(name, skip=1):
            return np.loadtxt(tmp_path / name, delimiter=",", skiprows=skip,
                              ndmin=2)

        def from_json(rows):
            return np.array([[math.nan if v is None else v for v in row]
                             for row in rows], dtype=float)

        curves = np.array(report.trace.rows(), dtype=float)
        assert_same_bits(reload("curves.csv"), curves)
        assert_same_bits(reload("curves.csv"),
                         from_json(zip(*tree["trace"].values())))
        assert report.k_trace_rows
        assert_same_bits(reload("kmatrix.csv"),
                         np.array(report.k_trace_rows, dtype=float))
        assert_same_bits(reload("kmatrix.csv"), from_json(tree["k_trace"]))
        assert_same_bits(reload("accmatrix.csv", skip=0), report.acc_matrix)
        assert_same_bits(reload("accmatrix.csv", skip=0),
                         from_json(tree["acc_matrix"]))

    def test_files_equal_the_expected_text(self, tmp_path):
        # NaN is null in report.json and nan in the CSVs; -0.0 keeps its
        # sign, 1e-300 its exponent, and 0.1 its 17 digits in the CSVs;
        # an empty k trace writes the header alone, as for ridge.
        trace = TraceSeries()
        trace.append(1, math.nan, -0.0, 1e-300, 0.1)
        report = RunReport(
            config={}, resolved={}, seeds={}, stream_hash="00", trace=trace,
            acc_matrix=np.array([[1.0, math.nan], [-0.0, 0.1]]),
            independent=np.array([math.nan, 1e-300]),
            final={"bwt": -0.0, "fwt": None, "acc_seen": math.nan},
            k_trace_rows=[], wall_clock=[0.5], boundary_audit={"ok": True},
            baselines={})
        emit_report(report, tmp_path / "out")
        expected = {
            "report.json": """{
  "config": {},
  "resolved": {},
  "seeds": {},
  "stream_sha256": "00",
  "trace": {
    "t": [
      1
    ],
    "acc_seen": [
      null
    ],
    "acc_full": [
      -0.0
    ],
    "regret": [
      1e-300
    ],
    "cum_regret": [
      1e-300
    ],
    "kl": [
      0.1
    ]
  },
  "acc_matrix": [
    [
      1.0,
      null
    ],
    [
      -0.0,
      0.1
    ]
  ],
  "independent": [
    null,
    1e-300
  ],
  "final": {
    "bwt": -0.0,
    "fwt": null,
    "acc_seen": null
  },
  "k_trace": [],
  "wall_clock": [
    0.5
  ],
  "boundary_audit": {
    "ok": true
  },
  "baselines": {}
}
""",
            "curves.csv": "t,acc_seen,acc_full,regret,cum_regret,kl\n"
                          "1,nan,-0,1e-300,1e-300,0.10000000000000001\n",
            "kmatrix.csv": "t,layer,k_cur,k_next\n",
            "accmatrix.csv": "1,nan\n-0,0.10000000000000001\n",
        }
        for name, text in expected.items():
            assert (tmp_path / "out" / name).read_bytes() == text.encode(), name

    def test_kmatrix_rows(self, tmp_path):
        report = run_experiment(validate_config(base_tree()))
        emit_report(report, tmp_path)
        lines = (tmp_path / "kmatrix.csv").read_text().splitlines()
        assert lines[0] == "t,layer,k_cur,k_next"
        assert len(lines) == 1 + len(report.k_trace_rows)
        t, layer, k_cur, k_next = lines[1].split(",")
        assert (int(t), int(layer)) == (1, 1)
        assert float(k_cur) == report.k_trace_rows[0][2]


class TestCompareStyles:
    def configs(self):
        trees = [base_tree(style={"kind": "ridge"}),
                 base_tree(style={"kind": "kf", "k": 1.0}),
                 base_tree(style={"kind": "kf_bayes"})]
        return [validate_config(t) for t in trees]

    def test_rows_per_style(self):
        rows = compare_styles(self.configs(), repeats=2)
        assert [r["style"] for r in rows] == ["ridge", "kf", "kf_bayes"]
        for row in rows:
            assert row["acc_median"] is not None
            assert row["cum_regret_median"] is not None

    def test_rejects_fewer_than_one_repeat(self):
        with pytest.raises(ContractError, match="repeats"):
            compare_styles(self.configs(), repeats=0)

    @pytest.mark.parametrize("override", [
        {"ensemble": "mean"},
        {"batch_size": 8.0},
        {"network": {"L": 2, "N": 6, "lam": 1.0, "activation": "relu"}},
    ])
    def test_same_run_written_differently_is_accepted(self, override):
        # Explicit defaults and integral floats used to be rejected: the
        # raw trees were compared rather than the validated configs.
        cfgs = self.configs()
        cfgs[1] = validate_config(base_tree(style={"kind": "kf"}, **override))
        assert [r["style"] for r in compare_styles(cfgs)] == ["ridge", "kf",
                                                             "kf_bayes"]

    def csv_configs(self, tmp_path, dataset=None, network=None):
        rows = np.column_stack([np.arange(24.0).reshape(12, 2), np.arange(12) % 4])
        paths = {}
        for split in ("train", "test"):
            paths[split] = str(tmp_path / f"{split}.csv")
            np.savetxt(paths[split], rows, fmt="%.17g", delimiter=",")
        written = {"dataset": {"kind": "csv", **paths, **(dataset or {})},
                   "network": {"L": 3, "N": 6, "lam": 1.0, **(network or {})}}
        trees = [base_tree(dataset={"kind": "csv", **paths},
                           network={"L": 3, "N": 6, "lam": 1.0},
                           style={"kind": "ridge"}),
                 base_tree(style={"kind": "kf"}, **written)]
        return [validate_config(t) for t in trees]

    @pytest.mark.parametrize("dataset, network", [
        ({"delimiter": ","}, None),
        ({"label_column": -1}, None),
        (None, {"lam": [1.0, 1.0, 1.0]}),
    ])
    def test_same_values_written_out_are_accepted(self, tmp_path, dataset,
                                                  network):
        # The csv loader's defaults and a per-layer lam list of equal
        # values build the same run as leaving them out.
        cfgs = self.csv_configs(tmp_path, dataset, network)
        assert [r["style"] for r in compare_styles(cfgs)] == ["ridge", "kf"]

    @pytest.mark.parametrize("dataset, network", [
        ({"delimiter": ";"}, None),
        (None, {"lam": [1.0, 1.0, 2.0]}),
    ])
    def test_other_values_are_rejected(self, tmp_path, dataset, network):
        cfgs = self.csv_configs(tmp_path, dataset, network)
        with pytest.raises(ContractError, match="only in style"):
            compare_styles(cfgs)

    def test_rejects_non_style_differences(self):
        cfgs = self.configs()
        cfgs[1] = validate_config(base_tree(style={"kind": "kf"},
                                            batch_size=4))
        with pytest.raises(ContractError, match="only in style"):
            compare_styles(cfgs)


class TestBakeSynthetic:
    def test_bake_then_load(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({
            "classes": 3, "dims": 4, "separation": 2.0,
            "samples": 6, "test_samples": 3, "seed": 11,
        }))
        out = cli.main(["bake-synthetic", "--spec", str(spec),
                        "--out", str(tmp_path / "baked")])
        assert out == 0
        train = load_csv_features(tmp_path / "baked" / "train.csv")
        test = load_csv_features(tmp_path / "baked" / "test.csv")
        assert train.X.shape == (18, 4)
        assert test.X.shape == (9, 4)
        assert train.m == 3
        meta = json.loads((tmp_path / "baked" / "meta.json").read_text())
        assert meta["train_rows"] == 18
        # Features and labels reload bit for bit from the spec's draws.
        drawn = make_gaussian_dataset(classes=3, dims=4, separation=2.0,
                                      samples=6, test_samples=3, seed=11)
        for name, ds in zip(("train", "test"), drawn):
            assert_same_bits(
                np.loadtxt(tmp_path / "baked" / f"{name}.csv", delimiter=","),
                np.column_stack([ds.X, ds.y]))


class TestCli:
    def write_cfg(self, tmp_path, tree=None, name="cfg.yaml"):
        p = tmp_path / name
        p.write_text(yaml.safe_dump(tree or base_tree()))
        return p

    def test_run_writes_outputs(self, tmp_path, capsys):
        # kf at k = 1 under paper_strict is run by no other command-line
        # test.
        for name, style in (("kf_bayes", {"kind": "kf_bayes"}),
                            ("kf-strict", {"kind": "kf", "k": 1.0,
                                           "init_mode": "paper_strict"})):
            p = self.write_cfg(tmp_path, base_tree(style=style), f"{name}.yaml")
            code = cli.main(["run", "--config", str(p),
                             "--out", str(tmp_path / name)])
            assert code == 0, name
            assert (tmp_path / name / "report.json").stat().st_size > 0
            assert "acc=" in capsys.readouterr().out

    def test_console_script_runs_cli_main(self):
        # The installed rvflstream script is cli.main, so every test here
        # that calls cli.main runs what the script runs. Read as text:
        # tomllib is not in Python 3.10.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'rvflstream = "rvflstream.cli:main"' in scripts.splitlines()

    def test_run_requires_out_somewhere(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path)
        code = cli.main(["run", "--config", str(p)])
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "none.yaml"),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_config_out_field_used(self, tmp_path):
        tree = base_tree(out=str(tmp_path / "fromcfg"))
        p = self.write_cfg(tmp_path, tree)
        assert cli.main(["run", "--config", str(p)]) == 0
        assert (tmp_path / "fromcfg" / "report.json").exists()

    def test_compare_mismatch_is_exit_2(self, tmp_path, capsys):
        a = self.write_cfg(tmp_path, base_tree(), "a.yaml")
        b = self.write_cfg(tmp_path, base_tree(batch_size=4), "b.yaml")
        code = cli.main(["compare", "--configs", str(a), str(b)])
        assert code == 2
        assert "only in style" in capsys.readouterr().err

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path, base_tree(style={"kind": "kf", "kk": 0.5}))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "style: unknown key 'kk'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value", [
        ("batch_size", "eight"),
        ("network.lam", "abc"),
        ("network.lam", [1.0, "abc"]),
        ("network.L", "three"),
        ("network.N", None),
        ("split.Q", "two"),
        ("style.k", "half"),
        ("style.kappa", "x"),
        ("style.sigma", "tiny"),
        ("seeds.weights", "w"),
        ("seeds.order", "o"),
        ("seeds.synthetic", "s"),
        ("dataset.classes", "four"),
        ("dataset.separation", "far"),
    ])
    def test_non_numeric_value_is_exit_2(self, tmp_path, capsys, name, value):
        tree = base_tree()
        section, _, key = name.rpartition(".")
        (tree[section] if section else tree)[key] = value
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value, kind", [
        ("batch_size", 7.9, "an integer"),
        ("batch_size", True, "an integer"),
        ("network.L", 2.9, "an integer"),
        ("network.N", False, "an integer"),
        ("split.Q", 1.5, "an integer"),
        ("seeds.weights", 2.7, "an integer"),
        ("seeds.order", True, "an integer"),
        ("dataset.classes", 4.5, "an integer"),
        ("network.lam", float("nan"), "a finite number"),
        ("network.lam", float("inf"), "a finite number"),
        ("network.lam", [1.0, float("inf")], "a finite number"),
        ("network.lam", True, "a finite number"),
        ("style.k", float("nan"), "a finite number"),
        ("style.k", float("inf"), "a finite number"),
        ("style.kappa", float("inf"), "a finite number"),
        ("style.sigma", float("-inf"), "a finite number"),
        ("dataset.separation", float("nan"), "a finite number"),
        ("dataset.samples", 1e30, "at most 1073741823"),
    ])
    def test_inexact_number_is_exit_2(self, tmp_path, capsys, name, value, kind):
        # Booleans, fractional integers and non-finite floats used to be
        # truncated or passed through: batch_size 7.9 ran with 7.
        tree = base_tree()
        section, _, key = name.rpartition(".")
        (tree[section] if section else tree)[key] = value
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{name} must be {kind}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value", [
        ("dataset.m", "ten"),
        ("dataset.m", 4.5),
        ("dataset.delimiter", 5),
        ("dataset.delimiter", ",,"),
        ("dataset.label_column", [1]),
        ("dataset.label_column", 1.5),
        ("dataset.train", 5),
        ("out", 5),
        ("network.activation", ["relu"]),
        ("network.L", 1e30),
        ("network.N", 1099511627776),
        ("dataset.m", 1e30),
    ])
    def test_malformed_value_is_exit_2(self, tmp_path, capsys, name, value):
        # Each of these used to end in a traceback, or, for the two
        # fractional numbers, to be truncated or passed through. The
        # last three sized arrays no index-sized integer can address.
        rows = np.column_stack([np.arange(16.0).reshape(8, 2), np.arange(8) % 4])
        paths = {}
        for split in ("train", "test"):
            paths[split] = str(tmp_path / f"{split}.csv")
            np.savetxt(paths[split], rows, fmt="%.17g", delimiter=",")
        tree = base_tree(dataset={"kind": "csv", **paths})
        section, _, key = name.rpartition(".")
        (tree[section] if section else tree)[key] = value
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("network, message", [
        ({"L": 0}, "network: L must be >= 1, got 0"),
        ({"N": 0}, "network: N must be >= 1, got 0"),
        ({"activation": "foo"}, "network: unknown activation 'foo'"),
        ({"lam": -1}, "network: every lam must be positive"),
        ({"L": 3, "lam": [1.0, 1.0]}, "network: lam must be scalar or length 3"),
    ])
    def test_network_rules_run_before_the_data_is_read(
            self, tmp_path, capsys, monkeypatch, network, message):
        from rvflstream import runner

        def unread(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(runner, "load_idx", unread)
        paths = {}
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            paths[key] = str(tmp_path / key)
            (tmp_path / key).write_bytes(b"")
        tree = base_tree(dataset={"kind": "idx", **paths},
                         network={"L": 2, "N": 6, **network})
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_accepted(self):
        tree = base_tree(batch_size=8.0)
        tree["network"]["L"] = 2.0
        config = validate_config(tree)
        assert config.batch_size == 8 and isinstance(config.batch_size, int)
        assert config.network["L"] == 2 and isinstance(config.network["L"], int)

    def test_non_finite_synthetic_spec_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"classes": 2, "dims": 3,
                                        "separation": float("inf"),
                                        "samples": 5, "test_samples": 2}))
        code = cli.main(["bake-synthetic", "--spec", str(spec),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "spec.separation must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_synthetic_spec_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"classes": "four", "dims": 3,
                                        "separation": 2.0, "samples": 5,
                                        "test_samples": 2}))
        code = cli.main(["bake-synthetic", "--spec", str(spec),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "spec.classes must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["seeds.weights", "seeds.order",
                                      "seeds.synthetic"])
    def test_negative_seed_is_exit_2(self, tmp_path, capsys, name):
        tree = base_tree()
        tree["seeds"][name.split(".")[1]] = -1
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{name} must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synthetic_spec_range_error_names_the_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"classes": 1, "dims": 3,
                                        "separation": 2.0, "samples": 5,
                                        "test_samples": 2}))
        code = cli.main(["bake-synthetic", "--spec", str(spec),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: synthetic spec: need at least 2 classes and 1 dimension"]
        assert not (tmp_path / "out").exists()

    def test_unknown_synthetic_spec_key_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"classes": 2, "dims": 3,
                                        "separation": 2.0, "samples": 5,
                                        "test_samples": 2, "rows": 10}))
        code = cli.main(["bake-synthetic", "--spec", str(spec),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "synthetic spec: unknown key 'rows'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["abc", -2])
    def test_bad_synthetic_spec_seed_is_exit_2(self, tmp_path, capsys, seed):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({"classes": 2, "dims": 3,
                                        "separation": 2.0, "samples": 5,
                                        "test_samples": 2, "seed": seed}))
        code = cli.main(["bake-synthetic", "--spec", str(spec),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "spec.seed must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value", [
        ("baselines", "false"),
        ("baselines", 0),
        ("shuffle_within", "no"),
        ("network.standardize", 1),
        ("network.standardize", None),
    ])
    def test_non_boolean_flag_is_exit_2(self, tmp_path, capsys, name, value):
        tree = base_tree()
        section, _, key = name.rpartition(".")
        (tree[section] if section else tree)[key] = value
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{name} must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_zero_repeats_is_exit_2(self, tmp_path, capsys):
        a = self.write_cfg(tmp_path, base_tree(style={"kind": "ridge"}),
                           "a.yaml")
        code = cli.main(["compare", "--configs", str(a), "--repeats", "0"])
        assert code == 2
        assert "repeats must be >= 1" in capsys.readouterr().err

    def test_compare_writes_table(self, tmp_path, capsys):
        a = self.write_cfg(tmp_path, base_tree(style={"kind": "ridge"}),
                           "a.yaml")
        b = self.write_cfg(tmp_path,
                           base_tree(style={"kind": "kf", "k": 0.5}),
                           "b.yaml")
        code = cli.main(["compare", "--configs", str(a), str(b),
                         "--repeats", "2", "--out", str(tmp_path / "cmp")])
        assert code == 0
        tree = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert tree["repeats"] == 2
        assert len(tree["rows"]) == 2

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys,
                                         monkeypatch):
        p = self.write_cfg(tmp_path)

        def boom(_):
            raise NumericalFailure("rate matrix went non-finite",
                                   batch_index=4)

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("message", [
        "Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576)", ""])
    def test_out_of_memory_is_exit_2(self, tmp_path, capsys, monkeypatch,
                                     command, message):
        from rvflstream import runner

        def boom(_):
            raise MemoryError(message)

        # compare reaches run_experiment through runner; run imports it.
        monkeypatch.setattr(runner, "run_experiment", boom)
        monkeypatch.setattr(cli, "run_experiment", boom)
        p = self.write_cfg(tmp_path)
        args = (["run", "--config", str(p), "--out", str(tmp_path / "out")]
                if command == "run" else ["compare", "--configs", str(p)])
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: out of memory" + (f": {message}" if message else "")]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", ["run --out", "config out", "compare --out",
                                     "run --out below", "bake-synthetic --out"])
    def test_out_that_is_a_file_is_exit_2_before_the_data_is_read(
            self, tmp_path, capsys, monkeypatch, how):
        from rvflstream import runner

        def unread(*args, **kwargs):
            raise AssertionError("the dataset was read")

        for loader in ("make_gaussian_dataset", "load_idx", "load_csv_features"):
            monkeypatch.setattr(runner, loader, unread)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if how.endswith("below") else afile
        if how == "config out":
            args = ["run", "--config",
                    str(self.write_cfg(tmp_path, base_tree(out=str(out))))]
        elif how.startswith("bake"):
            # A spec that does not exist: reading it first would name it.
            args = ["bake-synthetic", "--spec", str(tmp_path / "none.yaml"),
                    "--out", str(out)]
        else:
            command = how.split()[0]
            cfg = str(self.write_cfg(tmp_path))
            args = [command, "--config" if command == "run" else "--configs",
                    cfg, "--out", str(out)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output directory {out}: {afile} exists and is not a directory"]
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("tree, message", [
        (base_tree(style={"kind": "kf_bayes", "k_source": "foo"}),
         "style: unknown k_source 'foo'"),
        ([base_tree()], "config must be a mapping"),
        (base_tree(dataset=[1]), "dataset must be a mapping"),
        (base_tree(dataset={"classes": 4}), "dataset: missing required key 'kind'"),
        (base_tree(split={"Q": 0}), "split: Q must be >= 1, got 0"),
        (base_tree(dataset=dict(base_tree()["dataset"], classes=1)),
         "dataset: need at least 2 classes and 1 dimension"),
    ], ids=["k_source", "list", "dataset list", "no kind", "Q 0", "one class"])
    def test_config_error_is_one_line_exit_2(self, tmp_path, capsys, tree,
                                             message):
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, train, label_column, message", [
        ("idx", b"\x00\x00", None, "truncated while reading magic"),
        ("csv", b"", None, "no data rows"),
        ("csv", b"a,b,label\n", None, "header but no data rows"),
        ("csv", b"a,b,label\n1,2,0\n3,4,1\n", "target",
         "label column 'target' not found in header"),
        # Eight images of 0 x 5 pixels: a header and no payload.
        ("idx", bytes.fromhex("00000803" "00000008" "00000000" "00000005"), None,
         "images are 0x5, no pixels"),
        ("csv", b"label\n0\n1\n", None,
         "no feature columns besides the label column"),
    ], ids=["short idx", "empty csv", "header-only csv", "missing label column",
            "zero-width idx", "label-only csv"])
    def test_malformed_input_file_is_exit_2(self, tmp_path, capsys, kind, train,
                                            label_column, message):
        bad = tmp_path / "bad"
        bad.write_bytes(train)
        if kind == "idx":
            test = self._write_idx(tmp_path, "test", np.arange(8) % 4,
                                   np.random.default_rng(0))
            dataset = {"kind": "idx", **test, "train_images": str(bad),
                       "train_labels": test["test_labels"]}
        else:
            (tmp_path / "test.csv").write_text("a,b,label\n1,2,0\n3,4,1\n")
            dataset = {"kind": "csv", "train": str(bad),
                       "test": str(tmp_path / "test.csv")}
            if label_column is not None:
                dataset["label_column"] = label_column
        p = self.write_cfg(tmp_path, base_tree(dataset=dataset))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
        assert not (tmp_path / "out").exists()

    def test_test_label_outside_the_train_classes_is_exit_2(self, tmp_path,
                                                             capsys):
        (tmp_path / "train.csv").write_text("1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
        test = tmp_path / "test.csv"
        test.write_text("1,2,0\n3,4,1\n5,6,2\n7,8,1\n")
        p = self.write_cfg(tmp_path, base_tree(dataset={
            "kind": "csv", "train": str(tmp_path / "train.csv"),
            "test": str(test)}))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {test}:3: label 2 outside the class load [0, 2)"]
        assert not (tmp_path / "out").exists()

    def test_test_set_without_a_tasks_classes_is_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        for name, rows, classes in (("train", 40, 4), ("test", 12, 3)):
            labels = np.arange(rows) % classes
            np.savetxt(tmp_path / f"{name}.csv",
                       np.column_stack([rng.standard_normal((rows, 3)), labels]),
                       fmt="%.17g", delimiter=",")
        tree = base_tree(dataset={"kind": "csv",
                                  "train": str(tmp_path / "train.csv"),
                                  "test": str(tmp_path / "test.csv")},
                         split={"Q": 4})
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "test set has no rows for task" in err
        assert "(classes [3])" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _write_idx(root, split, labels, rng):
        paths = {key: str(root / f"{split}-{key}") for key in ("images", "labels")}
        write_idx(paths["images"], paths["labels"],
                  rng.integers(0, 256, (len(labels), 4, 4), dtype=np.uint8), labels)
        return {f"{split}_{key}": path for key, path in paths.items()}

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_task_without_training_rows_is_exit_2(self, tmp_path, capsys, kind):
        # Class 3 has test rows but no training rows, and has a task of
        # its own: csv through m, idx through the test set's labels.
        rng = np.random.default_rng(2)
        train_y, test_y = np.arange(30) % 3, np.arange(12) % 4
        if kind == "csv":
            for name, y in (("train", train_y), ("test", test_y)):
                np.savetxt(tmp_path / f"{name}.csv",
                           np.column_stack([rng.standard_normal((len(y), 3)), y]),
                           fmt="%.17g", delimiter=",")
            dataset = {"kind": "csv", "train": str(tmp_path / "train.csv"),
                       "test": str(tmp_path / "test.csv"), "m": 4}
        else:
            dataset = {"kind": "idx",
                       **self._write_idx(tmp_path, "train", train_y, rng),
                       **self._write_idx(tmp_path, "test", test_y, rng)}
        p = self.write_cfg(tmp_path, base_tree(dataset=dataset, split={"Q": 4}))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "(classes [3]) has no training rows" in err
        assert err.startswith("error: task ")
        assert not (tmp_path / "out").exists()

    def test_empty_idx_pair_is_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        dataset = {"kind": "idx",
                   **self._write_idx(tmp_path, "train", [], rng),
                   **self._write_idx(tmp_path, "test", np.arange(8) % 4, rng)}
        p = self.write_cfg(tmp_path, base_tree(dataset=dataset))
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'train-images'}: item count is 0, no images"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("order", [0, 1])
    def test_batch_whose_seen_classes_have_no_test_rows_is_null(
            self, tmp_path, capsys, order):
        # The test set has no class 0 and the train rows are sorted by
        # class, so under these order seeds the first batches see class 0
        # alone: acc_seen has no rows to score there, yet every task has
        # test rows and the run is valid.
        rng = np.random.default_rng(0)
        for name, y in (("train", np.repeat(np.arange(4), 10)),
                        ("test", np.repeat(np.arange(1, 4), 4))):
            X = rng.standard_normal((len(y), 3)) + y[:, None]
            np.savetxt(tmp_path / f"{name}.csv", np.column_stack([X, y]),
                       fmt="%.17g", delimiter=",")
        tree = base_tree(dataset={"kind": "csv",
                                  "train": str(tmp_path / "train.csv"),
                                  "test": str(tmp_path / "test.csv"), "m": 4},
                         batch_size=5, network={"L": 2, "N": 6},
                         style={"kind": "ridge"}, shuffle_within=False,
                         seeds={"weights": 3, "order": order})
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err

        def bare(name):
            raise AssertionError(f"report.json holds a bare {name}")

        report = json.loads((tmp_path / "out" / "report.json").read_text(),
                            parse_constant=bare)
        acc_seen = report["trace"]["acc_seen"]
        assert acc_seen[0] is None
        assert np.isfinite(acc_seen[-1])
        assert report["final"]["acc_seen"] == acc_seen[-1]
        curves = (tmp_path / "out" / "curves.csv").read_text().splitlines()
        assert curves[1].split(",")[1] == "nan"

    def test_train_test_width_mismatch_is_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        from rvflstream import runner

        def unreached(*args, **kwargs):
            raise AssertionError("the stream was built")

        monkeypatch.setattr(runner, "batchify", unreached)
        rng = np.random.default_rng(3)
        for name, width in (("train", 3), ("test", 4)):
            labels = np.arange(30) % 2
            np.savetxt(tmp_path / f"{name}.csv",
                       np.column_stack([rng.standard_normal((30, width)), labels]),
                       fmt="%.17g", delimiter=",")
        tree = base_tree(dataset={"kind": "csv",
                                  "train": str(tmp_path / "train.csv"),
                                  "test": str(tmp_path / "test.csv")})
        p = self.write_cfg(tmp_path, tree)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: dataset: the test set has 4 features and the train set 3"]
        assert not (tmp_path / "out").exists()

    def test_overflowing_features_are_exit_3(self, tmp_path, capsys):
        # Finite inputs whose Gram overflows: the inner b x b system goes
        # non-finite and must surface as a numerical failure.
        rng = np.random.default_rng(0)
        for name in ("train", "test"):
            X = rng.uniform(1, 2, (8, 3)) * 1e170
            labels = np.arange(8) % 2
            np.savetxt(tmp_path / f"{name}.csv", np.column_stack([X, labels]),
                       fmt="%.17g", delimiter=",")
        tree = base_tree(dataset={"kind": "csv",
                                  "train": str(tmp_path / "train.csv"),
                                  "test": str(tmp_path / "test.csv")},
                         split={"Q": 1})
        p = self.write_cfg(tmp_path, tree)
        with np.errstate(over="ignore"):
            code = cli.main(["run", "--config", str(p),
                             "--out", str(tmp_path / "out")])
        assert code == 3
        assert "batch=1 layer=1" in capsys.readouterr().err
