"""Experiment runner, report emission, and CLI tests."""

import json
import struct
import weakref

import numpy as np
import pytest
import yaml

from rvflstream import cli
from rvflstream.errors import ConfigError, ContractError, NumericalFailure
from rvflstream.runner import (
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
    batchify,
    load_csv_features,
    make_gaussian_dataset,
    one_hot,
    split_class_incremental,
)


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
    """Seeded 28x28 idx files: a smooth prototype per class plus noise.

    Each prototype is a 7x7 uniform draw upsampled 4x; every image adds
    Gaussian pixel noise of standard deviation 60. Returns the dataset
    block of a config that reads them.
    """
    rng = np.random.default_rng(seed)
    protos = np.kron(rng.uniform(0.0, 255.0, (classes, 7, 7)), np.ones((4, 4)))
    paths = {}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        labels = np.repeat(np.arange(classes), per_class)
        noise = rng.normal(0.0, 60.0, (len(labels), 28, 28))
        images = np.clip(np.rint(protos[labels] + noise), 0, 255)
        paths[f"{split}_images"] = str(root / f"{split}-images")
        paths[f"{split}_labels"] = str(root / f"{split}-labels")
        with open(paths[f"{split}_images"], "wb") as f:
            f.write(struct.pack(">iiii", 2051, len(labels), 28, 28))
            f.write(images.astype(np.uint8).tobytes())
        with open(paths[f"{split}_labels"], "wb") as f:
            f.write(struct.pack(">ii", 2049, len(labels)))
            f.write(labels.astype(np.uint8).tobytes())
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
            loaded.append(weakref.ref(train.X))
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


class TestOneEvaluationPass:
    def tree(self):
        # 52 test rows: no batch, task pool or pooled stack has that size.
        return base_tree(dataset={"kind": "synthetic", "classes": 4, "dims": 5,
                                  "separation": 3.0, "samples": 20,
                                  "test_samples": 13},
                         eval_every="batch", baselines=True)

    def test_test_rows_meet_the_backbone_once(self, monkeypatch):
        from rvflstream import learners

        extract, rows = learners.extract_features, []
        probs, evaluations = learners.ContinualModel.per_learner_probs, []

        def counted_extract(X, *args, **kwargs):
            rows.append(len(X))
            return extract(X, *args, **kwargs)

        def counted_probs(*args, **kwargs):
            evaluations.append(1)
            return probs(*args, **kwargs)

        monkeypatch.setattr(learners, "extract_features", counted_extract)
        monkeypatch.setattr(learners.ContinualModel, "per_learner_probs",
                            counted_probs)
        report = run_experiment(validate_config(self.tree()))
        assert rows.count(52) == 1
        # The stream's 80 rows once each, the 52 test rows once, and the
        # baselines' two task pools once.
        assert sum(rows) == 80 + 52 + 80
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
        from rvflstream.learners import (BASELINE_KINDS, ContinualModel,
                                         fit_baseline)

        tree = self.tree()
        tree["network"]["standardize"] = standardize
        config = validate_config(tree)
        train, test = make_gaussian_dataset(seed=config.dataset["seed"], **{
            k: config.dataset[k] for k in ("classes", "dims", "separation",
                                           "samples", "test_samples")})
        net = NetworkConfig(s=train.X.shape[1], m=train.m, **config.network)
        tasks = split_class_incremental(train, config.split)
        model = ContinualModel(net, config.style)
        first = batchify(tasks, config.batch_size, train.m)[0]
        model.observe(first.X, first.Y)
        given = fit_baseline(tasks, test, net, prepare=model._prepare,
                             test_feats=model.eval_features(test.X))
        own = fit_baseline(tasks, test, net, prepare=model._prepare)
        for kind in BASELINE_KINDS:
            assert given[kind].accuracy == own[kind].accuracy
            assert np.array_equal(given[kind].per_task_accuracy,
                                  own[kind].per_task_accuracy)


class TestBaselinesFollowTheEnsembleRule:
    @pytest.mark.parametrize("mode", ["mean", "median"])
    def test_baselines_equal_a_reference_fused_by_the_runs_rule(self, mode):
        # A stream on which mean and median fusion score the baselines
        # apart: a median run's FWT reads -0.2333 with median-fused
        # baselines and -0.2542 with mean-fused ones.
        from rvflstream.learners import BASELINE_KINDS, _layer_probs
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
        feats = [fb.D for fb in extract_features(test.X, weights, net, order="F")]
        pools = [(extract_features(tk.X, weights, net), one_hot(tk.y, 6))
                 for tk in tasks]
        task_rows = [np.isin(test.y, tk.classes) for tk in tasks]

        def heads(group):
            return [offline_kf_fit([(fs[l].D, Y) for fs, Y in group],
                                   None, 0.0, lam).theta
                    for l, lam in enumerate(net.lambdas)]

        def predicted(thetas, rows, fusion, cls=None):
            probs = fuse_probs(_layer_probs([D[rows] for D in feats], thetas),
                               mode=fusion)
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


class TestCli:
    def write_cfg(self, tmp_path, tree=None, name="cfg.yaml"):
        p = tmp_path / name
        p.write_text(yaml.safe_dump(tree or base_tree()))
        return p

    def test_run_writes_outputs(self, tmp_path, capsys):
        p = self.write_cfg(tmp_path)
        code = cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert "acc=" in capsys.readouterr().out

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
        with open(paths["images"], "wb") as f:
            f.write(struct.pack(">iiii", 2051, len(labels), 4, 4))
            f.write(rng.integers(0, 256, (len(labels), 16), dtype=np.uint8).tobytes())
        with open(paths["labels"], "wb") as f:
            f.write(struct.pack(">ii", 2049, len(labels)))
            f.write(np.asarray(labels, dtype=np.uint8).tobytes())
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
