"""Config-driven experiment runner.

Assembles a stream, a continual model, and the baselines from one
config tree, executes the observe/step/respond loop, and serializes
machine-readable reports. Everything emitted is a deterministic
function of (config, seeds) except the wall-clock section.
"""

import hashlib
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, ContractError
from .learners import ContinualModel, RegStyle, fit_baseline
from .metrics import (
    AccuracyMatrix,
    Targets,
    TraceSeries,
    compute_acc,
    compute_bwt,
    compute_fwt,
)
from .network import NetworkConfig
from .stream import (
    TaskSplitSpec,
    batchify,
    load_csv_features,
    load_idx,
    make_gaussian_dataset,
    one_hot,
    split_class_incremental,
)

DATASET_KINDS = ("synthetic", "idx", "csv")

_SYNTHETIC_KEYS = ("classes", "dims", "separation", "samples", "test_samples")
# Required keys of the dataset section by kind; idx and csv ones are paths.
_DATASET_KEYS = {
    "synthetic": _SYNTHETIC_KEYS,
    "idx": ("train_images", "train_labels", "test_images", "test_labels"),
    "csv": ("train", "test"),
}

# The keys each config section may hold; anything else is a typo or a
# removed option and is rejected rather than silently ignored.
_ALLOWED_KEYS = {
    "config": ("dataset", "split", "batch_size", "network", "style", "eval_every",
               "ensemble", "baselines", "shuffle_within", "seeds", "out"),
    "synthetic": ("kind",) + _DATASET_KEYS["synthetic"],
    "idx": ("kind",) + _DATASET_KEYS["idx"],
    "csv": ("kind",) + _DATASET_KEYS["csv"] + ("label_column", "delimiter", "m"),
    "split": ("Q",),
    "network": ("L", "N", "activation", "lam", "standardize"),
    "style": ("kind", "k", "kappa", "sigma", "init_mode", "k_source", "fast_k"),
    "seeds": ("weights", "order", "synthetic"),
}


@dataclass
class RunConfig:
    """Validated experiment description; mirrors the config file tree."""

    dataset: dict
    split: TaskSplitSpec
    batch_size: int
    network: dict
    style: RegStyle
    eval_every: str = "batch"
    ensemble: str = "mean"
    baselines: bool = True
    shuffle_within: bool = True
    out_dir: Path | None = None
    raw: dict = field(default_factory=dict)


def _require(tree, key, where):
    if key not in tree:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return tree[key]


def _check_keys(tree, allowed, where):
    if not isinstance(tree, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in tree:
        if key not in allowed:
            raise ConfigError(
                f"{where}: unknown key {key!r}; allowed: {', '.join(allowed)}"
            )
    return dict(tree)


def _number(value, name, cast):
    """value as an int or a finite float; a ConfigError naming the key otherwise.

    Nothing is coerced that would change the value: booleans, floats
    with a fractional part for an integer key, and nan or inf are
    refused.
    """
    fractional = cast is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or fractional:
            raise ValueError
        number = cast(value)
        if cast is float and not math.isfinite(number):
            raise ValueError
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}") from None
    return number


def _seed(value, name):
    """A seed: a non-negative integer; a ConfigError naming the key otherwise."""
    if (seed := _number(value, name, int)) < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def _flag(tree, key, default, name):
    """A YAML boolean; a ConfigError naming the key for anything else."""
    value = tree.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _synthetic_field(spec, key, where):
    """A required synthetic dataset field: separation a float, the rest ints."""
    value = _require(spec, key, where)
    return _number(value, f"{where}.{key}", float if key == "separation" else int)


def validate_config(tree):
    """Turn a parsed config tree into a RunConfig, checking every field."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(tree, _ALLOWED_KEYS["config"], "config")
    for name in ("split", "network", "style", "seeds"):
        _check_keys(tree.get(name, {}), _ALLOWED_KEYS[name], name)

    ds = _require(tree, "dataset", "config")
    if not isinstance(ds, dict):
        raise ConfigError("dataset must be a mapping")
    kind = _require(ds, "kind", "dataset")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {kind!r}")
    ds = _check_keys(ds, _ALLOWED_KEYS[kind], "dataset")
    for key in _DATASET_KEYS[kind]:
        if kind == "synthetic":
            ds[key] = _synthetic_field(ds, key, "dataset")
            continue
        value = _require(ds, key, "dataset")
        if not Path(value).exists():
            raise ConfigError(f"dataset.{key}: path does not exist: {value}")

    seeds = dict(tree.get("seeds", {}))
    for name in _ALLOWED_KEYS["seeds"]:
        seeds[name] = _seed(seeds.get(name, 0), f"seeds.{name}")
    if kind == "synthetic":
        ds["seed"] = seeds["synthetic"]

    split_tree = dict(tree.get("split", {}))
    try:
        split = TaskSplitSpec(
            Q=_number(split_tree.get("Q", 1), "split.Q", int),
            order_seed=seeds["order"],
        )
    except ContractError as exc:
        raise ConfigError(f"split: {exc}") from exc

    batch_size = _number(_require(tree, "batch_size", "config"), "batch_size", int)
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")

    net_tree = dict(tree.get("network", {}))
    # One lam shared by every layer, or a list with one per layer.
    lam = net_tree.get("lam", 1.0)
    if isinstance(lam, list):
        lam = [_number(v, "network.lam", float) for v in lam]
    else:
        lam = _number(lam, "network.lam", float)
    network = {
        "L": _number(net_tree.get("L", 3), "network.L", int),
        "N": _number(net_tree.get("N", 32), "network.N", int),
        "activation": net_tree.get("activation", "relu"),
        "lam": lam,
        "seed": seeds["weights"],
        "standardize": _flag(net_tree, "standardize", False, "network.standardize"),
    }

    style_tree = dict(tree.get("style", {}))
    try:
        style = RegStyle(
            kind=style_tree.get("kind", "ridge"),
            k=_number(style_tree.get("k", 0.0), "style.k", float),
            kappa=_number(style_tree.get("kappa", 1.0), "style.kappa", float),
            sigma=_number(style_tree.get("sigma", 1e-5), "style.sigma", float),
            init_mode=style_tree.get("init_mode", "theorem"),
            k_source=style_tree.get("k_source", "pseudo"),
            fast_k=style_tree.get("fast_k"),
        )
    except ContractError as exc:
        raise ConfigError(f"style: {exc}") from exc

    eval_every = tree.get("eval_every", "batch")
    if eval_every not in ("batch", "task"):
        raise ConfigError(f"eval_every must be 'batch' or 'task', got {eval_every!r}")
    ensemble = tree.get("ensemble", "mean")
    if ensemble not in ("mean", "median"):
        raise ConfigError(f"ensemble must be 'mean' or 'median', got {ensemble!r}")

    out = tree.get("out")
    raw = dict(tree)
    raw["seeds"] = seeds
    return RunConfig(
        dataset=ds,
        split=split,
        batch_size=batch_size,
        network=network,
        style=style,
        eval_every=eval_every,
        ensemble=ensemble,
        baselines=_flag(tree, "baselines", True, "baselines"),
        shuffle_within=_flag(tree, "shuffle_within", True, "shuffle_within"),
        out_dir=Path(out) if out else None,
        raw=raw,
    )


def _read_yaml(path, what):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} does not exist: {path}")
    try:
        with open(path) as f:
            return yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc


def load_config(path):
    """Read and validate a YAML config file."""
    return validate_config(_read_yaml(path, "config file"))


def with_seed_offset(config, offset):
    """Shift every seed by a constant; used for paired repeat runs."""
    if offset == 0:
        return config
    ds = dict(config.dataset)
    if ds.get("kind") == "synthetic":
        ds["seed"] = int(ds.get("seed", 0)) + offset
    network = dict(config.network)
    network["seed"] = network["seed"] + offset
    split = replace(config.split, order_seed=config.split.order_seed + offset)
    return replace(config, dataset=ds, network=network, split=split)


def _make_synthetic(spec):
    return make_gaussian_dataset(
        classes=int(spec["classes"]),
        dims=int(spec["dims"]),
        separation=float(spec["separation"]),
        samples=int(spec["samples"]),
        test_samples=int(spec["test_samples"]),
        seed=int(spec.get("seed", 0)),
    )


def _load_datasets(ds):
    kind = ds["kind"]
    if kind == "synthetic":
        return _make_synthetic(ds)
    if kind == "idx":
        train = load_idx(ds["train_images"], ds["train_labels"], split="train")
        test = load_idx(ds["test_images"], ds["test_labels"], split="test")
        m = max(train.m, test.m)
        train.m = test.m = m
        return train, test
    opts = {key: ds[key] for key in ("label_column", "delimiter") if key in ds}
    train = load_csv_features(ds["train"], m=ds.get("m"), split="train", **opts)
    test = load_csv_features(ds["test"], m=train.m, split="test", **opts)
    return train, test


def stream_sha256(stream):
    """Content hash over the learner-visible batch sequence.

    X and Y are hashed as C-contiguous buffers, without a bytes copy.
    """
    h = hashlib.sha256()
    for batch in stream:
        h.update(np.ascontiguousarray(batch.X))
        h.update(np.ascontiguousarray(batch.Y))
    return h.hexdigest()


@dataclass
class RunReport:
    """Everything one run produced; see as_dict for the wire layout."""

    config: dict
    resolved: dict
    seeds: dict
    stream_hash: str
    trace: TraceSeries
    acc_matrix: np.ndarray
    independent: np.ndarray
    final: dict
    k_trace_rows: list
    wall_clock: list
    boundary_audit: dict
    baselines: dict

    def as_dict(self):
        def clean(v):
            if isinstance(v, float) and np.isnan(v):
                return None
            return v

        return {
            "config": self.config,
            "resolved": self.resolved,
            "seeds": self.seeds,
            "stream_sha256": self.stream_hash,
            "trace": asdict(self.trace),
            "acc_matrix": [[clean(float(v)) for v in row] for row in self.acc_matrix],
            "independent": [clean(float(v)) for v in self.independent],
            "final": {k: clean(v) for k, v in self.final.items()},
            "k_trace": [list(r) for r in self.k_trace_rows],
            "wall_clock": self.wall_clock,
            "boundary_audit": self.boundary_audit,
            "baselines": {
                kind: {
                    "accuracy": res.accuracy,
                    "per_task": [float(v) for v in res.per_task_accuracy],
                }
                for kind, res in self.baselines.items()
            },
        }


def run_experiment(config):
    """Execute one boundary-free class-incremental run and return its report.

    The loop observes (X_{t+1}, Y_t) pairs: each step consumes the
    labeled current batch and the unlabeled upcoming one, then the
    post-step weights answer the evaluation request. Task-level rows of
    the accuracy matrix are recorded from the stream's side channel,
    which the learning path itself never reads (audited in the report).
    """
    train, test = _load_datasets(config.dataset)
    net = NetworkConfig(s=train.X.shape[1], m=train.m, **config.network)
    tasks = split_class_incremental(train, config.split,
                                    shuffle_within=config.shuffle_within)
    stream = batchify(tasks, config.batch_size, train.m)
    digest = stream_sha256(stream)
    model = ContinualModel(net, config.style)

    # Two sanctioned side-channel reads up front; the learning loop
    # below must add none.
    task_ends = stream.task_end_batches
    annotations = stream.boundary_annotations
    sanctioned = stream.annotation_reads

    ends_at = defaultdict(list)
    for q, t_end in enumerate(task_ends):
        ends_at[t_end].append(q)

    Q = config.split.Q
    targets = Targets(one_hot(test.y, train.m))
    task_rows = [np.isin(test.y, np.asarray(tk.classes)) for tk in tasks]
    for q, (tk, rows) in enumerate(zip(tasks, task_rows)):
        if not rows.any():
            raise ConfigError(f"test set has no rows for task {q} "
                              f"(classes {list(tk.classes)})")
    acc_mat = AccuracyMatrix(Q)
    trace = TraceSeries()
    wall = []
    seen = np.zeros(train.m, dtype=bool)
    test_feats = None

    for i, batch in enumerate(stream):
        X_next = stream[i + 1].X if i + 1 < stream.T else None
        t0 = time.perf_counter()
        model.observe(batch.X, batch.Y, X_next)
        wall.append(time.perf_counter() - t0)
        seen |= batch.Y.any(axis=0)

        finished = ends_at.get(batch.t, [])
        if config.eval_every == "batch" or finished or batch.t == stream.T:
            if test_feats is None:
                # Built once per run: every evaluation writes its
                # class-major logits into buf.
                test_feats = model.eval_features(test.X)
                buf = np.empty((net.L, net.m, len(test.y)))
            scores = targets.score(
                model.per_learner_probs(eval_feats=test_feats, out=buf),
                mode=config.ensemble)
            trace.append(batch.t, scores.accuracy(seen[test.y]),
                         scores.accuracy(), scores.regret, scores.kl)
            for q in finished:
                for j in range(q + 1):
                    acc_mat.record(q, j, scores.accuracy(task_rows[j]))

    learning_reads = stream.annotation_reads - sanctioned

    baselines = (fit_baseline(tasks, test, net, prepare=model._prepare,
                              test_feats=test_feats)
                 if config.baselines else {})
    if baselines:
        for q in range(Q):
            acc_mat.set_independent(q, baselines["separate"].per_task_accuracy[q])

    final = {
        "acc": compute_acc(acc_mat),
        "bwt": compute_bwt(acc_mat) if Q >= 2 else None,
        "fwt": compute_fwt(acc_mat) if Q >= 2 and baselines else None,
        "acc_full": trace.acc_full[-1],
        "acc_seen": trace.acc_seen[-1],
        "cum_regret": trace.cum_regret[-1],
    }
    resolved = {
        "s": net.s,
        "m": net.m,
        "d": net.feature_dim,
        "Q": Q,
        "T": stream.T,
        "b": stream.b,
        "task_classes": [list(tk.classes) for tk in tasks],
        "task_end_batches": list(task_ends),
        "batch_task_annotations": list(annotations),
    }
    return RunReport(
        config=config.raw,
        resolved=resolved,
        seeds=dict(config.raw.get("seeds", {})),
        stream_hash=digest,
        trace=trace,
        acc_matrix=acc_mat.R,
        independent=acc_mat.independent,
        final=final,
        k_trace_rows=model.k_trace.rows(),
        wall_clock=wall,
        boundary_audit={
            "sanctioned_reads": sanctioned,
            "learning_loop_reads": learning_reads,
            "ok": learning_reads == 0,
        },
        baselines=baselines,
    )


def _fmt(value):
    if value is None:
        return "nan"
    return "%.17g" % value


def emit_report(report, out_dir):
    """Write report.json plus the three CSV curve/matrix files.

    CSV numbers carry 17 significant digits so reloading them
    reproduces the run's floats exactly. All files use LF endings.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "report.json", "w", newline="\n") as f:
        json.dump(report.as_dict(), f, indent=2)
        f.write("\n")

    with open(out_dir / "curves.csv", "w", newline="\n") as f:
        f.write("t,acc_seen,acc_full,regret,cum_regret,kl\n")
        for t, *values in report.trace.rows():
            f.write(",".join([str(t), *map(_fmt, values)]) + "\n")

    with open(out_dir / "kmatrix.csv", "w", newline="\n") as f:
        f.write("t,layer,k_cur,k_next\n")
        for t, layer, k_cur, k_next in report.k_trace_rows:
            f.write(f"{t},{layer},{_fmt(k_cur)},{_fmt(k_next)}\n")

    with open(out_dir / "accmatrix.csv", "w", newline="\n") as f:
        for row in report.acc_matrix:
            f.write(",".join(map(_fmt, row)))
            f.write("\n")

    return out_dir


def compare_styles(configs, repeats=1):
    """Run several configs that differ only in style, paired by seed.

    Every style sees the same sequence of streams (seed offsets are
    applied identically), so the medians are directly comparable.

    Returns:
        List of per-style rows with median and interquartile range of
        the final ACC, BWT, FWT, and cumulative regret.
    """
    configs = list(configs)
    if not configs:
        raise ContractError("compare needs at least one config")
    if repeats < 1:
        raise ContractError(f"repeats must be >= 1, got {repeats}")

    def non_style(cfg):
        tree = dict(cfg.raw)
        tree.pop("style", None)
        tree.pop("out", None)
        return json.dumps(tree, sort_keys=True)

    reference = non_style(configs[0])
    for cfg in configs[1:]:
        if non_style(cfg) != reference:
            raise ContractError("compare configs may differ only in style")

    rows = []
    for cfg in configs:
        finals = {"acc": [], "bwt": [], "fwt": [], "cum_regret": []}
        for r in range(repeats):
            report = run_experiment(with_seed_offset(cfg, r))
            for key in finals:
                value = report.final[key]
                if value is not None:
                    finals[key].append(value)
        row = {"style": cfg.style.kind}
        for key, values in finals.items():
            if values:
                v = np.asarray(values)
                row[f"{key}_median"] = float(np.median(v))
                row[f"{key}_iqr"] = float(
                    np.percentile(v, 75) - np.percentile(v, 25)
                )
            else:
                row[f"{key}_median"] = None
                row[f"{key}_iqr"] = None
        rows.append(row)
    return rows


def render_table(rows):
    """Plain-text table for the compare command."""
    cols = ["style", "acc_median", "acc_iqr", "bwt_median", "fwt_median",
            "cum_regret_median"]
    header = "  ".join(f"{c:>18}" for c in cols)
    lines = [header]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c)
            if v is None:
                cells.append(f"{'-':>18}")
            elif isinstance(v, str):
                cells.append(f"{v:>18}")
            else:
                cells.append(f"{v:>18.6f}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def bake_synthetic(spec_path, out_dir):
    """Materialize a synthetic dataset spec into CSV feature files."""
    spec = _read_yaml(spec_path, "spec file")
    if not isinstance(spec, dict):
        raise ConfigError("synthetic spec must be a mapping")
    for key in _SYNTHETIC_KEYS:
        _synthetic_field(spec, key, "synthetic spec")
    _seed(spec.get("seed", 0), "synthetic spec.seed")

    train, test = _make_synthetic(spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, ds in (("train", train), ("test", test)):
        with open(out_dir / f"{name}.csv", "w", newline="\n") as f:
            for x, label in zip(ds.X, ds.y):
                f.write(",".join(_fmt(v) for v in x))
                f.write(f",{int(label)}\n")
    with open(out_dir / "meta.json", "w", newline="\n") as f:
        json.dump({"spec": spec, "m": train.m,
                   "train_rows": len(train.y), "test_rows": len(test.y)}, f,
                  indent=2)
        f.write("\n")
    return out_dir
