"""Config-driven experiment runner.

Assembles a stream, a continual model, and the baselines from one
config tree, executes the observe/step/respond loop, and serializes
machine-readable reports. Everything emitted is a deterministic
function of (config, seeds) except the wall-clock section.
"""

import hashlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from itertools import chain, pairwise
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, ContractError
from .learners import ContinualModel, RegStyle, _layer_probs, fit_baseline
from .metrics import (
    AccuracyMatrix,
    Targets,
    TraceSeries,
    compute_acc,
    compute_bwt,
    compute_fwt,
)
from .network import NetworkConfig, check_layers
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

# How many evaluation requests the runner queues before it scores them
# in one pass over the test store (learners._layer_probs); the queue is
# also scored at the stream's end. A one-set pass at m = 10 is ten-row
# gemms streaming the whole store, and stacking sets amortises both.
# Per evaluation at eval_ridge's shapes (n = 10 000, s = 64, N = 128,
# L = 3, m = 10) on a 2-vCPU x86_64 VM, the medians of two rounds of 40
# interleaved calls, at two OpenBLAS threads: 5.5-5.6 ms for one set a
# pass, 4.1-4.5 for two, 3.7-4.0 for three and 3.8-4.0 for four or five
# (one thread: 6.8-6.9, 5.1, 4.7-4.8 and 4.6-4.8). Past three nothing
# is gained, and each set adds an L m n buffer of logits and holds its
# L heads until the pass.
_EVAL_QUEUE = 3

# The two defaults a schema key may have besides a value: a REQUIRED key
# must be given, and an absent OMIT key is left out, so the class or
# function that receives its section applies its own default.
REQUIRED, OMIT = object(), object()


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


_int = partial(_number, cast=int)
_float = partial(_number, cast=float)


def _at_least(low, kind):
    """An integer check that also refuses values below low."""
    def check(value, name):
        if (number := _int(value, name)) < low:
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        return number
    return check


_seed = _at_least(0, "a non-negative integer")

# The side of the largest square float64 array an index-sized integer
# can address. A count that sizes arrays (layers, hidden nodes, classes,
# rows) above it would end in numpy's OverflowError, MemoryError or
# ValueError instead of a message naming its key.
_MAX_SIZE = math.isqrt(sys.maxsize // 8)


def _size(value, name):
    """An integer check that also refuses counts above _MAX_SIZE."""
    if (number := _int(value, name)) > _MAX_SIZE:
        raise ConfigError(f"{name} must be at most {_MAX_SIZE}, got {value!r}")
    return number


def _flag(value, name):
    """A YAML boolean."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _text(value, name):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _optional_text(value, name):
    return None if value is None else _text(value, name)


def _one_of(*options):
    def check(value, name):
        if value not in options:
            raise ConfigError(f"{name} must be one of {options}, got {value!r}")
        return value
    return check


def _path(value, name):
    if not Path(_text(value, name)).exists():
        raise ConfigError(f"{name}: path does not exist: {value}")
    return value


def _lam(value, name):
    """One lam shared by every layer, or a list with one per layer."""
    if isinstance(value, list):
        return [_float(v, name) for v in value]
    return _float(value, name)


def _label_column(value, name):
    """A header name, or an integer column position."""
    return value if isinstance(value, str) else _int(value, name)


def _delimiter(value, name):
    if not (isinstance(value, str) and len(value) == 1):
        raise ConfigError(f"{name} must be a one-character string, got {value!r}")
    return value


def _walk(tree, where, schema):
    """Check the mapping tree against schema; return its values and defaults.

    schema maps each allowed key to (check, default). A key the schema
    does not hold is rejected; each present value and each value default
    goes through check(value, dotted name), which returns it cleaned or
    raises a ConfigError naming the key.
    """
    if not isinstance(tree, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in tree:
        if key not in schema:
            raise ConfigError(
                f"{where}: unknown key {key!r}; allowed: {', '.join(schema)}"
            )
    prefix = "" if where == "config" else f"{where}."
    values = {key: schema[key][0](value, prefix + key) for key, value in tree.items()}
    for key, (check, default) in schema.items():
        if key in values or default is OMIT:
            continue
        if default is REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        values[key] = check(default, prefix + key)
    return values


_kind = _one_of(*DATASET_KINDS)


def _default(func, name):
    """The default func gives its parameter name, so it is written once."""
    return inspect.signature(func).parameters[name].default


def _section(tree, where):
    """A nested section, named by its key."""
    return _walk(tree, where, SCHEMA[where])


def _dataset(tree, where):
    """The dataset section, walked with the table of its kind."""
    if not isinstance(tree, dict):
        raise ConfigError(f"{where} must be a mapping")
    if "kind" not in tree:
        raise ConfigError(f"{where}: missing required key 'kind'")
    return _walk(tree, where, SCHEMA[_kind(tree["kind"], f"{where}.kind")])


_GAUSSIAN = {"classes": (_size, REQUIRED), "dims": (_size, REQUIRED),
             "separation": (_float, REQUIRED), "samples": (_size, REQUIRED),
             "test_samples": (_size, REQUIRED)}

# Every key each config section may hold, with its check and default;
# anything else is a typo or a removed option and is rejected rather
# than silently ignored. Ranges and allowed choices that a class owns
# (RegStyle, NetworkConfig, TaskSplitSpec) are checked by that class.
SCHEMA = {
    "synthetic": {"kind": (_kind, REQUIRED), **_GAUSSIAN},
    "idx": {"kind": (_kind, REQUIRED), **dict.fromkeys(
        ("train_images", "train_labels", "test_images", "test_labels"),
        (_path, REQUIRED))},
    "csv": {"kind": (_kind, REQUIRED), "train": (_path, REQUIRED),
            "test": (_path, REQUIRED),
            "label_column": (_label_column, _default(load_csv_features, "label_column")),
            "delimiter": (_delimiter, _default(load_csv_features, "delimiter")),
            "m": (_size, OMIT)},
    "split": {"Q": (_int, 1)},
    "network": {"L": (_size, 3), "N": (_size, 32), "activation": (_text, OMIT),
                "lam": (_lam, OMIT), "standardize": (_flag, OMIT)},
    "style": {"kind": (_text, "ridge"), "k": (_float, OMIT),
              "kappa": (_float, OMIT), "sigma": (_float, OMIT),
              "init_mode": (_text, OMIT), "k_source": (_text, OMIT),
              "fast_k": (_optional_text, OMIT)},
    "seeds": dict.fromkeys(("weights", "order", "synthetic"), (_seed, 0)),
}
SCHEMA["config"] = {
    "dataset": (_dataset, REQUIRED),
    "split": (_section, {}),
    "batch_size": (_at_least(1, "a positive integer"), REQUIRED),
    "network": (_section, {}),
    "style": (_section, {}),
    "eval_every": (_one_of("batch", "task"), OMIT),
    "ensemble": (_one_of("mean", "median"), OMIT),
    "baselines": (_flag, OMIT),
    "shuffle_within": (_flag, OMIT),
    "seeds": (_section, {}),
    "out": (_optional_text, OMIT),
}


def _build(cls, where, values):
    """cls(**values), its ContractError reported under the section's name."""
    try:
        return cls(**values)
    except ContractError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def validate_config(tree):
    """Turn a parsed config tree into a RunConfig, checking every field."""
    top = _walk(tree, "config", SCHEMA["config"])
    seeds, dataset = top.pop("seeds"), top.pop("dataset")
    if dataset["kind"] == "synthetic":
        dataset["seed"] = seeds["synthetic"]
    # Every NetworkConfig default is filled in and lam is held per layer,
    # so that two configs that build the same network hold equal dicts.
    # The network's rules that need no data run here, before any file is
    # read.
    network = {f.name: f.default for f in fields(NetworkConfig)
               if f.default is not MISSING}
    network.update(top.pop("network"), seed=seeds["weights"])
    network["lam"] = _build(check_layers, "network", {
        key: network[key] for key in ("L", "N", "activation", "lam")})
    out = top.pop("out", None)
    return RunConfig(
        dataset=dataset,
        split=_build(TaskSplitSpec, "split",
                     dict(top.pop("split"), order_seed=seeds["order"])),
        network=network,
        style=_build(RegStyle, "style", top.pop("style")),
        out_dir=Path(out) if out else None,
        raw=dict(tree, seeds=seeds),
        **top,
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
    seeds = {name: seed + offset for name, seed in config.raw["seeds"].items()}
    return validate_config(dict(config.raw, seeds=seeds))


def _load_datasets(ds):
    kind = ds["kind"]
    if kind == "synthetic":
        return _build(make_gaussian_dataset, "dataset",
                      {key: value for key, value in ds.items() if key != "kind"})
    if kind == "idx":
        train = load_idx(ds["train_images"], ds["train_labels"])
        test = load_idx(ds["test_images"], ds["test_labels"])
        m = max(train.m, test.m)
        train.m = test.m = m
    else:
        opts = {key: ds[key] for key in ("label_column", "delimiter")}
        train = load_csv_features(ds["train"], m=ds.get("m"), **opts)
        test = load_csv_features(ds["test"], m=train.m, **opts)
    if test.rows.shape[1] != train.rows.shape[1]:
        raise ConfigError(f"dataset: the test set has {test.rows.shape[1]} features "
                          f"and the train set {train.rows.shape[1]}")
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
            "trace": {k: [clean(v) for v in vs]
                      for k, vs in asdict(self.trace).items()},
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
    labeled current batch and the unlabeled upcoming one. An evaluation
    request after it (every batch, or under eval_every: task each batch
    that finishes a task) queues the post-step heads with t, the seen
    classes and the tasks the batch finished. The queue is scored in
    one pass over the test store (learners._layer_probs) when it holds
    _EVAL_QUEUE requests and at the stream's end; task ends decide only
    which requests exist and which accuracy-matrix rows they record.
    Each request scores as if it had been scored on its own right after
    its step: bit for bit where BLAS rounds the stacked heads as it
    rounds one set (see learners._layer_logits), and to rounding
    elsewhere. The test store and one logits buffer, sized by the first
    pass, are allocated once, at that pass. Task-level rows of the
    accuracy matrix are recorded from the stream's side channel, which
    the learning path itself never reads (audited in the report).

    The training rows are held once, in the task split, at their
    source's width (one byte per idx pixel, eight per csv or synthetic
    value): the loaded train set is released as soon as it is split,
    and the stream builds each batch's float64 rows when it is read.
    The loop reads each batch once and carries it, so each step's X_t
    is the array the step before it received as X_next. The test set is
    held once too, at its source's width until the first scoring reads
    it a row block at a time into the stored per-layer features and
    releases it; its labels live on in the run's metrics.Targets, which
    scores the learner and the baselines.

    acc_seen is NaN at an evaluation whose seen classes have no test
    rows; report.json writes it as null.
    """
    train, test = _load_datasets(config.dataset)
    net = _build(NetworkConfig, "network",
                 dict(config.network, s=train.rows.shape[1], m=train.m))
    tasks = split_class_incremental(train, config.split,
                                    shuffle_within=config.shuffle_within)
    del train
    stream = batchify(tasks, config.batch_size, net.m)
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
    targets = Targets(one_hot(test.y, net.m))
    task_rows = [np.isin(test.y, np.asarray(tk.classes)) for tk in tasks]
    for q, (tk, rows) in enumerate(zip(tasks, task_rows)):
        if not rows.any():
            raise ConfigError(f"test set has no rows for task {q} "
                              f"(classes {list(tk.classes)})")
    acc_mat = AccuracyMatrix(Q)
    trace = TraceSeries()
    wall = []
    seen = np.zeros(net.m, dtype=bool)
    test_feats = None
    queue = []

    # Each batch is built once and read twice: as the step's X_next, then
    # as the next step's X_t.
    for batch, nxt in pairwise(chain(stream, [None])):
        t0 = time.perf_counter()
        model.observe(batch.X, batch.Y, None if nxt is None else nxt.X)
        wall.append(time.perf_counter() - t0)
        seen |= batch.Y.any(axis=0)

        # The last batch ends the last task, so a task-end run queues a
        # request there too and the stream's end scores it.
        finished = ends_at.get(batch.t, [])
        if config.eval_every == "task" and not finished:
            continue
        # No step writes a head in place, so the request holds the heads
        # the step left.
        queue.append((batch.t, seen.copy(), finished,
                      [st.theta for st in model.states]))
        if len(queue) < _EVAL_QUEUE and nxt is not None:
            continue
        if test_feats is None:
            # Built once per run, with the logits buffer sized by the
            # first pass, which no later pass outgrows; targets holds
            # the labels.
            test_feats = model.eval_features(test.rows)
            del test
            buf = np.empty((len(queue), net.L, net.m, len(targets.cls)))
        probs = _layer_probs(test_feats, [heads for *_, heads in queue],
                             out=buf[:len(queue)])
        for (t, seen_t, done, _), P in zip(queue, probs):
            scores = targets.score(P, mode=config.ensemble)
            seen_rows = seen_t[targets.cls]
            acc_seen = (scores.accuracy(seen_rows) if seen_rows.any()
                        else math.nan)
            trace.append(t, acc_seen, scores.accuracy(), scores.regret,
                         scores.kl)
            for q in done:
                for j in range(q + 1):
                    acc_mat.record(q, j, scores.accuracy(task_rows[j]))
            del scores  # its m x n prediction goes before the next one's
        queue.clear()
        del probs, P  # views of buf

    learning_reads = stream.annotation_reads - sanctioned
    # The baselines score into their own buffer; this one goes first, so
    # the store's build sets the run's peak.
    del buf

    baselines = (fit_baseline(tasks, model, targets, test_feats,
                              mode=config.ensemble)
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


def write_json(path, tree):
    """tree as JSON indented by 2, with a final newline and LF endings."""
    with open(path, "w", newline="\n") as f:
        json.dump(tree, f, indent=2)
        f.write("\n")


def _write_csv(path, rows, fmt, header=""):
    """rows as comma-separated lines through np.savetxt, with LF endings.

    fmt holds one format per column: %d for counts and labels, %.17g
    for floats, whose 17 significant digits reload bit for bit (NaN
    as nan). With no rows the file holds the header alone.
    """
    with open(path, "w", newline="\n") as f:
        np.savetxt(f, np.reshape(rows, (-1, len(fmt))), fmt=fmt, delimiter=",",
                   header=header, comments="")


def emit_report(report, out_dir):
    """Write report.json plus the three CSV curve/matrix files.

    The JSON goes through write_json and each CSV through _write_csv,
    one np.savetxt call per file; the directory is made here, after
    the run.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report.as_dict())
    _write_csv(out_dir / "curves.csv", report.trace.rows(),
               ["%d"] + ["%.17g"] * 5, "t,acc_seen,acc_full,regret,cum_regret,kl")
    _write_csv(out_dir / "kmatrix.csv", report.k_trace_rows,
               ["%d", "%d", "%.17g", "%.17g"], "t,layer,k_cur,k_next")
    _write_csv(out_dir / "accmatrix.csv", report.acc_matrix,
               ["%.17g"] * len(report.acc_matrix))
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
        return replace(cfg, style=None, out_dir=None, raw=None)

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
    """Materialize a synthetic dataset spec into CSV feature files.

    train.csv and test.csv hold one row per sample, the features at
    %.17g and the label last at %d, written by _write_csv like the
    run's CSVs; meta.json goes through write_json.
    """
    spec = _read_yaml(spec_path, "spec file")
    train, test = _build(make_gaussian_dataset, "synthetic spec", _walk(
        spec, "synthetic spec", {**_GAUSSIAN, "seed": (_seed, OMIT)}))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, ds in (("train", train), ("test", test)):
        _write_csv(out_dir / f"{name}.csv", np.column_stack([ds.X, ds.y]),
                   ["%.17g"] * ds.X.shape[1] + ["%d"])
    write_json(out_dir / "meta.json", {"spec": spec, "m": train.m,
               "train_rows": len(train.y), "test_rows": len(test.y)})
    return out_dir
