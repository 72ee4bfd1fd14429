"""Data ingestion and boundary-free stream construction.

Class-incremental task splits are built here, then cut into a
batch stream whose learner-facing items carry no task identity at all.
Task indices live in a metrics-only side channel on the stream object;
reads of that channel are counted so a run can prove the learning path
never looked.
"""

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


@dataclass
class LabeledDataset:
    """A flat supervised dataset: X is n x s, y holds labels in [0, m)."""

    X: np.ndarray
    y: np.ndarray
    m: int
    split: str = "train"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise ContractError(f"X must be a nonempty matrix, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ContractError("y must have one label per row of X")
        if not np.all(np.isfinite(self.X)):
            raise ContractError("features must be finite")
        if self.y.min() < 0 or self.y.max() >= self.m:
            raise ContractError(
                f"labels must lie in [0, {self.m}), got range "
                f"[{self.y.min()}, {self.y.max()}]"
            )


@dataclass
class Task:
    """One class-incremental task: samples of a disjoint class group."""

    X: np.ndarray
    y: np.ndarray
    classes: tuple


@dataclass(frozen=True)
class TaskSplitSpec:
    """How to carve a dataset into Q class-disjoint tasks."""

    Q: int
    order_seed: int = 0

    def __post_init__(self):
        if self.Q < 1:
            raise ContractError(f"Q must be >= 1, got {self.Q}")

    def classes_per_task(self, m):
        if m % self.Q != 0:
            raise ContractError(f"Q={self.Q} must divide the class load m={m}")
        return m // self.Q


@dataclass(frozen=True)
class StreamBatch:
    """What a learner is allowed to see: features, one-hot targets, index.

    There is deliberately no task field; boundary information stays on
    the BatchStream side channel.
    """

    X: np.ndarray
    Y: np.ndarray
    t: int
    short: bool = False


class BatchStream:
    """An ordered batch sequence with a counted boundary side channel."""

    def __init__(self, batches, annotations, task_end_batches, b, m):
        self.batches = list(batches)
        self._annotations = tuple(annotations)
        self._task_end_batches = tuple(task_end_batches)
        self.b = b
        self.m = m
        self.T = len(self.batches)
        self.annotation_reads = 0

    def __iter__(self):
        return iter(self.batches)

    def __len__(self):
        return self.T

    def __getitem__(self, i):
        return self.batches[i]

    @property
    def boundary_annotations(self):
        """Per-batch task index (of the batch's last row). Metrics only.

        Every read is counted so reports can assert the learning loop
        performed none.
        """
        self.annotation_reads += 1
        return self._annotations

    @property
    def task_end_batches(self):
        """1-based batch index at which each task's final row arrives."""
        self.annotation_reads += 1
        return self._task_end_batches


def one_hot(y, m):
    """Encode integer labels as rows with a single 1 over m classes."""
    y = np.asarray(y, dtype=int)
    if y.size and (y.min() < 0 or y.max() >= m):
        raise ContractError(f"labels out of range for m={m}")
    out = np.zeros((len(y), m))
    out[np.arange(len(y)), y] = 1.0
    return out


def split_class_incremental(dataset, spec, shuffle_within=True):
    """Partition a dataset into Q tasks of disjoint class groups.

    The class-to-task assignment and the task order both come from one
    permutation drawn with order_seed; sample order inside each task is
    shuffled from the same generator (or left sorted by class when
    shuffle_within is False, the worst-case drift mode).

    Args:
        dataset: LabeledDataset with m divisible by spec.Q.
        spec: TaskSplitSpec.
        shuffle_within: randomize sample order inside each task.

    Returns:
        Ordered list of Task objects covering every sample exactly once.
        Each task's X is its own copy of its rows and is read-only: the
        stream's batches view it, and the baselines refit on it, so it
        must never be written. The dataset may be released after the
        split.
    """
    per = spec.classes_per_task(dataset.m)
    rng = np.random.default_rng(spec.order_seed)
    order = rng.permutation(dataset.m)
    tasks = []
    for q in range(spec.Q):
        group = order[q * per:(q + 1) * per]
        idx = np.flatnonzero(np.isin(dataset.y, group))
        if shuffle_within:
            idx = idx[rng.permutation(len(idx))]
        else:
            idx = idx[np.argsort(dataset.y[idx], kind="stable")]
        X = dataset.X[idx]
        X.flags.writeable = False
        tasks.append(
            Task(X=X, y=dataset.y[idx],
                 classes=tuple(int(c) for c in np.sort(group)))
        )
    return tasks


def batchify(tasks, b, m):
    """Cut ordered tasks into a stream of b-row batches.

    The tasks are read as one row sequence and cut without regard to
    boundaries, so a batch may straddle two tasks or more; the per-batch
    annotation records the task of the batch's last row. Every batch's
    X is read-only. A batch inside one task is a row-slice view of that
    task's X; only a batch that straddles tasks is a copy, so the stream
    adds at most b rows per task boundary to the rows the tasks hold.
    The final batch may be short and is flagged. Targets are one-hot
    over the full class load m. A task without rows is a ContractError
    naming it and its classes.
    """
    if b < 1:
        raise ContractError(f"batch size must be >= 1, got {b}")
    tasks = list(tasks)
    for q, tk in enumerate(tasks):
        if len(tk.y) == 0:
            raise ContractError(f"task {q} (classes {list(tk.classes)}) "
                                f"has no training rows")
    sizes = [len(tk.y) for tk in tasks]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    n = int(ends[-1])

    batches, annotations = [], []
    for t, start in enumerate(range(0, n, b), start=1):
        stop = min(start + b, n)
        # The tasks of the batch's first and last rows, and each one's
        # share of rows [start, stop).
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        cuts = [(tasks[p], slice(max(start, starts[p]) - starts[p],
                                 min(stop, ends[p]) - starts[p]))
                for p in range(first, last + 1)]
        Xs = [tk.X[cut] for tk, cut in cuts]
        X = Xs[0] if len(Xs) == 1 else np.concatenate(Xs)
        X.flags.writeable = False
        y = np.concatenate([tk.y[cut] for tk, cut in cuts])
        batches.append(
            StreamBatch(X=X, Y=one_hot(y, m), t=t, short=(stop - start) < b)
        )
        annotations.append(int(last))

    task_end = ((ends - 1) // b + 1).tolist()
    return BatchStream(batches, annotations, task_end, b=b, m=m)


def _read_be32(f, path, what):
    data = f.read(4)
    if len(data) != 4:
        raise FormatError(f"{path}: truncated while reading {what}")
    return struct.unpack(">i", data)[0]


def _read_idx(path, magic, kind, unit, sizes):
    """Check an idx file's magic; return its named sizes and uint8 payload."""
    with open(path, "rb") as f:
        found = _read_be32(f, path, "magic")
        if found != magic:
            raise FormatError(
                f"{path}: bad {kind} magic {found} at offset 0, expected {magic}"
            )
        values = [_read_be32(f, path, what) for what in sizes]
        payload = f.read()
    expected = math.prod(values)
    if len(payload) != expected:
        raise FormatError(
            f"{path}: expected {expected} {unit} bytes, got {len(payload)}"
        )
    return values, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path=None, split="train"):
    """Load an IDX image/label pair into a flat dataset.

    Big-endian format: int32 magic, int32 counts and dimensions, then
    raw uint8 payload. Pixels are flattened row-major and scaled to
    [0, 1] (255 -> 1.0). When labels_path is omitted it is inferred by
    the usual images-idx3 -> labels-idx1 naming convention.
    """
    images_path = Path(images_path)
    if labels_path is None:
        guess = Path(str(images_path).replace("images-idx3", "labels-idx1"))
        if guess == images_path or not guess.exists():
            raise FormatError(
                f"{images_path}: cannot infer companion label file; pass labels_path"
            )
        labels_path = guess
    labels_path = Path(labels_path)

    (count, rows, cols), images = _read_idx(
        images_path, IDX_IMAGE_MAGIC, "image", "pixel",
        ("item count", "row count", "column count"),
    )
    (count_l,), labels = _read_idx(
        labels_path, IDX_LABEL_MAGIC, "label", "label", ("item count",)
    )
    if count_l != count:
        raise FormatError(
            f"image/label counts differ: {count} vs {count_l}"
        )
    if count == 0:
        raise FormatError(f"{images_path}: item count is 0, no images")
    # Scaled in one pass into one float64 array; the dtype is pinned, so
    # numpy versions that cast by value give the same bytes.
    return LabeledDataset(
        X=np.divide(images.reshape(count, rows * cols), 255.0, dtype=np.float64),
        y=labels.astype(int),
        m=int(labels.max()) + 1,
        split=split,
    )


def load_csv_features(path, label_column=-1, delimiter=",", m=None, split="train"):
    """Load a rectangular numeric table with one label column.

    An optional single header row is detected by non-numeric cells in
    the first line. label_column may be an integer position (negative
    allowed) or a header name. The class load m is inferred as
    max(label) + 1 unless given.
    """
    path = Path(path)
    with open(path, newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise FormatError(f"{path}: no data rows")

    header = None
    first = rows[0][1]
    try:
        [float(v) for v in first]
    except ValueError:
        header = [h.strip() for h in first]
        rows = rows[1:]
        if not rows:
            raise FormatError(f"{path}: header but no data rows")

    if isinstance(label_column, str):
        if header is None or label_column not in header:
            raise FormatError(
                f"{path}: label column {label_column!r} not found in header"
            )
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)

    width = len(rows[0][1])
    if not -width <= label_idx < width:
        raise FormatError(
            f"{path}: label column {label_idx} out of range for {width} columns"
        )
    label_idx = label_idx % width
    data = np.empty((len(rows), width))
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise FormatError(
                f"{path}:{lineno}: ragged row, {len(row)} cells vs {width}"
            )
        try:
            data[i] = [float(v) for v in row]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric cell") from None

    labels_f = data[:, label_idx]
    labels = labels_f.astype(int)
    if not np.all(labels_f == labels):
        bad = int(np.flatnonzero(labels_f != labels)[0])
        raise FormatError(
            f"{path}:{rows[bad][0]}: label is not an integer ({labels_f[bad]})"
        )
    X = np.delete(data, label_idx, axis=1)
    if m is None:
        m = int(labels.max()) + 1
    return LabeledDataset(X=X, y=labels, m=m, split=split)


def make_gaussian_dataset(classes, dims, separation, samples, test_samples,
                          seed=0):
    """Sample a synthetic cluster classification problem.

    Each class is an isotropic unit Gaussian around a center drawn as
    separation * standard normal, shared between the train and test
    splits. samples and test_samples count rows per class.

    Returns:
        (train, test) LabeledDataset pair.
    """
    if classes < 2 or dims < 1:
        raise ContractError("need at least 2 classes and 1 dimension")
    if samples < 1 or test_samples < 1:
        raise ContractError("need at least one sample per class per split")
    rng = np.random.default_rng(seed)
    centers = separation * rng.standard_normal((classes, dims))

    def draw(per_class, split):
        X = np.vstack(
            [centers[c] + rng.standard_normal((per_class, dims)) for c in range(classes)]
        )
        y = np.repeat(np.arange(classes), per_class)
        return LabeledDataset(X=X, y=y, m=classes, split=split)

    return draw(samples, "train"), draw(test_samples, "test")
