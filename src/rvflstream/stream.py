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


class HeldRows:
    """n x s rows held at their source's width, read as float64 rows.

    held is what the source gave. Rows that load_idx marks as pixels are
    the file's uint8, one byte per pixel; any other rows are held as
    float64 (or, in a hand-built Task, as given). rows[sel] is the one
    way rows are read, so a caller that reads a block at a time, as
    ContinualModel.eval_features does, holds one float block beyond the
    held rows. Only load_idx passes pixels=True: no dtype implies it, so
    a caller's uint8 array is never divided.
    """

    def __init__(self, held, pixels=False):
        self.held = held
        self.pixels = pixels

    def __len__(self):
        return len(self.held)

    def __getitem__(self, sel):
        """The selected rows as a read-only array.

        Pixels are divided by 255 in one float64 pass,
        np.divide(held, 255.0, dtype=np.float64): the bytes of
        held.astype(float) / 255.0 at every pixel value and, with the
        dtype pinned, on every numpy version. Other rows are a view of
        held, with held's dtype.
        """
        X = self.held[sel]
        X = np.divide(X, 255.0, dtype=np.float64) if self.pixels else X[...]
        X.flags.writeable = False
        return X

    @property
    def shape(self):
        return self.held.shape

    def take(self, index):
        """A read-only copy of the selected held rows, marked as these are."""
        held = self.held[index]
        held.flags.writeable = False
        return HeldRows(held, self.pixels)


class _Rows:
    """A dataset or task: its rows held as a HeldRows, read whole as X."""

    rows: HeldRows

    @property
    def X(self):
        """Every row as float64.

        The held array itself, except for idx pixels: those are read
        anew on each access as one read-only n x s float64 array.
        """
        rows = self.rows
        return rows[:] if rows.pixels else rows.held


class LabeledDataset(_Rows):
    """A flat supervised dataset: X is n x s, y holds labels in [0, m).

    X may be any n x s array-like, held as float64 (an integer array
    converts with no scaling), or a HeldRows, held as it is: load_idx
    passes the file's uint8 pixels that way, so they are held at one
    byte each and X reads them divided by 255.
    """

    def __init__(self, X, y, m):
        self.rows = X if isinstance(X, HeldRows) else HeldRows(
            np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=int)
        self.m = m
        held = self.rows.held
        if held.ndim != 2 or 0 in held.shape:
            raise ContractError(f"X must be a nonempty matrix, got shape {held.shape}")
        if self.y.shape != (held.shape[0],):
            raise ContractError("y must have one label per row of X")
        if not (self.rows.pixels or np.all(np.isfinite(held))):
            raise ContractError("features must be finite")
        if self.y.min() < 0 or self.y.max() >= self.m:
            raise ContractError(
                f"labels must lie in [0, {self.m}), got range "
                f"[{self.y.min()}, {self.y.max()}]"
            )


class Task(_Rows):
    """One class-incremental task: samples of a disjoint class group.

    X is held as given, or as the HeldRows split_class_incremental
    passes, which keeps a dataset's idx pixels at one byte each.
    """

    def __init__(self, X, y, classes):
        self.rows = X if isinstance(X, HeldRows) else HeldRows(X)
        self.y = y
        self.classes = classes


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
    """An ordered batch sequence with a counted boundary side channel.

    The one map from batches to tasks is made here, once, from the
    cumulative task sizes: for every batch, the task of its first row
    and the task of its last row. The last-row tasks are the
    boundary_annotations, and task_end_batches comes from the same
    ends. stream[i] builds batch i from the tasks' held rows each time
    it is read (see batchify), and the stream keeps no batch, so it
    holds no rows of its own. A caller that needs one batch twice, as
    the runner's loop does when it passes X_next and then steps on it,
    keeps what it read.
    """

    def __init__(self, tasks, b, m):
        self._tasks = tuple(tasks)
        self.b = b
        self.m = m
        sizes = [len(tk.y) for tk in self._tasks]
        self._ends = np.cumsum(sizes)
        self._starts = self._ends - sizes
        n = int(self._ends[-1])
        first_rows = np.arange(0, n, b)
        last_rows = np.minimum(first_rows + b, n) - 1
        self.T = len(first_rows)
        self._first_tasks = np.searchsorted(self._ends, first_rows, side="right").tolist()
        self._annotations = tuple(np.searchsorted(
            self._ends, last_rows, side="right").tolist())
        self._task_end_batches = tuple(((self._ends - 1) // b + 1).tolist())
        self.annotation_reads = 0

    def __iter__(self):
        return (self[i] for i in range(self.T))

    def __len__(self):
        return self.T

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self.T)[i]]
        return self._build(range(1, self.T + 1)[i])

    def _build(self, t):
        """Batch t (1-based): rows [(t - 1) b, t b) of the tasks in order.

        Each task from the one of the batch's first row to the one of
        its last row gives its share of those rows.
        """
        starts, ends = self._starts, self._ends
        start, stop = (t - 1) * self.b, min(t * self.b, int(ends[-1]))
        cuts = [(self._tasks[p], slice(max(start, starts[p]) - starts[p],
                                       min(stop, ends[p]) - starts[p]))
                for p in range(self._first_tasks[t - 1], self._annotations[t - 1] + 1)]
        Xs = [tk.rows[cut] for tk, cut in cuts]
        X = Xs[0] if len(Xs) == 1 else np.concatenate(Xs)
        X.flags.writeable = False
        y = np.concatenate([tk.y[cut] for tk, cut in cuts])
        return StreamBatch(X=X, Y=one_hot(y, self.m), t=t,
                           short=(stop - start) < self.b)

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
        Each task holds its own read-only copy of its rows at the
        dataset's held width (HeldRows.take), so idx pixels stay one
        byte each: the stream's batches read it, and the baselines
        refit on it, so it must never be written. The dataset may be
        released after the split.
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
        tasks.append(
            Task(X=dataset.rows.take(idx), y=dataset.y[idx],
                 classes=tuple(int(c) for c in np.sort(group)))
        )
    return tasks


def batchify(tasks, b, m):
    """Cut ordered tasks into a stream of b-row batches.

    The tasks are read as one row sequence and cut without regard to
    boundaries, so a batch may straddle two tasks or more; the per-batch
    annotation records the task of the batch's last row. Each batch is
    built when the stream is read (BatchStream), and its X is read-only
    float64 rows: a batch inside one task reads its rows through the
    task's HeldRows, a row-slice view of float rows or its idx pixels
    divided by 255, and only a batch that straddles tasks is a
    concatenated copy. So the stream holds no rows beyond the tasks'.
    The final batch may be short and is flagged. Targets are one-hot
    over the full class load m. A b that is not an integer >= 1, an
    empty task list and a task without rows (named with its classes)
    are each a ContractError.
    """
    if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1:
        raise ContractError(f"batch size must be an integer >= 1, got {b!r}")
    tasks = list(tasks)
    if not tasks:
        raise ContractError("no tasks to cut into batches")
    for q, tk in enumerate(tasks):
        if len(tk.y) == 0:
            raise ContractError(f"task {q} (classes {list(tk.classes)}) "
                                f"has no training rows")
    return BatchStream(tasks, b, m)


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
        for what, value in zip(sizes, values):
            if value < 0:
                raise FormatError(f"{path}: negative {what} {value}")
        payload = f.read()
    expected = math.prod(values)
    if len(payload) != expected:
        raise FormatError(
            f"{path}: expected {expected} {unit} bytes, got {len(payload)}"
        )
    return values, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path=None):
    """Load an IDX image/label pair into a flat dataset.

    Big-endian format: int32 magic, int32 counts and dimensions, then
    raw uint8 payload. Pixels are flattened row-major and held as the
    file's uint8, one byte each (a HeldRows marked as pixels), in the
    dataset, in its tasks and in the runner's test set; they are scaled
    to [0, 1] (255 -> 1.0) wherever rows are read: the dataset's X, each
    stream batch, each baseline pool and each row block of the test
    store.
    When labels_path is omitted it is inferred by the usual
    images-idx3 -> labels-idx1 naming convention. A file with no images,
    or with images of no pixels, is a FormatError naming it.
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
    if rows * cols == 0:
        raise FormatError(f"{images_path}: images are {rows}x{cols}, no pixels")
    return LabeledDataset(
        X=HeldRows(images.reshape(count, rows * cols), pixels=True),
        y=labels.astype(int),
        m=int(labels.max()) + 1,
    )


def load_csv_features(path, label_column=-1, delimiter=",", m=None):
    """Load a rectangular numeric table with one label column.

    An optional single header row is detected by non-numeric cells in
    the first line. label_column may be an integer position (negative
    allowed) or a header name. The class load m is inferred as
    max(label) + 1 unless given. A table with no column besides the
    label, and a label outside [0, m), are each a FormatError naming
    the file (and the line of the first such label).
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
    if width == 1:
        raise FormatError(f"{path}: no feature columns besides the label column")
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
    outside = (labels < 0) | (labels >= m)
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])
        raise FormatError(f"{path}:{rows[bad][0]}: label {labels[bad]} "
                          f"outside the class load [0, {m})")
    return LabeledDataset(X=X, y=labels, m=m)


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

    def draw(per_class):
        X = np.vstack(
            [centers[c] + rng.standard_normal((per_class, dims)) for c in range(classes)]
        )
        y = np.repeat(np.arange(classes), per_class)
        return LabeledDataset(X=X, y=y, m=classes)

    return draw(samples), draw(test_samples)
