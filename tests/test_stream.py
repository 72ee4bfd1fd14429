"""Task splitting, batch streaming, and dataset loader tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from perfbench.workloads import write_idx
from rvflstream.errors import ContractError, FormatError
from rvflstream.stream import (
    HeldRows,
    LabeledDataset,
    Task,
    TaskSplitSpec,
    batchify,
    load_csv_features,
    load_idx,
    make_gaussian_dataset,
    one_hot,
    split_class_incremental,
)


def toy_dataset(n_per_class=6, classes=4, dims=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_per_class * classes, dims))
    y = np.repeat(np.arange(classes), n_per_class)
    return LabeledDataset(X=X, y=y, m=classes)


class TestOneHot:
    def test_encoding(self):
        Y = one_hot([2, 0], 3)
        assert np.array_equal(Y, [[0, 0, 1], [1, 0, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            one_hot([3], 3)
        with pytest.raises(ContractError):
            one_hot([-1], 3)


class TestLabeledDataset:
    def test_rejects_label_above_m(self):
        with pytest.raises(ContractError):
            LabeledDataset(X=np.ones((2, 2)), y=[0, 5], m=3)

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ContractError):
            LabeledDataset(X=np.array([[np.nan, 1.0]]), y=[0], m=2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ContractError):
            LabeledDataset(X=np.ones((3, 2)), y=[0, 1], m=2)


class TestSplit:
    def test_partition_is_disjoint_and_complete(self):
        ds = toy_dataset(classes=6)
        spec = TaskSplitSpec(Q=3, order_seed=5)
        tasks = split_class_incremental(ds, spec)
        all_classes = sorted(c for tk in tasks for c in tk.classes)
        assert all_classes == list(range(6))
        total = sum(len(tk.y) for tk in tasks)
        assert total == len(ds.y)
        for tk in tasks:
            assert set(np.unique(tk.y)) == set(tk.classes)

    def test_deterministic_in_order_seed(self):
        ds = toy_dataset(classes=4)
        a = split_class_incremental(ds, TaskSplitSpec(Q=2, order_seed=1))
        b = split_class_incremental(ds, TaskSplitSpec(Q=2, order_seed=1))
        c = split_class_incremental(ds, TaskSplitSpec(Q=2, order_seed=2))
        assert [t.classes for t in a] == [t.classes for t in b]
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.X, tb.X)
        assert [t.classes for t in a] != [t.classes for t in c]

    def test_sorted_mode_orders_by_class(self):
        ds = toy_dataset(classes=4)
        tasks = split_class_incremental(ds, TaskSplitSpec(Q=2, order_seed=0),
                                        shuffle_within=False)
        for tk in tasks:
            assert np.all(np.diff(tk.y) >= 0)

    def test_uneven_split_rejected(self):
        ds = toy_dataset(classes=4)
        with pytest.raises(ContractError):
            split_class_incremental(ds, TaskSplitSpec(Q=3))

    def test_task_rows_are_read_only_copies(self):
        # The stream's batches view these rows and the baselines refit on
        # them, so a write must fail instead of changing both.
        ds = toy_dataset(classes=4)
        tasks = split_class_incremental(ds, TaskSplitSpec(Q=2))
        for tk in tasks:
            assert not tk.X.flags.writeable
            assert not np.shares_memory(tk.X, ds.X)
            with pytest.raises(ValueError):
                tk.X[0, 0] = 1.0


class TestBatchify:
    def make_tasks(self, sizes, classes_per_task=2):
        tasks = []
        c0 = 0
        for q, n in enumerate(sizes):
            cls = tuple(range(c0, c0 + classes_per_task))
            y = np.resize(np.array(cls), n)
            X = np.full((n, 2), float(q))
            tasks.append(Task(X=X, y=y, classes=cls))
            c0 += classes_per_task
        return tasks

    def test_batch_shapes_and_short_flag(self):
        tasks = self.make_tasks([5, 4])        # 9 rows, b=4 -> 4,4,1
        stream = batchify(tasks, 4, 4)
        assert stream.T == 3
        assert [bt.short for bt in stream] == [False, False, True]
        assert stream[2].X.shape == (1, 2)
        assert all(bt.Y.shape[1] == 4 for bt in stream)

    def test_straddling_batch_annotated_by_last_row(self):
        # Rows 0-4 are task 0, rows 5-8 task 1; batch 2 holds rows 4-7,
        # so its last row already belongs to task 1.
        tasks = self.make_tasks([5, 4])
        stream = batchify(tasks, 4, 4)
        assert list(stream.boundary_annotations) == [0, 1, 1]
        assert list(stream.task_end_batches) == [2, 3]

    @pytest.mark.parametrize("sizes, b", [
        ([5, 4], 4), ([4, 4], 2), ([1, 7, 2, 3], 3), ([3, 1, 1], 5), ([6], 1)])
    def test_annotations_match_a_row_by_row_reference(self, sizes, b):
        # Each row's task, read off at every batch's last row and at
        # every task's last row.
        task_of_row = np.repeat(np.arange(len(sizes)), sizes)
        stream = batchify(self.make_tasks(sizes), b, 2 * len(sizes))
        last = [min(t * b, len(task_of_row)) - 1 for t in range(1, stream.T + 1)]
        assert list(stream.boundary_annotations) == [int(task_of_row[r]) for r in last]
        assert list(stream.task_end_batches) == [
            int(np.flatnonzero(task_of_row == q).max() // b) + 1
            for q in range(len(sizes))]
        assert all(type(v) is int for v in stream.boundary_annotations)
        assert all(type(v) is int for v in stream.task_end_batches)

    def test_task_without_rows_is_named(self):
        tasks = self.make_tasks([3, 0, 2])
        with pytest.raises(ContractError, match=r"task 1 \(classes \[2, 3\]\)"):
            batchify(tasks, 2, 6)

    def test_annotation_reads_are_counted(self):
        stream = batchify(self.make_tasks([4, 4]), 2, 4)
        assert stream.annotation_reads == 0
        _ = stream.boundary_annotations
        _ = stream.task_end_batches
        assert stream.annotation_reads == 2
        for batch in stream:               # plain batch access is free
            _ = batch.X, batch.Y, batch.t
        assert stream.annotation_reads == 2

    def test_batches_have_no_task_field(self):
        stream = batchify(self.make_tasks([4]), 2, 2)
        assert not hasattr(stream[0], "task")

    def test_one_hot_targets_cover_full_class_load(self):
        tasks = self.make_tasks([4, 4])
        stream = batchify(tasks, 4, 4)
        # Task 0 batches are one-hot over all 4 classes, zeros beyond.
        assert np.array_equal(stream[0].Y.sum(axis=0)[2:], [0, 0])

    @pytest.mark.parametrize("b", [0, 2.5])
    def test_invalid_batch_size_rejected(self, b):
        with pytest.raises(ContractError, match="batch size"):
            batchify(self.make_tasks([4]), b, 2)

    def test_empty_task_list_rejected(self):
        with pytest.raises(ContractError, match="no tasks"):
            batchify([], 5, 3)


def random_tasks(sizes, dims=3, seed=0):
    """Tasks of distinct random rows, one class per task."""
    rng = np.random.default_rng(seed)
    return [Task(X=rng.standard_normal((n, dims)), y=np.full(n, q), classes=(q,))
            for q, n in enumerate(sizes)]


class TestBatchesViewTheTasks:
    @pytest.mark.parametrize("sizes, b", [
        ([4, 8, 12], 4),        # b divides every task: no batch straddles
        ([7, 3, 5], 5),         # uneven tasks, b divides their total only
        ([5, 2, 6], 4),         # batch 2 spans three tasks; 1-row last batch
        ([3, 1, 1, 5], 7),      # batch 1 spans four tasks; short last batch
        ([9], 4),               # one task, short last batch
        ([6, 6], 1),
    ])
    def test_stream_matches_the_stacked_construction(self, sizes, b):
        tasks = random_tasks(sizes)
        X = np.vstack([tk.X for tk in tasks])
        y = np.concatenate([tk.y for tk in tasks])
        stream = batchify(tasks, b, len(sizes))
        starts = range(0, len(y), b)
        assert stream.T == len(starts)
        for batch, start in zip(stream, starts):
            want = X[start:start + b]
            assert batch.X.dtype == want.dtype
            assert batch.X.shape == want.shape
            assert np.ascontiguousarray(batch.X).tobytes() == want.tobytes()
            assert np.array_equal(batch.Y, one_hot(y[start:start + b], len(sizes)))
            assert batch.short == (len(want) < b)

    @pytest.mark.parametrize("sizes, b", [([7, 3, 5], 5), ([5, 2, 6], 4),
                                          ([4, 8, 12], 4)])
    def test_batches_inside_a_task_view_its_rows(self, sizes, b):
        tasks = random_tasks(sizes)
        task_of_row = np.repeat(np.arange(len(sizes)), sizes)
        for t, batch in enumerate(batchify(tasks, b, len(sizes))):
            owners = set(task_of_row[t * b:(t + 1) * b])
            for q, tk in enumerate(tasks):
                # A straddling batch is a copy, so it shares no task's rows.
                assert np.shares_memory(batch.X, tk.X) == (owners == {q})

    @pytest.mark.parametrize("sizes, b", [([5, 2, 6], 4), ([4, 8], 4)])
    def test_writing_into_a_batch_raises_and_leaves_its_task(self, sizes, b):
        ds = LabeledDataset(X=np.vstack([tk.X for tk in random_tasks(sizes)]),
                            y=np.repeat(np.arange(len(sizes)), sizes),
                            m=len(sizes))
        tasks = split_class_incremental(ds, TaskSplitSpec(Q=len(sizes)))
        before = [tk.X.copy() for tk in tasks]
        for batch in batchify(tasks, b, ds.m):
            with pytest.raises(ValueError):
                batch.X[0, 0] = 1e6
        for tk, X in zip(tasks, before):
            assert np.array_equal(tk.X, X)

    def test_batches_of_hand_built_tasks_are_read_only(self):
        tasks = random_tasks([3, 4])
        for batch in batchify(tasks, 2, 2):
            assert not batch.X.flags.writeable
        assert all(tk.X.flags.writeable for tk in tasks)

    @pytest.mark.parametrize("b", [20, 30])
    def test_peak_memory_is_a_small_share_of_the_rows(self, b):
        # Stacking the tasks allocates all of their rows again (a ratio
        # of 1.01 here); views allocate the targets and the straddling
        # batches only (0.011 at b=20, 0.054 at b=30).
        tasks = random_tasks([400] * 5, dims=784)
        row_bytes = sum(tk.X.nbytes for tk in tasks)
        tracemalloc.start()
        try:
            stream = batchify(tasks, b, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.T == -(-2000 // b)
        assert peak < 0.1 * row_bytes, f"peak {peak / row_bytes:.3f} of the rows"


def write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "toy-images-idx3-ubyte"
    lab_path = tmp_path / "toy-labels-idx1-ubyte"
    write_idx(img_path, lab_path, images, labels)
    return img_path, lab_path


class TestIdxLoader:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 2, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img_path, lab_path)
        assert ds.X.shape == (5, 6)
        assert ds.m == 3
        assert np.array_equal(ds.y, labels)
        assert np.allclose(ds.X, images.reshape(5, 6) / 255.0)

    def test_pixels_have_the_bytes_of_the_two_pass_scaling(self, tmp_path):
        # A pin: one float64 divide gives the bytes of
        # astype(float) / 255.0, at every pixel value.
        images = (np.arange(12 * 64) % 256).astype(np.uint8).reshape(12, 8, 8)
        labels = np.arange(12, dtype=np.uint8) % 3
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        want = images.reshape(12, 64).astype(float) / 255.0
        assert ds.X.dtype == np.float64
        assert ds.X.tobytes() == want.tobytes()

    def test_companion_inference(self, tmp_path):
        images = np.zeros((2, 1, 1), dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        img_path, _ = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img_path)
        assert ds.m == 2

    def test_bad_magic_reports_offset(self, tmp_path):
        p = tmp_path / "bad-images-idx3-ubyte"
        with open(p, "wb") as f:
            f.write(struct.pack(">iiii", 1234, 1, 1, 1))
            f.write(b"\x00")
        (tmp_path / "bad-labels-idx1-ubyte").write_bytes(
            struct.pack(">ii", 2049, 1) + b"\x00"
        )
        with pytest.raises(FormatError, match="magic 1234 at offset 0"):
            load_idx(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "cut-images-idx3-ubyte"
        with open(p, "wb") as f:
            f.write(struct.pack(">iiii", 2051, 2, 2, 2))
            f.write(b"\x00" * 7)               # needs 8 bytes
        (tmp_path / "cut-labels-idx1-ubyte").write_bytes(
            struct.pack(">ii", 2049, 2) + b"\x00\x01"
        )
        with pytest.raises(FormatError, match="expected 8 pixel bytes, got 7"):
            load_idx(p)

    def test_negative_sizes_rejected(self, tmp_path):
        # -1 rows of -10 columns multiply to the 10 pixels each image
        # carries, so only the sign gives the header away.
        p = tmp_path / "neg-images-idx3-ubyte"
        with open(p, "wb") as f:
            f.write(struct.pack(">iiii", 2051, 2, -1, -10))
            f.write(b"\x00" * 20)
        (tmp_path / "neg-labels-idx1-ubyte").write_bytes(
            struct.pack(">ii", 2049, 2) + b"\x00\x01"
        )
        with pytest.raises(FormatError, match="negative row count -1"):
            load_idx(p)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 1, 1), dtype=np.uint8)
        labels = np.array([0, 1], dtype=np.uint8)
        img_path = tmp_path / "m-images-idx3-ubyte"
        lab_path = tmp_path / "m-labels-idx1-ubyte"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">iiii", 2051, 3, 1, 1))
            f.write(images.tobytes())
        with open(lab_path, "wb") as f:
            f.write(struct.pack(">ii", 2049, 2))
            f.write(labels.tobytes())
        with pytest.raises(FormatError, match="counts differ"):
            load_idx(img_path, lab_path)


class TestHeldPixels:
    def test_split_and_stream_hold_one_byte_per_pixel(self, tmp_path):
        # The pixel_bayes train set's size: 2000 images of 28 x 28. The
        # tasks hold the file's bytes, and the peak over load, split and
        # batchify is the file's payload plus the tasks' copy of it (2.0
        # n s here); holding float64 rows took 8 n s per copy.
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(10, dtype=np.uint8), 200)
        images = rng.integers(0, 256, (len(labels), 28, 28), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, images, labels)
        n, s = 2000, 784
        tracemalloc.start()
        try:
            ds = load_idx(*paths)
            tasks = split_class_incremental(ds, TaskSplitSpec(Q=5, order_seed=1))
            stream = batchify(tasks, 20, ds.m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(tk.rows.held.dtype == np.uint8 for tk in tasks)
        assert sum(tk.rows.held.nbytes for tk in tasks) == n * s
        assert peak < 3 * n * s, f"peak {peak / (n * s):.2f} bytes per pixel"
        held = np.vstack([tk.rows.held for tk in tasks])
        for t, batch in enumerate(stream):
            want = held[t * 20:(t + 1) * 20].astype(float) / 255.0
            assert batch.X.dtype == np.float64 and not batch.X.flags.writeable
            assert batch.X.tobytes() == want.tobytes()

    def test_dataset_x_reads_the_held_pixels_scaled(self, tmp_path):
        images = (np.arange(6 * 16) % 256).astype(np.uint8).reshape(6, 4, 4)
        ds = load_idx(*write_idx_pair(tmp_path, images, np.arange(6) % 2))
        assert ds.rows.held.dtype == np.uint8
        assert ds.X.tobytes() == (images.reshape(6, 16) / 255.0).tobytes()
        assert not ds.X.flags.writeable
        assert ds.rows[2:4].tobytes() == ds.X[2:4].tobytes()

    def test_a_caller_uint8_array_is_not_scaled(self):
        # Only load_idx marks rows as pixels; a uint8 array handed to
        # LabeledDataset converts to float64 with its values kept.
        X = np.array([[0, 255], [7, 128]], dtype=np.uint8)
        ds = LabeledDataset(X=X, y=[0, 1], m=2)
        assert not ds.rows.pixels
        assert ds.X.dtype == np.float64
        assert np.array_equal(ds.X, [[0.0, 255.0], [7.0, 128.0]])
        tasks = split_class_incremental(ds, TaskSplitSpec(Q=1))
        stacked = np.vstack([bt.X for bt in batchify(tasks, 1, 2)])
        assert stacked.dtype == np.float64
        assert np.array_equal(stacked, tasks[0].X)
        assert sorted(map(tuple, stacked)) == [(0.0, 255.0), (7.0, 128.0)]

    def test_marked_rows_read_as_scaled_floats(self):
        rows = HeldRows(np.array([[0, 51, 255]], dtype=np.uint8), pixels=True)
        assert rows[:].tobytes() == np.array([[0.0, 0.2, 1.0]]).tobytes()
        assert not rows[:].flags.writeable


class TestBatchStreamReads:
    def test_rereading_a_batch_gives_the_same_object(self):
        stream = batchify(random_tasks([5, 4]), 4, 2)
        nxt = stream[1]
        assert stream[1] is nxt
        assert [bt.t for bt in stream] == [1, 2, 3]
        assert stream[-1].t == 3
        assert [bt.t for bt in stream[1:]] == [2, 3]
        with pytest.raises(IndexError):
            stream[3]


class TestCsvLoader:
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_plain_numeric(self, tmp_path):
        p = self.write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv_features(p)
        assert ds.X.shape == (2, 2)
        assert np.array_equal(ds.y, [0, 1])
        assert ds.m == 2

    def test_header_and_named_label_column(self, tmp_path):
        p = self.write(tmp_path, "a,b,target\n1,2,1\n3,4,0\n")
        ds = load_csv_features(p, label_column="target")
        assert np.array_equal(ds.y, [1, 0])
        assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_label_column_by_index(self, tmp_path):
        p = self.write(tmp_path, "1,9,0.5\n0,8,0.25\n")
        ds = load_csv_features(p, label_column=0)
        assert np.array_equal(ds.y, [1, 0])
        assert np.array_equal(ds.X, [[9.0, 0.5], [8.0, 0.25]])

    def test_ragged_row_reports_line(self, tmp_path):
        p = self.write(tmp_path, "1,2,0\n3,4\n")
        with pytest.raises(FormatError, match=r"csv:2:"):
            load_csv_features(p)

    def test_non_numeric_reports_line(self, tmp_path):
        p = self.write(tmp_path, "1,2,0\n3,oops,1\n")
        with pytest.raises(FormatError, match=r"csv:2: non-numeric"):
            load_csv_features(p)

    def test_non_integer_label_rejected(self, tmp_path):
        p = self.write(tmp_path, "1,2,0.5\n")
        with pytest.raises(FormatError, match="integer"):
            load_csv_features(p)

    def test_label_column_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "1,2,0\n")
        with pytest.raises(FormatError, match="out of range"):
            load_csv_features(p, label_column=5)

    def test_explicit_class_load(self, tmp_path):
        p = self.write(tmp_path, "1,2,0\n3,4,1\n")
        ds = load_csv_features(p, m=10)
        assert ds.m == 10


class TestGaussianDataset:
    def test_shapes_and_balance(self):
        train, test = make_gaussian_dataset(
            classes=3, dims=4, separation=2.0, samples=10, test_samples=5,
            seed=1,
        )
        assert train.X.shape == (30, 4)
        assert test.X.shape == (15, 4)
        assert train.m == test.m == 3
        assert np.array_equal(np.bincount(train.y), [10, 10, 10])
        assert np.array_equal(np.bincount(test.y), [5, 5, 5])

    def test_deterministic_and_split_disjoint(self):
        a_tr, a_te = make_gaussian_dataset(2, 3, 1.0, 8, 4, seed=9)
        b_tr, b_te = make_gaussian_dataset(2, 3, 1.0, 8, 4, seed=9)
        assert np.array_equal(a_tr.X, b_tr.X)
        assert np.array_equal(a_te.X, b_te.X)
        # Train and test draws must differ (fresh noise, same centers).
        assert not np.array_equal(a_tr.X[:4], a_te.X[:4])

    def test_separation_moves_centers_apart(self):
        near_tr, _ = make_gaussian_dataset(2, 3, 0.1, 40, 4, seed=3)
        far_tr, _ = make_gaussian_dataset(2, 3, 50.0, 40, 4, seed=3)

        def center_gap(ds):
            c0 = ds.X[ds.y == 0].mean(axis=0)
            c1 = ds.X[ds.y == 1].mean(axis=0)
            return np.linalg.norm(c0 - c1)

        assert center_gap(far_tr) > center_gap(near_tr) * 10

    def test_rejects_empty_split(self):
        with pytest.raises(ContractError):
            make_gaussian_dataset(2, 3, 1.0, 0, 4)
