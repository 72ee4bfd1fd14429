"""The benchmark's workloads: seeded inputs and the run config for each.

Each workload is one closed-loop stream: a single consumer calls
``observe`` batch by batch, each call waiting for the previous one, in
one process, at the machine's default BLAS thread count. The seed only
shapes the generated inputs; every stream is long enough that its p90
per-batch latency has at least ten samples beyond it.
"""

import struct
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


def write_idx(images_path, labels_path, images, labels):
    """Write a uint8 image stack and its labels as an idx3/idx1 pair."""
    count, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, count, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, count))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def pixel_standin(seed, train_per_class, test_per_class, classes=10):
    """Seeded 28x28 uint8 images: a smooth prototype per class plus noise.

    Prototypes are 7x7 uniform draws upsampled 4x, so neighbouring pixels
    correlate the way strokes do; each sample adds Gaussian pixel noise.
    Returns ((train_images, train_labels), (test_images, test_labels)).
    """
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0.0, 255.0, size=(classes, 7, 7))
    protos = np.kron(coarse, np.ones((4, 4)))

    def draw(per_class):
        labels = np.repeat(np.arange(classes), per_class)
        noise = rng.normal(0.0, 60.0, size=(len(labels), 28, 28))
        images = np.clip(np.rint(protos[labels] + noise), 0, 255)
        return images.astype(np.uint8), labels.astype(np.uint8)

    return draw(train_per_class), draw(test_per_class)


def _pixel_bayes(seed, work_dir):
    # d = 784 + 256 = 1040: the d^2 Woodbury and head updates dominate,
    # and lam = 1e-6 is where kf_bayes accuracy collapses.
    (tr_x, tr_y), (te_x, te_y) = pixel_standin(seed, 200, 100)
    paths = {key: str(work_dir / f"{key}.idx") for key in
             ("train_images", "train_labels", "test_images", "test_labels")}
    write_idx(paths["train_images"], paths["train_labels"], tr_x, tr_y)
    write_idx(paths["test_images"], paths["test_labels"], te_x, te_y)
    return {
        "dataset": {"kind": "idx", **paths},
        "split": {"Q": 5},
        "batch_size": 20,
        "network": {"L": 3, "N": 256, "lam": 1.0e-6},
        "style": {"kind": "kf_bayes"},
        "eval_every": "task",
        "baselines": False,
    }


def _eval_ridge(seed, work_dir):
    # The read path: every batch is evaluated on 10 000 test rows, and
    # the baselines refit offline, so a head layout that speeds writes
    # but slows reads shows here. Ridge carries the offline-equivalence
    # check.
    return {
        "dataset": {"kind": "synthetic", "classes": 10, "dims": 64,
                    "separation": 1.5, "samples": 200, "test_samples": 1000},
        "split": {"Q": 5},
        "batch_size": 20,
        "network": {"L": 3, "N": 128, "lam": 1.0e-6},
        "style": {"kind": "ridge"},
        "eval_every": "batch",
        "baselines": True,
    }


WORKLOADS = {
    "pixel_bayes": _pixel_bayes,
    "eval_ridge": _eval_ridge,
}


def build(name, seed, work_dir):
    """Write the workload's input files under work_dir; return its config tree."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    tree = WORKLOADS[name](seed, work_dir)
    tree["seeds"] = {"weights": seed, "order": seed, "synthetic": seed}
    return tree
