"""Accuracy of every style in both init modes on one shipped workload tree.

The eval_ridge tree (10 classes, 64 dims, five tasks of batch 20, three
layers of 128 nodes, lam=1e-6) is separable enough that its offline
ridge fit scores 1.0, so a style that ends far below that on it has
lost the stream, not the data. Each cell runs the tree through
run_experiment once, evaluated per task and without baselines.
"""

import pytest

from perfbench import workloads
from rvflstream.runner import run_experiment, validate_config

# kf with k > 0 runs the dense chain of the forward update, and under
# paper_strict at lam=1e-6 the chain's cancellation sinks its head:
# 0.1611 at k=0.5 and 0.1049 at k=1 on this tree (seed 503), where
# every other cell reads 1.0, as does the listing's closed form. Moving
# kf onto the carried recursion that ridge and kf_bayes share should
# end it.
KF_PAPER_STRICT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="kf with k > 0 collapses under paper_strict at lam=1e-6 "
           "(FOUND 55, ROADMAP item 9)")

STYLES = {
    "ridge": {"kind": "ridge"},
    "kf_0.5": {"kind": "kf", "k": 0.5},
    "kf_1": {"kind": "kf", "k": 1.0},
    "kf_bayes": {"kind": "kf_bayes"},
}


def cells():
    for name, style in STYLES.items():
        for mode in ("theorem", "paper_strict"):
            collapses = style["kind"] == "kf" and mode == "paper_strict"
            marks = KF_PAPER_STRICT if collapses else ()
            yield pytest.param(style, mode, marks=marks, id=f"{name}-{mode}")


@pytest.fixture(scope="module")
def eval_ridge_tree(tmp_path_factory):
    tree = workloads.build("eval_ridge", 503, tmp_path_factory.mktemp("eval_ridge"))
    assert tree["network"]["lam"] == 1e-6
    return dict(tree, eval_every="task", baselines=False)


@pytest.mark.parametrize("style, mode", cells())
def test_final_accuracy_near_the_offline_fit(eval_ridge_tree, style, mode):
    tree = dict(eval_ridge_tree, style=dict(style, init_mode=mode))
    acc = run_experiment(validate_config(tree)).final["acc"]
    assert acc >= 0.95, acc
