"""Tests of the benchmark's own machinery, on small inputs."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


def small_tree(style="ridge"):
    return {
        "dataset": {"kind": "synthetic", "classes": 4, "dims": 6,
                    "separation": 2.0, "samples": 30, "test_samples": 20},
        "split": {"Q": 2},
        "batch_size": 8,
        "network": {"L": 2, "N": 10, "lam": 1.0e-3},
        "style": {"kind": style},
        "eval_every": "batch",
        "baselines": True,
        "seeds": {"weights": 3, "order": 3, "synthetic": 3},
    }


def test_traced_and_untraced_runs_agree_exactly(tmp_path):
    tree = small_tree()
    plain, plain_model, stream, _ = run.run_once(tree, tmp_path / "plain")
    tracer = Tracer()
    traced, traced_model, _, _ = run.run_once(tree, tmp_path / "traced", tracer)

    assert tracer.spans
    assert plain.stream_hash == traced.stream_hash
    assert plain.final["acc"] == traced.final["acc"]
    assert plain.final["cum_regret"] == traced.final["cum_regret"]
    assert (run.offline_gap(stream, plain_model)
            == run.offline_gap(stream, traced_model))
    assert run.check(traced, run.outputs(plain)) == []


def test_tracer_restores_every_wrapped_name():
    from rvflstream import learners, runner, solvers

    before = (learners.woodbury_update, solvers.solve_spd,
              runner.run_experiment, learners.ContinualModel.observe)
    with Tracer():
        assert learners.woodbury_update is not before[0]
    after = (learners.woodbury_update, solvers.solve_spd,
             runner.run_experiment, learners.ContinualModel.observe)
    assert after == before


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has child
    # c [15, 35]. Spans are (name, parent, start, end, batch, layer).
    spans = [
        ("root", -1, 0, 100, None, None),
        ("a", 0, 10, 40, 1, 1),
        ("c", 1, 15, 35, 1, 1),
        ("b", 0, 50, 90, 1, 2),
        ("a", -1, 200, 210, 2, 1),
    ]
    rows = summarize(spans)
    assert rows["root"] == {"calls": 1, "busy_ns": 100, "self_ns": 30}
    assert rows["a"] == {"calls": 2, "busy_ns": 40, "self_ns": 20}
    assert rows["c"] == {"calls": 1, "busy_ns": 20, "self_ns": 20}
    assert rows["b"] == {"calls": 1, "busy_ns": 40, "self_ns": 40}


def test_within_counts_only_spans_under_the_named_ancestor():
    spans = [
        ("observe", -1, 0, 100, 1, None),
        ("step", 0, 10, 60, 1, 1),
        ("solve", 1, 20, 30, 1, 1),
        ("baseline", -1, 200, 300, None, None),
        ("solve", 3, 210, 250, None, None),
    ]
    rows = summarize(spans, within="observe")
    assert rows["solve"] == {"calls": 1, "busy_ns": 10, "self_ns": 10}
    assert "observe" not in rows and "baseline" not in rows
    assert summarize(spans)["solve"]["calls"] == 2


def test_setup_probe_stops_at_the_model_and_hashes_the_runners_stream(tmp_path):
    import json
    import subprocess

    tree = small_tree("kf_bayes")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tree))
    probe = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(BENCH.parent / "src"),
         str(config)], capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(probe.stdout)
    report, _, _, _ = run.run_once(tree, tmp_path / "report")
    assert out["stream_sha256"] == report.stream_hash
    assert out["setup_s"] > 0


def test_spans_link_parents_and_carry_batch_and_layer(tmp_path):
    tracer = Tracer()
    run.run_once(small_tree("kf_bayes"), tmp_path, tracer)
    spans = tracer.spans
    steps = [s for s in spans if s[0] == "learners.step"]
    assert {s[5] for s in steps} == {1, 2}
    for name, parent, _, _, batch, layer in spans:
        if name == "solvers.woodbury_update":
            assert spans[parent][0] == "learners.step"
            assert (batch, layer) == spans[parent][4:]


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert run.supported_percentile(values, 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        run.supported_percentile(values[:99], 90)
    assert run.supported_percentile(values[:20], 50) == pytest.approx(10.5)


def test_missing_wrapped_name_reports_zero_calls(tmp_path):
    targets = {"solvers.woodbury_update": (["solvers.no_such_name"], None, None)}
    tracer = Tracer(targets)
    report, _, _, _ = run.run_once(small_tree(), tmp_path, tracer)
    metrics = run.layer_metrics(tracer, report)
    assert tracer.spans == []
    assert metrics["solvers.woodbury_update.calls"] == 0
    assert metrics["solvers.woodbury_update.gflops"] == 0.0
    assert metrics["learners.step.self_ms"] == 0.0


def test_check_flags_non_finite_and_changed_outputs(tmp_path):
    report, _, _, _ = run.run_once(small_tree(), tmp_path)
    reference = run.outputs(report)
    assert run.check(report, reference) == []
    report.trace.kl[0] = float("nan")
    assert run.check(report, None) == ["non-finite value in the report"]
    report.trace.kl[0] = 0.0
    report.stream_hash = "0" * 64
    assert run.check(report, reference) == [
        "stream_sha256 differs from the first run"
    ]


def test_pixel_standin_is_seeded_and_written_as_idx(tmp_path):
    from rvflstream import load_idx

    (a, _), _ = workloads.pixel_standin(5, 3, 2)
    (b, _), _ = workloads.pixel_standin(5, 3, 2)
    (c, _), _ = workloads.pixel_standin(6, 3, 2)
    assert np.array_equal(a, b) and not np.array_equal(a, c)

    (images, labels), _ = workloads.pixel_standin(5, 3, 2)
    workloads.write_idx(tmp_path / "i", tmp_path / "l", images, labels)
    ds = load_idx(tmp_path / "i", tmp_path / "l")
    assert ds.X.shape == (30, 784) and ds.m == 10
    assert np.array_equal(ds.X * 255.0, images.reshape(30, 784).astype(float))
