"""Parent-linked spans around rvflstream's layer boundaries, from outside.

The tracer never edits the package. It replaces the module-level names
that callers look up (for example ``rvflstream.learners.woodbury_update``,
which ``step_kf_bayes`` resolves at call time) with timing wrappers,
records one span per call in memory, and puts every original back on
exit. A name that no longer exists is skipped, so its metrics read 0
calls instead of failing.
"""

import json
import sys
import time
from collections import defaultdict

PACKAGE = "rvflstream"


def woodbury_flops(b, d):
    """Computed flop count of one ``woodbury_update`` at batch b, width d.

    Taken from the code: P = D @ eta (2bd^2), S = I + c P D^T (2b^2 d),
    the Cholesky factor of S (b^3/3) and its solve against P (2b^2 d),
    eta - c P^T Z (2bd^2 + 2d^2), and the re-symmetrization (2d^2).
    """
    return 4 * b * d * d + 4 * b * b * d + b ** 3 / 3 + 4 * d * d


def _batch_layer_of_step(args, kwargs):
    # observe passes FeatureBatch objects, which carry both indices.
    D = args[1] if len(args) > 1 else kwargs.get("D_t")
    return getattr(D, "t", None), getattr(D, "layer", None)


def _batch_of_observe(args, kwargs):
    return args[0].t + 1, None


def _batch_of_features(args, kwargs):
    return kwargs.get("t", args[3] if len(args) > 3 else 0), None


def _count_woodbury(args, kwargs, result, counters):
    eta, D = args[0], args[1]
    c = args[2] if len(args) > 2 else kwargs["c"]
    b, d = D.shape[0], eta.shape[0]
    if c != 0 and b > 0:
        counters["solvers.woodbury_update.flops"] += woodbury_flops(b, d)
        counters[("woodbury_shape", b, d)] += 1


def _count_rows(args, kwargs, result, counters):
    counters["network.extract_features.rows"] += len(args[0])


def _count_report_bytes(args, kwargs, result, counters):
    counters["runner.emit_report.bytes"] += sum(
        p.stat().st_size for p in result.iterdir() if p.is_file()
    )


# Span name -> (module, attribute) pairs wrapped under it, plus optional
# hooks: where(args, kwargs) -> (batch, layer) and
# count(args, kwargs, result, counters). A dotted attribute is a method
# patched on its class.
TARGETS = {
    "runner.run_experiment": (["runner.run_experiment"], None, None),
    "runner.emit_report": (["runner.emit_report"], None, _count_report_bytes),
    "runner.stream_sha256": (["runner.stream_sha256"], None, None),
    "stream.load": (["stream.load_idx", "stream.make_gaussian_dataset",
                     "stream.load_csv_features"], None, None),
    "stream.split": (["stream.split_class_incremental"], None, None),
    "stream.batchify": (["stream.batchify"], None, None),
    "network.extract_features": (["network.extract_features"],
                                 _batch_of_features, _count_rows),
    "network.fuse_probs": (["network.fuse_probs"], None, None),
    "learners.observe": (["learners.ContinualModel.observe"],
                         _batch_of_observe, None),
    "learners.step": (["learners.step_ridge", "learners.step_kf",
                       "learners.step_kf_bayes"], _batch_layer_of_step, None),
    "learners.compute_adaptive_k": (["learners.compute_adaptive_k"], None, None),
    "learners.per_learner_probs": (["learners.ContinualModel.per_learner_probs"],
                                   None, None),
    "learners.fit_baseline": (["learners.fit_baseline"], None, None),
    "metrics.immediate": (["metrics.immediate_accuracy",
                           "metrics.immediate_regret",
                           "metrics.immediate_kl"], None, None),
    "solvers.woodbury_update": (["solvers.woodbury_update"], None,
                                _count_woodbury),
    "solvers.solve_spd": (["solvers.solve_spd"], None, None),
    "solvers.ldl_solve": (["solvers._ldl_solve"], None, None),
    "solvers.offline_fit": (["solvers.offline_ridge_fit",
                             "solvers.offline_kf_fit"], None, None),
}


class Tracer:
    """Records spans as (name, parent, start_ns, end_ns, batch, layer).

    A span's id is its index in ``spans``; the parent of a top-level
    span is -1. Spans inherit the batch and layer of their parent unless
    their own call names them.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = [(-1, None, None)]
        self._patches = []

    def _wrap(self, name, fn, where, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent, batch, layer = stack[-1]
            if where is not None:
                own_batch, own_layer = where(args, kwargs)
                batch = batch if own_batch is None else own_batch
                layer = layer if own_layer is None else own_layer
            sid = len(spans)
            spans.append(None)
            stack.append((sid, batch, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end, batch, layer)
            if count is not None:
                count(args, kwargs, result, counters)
            return result

        return traced

    def __enter__(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, (paths, where, count) in self.targets.items():
            for path in paths:
                module_name, attr = path.split(".", 1)
                owner = sys.modules.get(f"{PACKAGE}.{module_name}")
                cls_name, _, attr = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, where, count)
                if cls_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", newline="\n") as f:
            for sid, (name, parent, start, end, batch, layer) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                    "batch": batch, "layer": layer,
                }))
                f.write("\n")


def summarize(spans, within=None):
    """Per span name: calls, busy ns (sum of durations) and self ns.

    A span's self time is its duration minus the durations of its
    direct children; children of one span never overlap because the
    traced program runs on a single thread. With ``within``, only spans
    that have an ancestor of that name are counted.
    """
    child_ns = defaultdict(int)
    inside = [False] * len(spans)
    for sid, (name, parent, start, end, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            inside[sid] = spans[parent][0] == within or inside[parent]
    out = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
    for sid, (name, parent, start, end, _, _) in enumerate(spans):
        if within is not None and not inside[sid]:
            continue
        row = out[name]
        row["calls"] += 1
        row["busy_ns"] += end - start
        row["self_ns"] += end - start - child_ns[sid]
    return out
