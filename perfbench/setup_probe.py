"""Time one cold set-up of a workload, in a fresh interpreter.

Set-up is the import of rvflstream plus what ``run_experiment`` does
before its first batch: the data build or idx load, the task split,
batchify, the stream hash and the construction of the ContinualModel.
The probe runs the runner's own code and stops it as soon as the model
is built, so a change to any of these steps shows in the time.

numpy, scipy and yaml are imported before the clock starts. Their
import is about 85% of a cold start, is the interpreter's rather than
the program's, and on a shared machine it swings by up to 2x between
probes with the state of the file cache.

Usage: python3 setup_probe.py <src-dir> <config.json>
Prints one JSON object: {"setup_s": ..., "stream_sha256": ...}.
"""

import json
import sys
import time

import numpy  # noqa: F401
import scipy.linalg  # noqa: F401
import scipy.special  # noqa: F401
import yaml  # noqa: F401


class SetUpDone(Exception):
    """Raised once the runner has built its model, to end the run there."""


def main(src, config_path):
    with open(config_path) as f:
        tree = json.load(f)
    sys.path.insert(0, src)
    start = time.perf_counter()
    from rvflstream import runner

    digests = []
    stream_sha256 = runner.stream_sha256
    model_class = runner.ContinualModel

    def record_hash(stream):
        digests.append(stream_sha256(stream))
        return digests[-1]

    def build_and_stop(*args, **kwargs):
        model_class(*args, **kwargs)
        raise SetUpDone

    runner.stream_sha256 = record_hash
    runner.ContinualModel = build_and_stop
    try:
        runner.run_experiment(runner.validate_config(tree))
    except SetUpDone:
        elapsed = time.perf_counter() - start
    else:
        raise RuntimeError("run_experiment did not construct a ContinualModel")
    print(json.dumps({"setup_s": elapsed, "stream_sha256": digests[-1]}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
