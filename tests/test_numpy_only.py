"""The package imports and runs with numpy and PyYAML alone."""

import os
import subprocess
import sys
from pathlib import Path

import rvflstream

SRC = Path(rvflstream.__file__).resolve().parents[1]

SCRIPT = r'''
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())

from pathlib import Path

import numpy as np
import yaml

from rvflstream import cli
from rvflstream.solvers import solve_spd

out = Path(sys.argv[1])
for kind in ("ridge", "kf", "kf_bayes"):
    cfg = out / f"{kind}.yaml"
    cfg.write_text(yaml.safe_dump({
        "dataset": {"kind": "synthetic", "classes": 4, "dims": 5,
                    "separation": 3.0, "samples": 12, "test_samples": 6},
        "split": {"Q": 2},
        "batch_size": 8,
        "network": {"L": 2, "N": 6, "activation": "swish"},
        "style": {"kind": kind, "k": 0.5} if kind == "kf" else {"kind": kind},
    }))
    assert cli.main(["run", "--config", str(cfg), "--out", str(out / kind)]) == 0

v = np.array([[1.0], [2.0]])
A = v @ v.T
assert np.allclose(A @ solve_spd(A, A), A, atol=1e-8)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
'''


def test_runs_with_scipy_imports_refused(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for kind in ("ridge", "kf", "kf_bayes"):
        assert (tmp_path / kind / "report.json").exists()
