"""The README's library example runs as written, its config block
names the schema's keys, and the module attributes it names exist."""

import importlib
import re
from pathlib import Path

import yaml

from rvflstream.runner import SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("accuracy:")
    assert 0.0 <= float(out.split()[-1]) <= 1.0


def test_config_block_lists_the_schema_keys():
    # The README's config block names every key of every section, the
    # dataset by its synthetic keys, and no key the schema lacks.
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    tree = yaml.safe_load(blocks[0])
    assert list(tree) == list(SCHEMA["config"])
    assert list(tree["dataset"]) == list(SCHEMA["synthetic"])
    for section in ("split", "network", "style", "seeds"):
        assert list(tree[section]) == list(SCHEMA[section]), section


def test_named_module_attributes_exist():
    # Every backticked learners.X, solvers.X, runner.X, network.X,
    # metrics.X or stream.X resolves by getattr, dotted parts included,
    # so a README that names a deleted helper fails. A config key named
    # by its section, such as network.standardize, is a key of that
    # section of the schema instead.
    names = re.findall(
        r"`(learners|solvers|runner|network|metrics|stream)\.([A-Za-z_][\w.]*)`",
        README.read_text())
    assert len(names) >= 10
    for module, path in names:
        if path in SCHEMA.get(module, {}):
            continue
        obj = importlib.import_module(f"rvflstream.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), f"{module}.{path}"
            obj = getattr(obj, part)
