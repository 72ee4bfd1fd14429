"""The README's library example runs as written, and its config block
names the schema's keys."""

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
