"""The README's code examples run as written, its dependency list holds,
and its data and checkpoint formats name what the loaders accept."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from dysurv.data import _MANIFEST_KEYS
from dysurv.training import HEADER_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "model.bin").exists()
    printed = capsys.readouterr().out
    assert printed.startswith("[") and len(printed.split()) >= 3


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, dysurv; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_manifest_example_has_the_keys_the_loader_accepts():
    section = README.read_text(encoding="utf-8").split("## Data format", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert set(json.loads(example)) == _MANIFEST_KEYS


def test_every_checkpoint_header_key_is_documented():
    text = README.read_text(encoding="utf-8")
    assert [key for key in sorted(HEADER_KEYS | {"grid_search"}) if f"`{key}`" not in text] == []
