"""The README's code examples run as written, and its dependency list holds."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
