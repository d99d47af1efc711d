"""The README's Python examples run as written, from the repository root."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
