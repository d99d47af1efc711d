"""The README's examples run as written, from the repository root."""

import pathlib
import re
import shlex

from kmc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_run(monkeypatch, capsys):
    section = _readme().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "kmc" for argv in commands)
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
