"""Byte-for-byte CLI output on every fixture.

tests/golden/ holds the stdout of bracket, atom, kh (both fields), k1
and certify (default fields, gf2 alone and q alone), in text and --json,
for every diagram fixture, with the exit codes in tests/golden/index.json.
It also holds certify --json of the closure of (s1 s2^-1)^6, whose
rational ranks come from eliminated blocks: its GF(2) table has 316 more
dimensions than its Q table.  Re-record (only when an output change is
intended and explained) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden"
TORSION = GOLDEN / "s1s2inv_6.certify.json.txt"

COMMANDS = (
    ("bracket",),
    ("atom",),
    ("kh", "--field", "gf2"),
    ("kh", "--field", "q"),
    ("k1",),
    ("certify",),
    ("certify", "--fields", "gf2"),
    ("certify", "--fields", "q"),
)


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for path in sorted(FIXTURES.iterdir()):
        if path.suffix not in (".pd", ".gauss"):
            continue
        for cmd in COMMANDS:
            for as_json in (False, True):
                argv = [cmd[0], str(path), *cmd[1:]] + (["--json"] if as_json else [])
                name = ".".join([path.name, cmd[0], *cmd[2:]] + (["json"] if as_json else []))
                out.append((name, argv))
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    from kmc.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def torsion_argv(directory: pathlib.Path) -> list[str]:
    from kmc.diagram import render_pd
    from kmc.generate import braid_closure

    path = directory / "s1s2inv_6.pd"
    path.write_text(render_pd(braid_closure(3, [1, -2] * 6)))
    return ["certify", str(path), "--json"]


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_cli_output_matches_golden(name, argv):
    index = json.loads((GOLDEN / "index.json").read_text())
    code, out = run_cli(argv)
    assert code == index[name]
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_torsion_certificate_matches_golden(tmp_path):
    code, out = run_cli(torsion_argv(tmp_path))
    assert code == 0
    assert out == TORSION.read_text()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in cases():
        code, out = run_cli(argv)
        index[name] = code
        (GOLDEN / f"{name}.txt").write_text(out)
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        TORSION.write_text(run_cli(torsion_argv(pathlib.Path(tmp)))[1])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
