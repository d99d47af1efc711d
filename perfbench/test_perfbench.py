"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny runs (--seconds 1) of every workload, traced and untraced, each in
its own process as the benchmark is meant to be run; about a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle
import run
from workloads import WORKLOADS, Op, load_pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = (
    "trace.ops",
    "khovanov.builds",
    "khovanov.chain_dim",
    "khovanov.nnz",
    "linalg.rank_rows.gf2",
    "linalg.rank_rows.q",
    "linalg.rank.gf2",
    "linalg.rank.q",
    "statesum.circle_calls",
    "atom.builds",
)


def declared(key: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    """(details, result) of a one-second run in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


_runs: dict = {}


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    if (workload, trace) not in _runs:
        _runs[workload, trace] = bench(workload, trace)
    return _runs[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    details, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["fail_ratio"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for item in details["corpus"]:
        assert {"n", "orientable", "chain_dim"} <= set(item)
    assert {"nproc", "python", "git_commit"} <= set(details["environment"])


def test_traced_counts_repeat_exactly():
    first = tiny_run("batch_small", 1)[1]["metrics"]
    again = bench("batch_small", 1)[1]["metrics"]
    for name in COUNTS:
        assert again[name]["value"] == first[name]["value"], name
    assert first["khovanov.builds"]["value"] > 0 and first["statesum.circle_calls"]["value"] > 0


def test_traced_run_attributes_time_to_the_named_layers():
    classical = {k: v["value"] for k, v in tiny_run("certify_classical", 1)[1]["metrics"].items()}
    virtual = {k: v["value"] for k, v in tiny_run("certify_virtual_gf2", 1)[1]["metrics"].items()}
    assert classical["linalg.q_rank_s"] > 0.3 * classical["trace.traced_s"]
    assert virtual["khovanov.build_s.gf2"] > 0.5 * virtual["trace.traced_s"]
    assert virtual["linalg.q_rank_s"] == 0 and virtual["khovanov.build_s.q"] == 0


def _client_printing(data) -> run.Client:
    def main(argv):
        print(json.dumps(data))
        return 0

    return run.Client({"kmc.cli": SimpleNamespace(main=main)})


def test_corrupted_output_counts_as_failure():
    entry = next(e for e in load_pool("batch_small") if e["key"] == "fixture-figure8.pd")
    good = entry["outputs"]["certify"]
    op = Op("certify", entry, ["certify", "figure8.pd", "--json"])

    client = _client_printing({**good, "reasoning": ["ignored"]})
    client.run(op)
    assert (client.attempted, client.failed) == (1, 0)

    flipped = {**good, "verdict": "INCONCLUSIVE" if good["verdict"] == "MINIMAL" else "MINIMAL"}
    client = _client_printing(flipped)
    client.run(op)
    assert (client.attempted, client.failed) == (1, 1)

    bad_table = copy.deepcopy(good)
    bad_table["fields"]["gf2"]["entries"][0]["dim"] += 2
    problems = oracle.check("certify", json.dumps(bad_table), entry)
    assert any("differs" in p for p in problems)
    assert any("Euler" in p for p in problems)


def test_raising_operation_counts_as_failure():
    def main(argv):
        raise AssertionError("differential does not square to zero")

    client = run.Client({"kmc.cli": SimpleNamespace(main=main)})
    entry = load_pool("batch_small")[0]
    client.run(Op("certify", entry, ["certify", "x.pd", "--json"]))
    assert client.failed == 1 and "AssertionError" in client.errors[0]["problems"][0]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 2001)]) == (1980.0, 99, 20)
    assert run.tail([float(i) for i in range(1, 301)]) == (285.0, 95, 15)
    assert run.tail([float(i) for i in range(1, 31)]) == (27.0, 90, 3)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 90, 0)


def test_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "batch_small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
