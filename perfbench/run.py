"""The kmc benchmark: one closed-loop client driving ``kmc.cli.main`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (timed as ``setup_s``, nine times, median reported)
imports ``kmc``, regenerates the seed's corpus and writes its files under
``.perfbench/``.  An untraced run then executes the corpus's operations
one after another, cycling, until ``S`` seconds of operation time have
passed, and prints the end-to-end metrics.  A traced run executes the
first half of the corpus once untraced and once with spans installed
(see ``spans.py``), prints the per-layer metrics and writes the spans to
``.perfbench/``.  Every output is checked against the recorded reference
and the paper's invariants (``oracle.py``).  The last line of stdout is
the result object; the line before it holds the details: inputs,
environment, failure ratio and tail-percentile bookkeeping.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
from spans import Tracer
from workloads import WORKLOADS, Op, build_corpus, choose, load_pool

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench"
KMC_MODULES = (
    "kmc",
    "kmc.atom",
    "kmc.cli",
    "kmc.diagram",
    "kmc.generate",
    "kmc.khovanov",
    "kmc.linalg",
    "kmc.minimality",
    "kmc.single_circle",
    "kmc.statesum",
)
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99, 95, 90)
TAIL_BEYOND = 10
WALL_CAP_S = 120.0  # the measuring loop stops here whatever --seconds says


def import_kmc() -> dict:
    """Fresh imports of the package's modules from ``src/``."""
    for name in [m for m in sys.modules if m == "kmc" or m.startswith("kmc.")]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in KMC_MODULES}


def set_up(w, pool, seed, seconds, work):
    if work.exists():
        shutil.rmtree(work)
    start = perf_counter()
    kmc = import_kmc()
    items = build_corpus(kmc, w, choose(w, pool, seed, seconds), work, ROOT)
    return perf_counter() - start, kmc, items


def execute(kmc: dict, argv: list[str]) -> tuple[float, str | None, str | None]:
    """(seconds, stdout, error) of one ``kmc`` invocation."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = kmc["kmc.cli"].main(argv)
        except Exception as exc:  # a crashing operation is a counted failure
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    if rc not in (0, None):
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return elapsed, (None if error else out.getvalue()), error


class Client:
    """The single closed-loop client: runs an op, then checks its output."""

    def __init__(self, kmc: dict):
        self.kmc = kmc
        self.attempted = 0
        self.failed = 0
        self.errors: list[dict] = []

    def run(self, op: Op) -> float:
        elapsed, out, error = execute(self.kmc, op.argv)
        problems = [error] if error else oracle.check(op.kind, out, op.entry)
        if op.feeds is not None and out is not None:
            op.feeds.write_text(out, encoding="utf-8")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append({"op": op.kind, "input": op.entry["key"], "problems": problems[:3]})
        return elapsed


def measure(client: Client, groups: list[list[Op]], seconds: float) -> list[float]:
    """Run the groups of ops in turn until ``seconds`` of op time have
    passed; the loop stops only between groups."""
    latencies: list[float] = []
    busy = 0.0
    start = perf_counter()
    turn = 0
    while busy < seconds and perf_counter() - start < WALL_CAP_S:
        for op in groups[turn % len(groups)]:
            dt = client.run(op)
            latencies.append(dt)
            busy += dt
        turn += 1
    return latencies


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest of p99, p95, p90
    (nearest rank) with at least ten samples beyond it; p90 when none has."""
    ranked = sorted(latencies)
    n = len(ranked)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            break
    return ranked[rank - 1], p, n - rank


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def describe(items: list[list[Op]]) -> list[dict]:
    out = []
    for ops in items:
        e = ops[0].entry
        out.append(
            {
                "input": e["key"],
                "n": e.get("n"),
                "orientable": e.get("orientable"),
                "chain_dim": e.get("chain_dim"),
                "ops": [op.kind for op in ops],
            }
        )
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    pool = load_pool(name)
    work = RUN_DIR / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_s, kmc, items = set_up(w, pool, seed, seconds, work)
            setups.append(setup_s)
        gc.collect()
        gc.freeze()  # keep the pool and set-up objects out of collections
        client = Client(kmc)
        details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)}
        if traced:
            ops = [op for item in items[: max(1, len(items) // 2)] for op in item]
            untraced_s = sum(client.run(op) for op in ops)
            tracer = Tracer()
            tracer.install(kmc)
            traced_s = 0.0
            for index, op in enumerate(ops):
                tracer.op = index
                traced_s += client.run(op)
            tracer.uninstall()
            metrics = tracer.metrics()
            metrics.update(
                {
                    "trace.ops": len(ops),
                    "trace.untraced_s": untraced_s,
                    "trace.traced_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s,
                    "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
                }
            )
            spans_path = RUN_DIR / f"spans-{name}-seed{seed}.json"
            spans_path.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
            details.update({"spans_file": str(spans_path.relative_to(ROOT)), "unwrapped": tracer.missing})
        else:
            groups = [[op for item in items for op in item]] if w.whole_passes else items
            latencies = measure(client, groups, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tail_s, tail_p, beyond = tail(latencies)
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(latencies) / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_s,
                "peak_rss_mb": peak_rss_mb,
                "ok_ratio": (client.attempted - client.failed) / client.attempted,
            }
            details["latency"] = {"samples": len(latencies), "tail_percentile": tail_p, "tail_beyond": beyond}
        details.update(
            {
                "setup_s_runs": setups,
                "fail_ratio": client.failed / client.attempted,
                "errors": client.errors,
                "environment": environment(),
                "corpus": describe(items),
            }
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": client.failed == 0, "attempted": client.attempted, "failed": client.failed}
    return details, {**result, "metrics": metrics}


def declared_metrics(traced: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own fresh process, then one summary table."""
    code = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((name, details, result))
        print(lines[-1])
    for name, details, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        lat = details["latency"]
        print(
            f"{name:20s} setup_s={m['setup_s']:.3f} ops_per_s={m['ops_per_s']:.3f}"
            f" latency_p50_s={m['latency_p50_s']:.4f}"
            f" latency_tail_s={m['latency_tail_s']:.4f} (p{lat['tail_percentile']}, {lat['samples']} ops)"
            f" peak_rss_mb={m['peak_rss_mb']:.1f} fail_ratio={details['fail_ratio']}"
        )
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kmc" / "__init__.py").is_file():
        print(f"perfbench: no kmc sources under {ROOT / 'src' / 'kmc'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.pop("KMC_MAX_CROSSINGS", None)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    RUN_DIR.mkdir(exist_ok=True)
    details, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in declared_metrics(bool(args.trace))}
    values = result["metrics"]
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
