"""Record the input pools and reference outputs under ``reference/``.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a source checkout at the commit whose outputs are to
be the reference.  For each workload it scans generator seeds 0, 1, ...
and keeps those whose single draw has the workload's crossing count (and
total chain dimension band), until the pool is full.  Each entry keeps
the generator call, the rendered PD text, the input's properties, its
bracket and writhe (for the invariant checks) and the JSON output of
every operation the workload can run on it, ``reasoning`` removed.
Recording takes several minutes; it refuses an output that fails the
invariant checks.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import oracle
from run import ROOT, RUN_DIR, execute, import_kmc
from workloads import REFERENCE_DIR, TABLE_EVERY, TABLE_FIXTURE, WORKLOADS, generate, item_ops

FIXTURE_DIAGRAMS = sorted(p.name for p in (ROOT / "fixtures").iterdir() if p.suffix in (".pd", ".gauss"))


def properties(kmc: dict, d) -> dict:
    atom, statesum, diagram = kmc["kmc.atom"], kmc["kmc.statesum"], kmc["kmc.diagram"]
    n_plus, n_minus = diagram.crossing_signs(d, diagram.orient(d))
    return {
        "n": d.n,
        "orientable": atom.orientable(atom.build_atom(d)),
        "chain_dim": sum(1 << statesum.circles_of_state(d, s) for s in range(1 << d.n)),
        "writhe": n_plus - n_minus,
        "bracket": [list(t) for t in statesum.kauffman_bracket(d).terms()],
    }


def record_outputs(kmc: dict, w, entry: dict, path: Path, work: Path) -> None:
    """Run every op the entry can meet, the table op of batch_small included."""
    entry["outputs"] = {}
    for op in item_ops(w, entry, TABLE_EVERY - 1, path, work, ROOT):
        _, out, error = execute(kmc, op.argv)
        if error:
            raise RuntimeError(f"{entry['key']} {op.kind}: {error}")
        if op.feeds is not None:
            op.feeds.write_text(out, encoding="utf-8")
        entry["outputs"][op.kind] = oracle.strip(json.loads(out))
    for kind, data in entry["outputs"].items():
        problems = oracle.check(kind, json.dumps(data), entry)
        if problems:
            raise RuntimeError(f"{entry['key']} {kind}: {problems}")


def wanted(kmc: dict, w, family: str, d) -> bool:
    """Whether a draw has the workload's crossing count (batch_small takes
    every draw) and, for virtual workloads, a non-orientable atom."""
    if w.family == "batch":
        return True
    atom = kmc["kmc.atom"]
    return d.n == w.n and (family == "classical" or not atom.orientable(atom.build_atom(d)))


def seeded_entries(kmc: dict, w, family: str, count: int, work: Path) -> list[dict]:
    render_pd = kmc["kmc.diagram"].render_pd
    pool = []
    seed = -1
    while len(pool) < count:
        seed += 1
        d = generate(kmc, family, w.n, seed)
        if not wanted(kmc, w, family, d):
            continue
        props = properties(kmc, d)
        if w.dim and not w.dim[0] <= props["chain_dim"] <= w.dim[1]:
            continue
        entry = {"key": f"{family}-{w.n}-{seed}", "gen": {"family": family, "n": w.n, "seed": seed}}
        entry.update(pd=render_pd(d), **props)
        path = work / f"{entry['key']}.pd"
        path.write_text(entry["pd"], encoding="utf-8")
        record_outputs(kmc, w, entry, path, work)
        pool.append(entry)
        print(f"{w.name}: {entry['key']} dim={entry['chain_dim']}", file=sys.stderr, flush=True)
    return pool


def fixture_entries(kmc: dict, w, work: Path) -> list[dict]:
    pool = []
    for name in FIXTURE_DIAGRAMS:
        path = ROOT / "fixtures" / name
        entry = {"key": f"fixture-{name}", "file": f"fixtures/{name}"}
        entry.update(properties(kmc, kmc["kmc.cli"].load_diagram(path)))
        record_outputs(kmc, w, entry, path, work)
        pool.append(entry)
    entry = {"key": "fixture-13n3663_khq.json", "file": TABLE_FIXTURE, "n": 13}
    record_outputs(kmc, w, entry, ROOT / TABLE_FIXTURE, work)
    pool.append(entry)
    return pool


def record(name: str) -> None:
    w = WORKLOADS[name]
    kmc = import_kmc()
    work = RUN_DIR / f"record-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if w.family == "batch":
            pool = fixture_entries(kmc, w, work)
            for family in ("classical", "virtual"):
                pool += seeded_entries(kmc, w, family, w.pool, work)
        else:
            pool = seeded_entries(kmc, w, w.family, w.pool, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "pool": pool}, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    for workload in sys.argv[1:] or WORKLOADS:
        record(workload)
