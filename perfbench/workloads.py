"""Workload definitions, seeded corpus generation and the operations run.

A workload draws its corpus from a recorded pool (``reference/<name>.json``):
each pool entry names the generator call that makes its diagram (family,
crossing count, generator seed) and carries the outputs this commit's
``kmc`` gave for it.  The benchmark's ``--seed`` chooses which entries
form the corpus and in which order; set-up regenerates those diagrams
with ``kmc.generate`` and checks them against the recorded PD text, so
every operation has a reference output whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
TABLE_FIXTURE = "fixtures/13n3663_khq.json"
TABLE_EVERY = 4  # batch_small feeds every 4th certify output to certify-table


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "classical", "virtual" or "batch"
    n: int  # exact crossing count; the maximum for "batch"
    ops: tuple[str, ...]  # CLI operations run on each corpus item
    pool: int  # seeded pool entries recorded
    item_s: float = 0.0  # rough seconds per item; sizes the corpus from --seconds
    dim: tuple[int, int] | None = None  # total chain dimension band of the pool
    items: int | None = None  # fixed corpus size, overriding item_s
    # stop only after whole passes: needed where input costs differ by
    # orders of magnitude, so a partial pass would skew the mix
    whole_passes: bool = False


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify_classical", "classical", 9, ("certify",), pool=32, item_s=2.5, dim=(21870, 21870)),
        Workload("certify_virtual_gf2", "virtual", 12, ("certify",), pool=40, item_s=1.5, dim=(27000, 31000)),
        Workload("states_census", "classical", 13, ("bracket", "k1", "atom"), pool=40, item_s=1.2),
        # pool counts per generator family; 12 fixture entries + 190 seeded.
        # The dimension cap keeps every seeded input near the per-call floor.
        Workload("batch_small", "batch", 7, ("certify",), pool=190, dim=(0, 500), items=202, whole_passes=True),
    )
}


def generate(kmc: dict, family: str, n: int, seed: int):
    """The diagram of one pool entry: one draw of the package's generator.
    Recording keeps only seeds whose draw has the workload's crossing
    count, so set-up never rerolls."""
    gen = kmc["kmc.generate"]
    draw = gen.random_classical_diagram if family == "classical" else gen.random_virtual_diagram
    return draw(n, random.Random(seed))


def load_pool(name: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["pool"]


def corpus_size(w: Workload, seconds: float) -> int:
    if w.items is not None:
        return w.items
    return max(1, min(w.pool, round(seconds / w.item_s)))


def choose(w: Workload, pool: list[dict], seed: int, seconds: float) -> list[dict]:
    """The seed's corpus: the fixtures (batch only) plus a stratified sample
    of the seeded pool.  The pool, ordered by whether the rationals run and
    by chain dimension, is cut into equal strata and the seed picks one
    entry from each, so every seed's corpus has the pool's mix of sizes."""
    rng = random.Random(seed)
    fixed = [e for e in pool if "file" in e]
    seeded = sorted((e for e in pool if "file" not in e), key=lambda e: (e["orientable"], e["chain_dim"], e["key"]))
    k = corpus_size(w, seconds) - len(fixed)
    cuts = [round(i * len(seeded) / k) for i in range(k + 1)]
    chosen = fixed + [rng.choice(seeded[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    rng.shuffle(chosen)
    return chosen


@dataclass
class Op:
    kind: str
    entry: dict
    argv: list[str]
    feeds: Path | None = None  # where this op's output is written for a later op


def item_ops(w: Workload, entry: dict, index: int, path: Path, work: Path, root: Path) -> list[Op]:
    """The CLI operations for one corpus item, in order."""
    if entry.get("file") == TABLE_FIXTURE:
        return [Op("table_fixture", entry, ["certify-table", str(root / TABLE_FIXTURE), "--n", "13", "--json"])]
    ops = [Op(kind, entry, [kind, str(path), "--json"]) for kind in w.ops]
    if w.family == "batch" and index % TABLE_EVERY == TABLE_EVERY - 1:
        cert = work / f"{entry['key']}.cert.json"
        ops[0].feeds = cert
        ops.append(
            Op("table", entry, ["certify-table", str(cert), "--n", str(entry["n"]), "--field", "gf2", "--json"])
        )
    return ops


def build_corpus(kmc: dict, w: Workload, entries: list[dict], work: Path, root: Path) -> list[list[Op]]:
    """Regenerate and write every chosen diagram; return the ops per item."""
    render_pd = kmc["kmc.diagram"].render_pd
    work.mkdir(parents=True, exist_ok=True)
    items = []
    for index, entry in enumerate(entries):
        if "file" in entry:
            path = root / entry["file"]
        else:
            gen = entry["gen"]
            text = render_pd(generate(kmc, gen["family"], gen["n"], gen["seed"]))
            if text != entry["pd"]:
                raise RuntimeError(
                    f"generator output for {entry['key']} differs from the recorded"
                    " pool; re-record with perfbench/record.py"
                )
            path = work / f"{entry['key']}.pd"
            path.write_text(text, encoding="utf-8")
        items.append(item_ops(w, entry, index, path, work, root))
    return items
