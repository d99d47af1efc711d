"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces module attributes of ``kmc`` with wrappers,
one per call site namespace (a ``from x import f`` binding is wrapped
where it is looked up).  Each wrapped call records a span: operation id,
span id, parent span id, name, start, end and a few attributes.  Hot
per-state functions only bump a counter.  Spans stay in memory until the
benchmark writes them out; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "diagram", "atom", "statesum", "single_circle", "khovanov", "linalg", "minimality")
FIELDS = ("gf2", "q")


def _complex_attrs(args, kwargs, result):
    nnz = sum(len(col) for cols in result.blocks.values() for col in cols)
    return {"field": result.field, "dim": result.total_dimension(), "nnz": nnz}


def _rank_attrs(args, kwargs, result):
    return {"rows": len(args[0]), "rank": result}


# (module, attribute, span name, hook giving the span's attributes)
SPANS = (
    ("kmc.cli", "main", "cli.main", None),
    ("kmc.cli", "parse_pd", "diagram.parse", None),
    ("kmc.cli", "parse_gauss", "diagram.parse", None),
    ("kmc.minimality", "is_connected", "diagram.connected", None),
    ("kmc.khovanov", "orient", "diagram.orient", None),
    ("kmc.khovanov", "crossing_signs", "diagram.orient", None),
    ("kmc.cli", "build_atom", "atom.build", None),
    ("kmc.minimality", "build_atom", "atom.build", None),
    ("kmc.atom", "build_atom", "atom.build", None),
    ("kmc.cli", "kauffman_bracket", "statesum.bracket", None),
    ("kmc.statesum", "kauffman_bracket", "statesum.bracket", None),
    ("kmc.cli", "is_1_complete", "statesum.is_1_complete", None),
    ("kmc.minimality", "is_1_complete", "statesum.is_1_complete", None),
    ("kmc.cli", "single_circle_census", "single_circle.census", None),
    ("kmc.khovanov", "kh_table", "khovanov.kh_table", None),
    ("kmc.khovanov", "build_complex", "khovanov.build", _complex_attrs),
    ("kmc.khovanov", "homology", "khovanov.homology", None),
    ("kmc.khovanov", "gf2_rank", "linalg.gf2_rank", _rank_attrs),
    ("kmc.khovanov", "sparse_integer_rank", "linalg.q_rank", _rank_attrs),
    ("kmc.cli", "certify", "minimality.certify", None),
    ("kmc.cli", "certify_from_table", "minimality.certify_table", None),
)
COUNTERS = (
    ("kmc.statesum", "circles_of_state", "statesum.circle_calls"),
    ("kmc.single_circle", "circles_of_state", "statesum.circle_calls"),
    ("kmc.khovanov", "state_circles", "statesum.circle_calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, attrs)
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.missing: list[str] = []
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _span(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                attrs = hook(args, kwargs, result) if hook and result is not None else None
                self.spans.append((self.op, sid, parent, name, start, end, attrs))

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, hook in SPANS:
            self._wrap(modules, mod_name, attr, lambda fn, n=name, h=hook: self._span(n, fn, h))
        for mod_name, attr, name in COUNTERS:
            self._wrap(modules, mod_name, attr, lambda fn, n=name: self._counter(n, fn))

    def _wrap(self, modules, mod_name, attr, make):
        mod = modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{mod_name}.{attr}")
            return
        setattr(mod, attr, make(fn))
        self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer self time, per-function totals and counts; some
        metrics of a layer that never ran are absent (they read 0)."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        m: dict[str, float] = defaultdict(int)
        for _, sid, _, name, start, end, attrs in self.spans:
            dur = end - start
            total[name] += dur
            self_s[name] += dur - covered[sid]
            calls[name] += 1
            if name == "khovanov.build" and attrs:
                m[f"khovanov.build_s.{attrs['field']}"] += dur
                m["khovanov.chain_dim"] += attrs["dim"]
                m["khovanov.nnz"] += attrs["nnz"]
            elif name in ("linalg.gf2_rank", "linalg.q_rank") and attrs:
                field = "gf2" if name == "linalg.gf2_rank" else "q"
                m[f"linalg.rank_rows.{field}"] += attrs["rows"]
                m[f"linalg.rank.{field}"] += attrs["rank"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        for field in FIELDS:
            rows = m[f"linalg.rank_rows.{field}"]
            m[f"linalg.pivot_ratio.{field}"] = m[f"linalg.rank.{field}"] / rows if rows else 0.0
        m["linalg.q_rank_s"] = total["linalg.q_rank"]
        m["linalg.gf2_rank_s"] = total["linalg.gf2_rank"]
        m["khovanov.homology_self_s"] = self_s["khovanov.homology"]
        m["khovanov.builds"] = calls["khovanov.build"]
        m["statesum.bracket_s"] = total["statesum.bracket"]
        m["statesum.circle_calls"] = self.counts["statesum.circle_calls"]
        m["single_circle.census_s"] = total["single_circle.census"]
        m["atom.builds"] = calls["atom.build"]
        m["atom.build_s"] = total["atom.build"]
        m["diagram.parse_s"] = total["diagram.parse"]
        m["minimality.certify_self_s"] = self_s["minimality.certify"]
        m["minimality.certify_table_s"] = total["minimality.certify_table"]
        m["cli.self_s"] = self_s["cli.main"]
        return dict(m)

    def span_records(self) -> list[dict]:
        return [
            {"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}
            for op, sid, parent, name, start, end, attrs in self.spans
        ]
