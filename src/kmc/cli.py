"""Command-line interface.

Subcommands: bracket, atom, kh, k1, certify, certify-table, batch.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 computation or input error (a failed internal check or running out of
memory included), 2 usage error.  The environment variable
KMC_MAX_CROSSINGS (or --max-crossings) overrides enumeration limits,
and must be a positive integer; the homology limits of kh, certify and
batch apply to a knot once its kinks and bigons are removed, the census
limit to the diagram as given.
The argument parser is built once per process, on the first ``main``
call, and reused: parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import khovanov as kh
from .atom import build_atom, genus as atom_genus
from .diagram import Diagram, parse_gauss, parse_pd
from .errors import KmcError, ParseError
from .minimality import MINIMAL, _strict_1_complete, certify, certify_from_table
from .single_circle import single_circle_census
from .statesum import kauffman_bracket

__all__ = ["main"]


def load_diagram(path: str | Path) -> Diagram:
    """Read a diagram file, choosing the format by suffix or content."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise KmcError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise KmcError(f"cannot read {path}: not UTF-8 text") from exc
    suffix = path.suffix.lower()
    if suffix == ".pd":
        return parse_pd(text)
    if suffix == ".gauss":
        return parse_gauss(text)
    stripped = [
        line.split("#", 1)[0].strip()
        for line in text.splitlines()
        if line.split("#", 1)[0].strip()
    ]
    first = stripped[0].split()[0] if stripped else "loop"
    if first in ("X", "V", "loop"):
        return parse_pd(text)
    return parse_gauss(text)


def _message(exc: BaseException) -> str:
    return "out of memory" if isinstance(exc, MemoryError) else str(exc)


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_bracket(args: argparse.Namespace) -> int:
    d = load_diagram(args.file)
    poly = kauffman_bracket(d, max_crossings=args.max_crossings)
    span, bound, strict = _strict_1_complete(d, poly, build_atom(d).chi)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "terms": {str(e): c for e, c in poly.terms()},
                "span": span,
                "bound": bound,
                "one_complete": strict,
            }
        )
    else:
        print(f"bracket: {poly.format('A')}")
        print(f"span: {span}")
        print(f"bound: {bound}")
        print(f"1-complete: {'yes' if strict else 'no'}")
    return 0


def _cmd_atom(args: argparse.Namespace) -> int:
    d = load_diagram(args.file)
    atom = build_atom(d)
    g = atom_genus(atom)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "a": atom.a,
                "b": atom.b,
                "chi": atom.chi,
                "orientable": g.orientable,
                "twice_genus": g.twice_genus,
            }
        )
    else:
        print(f"a: {atom.a}")
        print(f"b: {atom.b}")
        print(f"chi: {atom.chi}")
        print(f"orientable: {'yes' if g.orientable else 'no'}")
        print(f"genus: {g}")
    return 0


def _render_table(tab: kh.KhTable) -> str:
    """Rows q descending, columns t ascending, blank cells for zeros."""
    if not tab.entries:
        return "(empty table)"
    ts = sorted({t for t, _ in tab.entries})
    qs = sorted({q for _, q in tab.entries})
    parities = {q % 2 for q in qs}
    step = 1 if len(parities) > 1 else 2
    q_rows = list(range(max(qs), min(qs) - 1, -step))
    t_cols = list(range(min(ts), max(ts) + 1))
    width = max(
        [len(str(t)) for t in t_cols]
        + [len(str(dim)) for dim in tab.entries.values()]
    )
    label_width = max(len(f"q={q}") for q in q_rows) + 1
    lines = [
        " " * label_width + " ".join(f"{t:>{width}}" for t in t_cols)
    ]
    for q in q_rows:
        cells = []
        for t in t_cols:
            dim = tab.entries.get((t, q), 0)
            cells.append(f"{dim if dim else '.':>{width}}")
        lines.append(f"q={q}".ljust(label_width) + " ".join(cells))
    return "\n".join(lines)


def _cmd_kh(args: argparse.Namespace) -> int:
    d = load_diagram(args.file)
    table = kh.kh_table(d, args.field, max_crossings=args.max_crossings)
    thick = kh.thickness(table)
    if args.json:
        data = table.to_json_dict()
        data["thickness"] = kh.json_number(thick)
        data["q_span"] = kh.q_span(table)
        _print_json(data)
    else:
        print(f"field: {args.field}")
        print(_render_table(table))
        print(f"thickness: {thick}")
        print(f"q-span: {kh.q_span(table)}")
    return 0


def _cmd_k1(args: argparse.Namespace) -> int:
    d = load_diagram(args.file)
    census = single_circle_census(d, max_crossings=args.max_crossings)
    checks = {
        "within_window": census.within_window,
        "amplitude_bounded": census.is_empty
        or census.amplitude <= 2 - census.chi,
        "parity_consistent": census.parity_consistent,
    }
    if args.json:
        _print_json(
            {
                "schema": 1,
                "size": census.size,
                "b_histogram": {str(k): v for k, v in census.b_histogram.items()},
                "window": list(census.window),
                "chi": census.chi,
                "checks": checks,
            }
        )
    else:
        print(f"census size: {census.size}")
        hist = " ".join(f"{k}:{v}" for k, v in census.b_histogram.items())
        print(f"b-smoothing histogram: {hist if hist else '(empty)'}")
        print(f"window: [{census.window[0]}, {census.window[1]}]")
        for name, ok in checks.items():
            print(f"{name.replace('_', ' ')}: {'yes' if ok else 'no'}")
    return 0


def _print_certificate(cert, as_json: bool) -> None:
    if as_json:
        _print_json(cert.to_json_dict())
    else:
        for line in cert.reasoning:
            print(line)


def _cmd_certify(args: argparse.Namespace) -> int:
    fields = _parse_fields(args.fields)
    d = load_diagram(args.file)
    cert = certify(d, fields, max_crossings=args.max_crossings)
    _print_certificate(cert, args.json)
    return 0


def _cmd_certify_table(args: argparse.Namespace) -> int:
    table = kh.load_table(args.file, args.field)
    cert = certify_from_table(table, args.n, args.chi)
    _print_certificate(cert, args.json)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    fields = _parse_fields(args.fields)
    root = Path(args.directory)
    if not root.is_dir():
        raise KmcError(f"{root} is not a directory")
    files = sorted(
        p for p in root.iterdir() if p.suffix.lower() in (".pd", ".gauss")
    )
    counts = {MINIMAL: 0, "INCONCLUSIVE": 0, "error": 0}
    for path in files:
        try:
            d = load_diagram(path)
            cert = certify(d, fields, max_crossings=args.max_crossings)
            verdict = cert.verdict
        except (KmcError, AssertionError, MemoryError) as exc:
            counts["error"] += 1
            print(f"{path}: error: {_message(exc)}")
            continue
        counts[verdict] += 1
        print(f"{path}: {verdict}")
    total = sum(counts.values())
    print(
        f"total: {total} files, {counts[MINIMAL]} MINIMAL,"
        f" {counts['INCONCLUSIVE']} INCONCLUSIVE, {counts['error']} errors"
    )
    return 1 if counts["error"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmc",
        description=(
            "Kauffman bracket, atom invariants, Khovanov homology and"
            " minimality certificates for classical and virtual link diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--max-crossings",
            type=int,
            default=None,
            help="override the enumeration limit",
        )

    p = sub.add_parser("bracket", help="Kauffman bracket, span and the span bound")
    p.add_argument("file")
    p.set_defaults(run=_cmd_bracket)
    add_common(p)

    p = sub.add_parser("atom", help="cell counts, Euler characteristic, genus")
    p.add_argument("file")
    p.set_defaults(run=_cmd_atom)
    add_common(p)

    p = sub.add_parser("kh", help="Khovanov homology table")
    p.add_argument("file")
    p.add_argument("--field", choices=[kh.GF2, kh.Q], default=kh.GF2)
    p.set_defaults(run=_cmd_kh)
    add_common(p)

    p = sub.add_parser("k1", help="census of single-circle states")
    p.add_argument("file")
    p.set_defaults(run=_cmd_k1)
    add_common(p)

    p = sub.add_parser("certify", help="minimality certificate for a diagram")
    p.add_argument("file")
    p.add_argument(
        "--fields",
        default=None,
        help="comma-separated coefficient fields (default: gf2, plus q when"
        " the atom is orientable)",
    )
    p.set_defaults(run=_cmd_certify)
    add_common(p)

    p = sub.add_parser(
        "certify-table", help="minimality certificate from a homology table"
    )
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True, help="crossing count")
    p.add_argument("--chi", type=int, default=None, help="known Euler characteristic")
    p.add_argument("--field", choices=[kh.GF2, kh.Q], default=None)
    p.set_defaults(run=_cmd_certify_table)
    add_common(p)

    p = sub.add_parser("batch", help="certify every diagram file in a directory")
    p.add_argument("directory")
    p.add_argument("--fields", default=None)
    p.set_defaults(run=_cmd_batch)
    add_common(p)

    return parser


def _parse_fields(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    fields = [f.strip() for f in raw.split(",") if f.strip()]
    if not fields:
        raise KmcError("no field in --fields (expected gf2, q or both)")
    for f in fields:
        if f not in (kh.GF2, kh.Q):
            raise KmcError(f"unknown field {f!r} (expected gf2 or q)")
    return fields


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_crossings is not None and args.max_crossings <= 0:
            parser.error("--max-crossings must be positive")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"kmc: parse error: {exc}", file=sys.stderr)
        return 1
    except (KmcError, AssertionError, MemoryError) as exc:
        print(f"kmc: {_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
