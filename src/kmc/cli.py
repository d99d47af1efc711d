"""Command-line interface.

Subcommands: bracket, atom, kh, k1, certify, certify-table, batch, each
taking only the options it reads.  Every subcommand but batch takes
--json; bracket, kh, k1, certify and batch take --max-crossings, and the
environment variable KMC_MAX_CROSSINGS overrides the enumeration limits
of those same five.  A limit must be a positive integer; the homology
limits of kh, certify and batch apply to a knot once its kinks and
bigons are removed, the census limit to the diagram as given.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 computation or input error (a failed internal check or running out of
memory included), 2 usage error.
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
from .atom import build_atom
from .diagram import Diagram, _pd_lines, parse_gauss, parse_pd
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
    first = next((tokens[0] for _, tokens in _pd_lines(text)), "loop")
    if first in ("X", "V", "loop"):
        return parse_pd(text)
    return parse_gauss(text)


def _message(exc: BaseException) -> str:
    return "out of memory" if isinstance(exc, MemoryError) else str(exc)


def _emit(
    args: argparse.Namespace, data: dict, lines: list[str] | tuple[str, ...]
) -> int:
    """Print ``data`` as JSON under ``--json``, else ``lines`` as text; exit 0."""
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _cmd_bracket(args: argparse.Namespace) -> int:
    d = load_diagram(args.file)
    poly = kauffman_bracket(d, max_crossings=args.max_crossings)
    span, bound, strict = _strict_1_complete(d, poly, build_atom(d).chi)
    return _emit(
        args,
        {
            "schema": 1,
            "terms": {str(e): c for e, c in poly.terms()},
            "span": span,
            "bound": bound,
            "one_complete": strict,
        },
        [
            f"bracket: {poly.format('A')}",
            f"span: {span}",
            f"bound: {bound}",
            f"1-complete: {'yes' if strict else 'no'}",
        ],
    )


def _cmd_atom(args: argparse.Namespace) -> int:
    atom = build_atom(load_diagram(args.file))
    return _emit(
        args,
        {
            "schema": 1,
            "a": atom.a,
            "b": atom.b,
            "chi": atom.chi,
            "orientable": atom.orientable,
            "twice_genus": atom.twice_genus,
        },
        [
            f"a: {atom.a}",
            f"b: {atom.b}",
            f"chi: {atom.chi}",
            f"orientable: {'yes' if atom.orientable else 'no'}",
            f"genus: {atom.genus}",
        ],
    )


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
    data = table.to_json_dict()
    data["thickness"] = kh.json_number(thick)
    data["q_span"] = kh.q_span(table)
    return _emit(
        args,
        data,
        [
            f"field: {args.field}",
            _render_table(table),
            f"thickness: {thick}",
            f"q-span: {data['q_span']}",
        ],
    )


def _cmd_k1(args: argparse.Namespace) -> int:
    d = load_diagram(args.file)
    census = single_circle_census(d, max_crossings=args.max_crossings)
    checks = {
        "within_window": census.within_window,
        "amplitude_bounded": census.amplitude_bounded,
        "parity_consistent": census.parity_consistent,
    }
    hist = " ".join(f"{k}:{v}" for k, v in census.b_histogram.items())
    return _emit(
        args,
        {
            "schema": 1,
            "size": census.size,
            "b_histogram": {str(k): v for k, v in census.b_histogram.items()},
            "window": list(census.window),
            "chi": census.chi,
            "checks": checks,
        },
        [
            f"census size: {census.size}",
            f"b-smoothing histogram: {hist if hist else '(empty)'}",
            f"window: [{census.window[0]}, {census.window[1]}]",
            *(
                f"{name.replace('_', ' ')}: {'yes' if ok else 'no'}"
                for name, ok in checks.items()
            ),
        ],
    )


def _cmd_certify(args: argparse.Namespace) -> int:
    fields = _parse_fields(args.fields)
    cert = certify(load_diagram(args.file), fields, max_crossings=args.max_crossings)
    return _emit(args, cert.to_json_dict(), cert.reasoning)


def _cmd_certify_table(args: argparse.Namespace) -> int:
    table = kh.load_table(args.file, args.field)
    cert = certify_from_table(table, args.n, args.chi)
    return _emit(args, cert.to_json_dict(), cert.reasoning)


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
    emit = ("--json", {"action": "store_true", "help": "emit JSON"})
    limit = ("--max-crossings", {"type": int, "help": "override the enumeration limit"})
    fields_help = (
        "comma-separated coefficient fields (default: gf2, plus q when the atom"
        " is orientable)"
    )
    # name, help, positional, handler, options (in the order --help lists them)
    commands = (
        ("bracket", "Kauffman bracket, span and the span bound", "file", _cmd_bracket,
         [emit, limit]),
        ("atom", "cell counts, Euler characteristic, genus", "file", _cmd_atom, [emit]),
        ("kh", "Khovanov homology table", "file", _cmd_kh,
         [("--field", {"choices": [kh.GF2, kh.Q], "default": kh.GF2}), emit, limit]),
        ("k1", "census of single-circle states", "file", _cmd_k1, [emit, limit]),
        ("certify", "minimality certificate for a diagram", "file", _cmd_certify,
         [("--fields", {"help": fields_help}), emit, limit]),
        ("certify-table", "minimality certificate from a homology table", "file",
         _cmd_certify_table,
         [("--n", {"type": int, "required": True, "help": "crossing count"}),
          ("--chi", {"type": int, "help": "known Euler characteristic"}),
          ("--field", {"choices": [kh.GF2, kh.Q]}),
          emit]),
        ("batch", "certify every diagram file in a directory", "directory", _cmd_batch,
         [("--fields", {}), limit]),
    )
    for name, help_text, positional, run, options in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
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
        limit = getattr(args, "max_crossings", None)
        if limit is not None and limit <= 0:
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
