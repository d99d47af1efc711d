"""Output oracle: compare each operation's JSON with the recorded reference
and check the paper's invariants on it.

Every key of the recorded output must come back with the same value;
``reasoning`` text is not recorded, and keys the program adds later are
not compared.  The invariants use only the output and the bracket and
writhe recorded with the input, never the package under test.
"""

from __future__ import annotations

import json
from fractions import Fraction

IGNORED_KEYS = ("reasoning",)


def strip(data: dict) -> dict:
    return {k: v for k, v in data.items() if k not in IGNORED_KEYS}


def _poly_add(acc: dict[int, int], exp: int, coeff: int) -> None:
    v = acc.get(exp, 0) + coeff
    if v:
        acc[exp] = v
    else:
        acc.pop(exp, None)


def euler_matches_bracket(entries: list[dict], bracket: list[list[int]], writhe: int) -> bool:
    """sum (-1)^t dim q^q at q = -A^-2 equals (-A^2 - A^-2)(-A^3)^-w <D>."""
    lhs: dict[int, int] = {}
    for e in entries:
        sign = -1 if (e["t"] + e["q"]) % 2 else 1
        _poly_add(lhs, -2 * e["q"], sign * e["dim"])
    rhs: dict[int, int] = {}
    w_sign = -1 if writhe % 2 else 1
    for exp, coeff in bracket:
        for loop_exp in (2, -2):
            _poly_add(rhs, exp + loop_exp - 3 * writhe, -w_sign * coeff)
    return lhs == rhs


def _certificate_invariants(data: dict, entry: dict) -> list[str]:
    problems = []
    n, chi = data["n"], data["chi"]
    if data["span_bound"] != 4 * n + 2 * (chi - 2):
        problems.append("span bound is not 4n + 2(chi - 2)")
    if data["bracket_span"] is not None and data["bracket_span"] > data["span_bound"]:
        problems.append("bracket span exceeds 4n + 2(chi - 2)")
    genus_plus_2 = Fraction(data["twice_genus"], 2) + 2
    fields = data["fields"]
    for name, rep in fields.items():
        if not euler_matches_bracket(rep["entries"], entry["bracket"], entry["writhe"]):
            problems.append(f"graded Euler characteristic over {name} is not the bracket")
        if Fraction(rep["thickness"]) > genus_plus_2:
            problems.append(f"thickness over {name} exceeds genus + 2")
    if "gf2" in fields and "q" in fields:
        gf2 = {(e["t"], e["q"]): e["dim"] for e in fields["gf2"]["entries"]}
        for e in fields["q"]["entries"]:
            if gf2.get((e["t"], e["q"]), 0) < e["dim"]:
                problems.append(f"GF(2) dimension below Q at (t={e['t']}, q={e['q']})")
                break
    return problems


def _invariants(kind: str, data: dict, entry: dict) -> list[str]:
    if kind == "certify":
        return _certificate_invariants(data, entry)
    if kind == "bracket":
        if data["span"] is not None and data["span"] > data["bound"]:
            return ["bracket span exceeds its bound"]
    elif kind == "k1":
        failed = [k for k, ok in data["checks"].items() if not ok]
        if failed:
            return [f"census check failed: {', '.join(failed)}"]
    elif kind == "atom":
        if data["chi"] != data["a"] + data["b"] - entry["n"]:
            return ["atom chi is not a + b - n"]
    elif kind in ("table", "table_fixture"):
        rep = next(iter(data["fields"].values()))
        if Fraction(rep["thickness"]) > Fraction(data["twice_genus"], 2) + 2:
            return ["thickness exceeds genus + 2"]
    return []


def check(kind: str, text: str, entry: dict) -> list[str]:
    """Problems found in one operation's stdout; empty when it is correct."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(data, dict):
        return ["output is not a JSON object"]
    ref = entry["outputs"][kind]
    problems = [f"{key} differs from the reference" for key in ref if data.get(key) != ref[key]]
    try:
        problems += _invariants(kind, data, entry)
    except (KeyError, TypeError, ValueError, StopIteration, AttributeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
