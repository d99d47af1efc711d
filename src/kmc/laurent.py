"""One-variable Laurent polynomials with exact integer coefficients.

Stored as a map exponent -> coefficient with no zero entries, so equality
is structural and all arithmetic is exact.
"""

from __future__ import annotations


class Laurent:
    """Integer Laurent polynomial in a single formal variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs: dict[int, int] = {
            int(e): int(c) for e, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def term(cls, coeff: int, exp: int) -> "Laurent":
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    def span(self) -> int:
        """Leading degree minus lowest degree (0 for a monomial)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degrees")
        return max(self.coeffs) - min(self.coeffs)

    def substitute_signed_power(self, sign: int, k: int) -> "Laurent":
        """Replace the variable x by sign * y^k, returning a polynomial in y.

        sign must be +1 or -1.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        out: dict[int, int] = {}
        for e, c in self.coeffs.items():
            out[k * e] = out.get(k * e, 0) + (c if sign == 1 or e % 2 == 0 else -c)
        return Laurent(out)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, highest exponent first."""
        return sorted(self.coeffs.items(), reverse=True)

    def format(self, var: str = "A") -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for e, c in self.terms():
            mag = abs(c)
            body = f"{mag}*{var}^{e}" if e != 0 else f"{mag}"
            pieces.append(("-" if c < 0 else "+", body))
        sign0, body0 = pieces[0]
        text = body0 if sign0 == "+" else "-" + body0
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Laurent({self.coeffs!r})"


# Loop value of the bracket state sum: -A^2 - A^-2.
LOOP = Laurent({2: -1, -2: -1})
