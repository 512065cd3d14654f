"""Integer-coefficient Laurent polynomials in one variable v.

Stored as a finitely supported exponent -> coefficient map with no explicit
zeros; all arithmetic is exact.

>>> v = LaurentPolynomial.monomial(1)
>>> str((v + v.bar()) * v)
'1*v^0+1*v^2'
>>> v - v == 0
True
>>> (v.bar() - v).evaluate(-1)
0
"""

from __future__ import annotations


class LaurentPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def _adopt(cls, coeffs: dict[int, int]) -> "LaurentPolynomial":
        """The polynomial whose `coeffs` is coeffs itself, handed over: a
        dict with no zero value that no one writes to afterwards."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        return cls({exponent: coefficient})

    def coeff(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPolynomial(out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return LaurentPolynomial(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial({k: c * other for k, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPolynomial":
        """The involution v -> v^{-1}."""
        return LaurentPolynomial({-k: c for k, c in self.coeffs.items()})

    def evaluate(self, value: int) -> int:
        """Exact evaluation at a nonzero integer (negative exponents allowed)."""
        total = 0
        for k, c in self.coeffs.items():
            if k >= 0:
                total += c * value**k
            else:
                q, r = divmod(c, value ** (-k))
                if r != 0:
                    raise ValueError(f"evaluation at {value} is not integral")
                total += q
        return total

    def min_exponent(self) -> int:
        return min(self.coeffs)

    def max_exponent(self) -> int:
        return max(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if parts:
                parts.append("+" if c > 0 else "-")
                parts.append(f"{abs(c)}*v^{k}")
            else:
                parts.append(f"{c}*v^{k}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self})"


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
V = LaurentPolynomial({1: 1})
V_INV = LaurentPolynomial({-1: 1})

