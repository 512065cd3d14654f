"""The periodic order on W_ext.

Two elements are compared by translating both into the minimal-representative
set W_ext^S by one common coweight and comparing there in Bruhat order; the
result does not depend on the chosen translation.  Comparisons are kept in a
`Memo` table because the multiplicity calculator asks the same ones
repeatedly.

A pair in two W_aff-cosets is incomparable, which `ExtWeyl.same_coset`
decides from the classes of lambda_x and lambda_y.  Otherwise the pair is
translated by the smallest common coweight.  For x = w t_lambda,
x t_mu = w t_{lambda + mu} keeps the Weyl part, and it lies in W_ext^S exactly
when <alpha_i, lambda_x + mu> <= 0 for every simple root, where lambda_x is
the translation of x's restricted split, with <alpha_i, lambda_x> = 1 - c_i
for the box coordinates c_i of x.  So mu is the lift of the pairings
min(c_i(x), c_i(y)) - 1, read from the box coordinates that `AlcoveModel`
keeps per element.  mu may be positive: a pair that lies deep in W_ext^S is
pulled back up to where the Bruhat walk is shortest.
"""

from __future__ import annotations

from operator import add

from .alcove import AlcoveModel
from .errors import InvariantViolation
from .ext_weyl import ExtWeylElement
from .memo import Memo
from .root_datum import Vector


class PeriodicOrder:
    def __init__(self, alc: AlcoveModel):
        self.alc = alc
        self.ext = alc.ext
        self._leq = Memo(self._compare)

    def _push_steps(self, x: ExtWeylElement) -> int:
        """Smallest N >= 0 with x t_{-N varsigma} in W_ext^S."""
        # pushing by N varsigma lowers every <alpha_i, lambda_x> = 1 - c_i by N
        return max([0] + [1 - c for c in self.alc.data[x].coords])

    def _common_push(self, x: ExtWeylElement, y: ExtWeylElement) -> Vector:
        """The largest mu with x t_mu and y t_mu both in W_ext^S."""
        data = self.alc.data
        low = [min(a, b) - 1 for a, b in zip(data[x].coords, data[y].coords)]
        return self.alc.datum.section_lift(tuple(low))

    def leq(self, x: ExtWeylElement, y: ExtWeylElement) -> bool:
        if x == y:
            return True
        return self._leq[(x, y)]

    def _compare(self, key: tuple[ExtWeylElement, ExtWeylElement]) -> bool:
        x, y = key
        if not self.ext.same_coset(x, y):
            return False
        mu = self._common_push(x, y)
        xs = ExtWeylElement(x.w, tuple(map(add, x.t, mu)))
        ys = ExtWeylElement(y.w, tuple(map(add, y.t, mu)))
        if not (self.alc.in_wexts(xs) and self.alc.in_wexts(ys)):
            raise InvariantViolation(f"translating {x}, {y} by {mu} leaves W_ext^S")
        return self.ext.bruhat_leq(xs, ys)
