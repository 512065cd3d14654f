"""The periodic order on W_ext.

Two elements are compared by translating both into the minimal-representative
set W_ext^S with a common antidominant push and comparing there in Bruhat
order; the result does not depend on the chosen push.  Comparisons are kept
in a `Memo` table because the multiplicity calculator asks the same ones
repeatedly.

The push is plain arithmetic: x t_{-N varsigma} = w t_{lambda - N varsigma}
for x = w t_lambda, so it keeps the Weyl part and subtracts N varsigma from
the translation.  N is read from the box coordinates that `AlcoveModel`
keeps per element.
"""

from __future__ import annotations

from .alcove import AlcoveModel
from .errors import InvariantViolation
from .ext_weyl import ExtWeylElement
from .memo import Memo
from .root_datum import vec_scale, vec_sub


class PeriodicOrder:
    def __init__(self, alc: AlcoveModel):
        self.alc = alc
        self.ext = alc.ext
        self._leq = Memo(self._compare)

    def _push_steps(self, x: ExtWeylElement) -> int:
        """Smallest N >= 0 with x t_{-N varsigma} in W_ext^S."""
        # x = y t_lambda with y restricted lies in W_ext^S exactly when lambda
        # is antidominant, and res_decompose's lambda has <alpha_i, lambda> =
        # 1 - c_i for the box coordinates c_i of x; pushing by N varsigma
        # lowers every <alpha_i, lambda> by N
        return max([0] + [1 - c for c in self.alc.data[x].coords])

    def leq(self, x: ExtWeylElement, y: ExtWeylElement) -> bool:
        if x == y:
            return True
        return self._leq[(x, y)]

    def _compare(self, key: tuple[ExtWeylElement, ExtWeylElement]) -> bool:
        x, y = key
        n = max(self._push_steps(x), self._push_steps(y))
        push = vec_scale(n, self.alc.datum.varsigma)
        xs = ExtWeylElement(x.w, vec_sub(x.t, push))
        ys = ExtWeylElement(y.w, vec_sub(y.t, push))
        if not (self.alc.in_wexts(xs) and self.alc.in_wexts(ys)):
            raise InvariantViolation(f"pushing {x}, {y} by {n} varsigma leaves W_ext^S")
        return self.ext.bruhat_leq(xs, ys)
