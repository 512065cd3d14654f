"""The periodic order on W_ext.

Two elements are compared by translating both into the minimal-representative
set W_ext^S by one common coweight and comparing there in Bruhat order; the
result does not depend on the chosen translation.  So the order is invariant
under the shift x |-> x t_nu for every nu in Y: x t_nu t_mu and y t_nu t_mu
are the same pair as x t_{nu + mu} and y t_{nu + mu}, and a push of the
shifted pair is a push of the original one.  For x = w_x t_lambda_x and
y = w_y t_lambda_y the translation class of the pair is named by
(w_x, w_y, delta) with delta = lambda_y - lambda_x, and its representative is
(w_x t_0, w_y t_delta).  The comparisons are kept in a `Memo` table keyed on
that triple, so a pair and all its translates are decided once: the
multiplicity calculator asks the same ones repeatedly.

A pair in two W_aff-cosets is incomparable.  The coset classes of
`ExtWeyl` are additive in the translation, so lambda_x and lambda_y share a
class exactly when delta lies in the coroot lattice (`in_affine_subgroup`
of t_delta).  Otherwise the representative x_0 = w_x t_0, y_0 = w_y t_delta
is translated by one common coweight mu.  The box coordinates of
w t_lambda are c_i = [w alpha_i > 0] - <alpha_i, lambda> (see `alcove`), so
those of the representative, less one, are read from `AlcoveModel.tops`
alone: c_i(x_0) - 1 = tops[w_x]_i and c_i(y_0) - 1 = tops[w_y]_i - <alpha_i, delta>.
w t_lambda lies in W_ext^S when every c_i >= 1, and t_mu lowers each c_i by
<alpha_i, mu>, so mu is the section lift of low_i = min(c_i(x_0), c_i(y_0)) - 1:
the largest push that keeps both in W_ext^S, where the Bruhat walk is
shortest.  For x and y themselves that is the translation t_{mu - lambda_x},
which pulls a pair that lies deep in W_ext^S back up.

The same reading is the exit check.  x_0 t_mu lies in W_ext^S exactly when
<alpha_i, mu> <= c_i(x_0) - 1 for every i, and y_0 t_mu exactly when
<alpha_i, mu> <= c_i(y_0) - 1, so both do exactly when <alpha_i, mu> <= low_i
for every i: one pairing of mu per simple root replaces the two membership
tests, and a lift that misses raises `InvariantViolation`.  The pushed pair
then enters the Bruhat walk `ExtWeyl._bruhat_aff` directly, after
`start_query`, since its coset is known.

>>> from alcove_hecke.engine import build_engine
>>> eng = build_engine("A2_adj")
>>> ext, order = eng.ext, eng.order
>>> x, y = ext.parse_element("e : 0,0"), ext.parse_element("s1 s2 s1 : -1,-1")
>>> order.leq(x, y), len(order._leq)
(True, 1)
>>> t = ext.translation((3, -5))
>>> order.leq(ext.mul(x, t), ext.mul(y, t)), len(order._leq)
(True, 1)
"""

from __future__ import annotations

from operator import add, gt, mul, sub

from .alcove import AlcoveModel
from .errors import InvariantViolation
from .ext_weyl import ExtWeylElement
from .memo import Memo


class PeriodicOrder:
    def __init__(self, alc: AlcoveModel):
        self.alc = alc
        self.ext = alc.ext
        self._simple = alc.datum.simple_roots
        self._lift = alc.datum.section_lift
        # (x.w, y.w, y.t - x.t) -> x <= y, one entry per translation class
        self._leq = Memo(self._compare)

    def _push_steps(self, x: ExtWeylElement) -> int:
        """Smallest N >= 0 with x t_{-N varsigma} in W_ext^S."""
        # pushing by N varsigma lowers every <alpha_i, lambda_x> = 1 - c_i by N
        return max([0] + [1 - c for c in self.alc.box_coords(x)])

    def leq(self, x: ExtWeylElement, y: ExtWeylElement) -> bool:
        if x == y:
            return True
        return self._leq[(x.w, y.w, tuple(map(sub, y.t, x.t)))]

    def _compare(self, key: tuple[int, int, tuple[int, ...]]) -> bool:
        """Decides the class (w_x, w_y, delta) on w_x t_0 <= w_y t_delta."""
        wx, wy, delta = key
        ext = self.ext
        if not ext.in_affine_subgroup(ExtWeylElement(0, delta)):
            return False
        simple = self._simple
        pairings = [sum(map(mul, alpha, delta)) for alpha in simple]
        tops = self.alc.tops
        low = tuple(map(min, tops[wx], map(sub, tops[wy], pairings)))
        mu = self._lift(low)
        if any(map(gt, [sum(map(mul, alpha, mu)) for alpha in simple], low)):
            raise InvariantViolation(
                f"pushing the class {key} by {mu} leaves W_ext^S: pairings above {low}")
        ext.start_query()
        ys = ExtWeylElement(wy, tuple(map(add, delta, mu)))
        return ext._bruhat_aff(ExtWeylElement(wx, mu), ys)
