"""Alcove geometry for W_ext: membership tests, boxes, and the triangle map.

For x = w t_lambda and any p0 in the fundamental alcove, x^{-1}.p0 =
w^{-1}(p0) - lambda pairs with a simple root alpha_i as
<w alpha_i, p0> - <alpha_i, lambda>, and 0 < |<beta, p0>| < 1 for every root
beta, so x's box coordinate c_i = ceil <alpha_i, x^{-1}.p0> is the integer
[w alpha_i > 0] - <alpha_i, lambda> (Jantzen, Representations of Algebraic
Groups, II.6).  The model keeps one table, `tops[w]` = ([w alpha_i > 0] - 1)_i,
read off w's root permutation: the box coordinates of w t_0, less one.  So
c_i = tops[w]_i + 1 - <alpha_i, lambda>: x lies in W_ext^S when every
<alpha_i, lambda> is at most tops[w]_i (every c_i >= 1), and is restricted
when every one equals it (every c_i = 1).  Simple roots suffice for the
chamber test: every positive root is a nonnegative integer combination of
simple roots.  The lift of tops[w] is `restricted_reps[w]`, on semisimple
data the only restricted element of Weyl index w.  The rest is computed
when asked, in O(rank) pairings and with no table per element: the box
coordinates, the restricted split x = y t_lambda (checked to be restricted
each time) and the triangle map.  The periodic order reads `tops` alone.

>>> from alcove_hecke.engine import build_engine
>>> eng = build_engine("A2_adj")
>>> alc, ext = eng.alc, eng.ext
>>> alc.box_coords(ext.translation((-2, 1))), alc.box_coords(ext.parse_element("s1 : 0,0"))
((3, 0), (0, 1))
>>> [ext.format_element(y) for y in alc.restricted_elements()]
['e : 0,0', 's1 : -1,0', 's2 : 0,-1', 's1 s2 : 0,-1', 's2 s1 : -1,0', 's1 s2 s1 : -1,-1']
"""

from __future__ import annotations

from operator import mul as scalar_mul

from .errors import InvariantViolation, NotFinitary
from .ext_weyl import ExtWeyl, ExtWeylElement
from .memo import Memo
from .root_datum import Vector, vec_add, vec_neg, vec_sub


class AlcoveModel:
    def __init__(self, ext: ExtWeyl):
        self.ext = ext
        d = self.datum = ext.datum
        # per Weyl index w: [w alpha_i > 0] - 1 for the simple roots alpha_i
        n_pos = len(d.positive_roots)
        simple = [d.roots.index(alpha) for alpha in d.simple_roots]
        self.tops = tuple(tuple([(perm[j] < n_pos) - 1 for j in simple]) for perm in d.root_perms)
        # Weyl index w -> w t_lambda with lambda the lift of tops[w]
        self.restricted_reps = Memo(lambda w: ExtWeylElement(w, d.section_lift(self.tops[w])))

    def in_wexts(self, x: ExtWeylElement) -> bool:
        """Minimal-coset-representative test: every box coordinate is >= 1."""
        t = x.t
        for top, alpha in zip(self.tops[x.w], self.datum.simple_roots):
            if sum(map(scalar_mul, alpha, t)) > top:
                return False
        return True

    def in_wres(self, x: ExtWeylElement) -> bool:
        """Restricted test: every box coordinate is 1."""
        t = x.t
        for top, alpha in zip(self.tops[x.w], self.datum.simple_roots):
            if sum(map(scalar_mul, alpha, t)) != top:
                return False
        return True

    def box_coords(self, x: ExtWeylElement) -> tuple[int, ...]:
        """ceil <alpha, x^{-1}.p0> for each simple root alpha."""
        return self._box_coords(x)

    def _box_coords(self, x: ExtWeylElement) -> tuple[int, ...]:
        t = x.t
        rows = zip(self.tops[x.w], self.datum.simple_roots)
        return tuple([top + 1 - sum(map(scalar_mul, alpha, t)) for top, alpha in rows])

    def res_decompose(self, x: ExtWeylElement) -> tuple[ExtWeylElement, Vector]:
        """Split x = y t_lambda with y restricted: lambda is the lift of
        alpha |-> 1 - c_alpha for x's box coordinates c, and y = x t_{-lambda}
        keeps x's Weyl part and subtracts lambda from its translation."""
        lam = self.datum.section_lift(tuple([1 - c for c in self._box_coords(x)]))
        y = ExtWeylElement(x.w, vec_sub(x.t, lam))
        if not self.in_wres(y):
            raise InvariantViolation(f"{x} t_{vec_neg(lam)} = {y} is not restricted")
        return y, lam

    def triangle(self, x: ExtWeylElement) -> ExtWeylElement:
        """x t_mu w0 t_{-mu} for mu = section_lift(box_coords(x)).

        x t_mu only adds mu to x's translation and t_{-mu} subtracts it, so
        the one product is (x t_mu) w0.
        """
        mu = self.datum.section_lift(self.box_coords(x))
        y = self.ext.mul(ExtWeylElement(x.w, vec_add(x.t, mu)), self.ext.w0)
        return ExtWeylElement(y.w, vec_sub(y.t, mu))

    def triangle_inverse(self, v: ExtWeylElement) -> ExtWeylElement:
        """The inverse of `triangle`: v t_{-lambda} w0 t_lambda = y w0 t_lambda
        for the split v = y t_lambda, one product."""
        y, lam = self.res_decompose(v)
        z = self.ext.mul(y, self.ext.w0)
        return ExtWeylElement(z.w, vec_add(z.t, lam))

    def restricted_elements(self) -> list[ExtWeylElement]:
        """All restricted elements, one per Weyl index (`restricted_reps`);
        `NotFinitary` unless the datum is semisimple."""
        d = self.datum
        if d.orthogonal_basis:
            raise NotFinitary("restricted elements form an infinite set for this datum")
        return sorted(self.restricted_reps[w] for w in range(d.weyl_order))
