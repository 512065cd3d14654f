"""Alcove geometry for W_ext: membership tests, boxes, and the triangle map.

For x = w t_lambda and any p0 in the fundamental alcove, x^{-1}.p0 =
w^{-1}(p0) - lambda pairs with a simple root alpha_i as
<w alpha_i, p0> - <alpha_i, lambda>, and 0 < |<beta, p0>| < 1 for every root
beta, so x's box coordinate c_i = ceil <alpha_i, x^{-1}.p0> is the integer
[w alpha_i > 0] - <alpha_i, lambda> (Jantzen, Representations of Algebraic
Groups, II.6).  The model keeps one table, `_signs[w]` = ([w alpha_i > 0])_i,
read off w's root permutation: x lies in W_ext^S when every c_i >= 1 and is
restricted when every c_i = 1.  Simple roots suffice for the chamber test:
every positive root is a nonnegative integer combination of simple roots.
So w t_lambda is restricted exactly when every <alpha_i, lambda> is
[w alpha_i > 0] - 1; the section lift of that pattern gives
`restricted_reps[w]`, on semisimple data the only restricted element of
Weyl index w.

What the order and the parabolic tests ask about an element, its box
coordinates and its restricted split x = y t_lambda, is decided once per x
and kept in a bounded `Memo` table of `AlcoveData`: the periodic order asks
for the same elements' boxes thousands of times.  The split is checked to be
restricted when it is first computed.

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
from typing import NamedTuple

from .errors import InvariantViolation, NotFinitary
from .ext_weyl import ExtWeyl, ExtWeylElement
from .memo import Memo
from .root_datum import Vector, vec_add, vec_neg, vec_sub


class AlcoveData(NamedTuple):
    """Per-element alcove data: x = restricted * t_lam, with the box
    coordinates of x, from which lam is read."""

    coords: tuple[int, ...]
    restricted: ExtWeylElement
    lam: Vector


class AlcoveModel:
    def __init__(self, ext: ExtWeyl):
        self.ext = ext
        d = self.datum = ext.datum
        # per Weyl index w: [w alpha_i > 0] for the simple roots alpha_i
        n_pos = len(d.positive_roots)
        simple = [d.roots.index(alpha) for alpha in d.simple_roots]
        self._signs = tuple(tuple([int(perm[j] < n_pos) for j in simple]) for perm in d.root_perms)
        self.data = Memo(self._alcove_data)
        # Weyl index w -> w t_lambda with lambda the lift of [w alpha_i > 0] - 1
        self.restricted_reps = Memo(
            lambda w: ExtWeylElement(w, d.section_lift(tuple([b - 1 for b in self._signs[w]])))
        )

    def in_wexts(self, x: ExtWeylElement) -> bool:
        """Minimal-coset-representative test: every box coordinate is >= 1."""
        t = x.t
        for b, alpha in zip(self._signs[x.w], self.datum.simple_roots):
            if sum(map(scalar_mul, alpha, t)) >= b:
                return False
        return True

    def in_wres(self, x: ExtWeylElement) -> bool:
        """Restricted test: every box coordinate is 1."""
        t = x.t
        for b, alpha in zip(self._signs[x.w], self.datum.simple_roots):
            if sum(map(scalar_mul, alpha, t)) != b - 1:
                return False
        return True

    def box_coords(self, x: ExtWeylElement) -> tuple[int, ...]:
        """ceil <alpha, x^{-1}.p0> for each simple root alpha."""
        return self.data[x].coords

    def _box_coords(self, x: ExtWeylElement) -> tuple[int, ...]:
        t = x.t
        rows = zip(self._signs[x.w], self.datum.simple_roots)
        return tuple([b - sum(map(scalar_mul, alpha, t)) for b, alpha in rows])

    def _alcove_data(self, x: ExtWeylElement) -> AlcoveData:
        """x's box coordinates c and its split x = y t_lambda with y restricted.

        lambda is the canonical lift of alpha |-> 1 - c_alpha, and then
        y = x t_{-lambda} keeps x's Weyl part and subtracts lambda from its
        translation.
        """
        coords = self._box_coords(x)
        lam = self.datum.section_lift(tuple([1 - c for c in coords]))
        y = ExtWeylElement(x.w, vec_sub(x.t, lam))
        if not self.in_wres(y):
            raise InvariantViolation(f"{x} t_{vec_neg(lam)} = {y} is not restricted")
        return AlcoveData(coords, y, lam)

    def triangle(self, x: ExtWeylElement) -> ExtWeylElement:
        """x t_mu w0 t_{-mu} for mu = section_lift(box_coords(x)).

        mu is read off x's alcove data: lambda = section_lift(1 - c) for the
        box coordinates c, varsigma = section_lift(1, ..., 1), and the lift
        is linear, so mu = varsigma - lambda.  x t_mu only adds mu to x's
        translation and t_{-mu} subtracts it, so the one product is
        (x t_mu) w0.
        """
        mu = vec_sub(self.datum.varsigma, self.data[x].lam)
        y = self.ext.mul(ExtWeylElement(x.w, vec_add(x.t, mu)), self.ext.w0)
        return ExtWeylElement(y.w, vec_sub(y.t, mu))

    def triangle_inverse(self, v: ExtWeylElement) -> ExtWeylElement:
        """The inverse of `triangle`: v t_{-lambda} w0 t_lambda = y w0 t_lambda
        for the split v = y t_lambda, one product."""
        data = self.data[v]
        z = self.ext.mul(data.restricted, self.ext.w0)
        return ExtWeylElement(z.w, vec_add(z.t, data.lam))

    def res_decompose(self, x: ExtWeylElement) -> tuple[ExtWeylElement, Vector]:
        """Split x = y t_lambda with y restricted, deterministically (see
        `_alcove_data`)."""
        data = self.data[x]
        return data.restricted, data.lam

    def restricted_elements(self) -> list[ExtWeylElement]:
        """All restricted elements, one per Weyl index (`restricted_reps`);
        `NotFinitary` unless the datum is semisimple."""
        d = self.datum
        if d.orthogonal_basis:
            raise NotFinitary("restricted elements form an infinite set for this datum")
        return sorted(self.restricted_reps[w] for w in range(d.weyl_order))
