"""Alcove geometry for W_ext: membership tests, boxes, and the triangle map.

Every test is decided on the single interior sample point p0 = varsigma / h,
where h is one plus the maximal height of a positive root, so all pairings
<beta, p0> = height(beta) / h are exact with one shared denominator.  Points
are stored as integer numerator vectors over that denominator.

The tests look at x^{-1}.p0, and for x = w t_lambda that point is
x^{-1}.p0 = w^{-1}(p0) - h lambda (in numerators).  The model therefore keeps
one row per finite Weyl index w, holding <alpha, w^{-1}(p0)> for the simple
roots (in numerators <w alpha, varsigma>, the signed height of the root
w alpha, read off w's root permutation), and decides each test from that
row and one small dot product per simple root:
<alpha_i, x^{-1}.p0> = row[i] - h <alpha_i, lambda>.  Simple
roots suffice for the chamber test too: every positive root is a
nonnegative integer combination of simple roots, so a point pairs positively
with every positive root exactly when it does with every simple root.

What the order and the parabolic tests ask about an element, its box
coordinates and its restricted split x = y t_lambda, is decided once per x
and kept in a bounded `Memo` table of `AlcoveData`: the periodic order asks
for the same elements' boxes thousands of times.  The split is checked to be
restricted when it is first computed.

>>> from alcove_hecke.engine import build_engine
>>> eng = build_engine("A1_adj")
>>> alc, ext = eng.alc, eng.ext
>>> [alc.in_wexts(ext.translation((n,))) for n in (-1, 0, 1)]
[True, True, False]
>>> alc.box_coords(ext.translation((-2,))), alc.box_coords(ext.parse_element("s1 : 0"))
((3,), (0,))
"""

from __future__ import annotations

from operator import mul as scalar_mul
from typing import NamedTuple

from .errors import InvariantViolation, NotFinitary
from .ext_weyl import ExtWeyl, ExtWeylElement
from .memo import Memo
from .root_datum import Vector, pair, vec_add, vec_neg, vec_sub


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
        h = self.denominator = 1 + max(d.root_heights)
        # p0 lies in the fundamental alcove: 0 < <beta, p0> < h for beta > 0
        for beta in d.positive_roots:
            if not 0 < pair(beta, d.varsigma) < h:
                raise InvariantViolation(f"base point {d.varsigma} leaves the fundamental alcove")
        # per Weyl index w: <alpha, w^{-1}(p0)> for the simple roots alpha, in
        # numerators the signed height of the root w alpha
        heights = d.root_heights + tuple(-ht for ht in d.root_heights)
        simple = [d.roots.index(alpha) for alpha in d.simple_roots]
        self._simple_rows = tuple(
            tuple([heights[perm[j]] for j in simple]) for perm in d.root_perms
        )
        self.data = Memo(self._alcove_data)

    def in_wexts(self, x: ExtWeylElement) -> bool:
        """Minimal-coset-representative test: x^{-1}(A_fund) in the dominant cone."""
        h, t = self.denominator, x.t
        for r, alpha in zip(self._simple_rows[x.w], self.datum.simple_roots):
            if r <= h * sum(map(scalar_mul, alpha, t)):
                return False
        return True

    def in_wres(self, x: ExtWeylElement) -> bool:
        """Restricted test: x^{-1}(A_fund) inside the fundamental box."""
        h, t = self.denominator, x.t
        for r, alpha in zip(self._simple_rows[x.w], self.datum.simple_roots):
            if not 0 < r - h * sum(map(scalar_mul, alpha, t)) < h:
                return False
        return True

    def box_coords(self, x: ExtWeylElement) -> tuple[int, ...]:
        """ceil <alpha, x^{-1}.p0> / h for each simple root alpha."""
        return self.data[x].coords

    def _box_coords(self, x: ExtWeylElement) -> tuple[int, ...]:
        h, t = self.denominator, x.t
        rows = zip(self._simple_rows[x.w], self.datum.simple_roots)
        return tuple([-((h * sum(map(scalar_mul, alpha, t)) - r) // h) for r, alpha in rows])

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

    def box_of(self, x: ExtWeylElement) -> Vector:
        """Canonical mu in Y with <alpha, mu> = ceil <alpha, x^{-1}.p0>."""
        return self.datum.section_lift(self.data[x].coords)

    def triangle(self, x: ExtWeylElement) -> ExtWeylElement:
        """x t_mu w0 t_{-mu} for mu = box_of(x).

        mu is read off x's alcove data: lambda = section_lift(1 - c) for the
        box coordinates c, varsigma = section_lift(1, ..., 1), and the lift
        is linear, so mu = section_lift(c) = varsigma - lambda.  x t_mu only
        adds mu to x's translation and t_{-mu} subtracts it, so the one
        product is (x t_mu) w0.
        """
        mu = vec_sub(self.datum.varsigma, self.data[x].lam)
        y = self.ext.mul(ExtWeylElement(x.w, vec_add(x.t, mu)), self.ext.w0)
        return ExtWeylElement(y.w, vec_sub(y.t, mu))

    def triangle_inverse(self, v: ExtWeylElement) -> ExtWeylElement:
        e = self.ext
        shift = vec_sub(self.box_of(v), self.datum.varsigma)
        return e.mul_many(v, ExtWeylElement(0, shift), e.w0, ExtWeylElement(0, vec_neg(shift)))

    def res_decompose(self, x: ExtWeylElement) -> tuple[ExtWeylElement, Vector]:
        """Split x = y t_lambda with y restricted, deterministically (see
        `_alcove_data`)."""
        data = self.data[x]
        return data.restricted, data.lam

    def restricted_elements(self) -> list[ExtWeylElement]:
        """All restricted elements; `NotFinitary` unless the datum is semisimple.

        A restricted element w t_lambda has <alpha, lambda> in {-1, 0} for
        every simple alpha, so for semisimple data it is enough to scan the
        lifts of those pairing patterns.
        """
        import itertools

        d = self.datum
        if d.orthogonal_basis:
            raise NotFinitary("restricted elements form an infinite set for this datum")
        out = []
        for w in range(d.weyl_order):
            for cs in itertools.product((-1, 0), repeat=d.rank):
                x = ExtWeylElement(w, d.section_lift(cs))
                if self.in_wres(x):
                    out.append(x)
        return sorted(out)
