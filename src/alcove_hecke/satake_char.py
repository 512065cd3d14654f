"""Weight multiplicities of highest-weight modules for the dual group.

The dual group has weight lattice Y and roots the coroots of the datum.  The
multiplicities are those of the characteristic-zero simple module (equal to
the Weyl/induced-module character), computed by the Freudenthal recursion in
exact integer arithmetic; a brute-force Kostant-partition evaluation and the
Weyl dimension formula are provided as independent cross-checks.

The recursion runs over the dominant weights below the highest weight mu
only.  They are found by a walk down from mu: a step subtracts a positive
coroot beta and is kept when every simple-root pairing, lowered by
<alpha_i, beta>, stays nonnegative.  Every dominant weight below mu is reached
so, through dominant weights (Stembridge, *The partial order of dominant
weights*, 1998).  A weight's depth is the height of its gap to mu, and the
recursion takes the weights in order of depth.  Each multiplicity, once
known, is written onto the whole W-orbit of its dominant weight.  A weight
nu + k beta (k > 0) that the recursion reads at nu has its dominant
representative above nu + k beta, hence above nu and at a smaller depth, so it
is filled in first.  The weights on the string nu + beta, nu + 2 beta, ... are
unbroken, so the sum over k ends at the first one that is not a weight.

On A2 the module of highest weight (1, 1) is the adjoint one: six roots and
the zero weight twice.

>>> from alcove_hecke.root_datum import load_root_datum
>>> sat = SatakeChar(load_root_datum("A2_adj"))
>>> wm = sat.weight_multiplicities((1, 1))
>>> len(wm.multiplicities), wm.mult((0, 0)), wm.total(), sat.weyl_dimension((1, 1))
(7, 2, 8, 8)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul as scalar_mul, sub

from .errors import BoundsTooLarge, InvariantViolation, NotDominant
from .memo import Memo
from .root_datum import (RootDatum, Vector, identity_matrix, mat_apply, pair, solve_smith,
                         vec_add, vec_scale, vec_sub)

# a stated bound on the input: the box of gap coordinates between the highest
# and the lowest weight (not enumerated) may hold this many points, and a
# highest weight with a larger box is refused before the walk starts
MAX_CHAR_BOX = 40_000


@dataclass(frozen=True)
class WeightMultiset:
    multiplicities: dict[Vector, int]

    def mult(self, nu: Vector) -> int:
        return self.multiplicities.get(tuple(nu), 0)

    def total(self) -> int:
        return sum(self.multiplicities.values())

    def items(self):
        return sorted(self.multiplicities.items())


class SatakeChar:
    def __init__(self, datum: RootDatum):
        self.datum = datum
        self._chars = Memo(self._freudenthal)
        self._partitions = Memo(self._count_partitions)
        # per Weyl index, the Kostant term in linear form; per highest weight,
        # every term's sign and the part of its coordinates that mu fixes
        self._kostant_rows = Memo(self._kostant_row)
        self._kostant_terms = Memo(self._kostant_terms_of)
        # coroot data in simple-coroot coordinates
        self._coroot_coords = list(datum.coroot_in_simple)
        # each positive coroot as a step of the dominant walk: the coroot, its
        # height and its simple-root pairings
        self._walk_steps = tuple(
            (beta, sum(bc), tuple(pair(alpha, beta) for alpha in datum.simple_roots))
            for beta, bc in zip(datum.positive_coroots, self._coroot_coords)
        )
        # the Y-action of every Weyl element
        self._y_actions = tuple(el.y_action for el in datum.weyl_elements)
        self._two_rho_vee = (0,) * datum.y_rank
        for cv in datum.positive_coroots:
            self._two_rho_vee = vec_add(self._two_rho_vee, cv)
        # the W-invariant form B(lam, mu) = sum_{alpha > 0} <alpha, lam><alpha, mu>
        # on Y, read against each positive coroot beta as one pairing:
        # B(lam, beta) = <b_beta, lam> with b_beta = sum_{alpha > 0} <alpha, beta> alpha,
        # each <alpha, beta> computed once
        pos = datum.positive_roots
        columns = tuple(zip(*pos))
        self._form_rows = tuple(
            tuple(sum(map(scalar_mul, coeffs, col)) for col in columns)
            for coeffs in ([pair(alpha, beta) for alpha in pos] for beta in datum.positive_coroots)
        )

    # -- lattice helpers ---------------------------------------------------

    def _gap_coords(self, mu: Vector, nu: Vector) -> list[int] | None:
        """Coordinates of mu - nu in the simple coroots, or None."""
        return solve_smith(self.datum.coroot_smith, vec_sub(mu, nu))

    # -- Freudenthal recursion ----------------------------------------------

    def weight_multiplicities(self, mu: Vector) -> WeightMultiset:
        """The character of highest weight mu; `BoundsTooLarge` when the box of
        gap coordinates between mu and its lowest weight holds more than
        `MAX_CHAR_BOX` points (a bound on the input: only the dominant weights
        below mu are visited)."""
        mu = self.datum.check_y(mu)
        if not self.datum.is_dominant(mu):
            raise NotDominant(f"{mu} is not dominant")
        return self._chars[mu]

    def _freudenthal(self, mu: Vector) -> WeightMultiset:
        d = self.datum
        lowest = d.act_y(d.w0, mu)
        span = self._gap_coords(mu, lowest)
        if span is None or any(c < 0 for c in span):
            raise InvariantViolation(f"lowest weight {lowest} is not below {mu}")
        box = math.prod(c + 1 for c in span)
        if box > MAX_CHAR_BOX:
            raise BoundsTooLarge(f"{mu} has {box} > {MAX_CHAR_BOX} candidate weights")

        # the dominant weights below mu, walked down by positive coroots, each
        # with its depth: the height of its gap to mu
        depth = {mu: 0}
        queue = [(mu, 0, tuple(pair(alpha, mu) for alpha in d.simple_roots))]
        for nu, h, pairs in queue:  # grows as it is read
            for beta, height, beta_pairs in self._walk_steps:
                low = tuple(map(sub, pairs, beta_pairs))
                if min(low) >= 0:
                    lower = vec_sub(nu, beta)
                    if lower not in depth:
                        depth[lower] = h + height
                        queue.append((lower, h + height, low))

        # each multiplicity is written onto the whole W-orbit of its dominant
        # weight; a weight nu + k beta above nu has its dominant representative
        # at a smaller depth, so it is already filled in when nu reads it, and
        # the string nu + k beta ends at the first weight not filled in
        full: dict[Vector, int] = {}
        for nu in sorted(depth, key=lambda nu: (depth[nu], nu)):
            if nu == mu:
                m = 1
            else:
                numerator = 0
                for beta, row in zip(d.positive_coroots, self._form_rows):
                    higher = vec_add(nu, beta)
                    while higher in full:
                        numerator += 2 * full[higher] * pair(row, higher)
                        higher = vec_add(higher, beta)
                # denominator |mu+rho|^2 - |nu+rho|^2 = B(mu+nu+2rho, mu-nu)
                lhs, rhs = vec_add(vec_add(mu, nu), self._two_rho_vee), vec_sub(mu, nu)
                denom = sum(pair(alpha, lhs) * pair(alpha, rhs) for alpha in d.positive_roots)
                if denom <= 0:
                    raise InvariantViolation(f"Freudenthal denominator {denom} at {nu} in {mu}")
                if numerator % denom:
                    raise InvariantViolation(
                        f"Freudenthal quotient {numerator}/{denom} at {nu} in {mu} is not integral"
                    )
                m = numerator // denom
            if m:
                for action in self._y_actions:
                    full[mat_apply(action, nu)] = m
        result = WeightMultiset(full)
        if result.mult(mu) != 1:
            raise InvariantViolation(f"highest weight {mu} has multiplicity {result.mult(mu)}")
        return result

    # -- independent oracles --------------------------------------------------

    def kostant_partition(self, coords: Vector) -> int:
        """Number of ways to write a coroot-lattice vector (given in
        simple-coroot coordinates) as a nonnegative sum of positive coroots."""
        coords = tuple(coords)
        if any(c < 0 for c in coords):
            return 0
        return self._partition_count(coords, 0)

    def _partition_count(self, coords: Vector, idx: int) -> int:
        if all(c == 0 for c in coords):
            return 1
        if idx >= len(self._coroot_coords):
            return 0
        return self._partitions[(coords, idx)]

    def _count_partitions(self, key: tuple[Vector, int]) -> int:
        coords, idx = key
        beta = self._coroot_coords[idx]
        total = 0
        cur = coords
        while all(c >= 0 for c in cur):
            total += self._partition_count(cur, idx + 1)
            cur = tuple(a - b for a, b in zip(cur, beta))
        return total

    def kostant_multiplicity(self, mu: Vector, nu: Vector) -> int:
        """Weight multiplicity by the Kostant alternating sum (brute force)."""
        mu = self.datum.check_y(mu)
        nu = self.datum.check_y(nu)
        terms = self._kostant_terms[mu]  # tests mu's dominance once per mu
        gap = self._gap_coords(mu, nu)
        if gap is None:
            return 0
        total = 0
        for sign, base in terms:
            coords = tuple(map(add, base, gap))
            if min(coords, default=0) >= 0:
                total += sign * self._partition_count(coords, 0)
        return total

    def _kostant_terms_of(self, mu: Vector) -> tuple[tuple[int, list[int]], ...]:
        """Per Weyl element w, sign(w) and the coordinates of w(mu + rho) -
        (mu + rho); the Kostant term of w adds those of mu - nu.  A mu that is
        not dominant raises `NotDominant`, and the table stores nothing for it."""
        if not self.datum.is_dominant(mu):
            raise NotDominant(f"{mu} is not dominant")
        terms = []
        for w in range(self.datum.weyl_order):
            sign, shift, rows = self._kostant_rows[w]
            terms.append((sign, [s + sum(map(scalar_mul, row, mu)) for s, row in zip(shift, rows)]))
        return tuple(terms)

    def _kostant_row(self, w: int) -> tuple[int, list[int], list[Vector]]:
        """sign(w), the coordinates of w(rho) - rho, and the rows of the map taking
        mu to those of w(mu) - mu: the Kostant term of w partitions w(mu + rho) -
        (nu + rho), whose coordinates are these plus those of mu - nu."""
        d = self.datum
        doubled = self._gap_coords(d.act_y(w, self._two_rho_vee), self._two_rho_vee)
        if any(c % 2 for c in doubled):
            raise InvariantViolation(f"w(2rho) - 2rho = {doubled} is not even")
        columns = [self._gap_coords(d.act_y(w, e), e) for e in identity_matrix(d.y_rank)]
        return (-1) ** d.weyl_elements[w].length, [c // 2 for c in doubled], list(zip(*columns))

    def weyl_dimension(self, mu: Vector) -> int:
        """Dimension of the highest-weight module, as an exact integer."""
        mu = self.datum.check_y(mu)
        if not self.datum.is_dominant(mu):
            raise NotDominant(f"{mu} is not dominant")
        top = vec_add(vec_scale(2, mu), self._two_rho_vee)
        num = math.prod(pair(row, top) for row in self._form_rows)
        den = math.prod(pair(row, self._two_rho_vee) for row in self._form_rows)
        if num % den:
            raise InvariantViolation(f"Weyl dimension {num}/{den} of {mu} is not integral")
        return num // den
