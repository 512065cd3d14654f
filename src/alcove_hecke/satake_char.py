"""Weight multiplicities of highest-weight modules for the dual group.

The dual group has weight lattice Y and roots the coroots of the datum.  The
multiplicities are those of the characteristic-zero simple module (equal to
the Weyl/induced-module character), computed by the Freudenthal recursion in
exact integer arithmetic; a brute-force Kostant-partition evaluation and the
Weyl dimension formula are provided as independent cross-checks.

The recursion runs over the dominant weights below the highest weight only,
in order of depth below it.  Each multiplicity, once known, is written onto
the whole W-orbit of its dominant weight, so the weights nu + k beta that the
recursion reads at nu are looked up directly: their dominant representatives
lie higher and were filled in first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le, mul as scalar_mul

from .errors import BoundsTooLarge, InvariantViolation, NotDominant
from .memo import Memo
from .root_datum import (RootDatum, Vector, identity_matrix, mat_apply, pair, solve_smith,
                         vec_add, vec_scale, vec_sub)

# the recursion enumerates a box of candidate weights below the highest one,
# so a highest weight whose box is larger is refused before it is enumerated
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
        # per Weyl index, the Kostant term in linear form
        self._kostant_rows = Memo(self._kostant_row)
        # coroot data in simple-coroot coordinates
        self._coroot_coords = list(datum.coroot_in_simple)
        # the simple coroots as columns, and the Y-action of every Weyl element
        self._coroot_columns = tuple(
            tuple(cv[r] for cv in datum.simple_coroots) for r in range(datum.y_rank)
        )
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
        """The character of highest weight mu; `BoundsTooLarge` when its box of
        candidate weights holds more than `MAX_CHAR_BOX`."""
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

        # dominant candidates: mu minus box combinations of simple coroots, each
        # decided by one row product, <alpha_i, nu> = <alpha_i, mu> - (C cs)_i
        top = [pair(alpha, mu) for alpha in d.simple_roots]
        dominant: list[tuple[Vector, Vector]] = []  # (weight, gap coords)
        for cs in itertools.product(*(range(c + 1) for c in span)):
            if all(map(le, mat_apply(d.cartan, cs), top)):
                dominant.append((vec_sub(mu, mat_apply(self._coroot_columns, cs)), cs))
        dominant.sort(key=lambda t: (sum(t[1]), t[0]))

        # each multiplicity is written onto the whole W-orbit of its dominant
        # weight; a weight nu + k beta above nu has its dominant representative
        # at a smaller gap depth, so it is already filled in when nu reads it
        full: dict[Vector, int] = {}
        for nu, cs in dominant:
            if nu == mu:
                m = 1
            else:
                numerator = 0
                for beta, bc, row in zip(d.positive_coroots, self._coroot_coords, self._form_rows):
                    k = 1
                    while True:
                        higher = vec_add(nu, vec_scale(k, beta))
                        gap = tuple(a - k * b for a, b in zip(cs, bc))
                        if any(g < 0 for g in gap):
                            break
                        m_h = full.get(higher, 0)
                        if m_h:
                            numerator += 2 * m_h * pair(row, higher)
                        k += 1
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
        if not self.datum.is_dominant(mu):
            raise NotDominant(f"{mu} is not dominant")
        gap = self._gap_coords(mu, nu)
        if gap is None:
            return 0
        total = 0
        for w in range(self.datum.weyl_order):
            sign, shift, rows = self._kostant_rows[w]
            coords = [s + g + sum(map(scalar_mul, row, mu)) for s, g, row in zip(shift, gap, rows)]
            total += sign * self.kostant_partition(coords)
        return total

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
