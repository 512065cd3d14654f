"""Finitary generator subsets and their coset-representative sets.

For a finitary A inside the affine generator set, this module enumerates the
finite parabolic subgroup W_A, finds its longest element, and implements the
three representative tests (minimal-spherical, restricted, and the periodic
representative set) together with the coset representative map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alcove import AlcoveModel
from .errors import InvariantViolation, NotFinitary, Unrepresentable
from .ext_weyl import AffineGenerator, ExtWeyl, ExtWeylElement
from .root_datum import _principal_minors_positive, pair


@dataclass(frozen=True)
class FinitarySubset:
    generators: tuple[AffineGenerator, ...]
    elements: tuple[ExtWeylElement, ...]  # all of W_A, sorted by length
    longest: ExtWeylElement

    @property
    def order(self) -> int:
        return len(self.elements)


def is_finitary(ext: ExtWeyl, gens) -> bool:
    """Exact finite-type test (no size cap) on the Cartan matrix
    <beta_g, beta_h^vee> of the affine simple roots of `gens`."""
    roots = [ext.affine_roots[g] for g in gens]
    return _principal_minors_positive([[pair(b, cv) for _, cv, _ in roots] for b, _, _ in roots])


def make_parabolic(ext: ExtWeyl, gens) -> FinitarySubset:
    gens = tuple(sorted(set(gens)))
    names = [g.name for g in gens]
    if not is_finitary(ext, gens):
        raise NotFinitary(f"generators {names} span an infinite group")
    bound = ext.datum.weyl_order  # a finite subgroup of W_aff fixes a point, so embeds in W
    elements = {ext.identity}
    frontier = [ext.identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = ext.mul(ext.gen_element(g), cur)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
                if len(elements) > bound:
                    raise InvariantViolation(f"generators {names} make more than |W| = {bound} elements")
    ordered = sorted(elements, key=lambda e: (ext.length(e), e))
    longest = ordered[-1]
    lengths = [ext.length(e) for e in ordered]
    if lengths.count(lengths[-1]) != 1:
        raise InvariantViolation(f"generators {names} have no unique longest element")
    return FinitarySubset(generators=gens, elements=tuple(ordered), longest=longest)


def in_awext_s(alc: AlcoveModel, x: ExtWeylElement, a: FinitarySubset) -> bool:
    """Membership in the Whittaker-spherical representative set.

    Characterized by lengths adding in w_A * x * w0, decided once per
    (w_A, x) in the `ExtWeyl.lengths_add_w0` table.
    """
    return alc.ext.lengths_add_w0[(a.longest, x)]


def in_awext_res(alc: AlcoveModel, x: ExtWeylElement, a: FinitarySubset) -> bool:
    return alc.in_wres(x) and in_awext_s(alc, x, a)


def in_awext(alc: AlcoveModel, x: ExtWeylElement, a: FinitarySubset) -> bool:
    """Membership in the periodic representative set for W_A cosets.

    The restricted factor y of x is restricted by construction, so only the
    spherical test is left to decide on it.
    """
    y, _ = alc.res_decompose(x)
    return in_awext_s(alc, y, a)


def min_rep(alc: AlcoveModel, x: ExtWeylElement, a: FinitarySubset) -> ExtWeylElement:
    """The unique representative of W_A x in the periodic representative set.

    Brute force over the finite coset; the representative is the minimum of
    the coset for the periodic order.
    """
    ext = alc.ext
    hits = [c for v in a.elements if in_awext(alc, (c := ext.mul(v, x)), a)]
    if len(hits) != 1:
        raise Unrepresentable(f"coset of {x} has {len(hits)} periodic representatives")
    return hits[0]
