"""Multiplicity-level model of the graded module category over the regular
object: simple-class vectors, filtration multisets for the standard and
costandard one-parameter families, wall-crossing and averaging transforms,
the constructive projective-injective filtrations, the dim-Hom pairing,
duality, and forgetting the grading.

Objects are represented by filtration multisets rather than composition
series: the filtration multiplicities are determined combinatorially, while
composition multiplicities in positive characteristic are not.  For the same
reason filtration multisets are never expanded into simple-class vectors;
what downstream checks rely on is the order constraint that each filtration
label is the strict periodic minimum of its member's support, which keeps
distinct labels independent.  The Krull-Schmidt decomposition of the
constructed projective objects is likewise field-dependent and deliberately
not computed; callers get the full multiset together with the order
constraints that hold for its support.

All transforms are pure over immutable inputs, but they fill unlocked `Memo`
tables and `ExtWeyl`'s numbering, so `memo.py`'s rule holds: one execution
context per engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .alcove import AlcoveModel
from .errors import FlavorMismatch, InvariantViolation, MalformedInput, NotRestricted, NotSpherical
from .ext_weyl import AffineGenerator, ExtWeylElement
from .orders import PeriodicOrder
from .parabolic import FinitarySubset, in_awext, min_rep
from .root_datum import Vector, vec_neg, vec_sub
from .satake_char import SatakeChar

COVERMA = "coVerma"
VERMA = "Verma"


class SimpleLabel(NamedTuple):
    """A simple-object label in canonical split form: section rep * t_shift."""

    rep: ExtWeylElement
    shift: Vector


@dataclass(frozen=True)
class ClassVector:
    coords: dict[SimpleLabel, int]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", {k: v for k, v in self.coords.items() if v != 0}
        )

    def mult(self, label: SimpleLabel) -> int:
        return self.coords.get(label, 0)

    def total(self) -> int:
        return sum(self.coords.values())

    def items(self):
        return sorted(self.coords.items())


@dataclass(frozen=True)
class FiltrationMultiset:
    mults: dict[ExtWeylElement, int]
    flavor: str = COVERMA

    def __post_init__(self):
        if self.flavor not in (COVERMA, VERMA):
            raise FlavorMismatch(f"unknown filtration flavor {self.flavor!r}")
        clean = {}
        for w, m in self.mults.items():
            if m < 0:
                raise MalformedInput(f"negative multiplicity at {w}")
            if m:
                clean[w] = m
        object.__setattr__(self, "mults", clean)

    def mult(self, w: ExtWeylElement) -> int:
        return self.mults.get(w, 0)

    def total(self) -> int:
        return sum(self.mults.values())

    def support(self) -> list[ExtWeylElement]:
        return sorted(self.mults)

    def items(self):
        return sorted(self.mults.items())


class GrothCalc:
    def __init__(self, alc: AlcoveModel, order: PeriodicOrder):
        self.alc = alc
        self.ext = alc.ext
        self.datum = alc.datum
        self.order = order
        self.satake = SatakeChar(alc.datum)

    # -- labels ------------------------------------------------------------

    def simple_label(self, x: ExtWeylElement) -> SimpleLabel:
        """Canonical split x = rep * t_shift through the fixed section.

        rep is `restricted_reps[w]` for x's Weyl index w: the restricted
        element w t_tau with tau in the section's image, so x = w t_{x.t}
        splits with shift x.t - tau.  The restricted factor y of x shares w,
        and its translation differs from tau only in the root-orthogonal
        sublattice; on semisimple data rep = y.

        >>> from alcove_hecke.engine import build_engine
        >>> eng = build_engine("A1_adj")
        >>> eng.groth.simple_label(eng.ext.parse_element("s1 : 2"))
        SimpleLabel(rep=ExtWeylElement(w=1, t=(-1,)), shift=(3,))
        """
        rep = self.alc.restricted_reps[x.w]
        return SimpleLabel(rep, vec_sub(x.t, rep.t))

    def label_element(self, label: SimpleLabel) -> ExtWeylElement:
        return self.ext.mul(label.rep, ExtWeylElement(0, label.shift))

    def forget_grading(self, x: ExtWeylElement) -> ExtWeylElement:
        """The equivalence class of x: its canonical section representative.

        Forgetting the grading divides out the translations, so x and x t_nu
        share the class `simple_label(x).rep` for every nu in Y.
        """
        return self.simple_label(x).rep

    # -- class vectors -------------------------------------------------------

    def phi_of_simple(self, w: ExtWeylElement) -> ClassVector:
        """Class of the free module on the simple object labeled by w.

        Valid at the level of characteristic-zero character data; the labels
        and the translation pattern are characteristic-free.
        """
        if not self.alc.in_wexts(w):
            raise NotSpherical(f"{self.ext.format_element(w)} is not a minimal coset representative")
        x, lam = self.alc.res_decompose(w)
        mu = self.datum.act_y(self.datum.w0, lam)
        if not self.datum.is_dominant(mu):
            raise InvariantViolation(f"w0 lambda = {mu} is not dominant for {w} = {x} t_{lam}")
        weights = self.satake.weight_multiplicities(mu)
        out: dict[SimpleLabel, int] = {}
        for xi, m in weights.items():
            nu = self.datum.act_y(self.datum.w0, xi)
            label = self.simple_label(self.ext.mul(x, ExtWeylElement(0, nu)))
            out[label] = out.get(label, 0) + m
        return ClassVector(out)

    # -- filtration multisets ---------------------------------------------------

    def grading_shift(self, obj, nu: Vector):
        """The shift-of-grading transform: relabels w -> w t_{-nu}."""
        tneg = ExtWeylElement(0, vec_neg(self.datum.check_y(nu)))
        if isinstance(obj, ClassVector):
            out: dict[SimpleLabel, int] = {}
            for label, m in obj.coords.items():
                shifted = self.simple_label(self.ext.mul(self.label_element(label), tneg))
                out[shifted] = out.get(shifted, 0) + m
            return ClassVector(out)
        return FiltrationMultiset(
            {self.ext.mul(w, tneg): m for w, m in obj.mults.items()}, obj.flavor
        )

    def seed_filtration(self) -> FiltrationMultiset:
        """Costandard filtration of the free module on the fundamental-box
        tilting seed: one label w t_{w0(varsigma)} for each finite Weyl w."""
        shift = ExtWeylElement(0, self.datum.act_y(self.datum.w0, self.datum.varsigma))
        mults = {}
        for el in self.datum.weyl_elements:
            w = ExtWeylElement(el.index, self.ext.identity.t)
            mults[self.ext.mul(w, shift)] = 1
        return FiltrationMultiset(mults, COVERMA)

    def _require_coverma(self, f: FiltrationMultiset) -> None:
        if f.flavor != COVERMA:
            raise FlavorMismatch(f"expected {COVERMA} flavor, got {f.flavor}")

    def xi_s(self, f: FiltrationMultiset, g: AffineGenerator) -> FiltrationMultiset:
        """Wall-crossing along one affine generator: F |-> F + s.F."""
        self._require_coverma(f)
        ge = self.ext.gen_element(g)
        out = dict(f.mults)
        for w, m in f.mults.items():
            sw = self.ext.mul(ge, w)
            out[sw] = out.get(sw, 0) + m
        return FiltrationMultiset(out, COVERMA)

    def xi_omega(self, f: FiltrationMultiset, omega: ExtWeylElement) -> FiltrationMultiset:
        """Wall-crossing along a length-zero element: relabel w -> omega w."""
        self._require_coverma(f)
        if self.ext.length(omega) != 0:
            raise InvariantViolation(f"{omega} does not have length zero")
        return FiltrationMultiset(
            {self.ext.mul(omega, w): m for w, m in f.mults.items()}, COVERMA
        )

    def projective_filtration(
        self, x: ExtWeylElement, strategy: str = "min"
    ) -> FiltrationMultiset:
        """Costandard filtration of the constructive projective-injective
        object attached to a restricted x.

        The wall-crossing word is read off the `strategy` reduced expression
        of t_varsigma w0 x^{-1}, and the multiset belongs to that word, since
        products of (1 + s) obey no braid relation: on B3 the min and max
        words differ for 34 of the 48 restricted x, and their multisets for 20.
        Comparing these two words bounds the word dependence only from below:
        on C3 they agree on all 48 x, yet over all reduced words 16 x have
        more than one multiset (on B3, 20 x, as many as the two words show).
        The result has x and its triangle image each with multiplicity one
        and support sandwiched between them in the periodic order.
        """
        if not self.alc.in_wres(x):
            raise NotRestricted(f"{self.ext.format_element(x)} is not restricted")
        ext = self.ext
        y = ext.mul_many(ExtWeylElement(0, self.datum.varsigma), ext.w0, ext.inv(x))
        # y = s_1 ... s_r omega, and omega^{-1} (1 + s) = (1 + omega^{-1} s omega) omega^{-1}:
        # crossing the walls of the word first and relabelling by omega^{-1}
        # last gives the product of the conjugated word
        word, omega = ext.reduced_expression(y, strategy)
        f = self.seed_filtration()
        for g in word:
            f = self.xi_s(f, g)
        f = self.xi_omega(f, ext.inv(omega))
        tri = self.alc.triangle(x)
        if f.mult(x) != 1:
            raise InvariantViolation(f"bottom multiplicity {f.mult(x)} at {x}")
        if f.mult(tri) != 1:
            raise InvariantViolation(f"top multiplicity {f.mult(tri)} at {tri}")
        for z in f.support():
            if not (self.order.leq(x, z) and self.order.leq(z, tri)):
                raise InvariantViolation(f"{z} is not between {x} and {tri} in the periodic order")
        return f

    # -- averaging ---------------------------------------------------------------

    def av_psi(self, f: FiltrationMultiset, a: FinitarySubset) -> FiltrationMultiset:
        """Collapse labels onto their periodic coset representatives."""
        out: dict[ExtWeylElement, int] = {}
        for w, m in f.mults.items():
            rep = min_rep(self.alc, w, a)
            out[rep] = out.get(rep, 0) + m
        return FiltrationMultiset(out, f.flavor)

    def av_star(self, f: FiltrationMultiset, a: FinitarySubset) -> FiltrationMultiset:
        """Spread labels over their W_A-cosets."""
        out: dict[ExtWeylElement, int] = {}
        for w, m in f.mults.items():
            if not in_awext(self.alc, w, a):
                raise NotSpherical(
                    f"label {self.ext.format_element(w)} is not a periodic coset representative")
            for v in a.elements:
                vw = self.ext.mul(v, w)
                out[vw] = out.get(vw, 0) + m
        return FiltrationMultiset(out, f.flavor)

    # -- pairings and duality ---------------------------------------------------

    def dim_hom(self, f: FiltrationMultiset, g: FiltrationMultiset) -> int:
        """dim Hom between an object with a standard-family filtration (f)
        and one with a costandard-family filtration (g)."""
        if f.flavor != VERMA or g.flavor != COVERMA:
            raise FlavorMismatch(f"need ({VERMA}, {COVERMA}); got ({f.flavor}, {g.flavor})")
        return sum(m * g.mult(w) for w, m in f.mults.items())

    def duality(self, obj):
        """The duality involution: trivial on classes, flavor swap on filtrations."""
        if isinstance(obj, ClassVector):
            return obj
        return FiltrationMultiset(dict(obj.mults), VERMA if obj.flavor == COVERMA else COVERMA)

