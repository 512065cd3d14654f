"""The extended Hecke algebra, its canonical basis, and the spherical module.

Standard basis elements H_w are indexed by W_ext; multiplication follows
H_x H_y = H_{xy} when lengths add and H_s^2 = H_e + (v^{-1} - v) H_s.  The
canonical basis is computed by the usual inductive algorithm on the affine
part, with length-zero elements handled by relabeling.  Computations are
interval-local: only the Bruhat lower set of the target element is ever
materialized, and results live in a bounded `Memo` table.

The left spherical module is the quotient by the left ideal generated by
H_s - v^{-1} for finite simple s; its standard and canonical bases are
indexed by the minimal representatives W_ext^S.  Writing mbar(y, w) for the
canonical-basis coefficients there, one has mbar(y, w) = h(y w0, w w0): the
Kazhdan-Lusztig polynomial of the *maximal* coset representatives.
"""

from __future__ import annotations

from .alcove import AlcoveModel
from .errors import NotSpherical
from .ext_weyl import AffineGenerator, ExtWeylElement
from .laurent import ONE, V, V_INV, ZERO, LaurentPolynomial
from .memo import Memo

_V_MINUS_VINV = V - V_INV
_VINV_MINUS_V = V_INV - V


class HeckeElement:
    """Finitely supported map W_ext -> Z[v, v^{-1}] in the standard basis."""

    __slots__ = ("support",)

    def __init__(self, support: dict[ExtWeylElement, LaurentPolynomial] | None = None):
        self.support = {w: p for w, p in (support or {}).items() if p}

    def coeff(self, w: ExtWeylElement) -> LaurentPolynomial:
        return self.support.get(w, ZERO)

    def items(self):
        return self.support.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElement) and self.support == other.support

    def __bool__(self) -> bool:
        return bool(self.support)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.support)
        for w, p in other.support.items():
            out[w] = out.get(w, ZERO) + p
        return HeckeElement(out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.support)
        for w, p in other.support.items():
            out[w] = out.get(w, ZERO) - p
        return HeckeElement(out)

    def scaled(self, p: LaurentPolynomial) -> "HeckeElement":
        return HeckeElement({w: p * q for w, q in self.support.items()})

    def __repr__(self) -> str:
        return f"HeckeElement({self.support!r})"


class HeckeAlgebra:
    def __init__(self, alc: AlcoveModel):
        self.alc = alc
        self.ext = alc.ext
        self._kl = Memo(self._kl_element)

    # -- standard basis arithmetic ---------------------------------------

    def unit(self) -> HeckeElement:
        return HeckeElement({self.ext.identity: ONE})

    def standard(self, w: ExtWeylElement) -> HeckeElement:
        return HeckeElement({w: ONE})

    def right_mul_gen(self, a: HeckeElement, g: AffineGenerator) -> HeckeElement:
        ext = self.ext
        ge = ext.gen_element(g)
        out: dict[ExtWeylElement, LaurentPolynomial] = {}

        def bump(w, p):
            acc = out.get(w)
            out[w] = p if acc is None else acc + p

        for w, p in a.support.items():
            ws = ext.mul(w, ge)
            bump(ws, p)
            if ext.length(ws) < ext.length(w):
                bump(w, _VINV_MINUS_V * p)
        return HeckeElement(out)

    def left_mul_gen(self, g: AffineGenerator, a: HeckeElement) -> HeckeElement:
        ext = self.ext
        ge = ext.gen_element(g)
        out: dict[ExtWeylElement, LaurentPolynomial] = {}

        def bump(w, p):
            acc = out.get(w)
            out[w] = p if acc is None else acc + p

        for w, p in a.support.items():
            sw = ext.mul(ge, w)
            bump(sw, p)
            if ext.length(sw) < ext.length(w):
                bump(w, _VINV_MINUS_V * p)
        return HeckeElement(out)

    def right_mul_element(self, a: HeckeElement, x: ExtWeylElement) -> HeckeElement:
        """a * H_x, via a reduced expression of x."""
        word, omega = self.ext.reduced_expression(x)
        for g in word:
            a = self.right_mul_gen(a, g)
        if omega != self.ext.identity:
            a = HeckeElement({self.ext.mul(w, omega): p for w, p in a.support.items()})
        return a

    def mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        out = HeckeElement()
        for y, p in b.support.items():
            out = out + self.right_mul_element(a.scaled(p), y)
        return out

    def standard_inverse(self, x: ExtWeylElement) -> HeckeElement:
        """H_x^{-1} = H_omega^{-1} H_{s_r}^{-1} ... H_{s_1}^{-1}."""
        ext = self.ext
        word, omega = ext.reduced_expression(x)
        acc = HeckeElement({ext.inv(omega): ONE})
        for g in reversed(word):
            # a * H_s^{-1} = a * H_s + (v - v^{-1}) a
            acc = self.right_mul_gen(acc, g) + acc.scaled(_V_MINUS_VINV)
        return acc

    def bar(self, a: HeckeElement) -> HeckeElement:
        """The bar involution: v -> v^{-1}, H_w -> (H_{w^{-1}})^{-1}."""
        out = HeckeElement()
        for w, p in a.support.items():
            out = out + self.standard_inverse(self.ext.inv(w)).scaled(p.bar())
        return out

    # -- canonical basis ---------------------------------------------------

    def kl_basis(self, x: ExtWeylElement) -> HeckeElement:
        """The canonical basis element attached to x, in the standard basis."""
        return self._kl[x]

    def _kl_element(self, x: ExtWeylElement) -> HeckeElement:
        ext = self.ext
        if ext.length(x) == 0:
            result = self.standard(x)
        elif not ext.in_affine_subgroup(x):
            # peel the length-zero left factor; it relabels the support
            _, omega = ext.reduced_expression(x)
            aff = ext.mul(ext.inv(omega), x)  # in W_aff: the subgroup is normal
            assert ext.in_affine_subgroup(aff)
            base = self.kl_basis(aff)
            result = HeckeElement({ext.mul(omega, w): p for w, p in base.support.items()})
        else:
            g = ext.left_descents(x)[0]
            rest = ext.mul(ext.gen_element(g), x)
            base = self.kl_basis(rest)
            cand = self.left_mul_gen(g, base) + base.scaled(V)
            # subtract mu-coefficient corrections: constant terms never move
            # once created, so one pass over the snapshot suffices
            corrections = [
                (w, p.coeff(0))
                for w, p in cand.support.items()
                if w != x and p.coeff(0) != 0
            ]
            corrections.sort(key=lambda t: -ext.length(t[0]))
            for w, c0 in corrections:
                cand = cand - self.kl_basis(w).scaled(LaurentPolynomial({0: c0}))
            result = cand
        assert result.coeff(x) == ONE, f"canonical basis not unitriangular at {x}"
        for w, p in result.items():
            assert w == x or p.min_exponent() >= 1, f"lower coefficient {p} at {w}"
        return result

    def kl_poly(self, y: ExtWeylElement, x: ExtWeylElement) -> LaurentPolynomial:
        return self.kl_basis(x).coeff(y)

    # -- spherical module ---------------------------------------------------

    def _require_spherical(self, x: ExtWeylElement) -> None:
        if not self.alc.in_wexts(x):
            raise NotSpherical(f"{x} is not a minimal coset representative")

    def _check_degree(self, p: LaurentPolynomial, bound: int) -> None:
        if p:
            assert -bound <= p.min_exponent() and p.max_exponent() <= bound

    def spherical_m(
        self, y: ExtWeylElement, w: ExtWeylElement, verify: bool = True
    ) -> LaurentPolynomial:
        """Canonical-basis coefficient mbar(y, w) of the left spherical module.

        Computed as h(y w0, w w0).  When `verify` is set, the value is checked
        against the representative y itself: the identity
        h(y u, w w0) = v^{len(w0) - len(u)} * mbar(y, w) for u in W pins the
        whole coset, so data computed through a second representative must
        agree after the corresponding power shift.
        """
        self._require_spherical(y)
        self._require_spherical(w)
        ext = self.ext
        table = self.kl_basis(ext.mul(w, ext.w0))
        m = table.coeff(ext.mul(y, ext.w0))
        if verify:
            lw0 = ext.length(ext.w0)
            assert table.coeff(y) == LaurentPolynomial.monomial(lw0) * m
        self._check_degree(m, ext.length(w) + ext.length(ext.w0))
        return m

    def spherical_lower_set(self, x: ExtWeylElement) -> list[ExtWeylElement]:
        """Minimal representatives below x, sorted by decreasing length."""
        lower = [z for z in self.ext.bruhat_lower_set(x) if self.alc.in_wexts(z)]
        lower.sort(key=lambda z: (-self.ext.length(z), z))
        return lower

    def inverse_m(self, x: ExtWeylElement, y: ExtWeylElement) -> LaurentPolynomial:
        """Entry m^{x,y} of the inverse of the spherical canonical matrix.

        Defined by M_x = sum_y (-1)^{len(y)+len(x)} m^{x,y} Mbar_y and computed
        by unitriangular back-substitution over the Bruhat lower set of x
        inside W_ext^S.
        """
        self._require_spherical(x)
        self._require_spherical(y)
        ext = self.ext
        lower = self.spherical_lower_set(x)
        mtables = {
            u: self.kl_basis(ext.mul(u, ext.w0)) for u in lower
        }

        def mbar(z: ExtWeylElement, u: ExtWeylElement) -> LaurentPolynomial:
            return mtables[u].coeff(ext.mul(z, ext.w0))

        values: dict[ExtWeylElement, LaurentPolynomial] = {}
        for z in lower:
            lz = ext.length(z)
            if z == x:
                values[z] = ONE
                continue
            acc = ZERO
            for u in lower:
                lu = ext.length(u)
                if lu <= lz:
                    continue
                coeff = mbar(z, u)
                if coeff:
                    term = values[u] * coeff
                    acc = acc + (term if (lz + lu) % 2 else -term)
            values[z] = acc
        result = values.get(y, ZERO)
        self._check_degree(result, ext.length(x) + ext.length(ext.w0))
        return result

    def spherical_image(self, a: HeckeElement) -> dict[ExtWeylElement, LaurentPolynomial]:
        """Image of a Hecke element in the spherical quotient, on the M basis."""
        ext = self.ext
        out: dict[ExtWeylElement, LaurentPolynomial] = {}
        for w, p in a.support.items():
            # split w = y u with y the minimal representative of wW
            y = None
            for u in range(self.alc.datum.weyl_order):
                cand = ext.mul(w, ExtWeylElement(u, ext.identity.t))
                if self.alc.in_wexts(cand):
                    y = cand
                    break
            assert y is not None
            drop = ext.length(w) - ext.length(y)
            contrib = LaurentPolynomial.monomial(-drop) * p
            out[y] = out.get(y, ZERO) + contrib
        return {y: p for y, p in out.items() if p}
