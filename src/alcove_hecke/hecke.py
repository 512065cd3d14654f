"""The extended Hecke algebra, its canonical basis, and the spherical module.

Standard basis elements H_w are indexed by W_ext; multiplication follows
H_x H_y = H_{xy} when lengths add and H_s^2 = H_e + (v^{-1} - v) H_s.  Every
product is a chain of one-pass left products (H_s + c) a, with c = v for the
canonical element C_s and c = v - v^{-1} for H_s^{-1}, and the bar involution
follows its own recursion bar(H_s b) = H_s^{-1} bar(b), bar(H_omega) = H_omega.
The canonical basis is computed by the usual inductive algorithm on the affine
part, with length-zero elements handled by relabeling.  Computations are
interval-local: only the Bruhat lower set of the target element is ever
materialized, and results live in a bounded `Memo` table.  Every step from w
to s w, with its descent bit, is read from the left-step row of w that
`ExtWeyl.left_steps` keeps, so the recursions, which revisit the same
elements many times, pay no group product or length per term.

Coefficients are built in raw accumulators: plain dicts mapping an element
to its coefficient dict {exponent: integer}.  Every update goes through
`_addmul(out, w, coeffs, q)`, which adds q * coeffs to out[w] in place for a
small raw multiplier q (1, v^{+-1}, v +- v^{-1}, an integer, or the running
polynomial of `inverse_m`), and `_freeze` drops zeros and wraps each finished
coefficient in one `LaurentPolynomial`; no polynomial is built per term.  The
accumulators read the `coeffs` dicts of memoized polynomials and of the module
constants directly, so those dicts are never written to: an accumulator entry
is a dict of its own from its first write on (`_addmul` copies, or builds a
fresh product), and only later writes land in place.  A memoized spherical
element also keeps the length of each term of its support, carried through
its recursion, so `inverse_m` looks up no length per term.

The left spherical module is the quotient by the left ideal generated by
H_s - v^{-1} for finite simple s; its standard and canonical bases are
indexed by the minimal representatives W_ext^S.  Its canonical basis is
computed natively, by the same inductive algorithm with C_s = H_s + v acting
on M_y (y in W_ext^S) in three cases:

    sy < y:                  M_sy + v^{-1} M_y
    sy > y, sy in W_ext^S:   M_sy + v M_y
    sy not in W_ext^S:       (v + v^{-1}) M_y   (then sy = y t, t finite simple)

The inverse polynomials m^{x,y} are back-substituted from these elements.
Writing mbar(y, w) for the canonical-basis coefficients, one also has
mbar(y, w) = h(y w0, w w0), the Kazhdan-Lusztig polynomial of the *maximal*
coset representatives; `spherical_m` takes that full-group route and serves
as the independent oracle for the native one.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .alcove import AlcoveModel
from .errors import BoundsTooLarge, InvariantViolation, NotSpherical
from .ext_weyl import AffineGenerator, ExtWeylElement
from .laurent import ONE, ZERO, LaurentPolynomial
from .memo import Memo

# the canonical-basis recursions nest a few Python frames per length step, so
# longer elements are refused up front rather than failing deep in a recursion
MAX_HECKE_LENGTH = 150

Coeffs = dict[int, int]  # a raw coefficient, exponent -> integer; zeros stay until it is frozen

_UNIT: Coeffs = {0: 1}
_V: Coeffs = {1: 1}
_V_INV: Coeffs = {-1: 1}
_V_PLUS_VINV: Coeffs = {1: 1, -1: 1}
_VINV_MINUS_V: Coeffs = {-1: 1, 1: -1}
# (c, v^{-1} - v + c) for the left factor H_s + c, since H_s H_w = H_{sw} +
# (v^{-1} - v) H_w when sw < w: H_s itself, C_s = H_s + v, H_s^{-1} = H_s + v - v^{-1}
_PLAIN = ({}, _VINV_MINUS_V)
_CANONICAL = (_V, _V_INV)
_INVERSE = ({1: 1, -1: -1}, {})


def _addmul(out: dict, w: ExtWeylElement, coeffs: Coeffs, q: Coeffs) -> None:
    """out[w] += q * coeffs, in place; a new entry is a fresh dict."""
    acc = out.get(w)
    if acc is None:
        if q is _UNIT:
            out[w] = coeffs.copy()
            return
        out[w] = acc = {}
    for j, d in q.items():
        for k, c in coeffs.items():
            k += j
            acc[k] = acc.get(k, 0) + d * c


def _freeze(out: dict) -> dict[ExtWeylElement, LaurentPolynomial]:
    """The finished accumulator, each nonzero coefficient wrapped once."""
    frozen = {}
    for w, c in out.items():
        p = LaurentPolynomial(c)
        if p:
            frozen[w] = p
    return frozen


def _raw(a: "HeckeElement") -> dict[ExtWeylElement, Coeffs]:
    return {w: p.coeffs for w, p in a.support.items()}


def _left_mul(ext, i: int, a: dict, c: Coeffs, down: Coeffs) -> dict:
    """(H_s + c) a for s = ext.generators[i], in one pass over the raw a;
    down = v^{-1} - v + c is the factor at w when sw < w."""
    out: dict[ExtWeylElement, Coeffs] = {}
    for w, p in a.items():
        sw, is_down = ext.left_steps(w)[i]
        _addmul(out, sw, p, _UNIT)
        q = down if is_down else c
        if q:
            _addmul(out, w, p, q)
    return out


def _bar(ext, a: dict) -> dict:
    """The bar involution on a raw element; see `HeckeAlgebra.bar`."""
    leaves: dict[ExtWeylElement, Coeffs] = {}
    groups: dict[int, dict[ExtWeylElement, Coeffs]] = {}
    for w, p in a.items():
        step = _first_step(ext, w)
        if step is None:
            leaves[w] = {-k: c for k, c in p.items()}
        else:
            i, sw = step
            groups.setdefault(i, {})[sw] = p
    parts = [leaves] + [_left_mul(ext, i, _bar(ext, rest), *_INVERSE) for i, rest in groups.items()]
    # every part is a fresh accumulator of this call's own: the largest is
    # taken over and the others are added into it
    out = max(parts, key=len)
    for part in parts:
        if part is not out:
            for w, p in part.items():
                _addmul(out, w, p, _UNIT)
    return out


def _subtract_corrections(out: dict, x: ExtWeylElement, element_of) -> None:
    """Subtract c0 times the canonical element of w from out, for every w != x
    whose coefficient has constant term c0, with element_of(w) its support.

    A subtracted element changes no constant term but the one at w, so one
    pass over the snapshot suffices.
    """
    corrections = [(w, p[0]) for w, p in out.items() if w != x and p.get(0)]
    for w, c0 in corrections:
        minus_c0 = {0: -c0}
        for y, q in element_of(w).items():
            _addmul(out, y, q.coeffs, minus_c0)


def _first_step(ext, x: ExtWeylElement) -> tuple[int, ExtWeylElement] | None:
    """(i, s x) for the first left descent s = ext.generators[i] of x, or None
    at length zero."""
    for i, (sx, down) in enumerate(ext.left_steps(x)):
        if down:
            return i, sx
    return None


def _check_length(lx: int, x: ExtWeylElement) -> None:
    if lx > MAX_HECKE_LENGTH:
        raise BoundsTooLarge(f"{x} has length {lx} > {MAX_HECKE_LENGTH}")


def _check_canonical(x: ExtWeylElement, support: Mapping) -> None:
    """Coefficient 1 at x and every other coefficient in vZ[v]."""
    if support.get(x) != ONE:
        raise InvariantViolation(f"canonical basis not unitriangular at {x}")
    for w, p in support.items():
        if w != x and p.min_exponent() < 1:
            raise InvariantViolation(f"lower coefficient {p} at {w} in the canonical element of {x}")


class _Spherical(NamedTuple):
    """A memoized N_w: the read-only map y -> mbar(y, w), and len y for each y
    in the map's order."""

    support: Mapping[ExtWeylElement, LaurentPolynomial]
    lengths: tuple[int, ...]


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
        out: dict[ExtWeylElement, Coeffs] = {}
        for a in (self, other):
            for w, p in a.support.items():
                _addmul(out, w, p.coeffs, _UNIT)
        return HeckeElement(_freeze(out))

    def scaled(self, p: LaurentPolynomial) -> "HeckeElement":
        return HeckeElement({w: p * q for w, q in self.support.items()})

    def __repr__(self) -> str:
        return f"HeckeElement({self.support!r})"


class HeckeAlgebra:
    def __init__(self, alc: AlcoveModel):
        self.alc = alc
        self.ext = alc.ext
        self._kl = Memo(self._kl_element)
        self._spherical = Memo(self._spherical_element)

    # -- standard basis arithmetic ---------------------------------------

    def standard(self, w: ExtWeylElement) -> HeckeElement:
        return HeckeElement({w: ONE})

    def right_mul_gen(self, a: HeckeElement, g: AffineGenerator) -> HeckeElement:
        """a * H_s for the generator s = g."""
        ext = self.ext
        ge = ext.gen_element(g)
        out: dict[ExtWeylElement, Coeffs] = {}
        for w, p in a.support.items():
            ws = ext.mul(w, ge)
            _addmul(out, ws, p.coeffs, _UNIT)
            if ext.length(ws) < ext.length(w):
                _addmul(out, w, p.coeffs, _VINV_MINUS_V)
        return HeckeElement(_freeze(out))

    def mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        """a * b, each term p H_x of a acting as p H_{s_1} ... H_{s_r} H_omega."""
        ext = self.ext
        out: dict[ExtWeylElement, Coeffs] = {}
        for x, p in a.support.items():
            word, omega = ext.reduced_expression(x)
            acc: dict[ExtWeylElement, Coeffs] = {}
            for w, q in b.support.items():
                _addmul(acc, ext.mul(omega, w), q.coeffs, p.coeffs)
            for g in reversed(word):
                acc = _left_mul(ext, ext.generators.index(g), acc, *_PLAIN)
            for w, q in acc.items():
                _addmul(out, w, q, _UNIT)
        return HeckeElement(_freeze(out))

    def standard_inverse(self, x: ExtWeylElement) -> HeckeElement:
        """H_x^{-1}, which is bar(H_{x^{-1}})."""
        return self.bar(self.standard(self.ext.inv(x)))

    def bar(self, a: HeckeElement) -> HeckeElement:
        """The bar involution: v -> v^{-1}, H_w -> (H_{w^{-1}})^{-1}.

        A ring map with bar(H_s) = H_s^{-1} = H_s + v - v^{-1} and
        bar(H_omega) = H_omega.  Each term of positive length is split as
        H_w = H_s H_{sw} at its first left descent s; the terms sharing s are
        barred together as H_s^{-1} times the bar of their rest.
        """
        return HeckeElement(_freeze(_bar(self.ext, _raw(a))))

    # -- canonical basis ---------------------------------------------------

    def kl_basis(self, x: ExtWeylElement) -> HeckeElement:
        """The canonical basis element attached to x, in the standard basis.

        Raises `BoundsTooLarge` when x is longer than `MAX_HECKE_LENGTH`.
        """
        return self._kl[x]

    def _kl_element(self, x: ExtWeylElement) -> HeckeElement:
        ext = self.ext
        lx = ext.length(x)
        _check_length(lx, x)
        if lx == 0:
            result = self.standard(x)
        elif not ext.in_affine_subgroup(x):
            omega, aff = self._split_omega(x)
            base = self.kl_basis(aff)
            result = HeckeElement({ext.mul(omega, w): p for w, p in base.support.items()})
        else:
            i, rest = _first_step(ext, x)
            out = _left_mul(ext, i, _raw(self.kl_basis(rest)), *_CANONICAL)
            _subtract_corrections(out, x, lambda w: self.kl_basis(w).support)
            result = HeckeElement(_freeze(out))
        _check_canonical(x, result.support)
        return result

    def _split_omega(self, x: ExtWeylElement) -> tuple[ExtWeylElement, ExtWeylElement]:
        """x = omega * aff with omega of length zero and aff in W_aff.

        Left multiplication by omega relabels a canonical element's support.
        """
        ext = self.ext
        _, omega = ext.reduced_expression(x)
        aff = ext.mul(ext.inv(omega), x)  # in W_aff: the subgroup is normal
        if not ext.in_affine_subgroup(aff):
            raise InvariantViolation(f"{x} has no length-zero left factor leaving W_aff")
        return omega, aff

    def kl_poly(self, y: ExtWeylElement, x: ExtWeylElement) -> LaurentPolynomial:
        return self.kl_basis(x).coeff(y)

    # -- spherical module ---------------------------------------------------

    def _require_spherical(self, x: ExtWeylElement) -> None:
        if not self.alc.in_wexts(x):
            raise NotSpherical(f"{x} is not a minimal coset representative")

    def _check_degree(self, p: LaurentPolynomial, bound: int) -> None:
        if p and not (-bound <= p.min_exponent() and p.max_exponent() <= bound):
            raise InvariantViolation(f"{p} exceeds the degree bound {bound}")

    def spherical_basis(self, w: ExtWeylElement) -> Mapping[ExtWeylElement, LaurentPolynomial]:
        """The canonical element N_w = sum_y mbar(y, w) M_y, as a read-only map
        y -> mbar(y, w); w is at most `MAX_HECKE_LENGTH` long."""
        self._require_spherical(w)
        return self._spherical[w].support

    def _spherical_element(self, w: ExtWeylElement) -> _Spherical:
        ext = self.ext
        lw = ext.length(w)
        _check_length(lw, w)
        if lw == 0:
            return _Spherical(MappingProxyType({w: ONE}), (0,))
        if not ext.in_affine_subgroup(w):
            omega, aff = self._split_omega(w)  # aff is minimal in its coset too
            base = self._spherical[aff]
            support = {ext.mul(omega, y): p for y, p in base.support.items()}
            _check_canonical(w, support)
            return _Spherical(MappingProxyType(support), base.lengths)
        i, rest = _first_step(ext, w)
        base = self._spherical[rest]
        out: dict[ExtWeylElement, Coeffs] = {}
        lengths = {}  # len y and len s y for every y in N_rest
        # (H_s + v) M_y on the three kinds of y in W_ext^S
        for (y, p), ly in zip(base.support.items(), base.lengths):
            p = p.coeffs
            sy, down = ext.left_steps(y)[i]
            lengths[y] = ly
            if down:
                lengths[sy] = ly - 1
                _addmul(out, sy, p, _UNIT)
                _addmul(out, y, p, _V_INV)
            elif self.alc.in_wexts(sy):
                lengths[sy] = ly + 1
                _addmul(out, sy, p, _UNIT)
                _addmul(out, y, p, _V)
            else:  # sy = y t with t finite simple, and H_t acts by v^{-1}
                _addmul(out, y, p, _V_PLUS_VINV)
        _subtract_corrections(out, w, lambda u: self._spherical[u].support)
        support = _freeze(out)
        _check_canonical(w, support)
        # only a term first reached by a correction has its length looked up
        return _Spherical(
            MappingProxyType(support),
            tuple(lengths[z] if z in lengths else ext.length(z) for z in support),
        )

    def spherical_m(self, y: ExtWeylElement, w: ExtWeylElement) -> LaurentPolynomial:
        """Canonical-basis coefficient mbar(y, w) of the left spherical module.

        The full-group route, kept as the oracle for `spherical_basis`:
        computed as h(y w0, w w0) and checked against the representative y
        itself: the identity h(y u, w w0) = v^{len(w0) - len(u)} * mbar(y, w)
        for u in W pins the whole coset, so data computed through a second
        representative must agree after the corresponding power shift.
        """
        self._require_spherical(y)
        self._require_spherical(w)
        ext = self.ext
        table = self.kl_basis(ext.mul(w, ext.w0))
        m = table.coeff(ext.mul(y, ext.w0))
        lw0 = ext.length(ext.w0)
        if table.coeff(y) != LaurentPolynomial.monomial(lw0) * m:
            raise InvariantViolation(f"coset check fails for mbar({y}, {w})")
        self._check_degree(m, ext.length(w) + lw0)
        return m

    def spherical_lower_set(self, x: ExtWeylElement) -> list[ExtWeylElement]:
        """Minimal representatives below x, sorted by decreasing length."""
        lower = [z for z in self.ext.bruhat_lower_set(x) if self.alc.in_wexts(z)]
        lower.sort(key=lambda z: (-self.ext.length(z), z))
        return lower

    def inverse_m(self, x: ExtWeylElement, y: ExtWeylElement) -> LaurentPolynomial:
        """Entry m^{x,y} of the inverse of the spherical canonical matrix.

        Defined by M_x = sum_y (-1)^{len(y)+len(x)} m^{x,y} N_y and computed
        by unitriangular back-substitution over the transitive support
        closure of N_x, by decreasing length: m^{x,z} is zero off it.  Each
        m^{x,u}, once complete, is pushed onto the support of N_u; the
        closure is walked no lower than y.  Closure members lie in W_ext^S
        by construction, so their elements are read from the table directly.
        """
        self._require_spherical(x)
        self._require_spherical(y)
        ext = self.ext
        ly = ext.length(y)
        values: dict[ExtWeylElement, Coeffs] = {x: {0: 1}}
        heap = [(-ext.length(x), x)]  # every longer member of the closure pops first
        result: Coeffs = {}
        while heap:
            neg_lu, u = heapq.heappop(heap)
            m = values.pop(u)
            if u == y:
                result = m
                break
            if not any(m.values()):
                continue
            minus_m = {k: -c for k, c in m.items()}
            entry = self._spherical[u]
            for (z, p), lz in zip(entry.support.items(), entry.lengths):
                if z == u or (lz <= ly and z != y):
                    continue
                if z not in values:
                    heapq.heappush(heap, (-lz, z))
                _addmul(values, z, p.coeffs, m if (lz - neg_lu) % 2 else minus_m)
        result = LaurentPolynomial(result)
        self._check_degree(result, ext.length(x) + ext.length(ext.w0))
        return result
