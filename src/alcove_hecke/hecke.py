"""The extended Hecke algebra, its canonical basis, and the spherical module.

Standard basis elements H_w are indexed by W_ext; multiplication follows
H_x H_y = H_{xy} when lengths add and H_s^2 = H_e + (v^{-1} - v) H_s; the
one product offered is by a generator, a H_s in `right_mul_gen`.  The bar
involution follows its own recursion bar(H_s b) = H_s^{-1} bar(b),
bar(H_omega) = H_omega, and writes into one accumulator: a length-zero term is added with
its exponents negated, and each group of terms sharing a first left descent s
is barred as a whole and multiplied by H_s^{-1} straight into the output, by
H_s^{-1} H_w = H_sw, plus (v - v^{-1}) H_w when sw > w.  Before that
recursion, `bar` tries one left factor: an input a = (H_s + v) b, for s a
left descent of a longest term, is barred as (H_s^{-1} + v^{-1}) bar(b), the
same H_s^{-1} step plus a v^{-1} shift, with b half of a's support.  Every
canonical element of positive length has such a factor (C_x lies in
(H_s + v) H for each left descent s of x).  The factor is found by pairing
each term w with sw < w and comparing a_sw with v a_w coefficient by
coefficient, so the result is exact for any input, bar invariant or not, and
an input with no factor, such as a single H_y, takes the recursion alone.
Computations are interval-local: only the Bruhat lower set of the target
element is ever materialized.

The recursions run on `ExtWeyl`'s numbers, reading each term's length and
left-step row from its lists, so a term costs list reads and int-keyed
lookups, with no group product, length or element hash.  Per number the
Hecke layer keeps only its own: the W_ext^S bit and the tables `_kl`,
`_spherical` and `_inverse`, all `Memo`s.  Elements appear only at the API
edge: `_waff_part` splits an element asked into omega and the number of its
W_aff part, and `_edge` turns an entry into polynomials over elements,
relabeled by omega; each split and relabel made there is remembered.  All of
these are registered with `ExtWeyl.numbered`, so they empty with the
numbers, only as a public query (`kl_basis`, `spherical_basis`, `inverse_m`,
`bar`) starts, the splits counted with the numbers against `MEMO_CAP`.  Each
`Memo` may also empty itself mid-recursion, since a recursion reads only the
values it was handed.

Coefficients are built in raw accumulators: plain dicts mapping an element
number to its coefficient dict {exponent: integer}, written in place by inline
loops (the multipliers 1, v^{+-1} and -c0 of `_canonical`, the fused
update of `_back_substitute`, the shifts of `_bar`) or by `_addmul`.
The tables hold that raw form, zero-free dicts that the accumulators read
directly and, like the module constants, never write to: an accumulator
entry is a dict of its own from its first write on (a copy, a
comprehension, a fresh product, or a dict `_bar`'s own recursion built).
Since every accumulator is dropped once frozen, `_freeze` keeps each
finished dict, rebuilding only one that holds a zero.  Polynomials are made
only at the API edge (`_edge`), and a returned polynomial shares its stored
dict; `inverse_m` builds each answer as a polynomial.

The left spherical module is the quotient by the left ideal generated by
H_s - v^{-1} for finite simple s; its standard basis M_y is indexed by the
minimal representatives W_ext^S.  The regular module is the parabolic module
for the empty set of finite reflections, with M_y = H_y, so one recursion,
`HeckeAlgebra._canonical`, computes the canonical elements of both, each
module with its own table.  A length-zero element is its own canonical
element; otherwise C_s = H_s + v, for the first left descent s of x, acts on
the element of s x, term by term in three cases:

    sy < y:                  M_sy + v^{-1} M_y
    sy > y, sy in module:    M_sy + v M_y
    sy not in module:        (v + v^{-1}) M_y   (then sy = y t, t finite simple)

The third case never occurs in the regular module.  Constant terms below x
are then cleared by subtracting canonical elements read from the same table,
and the result is checked to be unitriangular with lower coefficients in
vZ[v].  Each table entry is the read-only map y -> raw coefficient, in no
particular order; `inverse_m`, which back-substitutes the inverse polynomials
m^{x,y} from the spherical elements, reads the length of each term from
`ExtWeyl.lengths` and skips the terms shorter than y.

The recursion stays in the W_aff-coset of x and ends at that coset's
length-zero element.  Left multiplication by a length-zero omega maps
H_y to H_{omega y} and M_y to M_{omega y}, so it only relabels both modules
(Iwahori-Matsumoto).  The tables therefore hold elements of W_aff only.  For
x = omega aff outside W_aff, with omega = `ExtWeyl.omega_of(x)`, `kl_basis`
and `spherical_basis` return the entry of aff relabeled by omega without
storing the copy, and `inverse_m` answers (x, y) as (aff, omega^{-1} y).
The length bound, on every element asked, reads aff's length, equal to x's,
once x's class has a known omega (`ExtWeyl.known_omega`), and x's own only
for a class met for the first time, before `omega_of` walks x.

Two independent routes check the recursion.  `suite.bar_invariance_solver`
re-derives `kl_basis` from bar invariance alone, by back-substitution against
the expansions `bar` gives of the H_y below x, which covers every step the
modules share.  The suite's `spherical-identities` check also covers the
third case: it expands sum_y mbar(y, w) H_y C_{w0} from `spherical_basis(w)`
and `kl_basis(w0)` and compares it with the full-group C_{w w0} coefficient
by coefficient, so mbar(y, w) must be h(y w0, w w0), the Kazhdan-Lusztig
polynomial of the *maximal* coset representatives.

On A1, the spherical canonical element of the translation w = "e : -2", and
its m-triangle entry m^{tri(w), w} = v^{len w0}:

>>> from alcove_hecke.engine import build_engine
>>> eng = build_engine("A1_adj")
>>> ext, hecke = eng.ext, eng.hecke
>>> w = ext.parse_element("e : -2")
>>> sorted((ext.format_element(y), str(p)) for y, p in hecke.spherical_basis(w).items())
[('e : -2', '1*v^0'), ('e : 0', '1*v^2'), ('s1 : -2', '1*v^1')]
>>> tri = eng.alc.triangle(w)
>>> ext.format_element(tri), str(hecke.inverse_m(tri, w))
('s1 : -4', '1*v^1')
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Mapping

from .alcove import AlcoveModel
from .errors import BoundsTooLarge, InvariantViolation, NotSpherical
from .ext_weyl import AffineGenerator, ExtWeyl, ExtWeylElement
from .laurent import ONE, ZERO, LaurentPolynomial
from .memo import Memo

# the canonical-basis recursion nests a few Python frames per length step, so
# longer elements are refused up front rather than failing deep in it
MAX_HECKE_LENGTH = 150

Coeffs = dict[int, int]  # a raw coefficient, exponent -> integer; zeros stay until it is frozen

_UNIT: Coeffs = {0: 1}
_V_PLUS_VINV: Coeffs = {1: 1, -1: 1}
_VINV_MINUS_V: Coeffs = {-1: 1, 1: -1}
# the exponent shift of M_y in the down case sy < y: M_sy + v^{-1} M_y
_DOWN_SHIFT = -1


def _addmul(out: dict, w: int, coeffs: Coeffs, q: Coeffs) -> None:
    """out[w] += q * coeffs, in place; a new entry is a fresh dict."""
    acc = out.get(w)
    if acc is None:
        out[w] = acc = {}
    for j, d in q.items():
        for k, c in coeffs.items():
            k += j
            acc[k] = acc.get(k, 0) + d * c


def _freeze(out: dict) -> dict:
    """The finished accumulator in the tables' raw form: each entry, a dict of
    its own, is kept as it is, a dict holding a zero is rebuilt without it,
    and a term that cancelled entirely is dropped."""
    frozen = {}
    for w, c in out.items():
        if 0 in c.values():
            c = {k: d for k, d in c.items() if d}
        if c:
            frozen[w] = c
    return frozen


def _check_length(ext, x: ExtWeylElement, lx: int) -> None:
    """Refuses x, of length lx, when it is longer than `MAX_HECKE_LENGTH`."""
    if lx > MAX_HECKE_LENGTH:
        raise BoundsTooLarge(f"{ext.format_element(x)} has length {lx} > {MAX_HECKE_LENGTH}")


def _bar_factored(ext: ExtWeyl, a: dict[int, Coeffs]) -> dict[int, Coeffs]:
    """The bar involution of the raw, numbered a, unfrozen; see
    `HeckeAlgebra.bar`.  The dicts of a are only read."""
    out: dict[int, Coeffs] = {}
    longest = max(a, key=ext.lengths.__getitem__)
    # a longest term w of a = (H_s + v) b has sw < w
    for i, (_, down) in enumerate(ext.rows[longest] or ext.row(longest)):
        if down and (b := _left_factor(ext, a, i)) is not None:
            # bar(H_s + v) = H_s^{-1} + v^{-1}
            barred: dict[int, Coeffs] = {}
            _bar(ext, b, barred)
            for w, p in barred.items():
                out[w] = {k - 1: c for k, c in p.items()}
            _add_inverse_gen(ext, i, barred, out)
            return out
    _bar(ext, a, out)
    return out


def _bar(ext: ExtWeyl, a: dict, out: dict) -> None:
    """Writes the bar involution of the raw, numbered a into out, empty on
    entry; see `HeckeAlgebra.bar`.  The dicts of a are only read, and every
    dict handed over to out is a fresh one of this call's own."""
    groups: dict[int, dict[int, Coeffs]] = {}
    rows, row = ext.rows, ext.row
    for w, p in a.items():
        for i, (sw, down) in enumerate(rows[w] or row(w)):
            if down:
                groups.setdefault(i, {})[sw] = p
                break
        else:  # a length-zero leaf, alone in out at w: v -> v^{-1}
            out[w] = {-k: c for k, c in p.items()}
    for i, rest in groups.items():
        barred: dict[int, Coeffs] = {}
        _bar(ext, rest, barred)
        _add_inverse_gen(ext, i, barred, out)


def _add_inverse_gen(ext: ExtWeyl, i: int, barred: dict, out: dict) -> None:
    """Adds H_s^{-1} barred into out, for s = ext.generators[i]; the dicts of
    barred, fresh ones of the caller's own, are handed over to out."""
    rows, row = ext.rows, ext.row
    # H_s^{-1} H_w = H_sw, plus (v - v^{-1}) H_w when sw > w
    for w, p in barred.items():
        sw, down = (rows[w] or row(w))[i]
        if not down:
            acc = out.get(w)
            if acc is None:
                out[w] = acc = {}
            get = acc.get
            for k, c in p.items():
                acc[k + 1] = get(k + 1, 0) + c
                acc[k - 1] = get(k - 1, 0) - c
        acc = out.get(sw)
        if acc is None:
            out[sw] = p  # no longer read here
        else:
            get = acc.get
            for k, c in p.items():
                acc[k] = get(k, 0) + c


def _left_factor(ext: ExtWeyl, a: dict, i: int) -> dict | None:
    """The raw b with a = (H_s + v) b, for s = ext.generators[i], or None when
    there is none.  The coefficient dicts of a hold no zeros, and b holds the
    same dicts, on the y with sy > y.

    (H_s + v) H_y is H_sy + v H_y for sy > y, so a factors exactly when its
    terms pair off as w and sw < w with a_sw = v a_w, and then b_sw = a_w."""
    rows, row = ext.rows, ext.row
    b = {}
    for w, p in a.items():
        sw, down = (rows[w] or row(w))[i]
        if down:
            q = a.get(sw)
            if q is None or len(q) != len(p) or any(q.get(k + 1) != c for k, c in p.items()):
                return None
            b[sw] = p
    # the partners sw are len(b) distinct terms with an ascent at s; a
    # factors when no other term is left
    return b if 2 * len(b) == len(a) else None


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

    def __repr__(self) -> str:
        return f"HeckeElement({self.support!r})"


def _shared(support: Mapping[ExtWeylElement, LaurentPolynomial]) -> HeckeElement:
    """A HeckeElement over a memoized read-only support, not copied."""
    a = HeckeElement.__new__(HeckeElement)
    a.support = support
    return a


class HeckeAlgebra:
    def __init__(self, alc: AlcoveModel):
        self.alc = alc
        self.ext = alc.ext
        self._lw0 = len(alc.datum.positive_roots)  # the length of w0
        numbered, elements = self.ext.numbered, self.ext.elements
        self._kl = numbered(Memo(lambda x: self._canonical(x, self._kl, False)))
        self._spherical = numbered(Memo(lambda w: self._canonical(w, self._spherical, True)))
        # (x, y) numbered in W_aff -> m^{x,y}
        self._inverse = numbered(Memo(lambda key: self._back_substitute(*key)))
        # number -> its W_ext^S bit
        self._bits = numbered(Memo(lambda n: alc.in_wexts(elements[n])))
        # x -> (omega, omega^{-1}, number of omega^{-1} x), and omega ->
        # (omega^{-1}, {number of a: omega a}), for each x = omega a asked at
        # the edge or made there by a relabel, counted with the numbers
        self._splits = numbered(Memo(None))
        self._relabels = numbered(Memo(None))

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
        adopt = LaurentPolynomial._adopt
        return _shared({w: adopt(c) for w, c in _freeze(out).items()})

    def standard_inverse(self, x: ExtWeylElement) -> HeckeElement:
        """H_x^{-1}, which is bar(H_{x^{-1}})."""
        return self.bar(self.standard(self.ext.inv(x)))

    def bar(self, a: HeckeElement) -> HeckeElement:
        """The bar involution: v -> v^{-1}, H_w -> (H_{w^{-1}})^{-1}.

        A ring map with bar(H_s) = H_s^{-1} = H_s + v - v^{-1} and
        bar(H_omega) = H_omega, so the terms of a in the W_aff-coset of a
        length-zero omega are barred as omega times the bar of their W_aff
        parts.  Each term of positive length is split as H_w = H_s H_{sw} at
        its first left descent s; the terms sharing s are barred together as
        H_s^{-1} times the bar of their rest, which is added into the one
        accumulator of the result.

        First, for each left descent s of one longest term, a coset's part b'
        is tested for a left factor b' = (H_s + v) b: every term w with
        sw < w must have b'_sw = v b'_w, compared coefficient by coefficient,
        and every other term must be such an sw; then b_sw = b'_w.  On the
        first s that passes, b' is barred as (H_s^{-1} + v^{-1}) bar(b), the
        recursion running on b only.  Since the factor is checked exactly,
        the result is the bar involution of a whatever a is; the test reads
        none of the canonical-basis recursion's constants or products, so a
        fault there cannot cancel out inside bar(c) == c.

        A term longer than `MAX_HECKE_LENGTH` raises `BoundsTooLarge`, as in
        `kl_basis` (see `_waff_part`).
        """
        self.ext.start_query(len(self._splits))
        groups: dict[ExtWeylElement | None, dict[int, Coeffs]] = {}
        for w, p in a.support.items():
            omega, _, n = self._waff_part(w)
            groups.setdefault(omega, {})[n] = p.coeffs
        out: dict[ExtWeylElement, LaurentPolynomial] = {}
        for omega, raw in groups.items():
            out.update(self._edge(_freeze(_bar_factored(self.ext, raw)), omega))
        return _shared(out)

    # -- canonical basis ---------------------------------------------------

    def _waff_part(
        self, x: ExtWeylElement
    ) -> tuple[ExtWeylElement | None, ExtWeylElement | None, int]:
        """(omega, omega^{-1}, the number of omega^{-1} x) for the length-zero
        omega of x's W_aff-coset, with omega and omega^{-1} None when x lies
        in W_aff; a split asked before is read back.  x longer than
        `MAX_HECKE_LENGTH`, in W_aff or not, raises `BoundsTooLarge` naming x,
        its length read as in the module docstring."""
        ext = self.ext
        split = self._splits.get(x)
        if split is not None:
            return split
        if ext.in_affine_subgroup(x):
            split = None, None, ext.number(x)
        else:
            if ext.known_omega(x) is None:
                _check_length(ext, x, ext.lengths[ext.number(x)])
            omega = ext.omega_of(x)
            omega_inv, made = self._relabeled(omega)
            aff = ext.mul(omega_inv, x)
            if not ext.in_affine_subgroup(aff):
                raise InvariantViolation(f"{omega} is not the length-zero element of the coset of {x}")
            split = omega, omega_inv, ext.number(aff)
            made[split[2]] = x
        _check_length(ext, x, ext.lengths[split[2]])
        self._splits[x] = split
        return split

    def _relabeled(self, omega: ExtWeylElement) -> tuple[ExtWeylElement, dict[int, ExtWeylElement]]:
        """(omega^{-1}, {number of a: omega a}) for the length-zero omega."""
        entry = self._relabels.get(omega)
        if entry is None:
            entry = self._relabels[omega] = (self.ext.inv(omega), {})
        return entry

    def _edge(self, support: Mapping[int, Coeffs], omega=None) -> dict[ExtWeylElement, LaurentPolynomial]:
        """The raw, numbered support as polynomials over elements, adopting
        its dicts, not copies, and relabeled from that of aff to that of
        omega aff when omega is given; each relabel's split is remembered."""
        adopt, elements = LaurentPolynomial._adopt, self.ext.elements
        if omega is None:
            return {elements[y]: adopt(c) for y, c in support.items()}
        mul, splits, out = self.ext.mul, self._splits, {}
        omega_inv, made = self._relabeled(omega)
        for y, c in support.items():
            z = made.get(y)
            if z is None:
                z = made[y] = mul(omega, elements[y])
                splits[z] = (omega, omega_inv, y)
            out[z] = adopt(c)
        return out

    def kl_basis(self, x: ExtWeylElement) -> HeckeElement:
        """The canonical basis element attached to x, in the standard basis;
        its polynomials, made at each call, share the stored entry's dicts.

        Raises `BoundsTooLarge` when x is longer than `MAX_HECKE_LENGTH`.
        """
        self.ext.start_query(len(self._splits))
        omega, _, n = self._waff_part(x)
        return _shared(self._edge(self._kl[n], omega))

    def _canonical(self, x: int, table: Memo, spherical: bool) -> Mapping[int, Coeffs]:
        """The canonical element of the element numbered x, as the read-only
        map y -> raw coefficient over numbers, in the module whose elements
        `table` memoizes: the regular module on W_ext, or the spherical
        module on W_ext^S when spherical is true.  It recurses within W_aff,
        so the tables hold no other elements.  In the product, a partner sy
        gets M_y's coefficient added (copied when new), and y gets it
        shifted by `_DOWN_SHIFT` or by +1."""
        ext = self.ext
        lx = ext.lengths[x]
        _check_length(ext, ext.elements[x], lx)
        if lx == 0:
            return MappingProxyType({x: _UNIT})
        out: dict[int, Coeffs] = {}
        get, rows, row, bits, down_shift = out.get, ext.rows, ext.row, self._bits, _DOWN_SHIFT
        i, rest = next((i, sx) for i, (sx, down) in enumerate(rows[x] or row(x)) if down)
        base = table[rest]
        # (H_s + v) M_y on the three kinds of y in the module
        for y, p in base.items():
            sy, down = (rows[y] or row(y))[i]
            if spherical and not down and not bits[sy]:
                # sy = y t with t finite simple, and H_t acts by v^{-1}
                _addmul(out, y, p, _V_PLUS_VINV)
                continue
            # M_sy + v^{-1} M_y when sy < y, M_sy + v M_y when sy > y
            acc = get(sy)
            if acc is None:
                out[sy] = p.copy()
            else:
                for k, c in p.items():
                    acc[k] = acc.get(k, 0) + c
            shift = down_shift if down else 1
            acc = get(y)
            if acc is None:
                out[y] = {k + shift: c for k, c in p.items()}
            else:
                for k, c in p.items():
                    k += shift
                    acc[k] = acc.get(k, 0) + c
        # subtract c0 times the canonical element of w for every w != x
        # whose coefficient has constant term c0; a subtracted element
        # changes no constant term but the one at w, so one pass over the
        # snapshot suffices
        for w, c0 in [(w, p[0]) for w, p in out.items() if w != x and p.get(0)]:
            for y, q in table[w].items():
                acc = get(y)
                if acc is None:
                    out[y] = {k: -c0 * c for k, c in q.items()}
                else:
                    for k, c in q.items():
                        acc[k] = acc.get(k, 0) - c0 * c
        support = _freeze(out)
        # unitriangular, with every lower coefficient in vZ[v]
        if support.get(x) != _UNIT:
            raise InvariantViolation(f"canonical basis not unitriangular at {ext.elements[x]}")
        for y, p in support.items():
            if y != x and min(p) < 1:
                raise InvariantViolation(f"lower coefficient {LaurentPolynomial(p)} at "
                                         f"{ext.elements[y]} in the canonical element of "
                                         f"{ext.elements[x]}")
        return MappingProxyType(support)

    def kl_poly(self, y: ExtWeylElement, x: ExtWeylElement) -> LaurentPolynomial:
        return self.kl_basis(x).coeff(y)

    # -- spherical module ---------------------------------------------------

    def _require_spherical(self, x: ExtWeylElement) -> None:
        if not self.alc.in_wexts(x):
            raise NotSpherical(f"{self.ext.format_element(x)} is not a minimal coset representative")

    def spherical_basis(self, w: ExtWeylElement) -> Mapping[ExtWeylElement, LaurentPolynomial]:
        """The canonical element N_w = sum_y mbar(y, w) M_y, as a read-only map
        y -> mbar(y, w), whose polynomials, made at each call, share the stored
        entry's dicts; w is at most `MAX_HECKE_LENGTH` long."""
        self.ext.start_query(len(self._splits))
        self._require_spherical(w)
        omega, _, n = self._waff_part(w)
        return MappingProxyType(self._edge(self._spherical[n], omega))

    def spherical_lower_set(self, x: ExtWeylElement) -> list[ExtWeylElement]:
        """Minimal representatives below x, sorted by decreasing length."""
        lower = [z for z in self.ext.bruhat_lower_set(x) if self.alc.in_wexts(z)]
        lower.sort(key=lambda z: (-self.ext.length(z), z))
        return lower

    def inverse_m(self, x: ExtWeylElement, y: ExtWeylElement) -> LaurentPolynomial:
        """Entry m^{x,y} of the inverse of the spherical canonical matrix.

        Defined by M_x = sum_y (-1)^{len(y)+len(x)} m^{x,y} N_y, so m^{x,y} is
        zero unless y lies in the W_aff-coset of x.  A length-zero omega only
        relabels the module, so m^{x,y} = m^{omega^{-1} x, omega^{-1} y} for
        the omega of x's coset: each answer is kept under the numbers of that
        pair of W_aff elements, and a query is computed once per orbit of the
        length-zero subgroup.  The split of x (`_waff_part`) gives
        omega^{-1}, which also moves y, and reads x's own length only when
        x's class has no known omega yet; otherwise the length bound reads
        omega^{-1} x's.
        """
        self.ext.start_query(len(self._splits))
        self._require_spherical(x)
        self._require_spherical(y)
        ext = self.ext
        if not ext.same_coset(x, y):
            return ZERO
        omega, omega_inv, n = self._waff_part(x)
        if omega is not None:
            y = ext.mul(omega_inv, y)
        return self._inverse[n, ext.number(y)]

    def _back_substitute(self, x: int, y: int) -> LaurentPolynomial:
        """m^{x,y} for the elements of W_aff numbered x and y, by unitriangular
        back-substitution over the transitive support closure of N_x, by
        decreasing length: m^{x,z} is zero off it.  A heap keyed by length
        pops each member u after every longer one, so m^{x,u} is complete
        when it pops; it is then pushed onto the terms of N_u no shorter than
        y, their lengths read from `ExtWeyl.lengths`, so the closure is walked no
        lower than y.  Closure members lie in W_ext^S by construction, so
        their elements are read from the table directly.  The nonzero terms
        of m^{x,u} are listed once per u, and each kept z is updated in one
        fused loop; z's entry is created, and z pushed, only when it is
        new."""
        spherical, push, pop = self._spherical, heapq.heappush, heapq.heappop
        lengths = self.ext.lengths
        ly = lengths[y]
        values: dict[int, Coeffs] = {x: {0: 1}}
        heap = [(-lengths[x], x)]  # every longer member of the closure pops first
        while heap and heap[0][1] != y:  # no other member as short as y is pushed
            neg_lu, u = pop(heap)
            plus = [(j, d) for j, d in values.pop(u).items() if d]
            if not plus:
                continue
            minus = [(j, -d) for j, d in plus]
            for z, p in spherical[u].items():
                lz = lengths[z]
                if lz < ly or z == u or (lz == ly and z != y):
                    continue
                acc = values.get(z)
                if acc is None:
                    values[z] = acc = {}
                    push(heap, (-lz, z))
                p = p.items()
                # with the sign (-1)^{len(z) + len(u) + 1}
                for j, d in plus if (lz - neg_lu) % 2 else minus:
                    for k, c in p:
                        k += j
                        acc[k] = acc.get(k, 0) + d * c
        result = LaurentPolynomial(values.get(y, {}))
        bound = lengths[x] + self._lw0
        if result and not (-bound <= result.min_exponent() and result.max_exponent() <= bound):
            raise InvariantViolation(f"{result} exceeds the degree bound {bound}")
        return result
