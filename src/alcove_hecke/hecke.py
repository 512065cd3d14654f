"""The extended Hecke algebra, its canonical basis, and the spherical module.

Standard basis elements H_w are indexed by W_ext; multiplication follows
H_x H_y = H_{xy} when lengths add and H_s^2 = H_e + (v^{-1} - v) H_s; the
one product offered is by a generator, a H_s in `right_mul_gen`, in plain
`LaurentPolynomial` arithmetic: the reference product that `bar` is checked
against, sharing none of its packed code.  The bar involution follows its own
recursion bar(H_s b) = H_s^{-1} bar(b), bar(H_omega) = H_omega, and writes
into one accumulator: a length-zero term is added with its exponents negated,
and each group of terms sharing a first left descent s is barred as a whole
and multiplied by H_s^{-1} straight into the output, by H_s^{-1} H_w = H_sw,
plus (v - v^{-1}) H_w when sw > w.  Before that recursion, `bar` tries one
left factor: an input a = (H_s + v) b, for s a left descent of a longest
term, is barred as (H_s^{-1} + v^{-1}) bar(b), the same H_s^{-1} step plus a
v^{-1} shift, with b half of a's support.  Every canonical element of
positive length has such a factor (C_x lies in (H_s + v) H for each left
descent s of x).  The factor is found by pairing each term w with sw < w and
comparing a_sw with v a_w coefficient by coefficient, so the result is exact
for any input, bar invariant or not, and an input with no factor, such as a
single H_y, takes the recursion alone.
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
`bar`) starts.  Each `Memo`, the splits too (written by `Memo.put`), may also
empty itself mid-recursion, since a recursion reads only the values it was
handed.

Every coefficient inside `bar` and the recursions is one Python int, the
polynomial evaluated at a power of two (Kronecker substitution), so that
adding two coefficients, shifting one by a power of v, scaling it by an
integer, multiplying two and comparing two are each one big-int operation,
and an int, unlike a dict, cannot be written by whoever shares it.  Digits are balanced:
packed at slot bits, offset low and step, the int is sum_k c_k
2^{(k - low) / step * slot}, and it decodes to the true c_k as long as each
lies in [-2^(slot-1), 2^(slot-1)) (`_pack`, `_unpack`).  At step 1, v p is
`p << slot`, and v^{-1} p is `p >> slot`, exact when p's lowest digit is 0.

The tables `_kl` and `_spherical` store at step 2, one `SLOT`-bit digit per
degree of v^2.  By Kazhdan-Lusztig parity, the coefficient at y of the
canonical element of x, in either module, has only exponents of the parity e
of len(x) - len(y).  e is read from `ExtWeyl.lengths`, never stored, and the
coefficient sits at low = e - 2, so digit j holds v^(2j - 2 + e): v^0 (e = 0)
and v^1 (e = 1) both in digit 1, with one digit below them.  `_pack` raises
`InvariantViolation` on an exponent of the other parity rather than drop it,
and since one int decodes two ways, `_polys` keys on the value and e.
Multiplying by v^{+-1} flips e, so each v^{+-1} step of the recursion is no
shift or one `SLOT` shift, chosen by the e of the term it acts on: v p is p at
e = 0 and `p << SLOT` at e = 1, and v^{-1} p is `p >> SLOT` at e = 0 (exact,
since a lower term of even parity lies in v^2 Z[v]) and p at e = 1.  In the
product below, a partner sy keeps p as it is, its parity against x being that
of y against s x; the third case multiplies by `_V_PLUS_VINV`, v + v^{-1} at
e = 1 (digits 0 and 1), and shifts the product down at e = 0.  The unit is
`_UNIT` = 1 << SLOT: the unitriangular check compares the entry at x with it,
and the vZ[v] check is p & `_LOW`[e] == 0 (no digit below v^2 at e = 0, none
below v^1 at e = 1).  Only a term of e = 0 has a constant term c0, read off
digit 1, so only such terms take a correction.  `_back_substitute` keeps each
m^{x,u}, of the parity e of len(x) - len(u), at low = e, since every pushed
mbar(z, u), z != u, lies in vZ[v]: a step adds m (p >> SLOT), shifted once
more when both parities are odd (v v = v^2 is one digit up), and the answer
decodes at the parity of len(x) - len(y).

Every stored term, every m^{x,u} popped and every answer is checked, in O(its
size), to have each digit in [-2^HEAD, 2^HEAD) (`_fits`: 2^HEAD added to each
digit, the bits outside [0, 2^(HEAD+1)) masked).  So, with each c0 at most
2^HEAD in size (checked), a digit of an accumulator is a sum of at most n
terms of size at most 2^(2 HEAD), where n counts the additions into it: two
product terms and one per correction in `_canonical`, and the digits of each
popped m in `_back_substitute`.  With n below `_ADDS` = 2^(SLOT - 2 HEAD - 3)
(checked), the sum is below 2^(SLOT - 3) in size, well inside the balanced
range, so every finished digit is the true coefficient: SLOT >= 2 HEAD +
bits(n) + 3, which leaves 2^29 additions at SLOT = 64 and HEAD = 16, or 32
bits per degree of v.  The largest coefficient measured on the rank-2 and
rank-3 data, 678 on G2, takes 10 bits, so HEAD = 16 leaves it a factor of
96.  Past any of these bounds a recursion raises `BoundsTooLarge`
naming the element, and never returns a wrong polynomial.

`bar` computes rev(bar(a)), rev mapping v to v^{-1} on coefficients.  Unlike
bar, rev . bar is Z[v, v^{-1}]-linear, so a length-zero leaf is kept as it
is, the factor step's v^{-1} becomes v (`p << slot`), and H_s^{-1} H_w adds
v^{-1} - v at w (`(p >> slot) - (p << slot)`); the result is decoded with
its exponents negated.  Each call packs its input at a width of its own
(`_width`).  An H_s^{-1} step at most triples the l1 norm of what it acts on
and the factor step at most quadruples it, so for terms of length at most l
every partial sum is below (4/3) 3^l ||a||_1, which slot = bits(||a||_1) +
bits(3^l) + 2 holds; the offset low = (lowest exponent) - l leaves room for
l shifts by v^{-1}, so each `>> slot` is exact.

Equal values are stored as one int: `_canonical` reads each finished term
from `_pool`, a `Memo` keyed on the value and owned by the algebra.  It holds
at most `MEMO_CAP` ints; it is not registered with the numbers, since its
keys are values, and emptying it loses only sharing, never a value.
Polynomials are made only at the API edge: `_edge` decodes a table value
through one bounded `Memo`, `_polys`, keyed on the value and its parity, not
on numbers, so it is not registered either, and equal coefficients share one
`LaurentPolynomial`.  `bar` decodes each term of its result once, and
`inverse_m` each answer.

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
vZ[v].  Each table entry is the read-only map y -> packed coefficient, in no
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
from .laurent import ONE, V, V_INV, ZERO, LaurentPolynomial
from .memo import Memo

# the canonical-basis recursion nests a few Python frames per length step, so
# longer elements are refused up front rather than failing deep in it
MAX_HECKE_LENGTH = 150

# a stored coefficient is packed at SLOT bits a digit, each digit in
# [-2^HEAD, 2^HEAD); see the module docstring for SLOT >= 2 HEAD + bits(n) + 3
SLOT = 64
HEAD = 16
_ADDS = 1 << (SLOT - 2 * HEAD - 3)  # the additions into one accumulator stay below
_UNIT = 1 << SLOT  # 1, of parity 0
# the digits below vZ[v] of a stored coefficient of parity 0 (v^{-2}, v^0) and
# of parity 1 (v^{-1})
_LOW = ((1 << 2 * SLOT) - 1, (1 << SLOT) - 1)
# v + v^{-1}, of parity 1, the multiplier of M_y in the third case
_V_PLUS_VINV = 1 << SLOT | 1


def _pack(coeffs: Mapping[int, int], slot: int = SLOT, low: int = -1, step: int = 1) -> int:
    """The coefficient {exponent: integer} as one int, digit (k - low) / step
    holding v^k's; every exponent is at least low.  With step 2, an exponent
    of the other parity than low raises `InvariantViolation`."""
    if step != 1 and any((k - low) % step for k in coeffs):
        raise InvariantViolation(f"{dict(coeffs)} has an exponent other than {low} mod {step}")
    return sum(c << (k - low) // step * slot for k, c in coeffs.items())


def _unpack(p: int, slot: int = SLOT, low: int = -1, step: int = 1,
            sign: int = 1) -> dict[int, int]:
    """The zero-free {exponent: integer} of the packed p, read in balanced
    digits: `_pack`'s inverse when every coefficient lies in
    [-2^(slot-1), 2^(slot-1)), with each exponent times sign."""
    coeffs = {}
    if p:
        skip = ((p & -p).bit_length() - 1) // slot  # zero digits at the bottom
        p >>= skip * slot
        k, step = sign * (low + skip * step), sign * step
        half, digit = 1 << (slot - 1), (1 << slot) - 1
        while p:
            c = ((p + half) & digit) - half
            if c:
                coeffs[k] = c
            p = (p - c) >> slot
            k += step
    return coeffs


def _pack_table(coeffs: Mapping[int, int], e: int) -> int:
    """A table coefficient of parity e packed: at `SLOT` bits, step 2 and
    low = e - 2, so a coefficient of the other parity raises."""
    return _pack(coeffs, SLOT, e - 2, 2)


def _unpack_table(p: int, e: int) -> dict[int, int]:
    """The table coefficient p of parity e unpacked."""
    return _unpack(p, SLOT, e - 2, 2)


def _masks(d: int) -> tuple[int, int]:
    """(bias, outside) over d digits of SLOT bits: p + bias, with 2^HEAD added
    to each digit, has no bit in outside exactly when p is sum_{k<d} c_k
    2^{k SLOT} with every c_k in [-2^HEAD, 2^HEAD)."""
    ones = sum(1 << k * SLOT for k in range(d))
    return ones << HEAD, ~(((1 << (HEAD + 1)) - 1) * ones)


# `_masks(d)` per number d of digits checked
_MASKS = Memo(_masks)


def _fits(p: int) -> bool:
    """Whether every digit of p, packed at SLOT bits, lies in [-2^HEAD,
    2^HEAD).  A p that does has |p| >= 2^(t SLOT - 1) for its top digit t,
    so the bit_length // SLOT + 1 digits checked reach t."""
    bias, outside = _MASKS[p.bit_length() // SLOT + 1]
    return not (p + bias) & outside


def _width(coeffs: list[Mapping[int, int]], steps: int) -> tuple[int, int]:
    """(slot, low) packing the coefficients `coeffs` for at most `steps`
    H_s^{-1} steps and one factor step: room for steps v^{-1} shifts below the
    lowest exponent, and slot bits for any partial sum (module docstring)."""
    norm = sum(abs(c) for p in coeffs for c in p.values())
    low = min(min(p) for p in coeffs) - steps
    return norm.bit_length() + (3**steps).bit_length() + 2, low


def _check_length(ext, x: ExtWeylElement, lx: int) -> None:
    """Refuses x, of length lx, when it is longer than `MAX_HECKE_LENGTH`."""
    if lx > MAX_HECKE_LENGTH:
        raise BoundsTooLarge(f"{ext.format_element(x)} has length {lx} > {MAX_HECKE_LENGTH}")


def _bar_factored(ext: ExtWeyl, a: dict[int, int], slot: int) -> dict[int, int]:
    """rev(bar(a)) for the numbered a, packed at slot bits, zeros kept; see
    `HeckeAlgebra.bar`."""
    longest = max(a, key=ext.lengths.__getitem__)
    # a longest term w of a = (H_s + v) b has sw < w
    for i, (_, down) in enumerate(ext.rows[longest] or ext.row(longest)):
        if down and (b := _left_factor(ext, a, i, slot)) is not None:
            # bar(H_s + v) = H_s^{-1} + v^{-1}, and rev turns v^{-1} into v
            barred: dict[int, int] = {}
            _bar(ext, b, barred, slot)
            out = {w: p << slot for w, p in barred.items()}
            _add_inverse_gen(ext, i, barred, out, slot)
            return out
    out = {}
    _bar(ext, a, out, slot)
    return out


def _bar(ext: ExtWeyl, a: dict, out: dict, slot: int) -> None:
    """Writes rev(bar(a)) for the numbered a, packed at slot bits, into out,
    empty on entry; see `HeckeAlgebra.bar`."""
    groups: dict[int, dict[int, int]] = {}
    rows, row = ext.rows, ext.row
    for w, p in a.items():
        for i, (sw, down) in enumerate(rows[w] or row(w)):
            if down:
                groups.setdefault(i, {})[sw] = p
                break
        else:  # a length-zero leaf, alone in out at w: rev(bar(p)) = p
            out[w] = p
    for i, rest in groups.items():
        barred: dict[int, int] = {}
        _bar(ext, rest, barred, slot)
        _add_inverse_gen(ext, i, barred, out, slot)


def _add_inverse_gen(ext: ExtWeyl, i: int, barred: dict, out: dict, slot: int) -> None:
    """Adds rev(H_s^{-1} c) into out, for s = ext.generators[i] and
    barred = rev(c), every term of which has a zero lowest digit."""
    rows, row, get = ext.rows, ext.row, out.get
    # H_s^{-1} H_w = H_sw, plus (v - v^{-1}) H_w when sw > w
    for w, p in barred.items():
        sw, down = (rows[w] or row(w))[i]
        if not down:
            out[w] = get(w, 0) + (p >> slot) - (p << slot)
        out[sw] = get(sw, 0) + p


def _left_factor(ext: ExtWeyl, a: dict, i: int, slot: int) -> dict | None:
    """The b with a = (H_s + v) b, for s = ext.generators[i], or None when
    there is none; a is numbered, packed at slot bits with no zero value, and
    b holds a's values, on the y with sy > y.

    (H_s + v) H_y is H_sy + v H_y for sy > y, so a factors exactly when its
    terms pair off as w and sw < w with a_sw = v a_w, and then b_sw = a_w."""
    rows, row, get = ext.rows, ext.row, a.get
    b = {}
    for w, p in a.items():
        sw, down = (rows[w] or row(w))[i]
        if down:
            if get(sw) != p << slot:
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
        # the edge or made there by a relabel
        self._splits = numbered(Memo(None))
        self._relabels = numbered(Memo(None))
        # (packed table value, its parity) -> its polynomial, and the one
        # stored int of each value: keyed on values, not numbers, so neither
        # is registered, and emptying the pool loses only sharing
        self._polys = Memo(lambda key: LaurentPolynomial._adopt(_unpack_table(*key)))
        self._pool = Memo(lambda p: p)

    # -- standard basis arithmetic ---------------------------------------

    def standard(self, w: ExtWeylElement) -> HeckeElement:
        return HeckeElement({w: ONE})

    def right_mul_gen(self, a: HeckeElement, g: AffineGenerator) -> HeckeElement:
        """a * H_s for the generator s = g, in plain polynomial arithmetic."""
        ext = self.ext
        ge = ext.gen_element(g)
        out: dict[ExtWeylElement, LaurentPolynomial] = {}
        for w, p in a.items():
            ws = ext.mul(w, ge)
            out[ws] = out.get(ws, ZERO) + p
            if ext.length(ws) < ext.length(w):
                # H_w H_s = H_ws + (v^{-1} - v) H_w when ws < w
                out[w] = out.get(w, ZERO) + (V_INV - V) * p
        return HeckeElement(out)

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
        fault there cannot cancel out inside bar(c) == c.  The recursion
        computes rev(bar(a)) on coefficients packed at a width of this
        call's own (module docstring).

        A term longer than `MAX_HECKE_LENGTH` raises `BoundsTooLarge`, as in
        `kl_basis` (see `_waff_part`).
        """
        ext = self.ext
        ext.start_query()
        groups: dict[ExtWeylElement | None, dict[int, dict[int, int]]] = {}
        for w, p in a.support.items():
            omega, _, n = self._waff_part(w)
            groups.setdefault(omega, {})[n] = p.coeffs
        if not groups:
            return _shared({})
        lengths = ext.lengths
        slot, low = _width([c for raw in groups.values() for c in raw.values()],
                           max(lengths[n] for raw in groups.values() for n in raw))
        adopt = LaurentPolynomial._adopt
        out: dict[ExtWeylElement, LaurentPolynomial] = {}
        for omega, raw in groups.items():
            barred = _bar_factored(ext, {n: _pack(c, slot, low) for n, c in raw.items()}, slot)
            # bar(a) = rev(rev(bar(a))): the exponents negated
            out.update(self._to_elements(
                {n: adopt(_unpack(p, slot, low, 1, -1)) for n, p in barred.items() if p}, omega))
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
        self._splits.put(x, split)
        return split

    def _relabeled(self, omega: ExtWeylElement) -> tuple[ExtWeylElement, dict[int, ExtWeylElement]]:
        """(omega^{-1}, {number of a: omega a}) for the length-zero omega."""
        entry = self._relabels.get(omega)
        if entry is None:
            entry = self.ext.inv(omega), {}
            self._relabels.put(omega, entry)
        return entry

    def _edge(self, support: Mapping[int, int], lx: int,
              omega=None) -> dict[ExtWeylElement, LaurentPolynomial]:
        """The table entry support of an element of length lx, numbered and
        packed, as polynomials over elements, each decoded through `_polys` at
        its parity, relabeled as in `_to_elements`."""
        polys, lengths = self._polys, self.ext.lengths
        return self._to_elements(
            {y: polys[c, (lx - lengths[y]) & 1] for y, c in support.items()}, omega)

    def _to_elements(self, support: dict[int, LaurentPolynomial], omega) -> dict[ExtWeylElement, LaurentPolynomial]:
        """The numbered support over elements, relabeled from that of aff to
        that of omega aff when omega is given; each relabel's split is
        remembered."""
        elements = self.ext.elements
        if omega is None:
            return {elements[y]: p for y, p in support.items()}
        mul, splits, out = self.ext.mul, self._splits, {}
        omega_inv, made = self._relabeled(omega)
        for y, p in support.items():
            z = made.get(y)
            if z is None:
                z = made[y] = mul(omega, elements[y])
                splits.put(z, (omega, omega_inv, y))
            out[z] = p
        return out

    def kl_basis(self, x: ExtWeylElement) -> HeckeElement:
        """The canonical basis element attached to x, in the standard basis;
        equal coefficients share one polynomial (`_polys`).

        Raises `BoundsTooLarge` when x is longer than `MAX_HECKE_LENGTH`.
        """
        self.ext.start_query()
        omega, _, n = self._waff_part(x)
        return _shared(self._edge(self._kl[n], self.ext.lengths[n], omega))

    def _canonical(self, x: int, table: Memo, spherical: bool) -> Mapping[int, int]:
        """The canonical element of the element numbered x, as the read-only
        map y -> packed coefficient over numbers, in the module whose elements
        `table` memoizes: the regular module on W_ext, or the spherical
        module on W_ext^S when spherical is true.  It recurses within W_aff,
        so the tables hold no other elements.  In the product, a partner sy
        gets M_y's coefficient added, and y gets it shifted by -1 or +1, or
        times `_V_PLUS_VINV` in the third case."""
        ext = self.ext
        elements, lengths, lx = ext.elements, ext.lengths, ext.lengths[x]
        _check_length(ext, elements[x], lx)
        if lx == 0:
            return MappingProxyType({x: _UNIT})
        out: dict[int, int] = {}
        get, rows, row, bits = out.get, ext.rows, ext.row, self._bits
        third = _V_PLUS_VINV
        i, rest = next((i, sx) for i, (sx, down) in enumerate(rows[x] or row(x)) if down)
        lrest = lx - 1
        # (H_s + v) M_y on the three kinds of y in the module; p has the
        # parity odd of len(sx) - len(y), so v p is p << SLOT when odd, else
        # p, and v^{-1} p is p when odd, else p >> SLOT
        for y, p in table[rest].items():
            sy, down = (rows[y] or row(y))[i]
            odd = (lrest - lengths[y]) & 1
            if spherical and not down and not bits[sy]:
                # sy = y t with t finite simple, and H_t acts by v^{-1}
                out[y] = get(y, 0) + (p * third if odd else p * third >> SLOT)
                continue
            # M_sy + v^{-1} M_y when sy < y, M_sy + v M_y when sy > y
            out[sy] = get(sy, 0) + p
            if down:
                out[y] = get(y, 0) + (p if odd else p >> SLOT)
            else:
                out[y] = get(y, 0) + (p << SLOT if odd else p)
        # subtract c0 times the canonical element of w for every w != x
        # whose coefficient has constant term c0, which only a term of
        # parity 0 has, read off its two lowest digits; a subtracted element
        # changes no constant term but the one at w, so one pass over the
        # snapshot suffices
        low = _LOW[0]
        corrections = [(w, c0) for w, p in out.items()
                       if w != x and not (lx - lengths[w]) & 1 and p & low
                       and (c0 := _unpack_table(p & low, 0).get(0))]
        fmt = ext.format_element
        if len(corrections) + 2 >= _ADDS:
            raise BoundsTooLarge(f"{len(corrections)} corrections in the canonical element of "
                                 f"{fmt(elements[x])}")
        for w, c0 in corrections:
            if abs(c0) > 1 << HEAD:
                raise BoundsTooLarge(f"constant term {c0} at {fmt(elements[w])} in the canonical "
                                     f"element of {fmt(elements[x])}")
            for y, q in table[w].items():
                out[y] = get(y, 0) - c0 * q
        # a term of the canonical element of x has degree at most lx, so one
        # check over its digits 0 to lx // 2 + 1 passes it when it fits; a
        # term it fails is checked over its own digits.  Equal values are
        # stored as one int, read from the pool
        bias, outside = _MASKS[lx // 2 + 2]
        support, pool = {}, self._pool
        for y, p in out.items():
            if p:
                if (p + bias) & outside and not _fits(p):
                    raise BoundsTooLarge(f"a coefficient at {fmt(elements[y])} in the canonical "
                                         f"element of {fmt(elements[x])} is 2^{HEAD} or more "
                                         "in size")
                support[y] = pool[p]
        # unitriangular, with every lower coefficient in vZ[v]
        if support.get(x) != _UNIT:
            raise InvariantViolation(f"canonical basis not unitriangular at {elements[x]}")
        for y, p in support.items():
            odd = (lx - lengths[y]) & 1
            if y != x and p & _LOW[odd]:
                poly = LaurentPolynomial(_unpack_table(p, odd))
                raise InvariantViolation(f"lower coefficient {poly} at {elements[y]} in the "
                                         f"canonical element of {elements[x]}")
        return MappingProxyType(support)

    def kl_poly(self, y: ExtWeylElement, x: ExtWeylElement) -> LaurentPolynomial:
        return self.kl_basis(x).coeff(y)

    # -- spherical module ---------------------------------------------------

    def _require_spherical(self, x: ExtWeylElement) -> None:
        if not self.alc.in_wexts(x):
            raise NotSpherical(f"{self.ext.format_element(x)} is not a minimal coset representative")

    def spherical_basis(self, w: ExtWeylElement) -> Mapping[ExtWeylElement, LaurentPolynomial]:
        """The canonical element N_w = sum_y mbar(y, w) M_y, as a read-only map
        y -> mbar(y, w), its polynomials decoded as in `kl_basis`; w is at
        most `MAX_HECKE_LENGTH` long."""
        self.ext.start_query()
        self._require_spherical(w)
        omega, _, n = self._waff_part(w)
        return MappingProxyType(self._edge(self._spherical[n], self.ext.lengths[n], omega))

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
        self.ext.start_query()
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
        their elements are read from the table directly.  Each m^{x,u} is
        packed at step 2 and low = its parity (module docstring) and checked
        as it pops, and each kept z is updated by one product; z's entry is
        created, and z pushed, only when it is new."""
        spherical, push, pop = self._spherical, heapq.heappush, heapq.heappop
        ext = self.ext
        lengths, elements, fmt = ext.lengths, ext.elements, ext.format_element
        lx, ly = lengths[x], lengths[y]
        values: dict[int, int] = {x: 1}
        heap = [(-lengths[x], x)]  # every longer member of the closure pops first
        adds = 0  # an upper bound on the products summed into one digit
        while heap and heap[0][1] != y:  # no other member as short as y is pushed
            neg_lu, u = pop(heap)
            m = values.pop(u)
            if not m:
                continue
            adds += m.bit_length() // SLOT + 1
            if not _fits(m) or adds >= _ADDS:
                raise BoundsTooLarge(f"m^{{x,y}} at x = {fmt(elements[x])}, y = {fmt(elements[u])} "
                                     f"is 2^{HEAD} or more in size, or sums {adds} products")
            # times mbar(z, u) of odd parity, a product of two odd parities
            # is one digit higher
            plus, minus = m << SLOT if (lx + neg_lu) & 1 else m, -m
            for z, p in spherical[u].items():
                lz = lengths[z]
                if lz < ly or z == u or (lz == ly and z != y):
                    continue
                # with the sign (-1)^{len(z) + len(u) + 1}; p lies in vZ[v]
                p = (p >> SLOT) * (plus if (lz + neg_lu) & 1 else minus)
                acc = values.get(z)
                if acc is None:
                    values[z] = p
                    push(heap, (-lz, z))
                else:
                    values[z] = acc + p
        m = values.get(y, 0)
        if not _fits(m):
            raise BoundsTooLarge(f"m^{{x,y}} at x = {fmt(elements[x])}, y = {fmt(elements[y])} "
                                 f"is 2^{HEAD} or more in size")
        result = LaurentPolynomial(_unpack(m, SLOT, (lx - ly) & 1, 2))
        bound = lengths[x] + self._lw0
        if result and not (-bound <= result.min_exponent() and result.max_exponent() <= bound):
            raise InvariantViolation(f"{result} exceeds the degree bound {bound}")
        return result
