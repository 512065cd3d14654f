"""The extended affine Weyl group W x Y.

Elements are stored in the form w * t_lambda (finite Weyl part, translation
coweight); the Iwahori-Matsumoto formula turns this pair directly into a
length.  On top of the group arithmetic this module provides the affine
simple generators, the length-zero subgroup, reduced expressions, and the
Bruhat order.

All operations are pure over an immutable root datum.  Coset classes and
Weyl product rows are memoized per instance in `Memo` tables, which carry
that module's concurrency caveat; lengths are kept only with the numbers.

The walks run on numbers.  `number` numbers each element that a walk or the
Hecke layer meets, and per number the context keeps the element
(`elements`), its length (`lengths`) and its left-step row (`rows`) of
(number of s x, s x < x) over `generators`, built by `row` when first read.
A row numbers a new neighbour with the length its descent bit gives,
len(x) -/+ 1, so only a walk's start takes the length formula.  Reduced
words, the Bruhat walk, lower sets and the Hecke recursions read the rows;
`left_steps` and `first_descent` are element views of them.  Tables keyed
on numbers are registered weakly with `numbered`, and `start_query` empties
the live ones with the numbers once these reach `MEMO_CAP`.  It runs only
as a public query starts (`reduced_expression`, `bruhat_leq` past its coset
test, `bruhat_lower_set`, a periodic-order comparison, the Hecke queries),
never while a walk or recursion holds numbers, so `omega_of`, called
mid-query, walks without it.
A walk holds its chain of rows, up to len(generators) + 1 numbers a step,
so one from x longer than `MEMO_CAP` / (len(generators) + 1) is refused.

>>> from alcove_hecke.root_datum import load_root_datum
>>> ext = ExtWeyl(load_root_datum("A1_adj"))
>>> n = ext.number(ext.translation((-2,)))
>>> [(ext.format_element(ext.elements[m]), ext.lengths[m], down) for m, down in ext.row(n)]
[('s1 : -2', 1, True), ('s1 : -4', 3, False)]
>>> ext.reduced_expression(ext.translation((-40000,)))
Traceback (most recent call last):
...
alcove_hecke.errors.BoundsTooLarge: e : -40000 has length 40000 > 33333, too long to walk under MEMO_CAP

Each generator s reflects in an affine simple root beta + k delta; its entry
(beta, beta^vee, k) in `affine_roots` is (alpha_i, alpha_i^vee, 0) for s_i and
(-theta, -theta^vee, 1) for the affine generator of a component with highest
root theta, and s = s_beta t_{k beta^vee} (t_{theta^vee} s_theta when affine).
Descents need no length: for x = w t_lambda and a = w^{-1} beta, s x < x
exactly when <a, lambda> < [a < 0] - k, i.e. when x^{-1} sends beta + k delta
to a negative affine root.  A table per Weyl index stores (a, [a < 0] - k)
for each generator, read off the root permutation of w^{-1}; the left-step
rows read their descent bits from it.  The Weyl part s_beta of each
generator is the element that sends every simple root alpha to
alpha - <alpha, beta^vee> beta.

>>> for g, root in ExtWeyl(load_root_datum("A2_adj")).affine_roots.items():
...     print((g.name, root))
('s1', ((1, 0), (2, -1), 0))
('s2', ((0, 1), (-1, 2), 0))
('s0a', ((-1, -1), (-1, -1), 1))

The finite Weyl group is kept as root permutations, so `mul` reads the
product of Weyl indices a b from a row of a's products, built the first time
a is a left factor: a b sends each simple root where a's permutation sends
b's image of it, and the table of simple-root images that finds the
generators' Weyl parts gives its index.  `mul` takes two O(1) paths before
the general product: a left factor with zero translation (a finite
generator, an element of a finite parabolic subgroup, w0) only multiplies
Weyl indices, and a right factor with the identity Weyl index (a
translation) only adds translations.

W_aff is the set of w t_lambda with lambda in the coroot lattice, so the
W_aff-coset of x = w t_lambda is the class of lambda in Y / ZPhi^vee.  With
the Smith factors U A V = D of the simple coroots (`RootDatum.coroot_smith`)
that class is ((U lambda)_i mod d_i) over the rows i with d_i != 1, where
d_i = 0 past the rank; it is zero exactly on the coroot lattice.  One table
keyed on the translation holds the classes, and `same_coset`,
`in_affine_subgroup` and `omega_of` read it.  `omega_of(x)` is the
length-zero element of x's coset, found once per class by a walk down
x's rows and kept in a second table, which `known_omega` reads
without walking; both tables are bounded, since Y / ZPhi^vee is infinite
when the datum has a central torus.  `omegas` lists the length-zero
subgroup Omega ~ Y / ZPhi^vee class by class: range(d_i) on each row with
d_i > 1 and the fixed `TORUS_WINDOW` on a central-torus row (d_i = 0), each
class c lifted to t_lambda with U lambda = c for `omega_of`.

>>> ext = ExtWeyl(load_root_datum("A2_adj"))
>>> x = ext.parse_element("s1 : 1,0")
>>> omega = ext.omega_of(x)
>>> ext.format_element(omega), ext.length(omega)
('s1 s2 : 0,-1', 0)
>>> ext.same_coset(x, omega), ext.in_affine_subgroup(ext.mul(ext.inv(omega), x))
(True, True)
>>> ext.same_coset(x, ext.translation((0, 1)))
False

The Bruhat order compares x and y only within one W_aff-coset
(`same_coset`; the periodic order tests the class of lambda_y - lambda_x
before it translates a pair, and enters `_bruhat_aff` past this test).
Within a coset, `_bruhat_aff` reads the pair of numbers from its table, a
`Memo` emptied with the numbers, so a pair asked again costs one lookup.
Otherwise it decides x <= y by a loop down y's first descents, so its depth
is not bounded by Python's recursion limit, and it stores its one answer
under every pair of the chain it passed.  `bruhat_lower_set` uses Deodhar's
property Z, [e, x] = [e, s x] u s [e, s x] for a left descent s: it closes
x's min reduced word from omega leftwards, each s z read off z's row.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from operator import add
from operator import mul as scalar_mul
from typing import Iterable, NamedTuple

from . import memo
from .errors import BoundsTooLarge, InvariantViolation, MalformedInput
from .memo import MEMO_CAP, Memo
from .root_datum import (RootDatum, Vector, pair, smith_normal_form, solve_smith, vec_neg,
                         vec_scale, vec_sub)

GEN_LETTERS = "abcdefgh"
# the classes `ExtWeyl.omegas` lists on a central-torus row, of infinitely many
TORUS_WINDOW = range(-2, 3)


class ExtWeylElement(NamedTuple):
    """The element w * t_lambda: a finite Weyl index and a translation."""

    w: int
    t: Vector


class AffineGenerator(NamedTuple):
    kind: str  # "finite" or "affine"
    index: int  # simple-reflection index, or irreducible-component index

    @property
    def name(self) -> str:
        if self.kind == "finite":
            return f"s{self.index + 1}"
        return f"s0{GEN_LETTERS[self.index]}"


class ExtWeyl:
    """Arithmetic context for W_ext over a fixed root datum."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.identity = ExtWeylElement(0, (0,) * datum.y_rank)
        # x -> its number, and per number its element, length and row (None
        # until first read), as in the module docstring
        self.numbers, self.elements, self.lengths, self.rows = {}, [], [], []
        self._numbered: list[weakref.ref] = []  # tables registered with `numbered`
        # (number of x, number of y) -> x <= y, filled by the walk with `put`
        self._bruhat = self.numbered(Memo(None))
        # translation -> coset class, from the Smith rows as in the module
        # docstring; class -> its length-zero element, filled with `put` by
        # `omega_of`
        u, d, _ = datum.coroot_smith
        self._class_rows = [
            (row, d[i][i] if i < datum.rank else 0)
            for i, row in enumerate(u)
            if i >= datum.rank or d[i][i] != 1
        ]
        self._classes = Memo(self._coset_class)
        self._omegas = Memo(None)
        # Weyl index -> its reduced word as `format_element` writes it
        self._weyl_words = Memo(
            lambda w: " ".join(f"s{i + 1}" for i in datum.weyl_elements[w].word) or "e"
        )
        # Y-action matrix of w^{-1}, per Weyl index w: the rows `mul` reads
        self._inv_y_action = tuple(datum.weyl_elements[i].y_action for i in datum.weyl_inv)

        # generator -> (beta, beta^vee, k), as in the module docstring
        self.affine_roots: dict[AffineGenerator, tuple[Vector, Vector, int]] = {
            AffineGenerator("finite", i): (alpha, alpha_vee, 0)
            for i, (alpha, alpha_vee) in enumerate(zip(datum.simple_roots, datum.simple_coroots))
        }
        for c, (theta, theta_vee) in enumerate(zip(datum.highest_roots, datum.highest_short_coroots)):
            self.affine_roots[AffineGenerator("affine", c)] = (vec_neg(theta), vec_neg(theta_vee), 1)
        self.generators: list[AffineGenerator] = list(self.affine_roots)
        roots, n_pos = datum.roots, len(datum.positive_roots)
        root_index = {beta: j for j, beta in enumerate(roots)}
        # a Weyl element is fixed by where it sends the simple roots, and s_beta
        # sends alpha to alpha - <alpha, beta^vee> beta
        simple = [root_index[alpha] for alpha in datum.simple_roots]
        weyl_index = {
            tuple(map(perm.__getitem__, simple)): w for w, perm in enumerate(datum.root_perms)
        }
        # a's row: a b sends the simple roots where a sends b's key in weyl_index
        perms = datum.root_perms
        self._weyl_rows = Memo(
            lambda a: [weyl_index[tuple(map(perms[a].__getitem__, key))] for key in weyl_index]
        )
        self._gen_elements = {}
        for g, (beta, beta_vee, k) in self.affine_roots.items():
            images = tuple(
                root_index[vec_sub(alpha, vec_scale(pair(alpha, beta_vee), beta))]
                for alpha in datum.simple_roots
            )
            self._gen_elements[g] = ExtWeylElement(weyl_index[images], vec_scale(k, beta_vee))
        self._gen_by_name = {g.name: g for g in self.generators}
        if len(datum.components) == 1:
            self._gen_by_name.setdefault("s0", self.generators[-1])

        self.w0 = ExtWeylElement(datum.w0, self.identity.t)
        # (u, x) -> whether lengths add in u x w0; `parabolic.in_awext_s` asks
        # it with u the longest element of a finite parabolic subgroup
        self.lengths_add_w0 = Memo(self._lengths_add_w0)

        # per Weyl index w, each generator's descent pair (a, [a < 0] - k): a is
        # the root w^{-1} beta, read off w^{-1}'s root permutation
        at = [(root_index[beta], k) for beta, _, k in self.affine_roots.values()]
        rows = []
        for w_inv in datum.weyl_inv:
            perm = datum.root_perms[w_inv]
            rows.append(tuple([(roots[perm[j]], (perm[j] >= n_pos) - k) for j, k in at]))
        self._descent_rows = tuple(rows)

    # -- group arithmetic ------------------------------------------------

    def translation(self, lam: Iterable[int]) -> ExtWeylElement:
        return ExtWeylElement(0, self.datum.check_y(tuple(lam)))

    def gen_element(self, g: AffineGenerator) -> ExtWeylElement:
        return self._gen_elements[g]

    def gen_by_name(self, name: str) -> AffineGenerator:
        try:
            return self._gen_by_name[name]
        except KeyError:
            raise MalformedInput(f"unknown generator {name!r}") from None

    def mul(self, a: ExtWeylElement, b: ExtWeylElement) -> ExtWeylElement:
        t1 = a.t
        if t1 == self.identity.t:  # a = w1: (w1)(w2 t2) = (w1 w2) t2
            return ExtWeylElement(self._weyl_rows[a.w][b.w], b.t)
        if not b.w:  # b = t2: (w1 t1) t2 = w1 t_{t1 + t2}
            return ExtWeylElement(a.w, tuple(map(add, t1, b.t)))
        # (w1 t1)(w2 t2) = (w1 w2) t_{w2^{-1}(t1) + t2}, in one pass over the rows
        t = tuple(
            [sum(map(scalar_mul, row, t1)) + c for row, c in zip(self._inv_y_action[b.w], b.t)]
        )
        return ExtWeylElement(self._weyl_rows[a.w][b.w], t)

    def mul_many(self, *els: ExtWeylElement) -> ExtWeylElement:
        return functools.reduce(self.mul, els) if els else self.identity

    def inv(self, a: ExtWeylElement) -> ExtWeylElement:
        d = self.datum
        return ExtWeylElement(d.weyl_inv[a.w], vec_neg(d.act_y(a.w, a.t)))

    # -- length and the length-zero subgroup -----------------------------

    def length(self, x: ExtWeylElement) -> int:
        n = self.numbers.get(x)
        return self._length_formula(x) if n is None else self.lengths[n]

    def _length_formula(self, x: ExtWeylElement) -> int:
        d = self.datum
        n_pos = len(d.positive_roots)
        total = 0
        for j, alpha in zip(d.root_perms[x.w], d.positive_roots):
            c = pair(alpha, x.t)
            total += abs(1 + c) if j >= n_pos else abs(c)
        return total

    def _lengths_add_w0(self, key: tuple[ExtWeylElement, ExtWeylElement]) -> bool:
        u, x = key
        total = self.length(u) + self.length(x) + self.length(self.w0)
        return self.length(self.mul_many(u, x, self.w0)) == total

    # -- the numbering ------------------------------------------------------

    def number(self, x: ExtWeylElement, lx: int | None = None) -> int:
        """x's number; a new x is numbered with length lx, or with the length
        formula's when lx is None."""
        n = self.numbers.get(x)
        if n is None:
            n = self.numbers[x] = len(self.elements)
            self.elements.append(x)
            self.lengths.append(self._length_formula(x) if lx is None else lx)
            self.rows.append(None)
        return n

    def row(self, n: int) -> tuple[tuple[int, bool], ...]:
        """The left-step row of the element numbered n, each new s x numbered
        with the length its descent bit gives; callers read `rows[n]` first
        and call this only when it is None."""
        x, lx = self.elements[n], self.lengths[n]
        t, row = x.t, []
        for g, (b, c) in zip(self.generators, self._descent_rows[x.w]):
            down = sum(map(scalar_mul, b, t)) < c
            sx = self.mul(self._gen_elements[g], x)
            row.append((self.number(sx, lx - 1 if down else lx + 1), down))
        self.rows[n] = row = tuple(row)
        return row

    def numbered(self, table: Memo) -> Memo:
        """Registers a table keyed on numbers, to empty with them, weakly, so
        it lives only as long as its owner; returns it."""
        self._numbered = [ref for ref in self._numbered if ref() is not None]
        self._numbered.append(weakref.ref(table))
        return table

    def start_query(self) -> None:
        """Empties the numbers and every live table registered with `numbered`
        once the numbers reach `MEMO_CAP`; called only as a public query
        starts, holding no number."""
        if len(self.elements) >= memo.MEMO_CAP:
            tables = [ref() for ref in self._numbered]
            for table in [self.numbers, self.elements, self.lengths, self.rows, *tables]:
                if table is not None:
                    table.clear()

    def _first_step(self, n: int) -> tuple[int, int] | None:
        """(i, number of s x) for the first left descent s = generators[i] of
        the element numbered n, or None at length zero."""
        for i, (sx, down) in enumerate(self.rows[n] or self.row(n)):
            if down:
                return i, sx
        return None

    def left_steps(self, x: ExtWeylElement) -> tuple[tuple[ExtWeylElement, bool], ...]:
        """The row of (s x, s x < x) over `generators`, in generator order."""
        n, elements = self.number(x), self.elements
        return tuple([(elements[sx], down) for sx, down in self.rows[n] or self.row(n)])

    def first_descent(self, x: ExtWeylElement) -> tuple[int, ExtWeylElement] | None:
        """(i, s x) for the first left descent s = generators[i] of x, or None."""
        step = self._first_step(self.number(x))
        return step and (step[0], self.elements[step[1]])

    # -- reduced expressions ----------------------------------------------

    def reduced_expression(
        self, x: ExtWeylElement, strategy: str = "min"
    ) -> tuple[list[AffineGenerator], ExtWeylElement]:
        """Write x = s_1 ... s_r * omega with r = length(x), omega length zero.

        Descents are peeled greedily; `strategy` picks the smallest ("min",
        default) or largest ("max") available generator index at each step;
        the two words differ exactly when x has more than one reduced word.
        Any other strategy raises `MalformedInput`.
        """
        if strategy not in ("min", "max"):
            raise MalformedInput(f"unknown reduced-expression strategy {strategy!r}")
        self.start_query()
        word, n = self._walk(x, strategy)
        return [self.generators[k] for k in word], self.elements[n]

    def _walk(self, x: ExtWeylElement, strategy: str = "min") -> tuple[list[int], int]:
        """x's reduced word as generator indices, peeled as `reduced_expression`
        describes, and the number of its omega."""
        n = self.number(x)
        lx = self.lengths[n]
        self._check_walk(x, lx)
        rows, row, word = self.rows, self.row, []
        # each descent lowers the length by one, so a descent table that is
        # wrong shows up as more than length(x) steps, not as an endless loop
        for _ in range(lx + 1):
            steps = rows[n] or row(n)
            descents = [k for k, (_, down) in enumerate(steps) if down]
            if not descents:
                return word, n
            k = descents[0] if strategy == "min" else descents[-1]
            word.append(k)
            n = steps[k][0]
        raise InvariantViolation(f"{x} of length {lx} has more left descents in a row")

    def _check_walk(self, x: ExtWeylElement, lx: int) -> None:
        """Refuses a walk from x, of length lx, too long to number under
        `MEMO_CAP` as loaded: a cap lowered later refuses no more walks."""
        bound = MEMO_CAP // (len(self.generators) + 1)
        if lx > bound:
            raise BoundsTooLarge(f"{self.format_element(x)} has length {lx} > {bound}, "
                                 "too long to walk under MEMO_CAP")

    def word_to_element(self, word: Iterable[AffineGenerator]) -> ExtWeylElement:
        return self.mul_many(*(self._gen_elements[g] for g in word))

    # -- W_aff-cosets --------------------------------------------------------

    def _coset_class(self, lam: Vector) -> tuple[int, ...]:
        out = []
        for row, d in self._class_rows:
            c = sum(map(scalar_mul, row, lam))
            out.append(c % d if d else c)
        return tuple(out)

    def in_affine_subgroup(self, x: ExtWeylElement) -> bool:
        return not any(self._classes[x.t])

    def same_coset(self, x: ExtWeylElement, y: ExtWeylElement) -> bool:
        """Whether x and y lie in one W_aff-coset."""
        return self._classes[x.t] == self._classes[y.t]

    def known_omega(self, x: ExtWeylElement) -> ExtWeylElement | None:
        """The length-zero element of x's W_aff-coset if `omega_of` has found
        it already, else None; walks nothing."""
        return self._omegas.get(self._classes[x.t])

    def omega_of(self, x: ExtWeylElement) -> ExtWeylElement:
        """The length-zero element of x's W_aff-coset, so that omega^{-1} x
        lies in W_aff; one walk per coset class, which empties nothing, so
        it may run mid-query."""
        omega = self.known_omega(x)
        if omega is None:
            omega = self.elements[self._walk(x)[1]]
            self._omegas.put(self._classes[x.t], omega)
        return omega

    def omegas(self) -> list[ExtWeylElement]:
        """The length-zero elements, sorted: one per W_aff-coset class, as
        listed in the module docstring."""
        u, d, _ = self.datum.coroot_smith
        classes = [range(d[i][i]) if i < self.datum.rank else TORUS_WINDOW for i in range(len(u))]
        lift = smith_normal_form([list(row) for row in u])
        lifts = (solve_smith(lift, c) for c in itertools.product(*classes))
        return sorted(self.omega_of(self.translation(lam)) for lam in lifts)

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, x: ExtWeylElement, y: ExtWeylElement) -> bool:
        """Extended Bruhat order: comparable only within one W_aff-coset."""
        if x == y:
            return True
        if not self.same_coset(x, y):
            return False
        self.start_query()
        return self._bruhat_aff(x, y)

    def _bruhat_aff(self, x: ExtWeylElement, y: ExtWeylElement) -> bool:
        """x <= y for x, y in one coset W_aff * omega, by the lifting property.

        Walk down y's first left descents s: when s x < x, x <= y exactly when
        s x <= s y, and otherwise exactly when x <= s y.  The walk carries both
        lengths (y's drops by one per step, x's when it descends too) and ends
        at x == y, at len x >= len y, or at a pair already in the table.  Every
        pair it passed has that same answer, so each is stored with `put`.
        A pair asked again is read from the table before any row.
        """
        table, lengths, rows, row = self._bruhat, self.lengths, self.rows, self.row
        nx, ny = self.number(x), self.number(y)
        answer = table.get((nx, ny))
        if answer is not None:
            return answer
        lx, ly = lengths[nx], lengths[ny]
        if lx < ly:
            self._check_walk(y, ly)
        passed = []
        # y's length drops by one per step, so a descent table that is wrong
        # shows up as more than length(y) steps, not as an endless loop
        for _ in range(ly + 1):
            if nx == ny:
                answer = True
                break
            if lx >= ly:
                answer = False
                break
            key = (nx, ny)
            answer = table.get(key)
            if answer is not None:
                break
            passed.append(key)
            step = self._first_step(ny)
            if step is None:
                raise InvariantViolation(f"{self.elements[ny]} of length {ly} has no left descent")
            k, ny = step
            ly -= 1
            sx, down = (rows[nx] or row(nx))[k]
            if down:
                nx, lx = sx, lx - 1
        else:
            raise InvariantViolation(f"{y} of length {self.length(y)} has more left descents in a row")
        for key in passed:
            table.put(key, answer)
        return answer

    def bruhat_lower_set(self, x: ExtWeylElement) -> set[ExtWeylElement]:
        """All y <= x, by property Z: from {omega}, each letter s_k of x's min
        reduced word s_1 ... s_r omega, from s_r down to s_1, adds s_k z for
        every z in the set, read off z's row."""
        self.start_query()
        word, n = self._walk(x)
        lower, rows, row = {n}, self.rows, self.row
        for k in reversed(word):
            lower |= {(rows[z] or row(z))[k][0] for z in lower}
        return set(map(self.elements.__getitem__, lower))

    # -- element literals ---------------------------------------------------

    def parse_element(self, literal: str) -> ExtWeylElement:
        """Parse "w : t" with w a word in named generators, t a Y-vector."""
        text = literal.strip()
        if not text:
            raise MalformedInput("empty element literal")
        word_part, _, trans_part = text.partition(":")
        acc = self.identity
        for tok in word_part.split():
            if tok == "e":
                continue
            acc = self.mul(acc, self._gen_elements[self.gen_by_name(tok)])
        trans_part = trans_part.strip()
        if trans_part:
            try:
                coords = tuple(int(c) for c in trans_part.split(","))
            except ValueError as exc:
                raise MalformedInput(f"bad translation in {literal!r}") from exc
            acc = self.mul(acc, self.translation(coords))
        return acc

    def format_element(self, x: ExtWeylElement) -> str:
        return f"{self._weyl_words[x.w]} : {','.join(str(c) for c in x.t)}"

    def random_element(self, rng, bound: int) -> ExtWeylElement:
        w = rng.randrange(self.datum.weyl_order)
        t = tuple(rng.randint(-bound, bound) for _ in range(self.datum.y_rank))
        return ExtWeylElement(w, t)
