"""Slow reference routes that the library's fast paths replaced.

Each one is the library's earlier implementation of the same answer, kept
only to check the current one against.
"""

import contextlib
import heapq
import itertools
import sys
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from alcove_hecke.errors import BoundsTooLarge, InvariantViolation
from alcove_hecke.ext_weyl import ExtWeylElement
from alcove_hecke.groth_calc import SimpleLabel
from alcove_hecke.hecke import (MAX_HECKE_LENGTH, HeckeElement, _pack, _pack_table, _unpack_table,
                                _width)
from alcove_hecke.laurent import ONE, V, V_INV, ZERO, LaurentPolynomial
from alcove_hecke.memo import Memo
from alcove_hecke.root_datum import (identity_matrix, mat_apply, pair, solve_smith, vec_add,
                                     vec_neg, vec_scale, vec_sub)


@contextlib.contextmanager
def deep_recursion(limit=10_000):
    """Run a recursive oracle on long chains under a raised recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def bruhat_recursive(ext, x, y, table=None):
    """x <= y in the extended Bruhat order by the lifting-property recursion:
    one Python frame pair per step of y's descent chain, lengths looked up at
    every step.  Long chains need a raised recursion limit."""
    if x == y:
        return True
    if not ext.in_affine_subgroup(ext.mul(x, ext.inv(y))):
        return False
    return _bruhat_aff(ext, x, y, {} if table is None else table)


def _bruhat_aff(ext, x, y, table):
    if x == y:
        return True
    if ext.length(x) >= ext.length(y):
        return False
    key = (x, y)
    if key not in table:
        k, sy = next((k, sy) for k, (sy, down) in enumerate(ext.left_steps(y)) if down)
        sx, down = ext.left_steps(x)[k]
        table[key] = _bruhat_aff(ext, sx if down else x, sy, table)
    return table[key]


def lower_set_by_products(ext, x):
    """[e, x] as the subword products of x's min reduced word s_1 ... s_r
    omega: every partial product times each letter's generator element by
    `mul`, then every result times omega."""
    word, omega = ext.reduced_expression(x)
    partial = {ext.identity}
    for g in word:
        ge = ext.gen_element(g)
        partial |= {ext.mul(p, ge) for p in partial}
    return {ext.mul(p, omega) for p in partial}


def box_coords_by_point(alc, x):
    """ceil <alpha, x^{-1}.p0> for the simple roots alpha, on the rational
    point p0 = varsigma / h: x^{-1}.p0 = w^{-1}(varsigma) / h - lambda, in
    numerators over h by the Y-action of w^{-1}."""
    d, h = alc.datum, denominator(alc.datum)
    q = d.act_y(d.weyl_inv[x.w], d.varsigma)
    return tuple(-((h * pair(alpha, x.t) - pair(alpha, q)) // h) for alpha in d.simple_roots)


def triangle_by_products(alc, x):
    """x t_mu w0 t_{-mu} for mu the lift of x's box coordinates on the
    rational point, as three products by `mul`."""
    ext = alc.ext
    mu = alc.datum.section_lift(box_coords_by_point(alc, x))
    return ext.mul_many(x, ExtWeylElement(0, mu), ext.w0, ExtWeylElement(0, vec_neg(mu)))


def triangle_inverse_by_products(alc, v):
    """v t_s w0 t_{-s} for s = mu - varsigma, mu the lift of v's box
    coordinates on the rational point, as three products by `mul`."""
    ext = alc.ext
    shift = vec_sub(alc.datum.section_lift(box_coords_by_point(alc, v)), alc.datum.varsigma)
    return ext.mul_many(v, ExtWeylElement(0, shift), ext.w0, ExtWeylElement(0, vec_neg(shift)))


def denominator(d):
    """h = 1 + the largest height of a positive root: varsigma / h lies in
    the fundamental alcove, 0 < <beta, varsigma> < h for every beta > 0."""
    return 1 + max(d.root_heights)


def restricted_by_scan(alc):
    """All restricted elements of a semisimple datum, sorted: for each Weyl
    index w, the lifts of the 2^rank pairing patterns in {-1, 0}, each kept
    when its box coordinates on the rational point are all 1."""
    d = alc.datum
    out = []
    for w in range(d.weyl_order):
        for cs in itertools.product((-1, 0), repeat=d.rank):
            x = ExtWeylElement(w, d.section_lift(cs))
            if all(c == 1 for c in box_coords_by_point(alc, x)):
                out.append(x)
    return sorted(out)


def simple_label_by_lift(groth, x):
    """x's simple label through its restricted split x = y t_lam, y = w t_tau,
    lam the lift of 1 - c for the box coordinates c on the rational point:
    rep w t_{tau'} for tau' the section lift of tau's simple-root pairings,
    shift tau - tau' + lam."""
    d = groth.datum
    lam = d.section_lift(tuple([1 - c for c in box_coords_by_point(groth.alc, x)]))
    y = ExtWeylElement(x.w, vec_sub(x.t, lam))
    tau = d.section_lift(tuple([pair(alpha, y.t) for alpha in d.simple_roots]))
    return SimpleLabel(ExtWeylElement(y.w, tau), vec_add(vec_sub(y.t, tau), lam))


def omegas_by_box(ext, bound):
    """All length-zero elements whose translation has sup-norm <= bound,
    sorted: a scan of the |W| (2 bound + 1)^n pairs (w, t), one length each."""
    found = []
    for w in range(ext.datum.weyl_order):
        for t in itertools.product(range(-bound, bound + 1), repeat=ext.datum.y_rank):
            x = ExtWeylElement(w, t)
            if ext.length(x) == 0:
                found.append(x)
    return sorted(found)


def coroot_lattice_contains(d, lam):
    """Whether lam lies in the coroot lattice, by one Smith solve of the
    simple-coroot system."""
    return solve_smith(d.coroot_smith, d.check_y(lam)) is not None


def as_polys(entry):
    """A table entry y -> raw coefficient dict as the map y -> polynomial."""
    return {y: LaurentPolynomial(c) for y, c in entry.items()}


def _add_shifted(out, w, coeffs, shift, scale=1):
    """out[w] += scale * v^shift * coeffs, in place, on a dict of out's own."""
    acc = out.setdefault(w, {})
    for k, c in coeffs.items():
        acc[k + shift] = acc.get(k + shift, 0) + scale * c


def canonical(ext, x, table, in_module):
    """The canonical element of x, element-keyed, as the read-only map
    y -> raw coefficient: the regular module when in_module is None, the
    spherical module when it is the W_ext^S test.  The recursion the library
    ran on elements before it numbered them, with its own constants: (H_s + v)
    times the canonical element of s x, read off `ExtWeyl.left_steps`, then
    the constant terms below x cleared by canonical elements of `table`."""
    lx = ext.length(x)
    if lx > MAX_HECKE_LENGTH:
        raise BoundsTooLarge(f"{ext.format_element(x)} has length {lx} > {MAX_HECKE_LENGTH}")
    if lx == 0:
        return MappingProxyType({x: {0: 1}})
    i, rest = ext.first_descent(x)
    out = {}
    for y, p in table[rest].items():
        sy, down = ext.left_steps(y)[i]
        if down or in_module is None or in_module(sy):
            # M_sy + v^{-1} M_y when sy < y, M_sy + v M_y when sy > y
            _add_shifted(out, sy, p, 0)
            _add_shifted(out, y, p, -1 if down else 1)
        else:  # sy = y t with t finite simple: (v + v^{-1}) M_y
            _add_shifted(out, y, p, 1)
            _add_shifted(out, y, p, -1)
    for w, c0 in [(w, p.get(0, 0)) for w, p in out.items() if w != x and p.get(0)]:
        for y, q in table[w].items():
            _add_shifted(out, y, q, 0, -c0)
    support = {}
    for y, p in out.items():
        p = {k: c for k, c in p.items() if c}
        if p:
            support[y] = p
    if support.get(x) != {0: 1}:
        raise InvariantViolation(f"canonical basis not unitriangular at {x}")
    for y, p in support.items():
        if y != x and min(p) < 1:
            raise InvariantViolation(f"lower coefficient at {y} in the canonical element of {x}")
    return MappingProxyType(support)


def back_substitute(ext, spherical, x, y):
    """m^{x,y} for x, y in one coset, element-keyed, over a spherical table
    of `canonical`: by decreasing length over the support closure of N_x,
    each length read from `ExtWeyl.length`, walked no lower than y."""
    ly = ext.length(y)
    values = {x: {0: 1}}
    heap = [(-ext.length(x), x)]
    while heap and heap[0][1] != y:
        neg_lu, u = heapq.heappop(heap)
        m = {j: d for j, d in values.pop(u).items() if d}
        for z, p in spherical[u].items():
            lz = ext.length(z)
            if lz < ly or z == u or (lz == ly and z != y):
                continue
            if z not in values:
                values[z] = {}
                heapq.heappush(heap, (-lz, z))
            sign = 1 if (lz - neg_lu) % 2 else -1
            for j, d in m.items():
                _add_shifted(values, z, p, j, sign * d)
    result = LaurentPolynomial(values.get(y, {}))
    bound = ext.length(x) + ext.length(ext.w0)
    if result and not (-bound <= result.min_exponent() and result.max_exponent() <= bound):
        raise InvariantViolation(f"{result} exceeds the degree bound {bound}")
    return result


def per_coset_tables(hecke):
    """The regular and the spherical canonical-element tables of the
    element-keyed recursion (`canonical`) run directly on each element
    asked, in its own W_aff-coset: nothing is moved into W_aff by a
    length-zero element, nothing relabeled.  Their entries map y to raw
    coefficient dicts, as the library's do over numbers."""
    ext = hecke.ext
    regular = Memo(lambda x: canonical(ext, x, regular, None))
    spherical = Memo(lambda w: canonical(ext, w, spherical, hecke.alc.in_wexts))
    return regular, spherical


class ElementTable(Mapping):
    """A number-keyed table of a `HeckeAlgebra` (`_kl` or `_spherical`), read
    and planted by element of W_aff: an entry reads as the map element ->
    raw coefficient dict, each stored int unpacked at the parity of
    len(x) - len(y), and an entry written is packed the same way, so a
    coefficient of the other parity raises `InvariantViolation`, and stored
    as the read-only map over the elements' numbers."""

    def __init__(self, hecke, table):
        self.ext, self.table = hecke.ext, table

    def element(self, n):
        return self.ext.elements[n]

    def _parity(self, x, y):
        return (self.ext.length(x) - self.ext.length(y)) % 2

    def __getitem__(self, x):
        elements = self.ext.elements
        return {(y := elements[n]): _unpack_table(c, self._parity(x, y))
                for n, c in self.table[self.ext.number(x)].items()}

    def __setitem__(self, x, entry):
        number = self.ext.number
        self.table[number(x)] = MappingProxyType(
            {number(y): _pack_table(c, self._parity(x, y)) for y, c in entry.items()})

    def __iter__(self):
        return iter([self.ext.elements[n] for n in self.table])

    def __len__(self):
        return len(self.table)


def numbered(hecke, a):
    """(packed, slot, low) for the HeckeElement a, all of whose terms lie in
    W_aff: a over `ExtWeyl` numbers, packed at the width slot and offset low
    that `hecke.bar` would take, in the form its helpers read."""
    ext = hecke.ext
    raw = {ext.number(w): p.coeffs for w, p in a.items()}
    slot, low = _width(list(raw.values()), max(ext.lengths[n] for n in raw))
    return {n: _pack(c, slot, low) for n, c in raw.items()}, slot, low


def inverse_m_per_coset(hecke, spherical, x):
    """m^{x,z} for every z in the support closure of N_x, back-substituted
    over a table of `per_coset_tables` by decreasing length: for z != x,
    m^{x,z} = -sum_u (-1)^{len u + len z} m^{x,u} mbar(z, u) over the u
    already solved."""
    ext = hecke.ext
    closure, stack = {x}, [x]
    while stack:
        for z in spherical[stack.pop()]:
            if z not in closure:
                closure.add(z)
                stack.append(z)
    values = {}
    for z in sorted(closure, key=ext.length, reverse=True):
        lz = ext.length(z)
        acc = ONE if z == x else ZERO
        for u, m in values.items():
            p = spherical[u].get(z)
            if p:
                term = m * LaurentPolynomial(p)
                acc = acc + (term if (ext.length(u) + lz) % 2 else -term)
        values[z] = acc
    return values


def pushed(eng, x, n):
    """x t_{-n varsigma}, as a group product."""
    return eng.ext.mul(x, eng.ext.translation(vec_scale(-n, eng.datum.varsigma)))


def porder_recursive(eng, x, y):
    """The periodic order through group-product pushes and the recursive
    Bruhat comparison."""
    n = max(eng.order._push_steps(x), eng.order._push_steps(y))
    return bruhat_recursive(eng.ext, pushed(eng, x, n), pushed(eng, y, n))


def in_wexts_positive_roots(alc, x):
    """The chamber test over every positive root: x^{-1}.p0 pairs positively
    with each beta > 0, from the point w^{-1}(p0) - h lambda itself."""
    d, h = alc.datum, denominator(alc.datum)
    q = d.act_y(d.weyl_inv[x.w], d.varsigma)
    return all(pair(beta, q) > h * pair(beta, x.t) for beta in d.positive_roots)


def simple_rows_by_action(alc):
    """Per Weyl index w, <alpha, w^{-1}(varsigma)> for the simple roots
    alpha, by the Y-action of w^{-1}."""
    d = alc.datum
    return tuple(
        tuple(pair(alpha, d.act_y(d.weyl_inv[w], d.varsigma)) for alpha in d.simple_roots)
        for w in range(d.weyl_order)
    )


def hermite_rows(basis):
    """Row-echelon form over Z of a lattice basis, with pivot columns."""
    rows = [list(v) for v in basis]
    out = []
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        nonzero = [r for r in rows if r[col] != 0]
        if not nonzero:
            col += 1
            continue
        piv = min(nonzero, key=lambda r: abs(r[col]))
        rows.remove(piv)
        if piv[col] < 0:
            piv = [-c for c in piv]
        reduced = []
        for r in rows:
            q = r[col] // piv[col]
            reduced.append([a - q * b for a, b in zip(r, piv)])
        rows = [r for r in reduced if any(r)]
        if any(r[col] != 0 for r in rows):
            rows.append(piv)
            continue
        out.append((piv, col))
        col += 1
    return out


def hermite_reduce(rows, tau):
    """The representative of tau modulo the lattice of `hermite_rows`: each
    pivot coordinate reduced into [0, pivot)."""
    cur = list(tau)
    for row, pivot_col in rows:
        q = cur[pivot_col] // row[pivot_col]
        cur = [a - q * b for a, b in zip(cur, row)]
    return tuple(cur)


def bar_invariance_gauss_jordan(engine, x):
    """The canonical element of x as the solution of its bar-invariance system.

    Unknown polynomials c_y in v*Z[v] for y < x are determined by the linear
    system bar(H_x + sum c_y H_y) = H_x + sum c_y H_y, assembled through the
    standard-basis bar expansion and solved by sparse Gauss-Jordan elimination
    over Q: each equation is kept as a dict of its nonzero exact entries.
    The library's solver back-substitutes instead.
    """
    ext, hecke = engine.ext, engine.hecke
    lower = sorted(ext.bruhat_lower_set(x) - {x}, key=lambda z: (ext.length(z), z))
    lx = ext.length(x)
    variables = [(y, k) for y in lower for k in range(1, lx - ext.length(y) + 1)]
    rhs = len(variables)  # the column holding the right-hand side
    bars = {y: hecke.bar(hecke.standard(y)) for y in lower + [x]}
    # rows: (z, exponent) -> linear equation {column: coefficient}
    rows: dict[tuple, dict[int, int]] = {}

    def add(z, exp, col, value):
        row = rows.setdefault((z, exp), {})
        row[col] = row.get(col, 0) + value

    # bar(u) - u = 0 with u = H_x + sum a_{y,k} v^k H_y
    for z, p in bars[x].items():
        for exp, c in p.coeffs.items():
            add(z, exp, rhs, -c)  # move constants to the rhs with a sign flip
    add(x, 0, rhs, 1)
    for col, (y, k) in enumerate(variables):
        for z, p in bars[y].items():
            for exp, c in p.coeffs.items():
                add(z, exp - k, col, c)
        add(y, k, col, -1)
    # Gauss-Jordan elimination over Q; column col is pivoted in row col
    matrix = [
        {col: Fraction(c) for col, c in entries.items() if c}
        for _, entries in sorted(rows.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
    ]
    for col in range(rhs):
        piv = next((i for i in range(col, len(matrix)) if col in matrix[i]), None)
        if piv is None:
            raise ArithmeticError("underdetermined bar-invariance system")
        matrix[col], matrix[piv] = matrix[piv], matrix[col]
        f = matrix[col][col]
        pivot = matrix[col] = {k: c / f for k, c in matrix[col].items()}
        for i, row in enumerate(matrix):
            if i != col and col in row:
                f = row[col]
                for k, c in pivot.items():
                    val = row.get(k, 0) - f * c
                    if val:
                        row[k] = val
                    else:
                        del row[k]
    if any(row.get(rhs, 0) != 0 for row in matrix[rhs:]):
        raise ArithmeticError("inconsistent bar-invariance system")
    solution = {}
    for col, var in enumerate(variables):
        val = matrix[col].get(rhs, 0)
        if val.denominator != 1:
            raise InvariantViolation(f"non-integral coefficient {val} for {var} in the solver")
        solution[var] = int(val)
    out = {x: ONE}
    for y in lower:
        poly = LaurentPolynomial(
            {k: solution[(y, k)] for k in range(1, lx - ext.length(y) + 1)}
        )
        if poly:
            out[y] = poly
    return out


def kostant_multiplicity_per_term(sat, mu, nu):
    """The Kostant alternating sum with one lattice solve per Weyl element:
    the coordinates of w(mu + rho) - (nu + rho), solved afresh for every w."""
    d = sat.datum
    two_rho = sat._two_rho_vee
    total = 0
    for el in d.weyl_elements:
        shifted = vec_sub(d.act_y(el.index, two_rho), two_rho)
        if any(c % 2 for c in shifted):
            raise InvariantViolation(f"w(2rho) - 2rho = {shifted} is not even")
        r_w = tuple(c // 2 for c in shifted)  # w(rho_vee) - rho_vee
        arg = vec_add(d.act_y(el.index, mu), vec_sub(r_w, nu))
        coords = solve_smith(d.coroot_smith, arg)
        if coords is None:
            continue
        p = sat.kostant_partition(coords)
        total += -p if el.length % 2 else p
    return total


def mbar(hecke, y, w):
    """mbar(y, w) off the full group, as h(y w0, w w0): the Kazhdan-Lusztig
    polynomial of the maximal coset representatives."""
    ext = hecke.ext
    return hecke.kl_basis(ext.mul(w, ext.w0)).coeff(ext.mul(y, ext.w0))


def hecke_combination(terms):
    """sum p a over the pairs (p, a) of a polynomial and a Hecke element."""
    out = {}
    for p, a in terms:
        for w, q in a.items():
            out[w] = out.get(w, ZERO) + p * q
    return HeckeElement(out)


def hecke_product(ext, a, b):
    """a b, each term p H_x of a acting as p H_{s_1} ... H_{s_r} H_omega on b,
    one generator at a time: H_s H_w = H_sw, plus (v^{-1} - v) H_w when
    sw < w, with group products and lengths."""
    out = {}
    for x, p in a.items():
        word, omega = ext.reduced_expression(x)
        acc = {ext.mul(omega, w): p * q for w, q in b.items()}
        for g in reversed(word):
            s = ext.gen_element(g)
            step = {}
            for w, q in acc.items():
                sw = ext.mul(s, w)
                step[sw] = step.get(sw, ZERO) + q
                if ext.length(sw) < ext.length(w):
                    step[w] = step.get(w, ZERO) + (V_INV - V) * q
            acc = step
        for w, q in acc.items():
            out[w] = out.get(w, ZERO) + q
    return HeckeElement(out)


def reflection(root, coroot):
    """The action x -> x - <x, coroot> root on X, as a matrix."""
    n = len(root)
    return tuple(tuple(int(r == c) - root[r] * coroot[c] for c in range(n)) for r in range(n))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def x_actions_by_words(d):
    """Each Weyl element's action on X, as the product of the simple
    reflections x -> x - <x, alpha_i^vee> alpha_i along its word."""
    gens = [reflection(alpha, coroot) for alpha, coroot in zip(d.simple_roots, d.simple_coroots)]
    actions = []
    for el in d.weyl_elements:
        m = identity_matrix(d.x_rank)
        for i in el.word:
            m = mat_mul(m, gens[i])
        actions.append(m)
    return actions


def weyl_tables_by_products(simple_roots, simple_coroots):
    """The finite Weyl group by breadth-first matrix products of simple
    reflections, and its multiplication table by one matrix product and one
    matrix-keyed lookup per pair of elements: (words, X-actions, Y-actions,
    table, inverses).  The Y-actions are products of the reflections
    y -> y - <alpha_i, y> alpha_i^vee along the same words."""
    ident = identity_matrix(len(simple_roots[0]))
    gens = [reflection(alpha, coroot) for alpha, coroot in zip(simple_roots, simple_coroots)]
    y_gens = [reflection(coroot, alpha) for alpha, coroot in zip(simple_roots, simple_coroots)]
    words, actions, y_actions = [()], [ident], [ident]
    index_of = {ident: 0}
    queue = [0]
    while queue:
        cur = queue.pop(0)
        for i, gen in enumerate(gens):
            mx = mat_mul(actions[cur], gen)
            if mx in index_of:
                continue
            index_of[mx] = len(actions)
            words.append(words[cur] + (i,))
            actions.append(mx)
            y_actions.append(mat_mul(y_actions[cur], y_gens[i]))
            queue.append(index_of[mx])
    mult = tuple(tuple(index_of[mat_mul(a, b)] for b in actions) for a in actions)
    inv = tuple(row.index(0) for row in mult)
    return words, actions, y_actions, mult, inv


def cartan_components(cartan):
    """Connected components of the Dynkin graph, as sorted index lists, by a
    depth-first search over the Cartan matrix."""
    n = len(cartan)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = []
        stack = [start]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            comp.append(i)
            for j in range(n):
                if j != i and cartan[i][j] != 0:
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def highest_root_index(d, comp):
    """The index of the component's highest root: the root of greatest height
    whose coroot, solved in the simple coroots through the Smith factors, is
    supported in the component."""
    return max(
        (k for k, cv in enumerate(d.positive_coroots)
         if all(c == 0 for i, c in enumerate(solve_smith(d.coroot_smith, cv)) if i not in comp)),
        key=d.root_heights.__getitem__,
    )


def generator_elements_by_kind(ext):
    """Each generator as a group element, one branch per kind: s_i is the
    simple reflection, and the affine generator of a component with highest
    root theta is t_{theta^vee} s_theta = s_theta t_{-theta^vee}."""
    d = ext.datum
    actions = x_actions_by_words(d)

    def reflection_index(root, coroot):
        return actions.index(reflection(root, coroot))

    out = {}
    for g in ext.generators:
        if g.kind == "finite":
            root, coroot = d.simple_roots[g.index], d.simple_coroots[g.index]
            out[g] = ExtWeylElement(reflection_index(root, coroot), ext.identity.t)
        else:
            theta, theta_vee = d.highest_roots[g.index], d.highest_short_coroots[g.index]
            out[g] = ExtWeylElement(reflection_index(theta, theta_vee), vec_neg(theta_vee))
    return out


def descent_rows_by_kind(ext):
    """Per Weyl index w, the pairs (b, c) with s (w t_lam) < w t_lam exactly
    when <b, lam> < c, one threshold rule per kind.  With a = w^{-1} alpha_i,
    s_i x < x when <a, lam> < t, t = [a < 0]; with a = w^{-1} theta, the
    affine s x < x when <a, lam> >= t, t = 1 + [a < 0], stored as
    (-a, 1 - t)."""
    d = ext.datum
    actions = x_actions_by_words(d)
    positive = set(d.positive_roots)
    rows = []
    for w in range(d.weyl_order):
        row = []
        for g in ext.generators:
            if g.kind == "finite":
                a = mat_apply(actions[d.weyl_inv[w]], d.simple_roots[g.index])
                row.append((a, 0 if a in positive else 1))
            else:
                a = mat_apply(actions[d.weyl_inv[w]], d.highest_roots[g.index])
                row.append((vec_neg(a), 0 if a in positive else -1))
        rows.append(tuple(row))
    return tuple(rows)


def affine_cartan_entry(ext, a, b):
    """<root of a, coroot of b>, with (alpha_i, alpha_i^vee) for s_i and
    (-theta, -theta^vee) for the affine generator of a component."""
    d = ext.datum

    def root_coroot(g):
        if g.kind == "finite":
            return d.simple_roots[g.index], d.simple_coroots[g.index]
        return vec_neg(d.highest_roots[g.index]), vec_neg(d.highest_short_coroots[g.index])

    return pair(root_coroot(a)[0], root_coroot(b)[1])


def omega_left_form(ext, x, strategy="min"):
    """Write x = omega * s_1' ... s_r' (length-zero part on the left), each
    s_i' = omega^{-1} s_i omega for the `strategy` word x = s_1 ... s_r omega.

    The conjugated letters stay in S_aff because the length-zero subgroup
    acts on the affine Weyl group by Coxeter group automorphisms."""
    word, omega = ext.reduced_expression(x, strategy=strategy)
    omega_inv = ext.inv(omega)
    by_element = {ext.gen_element(g): g for g in ext.generators}
    return omega, [by_element[ext.mul_many(omega_inv, ext.gen_element(g), omega)] for g in word]


def projective_filtration_conjugated(groth, x, strategy="min"):
    """The projective filtration's multiset by relabelling the seed by
    omega^{-1} first, then crossing the walls of the conjugated word
    s_1' ... s_r' of y = t_varsigma w0 x^{-1} = omega s_1' ... s_r'."""
    ext = groth.ext
    y = ext.mul_many(ExtWeylElement(0, groth.datum.varsigma), ext.w0, ext.inv(x))
    omega, word = omega_left_form(ext, y, strategy)
    f = groth.xi_omega(groth.seed_filtration(), ext.inv(omega))
    for g in word:
        f = groth.xi_s(f, g)
    return f
