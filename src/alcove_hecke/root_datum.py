"""Based root data with exact integer pairings.

A root datum is given by matching lists of simple roots (coordinates in the
character lattice X) and simple coroots (coordinates in the cocharacter
lattice Y); the pairing X x Y -> Z is the coordinate dot product.  The loader
validates the data (finite-type Cartan matrix, torsion-free X/ZR) and derives
everything downstream modules need: positive roots and coroots, the finite
Weyl group with its Y-action matrices, root permutations and inverses, the
longest element, the sum of positive roots, the section of
Y -> Hom(ZR, Z), and the distinguished coweight pairing to 1 with every
simple root.  Downstream modules read these facts and do not re-derive them.

The root closure keeps each simple reflection's permutation of `roots`, the
positive roots followed by their negatives.  The Weyl group is found by a
breadth-first search that composes these permutations and knows an element
by where it sends the simple roots; only a new element gets a Y-action, by
one rank-one update.  The group is kept as these permutations: products are
left to `ExtWeyl`, inverses are read off the search's keys, and w makes the
positive root beta negative exactly when its permutation sends beta past the
positive roots.  The loader checks that each w makes as many positive roots
negative as its length.

>>> d = load_root_datum("A2_adj")
>>> d.weyl_order, len(d.positive_roots), d.two_rho, d.varsigma
(6, 3, (2, 2), (1, 1))
>>> pair(d.two_rho, d.simple_coroots[0])
2
>>> d.roots
((0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1))
>>> s1 = d.weyl_elements[1]
>>> s1.word, d.root_perms[s1.index], d.weyl_inv[s1.index]
((0,), (2, 4, 0, 5, 1, 3), 1)
>>> e = load_root_datum("A1xA1_adj")
>>> e.components, e.highest_roots
(((0,), (1,)), ((1, 0), (0, 1)))

All structures are immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import mul

from .errors import (
    BoundsTooLarge,
    CartanNotFiniteType,
    DimensionMismatch,
    InvariantViolation,
    MalformedInput,
    TorsionQuotient,
    UnknownPreset,
)

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

# |W(F4)|, the largest Weyl group of rank 4.  `ExtWeyl` builds a row of |W|
# products the first time an element is a left factor, and every element can
# be one, so a long run can still hold |W|^2 entries
MAX_WEYL_ORDER = 1_152

PRESETS: dict[str, dict] = {
    # Adjoint data: X is the root lattice, so X/ZR is trivially torsion-free.
    "A1_adj": {"simple_roots": [[1]], "simple_coroots": [[2]]},
    "A2_adj": {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, -1], [-1, 2]]},
    "B2_adj": {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, -1], [-2, 2]]},
    "A1xA1_adj": {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, 0], [0, 2]]},
}


def pair(xvec: Vector, yvec: Vector) -> int:
    """The pairing <.,.>: X x Y -> Z (coordinate dot product)."""
    if len(xvec) != len(yvec):
        raise DimensionMismatch(f"cannot pair {xvec} with {yvec}")
    return sum(a * b for a, b in zip(xvec, yvec))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def vec_scale(c: int, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def mat_apply(m: Matrix, v: Vector) -> Vector:
    return tuple([sum(map(mul, row, v)) for row in m])


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# --- small exact integer linear algebra (Smith normal form based) ---


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*mat*V = D diagonal, U and V unimodular.

    The diagonal entries satisfy the divisibility chain d1 | d2 | ... so they
    are the invariant factors of the integer matrix.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    d = [list(r) for r in mat]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):  # row_i += c * row_j
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, c):  # col_i += c * col_j
        for r in d:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    t = 0
    while t < min(rows, cols):
        # find the nonzero entry of smallest magnitude in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                add_row(i, t, -(d[i][t] // d[t][t]))
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                add_col(j, t, -(d[t][j] // d[t][t]))
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def solve_smith(factors, rhs) -> list[int] | None:
    """One integer solution x of mat*x = rhs, or None, for the matrix whose
    Smith factors (U, D, V) are given; deterministic."""
    u, d, v = factors
    rows, cols = len(u), len(v)
    c = [sum(u[i][k] * rhs[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return [sum(v[i][k] * y[k] for k in range(cols)) for i in range(cols)]


def _principal_minors_positive(c: list[list[int]]) -> bool:
    """True iff every principal minor of the square matrix is positive.

    This is the exact finite-type criterion for a generalized Cartan matrix.
    """
    n = len(c)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[c[i][j] for j in idx] for i in idx]
        if _det(sub) <= 0:
            return False
    return True


def _det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


@dataclass(frozen=True)
class WeylElement:
    """One element of the finite Weyl group: its reduced word and its action
    on Y.  Its permutation of the roots is in `RootDatum.root_perms`."""

    index: int
    word: tuple[int, ...]  # reduced word in simple reflection indices
    y_action: Matrix  # action on Y-vectors

    @property
    def length(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class RootDatum:
    x_rank: int
    y_rank: int
    simple_roots: Matrix
    simple_coroots: Matrix
    cartan: Matrix
    positive_roots: Matrix
    positive_coroots: Matrix
    roots: Matrix  # the positive roots, then their negatives in the same order
    root_heights: tuple[int, ...]
    coroot_in_simple: Matrix  # coordinates of each positive coroot in simple coroots
    weyl_elements: tuple[WeylElement, ...]
    weyl_inv: Vector
    # per Weyl index w, for each root beta: the index in `roots` of w(beta);
    # w(beta) < 0 exactly when that index lies past the positive roots
    root_perms: tuple[tuple[int, ...], ...]
    w0: int
    two_rho: Vector
    varsigma: Vector
    components: tuple[tuple[int, ...], ...]
    highest_roots: Matrix  # per component
    highest_short_coroots: Matrix  # per component; translation part of affine generators
    section: Matrix  # right inverse of Y -> Hom(ZR, Z), one column per simple root
    orthogonal_basis: Matrix  # basis of {y in Y : <alpha, y> = 0 for all roots}
    # Smith factors (U, D, V) of the matrix with the simple coroots as columns
    coroot_smith: tuple[Matrix, Matrix, Matrix]
    name: str = "custom"

    # -- basic queries ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def weyl_order(self) -> int:
        return len(self.weyl_elements)

    def check_y(self, v: Vector) -> Vector:
        v = tuple(int(c) for c in v)
        if len(v) != self.y_rank:
            raise DimensionMismatch(f"expected {self.y_rank} coordinates, got {len(v)}")
        return v

    def is_dominant(self, lam: Vector) -> bool:
        lam = self.check_y(lam)
        return all(pair(alpha, lam) >= 0 for alpha in self.simple_roots)

    def act_y(self, w: int, v: Vector) -> Vector:
        return mat_apply(self.weyl_elements[w].y_action, v)

    def section_lift(self, coords: tuple[int, ...]) -> Vector:
        """Lift a functional on ZR (values on the simple roots) to Y."""
        if len(coords) != self.rank:
            raise DimensionMismatch("one value per simple root required")
        return mat_apply(self.section, coords)


def _generate_root_system(simple_roots: Matrix, simple_coroots: Matrix):
    """Closure of the simple root/coroot pairs under simple reflections.

    s_i permutes the positive roots other than alpha_i, so the closure from
    the simple roots, skipping s_i(alpha_i) = -alpha_i, meets only positive
    roots.  Each root carries its simple-root coordinates, of which s_i
    lowers the i-th by <beta, alpha_i^vee>, and its coroot carries its
    simple-coroot coordinates, of which s_i lowers the i-th by
    <alpha_i, beta^vee>.  The roots come in order of increasing height, the
    sum of their coordinates, so the supports give the Dynkin components:
    each component is a maximal support, and its highest root is the last
    root supported on all of it.

    The closure computes s_i(beta) for every positive root beta and keeps
    it: with the roots listed positive first, then their negatives in the
    same order, each s_i is returned as its permutation of that list, and
    s_i(-beta) = -s_i(beta) gives the second half.
    """
    rank = len(simple_roots)
    unit = identity_matrix(rank)
    pos = {simple_roots[i]: (simple_coroots[i], unit[i], unit[i]) for i in range(rank)}
    images = {}  # beta -> (s_1 beta, ..., s_r beta)
    frontier = list(simple_roots)
    while frontier:
        beta = frontier.pop()
        beta_vee, coords, coords_vee = pos[beta]
        images[beta] = row = []
        for i in range(rank):
            # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, same shape on coroots
            c = pair(beta, simple_coroots[i])
            new_root = vec_sub(beta, vec_scale(c, simple_roots[i]))
            row.append(new_root)
            if new_root in pos or vec_neg(new_root) in pos:
                continue
            cc = pair(simple_roots[i], beta_vee)
            pos[new_root] = (
                vec_sub(beta_vee, vec_scale(cc, simple_coroots[i])),
                vec_sub(coords, vec_scale(c, unit[i])),
                vec_sub(coords_vee, vec_scale(cc, unit[i])),
            )
            frontier.append(new_root)
    order = sorted(pos, key=lambda beta: (sum(pos[beta][1]), beta))
    n = len(order)
    index = {beta: k for k, beta in enumerate(order)}
    index.update((vec_neg(beta), n + k) for k, beta in enumerate(order))
    perms = []
    for i in range(rank):
        top = [index[images[beta][i]] for beta in order]
        perms.append(tuple(top + [(k + n) % (2 * n) for k in top]))
    # the roots, then their coroots, simple-root and simple-coroot
    # coordinates, then each simple reflection's root permutation
    return (tuple(order), *(tuple(pos[beta][k] for beta in order) for k in range(3)), tuple(perms))


def _enumerate_weyl(n: int, roots: Matrix, coroots: Matrix, simple_roots: Matrix, simple_perms):
    """The finite Weyl group by a breadth-first search along the simple
    reflections.

    Each element is found as a permutation of `roots`: perm[j] is the index
    of w(roots[j]), and w s_i has the permutation perm o perm_{s_i}, with
    perm_{s_i} from `simple_perms`.  W acts faithfully on the roots, and a
    linear map of their span is fixed by its images of the simple roots, so
    those r indices are the key that tells a new element from a known one.

    Each element but the identity is first reached as w = w_p s_i, and its
    word is that of w_p followed by i.  Only a new element gets its
    permutation and Y-action: s_i sends y to y - <alpha_i, y> alpha_i^vee, so
    N s_i = N - (N alpha_i^vee)(alpha_i)^T for the parent's Y-action N, and
    N alpha_i^vee = w_p(alpha_i)^vee is the coroot of the root that the
    parent's permutation names, read from `coroots`, which is aligned with
    `roots`.  Raises `BoundsTooLarge` as soon as the search finds more than
    `MAX_WEYL_ORDER` elements.

    w^{-1} sends alpha_i to the root that w sends to alpha_i, so the key of
    w^{-1} is the positions where w's permutation holds the simple roots.
    """
    simple = [roots.index(alpha) for alpha in simple_roots]
    # where s_i sends each simple root, so that w s_i's key is r reads of w's permutation
    moved = [[p[j] for j in simple] for p in simple_perms]
    perms, words, actions = [tuple(range(len(roots)))], [()], [identity_matrix(n)]
    index_of = {tuple(simple): 0}
    for cur, perm in enumerate(perms):  # the list grows as the search runs
        for i, s_perm in enumerate(simple_perms):
            k = index_of.setdefault(tuple(map(perm.__getitem__, moved[i])), len(perms))
            if k == len(perms):
                if k == MAX_WEYL_ORDER:
                    raise BoundsTooLarge(f"the Weyl group has more than {MAX_WEYL_ORDER} elements")
                n_coroot, alpha = coroots[perm[simple[i]]], simple_roots[i]
                actions.append(tuple(
                    tuple([a - c * b for a, b in zip(row, alpha)])
                    for row, c in zip(actions[cur], n_coroot)
                ))
                perms.append(tuple(map(perm.__getitem__, s_perm)))
                words.append(words[cur] + (i,))
    inv = tuple(index_of[tuple(map(perm.index, simple))] for perm in perms)
    elements = tuple(map(WeylElement, range(len(perms)), words, actions))
    return elements, inv, tuple(perms)


def load_root_datum(spec) -> RootDatum:
    """Load and validate a root datum from a preset name or descriptor.

    Accepts a preset name, a descriptor dict ({"preset": ...} or explicit
    {"simple_roots": ..., "simple_coroots": ...}), or a path to a JSON file
    containing such a dict.
    """
    name = "custom"
    if isinstance(spec, str) and spec.endswith(".json"):
        try:
            with open(spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise MalformedInput(f"cannot read root-datum file {spec!r}: {exc}") from exc
    elif isinstance(spec, str):
        spec = {"preset": spec}
    if not isinstance(spec, dict):
        raise MalformedInput("descriptor must be a preset name or a dict")
    if "preset" in spec:
        pname = spec["preset"]
        if not isinstance(pname, str):
            raise MalformedInput(f"preset must be a name, not {pname!r}")
        if pname not in PRESETS:
            raise UnknownPreset(f"unknown preset {pname!r}; available: {', '.join(PRESETS)}")
        name = pname
        spec = PRESETS[pname]

    try:
        simple_roots = tuple(tuple(row) for row in spec["simple_roots"])
        simple_coroots = tuple(tuple(row) for row in spec["simple_coroots"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad root-datum descriptor: {exc}") from exc
    if any(type(c) is not int for row in simple_roots + simple_coroots for c in row):
        raise MalformedInput("root-datum coordinates must be integers")
    if len(simple_roots) != len(simple_coroots):
        raise MalformedInput("must give equally many simple roots and coroots")
    if not simple_roots:
        raise MalformedInput("at least one simple root is required")
    dims = {len(r) for r in simple_roots} | {len(c) for c in simple_coroots}
    if len(dims) != 1:
        raise MalformedInput("all vectors must have the same number of coordinates")
    dim = dims.pop()
    rank = len(simple_roots)
    if rank > dim:
        raise MalformedInput("more simple roots than lattice rank")

    cartan = tuple(
        tuple(pair(simple_roots[i], simple_coroots[j]) for j in range(rank)) for i in range(rank)
    )
    for i in range(rank):
        if cartan[i][i] != 2:
            raise CartanNotFiniteType(f"Cartan diagonal entry {cartan[i][i]} != 2")
        for j in range(rank):
            if i != j and cartan[i][j] > 0:
                raise CartanNotFiniteType("positive off-diagonal Cartan entry")
            if i != j and (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise CartanNotFiniteType("non-symmetric zero pattern in Cartan matrix")
    if not _principal_minors_positive([list(r) for r in cartan]):
        raise CartanNotFiniteType("Cartan matrix is not of finite type")

    # one Smith form U A V = D of the simple roots as rows: D = (I 0) exactly
    # when X/ZR is torsion-free, and then A has a right inverse, the fixed
    # section of the restriction Y -> Hom(ZR, Z), and its kernel, the
    # root-orthogonal sublattice, is spanned by the trailing columns of V
    root_smith = smith_normal_form([list(r) for r in simple_roots])
    _, diag, v = root_smith
    if any(diag[i][i] != 1 for i in range(rank)):
        raise TorsionQuotient("X/ZR has torsion (Smith form has invariant factor != 1)")
    section_cols = [solve_smith(root_smith, unit) for unit in identity_matrix(rank)]
    section = tuple(tuple(section_cols[j][i] for j in range(rank)) for i in range(dim))
    varsigma = tuple(sum(section[i][j] for j in range(rank)) for i in range(dim))
    if any(pair(alpha, varsigma) != 1 for alpha in simple_roots):
        raise InvariantViolation(f"varsigma {varsigma} does not pair to 1 with every simple root")

    pos_roots, pos_coroots, root_coords, coroot_coords, simple_perms = _generate_root_system(
        simple_roots, simple_coroots
    )
    heights = tuple(map(sum, root_coords))
    two_rho = tuple(sum(beta[i] for beta in pos_roots) for i in range(dim))
    n_pos = len(pos_roots)
    roots = pos_roots + tuple(map(vec_neg, pos_roots))

    coroots = pos_coroots + tuple(map(vec_neg, pos_coroots))
    elements, inv, perms = _enumerate_weyl(dim, roots, coroots, simple_roots, simple_perms)
    # w(beta) < 0 exactly when its index lies past the positive roots, and
    # the length of w is the number of positive roots it makes negative
    # (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7)
    for el, perm in zip(elements, perms):
        flips = sum(j >= n_pos for j in perm[:n_pos])
        if flips != el.length:
            raise InvariantViolation(
                f"Weyl element {el.word} of length {el.length} makes"
                f" {flips} positive roots negative"
            )
    # so an element of length |Phi+| is w0, sending every positive root to a negative one
    w0 = max(range(len(elements)), key=lambda k: elements[k].length)
    if elements[w0].length != n_pos:
        raise MalformedInput("longest-element length does not match the root count")

    coroot_rows = [[simple_coroots[j][i] for j in range(rank)] for i in range(dim)]
    coroot_smith = tuple(tuple(map(tuple, f)) for f in smith_normal_form(coroot_rows))
    for cv, coords in zip(pos_coroots, coroot_coords):
        if mat_apply(coroot_rows, coords) != cv:
            raise InvariantViolation(f"coroot coordinates {coords} do not rebuild coroot {cv}")
    # the Dynkin components are the maximal root supports; each one's highest
    # root is the last root supported on all of it, and that root's coroot is
    # the component's highest short coroot
    supports = [frozenset(i for i, c in enumerate(coords) if c) for coords in root_coords]
    comps = sorted({s for s in supports if not any(s < t for t in supports)}, key=sorted)
    tops = [max(k for k, s in enumerate(supports) if s == comp) for comp in comps]

    return RootDatum(
        x_rank=dim,
        y_rank=dim,
        simple_roots=simple_roots,
        simple_coroots=simple_coroots,
        cartan=cartan,
        positive_roots=pos_roots,
        positive_coroots=pos_coroots,
        roots=roots,
        root_heights=heights,
        coroot_in_simple=coroot_coords,
        weyl_elements=elements,
        weyl_inv=inv,
        root_perms=perms,
        w0=w0,
        two_rho=two_rho,
        varsigma=varsigma,
        components=tuple(tuple(sorted(c)) for c in comps),
        highest_roots=tuple(pos_roots[k] for k in tops),
        highest_short_coroots=tuple(pos_coroots[k] for k in tops),
        section=section,
        orthogonal_basis=tuple(tuple(row[k] for row in v) for k in range(rank, dim)),
        coroot_smith=coroot_smith,
        name=name,
    )
