"""Slow reference routes that the library's fast paths replaced.

Each one is the library's earlier implementation of the same answer, kept
only to check the current one against.
"""

import contextlib
import sys

from alcove_hecke.root_datum import pair, vec_scale


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
    d, h = alc.datum, alc.denominator
    q = d.act_y(d.weyl_inv[x.w], d.varsigma)
    return all(pair(beta, q) > h * pair(beta, x.t) for beta in d.positive_roots)


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
