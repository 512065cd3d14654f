"""Slow reference routes that the library's fast paths replaced.

Each one is the library's earlier implementation of the same answer, kept
only to check the current one against.
"""

import contextlib
import sys

from alcove_hecke.root_datum import vec_scale


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
