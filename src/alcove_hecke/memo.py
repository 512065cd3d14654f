"""The package's one memo table.

Every memoized recursion in the engine keeps its results in a `Memo`:
lengths, Weyl product rows, Weyl word strings, W_aff-coset classes and the
length-zero element of each class, alcove data, the restricted element of
each Weyl index, periodic-order comparisons, spherical tests, characters,
partition counts and parabolic subgroups, and, keyed on element numbers,
Bruhat comparisons, W_ext^S bits, the canonical elements of W_aff in both
modules (each coefficient one packed int) and the inverse polynomials
m^{x,y}, and, keyed on values, the one stored int of each packed coefficient
(the Hecke pool) and, per packed coefficient and parity, the polynomial it
decodes to at the Hecke edge.  A table never holds more than
`MEMO_CAP` entries: when a new value would exceed the cap, the table is
emptied first, so a long-running process stays bounded at the price of
recomputation.  `Memo.put` stores a value computed outside the table under
the same cap; a table whose values need more than the key, such as the
length-zero element of a coset class, or are learned several at a time, such
as the Bruhat comparisons a walk passes, is built with fn None and filled
only by `put`.  Emptying is safe in the middle of a recursion because callers
use the returned values, never the table's contents.  Element numbers are not
a `Memo`: `ExtWeyl` owns them with their lengths and rows, and empties them
with every live table keyed on them (the Hecke edge's splits too, fn None but
written directly) only as a public query starts, because a running walk or
recursion holds numbers.

A table is a plain dict and is not locked: confine its owner to one
execution context, or guard it for concurrent reads with exclusive writes.
"""

from __future__ import annotations

MEMO_CAP = 10**5


class Memo(dict):
    """A dict that fills a missing key with `fn(key)`."""

    __slots__ = ("fn", "__weakref__")

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        self.put(key, value)
        return value

    def put(self, key, value) -> None:
        """Store a value computed elsewhere, under the same cap: a full table
        is emptied first.  For recursions that learn several keys' values in
        one pass, such as a walk whose every step has the same answer."""
        if len(self) >= MEMO_CAP:
            self.clear()
        self[key] = value
