"""Indented JSON text, byte-identical to ``json.dumps(obj, indent=2)``.

With ``indent`` set, :mod:`json` encodes in pure Python.  Nearly all of
locstab's output bytes are numbers in nested lists (factor tables, dense
amplitude vectors, conflict pairs), so each such list goes to the compact C
encoder in one call, and its text is indented by replacing its separators.
That is safe because the list holds no strings: brackets and ``", "`` occur
in its compact text only between items.  Dicts, strings and other lists
take a short recursive walk; anything else the walk does not know, such as
a dict with a non-string key, is encoded by :mod:`json` itself.
"""

from __future__ import annotations

import itertools
import json

__all__ = ["LazyList", "iter_json", "dumps"]

INDENT = 2
_SCALARS = frozenset({int, float, bool, type(None)})
_LISTS = frozenset({list, tuple})
_chain = itertools.chain.from_iterable


class LazyList:
    """A list of ``length`` items that the writer encodes one at a time, as
    the iterable ``items`` yields them, so that no item is built before it
    is written.  It is iterated once."""

    __slots__ = ("items", "length")

    def __init__(self, items, length):
        self.items = items
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        return iter(self.items)


def _block_depth(value) -> int:
    """The depth at which every leaf of the list ``value`` sits, when all of
    them are numbers, bools or None at one depth below non-empty lists and
    tuples only; 0 for any other list."""
    level = [value]
    depth = 0
    while all(level):
        depth += 1
        types = set(map(type, _chain(level)))
        if types <= _SCALARS:
            return depth
        if not types <= _LISTS:
            return 0
        level = list(_chain(level))
    return 0


def _indent_block(text: str, depth: int, level: int) -> str:
    """Indent the compact text of a depth-``depth`` block whose opening
    bracket sits at indentation ``level``.

    Sibling items ``r`` levels above the leaves are separated by ``r``
    closing brackets, ``", "`` and ``r`` opening brackets; the widest
    separators are replaced first, since they contain the narrower ones.
    """
    leaf = level + depth
    newline = ["\n" + " " * (INDENT * i) for i in range(leaf + 1)]
    body = text[depth:-depth]
    for r in range(depth - 1, -1, -1):
        closes = "".join(newline[leaf - i] + "]" for i in range(1, r + 1))
        opens = "".join(newline[leaf - r + i] + "[" for i in range(r))
        body = body.replace("]" * r + ", " + "[" * r, closes + "," + opens + newline[leaf])
    head = "[" + "".join(newline[level + i] + "[" for i in range(1, depth)) + newline[leaf]
    tail = "".join(newline[leaf - i] + "]" for i in range(1, depth + 1))
    return head + body + tail


def iter_json(obj, level: int = 0):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces, for a value
    whose first line sits at indentation ``level``."""
    kind = type(obj)
    if kind is str or kind in _SCALARS:
        yield json.dumps(obj)
        return
    if kind is dict and all(type(key) is str for key in obj):
        items = ((json.dumps(key) + ": ", value) for key, value in obj.items())
        opening, closing = "{", "}"
    elif kind in _LISTS or kind is LazyList:
        depth = 0 if kind is LazyList else _block_depth(obj)
        if depth:
            yield _indent_block(json.dumps(obj), depth, level)
            return
        items = (("", value) for value in obj)
        opening, closing = "[", "]"
    else:
        # JSON strings hold no raw newline, so every newline starts a line
        yield json.dumps(obj, indent=INDENT).replace("\n", "\n" + " " * (INDENT * level))
        return
    if not obj:
        yield opening + closing
        return
    newline = "\n" + " " * (INDENT * (level + 1))
    separator = opening + newline
    for prefix, value in items:
        yield separator + prefix
        yield from iter_json(value, level + 1)
        separator = "," + newline
    yield "\n" + " " * (INDENT * level) + closing


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, with nested number lists encoded in C."""
    return "".join(iter_json(obj))
