"""Indented JSON text, byte-identical to ``json.dumps(obj, indent=2)``.

With ``indent`` set, :mod:`json` encodes in pure Python.  Nearly all the
bytes of the CLI's payloads are numbers in rectangular nested lists
(conflict pairs, witness factors), so each such block is written by one
``%`` template of its shape, filled with the ``repr`` of its numbers, which
is how :mod:`json` writes ints and floats.  Dicts, strings and other lists
take a short recursive walk, and any other iterator is written as a list,
one item at a time as it yields them, so that no item is built before it
is written.  Dict keys, and items whose type is exactly
str, int, bool or None, are written in place by the functions :mod:`json`
uses for them.  Anything else the walk does not know, such as a dict with
a non-string key, is encoded by :mod:`json` itself.

Set files do not pass through here: :mod:`locstab.states` writes them from
their arrays, and takes only the templates of factors and signatures from
:func:`number_template`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

__all__ = ["iter_json", "dumps", "number_template"]

INDENT = 2
_SCALARS = frozenset({int, float, bool, type(None)})
_LISTS = frozenset({list, tuple})
_chain = itertools.chain.from_iterable
# number_template keeps this many templates of at most this many numbers
_CACHED_TEMPLATES = 32
_CACHED_NUMBERS = 1 << 12
# the text of a list item or dict value of exactly these types, as json
# writes it
_IN_PLACE = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def number_template(shape: tuple, level: int) -> str:
    """The ``%`` template of a rectangular number block of ``shape``, a
    tuple of positive lengths, whose opening bracket sits at indentation
    ``level``: one ``%r`` per number, in row-major order.

    The last _CACHED_TEMPLATES templates of at most _CACHED_NUMBERS numbers
    are kept, so blocks of one shape, such as a certificate's conflict pairs
    or a set's factors, share one; a larger block, such as the conflict
    pairs of a party with more than 2,048 of them, gets a template of its
    own that is not held past the call.  Dense amplitude vectors take no
    template: a set file writes them from their arrays.
    """
    if math.prod(shape) > _CACHED_NUMBERS:
        return _build_template(shape, level)
    return _cached_template(shape, level)


def _build_template(shape: tuple, level: int) -> str:
    """:func:`number_template`, built from the innermost level out."""
    template = "%r"
    for depth in range(len(shape), 0, -1):
        inner = "\n" + " " * (INDENT * (level + depth))
        outer = "\n" + " " * (INDENT * (level + depth - 1))
        template = "[" + inner + ("," + inner).join([template] * shape[depth - 1]) + outer + "]"
    return template


_cached_template = functools.lru_cache(maxsize=_CACHED_TEMPLATES)(_build_template)


def _number_block(value, level: int) -> str | None:
    """The indented text of ``value`` when it is a rectangular block: lists
    and tuples of one non-empty length at each level, down to leaves whose
    type is exactly int or float (no bool or other subclass), the opening
    bracket at indentation ``level``; None for any other list.

    The text is the block's :func:`number_template`, filled the way
    :mod:`json` writes ints and floats, with their own ``__repr__``.  Only a
    non-finite float, which :mod:`json` spells ``NaN`` or ``Infinity``,
    puts the letter ``n`` in that text; such a block is refused too.
    """
    items = [value]
    shape = []
    while not (types := set(map(type, items))) <= {int, float}:
        if not types <= _LISTS:
            return None
        lengths = set(map(len, items))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        items = list(_chain(items))
    text = number_template(tuple(shape), level) % tuple(items)
    return None if "n" in text else text


def iter_json(obj, level: int = 0):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces, for a value
    whose first line sits at indentation ``level``; an iterator that is not
    a list or tuple is written as the list of its items."""
    kind = type(obj)
    if kind is str or kind in _SCALARS:
        yield json.dumps(obj)
        return
    if kind is dict and all(type(key) is str for key in obj):
        items = ((encode_basestring_ascii(key) + ": ", value) for key, value in obj.items())
        opening, closing = "{", "}"
    elif kind in _LISTS or isinstance(obj, Iterator):
        text = _number_block(obj, level) if kind in _LISTS else None
        if text is not None:
            yield text
            return
        items = (("", value) for value in obj)
        opening, closing = "[", "]"
    else:
        # JSON strings hold no raw newline, so every newline starts a line
        yield json.dumps(obj, indent=INDENT).replace("\n", "\n" + " " * (INDENT * level))
        return
    first = next(items, None)
    if first is None:
        yield opening + closing
        return
    newline = "\n" + " " * (INDENT * (level + 1))
    separator = opening + newline
    for prefix, value in itertools.chain([first], items):
        write = _IN_PLACE.get(type(value))
        if write is None:
            yield separator + prefix
            yield from iter_json(value, level + 1)
        else:
            yield separator + prefix + write(value)
        separator = "," + newline
    yield "\n" + " " * (INDENT * level) + closing


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, each rectangular number block written
    by one template."""
    return "".join(iter_json(obj))
