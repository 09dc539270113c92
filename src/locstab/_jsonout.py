"""Indented JSON text, byte-identical to ``json.dumps(obj, indent=2)``.

With ``indent`` set, :mod:`json` encodes in pure Python.  Nearly all the
bytes of the CLI's payloads are numbers in rectangular nested lists.  A
certificate's conflict pairs come as :class:`IndexPairs`, sequences held as
the (m, 2) int array they were made from, and are written straight from
those arrays, with no scan and no pair tuple built: :func:`dumps` collects
every such block of a payload as it walks it, then writes them in batches
of pairs, each gathered in one step from a cached table of the two pieces
of a pair and joined per block.  Any other rectangular block of ints and
floats, such as a witness's factors, is scanned for its types and shape and written by one
``%`` template of that shape, filled with the ``repr`` of its numbers,
which is how :mod:`json` writes ints and floats.  Dicts, strings and other
lists take a short recursive walk, and any other iterator is written as a list,
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
from collections.abc import Iterator, Sequence
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["IndexPairs", "dumps", "number_template"]

INDENT = 2
_SCALARS = frozenset({int, float, bool, type(None)})
_LISTS = frozenset({list, tuple})
_chain = itertools.chain.from_iterable
# number_template keeps this many templates of at most this many numbers
_CACHED_TEMPLATES = 32
_CACHED_NUMBERS = 1 << 12
# the pieces of index pairs are cached for indices below this bound, in a
# table whose size is a multiple of this, and written this many pairs at a
# time; a batch holding a larger or a negative index converts its own
_CACHED_INDICES = 1 << 16
_INDEX_TABLE = 1 << 10
_PAIR_BATCH = 1 << 16
# what _walk yields in place of the text of an IndexPairs block
_PAIRS = object()
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
    are kept, so blocks of one shape, such as a set's factors or a witness's
    factors, share one; a larger block gets a template of its own that is
    not held past the call.  Conflict pairs (:class:`IndexPairs`) and dense
    amplitude vectors take no template: they are written from their arrays.
    """
    if math.prod(shape) > _CACHED_NUMBERS:
        return _build_template(shape, level)
    return _cached_template(shape, level)


class IndexPairs(Sequence):
    """The read-only sequence of (j, k) int pairs held as the read-only
    (m, 2) int32 array ``array`` it was made from.

    Its tuple of (j, k) int tuples is built once, on the first iteration,
    indexing, hashing, equality test or ``repr``; ``len``, truthiness,
    :func:`dumps` and the conflict audit read ``array`` alone.  It
    equals, hashes and prints as the plain tuple of its pairs, but is no
    tuple: :mod:`json` writes it with ``default=tuple``.  ``pairs`` is an
    (m, 2) integer array or an iterable of (j, k) pairs; a non-empty
    read-only int32 array becomes ``array`` itself, with no copy, and any
    other input is copied.  Pickling and copying keep the type.
    """

    __slots__ = ("array", "_tuple")

    def __init__(self, pairs=()):
        array = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        if not array.size:
            array = np.empty((0, 2), dtype=np.int32)
        if array.dtype.kind not in "iu" or array.ndim != 2 or array.shape[1] != 2:
            raise ValueError("index pairs must form an (m, 2) integer array")
        self.array = array.astype(np.int32, copy=array.flags.writeable)
        self.array.flags.writeable = False
        self._tuple = None

    @classmethod
    def _held(cls, array) -> "IndexPairs":
        """``array``, a checked read-only (m, 2) int32 array, held as it is."""
        pairs = cls.__new__(cls)
        pairs.array, pairs._tuple = array, None
        return pairs

    def _pairs(self) -> tuple:
        if self._tuple is None:
            self._tuple = tuple(zip(self.array[:, 0].tolist(), self.array[:, 1].tolist()))
        return self._tuple

    def __len__(self):
        return len(self.array)

    def __iter__(self):
        return iter(self._pairs())

    def __getitem__(self, index):
        return self._pairs()[index]

    def __eq__(self, other):
        return self._pairs() == other if isinstance(other, (tuple, IndexPairs)) else NotImplemented

    def __hash__(self):
        return hash(self._pairs())

    def __repr__(self):
        return repr(self._pairs())

    def __reduce__(self):
        return type(self), (self.array,)


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


def _pair_prefixes(level: int) -> tuple:
    """The texts that precede j and k in each pair but a block's first, in
    a block whose opening bracket sits at indentation ``level``."""
    outer = "\n" + " " * (INDENT * (level + 1))
    inner = "\n" + " " * (INDENT * (level + 2))
    return outer + "]," + outer + "[" + inner, "," + inner


def _pair_table(size: int, level: int) -> np.ndarray:
    """The object array of the pieces of a pair at ``level`` for index i in
    ``range(size)``: row i holds j = i with its prefix, row size + i holds
    k = i with its prefix (:func:`_pair_prefixes`)."""
    texts = list(map(str, range(size)))
    return np.array([prefix + text for prefix in _pair_prefixes(level) for text in texts],
                    dtype=object)


# the largest _pair_table yet of each of the last two levels written
_pair_tables: dict = {}


def _pair_pieces(pairs, level) -> list:
    """The pieces of the (n, 2) index array ``pairs`` in a block at
    ``level``, two a pair: j and k, each with its prefix.

    They are gathered in one step from the level's kept :func:`_pair_table`,
    which is rebuilt only to hold a larger index, sized to it rounded up to
    a multiple of _INDEX_TABLE, unless an index is negative or at least
    _CACHED_INDICES: such pairs are converted here.
    """
    low, high = int(pairs.min()), int(pairs.max())
    if low < 0 or high >= _CACHED_INDICES:
        prefixes = np.array(_pair_prefixes(level), dtype=object)
        return (prefixes + pairs.astype(str).astype(object)).ravel().tolist()
    table = _pair_tables.pop(level, None)
    if table is None or len(table) <= 2 * high:
        table = _pair_table((high // _INDEX_TABLE + 1) * _INDEX_TABLE, level)
    if len(_pair_tables) > 1:
        del _pair_tables[next(iter(_pair_tables))]
    _pair_tables[level] = table
    return table[pairs + np.array([0, len(table) // 2], dtype=pairs.dtype)].ravel().tolist()


def _pair_texts(blocks):
    """Yield the text of each of ``blocks``, a list of (array, level) of
    non-empty (m, 2) index arrays and the indentation of their opening
    brackets, as :mod:`json` writes a list of pairs.

    Runs of blocks at one level are written in batches of at most
    _PAIR_BATCH pairs, which may cut a block or hold many: each batch's
    pieces are gathered in one step (:func:`_pair_pieces`), then joined per
    block.
    """
    held, batch, room = [], [], _PAIR_BATCH
    for place, (array, level) in enumerate(blocks):
        start = 0
        while start < len(array):
            stop = min(len(array), start + room)
            batch.append((array, start, stop))
            room -= stop - start
            start = stop
            if room and place + 1 < len(blocks) and blocks[place + 1][1] == level:
                continue
            outer = "\n" + " " * (INDENT * (level + 1))
            # a block's first pair opens the block where a later one closes
            # the pair before
            cut = len(outer + "]," + outer)
            pieces = _pair_pieces(np.concatenate([a[i:j] for a, i, j in batch]), level)
            at, done = 0, []
            for whole, i, j in batch:
                part = pieces[at:at + 2 * (j - i)]
                at += 2 * (j - i)
                if not i:
                    part[0] = "[" + outer + part[0][cut:]
                if held:
                    part, held = held + part, []
                if j < len(whole):
                    held = part
                    continue
                part.append(outer + "]\n" + " " * (INDENT * level) + "]")
                done.append("".join(part))
            # drop the batch's pieces before handing on its texts: a caller
            # that takes the last text and stops would hold them while it
            # joins the whole payload
            del pieces, part
            yield from done
            batch, room = [], _PAIR_BATCH


def _walk(obj, level, blocks):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces, for a value
    whose first line sits at indentation ``level``; an iterator that is not
    a list or tuple is written as the list of its items.  For each
    non-empty :class:`IndexPairs` block, yield _PAIRS in place of its text
    and append its (array, level) to ``blocks``."""
    kind = type(obj)
    if kind is str or kind in _SCALARS:
        yield json.dumps(obj)
        return
    if kind is IndexPairs:
        if not len(obj.array):
            yield "[]"
            return
        blocks.append((obj.array, level))
        yield _PAIRS
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
            yield from _walk(value, level + 1, blocks)
        else:
            yield separator + prefix + write(value)
        separator = "," + newline
    yield "\n" + " " * (INDENT * level) + closing


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, each rectangular number block written
    by one template and every :class:`IndexPairs` block in the batches of
    :func:`_pair_texts`."""
    blocks = []
    pieces = list(_walk(obj, 0, blocks))
    if blocks:
        texts = _pair_texts(blocks)
        pieces = [next(texts) if piece is _PAIRS else piece for piece in pieces]
    return "".join(pieces)
