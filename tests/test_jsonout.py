"""The indented JSON writer: the stdlib's exact bytes, for set files and
every CLI payload, with a set file written one state at a time."""

import copy
import dataclasses
import enum
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locstab._jsonout
import locstab.cli
import locstab.states
from locstab import (
    DenseState,
    ProductState,
    StateSet,
    compose,
    entangled_triple,
    heptagon_qutrit_states,
    is_locally_stable,
    save_set,
    shift_family,
    sqrt_subset,
    tensor_expand,
    upb_44_reducible,
    upb_qubit3,
    upb_sep333,
    upb_shifts,
    upb_tiles33,
)
from locstab._jsonout import IndexPairs, dumps
from locstab.stability import PartyRecord, StabilityCertificate, Tolerance
from locstab.cli import main
from oracles import state_set_to_dict

# strings that look like the brackets and separators of a number block
TRICKY = [", ", "], [", "]], [[", "[", "]", '"', "\\", "é", "☃", "\n", "a, b", ""]

strings = st.one_of(st.sampled_from(TRICKY), st.text(max_size=8))
numbers = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300]),
    st.booleans(),
    st.none(),
)


@st.composite
def blocks(draw):
    """Nested lists or tuples of numbers with every leaf at one depth:
    rectangular, ragged, or ending in empty lists."""
    depth = draw(st.integers(1, 4))

    def build(level):
        if level == depth:
            return draw(st.lists(numbers, max_size=4))
        items = [build(level + 1) for _ in range(draw(st.integers(0, 3)))]
        return tuple(items) if draw(st.booleans()) else items

    return build(0)


def _rectangular(shape):
    if not shape:
        return numbers
    return st.lists(_rectangular(shape[1:]), min_size=shape[0], max_size=shape[0])


rectangular = st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(_rectangular)

values = st.recursive(
    st.one_of(numbers, strings, blocks(), rectangular),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), strings),
                        children, max_size=3),
    ),
    max_leaves=40,
)


class Level(enum.IntEnum):
    """An int subclass: json writes its value, its repr is not a number."""
    HIGH = 2


class Half(float):
    """A float subclass: json writes it with float's own repr."""

    def __repr__(self):
        return "half"


class TestWriterOracle:
    @settings(deadline=None, max_examples=400)
    @given(values)
    def test_matches_stdlib_indent_2(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [
            [], {}, (), [[]], [[], []], [[1], []], [[[]]], [1, [2]], [[1, 2], [3]],
            [[1, [2]], [3, 4]], [(1, 2), [3, 4]], [[-0.0, math.nan], [math.inf, -math.inf]],
            [True, False, None], {"a": {}}, {"a": []}, {1: [1, 2], "1": [[3]]},
            {None: 1, True: 2, 2.5: 3}, ["], [", [1, 2]], {"], [": [[1, 2], [3, 4]]},
            "é\"\\", 0, -0.0, math.nan, None,
            ((0, 1), (2, 3)), [[1, 2.5], [3, -0.0]], [[1.5, math.inf], [math.nan, 0.0]],
            [[1, True], [2, 3]], [[1, Level.HIGH], [2, 3]], [[[1, 2]], [[3]]],
            {"a": {"b": [[1e300, 1e-300], [-1e300, 5e-324]]}},
        ],
    )
    def test_edge_cases(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [
            {"é☃\U0001f600": "naïve ☃ \U0001f600", " ": "\ud800"},
            {'"\\/\b\f\n\r\t': 'a"b\\c/d\x08\x0c\n\r\t', "": ""},
            {"\x00\x01\x1f\x7f": "\x00\x1f\x7f\x80", "k": ["\x00", "é", '"', "\\"]},
            {"t": True, "f": False, "n": None, "lvl": Level.HIGH, "big": 10**400 - 7},
            {"neg": -(10**400), "zero": 0, "float": Half(0.5), "plain": 2.5},
            [True, "x", None, Level.HIGH, 10**400, -1, Half(-0.25), 1.5, "é", [False]],
            {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "list": [math.nan, 1]},
            [{"a": Level.HIGH}, {"b": [Level.HIGH, True]}, "tail", -(10**399)],
        ],
        ids=["non-ascii", "escapes", "controls", "dict-ints", "dict-floats",
             "mixed-list", "non-finite", "nested"],
    )
    def test_scalars_outside_number_blocks(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "items",
        [
            [],
            [[[1.0, 2.5], [3.0, -0.0]], [[5, 6], [7, 8]]],
            [{"product": [[1.0, 0.0], [0.0, 1.0]]}, {"dense": []}, [], None],
            [[1, 2], [3]],
        ],
        ids=["empty", "number-blocks", "mixed", "ragged"],
    )
    def test_iterators_are_written_as_lists(self, items):
        for obj, as_list in (
            (iter(items), items),
            ({"label": "x", "states": (item for item in items)}, {"label": "x", "states": items}),
            ([map(lambda item: item, items), 1], [items, 1]),
        ):
            assert dumps(obj) == json.dumps(as_list, indent=2)

    def test_unknown_types_raise_like_the_stdlib(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps({"a": {1, 2}})


def _nested(obj, level, container):
    """``obj`` inside ``level`` dicts or lists, each beside a sibling."""
    for _ in range(level):
        obj = {"pairs": obj, "n": 1} if container is dict else [0, obj]
    return obj


class TestIndexPairs:
    PAIRS = ((0, 2), (1, 3), (2, 0), (3, 1))

    def test_is_the_plain_tuple(self):
        pairs = IndexPairs(np.array(self.PAIRS))
        # construction, len, truthiness, the array and the writer build no
        # tuple; the first element access builds it, once
        assert len(pairs) == 4 and pairs and pairs.array.shape == (4, 2)
        assert dumps({"pairs": pairs}) == json.dumps({"pairs": self.PAIRS}, indent=2)
        assert pairs._tuple is None
        assert pairs[0] == (0, 2)
        built = pairs._tuple
        assert built == self.PAIRS
        assert pairs == self.PAIRS and self.PAIRS == pairs
        assert not pairs != self.PAIRS and not self.PAIRS != pairs
        assert hash(pairs) == hash(self.PAIRS)
        assert {self.PAIRS: "plain"}[pairs] == "plain" and {pairs: "pairs"}[self.PAIRS] == "pairs"
        assert repr(pairs) == repr(self.PAIRS)
        assert all(type(pair) is tuple and list(map(type, pair)) == [int, int] for pair in pairs)
        for indent in (None, 2):
            assert json.dumps(pairs, indent=indent, default=tuple) == json.dumps(
                self.PAIRS, indent=indent
            )
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(pairs)
        assert pairs._tuple is built

    def test_array_is_read_only(self):
        pairs = IndexPairs(self.PAIRS)
        assert pairs.array.shape == (4, 2) and pairs.array.dtype == np.int32
        assert not pairs.array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pairs.array[0, 0] = 5
        # made from a writable array, it keeps a read-only copy
        source = np.array(self.PAIRS)
        pairs = IndexPairs(source)
        source[0, 0] = 5
        assert pairs == self.PAIRS and not pairs.array.flags.writeable

    def test_read_only_int32_arrays_are_held_without_a_copy(self):
        table = np.array(self.PAIRS * 2, dtype=np.int32)
        # a writable array is copied, even of int32
        copied = IndexPairs(table[:4])
        assert not np.shares_memory(copied.array, table)
        table[0, 0] = 9
        assert copied == self.PAIRS
        table[0, 0] = 0
        table.flags.writeable = False
        held = IndexPairs(table[4:])
        assert np.shares_memory(held.array, table) and held == self.PAIRS
        assert not held.array.flags.writeable
        # a read-only array of another dtype is converted
        wide = table.astype(np.int64)
        wide.flags.writeable = False
        assert not np.shares_memory(IndexPairs(wide).array, wide)

    def test_certificate_slices_are_held_unchecked(self, monkeypatch):
        # is_locally_stable checks its one int32 table once and hands each
        # record its read-only slice, past the public constructor
        family = shift_family(30)
        made = []
        real = IndexPairs.__init__

        def spy(self, pairs=()):
            made.append(pairs)
            real(self, pairs)

        monkeypatch.setattr(IndexPairs, "__init__", spy)
        cert = is_locally_stable(family)
        assert made == []
        arrays = [r.conflict_pairs.array for r in cert.parties]
        for record, array in zip(cert.parties, arrays):
            assert type(record.conflict_pairs) is IndexPairs
            assert array.dtype == np.int32 and array.shape == (58, 2)
            assert not array.flags.writeable and array.base is arrays[0].base is not None
            assert record.conflict_pairs == IndexPairs(array.tolist())
        held = IndexPairs._held(arrays[1])
        assert held.array is arrays[1] and held._tuple is None
        assert held == cert.parties[1].conflict_pairs

    @pytest.mark.parametrize("pairs", [[(0, 1, 2)], [(0.5, 1)], [("0", "1")], [(0,)], [[(0, 1)]]])
    def test_refuses_what_is_no_index_pairs(self, pairs):
        with pytest.raises(ValueError):
            IndexPairs(pairs)

    def test_empty_and_non_empty_records(self):
        # the length the benchmark's tracer takes of every record
        cert = is_locally_stable(upb_qubit3())
        empty = PartyRecord(0, 0, 3, False, IndexPairs())
        assert empty.conflict_pairs == () and empty.conflict_pairs.array.shape == (0, 2)
        assert len(empty.conflict_pairs or ()) == 0
        assert [len(r.conflict_pairs or ()) for r in cert.parties] == [4, 4, 4]

    def test_certificate_round_trips(self):
        cert = is_locally_stable(shift_family(5))
        plain = dataclasses.replace(cert, parties=tuple(
            dataclasses.replace(r, conflict_pairs=tuple(r.conflict_pairs)) for r in cert.parties
        ))
        for copied in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert), copy.copy(cert)):
            assert copied == cert == plain
            for record, original in zip(copied.parties, cert.parties):
                assert type(record.conflict_pairs) is IndexPairs
                assert not record.conflict_pairs.array.flags.writeable
                assert np.array_equal(record.conflict_pairs.array, original.conflict_pairs.array)
        fields = dataclasses.asdict(cert)
        assert fields == dataclasses.asdict(plain)
        rebuilt = StabilityCertificate(
            fields["label"],
            Tolerance(**fields["tolerance"]),
            tuple(PartyRecord(**record) for record in fields["parties"]),
            fields["stable"],
        )
        assert rebuilt == cert
        assert all(type(r.conflict_pairs) is IndexPairs for r in rebuilt.parties)


class TestIndexPairBlocks:
    BLOCKS = {
        "empty": [],
        "one": [(0, 1)],
        "small": [(0, 2), (1, 3), (2, 0), (3, 1)],
        "table-edge": [(65535, 0), (1023, 1024)],
        "past-the-table": [(70000, 3), (1, 70001), (65535, 65536)],
        "negative": [(-1, 2), (3, -40000)],
    }

    @pytest.mark.parametrize("container", [dict, list])
    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_matches_stdlib_indent_2(self, name, level, container):
        obj = _nested(IndexPairs(self.BLOCKS[name]), level, container)
        assert dumps(obj) == json.dumps(obj, indent=2, default=tuple)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.tuples(st.integers(0, 1 << 17), st.integers(0, 1 << 17)), max_size=12),
        st.integers(0, 5),
        st.sampled_from([dict, list]),
    )
    def test_drawn_blocks_match_stdlib(self, pairs, level, container):
        obj = _nested(IndexPairs(pairs), level, container)
        assert dumps(obj) == json.dumps(obj, indent=2, default=tuple)

    @pytest.fixture
    def number_blocks(self, monkeypatch):
        """Every value the writer hands to its block scan."""
        seen = []
        real = locstab._jsonout._number_block

        def spy(value, level):
            seen.append(value)
            return real(value, level)

        monkeypatch.setattr(locstab._jsonout, "_number_block", spy)
        return seen

    def test_plain_tuples_take_the_generic_path(self, number_blocks):
        cert = is_locally_stable(upb_qubit3())
        records = list(cert.parties)
        records[1] = dataclasses.replace(records[1], conflict_pairs=tuple(records[1].conflict_pairs))
        payload = dataclasses.replace(cert, parties=tuple(records)).to_dict()
        assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
        scanned = [block for block in number_blocks if type(block) is tuple]
        assert scanned == [records[1].conflict_pairs]
        assert scanned[0] is payload["parties"][1]["conflict_pairs"]

    def test_audit_reads_and_writes_pairs_from_their_arrays(
        self, tmp_path, capsys, monkeypatch, number_blocks
    ):
        family = shift_family(30)
        path = tmp_path / "sf30.json"
        save_set(family, path)
        visits = []
        build = IndexPairs._pairs

        def spy(pairs):
            visits.append(len(pairs))
            return build(pairs)

        monkeypatch.setattr(IndexPairs, "_pairs", spy)
        assert main(["check", str(path), "--audit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert visits == []
        held = [r.conflict_pairs for r in is_locally_stable(family).parties]
        assert not any(block == pairs for block in number_blocks for pairs in held)
        assert [list(map(tuple, p["conflict_pairs"])) for p in payload["parties"]] == [
            list(pairs) for pairs in held
        ]
        assert payload["audit"]["conflict_counts"] == [58] * 59

    @staticmethod
    def _payload(blocks):
        """``blocks`` as IndexPairs, alternately at levels 3 and 2, with
        other values between them."""
        return {
            "parties": [{"party": place, "conflict_pairs": IndexPairs(pairs)}
                        for place, pairs in enumerate(blocks[::2])],
            "rest": [IndexPairs(pairs) for pairs in blocks[1::2]],
            "tail": [1, 2],
        }

    @pytest.fixture
    def pair_batches(self, monkeypatch):
        """The number of pairs of every batch the writer gathers."""
        sizes = []
        real = locstab._jsonout._pair_pieces

        def spy(pairs, level):
            sizes.append(len(pairs))
            return real(pairs, level)

        monkeypatch.setattr(locstab._jsonout, "_pair_pieces", spy)
        return sizes

    @pytest.mark.parametrize(
        "batch, sizes",
        [(1 << 16, [4, 3]), (5, [4, 3]), (3, [3, 1, 3]), (2, [2, 2, 2, 1]), (1, [1] * 7)],
    )
    def test_batches_cut_and_join_blocks(self, batch, sizes, monkeypatch, pair_batches):
        # level 3 holds blocks of 3, 0 and 1 pairs, level 2 of 0, 2 and 1: a
        # batch ends inside a block, at its end or past it, and never holds
        # two levels
        blocks = [[(0, 1), (1, 0), (2, 3)], [], [], [(4, 5), (5, 4)], [(9, 8)], [(7, 6)]]
        payload = self._payload(blocks)
        monkeypatch.setattr(locstab._jsonout, "_PAIR_BATCH", batch)
        assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
        assert sorted(pair_batches) == sorted(sizes)
        pair_batches.clear()
        assert "".join(locstab._jsonout.iter_json(payload)) == dumps(payload)

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(
            st.lists(st.tuples(*[st.one_of(st.integers(0, 40),
                                           st.sampled_from([-3, -1, 1 << 16, 1 << 17]))] * 2),
                     max_size=6),
            max_size=6,
        ),
        st.sampled_from([1, 2, 3, 5, 1 << 16]),
    )
    def test_drawn_batches_match_stdlib(self, blocks, batch):
        # cached indices mixed with negative ones and ones past the table;
        # the table's own edge is in BLOCKS
        payload = self._payload(blocks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locstab._jsonout, "_PAIR_BATCH", batch)
            assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
            assert "".join(locstab._jsonout.iter_json(payload)) == dumps(payload)

    @pytest.fixture
    def table_builds(self, monkeypatch):
        """The (size, level) of every pair table built from now on, from an
        empty cache."""
        builds = []
        build = locstab._jsonout._pair_table

        def spy(size, level):
            builds.append((size, level))
            return build(size, level)

        monkeypatch.setattr(locstab._jsonout, "_pair_tables", {})
        monkeypatch.setattr(locstab._jsonout, "_pair_table", spy)
        return builds

    @staticmethod
    def _kept():
        """The size of the pair table kept for each level."""
        return {level: len(table) // 2 for level, table in locstab._jsonout._pair_tables.items()}

    def test_tables_fit_the_largest_index_and_are_reused(self, table_builds):
        # levels 3 and 2 alternate; each level builds one table of its
        # largest index rounded up to _INDEX_TABLE, then grows it only for
        # a larger index
        kept = []
        for blocks in ([[(40000, 1)], [(5, 6)]], [[(7, 8)], [(1023, 0)]],
                       [[(39000, 2)], [(1024, 3)]], [[(65535, 0)], [(9, 9)]]):
            payload = self._payload(blocks)
            assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
            kept.append(self._kept())
        assert table_builds == [(40960, 3), (1024, 2), (2048, 2), (65536, 3)]
        assert kept == [{3: 40960, 2: 1024}, {3: 40960, 2: 1024},
                        {3: 40960, 2: 2048}, {3: 65536, 2: 2048}]
        # a third level drops the table of the level written longest ago,
        # level 3 (each payload writes its level 3 blocks first)
        payload = IndexPairs([(3, 4)])
        assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
        assert self._kept() == {2: 2048, 0: 1024}

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 1 << 17), st.integers(0, 1 << 17)), max_size=6),
            min_size=2, max_size=6,
        ),
    )
    def test_drawn_indices_past_the_table(self, table_builds, blocks):
        # indices up to 2^17 at levels 3 and 2, the cache kept from one
        # draw to the next: each level's blocks make one batch, which takes
        # no table when an index reaches _CACHED_INDICES; else the level's
        # table is built only when it lacks the batch's largest index, at
        # that index rounded up to _INDEX_TABLE, so its tables grow
        before, done = self._kept(), len(table_builds)
        payload = self._payload(blocks)
        assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
        step = locstab._jsonout._INDEX_TABLE
        for level, batch in ((3, blocks[::2]), (2, blocks[1::2])):
            high = max((max(pair) for pairs in batch for pair in pairs), default=None)
            want = before.get(level, 0)
            if high is not None and high < locstab._jsonout._CACHED_INDICES:
                want = max(want, (high // step + 1) * step)
            sizes = [before.get(level, 0)] + [size for size, at in table_builds[done:]
                                              if at == level]
            assert sizes == sorted(set(sizes)) and sizes[-1] == want
            assert self._kept().get(level, 0) == want

    def test_payloads_without_pairs_gather_nothing(self, pair_batches):
        for payload in ({"a": [[1, 2], [3, 4]], "b": "x"}, {"pairs": IndexPairs()}, []):
            assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)
        assert pair_batches == []


def _dense(state_set):
    return StateSet(state_set.dims, [tensor_expand(s) for s in state_set], "dense")


GOLDEN_SETS = {
    "qubit3": upb_qubit3,
    "triple": entangled_triple,
    "tiles33": upb_tiles33,
    "sep333": upb_sep333,
    "reducible44": upb_44_reducible,
    "heptagon": heptagon_qutrit_states,
    "shifts4": lambda: upb_shifts(4),
    "shift_family30": lambda: shift_family(30),
    "sqrt_subset19": lambda: sqrt_subset(19)[1],
    "dense_shifts3": lambda: _dense(upb_shifts(3)),
    "compose_mixed": lambda: compose(upb_qubit3(), 1, upb_tiles33(), 2),
}


@pytest.fixture(params=sorted(GOLDEN_SETS))
def golden_set(request):
    return GOLDEN_SETS[request.param]()


class TestSetFiles:
    def test_save_set_writes_stdlib_bytes(self, golden_set, tmp_path):
        path = tmp_path / "set.json"
        save_set(golden_set, path)
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(state_set_to_dict(golden_set), fh, indent=2)
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    def test_empty_set(self, tmp_path):
        empty = StateSet((2, 2), [], "empty")
        path = tmp_path / "empty.json"
        save_set(empty, path)
        assert path.read_text() == json.dumps(state_set_to_dict(empty), indent=2) + "\n"

    def test_save_set_streams_states(self, tmp_path):
        dense = _dense(upb_shifts(7))
        path = tmp_path / "dense.json"
        tracemalloc.start()
        try:
            save_set(dense, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


def _planted(dims, states, label="planted"):
    """The all-product set whose party-r factors are ``states[j][r]``, as
    given, bit for bit: the factors are not normalized again."""
    stacks = [np.array([state[r] for state in states], dtype=complex).reshape(-1, d)
              for r, d in enumerate(dims)]
    return StateSet._from_stacks(dims, stacks, label)


_A = [0.6, 0.8j]
_B = [0.8, -0.6j]
_C = [1.0, 0.0]


def _random_set(dims, size, seed=5):
    rng = np.random.default_rng(seed)
    states = [ProductState([rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
              for _ in range(size)]
    return StateSet(dims, states, "random")


PLANTED_SETS = {
    # equal as floats, apart in the sign of a zero coordinate
    "signed zero": lambda: _planted((2, 2), [[_C, [1.0, complex(0.0, -0.0)]],
                                             [[1.0, -0.0], _C]]),
    "one ulp apart": lambda: _planted((2, 2), [[_A, [0.6, 1j * np.nextafter(0.8, 1)]],
                                               [[np.nextafter(0.6, 0), 0.8j], _A]]),
    "one row at every party": lambda: _planted((2, 2, 2), [[_A, _A, _A], [_B, _A, _B],
                                                          [_A, _B, _A]]),
    "no repeated factor": lambda: _random_set((2, 3, 2), 6),
    "empty": lambda: StateSet((2, 3), [], "empty"),
    "one state": lambda: StateSet((3, 2), [ProductState([[0, 1, 0], _B])], 'one "state" é'),
    "one party": lambda: _planted((3,), [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0]]]),
    "compose qubit3 tiles33": lambda: compose(upb_qubit3(), 0, upb_tiles33(), 0),
    "compose tiles33 qubit3": lambda: compose(upb_tiles33(), 0, upb_qubit3(), 0),
}


# factor rows that are equal as floats or one ulp apart, for planted sets
_POOL = {
    2: [_C, [1.0, -0.0], [complex(1.0, -0.0), 0.0], _A, [0.6, 1j * np.nextafter(0.8, 1)], _B],
    3: [[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8j], [0.6, -0.0, 0.8j]],
}


@st.composite
def planted_sets(draw):
    dims = tuple(draw(st.lists(st.sampled_from(sorted(_POOL)), min_size=1, max_size=4)))
    states = draw(st.lists(st.tuples(*(st.sampled_from(_POOL[d]) for d in dims)), max_size=6))
    return _planted(dims, states)


class TestFactorCodebook:
    """An all-product set file is written from the distinct factor rows of
    each local dimension, each rendered once, with the stdlib's bytes."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(state_set=planted_sets())
    def test_drawn_sets_write_stdlib_bytes(self, state_set, tmp_path):
        # rows shared across parties and states, first and last seen
        # anywhere, in every mix of local dimensions
        path = tmp_path / "set.json"
        save_set(state_set, path)
        assert path.read_text() == json.dumps(state_set_to_dict(state_set), indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(PLANTED_SETS))
    def test_planted_sets_write_stdlib_bytes(self, name, tmp_path):
        state_set = PLANTED_SETS[name]()
        path = tmp_path / "set.json"
        save_set(state_set, path)
        assert path.read_text() == json.dumps(state_set_to_dict(state_set), indent=2) + "\n"

    def test_planted_rows_differ_only_in_their_bytes(self):
        zero = PLANTED_SETS["signed zero"]().factors[1]
        assert np.array_equal(zero[0], zero[1]) and zero[0].tobytes() != zero[1].tobytes()
        ulp = PLANTED_SETS["one ulp apart"]().factors[1]
        assert np.nextafter(ulp[1, 1].imag, 1) == ulp[0, 1].imag

    def test_shift_family_renders_each_distinct_row_once(self, tmp_path, monkeypatch):
        rendered = []
        real = locstab.states._factor_texts

        def spy(rows):
            rendered.extend(map(bytes, rows))
            return real(rows)

        monkeypatch.setattr(locstab.states, "_factor_texts", spy)
        family = shift_family(100)
        path = tmp_path / "sf.json"
        save_set(family, path)
        # 199 parties of 199 states over one codebook of 200 qubit vectors,
        # whose last, |0>, no state of the family uses
        assert len(rendered) == len(set(rendered)) == 199
        assert path.read_text() == json.dumps(state_set_to_dict(family), indent=2) + "\n"

    def test_peak_stays_near_the_stacks(self, tmp_path):
        # the family's own codes leave a copy of them, two states per
        # codebook row and the live texts: less than the stacks' bytes
        family = shift_family(100)
        stack_bytes = sum(stack.nbytes for stack in family.factors)
        tracemalloc.start()
        try:
            save_set(family, tmp_path / "sf.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stack_bytes


def _planted_dense(dims, amplitudes):
    """The dense member holding ``amplitudes`` as given, bit for bit: the
    vector is not normalized again."""
    state = DenseState.__new__(DenseState)
    state.dims, state.amplitudes = dims, np.array(amplitudes, dtype=complex)
    return state


_NEGATIVE_ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.0]
_EXPONENTS = [1e-05, 2.5e-300j, complex(-1e-05, 2.5e-300), 1e300]
_ONE = ProductState([[0.6, 0.8j], [1.0, 0.0]])

DENSE_SETS = {
    "signed zeros": lambda: StateSet((2, 2), [_planted_dense((2, 2), _NEGATIVE_ZEROS)]),
    "subnormal": lambda: StateSet((2,), [_planted_dense((2,), [5e-324, complex(0.5, -5e-324)])]),
    "exponents": lambda: StateSet((2, 2), [_planted_dense((2, 2), _EXPONENTS)]),
    "plus and minus one": lambda: StateSet(
        (2, 2), [_planted_dense((2, 2), [1.0, -1.0, 1j, -1j]), DenseState([-1, 0, 0, 0], (2, 2))]
    ),
    "dense before product": lambda: StateSet(
        (2, 2), [_planted_dense((2, 2), _NEGATIVE_ZEROS), _ONE], 'mixed "é"'
    ),
    "dense after product": lambda: StateSet(
        (2, 2), [_ONE, _planted_dense((2, 2), _EXPONENTS), _ONE]
    ),
    "one state": lambda: StateSet((3, 2), [DenseState(np.arange(6) - 2.5j, (3, 2))], "one"),
    "mixed dimensions": lambda: StateSet(
        (3, 2), [ProductState([[0, 1, 0], [0.6, -0.8j]]), DenseState(np.arange(1, 7), (3, 2))]
    ),
}
DENSE_SETS.update({f"triple {n}": (lambda n=n: entangled_triple(n)) for n in range(3, 15)})
# the dense copy of every named set small enough to expand
DENSE_SETS.update({
    f"dense {name}": (lambda build=build: _dense(build()))
    for name, build in {
        "qubit3": upb_qubit3,
        "tiles33": upb_tiles33,
        "sep333": upb_sep333,
        "reducible44": upb_44_reducible,
        "heptagon": heptagon_qutrit_states,
        "shifts5": lambda: upb_shifts(5),
        "shift_family4": lambda: shift_family(4),
        "compose": lambda: compose(upb_qubit3(), 1, upb_tiles33(), 2),
    }.items()
})

# floats whose repr takes each of its forms: signed zeros, subnormals,
# exponents either way, integers and shortest round trips
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 2.5e-300, 1e16, 1.0, -1.0, 0.1]),
)
dense_vectors = st.integers(1, 4).flatmap(
    lambda qubits: st.lists(
        st.builds(complex, _floats, _floats), min_size=2**qubits, max_size=2**qubits
    ).map(lambda amplitudes: _planted_dense((2,) * qubits, amplitudes))
)


def _saved_text(state_set, path):
    save_set(state_set, path)
    return path.read_text()


class TestDenseMembers:
    """A set with dense members is written straight from its arrays, with
    the stdlib's bytes and none of the JSON writer."""

    @pytest.fixture
    def json_writer_calls(self, monkeypatch):
        """The names of the JSON writer's functions called from now on."""
        calls = []
        for name in ("iter_json", "_number_block", "dumps"):
            real = getattr(locstab._jsonout, name)

            def spy(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(locstab._jsonout, name, spy)
        return calls

    @pytest.mark.parametrize("name", sorted(DENSE_SETS))
    def test_writes_stdlib_bytes(self, name, tmp_path, json_writer_calls):
        state_set = DENSE_SETS[name]()
        text = _saved_text(state_set, tmp_path / "set.json")
        assert json_writer_calls == []
        assert text == json.dumps(state_set_to_dict(state_set), indent=2) + "\n"

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(states=st.lists(dense_vectors, min_size=1, max_size=3), product_at=st.integers(0, 3))
    def test_drawn_vectors_write_stdlib_bytes(self, states, product_at, tmp_path):
        dims = states[0].dims
        states = [s for s in states if s.dims == dims]
        states.insert(product_at, ProductState([[0.6, -0.8j]] * len(dims)))
        state_set = StateSet(dims, states, "drawn")
        text = _saved_text(state_set, tmp_path / "set.json")
        assert text == json.dumps(state_set_to_dict(state_set), indent=2) + "\n"

    def test_vectors_longer_than_a_piece(self, tmp_path, monkeypatch):
        # pieces of 3 pairs: vectors of 2 to 8 amplitudes end in a full
        # piece, a short one, or within the first
        monkeypatch.setattr(locstab.states, "_DENSE_PAIRS", 3)
        rng = np.random.default_rng(3)
        states = [DenseState(rng.normal(size=8) + 1j * rng.normal(size=8), (2, 2, 2)),
                  DenseState([0, 0, 0, 0, 0, 1j, 0, 0], (2, 2, 2))]
        state_set = StateSet((2, 2, 2), states, "pieces")
        text = _saved_text(state_set, tmp_path / "set.json")
        assert text == json.dumps(state_set_to_dict(state_set), indent=2) + "\n"

    def test_a_large_member_is_written_in_pieces(self, tmp_path):
        # the 2^17 number texts of one 2^16-amplitude member would take
        # about 8.5 MiB at once; a piece at a time, the traced peak stays
        # below the vector's own 1 MiB (0.81 MiB measured)
        rng = np.random.default_rng(2)
        member = DenseState(rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16), (2,) * 16)
        state_set = StateSet((2,) * 16, [member], "large")
        tracemalloc.start()
        try:
            save_set(state_set, tmp_path / "large.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < member.amplitudes.nbytes


def _canonical(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


class TestCliPayloads:
    @pytest.fixture
    def emitted(self, monkeypatch):
        """Every payload the CLI emits, as handed to the writer."""
        payloads = []
        real = locstab.cli._emit

        def record(args, payload, human_lines, out):
            payloads.append(payload)
            real(args, payload, human_lines, out)

        monkeypatch.setattr(locstab.cli, "_emit", record)
        return payloads

    def test_every_command_prints_stdlib_bytes(self, golden_set, tmp_path, capsys, emitted):
        path = str(tmp_path / "set.json")
        save_set(golden_set, path)
        dims = ",".join(str(d) for d in golden_set.dims)
        commands = [
            ["check", path] + (["--audit"] if golden_set.all_product else []),
            ["subsets", path, "--k", "3", "--threshold", "500", "--sample", "100"],
            ["complement", path, "--restarts", "3", "--iters", "10", "--seed", "4"],
            ["bound", "--dims", dims],
        ]
        for argv in commands:
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 1, 2)
            if code != 2:
                assert out == _canonical(out)
        for payload in emitted:
            assert dumps(payload) == json.dumps(payload, indent=2, default=tuple)

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "qubit3"],
            ["construct", "triple"],
            ["construct", "tiles33"],
            ["construct", "sep333"],
            ["construct", "reducible44"],
            ["construct", "shifts", "--n", "3"],
            ["construct", "shift-family", "--n", "30"],
            ["construct", "sqrt-subset", "--n", "19"],
            ["construct", "appendix", "--n", "19"],
            ["construct", "compose", "--left", "sep333", "--right", "qubit3"],
            ["bound", "--dims", "2,2,2,2,2"],
            ["bound", "--dims", "3,3,3,3"],
            ["bound", "--dims", "2,3"],
        ],
    )
    def test_construct_and_bound_print_stdlib_bytes(self, argv, capsys, emitted):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == _canonical(out)
        if argv[0] == "construct":
            # the set is printed by save_set's writer, as a file holds it
            assert emitted == []
            return
        (payload,) = emitted
        assert dumps(payload) == json.dumps(payload, indent=2)

    def test_construct_out_summary_and_file(self, tmp_path, capsys, emitted):
        path = tmp_path / "sf.json"
        assert main(["construct", "shift-family", "--n", "7", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == _canonical(out)
        assert path.read_text() == json.dumps(state_set_to_dict(shift_family(7)), indent=2) + "\n"
