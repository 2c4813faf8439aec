import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from blocksched.errors import ParseError, ValidationError
from blocksched.model import (
    _DIGEST_CHUNK,
    Block,
    GlobalState,
    ProgramKind,
    Transaction,
    TxProgram,
    TxResult,
    block_from_obj,
    block_from_text,
    block_hash,
    block_to_obj,
    block_to_text,
    canonical_json,
    run_program,
    validate_block,
    wrap_int64,
)
from blocksched.workload import WorkloadSpec, gen_block

from conftest import make_block, make_tx


def test_write_const_writes_constant():
    tx = make_tx(0, writes={"x"}, kind=ProgramKind.WRITE_CONST, const=7)
    assert run_program(tx, {}) == {"x": 7}


def test_sum_and_add_single_read():
    tx = make_tx(0, reads={"x"}, writes={"y"}, kind=ProgramKind.SUM_AND_ADD, const=1)
    assert run_program(tx, {"x": 1}) == {"y": 2}


def test_sum_and_add_fanout():
    # hand evaluation: 3 + 4 + 0 = 7 written to both targets
    tx = make_tx(0, reads={"a", "b"}, writes={"c", "d"}, kind=ProgramKind.SUM_AND_ADD, const=0)
    assert run_program(tx, {"a": 3, "b": 4}) == {"c": 7, "d": 7}


def test_sleep_only_touches_nothing():
    tx = make_tx(0, reads={"x"}, writes={"y"})
    assert run_program(tx, {"x": 5}) == {}


def test_run_program_rejects_wrong_reads():
    # every kind, SLEEP_ONLY included, must receive exactly its declared reads
    for kind in (ProgramKind.SUM_AND_ADD, ProgramKind.SLEEP_ONLY):
        tx = make_tx(0, reads={"x"}, writes={"y"}, kind=kind)
        with pytest.raises(ValidationError):
            run_program(tx, {"z": 1})
        with pytest.raises(ValidationError):
            run_program(tx, {})


def test_values_wrap_as_int64():
    big = 2**63 - 1
    tx = make_tx(0, reads={"x"}, writes={"y"}, kind=ProgramKind.SUM_AND_ADD, const=1)
    assert run_program(tx, {"x": big}) == {"y": -(2**63)}
    assert wrap_int64(2**64) == 0


@given(
    reads=st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(-50, 50), max_size=3),
    const=st.integers(-100, 100),
    kind=st.sampled_from(list(ProgramKind)),
)
def test_run_program_deterministic_and_bounded(reads, const, kind):
    tx = make_tx(0, reads=set(reads), writes={"w1", "w2"}, kind=kind, const=const)
    first = run_program(tx, reads)
    assert first == run_program(tx, reads)
    assert set(first) <= tx.write_set


def test_transaction_validation():
    with pytest.raises(ValidationError):
        make_tx(0, length=0)
    with pytest.raises(ValidationError):
        make_tx(-1)
    with pytest.raises(ValidationError):
        make_tx(0, writes={""})
    # direct construction keeps every check the parser makes once per block
    program = TxProgram(ProgramKind.SLEEP_ONLY)
    ok = {"id": 0, "read_set": frozenset({"a"}), "write_set": frozenset(), "length": 1, "program": program}
    for field, value, message in [
        ("id", -1, "transaction id must be non-negative, got -1"),
        ("length", 0, "transaction 0: length must be >= 1, got 0"),
        ("read_set", {"a", ""}, "transaction 0: object keys must be non-empty strings"),
        ("write_set", {5}, "transaction 0: object keys must be non-empty strings"),
        ("write_set", [None], "transaction 0: object keys must be non-empty strings"),
    ]:
        with pytest.raises(ValidationError) as info:
            Transaction(**{**ok, field: value})
        assert str(info.value) == message
    tx = Transaction(**{**ok, "read_set": ["a", "b"], "write_set": {"c"}})
    assert tx.read_set == frozenset({"a", "b"}) and type(tx.write_set) is frozenset


def test_validate_block_duplicate_and_sparse_ids():
    good = make_block([make_tx(0), make_tx(1)])
    assert validate_block(good) == []
    dup = make_block([make_tx(0), make_tx(0)])
    assert validate_block(dup) == ["duplicate transaction ids"]
    sparse = make_block([make_tx(0), make_tx(5)])
    assert validate_block(sparse)


def test_global_state_missing_reads_as_zero():
    state = GlobalState({"x": 3})
    assert state.get("x") == 3
    assert state.get("missing") == 0


def test_global_state_normalizes_zeros():
    assert GlobalState({"x": 0}) == GlobalState()
    assert GlobalState({"x": 0}).digest() == GlobalState().digest()
    changed = GlobalState({"x": 3}).with_changes({"x": 0, "y": 2})
    assert changed == GlobalState({"y": 2})


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"": 5}, "state keys must be non-empty strings, got ''"),
        ({1: 5}, "state keys must be non-empty strings, got 1"),
        ({1: 5, "a": 2}, "state keys must be non-empty strings, got 1"),
        ({"a": 1.5}, "state value of 'a' must be an integer, got 1.5"),
        ({"a": 0.0}, "state value of 'a' must be an integer, got 0.0"),
        ({"a": True}, "state value of 'a' must be an integer, got True"),
        ({"b": 1, "a": "2"}, "state value of 'a' must be an integer, got '2'"),
    ],
)
def test_global_state_rejects_what_no_state_file_or_block_can_hold(entries, message):
    # each was once kept, dropped, stored as another value or sorted into a TypeError
    with pytest.raises(ValidationError) as info:
        GlobalState(entries)
    assert str(info.value) == message


def test_with_changes_drops_zeros_wraps_and_keeps_parent():
    parent = GlobalState({"a": 1, "b": 2, "c": 3})
    parent_digest = parent.digest()
    child = parent.with_changes({"a": 0, "b": 2**63, "d": -(2**63) - 1, "e": 0, "f": 5})
    assert child.items() == [("b", -(2**63)), ("c", 3), ("d", 2**63 - 1), ("f", 5)]
    assert parent.items() == [("a", 1), ("b", 2), ("c", 3)]
    assert parent.digest() == parent_digest
    assert child == GlobalState({"b": 2**63, "c": 3, "d": -(2**63) - 1, "f": 5})


@given(
    st.dictionaries(st.sampled_from("abcdefgh"), st.integers(-(2**64), 2**64)),
    st.dictionaries(st.sampled_from("abcdefghij"), st.integers(-(2**64), 2**64) | st.just(0)),
)
def test_with_changes_digest_equals_state_built_from_scratch(base, changes):
    merged = dict(base)
    merged.update(changes)
    child = GlobalState(base).with_changes(changes)
    assert child == GlobalState(merged)
    assert child.digest() == GlobalState(merged).digest()
    assert all(v != 0 and v == wrap_int64(v) for _, v in child.items())


def oracle_items(entries: dict) -> list:
    """The state's entries as the digest has always read them: the non-zero
    pairs, sorted."""
    return sorted((k, v) for k, v in entries.items() if v)


def oracle_digest(entries: dict) -> str:
    """The state digest's reference formula, independent of ``GlobalState``."""
    payload = json.dumps(oracle_items(entries), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# key characters: ASCII around the letters, JSON's escaped characters, and
# non-ASCII from Latin-1 to the astral planes (written as surrogate pairs)
KEY_CHARS = [
    "\x00", "\x1f", " ", '"', "\\", "/", "0", "A", "a", "m", "z", "~", "\x7f",
    "é", "ÿ", "€", "\uffff", "\U0001f600",
]
INT64_EDGES = [1, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, 2**64 + 1, -(2**64)]
STATE_VALUES = st.sampled_from(INT64_EDGES) | st.just(0) | st.integers(-(2**70), 2**70)
STATE_KEYS = st.text(st.sampled_from(KEY_CHARS), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(STATE_KEYS, STATE_VALUES, max_size=12), st.data())
def test_digest_and_items_equal_the_oracle_along_a_change_chain(base, data):
    # every step overwrites, zeroes and re-adds keys seen before (dropped
    # ones included) and adds fresh keys anywhere in the key order
    state = GlobalState(base)
    entries = {k: wrap_int64(v) for k, v in base.items()}
    seen = set(base)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        assert state.items() == oracle_items(entries)
        keys = [k for k, _ in state.items()]
        assert keys == sorted(keys)
        assert state.digest() == oracle_digest(entries)
        known = st.sampled_from(sorted(seen)) if seen else STATE_KEYS
        changes = data.draw(st.dictionaries(known | STATE_KEYS, STATE_VALUES, max_size=6), label="changes")
        before, parent = state.items(), state
        state = state.with_changes(changes)
        assert parent.items() == before
        entries.update({k: wrap_int64(v) for k, v in changes.items()})
        seen.update(changes)
    assert state.items() == oracle_items(entries)
    assert state.digest() == oracle_digest(entries)
    assert state == GlobalState(entries)


def test_fresh_keys_before_inside_and_after_keep_key_order():
    state = GlobalState({"m": 1, "b": 2, "y": 3})
    assert state.items() == [("b", 2), ("m", 1), ("y", 3)]
    state = state.with_changes({"m": 5, "a": 1, "n": 2, "z": 3, "b": 0})
    assert state.items() == [("a", 1), ("m", 5), ("n", 2), ("y", 3), ("z", 3)]
    state = state.with_changes({"b": 9, "y": 0})  # re-adds a dropped key
    assert state.items() == [("a", 1), ("b", 9), ("m", 5), ("n", 2), ("z", 3)]


def big_state_entries(seed: int) -> dict:
    """A 20 008-key state built as the benchmark's ``smr-big-state`` workload
    builds its replica's state for ``seed``: 8 hot keys, then 20 000 cold
    keys, each with a seeded value in [1, 10^6]."""
    derived = int.from_bytes(hashlib.sha256(repr(("smr-big-state", seed)).encode()).digest()[:8], "big")
    rng = random.Random(derived)
    keys = [f"h{i}" for i in range(8)] + [f"c{i}" for i in range(20_000)]
    return {key: rng.randint(1, 1_000_000) for key in keys}


def test_state_digests_are_golden():
    # recorded with the sort-per-digest implementation; they pin the byte
    # format even if the oracle and the code were changed together
    assert GlobalState().digest() == "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    big = GlobalState(big_state_entries(1))
    assert len(big.items()) == 20_008
    assert big.digest() == "4b593354bda3eb898125819cf07df67db0fe60c70ff2c234cebfeb50229cfab6"
    child = big.with_changes({"c5": 0, "a": 7, "zz": -1, "h3": 2**63, "c10000": 5, "c99999": 3})
    assert child.digest() == "8f33a626b3dbb09a85aa16dd748107bebebc57a1036d5226f0be25c7f0aee2ac"


@pytest.mark.parametrize("n", [0, 1, _DIGEST_CHUNK - 1, _DIGEST_CHUNK, _DIGEST_CHUNK + 1,
                               2 * _DIGEST_CHUNK, 2 * _DIGEST_CHUNK + 1])
def test_streamed_digest_equals_the_oracle_at_every_chunk_boundary(n):
    # keys of escaped, control and astral characters, drawn in no key order
    keys = random.Random(n).sample(["".join(p) for p in itertools.product(KEY_CHARS, repeat=3)], n)
    values = itertools.cycle(v for v in INT64_EDGES if wrap_int64(v))
    entries = {key: wrap_int64(next(values)) for key in keys}
    state = GlobalState(entries)
    assert len(state.items()) == n
    assert state.digest() == oracle_digest(entries)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digest_does_not_build_the_whole_payload():
    # the one-shot formula holds every entry's tuple and the whole JSON text
    state = GlobalState(big_state_entries(1))
    one_shot = _traced_peak(lambda: hashlib.sha256(canonical_json(state.items()).encode()).hexdigest())
    streamed = _traced_peak(state.digest)
    assert streamed < one_shot / 8


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.sampled_from(INT64_EDGES)
    | st.text()
    | st.text(st.sampled_from(KEY_CHARS))
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.text(st.sampled_from(KEY_CHARS)), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_TREES)
def test_canonical_json_writes_the_bytes_of_compact_dumps(tree):
    assert canonical_json(tree) == json.dumps(tree, separators=(",", ":"))


def test_canonical_json_examples():
    assert canonical_json([("ké\"\\\n", 2**64), None, True, {"b": [], "a": ()}]) == (
        '[["k\\u00e9\\"\\\\\\n",18446744073709551616],null,true,{"b":[],"a":[]}]'
    )
    assert canonical_json("\U0001f600") == '"\\ud83d\\ude00"'


def test_block_round_trip_identity():
    block = gen_block(WorkloadSpec(n_txs=9, key_universe=6, length_mode="heterogeneous", seed=11))
    text = block_to_text(block)
    parsed = block_from_text(text)
    assert parsed == block
    assert block_to_text(parsed) == text
    assert block_from_text(block_to_text(parsed)) == parsed


@given(seed=st.integers(0, 10_000), n=st.integers(0, 12))
def test_block_round_trip_random(seed, n):
    block = gen_block(WorkloadSpec(n_txs=n, key_universe=5, length_mode="heterogeneous", seed=seed))
    assert block_from_text(block_to_text(block)) == block


def test_parse_errors_are_reported():
    with pytest.raises(ParseError):
        block_from_text("{not json")
    with pytest.raises(ParseError):
        block_from_text('{"seq": 0, "prev_hash": "zz", "txs": []}')
    with pytest.raises(ParseError):
        block_from_text('{"seq": 0, "prev_hash": ""}')
    with pytest.raises(ParseError):
        block_from_text(
            '{"seq": 0, "prev_hash": "", "txs": [{"id": 0, "reads": [], "writes": [],'
            ' "length": 1, "program": {"kind": "bogus", "const": 0}}]}'
        )


_GONE = object()
_BASE_TXS = [
    {"id": 0, "reads": ["a"], "writes": ["b"], "length": 1, "program": {"kind": "write_const", "const": 3}},
    {"id": 1, "reads": [], "writes": ["b", "c"], "length": 2, "program": {"kind": "sum_and_add", "const": -1}},
]


def _doc(tx=(), prog=(), **top):
    """A valid two-transaction block document with fields of the block, of
    tx[1] or of tx[1]'s program replaced, or removed with ``_GONE``."""
    obj = {"seq": 0, "prev_hash": "", "txs": json.loads(json.dumps(_BASE_TXS))}
    for target, edits in ((obj, top), (obj["txs"][1], dict(tx)), (obj["txs"][1]["program"], dict(prog))):
        for key, value in edits.items():
            if value is _GONE:
                del target[key]
            else:
                target[key] = value
    return json.dumps(obj)


# Malformed documents with the exact error text the parser gave before field
# types were checked; none of them has a type fault, so the text must not change.
_GOLDEN_REJECTS = [
    ('', 'invalid JSON at line 1: Expecting value'),
    ('{', 'invalid JSON at line 1: Expecting property name enclosed in double quotes'),
    ('[]', 'block document must be a JSON object'),
    ('5', 'block document must be a JSON object'),
    ('"x"', 'block document must be a JSON object'),
    ('null', 'block document must be a JSON object'),
    ('{}', "block: missing field 'seq'"),
    ('{"seq": 0}', "block: missing field 'prev_hash'"),
    (_doc(seq=_GONE), "block: missing field 'seq'"),
    (_doc(prev_hash=_GONE), "block: missing field 'prev_hash'"),
    (_doc(txs=_GONE), "block: missing field 'txs'"),
    (_doc(seq=-1), 'block: block seq must be non-negative, got -1'),
    (_doc(seq="0"), 'block: seq must be an integer'),
    (_doc(seq=1.5), 'block: seq must be an integer'),
    (_doc(seq=True), 'block: seq must be an integer'),
    (_doc(seq=None), 'block: seq must be an integer'),
    (_doc(seq=[0]), 'block: seq must be an integer'),
    (_doc(prev_hash="zz"), 'block: prev_hash is not valid hex'),
    (_doc(prev_hash="abc"), 'block: prev_hash is not valid hex'),
    (_doc(prev_hash=5), 'block: prev_hash is not valid hex'),
    (_doc(prev_hash=None), 'block: prev_hash is not valid hex'),
    (_doc(prev_hash=["00"]), 'block: prev_hash is not valid hex'),
    (_doc(txs={}), 'block: txs must be a list'),
    (_doc(txs="x"), 'block: txs must be a list'),
    (_doc(txs=5), 'block: txs must be a list'),
    (_doc(txs=None), 'block: txs must be a list'),
    (_doc(txs=[5]), 'tx[0]: must be a JSON object'),
    (_doc(txs=[["x"]]), 'tx[0]: must be a JSON object'),
    (_doc(txs=[None]), 'tx[0]: must be a JSON object'),
    (_doc(tx={"id": _GONE}), "tx[1]: missing field 'id'"),
    (_doc(tx={"reads": _GONE}), "tx[1]: missing field 'reads'"),
    (_doc(tx={"writes": _GONE}), "tx[1]: missing field 'writes'"),
    (_doc(tx={"length": _GONE}), "tx[1]: missing field 'length'"),
    (_doc(tx={"program": _GONE}), "tx[1]: missing field 'program'"),
    (_doc(tx={"id": -1}), 'tx[1]: transaction id must be non-negative, got -1'),
    (_doc(tx={"id": -7}), 'tx[1]: transaction id must be non-negative, got -7'),
    (_doc(tx={"length": 0}), 'tx[1]: transaction 1: length must be >= 1, got 0'),
    (_doc(tx={"length": -3}), 'tx[1]: transaction 1: length must be >= 1, got -3'),
    (_doc(tx={"reads": ["a", 5]}), 'tx[1]: transaction 1: object keys must be non-empty strings'),
    (_doc(tx={"reads": ["a", ""]}), 'tx[1]: transaction 1: object keys must be non-empty strings'),
    (_doc(tx={"reads": [None]}), 'tx[1]: transaction 1: object keys must be non-empty strings'),
    (_doc(tx={"writes": ["a", 5]}), 'tx[1]: transaction 1: object keys must be non-empty strings'),
    (_doc(tx={"writes": ["a", ""]}), 'tx[1]: transaction 1: object keys must be non-empty strings'),
    (_doc(tx={"writes": [None]}), 'tx[1]: transaction 1: object keys must be non-empty strings'),
    (_doc(tx={"program": "x"}), "tx[1]: missing field 'kind'"),
    (_doc(tx={"program": []}), "tx[1]: missing field 'kind'"),
    (_doc(tx={"program": {}}), "tx[1]: missing field 'kind'"),
    (_doc(prog={"kind": _GONE}), "tx[1]: missing field 'kind'"),
    (_doc(prog={"const": _GONE}), "tx[1]: missing field 'const'"),
    (_doc(prog={"kind": "bogus"}), "tx[1]: unknown program kind 'bogus'"),
    (_doc(prog={"kind": 5}), 'tx[1]: unknown program kind 5'),
    (_doc(prog={"kind": None}), 'tx[1]: unknown program kind None'),
    (_doc(prog={"kind": []}), 'tx[1]: unknown program kind []'),
    (_doc(prog={"kind": ["write_const"]}), "tx[1]: unknown program kind ['write_const']"),
    (_doc(prog={"kind": True}), 'tx[1]: unknown program kind True'),
    (_doc(prog={"kind": "WRITE_CONST"}), "tx[1]: unknown program kind 'WRITE_CONST'"),
    (_doc(seq=-1, tx={"length": 0}), 'tx[1]: transaction 1: length must be >= 1, got 0'),
    (_doc(tx={"id": -1, "length": 0}), 'tx[1]: transaction id must be non-negative, got -1'),
    (_doc(tx={"length": 0, "reads": [""]}), 'tx[1]: transaction 1: length must be >= 1, got 0'),
    (_doc(tx={"id": -1, "reads": ["a", 5]}), 'tx[1]: transaction id must be non-negative, got -1'),
    (_doc(tx={"writes": _GONE}, prog={"kind": "bogus"}), "tx[1]: unknown program kind 'bogus'"),
    (_doc(tx={"id": _GONE}, prog={"const": _GONE}), "tx[1]: missing field 'id'"),
    (_doc(tx={"length": _GONE, "id": -1}), "tx[1]: missing field 'length'"),
    (_doc(seq="x", prev_hash="zz"), 'block: seq must be an integer'),
    (_doc(prev_hash="zz", txs="x"), 'block: prev_hash is not valid hex'),
]


@pytest.mark.parametrize(
    "text, message", _GOLDEN_REJECTS, ids=[f"doc{i}" for i in range(len(_GOLDEN_REJECTS))]
)
def test_parse_error_text_is_golden(text, message):
    with pytest.raises(ParseError) as info:
        block_from_text(text)
    assert str(info.value) == message


_TYPE_FAULTS = [
    (_doc(tx={"id": "x"}), "tx[1]: id must be an integer"),
    (_doc(tx={"id": 1.0}), "tx[1]: id must be an integer"),
    (_doc(tx={"id": -1.5}), "tx[1]: id must be an integer"),
    (_doc(tx={"id": True}), "tx[1]: id must be an integer"),
    (_doc(tx={"id": None}), "tx[1]: id must be an integer"),
    (_doc(tx={"length": "2"}), "tx[1]: length must be an integer"),
    (_doc(tx={"length": 2.0}), "tx[1]: length must be an integer"),
    (_doc(tx={"length": 0.5}), "tx[1]: length must be an integer"),
    (_doc(tx={"length": False}), "tx[1]: length must be an integer"),
    (_doc(tx={"length": [1]}), "tx[1]: length must be an integer"),
    (_doc(prog={"const": "x"}), "tx[1]: const must be an integer"),
    (_doc(prog={"const": 1.5}), "tx[1]: const must be an integer"),
    (_doc(prog={"const": True}), "tx[1]: const must be an integer"),
    (_doc(prog={"const": None}), "tx[1]: const must be an integer"),
    (_doc(tx={"reads": 5}), "tx[1]: reads must be a list"),
    (_doc(tx={"reads": "ab"}), "tx[1]: reads must be a list"),
    (_doc(tx={"reads": {"a": 1}}), "tx[1]: reads must be a list"),
    (_doc(tx={"writes": "bc"}), "tx[1]: writes must be a list"),
    (_doc(tx={"writes": None}), "tx[1]: writes must be a list"),
    (_doc(tx={"reads": [["a"]]}), "tx[1]: transaction 1: object keys must be non-empty strings"),
    (_doc(tx={"writes": [{"a": 1}]}), "tx[1]: transaction 1: object keys must be non-empty strings"),
    (_doc(tx={"program": None}), "tx[1]: missing field 'kind'"),
    (_doc(tx={"program": "kind"}), "tx[1]: missing field 'kind'"),
    (_doc(tx={"program": ["kind"]}), "tx[1]: missing field 'kind'"),
]


@pytest.mark.parametrize(
    "text, message", _TYPE_FAULTS, ids=[f"doc{i}" for i in range(len(_TYPE_FAULTS))]
)
def test_parse_rejects_wrong_field_types(text, message):
    with pytest.raises(ParseError) as info:
        block_from_text(text)
    assert str(info.value) == message


def test_block_rejects_negative_seq():
    with pytest.raises(ValidationError):
        Block(seq=-1, prev_hash=b"", txs=())


def test_parse_builds_the_block_without_its_constructor_checks(monkeypatch):
    block = gen_block(WorkloadSpec(n_txs=20, key_universe=8, seed=4), seq=3, prev_hash=b"\x07")
    text = block_to_text(block)

    def refuse(self):
        raise AssertionError("the parser re-ran the Block checks")

    monkeypatch.setattr(Block, "__post_init__", refuse)
    parsed = block_from_text(text)
    assert (parsed.seq, parsed.prev_hash, parsed.txs) == (block.seq, block.prev_hash, block.txs)
    assert type(parsed.prev_hash) is bytes and type(parsed.txs) is tuple
    assert block_to_text(parsed) == text


def test_block_takes_a_bytearray_prev_hash_as_bytes():
    block = Block(seq=0, prev_hash=bytearray(b"\x01\xff"), txs=[make_tx(0)])
    assert type(block.prev_hash) is bytes and block.prev_hash == b"\x01\xff"
    assert type(block.txs) is tuple
    assert block_from_text(block_to_text(block)) == block


def test_program_kind_is_checked():
    with pytest.raises(ValidationError):
        TxProgram(kind="nope")  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_tx(False), "transaction id must be an integer, got False"),
        (lambda: make_tx(1.0), "transaction id must be an integer, got 1.0"),
        (lambda: make_tx(0, length=True), "transaction 0: length must be an integer, got True"),
        (lambda: make_tx(0, length=2.5), "transaction 0: length must be an integer, got 2.5"),
        (lambda: make_tx(0, length="1"), "transaction 0: length must be an integer, got '1'"),
        (lambda: Block(seq=True, prev_hash=b"", txs=()), "block seq must be an integer, got True"),
        (lambda: Block(seq=2.0, prev_hash=b"", txs=()), "block seq must be an integer, got 2.0"),
        (lambda: Block(seq=0, prev_hash=3, txs=()), "block prev_hash must be bytes, got 3"),
        (lambda: Block(seq=0, prev_hash="ab", txs=()), "block prev_hash must be bytes, got 'ab'"),
        (lambda: Block(seq=0, prev_hash=b"", txs=(1,)), "block txs[0] must be a Transaction, got 1"),
        (
            lambda: Block(seq=0, prev_hash=b"", txs=[make_tx(0), {"id": 1}]),
            "block txs[1] must be a Transaction, got {'id': 1}",
        ),
        (lambda: TxProgram(ProgramKind.WRITE_CONST, 2.5), "program const_value must be an integer, got 2.5"),
        (lambda: TxProgram(ProgramKind.WRITE_CONST, True), "program const_value must be an integer, got True"),
    ],
)
def test_constructors_reject_what_the_block_format_cannot_hold(build, message):
    # each of these once built a block whose text its own parser rejected
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


# about one field value in eight is odd, so that most drawn blocks get built
_ODD_FIELD_VALUES = st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))
_FIELD_VALUES = st.integers(0, 7).flatmap(lambda i: _ODD_FIELD_VALUES if i == 7 else st.integers(0, 3))
_KEYS = st.frozensets(st.text(min_size=1, max_size=2), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    seq=_FIELD_VALUES,
    prev_hash=st.binary(max_size=4),
    fields=st.lists(
        st.tuples(_FIELD_VALUES, _KEYS, _KEYS, _FIELD_VALUES, st.sampled_from(ProgramKind), _FIELD_VALUES),
        max_size=3,
    ),
)
def test_every_block_the_constructors_accept_round_trips_through_text(seq, prev_hash, fields):
    try:
        txs = [
            Transaction(id=tx_id, read_set=reads, write_set=writes, length=length, program=TxProgram(kind, const))
            for tx_id, reads, writes, length, kind, const in fields
        ]
        block = Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))
    except ValidationError:
        return
    text = block_to_text(block)
    assert block_from_text(text) == block
    assert block_to_text(block_from_text(text)) == text


# The parser before the one-pass loop, kept as an oracle: every field through
# ``_require`` / ``_typed`` and every object through the checked constructors.
def _oracle_require(obj, key, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _oracle_typed(obj, key, kind, where):
    value = _oracle_require(obj, key, where)
    if type(value) is not kind:
        raise ParseError(f"{where}: {key} must be {'an integer' if kind is int else 'a list'}")
    return value


def _oracle_is_object(value):
    return type(value) is dict or isinstance(value, Mapping)


def oracle_block_from_obj(obj):
    where = "block"
    if not _oracle_is_object(obj):
        raise ParseError("block document must be a JSON object")
    seq = _oracle_require(obj, "seq", where)
    prev_hex = _oracle_require(obj, "prev_hash", where)
    raw_txs = _oracle_require(obj, "txs", where)
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ParseError(f"{where}: seq must be an integer")
    try:
        prev_hash = bytes.fromhex(prev_hex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: prev_hash is not valid hex") from exc
    if not isinstance(raw_txs, list):
        raise ParseError(f"{where}: txs must be a list")
    txs = []
    for i, raw in enumerate(raw_txs):
        twhere = f"tx[{i}]"
        if not _oracle_is_object(raw):
            raise ParseError(f"{twhere}: must be a JSON object")
        prog = _oracle_require(raw, "program", twhere)
        if not _oracle_is_object(prog):
            raise ParseError(f"{twhere}: missing field 'kind'")
        try:
            kind = ProgramKind(_oracle_require(prog, "kind", twhere))
        except ValueError as exc:
            raise ParseError(f"{twhere}: unknown program kind {prog.get('kind')!r}") from exc
        tx_id = _oracle_typed(raw, "id", int, twhere)
        reads = _oracle_typed(raw, "reads", list, twhere)
        writes = _oracle_typed(raw, "writes", list, twhere)
        length = _oracle_typed(raw, "length", int, twhere)
        const = _oracle_typed(prog, "const", int, twhere)
        try:
            read_set, write_set = frozenset(reads), frozenset(writes)
        except TypeError as exc:
            raise ParseError(
                f"{twhere}: transaction {tx_id}: object keys must be non-empty strings"
            ) from exc
        try:
            txs.append(
                Transaction(
                    id=tx_id,
                    read_set=read_set,
                    write_set=write_set,
                    length=length,
                    program=TxProgram(kind=kind, const_value=const),
                )
            )
        except ValidationError as exc:
            raise ParseError(f"{twhere}: {exc}") from exc
    try:
        return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))
    except ValidationError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _outcome(parse, obj):
    """The parsed block's text and hash, or the error text."""
    try:
        block = parse(obj)
    except ParseError as exc:
        return ("error", str(exc))
    return ("block", block, block_to_text(block), block_hash(block))


_SPECS = st.builds(
    WorkloadSpec,
    n_txs=st.integers(0, 60),
    key_universe=st.integers(4, 40),
    length_mode=st.sampled_from(["homogeneous", "heterogeneous"]),
    conflict_p=st.none() | st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=60, deadline=None)
@given(spec=_SPECS, seq=st.integers(0, 5), prev_hash=st.binary(max_size=8))
def test_parse_equals_oracle_on_generated_blocks(spec, seq, prev_hash):
    obj = json.loads(block_to_text(gen_block(spec, seq=seq, prev_hash=prev_hash)))
    ours = _outcome(block_from_obj, obj)
    assert ours == _outcome(oracle_block_from_obj, obj)
    assert block_from_text(ours[2]) == ours[1]


_ODD_VALUES = [
    _GONE, -1, 0, 1, 2**64, -(2**63) - 1, 1.5, True, False, None, "", "x", "a", "write_const",
    "sum_and_add", "bogus", [], ["a"], ["a", "a"], ["a", ""], ["a", 5], [None], [["a"]],
    [{"a": 1}], {}, {"kind": "write_const"}, {"kind": "sleep_only", "const": 1},
]


def _edit(field, value):
    return (field, 1, next(i for i, v in enumerate(_ODD_VALUES) if v == value and type(v) is type(value)))


@settings(max_examples=300, deadline=None)
# an unhashable key is reported before a bad id or length; a bad id or length
# before an empty or non-string key
@example(edits=[_edit("prog.kind", "bogus"), _edit("tx.id", "x")])
@example(edits=[_edit("tx.id", 1.5), _edit("tx.reads", "x")])
@example(edits=[_edit("tx.reads", None), _edit("tx.writes", {})])
@example(edits=[_edit("tx.writes", "a"), _edit("tx.length", True)])
@example(edits=[_edit("tx.length", "x"), _edit("prog.const", 1.5)])
@example(edits=[_edit("prog.const", None), _edit("tx.reads", [["a"]])])
@example(edits=[_edit("tx.id", -1), _edit("tx.reads", [["a"]])])
@example(edits=[_edit("tx.length", 0), _edit("tx.writes", [{"a": 1}])])
@example(edits=[_edit("tx.length", 0), _edit("tx.writes", ["a", 5])])
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["seq", "prev_hash", "txs", "tx.id", "tx.reads", "tx.writes",
                             "tx.length", "tx.program", "prog.kind", "prog.const"]),
            st.integers(0, 2),
            st.sampled_from(range(len(_ODD_VALUES))),
        ),
        max_size=4,
    )
)
def test_parse_error_text_and_order_equal_oracle(edits):
    obj = {"seq": 0, "prev_hash": "", "txs": json.loads(json.dumps(_BASE_TXS * 2))}
    for tx_id, tx in enumerate(obj["txs"]):
        tx["id"] = tx_id
    for field, which, value_index in edits:
        value = copy.deepcopy(_ODD_VALUES[value_index])
        owner, _, key = field.rpartition(".")
        txs = obj["txs"] if isinstance(obj["txs"], list) else []
        target = obj if not owner else (txs[which] if which < len(txs) else None)
        if owner == "prog":
            target = target.get("program") if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue
        if value is _GONE:
            target.pop(key, None)
        else:
            target[key] = value
    assert _outcome(block_from_obj, obj) == _outcome(oracle_block_from_obj, obj)


@pytest.mark.parametrize(
    "text, message",
    _GOLDEN_REJECTS + _TYPE_FAULTS,
    ids=[f"doc{i}" for i in range(len(_GOLDEN_REJECTS) + len(_TYPE_FAULTS))],
)
def test_golden_corpus_equals_oracle(text, message):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return
    assert _outcome(block_from_obj, obj) == _outcome(oracle_block_from_obj, obj) == ("error", message)


def test_parse_shares_programs_per_kind_and_const():
    block = gen_block(WorkloadSpec(n_txs=400, key_universe=50, seed=3))
    parsed = block_from_text(block_to_text(block))
    shared = {}
    for tx in parsed.txs:
        key = (tx.program.kind, tx.program.const_value)
        assert shared.setdefault(key, tx.program) is tx.program
    assert len(shared) < len(parsed.txs)
    # const values that wrap to the same int64 are equal programs
    obj = block_to_obj(block)
    obj["txs"][0]["program"] = {"kind": "write_const", "const": 2**64 + 5}
    obj["txs"][1]["program"] = {"kind": "write_const", "const": 5}
    again = block_from_obj(obj)
    assert again.txs[0].program == again.txs[1].program == TxProgram(ProgramKind.WRITE_CONST, 5)


def test_parse_accepts_enum_kinds_and_other_mappings():
    class Doc(Mapping):
        def __init__(self, data):
            self._data = data

        def __getitem__(self, key):
            return self._data[key]

        def __iter__(self):
            return iter(self._data)

        def __len__(self):
            return len(self._data)

    obj = block_to_obj(gen_block(WorkloadSpec(n_txs=6, key_universe=4, seed=8)))
    for tx in obj["txs"]:
        tx["program"] = Doc({"kind": ProgramKind(tx["program"]["kind"]), "const": tx["program"]["const"]})
    wrapped = Doc({**obj, "txs": [Doc(tx) for tx in obj["txs"]]})
    assert _outcome(block_from_obj, wrapped) == _outcome(oracle_block_from_obj, wrapped)


def test_transaction_and_program_are_slotted_and_frozen():
    tx = make_tx(3, reads={"a"}, writes={"b", "c"}, length=2, kind=ProgramKind.SUM_AND_ADD, const=-4)
    for obj in (tx, tx.program):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(TypeError):
            vars(obj)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.length = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.program.const_value = 1
    parsed = block_from_text(block_to_text(make_block([tx]))).txs[0]
    for original in (tx, parsed, tx.program, parsed.program):
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original), copy.copy(original)):
            assert clone == original
            assert hash(clone) == hash(original)
            assert type(clone) is type(original)



def test_tx_result_holds_only_what_was_observed():
    assert [f.name for f in dataclasses.fields(TxResult)] == [
        "tx_id",
        "read_values",
        "written_values",
    ]
