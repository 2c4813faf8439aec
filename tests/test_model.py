import json

import pytest
from hypothesis import given, strategies as st

from blocksched.errors import ParseError, ValidationError
from blocksched.model import (
    Block,
    GlobalState,
    ProgramKind,
    Transaction,
    TxProgram,
    block_from_text,
    block_to_text,
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
    assert run_program(tx, {}) == {}
    assert run_program(tx, {"x": 5}) == {}


def test_run_program_rejects_wrong_reads():
    tx = make_tx(0, reads={"x"}, writes={"y"}, kind=ProgramKind.SUM_AND_ADD)
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
    args = {} if kind is ProgramKind.SLEEP_ONLY else reads
    first = run_program(tx, args)
    assert first == run_program(tx, args)
    assert set(first) <= tx.write_set


def test_transaction_validation():
    with pytest.raises(ValidationError):
        make_tx(0, length=0)
    with pytest.raises(ValidationError):
        make_tx(-1)
    with pytest.raises(ValidationError):
        make_tx(0, writes={""})


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


def test_program_kind_is_checked():
    with pytest.raises(ValidationError):
        TxProgram(kind="nope")  # type: ignore[arg-type]
