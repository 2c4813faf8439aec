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


def test_block_rejects_negative_seq():
    with pytest.raises(ValidationError):
        Block(seq=-1, prev_hash=b"", txs=())


def test_program_kind_is_checked():
    with pytest.raises(ValidationError):
        TxProgram(kind="nope")  # type: ignore[arg-type]
