import json

import pytest

from blocksched import executor, replication
from blocksched.cli import main
from blocksched.model import block_to_obj, write_block_file, write_stream_file
from blocksched.replication import BUILTIN_RUNNERS
from blocksched.workload import WorkloadSpec, chain_block, gen_commutative_stream, gen_stream

from conftest import make_block, make_tx, inject_tx_failure, run_bounded


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    write_block_file(path, chain_block(6))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schedule_min_coloring_chain(chain_file, capsys):
    code, out, _ = run_cli(capsys, "schedule", chain_file, "--runner", "min-coloring")
    assert code == 0
    assert "block_latency 2" in out
    assert "levels:" in out


def test_schedule_order_chain(chain_file, capsys):
    code, out, _ = run_cli(capsys, "schedule", chain_file, "--runner", "order")
    assert code == 0
    assert "block_latency 6" in out


def test_schedule_golden_output(chain_file, capsys):
    _, out, _ = run_cli(capsys, "schedule", chain_file, "--runner", "min-coloring")
    assert out == (
        "6 5\n"
        "0 1\n"
        "2 1\n"
        "2 3\n"
        "4 3\n"
        "4 5\n"
        "levels:\n"
        "0 2 4\n"
        "1 3 5\n"
        "block_latency 2\n"
        "mean_latency 1.5000\n"
        "p95_latency 2\n"
    )


def test_execute_two_tx_block(tmp_path, capsys):
    from blocksched.model import ProgramKind

    block = make_block(
        [
            make_tx(0, writes={"x"}, kind=ProgramKind.WRITE_CONST, const=1),
            make_tx(1, reads={"x"}, writes={"y"}, kind=ProgramKind.SUM_AND_ADD, const=1),
        ]
    )
    path = tmp_path / "two.json"
    write_block_file(path, block)
    code, out, _ = run_cli(capsys, "execute", str(path), "--runner", "min-coloring")
    assert code == 0
    assert "y 2" in out


def test_execute_simulate_makespan(chain_file, capsys):
    code, out, _ = run_cli(capsys, "execute", chain_file, "--simulate")
    assert code == 0
    assert "makespan 2" in out


def test_execute_trace_lists_all_transactions(chain_file, capsys):
    code, out, _ = run_cli(capsys, "execute", chain_file, "--trace")
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(trace_lines) >= 6


@pytest.mark.parametrize("runner", list(BUILTIN_RUNNERS))
def test_execute_trace_has_one_interval_per_transaction(chain_file, capsys, runner):
    code, out, _ = run_cli(capsys, "execute", chain_file, "--runner", runner, "--trace")
    assert code == 0
    lines = out.splitlines()
    intervals = lines[lines.index("trace:") + 1 : lines.index("results:")]
    assert sorted(int(line.split()[0]) for line in intervals) == list(range(6))


@pytest.mark.parametrize(
    "flags, noted",
    [
        (["--runner", "min-coloring"], False),
        (["--runner", "min-coloring", "--exact-cap", "4"], True),
        (["--runner", "weighted-coloring", "--weighted-cap", "25"], False),
        (["--runner", "weighted-coloring"], True),
        (["--runner", "weighted-coloring", "--weighted-cap", "4", "--treat-epsilon-homogeneous", "0"], True),
        (["--runner", "greedy"], False),
        (["--runner", "batch"], False),
        (["--runner", "order"], False),
    ],
)
def test_schedule_notes_every_exact_fallback(tmp_path, capsys, flags, noted):
    path = tmp_path / "chain25.json"
    write_block_file(path, chain_block(25))
    code, out, _ = run_cli(capsys, "schedule", str(path), *flags)
    assert code == 0
    note = "note: exact coloring above cap, fell back to greedy"
    assert (out.splitlines()[0] == note) is noted


@pytest.mark.parametrize("runner", ["min-coloring", "batch"])
def test_execute_raising_transaction_exits_4(chain_file, capsys, monkeypatch, runner):
    inject_tx_failure(monkeypatch, bad_id=2)
    code, out, err = run_bounded(lambda: run_cli(capsys, "execute", chain_file, "--runner", runner))
    assert code == 4
    assert "tx 2" in err
    assert "results:" not in out


def test_execute_empty_block(tmp_path, capsys):
    path = tmp_path / "empty.json"
    write_block_file(path, make_block([]))
    code, out, _ = run_cli(capsys, "execute", str(path))
    assert code == 0
    assert "results:" in out


def test_execute_with_state_file(tmp_path, capsys):
    from blocksched.model import ProgramKind

    block = make_block(
        [make_tx(0, reads={"x"}, writes={"y"}, kind=ProgramKind.SUM_AND_ADD, const=0)]
    )
    bpath = tmp_path / "b.json"
    write_block_file(bpath, block)
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"x": 41}))
    code, out, _ = run_cli(capsys, "execute", str(bpath), "--state", str(spath))
    assert code == 0
    assert "y 41" in out


def test_smr_digests_agree_across_runners(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    write_stream_file(stream, gen_commutative_stream(4, n=8, seed=2))
    digests = set()
    for runner in ("min-coloring", "order"):
        code, out, _ = run_cli(
            capsys, "smr", str(stream), "--ledger", str(tmp_path / f"l-{runner}"),
            "--runner", runner,
        )
        assert code == 0
        digests.add(out.strip().split()[-1])
    assert len(digests) == 1


def test_smr_resume(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    write_stream_file(stream, gen_stream([WorkloadSpec(n_txs=5, seed=i) for i in range(4)]))
    ledger = tmp_path / "ledger"
    code, full_out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(tmp_path / "ref"))
    assert code == 0
    code, _, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(ledger), "--max-blocks", "2")
    assert code == 0
    code, resumed_out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(ledger), "--resume")
    assert code == 0
    assert resumed_out.strip() == full_out.strip()


def test_smr_halts_on_gap(tmp_path, capsys):
    blocks = gen_stream([WorkloadSpec(n_txs=3, seed=i) for i in range(2)])
    from blocksched.model import Block

    broken = [blocks[0], Block(seq=4, prev_hash=blocks[1].prev_hash, txs=blocks[1].txs)]
    stream = tmp_path / "stream.jsonl"
    write_stream_file(stream, broken)
    code, _, err = run_cli(capsys, "smr", str(stream), "--ledger", str(tmp_path / "l"))
    assert code == 2
    assert "gap" in err


def test_analyze_p_zero_and_reproducible(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "analyze", "--ns", "10", "--ps", "0.0", "--samples", "5",
        "--seed", "1", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,p,samples,mean_ratio,min_ratio,max_ratio,seed"
    assert lines[1].startswith("10,0.0,5,1.0,")
    first = out_csv.read_bytes()
    run_cli(
        capsys, "analyze", "--ns", "10", "--ps", "0.0", "--samples", "5",
        "--seed", "1", "--out", str(out_csv), "--workers", "2",
    )
    assert out_csv.read_bytes() == first


def test_oracle_chain(chain_file, capsys):
    code, out, _ = run_cli(capsys, "oracle", chain_file, "--double-check")
    assert code == 0
    assert "optimal_latency 2" in out


def test_oracle_triangle(tmp_path, capsys):
    txs = [make_tx(i, writes={"shared"}) for i in range(3)]
    path = tmp_path / "k3.json"
    write_block_file(path, make_block(txs))
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert "optimal_latency 3" in out


def test_oracle_capacity_exit_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_block_file(path, chain_block(12))
    code, _, err = run_cli(capsys, "oracle", str(path))
    assert code == 3
    assert "capacity" in err


def test_malformed_block_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "schedule", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "field, value",
    [("id", "x"), ("length", "2"), ("reads", 5), ("reads", "ab"), ("const", "x"), ("const", 1.5)],
)
def test_wrongly_typed_field_exits_2(tmp_path, capsys, field, value):
    obj = block_to_obj(chain_block(2))
    target = obj["txs"][1]["program"] if field == "const" else obj["txs"][1]
    target[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "schedule", str(path))
    assert code == 2
    assert err.startswith(f"error: tx[1]: {field} must be")


@pytest.mark.parametrize("runner", list(BUILTIN_RUNNERS))
def test_execute_simulate_checks_the_plan_once(chain_file, capsys, monkeypatch, runner):
    calls = []

    def counting(name, real):
        def check(*args):
            calls.append(name)
            return real(*args)

        return check

    for module in (replication, executor):
        for name in ("is_valid_schedule", "is_valid_batch_schedule"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, out, _ = run_cli(capsys, "execute", chain_file, "--runner", runner, "--simulate")
    assert code == 0
    assert "makespan" in out
    expected = "is_valid_batch_schedule" if runner == "batch" else "is_valid_schedule"
    assert calls == [expected]


def test_conflicts_dump(chain_file, capsys):
    code, out, _ = run_cli(capsys, "conflicts", chain_file)
    assert code == 0
    assert out == "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"


def test_gen_block_and_schedule_round_trip(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    code, _, _ = run_cli(
        capsys, "gen-block", "--out", str(out_file), "--n", "7", "--seed", "5",
        "--conflict-p", "0.4",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "schedule", str(out_file), "--runner", "greedy")
    assert code == 0
    assert "block_latency" in out


def test_gen_stream_then_smr(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    code, _, _ = run_cli(
        capsys, "gen-stream", "--out", str(stream), "--blocks", "3", "--n", "5", "--seed", "9"
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(tmp_path / "l"))
    assert code == 0
    assert out.startswith("final_state_digest ")


def test_gen_block_chain_flag(tmp_path, capsys):
    out_file = tmp_path / "chain.json"
    code, _, _ = run_cli(capsys, "gen-block", "--out", str(out_file), "--n", "4", "--chain")
    assert code == 0
    code, out, _ = run_cli(capsys, "oracle", str(out_file))
    assert code == 0
    assert "optimal_latency 2" in out
