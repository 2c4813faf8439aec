import argparse
import dataclasses
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import blocksched
from blocksched import analysis, cli, executor, model, replication
from blocksched.cli import main
from blocksched.conflict import build_conflict_graph
from blocksched.errors import ValidationError
from blocksched.model import GlobalState, block_to_obj, write_block_file, write_stream_file
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


EXACT_FALLBACK_NOTE = "note: exact coloring above cap, fell back to greedy"


# chains of 20, 25 and 65 transactions: within both vertex caps, above the
# weighted cap (20) only, above the unweighted cap (64) too
@pytest.mark.parametrize(
    "flags, noted",
    [
        (["chain25.json", "--runner", "min-coloring"], False),
        (["chain65.json", "--runner", "min-coloring"], True),
        (["chain20.json", "--runner", "weighted-coloring"], False),
        (["chain25.json", "--runner", "weighted-coloring"], True),
        (["chain65.json", "--runner", "weighted-coloring", "--treat-epsilon-homogeneous", "0"], True),
        (["chain65.json", "--runner", "greedy"], False),
        (["chain65.json", "--runner", "batch"], False),
        (["chain65.json", "--runner", "order"], False),
        (["chain25.json", "--runner", "weighted-coloring", "--treat-epsilon-homogeneous", "0"], False),
    ],
)
def test_schedule_notes_every_exact_fallback(tmp_path, monkeypatch, capsys, flags, noted):
    monkeypatch.chdir(tmp_path)
    for n in (20, 25, 65):
        write_block_file(f"chain{n}.json", chain_block(n))
    code, out, _ = run_cli(capsys, "schedule", *flags)
    assert code == 0
    assert (out.splitlines()[0] == EXACT_FALLBACK_NOTE) is noted


def test_schedule_notes_a_search_over_its_work_budget(tmp_path, capsys):
    # 60 transactions over 16 keys: within the vertex cap, but the exact
    # search stops at its work budget and the runner falls back to greedy
    path = str(tmp_path / "b60.json")
    assert run_cli(capsys, "gen-block", "--out", path, "--n", "60", "--seed", "1")[0] == 0
    code, out, _ = run_cli(capsys, "schedule", path, "--runner", "min-coloring")
    assert code == 0
    assert out.splitlines()[0] == EXACT_FALLBACK_NOTE
    _, greedy_out, _ = run_cli(capsys, "schedule", path, "--runner", "greedy")
    assert out.splitlines()[1:] == greedy_out.splitlines()


@pytest.mark.parametrize("flag", ["--exact-cap", "--weighted-cap"])
def test_coloring_caps_are_not_options(tmp_path, capsys, flag):
    path = tmp_path / "chain.json"
    write_block_file(path, chain_block(3))
    with pytest.raises(SystemExit) as exc:
        main(["schedule", str(path), flag, "4"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


def write_star(tmp_path):
    # a star: the hub takes color 1 alone, the three leaves share color 2
    hub = make_tx(0, writes={"h"})
    leaves = [make_tx(i, reads={"h"}, writes={f"w{i}"}) for i in (1, 2, 3)]
    path = tmp_path / "star.json"
    write_block_file(path, make_block([hub, *leaves]))
    return str(path)


@pytest.mark.parametrize("runner", ["min-coloring", "greedy", "batch"])
@pytest.mark.parametrize("flags, levels", [([], "1 2 3\n0\n")])
def test_schedule_color_order(tmp_path, capsys, runner, flags, levels):
    # size-descending order puts the leaves first
    code, out, _ = run_cli(capsys, "schedule", write_star(tmp_path), "--runner", runner, *flags)
    assert code == 0
    assert out.split("levels:\n")[1].split("block_latency")[0] == levels


RUNNER_FLAGS = ["--runner", "--treat-epsilon-homogeneous"]
GEN_FLAGS = [
    "--out", "--n", "--keys", "--seed", "--length-mode", "--length-base", "--length-epsilon",
    "--length-choices", "--conflict-p",
]
OPTION_SURFACE = {
    "schedule": RUNNER_FLAGS,
    "execute": ["--state", "--simulate", "--trace", *RUNNER_FLAGS],
    "smr": ["--ledger", "--state", "--resume", "--max-blocks", *RUNNER_FLAGS],
    "analyze": ["--ns", "--ps", "--samples", "--seed", "--workers", "--out"],
    "oracle": ["--double-check"],
    "conflicts": [],
    "gen-block": [*GEN_FLAGS, "--chain"],
    "gen-stream": [*GEN_FLAGS, "--blocks"],
}


def test_option_surface():
    # every knob is listed here, so adding one takes a deliberate edit
    assert [f.name for f in dataclasses.fields(replication.BlockRunner)] == ["name", "epsilon_cutoff"]
    assert [f.name for f in dataclasses.fields(WorkloadSpec)] == [
        "n_txs", "key_universe", "length_mode", "length_base", "length_epsilon",
        "length_choices", "conflict_p", "seed",
    ]
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert surface == OPTION_SURFACE


@pytest.mark.parametrize("runner", ["min-coloring", "greedy", "batch"])
def test_color_order_is_not_an_option(tmp_path, capsys, runner):
    # the level order decides which of two conflicting transactions runs
    # first, and no block or ledger records it, so it is fixed
    with pytest.raises(SystemExit) as exc:
        main(["schedule", write_star(tmp_path), "--runner", runner, "--color-order", "ascending"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --color-order ascending" in capsys.readouterr().err


def test_analyze_order_is_not_an_option(tmp_path, capsys):
    # G(n, p) gives every vertex labeling the same probability, so the study
    # orients by id only: any order fixed apart from the graph reads the same
    out = tmp_path / "study.csv"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--ns", "10", "--ps", "0.1", "--order", "random", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order random" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "runner, eps, message",
    [
        ("greedy", "-5", "only to the weighted-coloring runner, not 'greedy'"),
        ("min-coloring", "0", "only to the weighted-coloring runner, not 'min-coloring'"),
        ("weighted-coloring", "-1", "epsilon cutoff must be >= 0, got -1"),
    ],
)
@pytest.mark.parametrize("command", ["schedule", "execute"])
def test_meaningless_epsilon_cutoff_exits_2(chain_file, capsys, command, runner, eps, message):
    code, stdout, err = run_cli(
        capsys, command, chain_file, "--runner", runner, "--treat-epsilon-homogeneous", eps
    )
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert stdout == ""


def test_smr_with_a_meaningless_epsilon_cutoff_leaves_the_ledger(written_ledger, capsys):
    before = written_ledger.read_bytes()
    stream = written_ledger.parent / "stream.jsonl"
    code, _, err = run_cli(
        capsys, "smr", str(stream), "--ledger", str(written_ledger),
        "--runner", "batch", "--treat-epsilon-homogeneous", "3",
    )
    assert code == 2
    assert "only to the weighted-coloring runner" in err
    assert written_ledger.read_bytes() == before


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


@pytest.mark.parametrize("value", [True, False, 1.5, "3"])
def test_execute_rejects_non_integer_state_values(chain_file, tmp_path, capsys, value):
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"x": value}))
    code, out, err = run_cli(capsys, "execute", chain_file, "--state", str(spath))
    assert code == 2
    assert out == ""
    assert err == "error: state file must be a JSON object mapping keys to integers\n"


def test_execute_rejects_an_empty_state_key(chain_file, tmp_path, capsys):
    # no block can name the key "", yet it would enter every state digest
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"": 5, "a": 1}))
    code, out, err = run_cli(capsys, "execute", chain_file, "--state", str(spath))
    assert code == 2
    assert out == ""
    assert err == "error: state file keys must be non-empty strings\n"


@pytest.mark.parametrize("raw", [{"": 1.5}, {"a": 1, "": None}, [["a", 1]], 5])
def test_execute_reports_a_state_file_that_is_not_an_integer_map_first(chain_file, tmp_path, capsys, raw):
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "execute", chain_file, "--state", str(spath))
    assert code == 2
    assert out == ""
    assert err == "error: state file must be a JSON object mapping keys to integers\n"


def test_execute_rejects_a_state_file_that_is_not_json(chain_file, tmp_path, capsys):
    spath = tmp_path / "state.json"
    spath.write_text("{not json")
    code, out, err = run_cli(capsys, "execute", chain_file, "--state", str(spath))
    assert code == 2
    assert out == ""
    assert err.startswith("error: state file: invalid JSON")


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


def test_smr_resume_without_a_ledger_file(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    write_stream_file(stream, gen_commutative_stream(5, n=8, seed=3))
    code, plain_out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(tmp_path / "ref"))
    assert code == 0
    ledger = tmp_path / "ledger"
    code, out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(ledger), "--resume")
    assert code == 0
    assert out == plain_out
    assert ledger.read_bytes() == (tmp_path / "ref").read_bytes()


def test_smr_rejects_a_negative_max_blocks_before_touching_the_ledger(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    write_stream_file(stream, gen_stream([WorkloadSpec(n_txs=5, seed=i) for i in range(3)]))
    ledger = tmp_path / "ledger"
    code, _, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(ledger))
    assert code == 0
    before = ledger.read_bytes()
    code, out, err = run_cli(capsys, "smr", str(stream), "--ledger", str(ledger), "--max-blocks", "-1")
    assert code == 2
    assert "max_blocks must be >= 0" in err
    assert out == ""
    assert ledger.read_bytes() == before
    # zero is a valid stop: an empty ledger and the initial state
    code, out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(ledger), "--max-blocks", "0")
    assert code == 0
    assert ledger.read_bytes() == b""
    assert out == f"final_state_digest {GlobalState().digest()}\n"


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


def test_analyze_at_a_subnormal_p(tmp_path, capsys):
    # at p = 1e-320 the drawer's first gap is infinite
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "analyze", "--ns", "10", "--ps", "1e-320", "--samples", "2",
        "--seed", "1", "--out", str(out_csv),
    )
    assert code == 0
    assert out_csv.read_text().splitlines()[1] == "10,1e-320,2,1.0,1.0,1.0,1"


def test_analyze_prints_each_row_once_its_cell_is_done(tmp_path, capsys, monkeypatch):
    printed_before_cell = []
    study_cell = analysis._study_cell

    def traced_cell(args):
        printed_before_cell.append(capsys.readouterr().out)
        return study_cell(args)

    monkeypatch.setattr(analysis, "_study_cell", traced_cell)
    out_csv = tmp_path / "out.csv"
    code = main(["analyze", "--ns", "20,30", "--ps", "0.1", "--samples", "2", "--seed", "7",
                 "--out", str(out_csv)])
    rest = capsys.readouterr().out
    assert code == 0
    header, row20, row30 = out_csv.read_text().splitlines(keepends=True)
    assert printed_before_cell == [header, row20]
    assert rest == row30
    monkeypatch.setattr(analysis, "_study_cell", study_cell)
    cells = list(analysis.vulnerability_study([20, 30], [0.1], samples=2, seed=7))
    assert out_csv.read_text() == analysis.study_to_csv(cells)


def test_analyze_opens_out_before_the_study(tmp_path, capsys, monkeypatch):
    def no_cell(args):
        raise AssertionError("a cell ran before --out was opened")

    monkeypatch.setattr(analysis, "_study_cell", no_cell)
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, stdout, err = run_cli(capsys, "analyze", "--ns", "10", "--ps", "0.1", "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and "No such file or directory" in err
    assert stdout == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ns=-5", "--ps", "0.5"], "n must be non-negative"),
        (["--ns", "10", "--ps", "1.5"], "p must be in [0, 1]"),
        (["--ns", "10", "--ps", "0.5", "--workers", "-3"], "workers must be >= 1"),
        (["--ns", "10", "--ps", "0.5", "--workers", "0"], "workers must be >= 1"),
        (["--ns", "10", "--ps", "0.5", "--samples", "0"], "samples must be >= 1"),
    ],
    ids=["negative-n", "p-above-1", "negative-workers", "zero-workers", "zero-samples"],
)
def test_analyze_rejects_bad_arguments_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, "analyze", *flags, "--out", str(out))
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["analyze", "--ns", "10,x", "--ps", "0.1"], "--ns", "10,x"),
        (["analyze", "--ns", "10", "--ps", "0.1,,y"], "--ps", "0.1,,y"),
        (["gen-block", "--length-choices", "1,x"], "--length-choices", "1,x"),
        (["gen-stream", "--length-choices", "1,x"], "--length-choices", "1,x"),
    ],
)
def test_bad_list_item_is_a_usage_error(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and repr(value) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_list_flags_skip_empty_items(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, _, _ = run_cli(
        capsys, "gen-block", "--out", str(out), "--n", "12", "--length-mode", "heterogeneous",
        "--length-choices", ",5,,",
    )
    assert code == 0
    assert {tx["length"] for tx in json.loads(out.read_text())["txs"]} == {5}
    args = cli.build_parser().parse_args(["analyze", "--ns", "10,,20,", "--ps", ",0.5", "--out", "x"])
    assert (args.ns, args.ps) == ([10, 20], [0.5])


@pytest.mark.parametrize("command", ["schedule", "execute", "conflicts", "oracle"])
def test_missing_block_file_exits_2(tmp_path, capsys, command):
    code, stdout, err = run_cli(capsys, command, str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: ") and "missing.json" in err
    assert stdout == ""


@pytest.fixture()
def written_ledger(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    write_stream_file(stream, gen_stream([WorkloadSpec(n_txs=4, seed=s) for s in range(3)]))
    ledger = tmp_path / "ledger.bin"
    assert run_cli(capsys, "smr", str(stream), "--ledger", str(ledger))[0] == 0
    assert ledger.stat().st_size > 0
    return ledger


@pytest.mark.parametrize("resume", [False, True])
@pytest.mark.parametrize(
    "stream_text", [None, "{broken\n", "\n[1, 2]\n"], ids=["missing", "bad-json", "not-a-block"]
)
def test_smr_leaves_the_ledger_when_the_stream_cannot_be_read(
    tmp_path, capsys, written_ledger, stream_text, resume
):
    before = written_ledger.read_bytes()
    stream = tmp_path / "other.jsonl"
    if stream_text is not None:
        stream.write_text(stream_text)
    argv = ["smr", str(stream), "--ledger", str(written_ledger)] + (["--resume"] if resume else [])
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert stdout == ""
    assert written_ledger.read_bytes() == before


def test_smr_resume_over_a_record_with_a_string_seq_exits_2(tmp_path, capsys, written_ledger):
    first = replication.make_record("", "0", "aa", "bb", "cc")
    written_ledger.write_bytes(b"")
    ledger = replication.Ledger(written_ledger)
    ledger.append(first)
    ledger.append(replication.make_record(first.record_digest, 1, "aa", "bb", "cc"))
    before = written_ledger.read_bytes()
    stream = tmp_path / "stream.jsonl"
    code, stdout, err = run_cli(capsys, "smr", str(stream), "--ledger", str(written_ledger), "--resume")
    assert code == 2
    assert err == "error: ledger record 0: malformed payload\n"
    assert stdout == ""
    assert written_ledger.read_bytes() == before


def test_smr_over_an_empty_stream_still_truncates(tmp_path, capsys, written_ledger):
    stream = tmp_path / "empty.jsonl"
    stream.write_text("")
    code, out, _ = run_cli(capsys, "smr", str(stream), "--ledger", str(written_ledger))
    assert code == 0
    assert out.startswith("final_state_digest ")
    assert written_ledger.read_bytes() == b""


def test_oracle_chain(chain_file, capsys):
    code, out, _ = run_cli(capsys, "oracle", chain_file, "--double-check")
    assert code == 0
    assert "optimal_latency 2" in out


def test_oracle_double_check_reports_a_disagreement(chain_file, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "optimal_latency_all_orientations", lambda block: 99)
    code, out, err = run_cli(capsys, "oracle", chain_file, "--double-check")
    assert code == 4
    assert out == ""
    assert "invariant violation: oracles disagree: partitions 2, orientations 99\n" in err


def test_oracle_triangle(tmp_path, capsys):
    txs = [make_tx(i, writes={"shared"}) for i in range(3)]
    path = tmp_path / "k3.json"
    write_block_file(path, make_block(txs))
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert "optimal_latency 3" in out


def test_oracle_double_check_keeps_its_own_cap(tmp_path, capsys):
    # ten transactions are within the partition oracle's cap but above the
    # orientation oracle's, which would otherwise enumerate 10! orders
    path = tmp_path / "chain10.json"
    write_block_file(path, chain_block(10))
    code, _, err = run_cli(capsys, "oracle", str(path), "--double-check")
    assert code == 3
    assert "orientation oracle capped at 8 transactions (block has 10)" in err


def test_oracle_cap_is_not_an_option(chain_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", chain_file, "--cap", "12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 12" in capsys.readouterr().err


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
        for name in ("is_valid_schedule", "check_partition"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, out, _ = run_cli(capsys, "execute", chain_file, "--runner", runner, "--simulate")
    assert code == 0
    assert "makespan" in out
    # plan_block checks the runner's plan once; the public simulate_execution
    # then checks the graph schedule it is handed, once
    expected = "check_partition" if runner == "batch" else "is_valid_schedule"
    assert calls == [expected, "is_valid_schedule"]


@pytest.mark.parametrize("runner", ["order", "batch"])
def test_runner_plan_of_the_wrong_size_exits_4(chain_file, capsys, monkeypatch, runner):
    # a runner bug, not bad input: the plan of a 5-tx block for a 6-tx block
    make_schedule = replication.BlockRunner.make_schedule
    five = chain_block(5)

    def short_plan(self, txs, constraints):
        return make_schedule(self, five.txs, build_conflict_graph(five))

    monkeypatch.setattr(replication.BlockRunner, "make_schedule", short_plan)
    code, out, err = run_cli(capsys, "execute", chain_file, "--runner", runner)
    assert code == 4
    assert out == ""
    reason = (
        "partition does not cover all vertices" if runner == "batch"
        else "schedule has 5 vertices, conflict graph has 6"
    )
    assert err == f"invariant violation: runner {runner!r} produced an invalid schedule: {reason}\n"


@pytest.mark.parametrize("runner", list(BUILTIN_RUNNERS))
def test_execute_simulate_computes_latency_once(chain_file, capsys, monkeypatch, runner):
    calls = []
    for module in (cli, executor, replication):
        if hasattr(module, "latency"):
            real = module.latency
            monkeypatch.setattr(module, "latency", lambda *a, real=real: calls.append(1) or real(*a))
    code, out, _ = run_cli(capsys, "execute", chain_file, "--runner", runner, "--simulate")
    assert code == 0
    assert "makespan" in out
    assert len(calls) == 1


def test_execute_simulate_divergence_names_both_values(chain_file, capsys, monkeypatch):
    monkeypatch.setattr(executor, "latency", lambda *a: 99)
    code, _, err = run_cli(capsys, "execute", chain_file, "--simulate")
    assert code != 0
    assert err == "invariant violation: simulated makespan 2 != schedule latency 99\n"


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


def test_chain_block_rejects_a_negative_count():
    with pytest.raises(ValidationError, match="n must be non-negative"):
        chain_block(-1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-block", "--chain", "--n", "-1"], "n must be non-negative"),
        (["gen-block", "--n", "-1"], "n_txs must be non-negative"),
        (["gen-stream", "--blocks", "-2"], "--blocks must be non-negative"),
    ],
)
def test_generators_reject_negative_counts(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("seed", range(5))
def test_gen_block_rejects_a_length_choice_below_one_for_every_seed(tmp_path, capsys, seed):
    # the spec is refused whether or not the seed draws the bad choice
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "gen-block", "--out", str(out), "--n", "1", "--seed", str(seed),
        "--length-mode", "heterogeneous", "--length-choices", "0,5",
    )
    assert code == 2
    assert "length_choices must all be >= 1" in err
    assert stdout == ""
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def blocksched_lines(text):
    """Every ``blocksched ...`` command line of ``text``, with backslash
    continuations joined and ``#`` comments cut off."""
    joined = text.replace("\\\n", " ")
    lines = [line.split("#", 1)[0].strip() for line in joined.splitlines()]
    return [line for line in lines if line.startswith("blocksched ")]


def readme_cli_lines():
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return blocksched_lines(block)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    lines = readme_cli_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


def test_every_readme_command_line_parses():
    lines = blocksched_lines(README.read_text())
    assert len(lines) > len(readme_cli_lines())
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    sweeps = [line for line in lines if "--out full_sweep.csv" in line]
    assert len(sweeps) == 1 and "--workers" in sweeps[0]


# Runs the pipeline commands, then the generator and study commands, in one
# fresh interpreter; prints the loaded ``blocksched`` modules after each group.
_IMPORT_SURFACE = """
import contextlib, io, json, sys
from blocksched.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("blocksched."))))

block, stream, ledger, out = sys.argv[1:]
run("conflicts", block)
run("schedule", block)
run("execute", block, "--simulate")
run("smr", stream, "--ledger", ledger)
loaded()
run("gen-block", "--out", out)
run("oracle", block)
loaded()
"""


def _run_fresh(script: str, *argv) -> list[set[str]]:
    """Run ``script`` in a fresh interpreter on this package's source; one set
    of module names per line it prints."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [set(json.loads(line)) for line in done.stdout.splitlines()]


def test_pipeline_commands_import_neither_analysis_nor_workload(tmp_path):
    block, stream = tmp_path / "block.json", tmp_path / "stream.json"
    write_block_file(block, chain_block(3))
    write_stream_file(stream, gen_stream([WorkloadSpec(n_txs=3, seed=i) for i in range(2)]))
    pipeline, after = _run_fresh(_IMPORT_SURFACE, block, stream, tmp_path / "ledger.bin", tmp_path / "gen.json")
    lazy = {"blocksched.analysis", "blocksched.workload"}
    assert not pipeline & lazy
    assert lazy <= after


# Imports the package, then the CLI, then runs the commands that execute no
# block, in one fresh interpreter; prints the loaded modules after each step.
_LAZY_SURFACE = """
import contextlib, io, json, sys

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "blocksched")))

import blocksched
loaded()
from blocksched.cli import main
loaded()
block, out, csv = sys.argv[1:]
for argv in (
    ["conflicts", block],
    ["gen-block", "--out", out],
    ["analyze", "--ns", "6", "--ps", "0.5", "--samples", "2", "--out", csv],
    ["oracle", block],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
loaded()
"""


def test_package_and_cli_load_each_pipeline_module_on_first_use(tmp_path):
    block = tmp_path / "block.json"
    write_block_file(block, chain_block(3))
    package, with_cli, after = _run_fresh(_LAZY_SURFACE, block, tmp_path / "gen.json", tmp_path / "study.csv")
    assert package == {"blocksched"}
    assert with_cli == {"blocksched", "blocksched.cli", "blocksched.errors", "blocksched.model"}
    assert not after & {"blocksched.executor", "blocksched.replication"}
    assert {"blocksched.analysis", "blocksched.conflict", "blocksched.workload"} <= after


def test_lazy_exports_resolve_to_their_modules():
    assert sorted(blocksched._EXPORTS) == sorted(blocksched.__all__)
    assert len(set(blocksched.__all__)) == len(blocksched.__all__)
    assert set(blocksched.__all__) <= set(dir(blocksched))
    for name, module in blocksched._EXPORTS.items():
        assert getattr(blocksched, name) is getattr(importlib.import_module(f"blocksched.{module}"), name)
    with pytest.raises(AttributeError):
        getattr(blocksched, "no_such_name")
    assert model.RUNNER_NAMES == tuple(replication.BUILTIN_RUNNERS)
