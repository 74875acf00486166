import csv
import dataclasses

import pytest
from _crash_cases import torn_stages

from secpmsim import cli, workloads
from secpmsim.cli import main
from secpmsim.config import Config, parse_config


def run_cli(*argv):
    return main(list(argv))


FAST = ["--txn-count", "20", "--workload", "array", "--txn-size", "256"]


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_writes_csv(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("run", *FAST, "--mode", "secpm", "--out", str(out)) == 0
    rows = read_rows(out)
    assert {r["metric"] for r in rows} >= {"data_writes", "reduction_pct",
                                           "mean_txn_latency_ns"}
    assert all(r["mode"] == "secpm" for r in rows)


def test_run_sweep_covers_cells(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("run", *FAST, "--mode", "unsec-pm,secpm",
                   "--queue-len", "8,16", "--out", str(out)) == 0
    rows = read_rows(out)
    cells = {(r["mode"], r["queue_len"]) for r in rows}
    assert cells == {("unsec-pm", "8"), ("unsec-pm", "16"),
                     ("secpm", "8"), ("secpm", "16")}
    # A baseline is present, so the normalized sibling file appears.
    normalized = read_rows(tmp_path / "report_normalized.csv")
    assert any(r["metric"] == "normalized_nvm_writes" for r in normalized)


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", *FAST, "--mode", "secpm", "--seed", "3"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_trace_round_trip(tmp_path):
    trace = tmp_path / "trace.txt"
    out1 = tmp_path / "direct.csv"
    out2 = tmp_path / "replayed.csv"
    assert run_cli("run", *FAST, "--mode", "secpm", "--seed", "2",
                   "--trace-out", str(trace), "--out", str(out1)) == 0
    assert trace.read_text().startswith("TXN ")
    assert run_cli("run", *FAST, "--mode", "secpm", "--seed", "2",
                   "--trace-in", str(trace), "--out", str(out2)) == 0
    writes = {r["metric"]: r["value"] for r in read_rows(out2)}
    assert int(writes["data_writes"]) > 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = unsec-pm\ntxn_count = 5\nqueue_len = 16\n")
    out = tmp_path / "report.csv"
    # --mode overrides the file; queue_len comes from the file.
    assert run_cli("run", "--config", str(cfg_file), "--mode", "secpm",
                   "--workload", "array", "--txn-size", "256",
                   "--out", str(out)) == 0
    rows = read_rows(out)
    assert all(r["mode"] == "secpm" for r in rows)
    assert all(r["queue_len"] == "16" for r in rows)


def test_config_round_trip():
    cfg = Config(mode="secpm-no-cwr", workload="rbtree", txn_size=512,
                 queue_len=64, seed=17, use_register=False, t_wr_ns=250.5)
    text = "".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                   for f in dataclasses.fields(cfg))
    assert Config(**parse_config(text)) == cfg


def test_config_parse_errors():
    with pytest.raises(ValueError):
        parse_config("nonsense")
    with pytest.raises(ValueError):
        parse_config("no_such_key = 1")


@pytest.mark.parametrize("key", ["cache_ways", "banks", "log_slots"])
def test_zero_sized_config_is_usage_error(tmp_path, capsys, key):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = 0\n")
    assert run_cli("run", "--config", str(cfg_file), *FAST) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and key in err


@pytest.mark.parametrize("key, value", [
    ("cpu_ghz", "0"), ("cpu_ghz", "nan"), ("cache_hit_cycles", "-1"),
    ("flush_overhead_ns", "inf"), ("txn_gap_ns", "-1"), ("t_rcd_ns", "-48"),
    ("t_cl_ns", "nan"), ("t_wr_ns", "nan"), ("t_wr_ns", "-300"),
    ("aes_ns", "inf"), ("footprint", "-4096"),
    # Below one page or four transactions, or not page-aligned: array spun
    # forever at 128, 64 drew from an empty range, 4160 misaligned queue.
    ("footprint", "64"), ("footprint", "128"), ("footprint", "4160"),
    ("footprint", "2048"),
    # 2 TiB: data at 1 TiB and up would overwrite the counter lines.
    ("footprint", "2199023255552"),
    ("use_register", "maybe"),
    # Values that int() or float() cannot parse.
    ("banks", "x"), ("cpu_ghz", "abc"), ("txn_size", "1.5"),
    # Removed knobs that gated nothing.
    ("capacity", "1"), ("t_cwd_ns", "13"), ("t_faw_ns", "9999"),
    ("t_wtr_ns", "7.5"),
])
def test_bad_config_setting_is_usage_error(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    assert run_cli("run", "--config", str(cfg_file), *FAST) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and key in err


@pytest.mark.parametrize("via_flag", [True, False])
@pytest.mark.parametrize("key, value, message", [
    ("cores", "0", "cores must be at least 1, not 0"),
    ("txn_count", "-1", "txn_count must be non-negative, not -1"),
])
def test_cores_and_txn_count_bounds_are_usage_errors(tmp_path, capsys, key,
                                                     value, message, via_flag):
    if via_flag:
        source = ["--" + key.replace("_", "-"), value]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        source = ["--config", str(cfg_file)]
    for command in ("run", "crashcheck"):
        assert run_cli(command, "--workload", "array", "--txn-size", "256",
                       *source) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_footprint_holds_four_transactions_of_every_cell(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("footprint = 8192\n")
    argv = ["run", "--config", str(cfg_file), "--workload", "hashtable",
            "--txn-count", "5"]
    assert run_cli(*argv, "--txn-size", "1024,4096") == 2
    assert capsys.readouterr().err == (
        "error: footprint must be 0 or a multiple of 4096 of at least"
        " 4 * txn_size = 16384, not 8192\n")
    assert run_cli(*argv, "--txn-size", "1024,2048") == 0


def test_default_footprint_holds_four_transactions(capsys):
    # hashtable's 2 GiB default once drew a bucket from an empty range.
    assert run_cli("run", "--workload", "hashtable", "--txn-size", str(1 << 30),
                   "--txn-count", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: footprint = 0 gives hashtable its default 2147483648 bytes,"
        " below 4 * txn_size = 4294967296\n")


def test_smallest_footprint_runs_every_workload(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("footprint = 4096\n")
    assert run_cli("run", "--config", str(cfg_file), *FAST, "--workload",
                   "array,queue,btree,hashtable,rbtree") == 0
    assert capsys.readouterr().err == ""


def test_terabyte_counter_cache_runs(capsys):
    assert run_cli("run", "--cache-size", str(1 << 40), "--txn-count", "5") == 0
    assert capsys.readouterr().err == ""


def test_zero_txn_count_is_accepted(capsys):
    assert run_cli("run", "--workload", "array", "--txn-count", "0") == 0
    assert capsys.readouterr().err == ""


def test_bad_trace_record_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("TXN 0 WRITE 0x0 64\nTXN 1 WRITE 0x20 64\n")
    assert run_cli("run", *FAST, "--trace-in", str(trace)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trace line 2" in err


@pytest.mark.parametrize("cores", ["2", "1,2"])
def test_trace_in_rejects_cores_before_opening_the_trace(tmp_path, capsys,
                                                         cores):
    missing = tmp_path / "no-such-trace.txt"
    assert run_cli("run", *FAST, "--cores", cores, "--trace-in",
                   str(missing)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace-in supports single-core runs only\n"


@pytest.mark.parametrize("content", [None, b"\xff\xfeTXN"],
                         ids=["missing", "not-utf-8"])
@pytest.mark.parametrize("flag", ["--config", "--trace-in"])
def test_unreadable_input_file_is_usage_error(tmp_path, capsys, flag,
                                              content):
    """A file that is missing or not UTF-8 ends with one error line that
    names the flag and the path."""
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    assert run_cli("run", *FAST, flag, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("txn_id", ["-1", str(1 << 64)])
def test_trace_id_outside_64_bits_is_usage_error(tmp_path, capsys, txn_id):
    trace = tmp_path / "trace.txt"
    trace.write_text(f"TXN {(1 << 64) - 1} WRITE 0x0 64\n"
                     f"TXN {txn_id} WRITE 0x40 64\n")
    assert run_cli("run", *FAST, "--trace-in", str(trace)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: trace line 2: transaction id {txn_id}"
                            " is outside 0..2**64 - 1\n")
    trace.write_text(f"TXN {(1 << 64) - 1} WRITE 0x0 64\nTXN 0 WRITE 0x40 64\n")
    assert run_cli("run", *FAST, "--trace-in", str(trace)) == 0


def test_trace_out_writes_the_stream_that_ran(tmp_path):
    """A generated stream survives export, import and export byte for byte,
    and an imported trace is exported as it was read, not regenerated."""
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    assert run_cli("run", *FAST, "--out", str(tmp_path / "a.csv"),
                   "--trace-out", str(first)) == 0
    assert run_cli("run", *FAST, "--out", str(tmp_path / "b.csv"),
                   "--trace-in", str(first), "--trace-out", str(second)) == 0
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text().count("\n") >= 20
    written = "TXN 7 WRITE 0x1000 128\nTXN 3 WRITE 0x0 64\n"
    first.write_text(written)
    assert run_cli("run", *FAST, "--workload", "array,queue", "--out",
                   str(tmp_path / "c.csv"), "--trace-in", str(first),
                   "--trace-out", str(second)) == 0
    assert second.read_text() == written


@pytest.mark.parametrize("sweep, message", [
    (["--cores", "2"], "--trace-out supports single-core runs only"),
    (["--cores", "1,2"], "--trace-out supports single-core runs only"),
    (["--workload", "array,queue"], "--trace-out writes one stream, but the"
     " sweep runs 2: give one workload and one txn size"),
    (["--txn-size", "256,512"], "--trace-out writes one stream, but the"
     " sweep runs 2: give one workload and one txn size"),
])
def test_trace_out_rejects_cells_without_one_stream(tmp_path, capsys, sweep,
                                                    message):
    trace, out = tmp_path / "trace.txt", tmp_path / "report.csv"
    assert run_cli("run", *FAST, *sweep, "--trace-out", str(trace),
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not trace.exists() and not out.exists()


def test_trace_address_outside_data_region_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text(f"TXN 0 WRITE {1 << 39:#x} 64\n")
    assert run_cli("run", *FAST, "--mode", "secpm",
                   "--trace-in", str(trace)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "outside data region" in err


@pytest.mark.parametrize("mode, address", [
    # The unencrypted mode maps no counters, so nothing else checks it.
    ("unsec-pm", 1 << 60),
    # btree's 2 GiB footprint ends where its undo log begins.
    ("unsec-pm", 2 << 30),
    ("secpm", 2 << 30),
])
def test_trace_record_past_footprint_is_usage_error(tmp_path, capsys, mode,
                                                    address):
    trace = tmp_path / "trace.txt"
    trace.write_text(f"TXN 0 WRITE 0x0 64\nTXN 1 WRITE {address:#x} 64\n")
    out = tmp_path / "report.csv"
    assert run_cli("run", "--mode", mode, "--workload", "btree",
                   "--trace-in", str(trace), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: trace line 2")
    assert "outside data region" in err
    assert not out.exists()


@pytest.mark.parametrize("records, message", [
    (["0x0 64", "0x1000 64", "0x2000 64", "0x3000 64"],
     "trace line 5: transaction 0: write set spans 4 regions (max 3)"),
    (["0x0 128", "0x1000 64", "0x2000 128"],
     "trace line 4: transaction 0 writes 5 lines, more than the 4 a log slot"
     " holds at --txn-size 256"),
], ids=["regions", "lines"])
def test_trace_transaction_that_cannot_run_is_usage_error(tmp_path, capsys,
                                                          records, message):
    """Rejected before any cell runs, by the smallest swept --txn-size."""
    trace = tmp_path / "trace.txt"
    trace.write_text("TXN 1 WRITE 0x8000 64\n"
                     + "".join(f"TXN 0 WRITE {r}\n" for r in records))
    out = tmp_path / "report.csv"
    assert run_cli("run", *FAST, "--txn-size", "1024,256", "--trace-in",
                   str(trace), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output paths were checked")


@pytest.mark.parametrize("command, flag", [
    ("run", "--out"), ("run", "--trace-out"), ("crashcheck", "--out")],
    ids=["run", "run-trace-out", "crashcheck"])
@pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "dir"])
def test_bad_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command,
                                       flag, missing):
    """An --out or --trace-out path in a missing directory, or one that is a
    directory, is a usage error naming the flag before any trace import,
    sweep cell, crash point or file write runs.  (Unwritable directories go
    untested: root ignores permission bits.)"""
    monkeypatch.setattr(cli, "run_experiment", _no_work)
    monkeypatch.setattr(workloads, "import_trace", _no_work)
    monkeypatch.setattr(cli, "inject", _no_work)
    if missing:
        bad = tmp_path / "missing" / "out.txt"
        message = f"{flag} {bad}: directory '{bad.parent}' does not exist"
    else:
        bad = tmp_path
        message = f"{flag} {bad}: cannot write a report there"
    paths = {"--out": tmp_path / "report.csv",
             "--trace-out": tmp_path / "trace_out.txt", flag: bad}
    argv = [command, "--mode", "secpm", "--txn-size", "256",
            "--out", str(paths["--out"])]
    if command == "run":
        trace = tmp_path / "trace.txt"
        trace.write_text("TXN 0 WRITE 0x0 64\n")
        argv += ["--trace-in", str(trace),
                 "--trace-out", str(paths["--trace-out"])]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not any(path.exists() for path in paths.values() if path != bad)


def test_bad_normalized_out_fails_before_any_work(tmp_path, capsys,
                                                  monkeypatch):
    """A sweep with an unsec-pm baseline also writes the normalized report
    beside --out, so a directory at that path is a usage error before any
    cell runs, and no report is written."""
    monkeypatch.setattr(cli, "run_experiment", _no_work)
    out = tmp_path / "r.csv"
    normalized = tmp_path / "r_normalized.csv"
    normalized.mkdir()
    assert run_cli("run", *FAST, "--mode", "unsec-pm,secpm",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: --out {normalized}: cannot write a report there\n")
    assert not out.exists()


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_failing_run_leaves_the_report_alone(tmp_path, capsys, monkeypatch,
                                             existing):
    def fail(*args, **kwargs):
        raise ValueError("cell failed")

    monkeypatch.setattr(cli, "run_experiment", fail)
    out = tmp_path / "report.csv"
    if existing:
        out.write_text("earlier report\n")
    assert run_cli("run", *FAST, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: cell failed\n"
    if existing:
        assert out.read_text() == "earlier report\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["crashcheck", "--scope", "page"], "argument --scope: invalid choice"),
    ([], "the following arguments are required: command"),
], ids=["unknown-flag", "bad-scope", "no-subcommand"])
def test_argparse_errors_take_one_line(capsys, argv, message):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {message}")


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("crashcheck", "--help")
    assert exc.value.code == 0
    assert "--scope" in capsys.readouterr().out


def test_unknown_mode_is_usage_error(capsys):
    assert run_cli("run", "--mode", "hyperspace") == 2
    assert "error:" in capsys.readouterr().err


def test_bad_crash_plan_is_usage_error(capsys):
    for plan in ("sometimes", "at:x", "at:-2", "at:9999", "random:",
                 "random:-1", "random:0", "random:x"):
        assert run_cli("crashcheck", "--crash", plan, "--txn-size", "128") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --crash ")
        assert "random:N" in captured.err and "at:K" in captured.err
    # The re-encrypt scope has 115 crash points, -1 to 113.
    assert run_cli("crashcheck", "--crash", "at:9999", "--scope", "reencrypt") == 2
    assert "(-1 <= K <= 113 for the reencrypt scope)" in capsys.readouterr().err


@pytest.mark.parametrize("trace_out", [False, True])
@pytest.mark.parametrize("flag, value", [
    ("--mode", ","), ("--workload", ","), ("--txn-size", ","),
    ("--queue-len", ","), ("--cache-size", ","), ("--cores", ",,"),
    ("--txn-size", "abc"), ("--queue-len", "1.5"), ("--cores", "1,x"),
    ("--txn-count", "abc"), ("--txn-count", "1.5"), ("--seed", "abc"),
    ("--seed", "1.5"),
])
def test_bad_sweep_list_is_usage_error(tmp_path, capsys, flag, value,
                                       trace_out):
    """A comma list with no values, or a value that is not an integer,
    names its flag; no CSV and no trace file are written."""
    trace = tmp_path / "trace.txt"
    extra = ["--trace-out", str(trace)] if trace_out else []
    for command in (["run", *extra], ["crashcheck"]):
        assert run_cli(*command, *FAST, flag, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {flag} ")
    assert not trace.exists()


_FLAG_CASES = [
    ("secpm", "txn", 128, True),
    ("secpm-no-cwt", "txn", 128, True),
    ("secpm", "atomic-write", 64, False),
    ("secpm-no-cwr", "atomic-write", 64, False),
    ("secpm", "reencrypt", 64, False),
    ("secpm-no-cwr", "reencrypt", 64, False),
    ("secpm", "atomic-write", 64, True),
]


@pytest.mark.parametrize(
    "mode, scope, txn_size, use_register", _FLAG_CASES,
    ids=[f"{scope}-{mode}{'' if reg else '-noreg'}"
         for mode, scope, _, reg in _FLAG_CASES])
def test_crashcheck_flags_tears_by_the_table(tmp_path, mode, scope, txn_size,
                                             use_register):
    """A configuration that promises consistency never tears, and any other
    tears only where ``torn_stages`` expects it, so the exit status is 0 and
    no row is a VIOLATION; exactly the inconsistent rows are EXPECTED, at
    the table's stages."""
    cfg = tmp_path / "crash.cfg"
    cfg.write_text(f"use_register = {str(use_register).lower()}\n")
    out = tmp_path / "verdicts.csv"
    assert run_cli("crashcheck", "--config", str(cfg), "--mode", mode,
                   "--txn-size", str(txn_size), "--scope", scope,
                   "--out", str(out)) == 0
    rows = read_rows(out)
    assert rows and all(
        r["flag"] == ("EXPECTED" if r["verdict"] == "inconsistent" else "")
        for r in rows)
    assert {r["stage"] for r in rows if r["flag"]} == torn_stages(
        scope, Config(mode=mode, use_register=use_register))


def test_crashcheck_single_point(tmp_path):
    out = tmp_path / "verdicts.csv"
    assert run_cli("crashcheck", "--mode", "secpm",
                   "--txn-size", "128", "--crash", "at:0",
                   "--out", str(out)) == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0]["crash_point"] == "0"


def test_crashcheck_summary_on_stderr(tmp_path, capsys):
    argv = ["crashcheck", "--mode", "secpm-no-cwt",
            "--txn-size", "128", "--scope", "txn"]
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    out = tmp_path / "verdicts.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.read_text() == captured.out
    assert capsys.readouterr().err == captured.err

    rows = list(csv.DictReader(captured.out.splitlines()))
    expected = {}
    for r in rows:
        key = (r["stage"], r["event"], r["verdict"])
        expected[key] = expected.get(key, 0) + 1
    summary = {}
    for line in captured.err.splitlines():
        prefix, *fields = line.split()
        assert prefix == "summary:"
        kv = dict(f.split("=", 1) for f in fields)
        summary[(kv["stage"], kv["event"], kv["verdict"])] = int(kv["count"])
    assert summary == expected
    assert sum(summary.values()) == len(rows)
    assert any(verdict == "inconsistent" for _, _, verdict in summary)


CRASH = ["crashcheck", "--mode", "secpm", "--txn-size", "128"]


@pytest.mark.parametrize("flag, key, value", [
    ("--queue-len", "queue_len", "2"),
    ("--cache-size", "cache_size", "512"),
])
def test_crashcheck_flag_matches_config_file(tmp_path, capsys, flag, key, value):
    cfg_file = tmp_path / "crash.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    assert run_cli(*CRASH, "--config", str(cfg_file)) == 0
    from_file = capsys.readouterr().out
    assert run_cli(*CRASH, flag, value) == 0
    assert capsys.readouterr().out == from_file


def test_crashcheck_honours_queue_len(capsys):
    outputs = []
    for qlen in ("2", "32"):
        assert run_cli(*CRASH, "--queue-len", qlen) == 0
        outputs.append(capsys.readouterr().out)
    # Backpressure drains in a 2-entry queue add crash points.
    assert outputs[0].count("\n") > outputs[1].count("\n")


def test_crashcheck_rejects_comma_list(capsys):
    assert run_cli(*CRASH, "--queue-len", "2,32") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_crashcheck_output_does_not_depend_on_log_slots(tmp_path, capsys):
    """Recovery reads only the log slots a crash image holds, so 65,536
    slots print the same verdicts as the default 64, and quickly."""
    config = tmp_path / "slots.cfg"
    config.write_text("log_slots = 65536\n")
    printed = []
    for extra in ([], ["--config", str(config)]):
        assert run_cli("crashcheck", "--txn-size", "256", *extra) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] and printed[0] == printed[1]


@pytest.mark.parametrize("flag, key, value", [
    ("--workload", "workload", "rbtree"),
    ("--cores", "cores", "2"),
    ("--txn-count", "txn_count", "900"),
])
def test_crashcheck_rejects_settings_no_scope_reads(tmp_path, capsys, flag,
                                                    key, value):
    """No crash scope reads the workload, the core count or the transaction
    count, so crashcheck refuses them, from a flag or from the config file,
    instead of printing what it prints without them."""
    cfg_file = tmp_path / "crash.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    for source, name in (([flag, value], flag),
                         (["--config", str(cfg_file)], f"config key {key!r}")):
        assert run_cli("crashcheck", "--txn-size", "256", *source) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: crashcheck does not read {name}:"
                                " no crash scope uses it\n")

