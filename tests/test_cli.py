import csv
import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from _crash_cases import torn_stages

from secpmsim import cli
from secpmsim.cli import main
from secpmsim.config import Config, parse_config
from secpmsim.controller import Controller


def run_cli(*argv):
    return main(list(argv))


# A trace replay's flags: the trace sets the transactions.
REPLAY = ["--workload", "array", "--txn-size", "256"]
FAST = ["--txn-count", "20", *REPLAY]


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
    # Comments and blank lines are skipped; a later line for a key wins.
    noisy = ("# a run\n\nseed = 3  # overridden below\n   \n" + text
             + "queue_len = 8\nqueue_len = 64 # the last line wins\n")
    assert Config(**parse_config(noisy)) == cfg


# Bad input: (commands, arguments, the error line after "error: ", and
# optionally the files to write first, None making a directory).  A line
# that ends in "..." is a prefix, before OS or argparse text.
RUN, CRASH, BOTH = ("run",), ("crashcheck",), ("run", "crashcheck")
ALL = ("run", "run --trace-out t.txt", "crashcheck")
TRACE = {"t.txt": "TXN 0 WRITE 0x0 64"}
MISALIGNED = {"t.txt": "TXN 0 WRITE 0x20 64"}
PAST_LAST = "at:9999"  # inject rejects it after counting the boundaries
PLAN = "--crash must be exhaustive, random:N (N >= 1) or at:K"
FINITE, SAME = "must be non-negative and finite", "name the same file"
LINE1 = "--config c.cfg: line 1: "  # before a line that does not parse


def _cfg(text):
    return {"c.cfg": text}


BAD_INPUT = [
    # Flags and comma lists, also on a run that writes a trace.
    *[(ALL, f"{flag} ,", f"{flag} needs at least one value, not ','") for flag
      in ("--mode", "--workload", "--txn-size", "--queue-len", "--cache-size")],
    (ALL, "--cores ,,", "--cores needs at least one value, not ',,'"),
    *[(ALL, f"{flag} {v}", f"{flag} takes a comma list of integers, not {v!r}")
      for flag, v in [("--txn-size", "abc"), ("--queue-len", "1.5"),
                      ("--cores", "1,x")]],
    *[(ALL, f"{flag} {v}", f"{flag} takes an integer, not {v!r}")
      for flag in ("--txn-count", "--seed") for v in ("abc", "1.5")],
    (BOTH, "--workload array --cores 0", "cores must be at least 1, not 0"),
    (BOTH, "--workload array --config c.cfg",
     "cores must be at least 1, not 0", _cfg("cores = 0")),
    (BOTH, "--workload array --txn-count -1",
     "txn_count must be non-negative, not -1"),
    (BOTH, "--workload array --config c.cfg",
     "txn_count must be non-negative, not -1", _cfg("txn_count = -1")),
    (BOTH, "--mode hyperspace", "unknown mode 'hyperspace'"),
    (BOTH, "--workload deque", "unknown workload 'deque'"),
    *[(BOTH, f"--txn-size {n}", "txn_size must be a positive multiple of 64")
      for n in (100, 0)],
    (BOTH, "--queue-len 1", "queue_len must be at least 2"),
    (BOTH, "--cache-size 64", "cache_size too small for one set"),
    (RUN, "--no-such-flag", "unrecognized arguments: --no-such-flag"),
    (CRASH, "--scope page", "argument --scope: invalid choice: ..."),
    (("",), "", "the following arguments are required: command"),
    (CRASH, "--queue-len 2,32",
     "crashcheck checks one configuration; the comma lists give 2"),
    (CRASH, "--workload array --mode ,",
     "--mode needs at least one value, not ','"),
    *[(CRASH, args, f"crashcheck does not read {name}: no crash scope uses it",
       files) for args, name, files in [
        ("--workload rbtree", "--workload", {}),
        ("--cores 2", "--cores", {}),
        ("--txn-count 9", "--txn-count", {}),
        ("--config c.cfg", "config key 'workload'", _cfg("workload = rbtree")),
        ("--config c.cfg", "config key 'cores'", _cfg("cores = 2")),
        ("--config c.cfg", "config key 'txn_count'", _cfg("txn_count = 9"))]],
    # Config values.
    *[(BOTH, "--config c.cfg", line, _cfg(f"{key} = {value}"))
      for key, value, line in [
          ("cpu_ghz", "0", "cpu_ghz must be positive and finite"),
          ("cpu_ghz", "nan", "cpu_ghz must be positive and finite"),
          *[(key, value, f"{key} {FINITE}") for key, value in [
              ("cache_hit_cycles", "-1"), ("flush_overhead_ns", "inf"),
              ("txn_gap_ns", "-1"), ("t_rcd_ns", "-48"), ("t_cl_ns", "nan"),
              ("t_wr_ns", "nan"), ("t_wr_ns", "-300"), ("aes_ns", "inf")]],
          # Below a page or four transactions, or not page-aligned: array
          # spun forever at 128, 64 drew from an empty range, 4160 broke
          # the queue.
          *[("footprint", n, "footprint must be 0 or a multiple of 4096 of at"
             f" least 4 * txn_size = 4096, not {n}")
            for n in ("-4096", "64", "128", "4160", "2048")],
          # 2 TiB: data at 1 TiB and up would overwrite the counter lines.
          ("footprint", "2199023255552", "footprint and cores * log_slots log"
           " slots end at 0x20000012000, past the counter region at"
           " 0x10000000000"),
          *[(key, "0", f"{key} must be at least 1")
            for key in ("cache_ways", "banks", "log_slots")],
          ("banks", "65537", "banks must be at most 65536, not 65537"),
          ("use_register", "maybe", f"{LINE1}use_register must be 1/0,"
           " true/false, yes/no or on/off, not 'maybe'"),
          ("banks", "x", f"{LINE1}banks must be an integer, not 'x'"),
          ("cpu_ghz", "abc", f"{LINE1}cpu_ghz must be a number, not 'abc'"),
          ("txn_size", "1.5", f"{LINE1}txn_size must be an integer, not '1.5'"),
          # Removed knobs that gated nothing.
          *[(key, value, f"{LINE1}unknown config key {key!r}")
            for key, value in [("capacity", "1"), ("t_cwd_ns", "13"),
                               ("t_faw_ns", "9999"), ("t_wtr_ns", "7.5")]]]],
    *[(BOTH, "--config c.cfg", f"--config c.cfg: {line}", _cfg(text))
      for text, line in [
          ("nonsense", "line 1: expected 'key = value'"),
          ("# comment\n\nseed = 1\nno_such_key = 1",
           "line 4: unknown config key 'no_such_key'"),
          ("seed = 1  # fine\nseed = x",
           "line 2: seed must be an integer, not 'x'"),
          ("\nuse_register = maybe", "line 2: use_register must be 1/0,"
           " true/false, yes/no or on/off, not 'maybe'")]],
    (RUN, "--workload hashtable --txn-size 1024,4096 --config c.cfg",
     "footprint must be 0 or a multiple of 4096 of at least 4 * txn_size ="
     " 16384, not 8192", _cfg("footprint = 8192")),
    # hashtable's 2 GiB default once drew a bucket from an empty range.
    (RUN, "--workload hashtable --txn-size 1073741824",
     "footprint = 0 gives hashtable its default 2147483648 bytes, below"
     " 4 * txn_size = 4294967296"),
    # A trace sets the transactions.
    *[(RUN, f"--trace-in t.txt {args}", f"run --trace-in does not read {name}:"
       " the trace sets the transactions", {**TRACE, **files})
      for args, name, files in [
          ("--txn-count 9", "--txn-count", {}),
          ("--config c.cfg", "config key 'txn_count'", _cfg("txn_count = 9"))]],
    # Input files.
    *[(commands, f"{flag} {name}", f"{flag} {name}: ...", files)
      for commands, flag, name in [(BOTH, "--config", "c.cfg"),
                                   (RUN, "--trace-in", "t.txt")]
      for files in ({}, {name: b"\xff\xfeTXN"})],  # missing, not UTF-8
    # Trace records.
    (RUN, "--trace-in t.txt", "trace line 1: malformed record",
     {"t.txt": "TXN 1 READ 0x0 64\n"}),
    (RUN, "--trace-in t.txt", "trace line 2: address 0x20 is not line-aligned",
     {"t.txt": "TXN 0 WRITE 0x0 64\nTXN 1 WRITE 0x20 64"}),
    *[(RUN, "--trace-in t.txt", f"trace line 3: {problem}",
       {"t.txt": f"TXN 0 WRITE 0x0 64\n\n{record}\n"})
      for record, problem in [
          ("TXN 1 WRITE 0x20 64", "address 0x20 is not line-aligned"),
          *[(f"TXN 1 WRITE 0x40 {size}", f"size {size} is not a positive"
             " multiple of 64") for size in (100, 0, -64)],
          ("TXN x WRITE 0x40 64", "malformed record")]],
    *[(RUN, "--trace-in t.txt", f"trace line 1: transaction id {txn_id} is"
       " outside 0..2**64 - 1", {"t.txt": f"TXN {txn_id} WRITE 0x0 64"})
      for txn_id in (-1, 1 << 64)],
    # btree's 2 GiB footprint ends where its undo log begins; unsec-pm maps
    # no counters, so nothing else checks it.
    *[(RUN, f"{args} --trace-in t.txt", f"trace line 1: write {address:#x}"
       f" + 64 ends outside data region [0x0, {end:#x})",
       {"t.txt": f"TXN 0 WRITE {address:#x} 64"})
      for args, address, end in [("--mode unsec-pm", 1 << 60, 2 << 30),
                                 ("--mode unsec-pm", 2 << 30, 2 << 30),
                                 ("--mode secpm", 2 << 30, 2 << 30),
                                 ("--workload array", 1 << 39, 1 << 30)]],
    # Rejected before any cell runs, by the smallest swept --txn-size.
    (RUN, "--txn-size 1024,256 --trace-in t.txt",
     "trace line 5: transaction 0: write set spans 4 regions (max 3)",
     {"t.txt": "TXN 0 WRITE 0x0 64\nTXN 1 WRITE 0x8000 64\n"
      "TXN 0 WRITE 0x1000 64\nTXN 0 WRITE 0x2000 64\nTXN 0 WRITE 0x3000 64"}),
    (RUN, "--txn-size 1024,256 --trace-in t.txt",
     "trace line 4: transaction 0 writes 5 lines, more than the 4 a log slot"
     " holds at --txn-size 256", {"t.txt": "TXN 0 WRITE 0x0 128\n"
      "TXN 1 WRITE 0x8000 64\nTXN 0 WRITE 0x1000 64\nTXN 0 WRITE 0x2000 128"}),
    # An empty path names no file.
    *[(commands, f"{args} {flag} ''", f"{flag} needs a path, not ''")
      for commands, args, flag in [
          (BOTH, "", "--config"), (BOTH, "", "--out"),
          (RUN, "--workload array --txn-size 256 --txn-count 3", "--trace-in"),
          (RUN, "", "--trace-out")]],
    # Output paths and core counts, checked before any trace is read.
    *[(RUN, f"{cores} {flag} t.txt", f"{flag} supports single-core runs only")
      for flag in ("--trace-in", "--trace-out")
      for cores in ("--cores 2", "--cores 1,2")],
    *[(RUN, f"{sweep} --trace-out t.txt", "--trace-out writes one stream, but"
       " the sweep runs 2: give one workload and one txn size")
      for sweep in ("--workload array,queue", "--txn-size 256,512")],
    # Output paths: in a missing directory, or a directory, checked before
    # a misaligned trace is read.
    *[(commands, f"{flag} {bad} {rest}", f"{flag} {bad}: {why}",
       {**files, "d": None})
      for commands, flag, rest, files in [
          (RUN, "--out", "--trace-in t.txt --trace-out o.txt", MISALIGNED),
          (RUN, "--trace-out", "--out r.csv --trace-in t.txt", MISALIGNED),
          (CRASH, "--out", "", {})]
      for bad, why in [("missing/x", "directory 'missing' does not exist"),
                       ("d", "cannot write a report there")]],
    (RUN, "--mode unsec-pm,secpm --out r.csv",
     "--out's normalized report r_normalized.csv: cannot write a report there",
     {"r_normalized.csv": None}),
    (RUN, "--trace-in t.txt --out t.txt",
     f"--trace-in t.txt and --out t.txt {SAME}", TRACE),
    (RUN, "--config c.cfg --trace-out c.cfg",
     f"--config c.cfg and --trace-out c.cfg {SAME}", _cfg("seed = 1")),
    (RUN, "--mode unsec-pm,secpm --out r.csv --trace-out r_normalized.csv",
     f"--out's normalized report r_normalized.csv and --trace-out"
     f" r_normalized.csv {SAME}"),
    (CRASH, "--config c.cfg --out c.cfg",
     f"--config c.cfg and --out c.cfg {SAME}", _cfg("seed = 1")),
    (RUN, "--out x --trace-out x", f"--out x and --trace-out x {SAME}"),
    (BOTH, "--config c.cfg --out ./c.cfg",
     f"--config c.cfg and --out ./c.cfg {SAME}", _cfg("seed = 1")),
    # Crash plans.
    *[(CRASH, f"--crash {plan}", f"{PLAN} (K >= -1), not {plan!r}")
      for plan in ("sometimes", "at:x", "at:-2", "random:", "random:-1",
                   "random:0", "random:x")],
    *[(CRASH, f"--scope {scope} --crash {PAST_LAST}", f"{PLAN} (-1 <= K <="
       f" {last} for the {scope} scope), not '{PAST_LAST}'")
      for scope, last in [("txn", 122), ("reencrypt", 113)]],
]


def _id(argv, files):
    words = [w or "''" for w in argv] + [f"{name}={text!r}"
                                         for name, text in files.items()]
    return " ".join(words) or "no arguments"


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the input was checked")


def _write(files):
    for name, text in files.items():
        if text is None:
            Path(name).mkdir()
        else:
            Path(name).write_bytes(text if isinstance(text, bytes)
                                   else text.encode())


def _tree(root):
    """Every path under ``root``: a file's bytes, or False for a directory."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize("argv, files, line", [
    pytest.param(argv, dict(*files), line, id=_id(argv, dict(*files)))
    for commands, args, line, *files in BAD_INPUT for command in commands
    for argv in [[w.strip("'") for w in f"{command} {args}".split()]]])
def test_bad_input(tmp_path, monkeypatch, capsys, argv, files, line):
    """Bad input exits 2 before any work runs, with one ``error:`` line and
    no report, and leaves every file as it was: none replaced, none new."""
    monkeypatch.chdir(tmp_path)
    _write(files)
    before = _tree(tmp_path)
    monkeypatch.setattr(cli, "run_experiment", _no_work)
    if PAST_LAST not in argv:
        monkeypatch.setattr(cli, "inject", _no_work)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    assert err == f"error: {line}\n" or (
        line.endswith("...") and err.startswith(f"error: {line[:-3]}"))
    assert _tree(tmp_path) == before


# Input at the edge of what is valid: (run arguments, input files).
ACCEPTED = [
    ("--config c.cfg --txn-count 20 --txn-size 256 --workload"
     " array,queue,btree,hashtable,rbtree", _cfg("footprint = 4096")),
    ("--cache-size 1099511627776 --txn-count 5", {}),
    ("--workload array --txn-count 0", {}),
    ("--workload hashtable --txn-size 1024,2048 --txn-count 5 --config c.cfg",
     _cfg("footprint = 8192")),
    ("--workload array --txn-size 256 --trace-in t.txt",
     {"t.txt": f"TXN {(1 << 64) - 1} WRITE 0x0 64\nTXN 0 WRITE 0x40 64"}),
    # Every input and output its own file, in one directory.
    ("--config c.cfg --mode unsec-pm,secpm --trace-in t.txt --out r.csv"
     " --trace-out o.txt", {**_cfg("seed = 1"), **TRACE}),
]


@pytest.mark.parametrize("args, files", ACCEPTED, ids=[
    _id(args.split(), files) for args, files in ACCEPTED])
def test_accepted(tmp_path, monkeypatch, capsys, args, files):
    """Such input runs, prints nothing on stderr and keeps every input."""
    monkeypatch.chdir(tmp_path)
    _write(files)
    before = _tree(tmp_path)
    assert main(["run", *args.split()]) == 0
    assert capsys.readouterr().err == ""
    assert _tree(tmp_path).items() >= before.items()


def test_trace_out_writes_the_stream_that_ran(tmp_path):
    """A run's trace, replayed with the same flags, runs the stream that
    ran: the report is the run's byte for byte, and exporting the imported
    stream gives the trace back.  An imported trace is exported as it was
    read, not regenerated."""
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    direct, replayed = tmp_path / "a.csv", tmp_path / "b.csv"
    for workload, size, seed in [("array", "256", "2"), ("btree", "1024", "0"),
                                 ("hashtable", "1024", "0")]:
        flags = ["--workload", workload, "--txn-size", size, "--seed", seed]
        assert run_cli("run", "--txn-count", "20", *flags, "--out",
                       str(direct), "--trace-out", str(first)) == 0
        assert run_cli("run", *flags, "--out", str(replayed), "--trace-in",
                       str(first), "--trace-out", str(second)) == 0
        assert replayed.read_bytes() == direct.read_bytes(), workload
        assert second.read_bytes() == first.read_bytes(), workload
        assert first.read_text().count("\n") >= 20
    written = "TXN 7 WRITE 0x1000 128\nTXN 3 WRITE 0x0 64\n"
    first.write_text(written)
    assert run_cli("run", *REPLAY, "--workload", "array,queue", "--out",
                   str(tmp_path / "c.csv"), "--trace-in", str(first),
                   "--trace-out", str(second)) == 0
    assert second.read_text() == written


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


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("crashcheck", "--help")
    assert exc.value.code == 0
    assert "--scope" in capsys.readouterr().out


def _python_m_secpmsim(args, **env):
    return subprocess.run([sys.executable, "-m", "secpmsim", *args.split()],
                          cwd=Path(__file__).resolve().parent.parent / "src",
                          env={**os.environ, **env}, capture_output=True,
                          text=True, timeout=120)


def test_python_m_secpmsim_runs_the_cli():
    """``python -m secpmsim`` runs the same front end and exits with its
    status."""
    out = _python_m_secpmsim("crashcheck --scope atomic-write --mode secpm")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == (
        "crash_point,event,stage,verdict,failing_address,flag")


def test_outputs_do_not_depend_on_the_hash_seed():
    """A ``run`` sweep over modes and core counts and a ``crashcheck`` print
    the same bytes and exit alike under ``PYTHONHASHSEED`` 0 and 1."""
    outputs = [[(out.stdout, out.stderr, out.returncode) for out in (
        _python_m_secpmsim(args, PYTHONHASHSEED=seed) for args in (
            f"run {' '.join(FAST)} --mode unsec-pm,secpm --cores 1,2",
            "crashcheck --scope txn"))] for seed in ("0", "1")]
    assert outputs[0] == outputs[1]


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


def test_crashcheck_exits_1_on_a_violation(monkeypatch, capsys):
    """A controller that seals line 0 under the counter before the one it
    records tears every crash point of a mode that promises consistency:
    each row is a VIOLATION, the summary counts them, and the exit status
    is 1."""
    seal = Controller._seal
    monkeypatch.setattr(Controller, "_seal", lambda self, address, ctr, plain:
                        seal(self, address, ctr - (address == 0), plain))
    assert run_cli("crashcheck", "--scope", "atomic-write",
                   "--mode", "secpm") == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()[1:]
    assert rows and all(r.endswith(",inconsistent,0x0,VIOLATION") for r in rows)
    summary = err.splitlines()
    assert all(" verdict=inconsistent " in line for line in summary)
    assert sum(int(line.rsplit("=", 1)[1]) for line in summary) == len(rows)


@pytest.mark.parametrize("plan, count", [("at:0", 1), ("random:5", 5)])
def test_crashcheck_single_point(capsys, plan, count):
    """A plan prints its points in order, each once, each with the row the
    exhaustive check prints for it."""
    argv = ["crashcheck", "--mode", "secpm", "--txn-size", "128"]
    assert run_cli(*argv) == 0
    exhaustive = {r["crash_point"]: r for r in csv.DictReader(
        capsys.readouterr().out.splitlines())}
    assert run_cli(*argv, "--crash", plan) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    points = [int(r["crash_point"]) for r in rows]
    assert len(points) == count and points == sorted(set(points))
    assert plan != "at:0" or points == [0]
    assert all(r == exhaustive[r["crash_point"]] for r in rows)


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
    expected = Counter((r["stage"], r["event"], r["verdict"]) for r in rows)
    summary = {}
    for line in captured.err.splitlines():
        prefix, *fields = line.split()
        assert prefix == "summary:"
        kv = dict(f.split("=", 1) for f in fields)
        summary[(kv["stage"], kv["event"], kv["verdict"])] = int(kv["count"])
    assert summary == expected
    assert sum(summary.values()) == len(rows)
    assert any(verdict == "inconsistent" for _, _, verdict in summary)


SECPM_CRASHCHECK = ["crashcheck", "--mode", "secpm", "--txn-size", "128"]


@pytest.mark.parametrize("flag, key, value", [
    ("--queue-len", "queue_len", "2"),
    ("--cache-size", "cache_size", "512"),
])
def test_crashcheck_flag_matches_config_file(tmp_path, capsys, flag, key, value):
    cfg_file = tmp_path / "crash.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    assert run_cli(*SECPM_CRASHCHECK, "--config", str(cfg_file)) == 0
    from_file = capsys.readouterr().out
    assert run_cli(*SECPM_CRASHCHECK, flag, value) == 0
    assert capsys.readouterr().out == from_file


def test_crashcheck_honours_queue_len(capsys):
    outputs = []
    for qlen in ("2", "32"):
        assert run_cli(*SECPM_CRASHCHECK, "--queue-len", qlen) == 0
        outputs.append(capsys.readouterr().out)
    # Backpressure drains in a 2-entry queue add crash points.
    assert outputs[0].count("\n") > outputs[1].count("\n")


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
