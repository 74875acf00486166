"""Batch front-end.

    secpmsim run        run workloads/modes (comma lists sweep), write CSVs
    secpmsim crashcheck exhaustive/random/targeted crash injection

Exit status: 0 ok, 1 consistency violation, 2 usage error.
Precedence: flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import sys
from collections import Counter
from pathlib import Path

from secpmsim import workloads
from secpmsim.config import (LINE, MODES, WORKLOADS, Config, Mode,
                              parse_config, parse_setting)
from secpmsim.counters import AddressError
from secpmsim.crash import SCOPES, CrashPlan, Outcome, PointOutOfRange, inject
from secpmsim.runner import run_experiment
from secpmsim.stats import csv_text, emit_normalized_report, emit_report

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Turns a bad command line into one ``error:`` line, like any other
    usage error; ``--help`` still prints and exits."""

    def error(self, message: str):
        raise UsageError(message)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flag_value(key: str, part: str, text: str, kind: str):
    try:
        return parse_setting(key, part)
    except ValueError:
        raise UsageError(f"{_flag(key)} takes {kind}, not {text!r}") from None


def _read_text(flag: str, path: str) -> str:
    """The text of the file a flag names; a file that cannot be read or
    decoded is a usage error naming the flag and the path."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = exc
    raise UsageError(f"{flag} {path}: {reason}")


def _reject_empty_paths(args: argparse.Namespace) -> None:
    """An empty path names no file, so it is bad input, not an absent flag."""
    for key in ("config", "trace_in", "trace_out", "out"):
        if getattr(args, key, None) == "":
            raise UsageError(f"{_flag(key)} needs a path, not ''")


def _settings(args: argparse.Namespace) -> dict:
    """The config file's settings with the single-valued flags on top."""
    settings = {}
    if args.config is not None:
        try:
            settings = parse_config(_read_text("--config", args.config))
        except ValueError as exc:
            raise UsageError(f"--config {args.config}: {exc}") from None
    for key in ("txn_count", "seed"):
        text = getattr(args, key)
        if text is not None:
            settings[key] = _flag_value(key, text, text, "an integer")
    return settings


# Config fields that a comma list sweeps, in the sweep's nesting order.
_SWEPT = ("mode", "workload", "txn_size", "queue_len", "cache_size", "cores")


def _sweep_values(args: argparse.Namespace, key: str) -> list:
    text = getattr(args, key)
    values = [_flag_value(key, part.strip(), text, "a comma list of integers")
              for part in text.split(",") if part.strip()]
    if not values:
        raise UsageError(f"{_flag(key)} needs at least one value, not {text!r}")
    return values


def _sweep_cells(args: argparse.Namespace, settings: dict) -> list[Config]:
    """Every cell of the sweep: the settings with one value of each comma
    list on top."""
    keys = [key for key in _SWEPT if getattr(args, key) is not None]
    lists = [_sweep_values(args, key) for key in keys]
    return [Config(**{**settings, **dict(zip(keys, cell))})
            for cell in itertools.product(*lists)]


def cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args)
    cells = _sweep_cells(args, settings)
    if args.trace_in is not None:
        _reject_unread(args, settings, ("txn_count",), "run --trace-in",
                       "the trace sets the transactions")
    for flag, path in (("--trace-in", args.trace_in),
                       ("--trace-out", args.trace_out)):
        if path is not None and any(cfg.cores != 1 for cfg in cells):
            raise UsageError(f"{flag} supports single-core runs only")
    outputs = [("--out", args.out)]
    if args.out is not None and any(cfg.mode == Mode.UNSEC_PM.value
                                    for cfg in cells):
        outputs.append(("--out's normalized report",
                        _normalized_out(args.out)))
    outputs.append(("--trace-out", args.trace_out))
    _check_paths([("--config", args.config), ("--trace-in", args.trace_in)],
                 outputs)

    streams = None
    if args.trace_in is not None:
        footprint = min(cfg.data_bytes for cfg in cells)
        max_lines = min(cfg.txn_size for cfg in cells) // LINE
        trace = io.StringIO(_read_text("--trace-in", args.trace_in))
        streams = [workloads.import_trace(trace, seed=cells[0].seed,
                                          footprint=footprint,
                                          max_lines=max_lines)]
    if args.trace_out is not None:
        if streams is None:
            specs = {workloads.WorkloadSpec.from_config(cfg) for cfg in cells}
            if len(specs) != 1:
                raise UsageError(f"--trace-out writes one stream, but the sweep"
                                 f" runs {len(specs)}: give one workload and"
                                 f" one txn size")
            streams = [workloads.generate(specs.pop())]
        with open(args.trace_out, "w") as fh:
            workloads.export_trace(streams[0], fh)

    all_stats = [run_experiment(cfg, streams) for cfg in cells]

    _write_report(args, emit_report(all_stats))
    if args.out is not None:
        normalized = emit_normalized_report(all_stats)
        if normalized.count("\n") > 1:
            Path(_normalized_out(args.out)).write_text(normalized)
    return 0


def _normalized_out(path: str) -> str:
    """The normalized report's path, ``<stem>_normalized<suffix>`` beside
    the ``--out`` report."""
    out = Path(path)
    return str(out.with_name(out.stem + "_normalized" + out.suffix))


def _check_out(flag: str, path: str) -> None:
    """Reject an output path that ``flag`` names and that cannot be written
    before any work runs, without creating or truncating it: the file is
    written later."""
    out = Path(path)
    if not out.parent.is_dir():
        raise UsageError(f"{flag} {path}: directory {str(out.parent)!r} does"
                         " not exist")
    if out.is_dir() or not os.access(out if out.exists() else out.parent,
                                     os.W_OK):
        raise UsageError(f"{flag} {path}: cannot write a report there")


def _check_paths(inputs: list[tuple[str, str | None]],
                 outputs: list[tuple[str, str | None]]) -> None:
    """Check every output with ``_check_out``, and reject one that names the
    same file as an input or an earlier output: no output may replace the
    config or trace a report came from, or another output.  Each pair is
    (what names the path, path)."""
    named = {Path(path).resolve(): f"{flag} {path}"
             for flag, path in inputs if path is not None}
    for flag, path in outputs:
        if path is None:
            continue
        _check_out(flag, path)
        name, key = f"{flag} {path}", Path(path).resolve()
        if key in named:
            raise UsageError(f"{named[key]} and {name} name the same file")
        named[key] = name


def _write_report(args: argparse.Namespace, report: str) -> None:
    """Write a report to the ``--out`` file, or to stdout without one."""
    if args.out is not None:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)


def _bad_plan(text: str, k_range: str) -> UsageError:
    return UsageError(f"--crash must be exhaustive, random:N (N >= 1) or "
                      f"at:K ({k_range}), not {text!r}")


def _parse_plan(text: str, seed: int) -> CrashPlan:
    if text == "exhaustive":
        return CrashPlan("exhaustive", seed=seed)
    strategy, _, number = text.partition(":")
    try:
        value = int(number)
    except ValueError:
        value = None
    if strategy == "random" and value is not None and value >= 1:
        return CrashPlan("random", count=value, seed=seed)
    if strategy == "at" and value is not None and value >= -1:
        return CrashPlan("at", at=value, seed=seed)
    raise _bad_plan(text, "K >= -1")


# Settings no crash scope reads: each scope builds its own fixed writes.
_UNREAD_BY_CRASHCHECK = ("workload", "cores", "txn_count")


def _reject_unread(args: argparse.Namespace, settings: dict, keys: tuple,
                   command: str, why: str) -> None:
    """A flag or config key of ``keys`` that ``command`` would ignore is a
    usage error; ``why`` ends its error line."""
    for key in keys:
        if getattr(args, key) is not None:
            name = _flag(key)
        elif key in settings:
            name = f"config key {key!r}"
        else:
            continue
        raise UsageError(f"{command} does not read {name}: {why}")


def cmd_crashcheck(args: argparse.Namespace) -> int:
    settings = _settings(args)
    cells = _sweep_cells(args, settings)
    if len(cells) != 1:
        raise UsageError(f"crashcheck checks one configuration; the comma "
                         f"lists give {len(cells)}")
    _reject_unread(args, settings, _UNREAD_BY_CRASHCHECK, "crashcheck",
                   "no crash scope uses it")
    base = cells[0]
    plan = _parse_plan(args.crash, base.seed)
    _check_paths([("--config", args.config)], [("--out", args.out)])

    make = SCOPES[args.scope]
    try:
        outcomes = inject(plan, lambda: make(base))
    except PointOutOfRange as exc:
        raise _bad_plan(args.crash, f"-1 <= K <= {exc.n_boundaries - 1} "
                        f"for the {args.scope} scope") from None

    promised = base.crash_consistent
    bad = 0
    rows = []
    for o in outcomes:
        flag = ""
        if not o.verdict.ok:
            if promised:
                bad += 1
                flag = "VIOLATION"
            else:
                flag = "EXPECTED"
        rows.append([
            o.crash_point, o.label, o.stage, o.verdict.value,
            "" if o.failing_address is None else f"{o.failing_address:#x}",
            flag,
        ])
    _write_report(args, csv_text(["crash_point", "event", "stage", "verdict",
                                  "failing_address", "flag"], rows))
    sys.stderr.write(_crash_summary(outcomes))
    return 1 if bad else 0


def _crash_summary(outcomes: list[Outcome]) -> str:
    """One line per (stage, event, verdict), in order of first occurrence."""
    counts = Counter((o.stage, o.label, o.verdict.value) for o in outcomes)
    return "".join(
        f"summary: stage={stage} event={event} verdict={verdict} count={n}\n"
        for (stage, event, verdict), n in counts.items()
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secpmsim",
        description="encrypted persistent memory simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--mode", help=f"one of {', '.join(MODES)} (comma list)")
        p.add_argument("--workload",
                       help=f"one of {', '.join(WORKLOADS)} (comma list)")
        p.add_argument("--txn-size", dest="txn_size",
                       help="transaction size in bytes (comma list)")
        p.add_argument("--txn-count", dest="txn_count")
        p.add_argument("--queue-len", dest="queue_len",
                       help="write queue entries (comma list)")
        p.add_argument("--cache-size", dest="cache_size",
                       help="counter cache bytes (comma list)")
        p.add_argument("--cores", help="requester count (comma list)")
        p.add_argument("--seed")
        p.add_argument("--out", help="CSV output path (default stdout)")

    run_p = sub.add_parser("run", help="run workloads and emit stats CSV")
    common(run_p)
    run_p.add_argument("--trace-in", dest="trace_in",
                       help="replay this trace; it sets the transactions,"
                            " so --txn-count is rejected")
    run_p.add_argument("--trace-out", dest="trace_out")
    run_p.set_defaults(func=cmd_run)

    crash_p = sub.add_parser(
        "crashcheck", help="crash injection + recovery",
        epilog="no crash scope reads --workload, --cores or --txn-count;"
               " crashcheck rejects them")
    common(crash_p)
    crash_p.add_argument("--crash", default="exhaustive",
                         help="exhaustive | random:N | at:K")
    crash_p.add_argument("--scope", default="txn",
                         choices=list(SCOPES))
    crash_p.set_defaults(func=cmd_crashcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _reject_empty_paths(args)
        return args.func(args)
    except (UsageError, ValueError, AddressError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
