"""Command line: single runs, voltage traces, minimum-capacitance tables,
and resumable sweeps, all driven by one INI scenario plus overrides."""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Sequence

from .analysis import (
    CYCLE_KINDS,
    DEFAULT_DATA_RATES,
    DEFAULT_PAYLOADS_BYTES,
    DEFAULT_POWERS_W,
    expand_grid,
    mincap_csv,
    run_sweep,
)
from .config import ConfigError, parse_config
from .engine import RESULTS_HEADER, Simulator, check_scenarios, results_row
from .harvester import TraceFormatError, load_trace


# Built once per process: parsing leaves the parser unchanged, and each
# call's arguments land in a fresh namespace.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caplora",
        description=(
            "Simulate a battery-less LoRaWAN device powered by a"
            " harvester-charged capacitor."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": "simulate one scenario and report its metrics row",
        "trace": "simulate one scenario and export the voltage/state trace",
        "mincap": "solve minimum capacitances over a parameter grid",
        "sweep": "run the scenario over the [sweep] grid, resumably",
    }
    for name, help_text in commands.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", type=Path, help="scenario INI file")
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one scenario key (repeatable)",
        )
        sub.add_argument(
            "--out", type=Path, default=Path("."), help="output directory"
        )
    subparsers.choices["sweep"].add_argument(
        "--fresh",
        action="store_true",
        help="ignore rows already present in sweep.csv instead of resuming",
    )
    return parser


def _cmd_run(args: argparse.Namespace, want_trace: bool) -> int:
    config, _ = parse_config(args.config, args.overrides)
    if want_trace:
        config = config._replace(trace=True)
    metrics = Simulator(config).run()
    row = results_row(config, metrics)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(f"{RESULTS_HEADER}\n{row}\n")
    if want_trace:
        assert metrics.trace is not None
        with (out / "voltage_trace.csv").open("w") as handle:
            metrics.trace.write_csv(handle)
    print(RESULTS_HEADER)
    print(row)
    if not metrics.valid:
        print("run aborted early: harvest trace exhausted", file=sys.stderr)
        return 1
    return 0


def _cmd_mincap(args: argparse.Namespace) -> int:
    config, grid = parse_config(args.config, args.overrides)
    data_rates = grid.data_rates or DEFAULT_DATA_RATES
    payloads = grid.payloads_bytes or DEFAULT_PAYLOADS_BYTES
    powers = grid.powers_w or DEFAULT_POWERS_W
    kinds = grid.kinds or CYCLE_KINDS
    text = mincap_csv(
        config, data_rates=data_rates, payloads_bytes=payloads, powers_w=powers, kinds=kinds
    )
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "min_capacitance.csv").write_text(text)
    points = len(data_rates) * len(payloads) * len(powers) * len(kinds)
    print(f"{points} grid points -> {out / 'min_capacitance.csv'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, grid = parse_config(args.config, args.overrides)
    configs = expand_grid(grid, config)
    check_scenarios(configs)
    if config.harvester == "trace":
        # Every point replays the base scenario's trace: a malformed one is
        # reported once, before any point runs.
        load_trace(config.trace_file)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    def note_failure(key: str, exc: Exception) -> None:
        failures.append(key)
        print(f"run {key} failed: {exc}", file=sys.stderr)

    rows = run_sweep(
        configs,
        out / "sweep.csv",
        resume=not args.fresh,
        on_error=note_failure,
    )
    print(f"{len(rows)} rows -> {out / 'sweep.csv'}")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args, want_trace=False)
        if args.command == "trace":
            return _cmd_run(args, want_trace=True)
        if args.command == "mincap":
            return _cmd_mincap(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
