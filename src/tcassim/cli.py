"""Command-line front end.

Four subcommands: run a scenario and dump its log/metrics, sweep the noisy
channel, evaluate the risk table, and decode a single frame.  Scenario
references resolve as a file path first and a bundled name second.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import fta, harness
from . import modes_codec as codec
from . import scenario as scen
from .airspace import SimError, write_event_log


def _resolve_scenario(ref: str, seed: int | None) -> scen.Scenario:
    if Path(ref).is_file():
        loaded = scen.load_scenario(Path(ref))
    elif ref in scen.bundled_scenario_names():
        loaded = scen.bundled_scenario(ref)
    else:
        raise scen.ScenarioError(
            f"{ref!r} is neither a scenario file nor a bundled name "
            f"({', '.join(scen.bundled_scenario_names())})")
    if seed is not None:
        loaded = replace(loaded, seed=seed)
    return loaded


def _cmd_simulate(args: argparse.Namespace) -> int:
    loaded = _resolve_scenario(args.scenario, args.seed)
    try:
        result = harness.simulate(loaded)
    except SimError as exc:  # keep what the run logged before it failed
        if args.log and exc.records is not None:
            try:
                write_event_log(args.log, exc.records)
            except OSError as log_exc:  # the run's own error is the one to report
                print(f"warning: partial log not written: {log_exc}", file=sys.stderr)
        raise
    report = result.report
    if args.log:
        write_event_log(args.log, result.records)
    if args.metrics:
        Path(args.metrics).write_text(report.to_json() + "\n")
    print(f"scenario {loaded.name}: {len(result.records)} log records over "
          f"{loaded.duration_s:g} s (seed {loaded.seed})")
    if report.attack_phases:
        print("attack phases:", " ".join(p for _, p in report.attack_phases))
    print(f"advisories: {len(report.advisories)}; "
          f"nmac windows: {len(report.nmac_windows)}")
    for name, ok in report.success.items():
        print(f"success {name}: {'pass' if ok else 'FAIL'}")
    return 0 if report.succeeded else 1


def _parse_snr(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _cmd_sweep(args: argparse.Namespace) -> int:
    loaded = _resolve_scenario(args.scenario, None)
    if loaded.snr_db == math.inf:
        raise scen.ScenarioError("sweep needs a scenario with an awgn channel")
    points = harness.loss_sweep(loaded, _parse_snr(args.snr), corpus_size=args.frames)
    table = harness.loss_table_csv(points)
    if args.out:
        Path(args.out).write_text(table)
    else:
        print(table, end="")
    return 0


def _cmd_fta(args: argparse.Namespace) -> int:
    if args.defaults:
        document: dict = {}
    else:
        document = json.loads(Path(args.file).read_text())
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep:
            raise fta.FtaError(f"override must look like k=v, got {item!r}")
        try:
            document.setdefault("overrides", {})[key] = float(value)
        except (AttributeError, TypeError):  # not a JSON object at either level
            raise fta.FtaError("--override needs a JSON object document whose "
                               "'overrides' field is an object") from None
    sweep, table = harness.fta_report(document)
    if args.json:
        print(json.dumps(sweep.to_dicts(), indent=1, sort_keys=True))
    else:
        print(table, end="")
    return 0


def _cmd_codec(args: argparse.Namespace) -> int:
    direction = codec.UPLINK if args.uplink else codec.DOWNLINK
    frame = codec.ModeSFrame.from_hex(args.hex, direction)
    expected = None if args.address is None else codec.parse_address(args.address)
    decoded = codec.parse_frame(frame, expected_address=expected)
    print(f"direction: {frame.direction}")
    print(f"format code: {decoded.format_code} ({decoded.kind}), {frame.nbits} bits")
    for name, value in decoded.fields.items():
        if name == "icao" or name == "sender":
            print(f"{name}: {value:06x}")
        else:
            print(f"{name}: {value}")
    if decoded.altitude_ft is not None:
        print(f"altitude_ft: {decoded.altitude_ft}")
    if decoded.parity is None:
        print("parity: not checkable for this format")
        return 1
    print(f"parity overlay recovered: {decoded.parity.recovered_address:06x}")
    if decoded.parity.passed is None:
        print("parity: unverified (supply --address for addressed formats)")
        return 1
    print(f"parity: {'pass' if decoded.parity.passed else 'FAIL'}")
    return 0 if decoded.parity.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcassim",
        description="Deterministic Mode S / collision-avoidance attack simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario; exit 0 iff it meets its success predicates")
    p.add_argument("scenario", help="scenario file or bundled name")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--log", default=None, help="write the event log here")
    p.add_argument("--metrics", default=None, help="write the metrics report (JSON) here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="packet-loss table over an SNR grid")
    p.add_argument("scenario", help="awgn scenario file or bundled name")
    p.add_argument("--snr", required=True, help="comma-separated dB; 'inf' = zero noise via modem")
    p.add_argument("--frames", type=int, default=600, help="corpus size per point")
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fta", help="risk table from a factor document")
    p.add_argument("file", nargs="?", help="JSON document with factors/grid/overrides")
    p.add_argument("--defaults", action="store_true", help="evaluate the all-defaults row")
    p.add_argument("--override", action="append", default=[], metavar="k=v",
                   help="set basic event n or o, the ones a formula reads (repeatable); "
                        "switches on the attack mapping")
    p.add_argument("--json", action="store_true", help="emit JSON reports instead of CSV")
    p.set_defaults(func=_cmd_fta)

    p = sub.add_parser("codec", help="decode one frame; exit 0 iff parity passes")
    p.add_argument("hex", help="14 or 28 hex digits")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--uplink", action="store_true", help="decode as an interrogation")
    group.add_argument("--downlink", action="store_true", help="decode as a reply (default)")
    p.add_argument("--address", default=None, metavar="HEX",
                   help="expected transponder address (6 hex digits) for addressed formats")
    p.set_defaults(func=_cmd_codec)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fta" and args.defaults == (args.file is not None):
        parser.error("fta needs a document file or --defaults, not both")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError, CodecError and FtaError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
