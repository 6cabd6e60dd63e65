"""Command-line front door: encode, decode, simulate, read, stats, plan.

Every command resolves its full configuration (including the seed for
stochastic commands) and writes it as a ``# key = value`` header block in
its primary text output, so any run can be reproduced byte for byte from
the recorded header.  Failures exit nonzero with a one-line
``error: <category>: <detail>`` message.
"""

from __future__ import annotations

import argparse
import csv
import os
import secrets
import sys
from typing import Iterable, Sequence

from . import __version__, calibration, chipmodel, codec, poresim, reader, traceio

CALIBRATION_ENV = "MOLSTORE_CALIBRATION"


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _fail(category: str, message: str) -> CliError:
    return CliError(category, message)


def _load_calibration(path: str | None) -> calibration.CalibrationTable:
    if path is None:
        path = os.environ.get(CALIBRATION_ENV)
    if path is None:
        return calibration.CalibrationTable()
    return calibration.load_calibration(path)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _header_lines(command: str, items: Sequence[tuple[str, object]]) -> list[str]:
    lines = [f"# molstore {command}", f"# version = {__version__}"]
    lines.extend(f"# {key} = {value}" for key, value in items)
    return lines


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# --- encode / decode -------------------------------------------------------


def _cmd_encode(args) -> int:
    bits = codec.read_payload(_read_text(args.infile))
    if args.mode == "direct":
        seq = codec.encode_direct(bits)
    else:
        seq = codec.encode_runlength(bits, codec.RunLengthScheme.from_string(args.scheme))
    _write_text(args.out, codec.format_sequence(seq))
    return 0


def _cmd_decode(args) -> int:
    seq = codec.read_sequence(_read_text(args.infile))
    if args.mode == "direct":
        bits = codec.decode_direct(seq)
    else:
        bits = codec.decode_runlength(
            seq, codec.RunLengthScheme.from_string(args.scheme), args.tolerance
        )
    _write_text(args.out, codec.format_payload(bits))
    return 0


# --- simulate ---------------------------------------------------------------


def _parse_clogs(specs: Iterable[str]) -> dict[int, list[tuple[float, float]]]:
    clogs: dict[int, list[tuple[float, float]]] = {}
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _fail("usage", f"--clog wants pore:start_s:end_s, got {spec!r}")
        try:
            pore, start, end = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise _fail("usage", f"--clog wants numeric pore:start_s:end_s, got {spec!r}")
        clogs.setdefault(pore, []).append((start, end))
    return clogs


def _config_items(
    config: calibration.ChannelConfig, molecule, duration_s, seed, clog_specs
) -> list[tuple[str, object]]:
    items = [
        ("molecule", molecule),
        ("voltage_mv", _fmt(config.voltage_mv)),
        ("kcl_molar", _fmt(config.kcl_molar)),
        ("bandwidth_khz", "none" if config.bandwidth_khz is None else _fmt(config.bandwidth_khz)),
        ("sample_rate_hz", config.sample_rate_hz),
        ("noise_sigma_pa", _fmt(config.noise_sigma_pa)),
        ("pores", config.n_pores),
        ("duration_s", _fmt(duration_s)),
        ("seed", seed),
    ]
    for spec in clog_specs:
        items.append(("clog", spec))
    return items


def _cmd_simulate(args) -> int:
    calib = _load_calibration(args.calibration)
    molecule = poresim.MoleculeSpec.from_string(args.molecule)
    config = calibration.ChannelConfig(
        voltage_mv=args.voltage_mv,
        kcl_molar=args.kcl_molar,
        bandwidth_khz=args.bandwidth_khz,
        sample_rate_hz=args.sample_rate_hz,
        noise_sigma_pa=args.noise_sigma_pa,
        n_pores=args.pores,
    )
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    result = poresim.simulate(
        molecule, config, args.duration_s, calib, seed, clogs=_parse_clogs(args.clog)
    )
    traceio.write_trace(result.synthesized, args.trace_out, args.format)

    lines = _header_lines(
        "simulate", _config_items(config, molecule, args.duration_s, seed, args.clog)
    )
    lines.append(f"# trace = {os.path.basename(args.trace_out)} ({args.format})")
    lines.append(f"# gating = {str(result.gating).lower()}")
    for cal_line in calibration.format_calibration(calib).splitlines():
        lines.append(f"# cal.{cal_line}")
    lines.append("kind,pore,t_start_s,duration_us,complete,orientation,levels,durations_us")
    for pore, event in result.events:
        levels = ";".join(f"{s.level:.6f}" for s in event.substates)
        durations = ";".join(f"{s.duration_us:.3f}" for s in event.substates)
        lines.append(
            f"event,{pore},{event.t_start_s:.9f},{event.duration_us:.3f},"
            f"{int(event.complete)},{event.orientation},{levels},{durations}"
        )
    for pore in sorted(result.clogs):
        for start, end in result.clogs[pore]:
            lines.append(
                f"clog,{pore},{start:.9f},{(end - start) * 1e6:.3f},,,,"
            )
    _write_text(args.log_out, "\n".join(lines) + "\n")
    return 0


def parse_event_log(path: str):
    """Read a ground-truth log back as (header dict, events, clogs)."""
    header: dict[str, str] = {}
    events: list[tuple[int, poresim.TranslocationEvent]] = []
    clogs: dict[int, list[tuple[float, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
                continue
            rows.append(line)
    for row in csv.reader(rows[1:]):
        if not row:
            continue
        kind, pore = row[0], int(row[1])
        if kind == "clog":
            start = float(row[2])
            clogs.setdefault(pore, []).append((start, start + float(row[3]) * 1e-6))
            continue
        levels = [float(x) for x in row[6].split(";")]
        durations = [float(x) for x in row[7].split(";")]
        event = poresim.TranslocationEvent(
            t_start_s=float(row[2]),
            substates=tuple(
                poresim.Substate(lv, du) for lv, du in zip(levels, durations)
            ),
            complete=bool(int(row[4])),
            orientation=poresim.Orientation(row[5]),
        )
        events.append((pore, event))
    return header, events, clogs


# --- read / stats -----------------------------------------------------------


def _resolve_open_current(args, calib) -> float:
    if args.open_current_pa is not None:
        return args.open_current_pa
    return poresim.open_current(args.voltage_mv, args.kcl_molar, calib)


def _check_pores(args) -> None:
    if args.pores < 1:
        raise _fail("usage", f"--pores must be >= 1, got {args.pores}")
    if args.pores > reader.MAX_PORES:
        raise _fail("usage", f"--pores must be <= {reader.MAX_PORES}, got {args.pores}")


def _cmd_read(args) -> int:
    _check_pores(args)
    calib = _load_calibration(args.calibration)
    trace = traceio.read_trace(args.trace)
    open_pa = _resolve_open_current(args, calib)
    floor_us = args.complete_floor_us
    if floor_us is None and args.molecule:
        molecule = poresim.MoleculeSpec.from_string(args.molecule)
        floor_us = reader.complete_duration_floor_us(
            args.voltage_mv, molecule.total_bases, calib
        )
    if floor_us is None:
        floor_us = 0.0

    result = reader.read_station(
        trace, open_pa, args.noise_sigma_pa, calib,
        codec.RunLengthScheme.from_string(args.scheme), args.voltage_mv,
        threshold_fraction=args.threshold_fraction,
        min_duration_us=args.min_duration_us,
        min_substate_us=args.min_substate_us,
        complete_floor_us=floor_us,
        tolerance=args.tolerance,
        n_pores=args.pores,
    )
    header_items = [
        ("trace", args.trace),
        ("open_current_pa", _fmt(open_pa)),
        ("threshold_fraction", _fmt(args.threshold_fraction)),
        ("min_duration_us", _fmt(args.min_duration_us)),
        ("min_substate_us", _fmt(args.min_substate_us)),
        ("complete_floor_us", _fmt(floor_us)),
        ("scheme", args.scheme),
        ("tolerance", _fmt(args.tolerance)),
        ("pores", args.pores),
    ]
    lines = _header_lines("read", header_items)
    lines.append("start_s,duration_us,blockage_pct,class,orientation")
    kinds = [reader.EVENT_KINDS[k] for k in result.kind.tolist()]
    orientations = [reader.ORIENTATIONS[o] for o in result.orientation.tolist()]
    lines.extend(
        f"{start:.9f},{duration:.3f},{blockage:.3f},{kind},{orientation}"
        for start, duration, blockage, kind, orientation in zip(
            result.t_start_s.tolist(), result.duration_us.tolist(),
            (100.0 * (1.0 - result.mean_level)).tolist(), kinds, orientations,
        )
    )
    _write_text(args.events_out, "\n".join(lines) + "\n")

    payload_lines = [
        codec.format_payload(bits).strip()
        for bits in result.decoded if isinstance(bits, tuple)
    ]
    failures = sum(isinstance(outcome, Exception) for outcome in result.decoded)
    summary = _header_lines("read summary", header_items)
    summary.append(f"events = {len(result)}")
    summary.append(f"open_fraction = {result.open_fraction:.6f}")
    summary.append(f"complete_rate_per_s = {_fmt(result.complete_rate)}")
    summary.append(f"partial_rate_per_s = {_fmt(result.partial_rate)}")
    summary.append(f"total_rate_per_s = {_fmt(result.total_rate)}")
    summary.append(f"decoded_events = {len(payload_lines)}")
    summary.append(f"decode_failures = {failures}")
    for k, count in result.census_histogram.items():
        summary.append(f"census_{k}_samples = {count}")
    _write_text(args.summary_out, "\n".join(summary) + "\n")

    _write_text(
        args.payload_out,
        "\n".join(payload_lines) + ("\n" if payload_lines else ""),
    )
    return 0


def _cmd_stats(args) -> int:
    _check_pores(args)
    calib = _load_calibration(args.calibration)
    trace = traceio.read_trace(args.trace)
    open_pa = _resolve_open_current(args, calib)
    clogged = calib.clogged_current_pa
    lines = _header_lines(
        "stats",
        [
            ("trace", args.trace),
            ("open_current_pa", _fmt(open_pa)),
            ("clogged_current_pa", _fmt(clogged)),
            ("pores", args.pores),
        ],
    )
    result = reader.census_stats(trace, args.pores, open_pa, clogged)
    lines.append(f"samples = {result.n_samples}")
    lines.append(f"duration_s = {_fmt(result.duration_s)}")
    lines.append(f"mean_pa = {_fmt(result.mean_pa)}")
    for k, entry in sorted(result.rates.items()):
        lines.append(f"census_{k}_seconds = {_fmt(entry.seconds)}")
        lines.append(f"census_{k}_events = {entry.events}")
        lines.append(f"census_{k}_rate_per_s = {_fmt(entry.rate_per_s)}")
        if k in result.current_means:
            lines.append(f"census_{k}_mean_pa = {_fmt(result.current_means[k])}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# --- plan -------------------------------------------------------------------


def _cmd_plan(args) -> int:
    scenario = chipmodel.PlanScenario()
    if args.scenario:
        scenario = chipmodel.load_scenario(args.scenario, base=scenario)
    if args.set:
        scenario = chipmodel.parse_scenario("\n".join(args.set), base=scenario)
    report = chipmodel.plan(scenario)
    items = chipmodel.report_items(report)
    lines = _header_lines("plan", [("scenario", args.scenario or "defaults")])
    lines.extend(f"{key} = {value}" for key, value in items)
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.csv_out:
        csv_lines = [
            ",".join(key for key, _ in items),
            ",".join(value for _, value in items),
        ]
        _write_text(args.csv_out, "\n".join(csv_lines) + "\n")
    return 0


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molstore",
        description="Nanopore macromolecular storage: codec, simulator, reader, planner.",
    )
    parser.add_argument("--version", action="version", version=f"molstore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="bits -> nucleotide sequence")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--mode", choices=["direct", "runlength"], default="direct")
    enc.add_argument("--scheme", default="A20C30")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="nucleotide sequence -> bits")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--mode", choices=["direct", "runlength"], default="direct")
    dec.add_argument("--scheme", default="A20C30")
    dec.add_argument("--tolerance", type=float, default=0.1)
    dec.set_defaults(func=_cmd_decode)

    sim = sub.add_parser("simulate", help="synthesize a current trace + ground truth")
    sim.add_argument("--molecule", required=True, help="e.g. A50C100 or (AC)60")
    sim.add_argument("--voltage-mv", type=float, default=210.0)
    sim.add_argument("--kcl-molar", type=float, default=1.0)
    sim.add_argument("--duration-s", type=float, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--pores", type=int, default=1)
    sim.add_argument("--sample-rate-hz", type=int, default=1_000_000)
    sim.add_argument("--noise-sigma-pa", type=float, default=5.0)
    sim.add_argument("--bandwidth-khz", type=float, default=None)
    sim.add_argument("--calibration", default=None)
    sim.add_argument("--clog", action="append", default=[], metavar="PORE:START:END")
    sim.add_argument("--format", choices=["text", "binary"], default="text")
    sim.add_argument("--trace-out", required=True)
    sim.add_argument("--log-out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    rd = sub.add_parser("read", help="detect, classify, and decode a trace")
    rd.add_argument("--trace", required=True)
    rd.add_argument("--voltage-mv", type=float, default=210.0)
    rd.add_argument("--kcl-molar", type=float, default=1.0)
    rd.add_argument("--open-current-pa", type=float, default=None)
    rd.add_argument("--noise-sigma-pa", type=float, default=5.0)
    rd.add_argument("--threshold-fraction", type=float, default=0.5)
    rd.add_argument("--min-duration-us", type=float, default=10.0)
    rd.add_argument("--min-substate-us", type=float, default=20.0)
    rd.add_argument("--molecule", default=None, help="sets the completeness floor")
    rd.add_argument("--complete-floor-us", type=float, default=None)
    rd.add_argument("--scheme", default="A20C30")
    rd.add_argument("--tolerance", type=float, default=0.45)
    rd.add_argument("--pores", type=int, default=1)
    rd.add_argument("--calibration", default=None)
    rd.add_argument("--events-out", required=True)
    rd.add_argument("--summary-out", required=True)
    rd.add_argument("--payload-out", required=True)
    rd.set_defaults(func=_cmd_read)

    st = sub.add_parser("stats", help="census occupancy and rates of a trace")
    st.add_argument("--trace", required=True)
    st.add_argument("--voltage-mv", type=float, default=150.0)
    st.add_argument("--kcl-molar", type=float, default=1.0)
    st.add_argument("--open-current-pa", type=float, default=None)
    st.add_argument("--pores", type=int, default=1)
    st.add_argument("--calibration", default=None)
    st.add_argument("--out", required=True)
    st.set_defaults(func=_cmd_stats)

    pl = sub.add_parser("plan", help="capacity / throughput report")
    pl.add_argument("--scenario", default=None)
    pl.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    pl.add_argument("--out", required=True)
    pl.add_argument("--csv-out", default=None)
    pl.set_defaults(func=_cmd_plan)

    return parser


_CATEGORIES = (
    (traceio.TraceFormatError, "format"),
    (calibration.ParamError, "param"),
    (calibration.RangeError, "range"),
    (calibration.CalibrationError, "config"),
    (codec.CodecError, "decode"),
    (poresim.SimulationError, "param"),
    (reader.ReaderError, "param"),
    (chipmodel.PlanError, "param"),
)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - mapped to categories below
        for exc_type, category in _CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
