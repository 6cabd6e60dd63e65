"""Command-line front door: encode, decode, simulate, read, stats, plan.

Every command resolves its full configuration (including the seed for
stochastic commands) and writes it as a ``# key = value`` header block in
its primary text output, so any run can be reproduced byte for byte from
the recorded header.  Failures exit nonzero with a one-line
``error: <category>: <detail>`` message, the category being the ``category``
attribute of the error class.

Each command imports the library modules it runs inside its own function,
so ``--version``, ``--help``, ``encode``, ``decode`` and ``plan`` start
without numpy, and ``simulate`` without the reader.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import stat
import sys
from typing import Iterable, Iterator, Sequence

from . import __version__

CALIBRATION_ENV = "MOLSTORE_CALIBRATION"


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _load_calibration(path: str | None):
    from . import calibration

    if path is None:
        path = os.environ.get(CALIBRATION_ENV)
    if path is None:
        return calibration.CalibrationTable()
    return calibration.load_calibration(path)


@contextlib.contextmanager
def _all_or_none() -> Iterator[list[str]]:
    """Yield the list a command adds each output path to once its file is
    open.  If the command then fails, the regular files on the list are
    removed, so a failed command leaves none of its outputs behind, not
    even one it was writing; a device, FIFO or symlink it wrote through is
    left as it is, and so is a file that could not be opened."""
    written: list[str] = []
    try:
        yield written
    except BaseException:
        for path in written:
            with contextlib.suppress(FileNotFoundError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
        raise


def _write_text(path: str, pieces: Iterable[str], written: list[str]) -> None:
    """Write the text ``pieces`` to ``path`` in turn, the path added to
    ``written`` once it is open."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        written.append(path)
        for piece in pieces:
            fh.write(piece)


def _write_texts(outputs: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Write each ``(path, pieces)`` in turn, all or none (see ``_all_or_none``)."""
    with _all_or_none() as written:
        for path, pieces in outputs:
            _write_text(path, pieces, written)


def _header_lines(command: str, items: Sequence[tuple[str, object]]) -> list[str]:
    lines = [f"# molstore {command}", f"# version = {__version__}"]
    lines.extend(f"# {key} = {value}" for key, value in items)
    return lines


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# --- encode / decode -------------------------------------------------------


def _cmd_encode(args) -> int:
    from . import calibration, codec

    bits = codec.read_payload(calibration.read_text(args.infile))
    if args.mode == "direct":
        seq = codec.encode_direct(bits)
    else:
        seq = codec.encode_runlength(bits, codec.RunLengthScheme.from_string(args.scheme))
    _write_texts([(args.out, codec.format_sequence(seq))])
    return 0


def _cmd_decode(args) -> int:
    from . import calibration, codec

    seq = codec.read_sequence(calibration.read_text(args.infile))
    if args.mode == "direct":
        bits = codec.decode_direct(seq)
    else:
        bits = codec.decode_runlength(
            seq, codec.RunLengthScheme.from_string(args.scheme), args.tolerance
        )
    _write_texts([(args.out, [codec.format_payload(bits)])])
    return 0


# --- simulate ---------------------------------------------------------------


def _parse_clogs(specs: Iterable[str]) -> dict[int, list[tuple[float, float]]]:
    clogs: dict[int, list[tuple[float, float]]] = {}
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError("usage", f"--clog wants pore:start_s:end_s, got {spec!r}")
        try:
            pore, start, end = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise CliError("usage", f"--clog wants numeric pore:start_s:end_s, got {spec!r}")
        clogs.setdefault(pore, []).append((start, end))
    return clogs


def _config_items(config, molecule, duration_s, seed, clog_specs) -> list[tuple[str, object]]:
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
    from . import calibration, poresim, traceio

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
    seed = args.seed
    if seed is None:
        import secrets

        seed = secrets.randbits(63)
    result = poresim.simulate(
        molecule, config, args.duration_s, calib, seed, clogs=_parse_clogs(args.clog)
    )

    with _all_or_none() as written:
        traceio.write_trace(result.trace, args.trace_out, args.format)
        written.append(args.trace_out)
        lines = _header_lines(
            "simulate", _config_items(config, molecule, args.duration_s, seed, args.clog)
        )
        lines.append(f"# trace = {os.path.basename(args.trace_out)} ({args.format})")
        lines.append(f"# gating = {str(result.gating).lower()}")
        lines += [f"# cal.{line}" for line in calibration.format_calibration(calib).splitlines()]
        _write_text(
            args.log_out, poresim.format_event_log(lines, result.events, result.clogs), written
        )
    return 0


# --- read / stats -----------------------------------------------------------


def _resolve_open_current(args, calib) -> float:
    from . import poresim

    if args.open_current_pa is not None:
        return args.open_current_pa
    return poresim.open_current(args.voltage_mv, args.kcl_molar, calib)


def _check_pores(args) -> None:
    from .calibration import MAX_PORES

    if args.pores < 1:
        raise CliError("usage", f"--pores must be >= 1, got {args.pores}")
    if args.pores > MAX_PORES:
        raise CliError("usage", f"--pores must be <= {MAX_PORES}, got {args.pores}")


def _format_events(header: Sequence[str], result) -> Iterator[str]:
    """``read``'s events.csv: the ``header`` lines and the column row, then a
    row per event of the ReadResult ``result``, in pieces of at most
    ``poresim._LOG_ROWS`` rows, as the ground-truth log is written."""
    from . import poresim, reader

    columns = "start_s,duration_us,blockage_pct,class,orientation"
    yield "".join(f"{line}\n" for line in (*header, columns))
    names = [o.value for o in reader.ORIENTATIONS]
    t_start_s, duration_us = result.t_start_s, result.duration_us
    blockage_pct = 100.0 * (1.0 - result.mean_level)
    for a in range(0, len(result), poresim._LOG_ROWS):
        rows = slice(a, a + poresim._LOG_ROWS)
        yield "".join(
            f"{start:.9f},{duration:.3f},{blockage:.3f},{reader.EVENT_KINDS[kind]},"
            f"{names[orientation]}\n"
            for start, duration, blockage, kind, orientation in zip(
                t_start_s[rows].tolist(), duration_us[rows].tolist(),
                blockage_pct[rows].tolist(), result.kind[rows].tolist(),
                result.orientation[rows].tolist(),
            )
        )


def _format_payloads(result) -> Iterator[str]:
    """``read``'s payload file: a line of bits per event of the ReadResult
    ``result`` that decoded, in pieces of at most ``poresim._LOG_ROWS``
    lines, as events.csv is written."""
    from . import codec, poresim

    lines = (codec.format_payload(bits) for bits in result.decoded if isinstance(bits, tuple))
    while piece := "".join(itertools.islice(lines, poresim._LOG_ROWS)):
        yield piece


def _cmd_read(args) -> int:
    from . import codec, poresim, reader, traceio

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
    events = _format_events(_header_lines("read", header_items), result)

    decoded_events = sum(isinstance(outcome, tuple) for outcome in result.decoded)
    failures = sum(isinstance(outcome, Exception) for outcome in result.decoded)
    summary = _header_lines("read summary", header_items)
    summary.append(f"events = {len(result)}")
    summary.append(f"open_fraction = {result.open_fraction:.6f}")
    summary.append(f"complete_rate_per_s = {_fmt(result.complete_rate)}")
    summary.append(f"partial_rate_per_s = {_fmt(result.partial_rate)}")
    summary.append(f"total_rate_per_s = {_fmt(result.total_rate)}")
    summary.append(f"decoded_events = {decoded_events}")
    summary.append(f"decode_failures = {failures}")
    for k, count in result.census_histogram.items():
        summary.append(f"census_{k}_samples = {count}")
    _write_texts([
        (args.events_out, events),
        (args.summary_out, ["\n".join(summary) + "\n"]),
        (args.payload_out, _format_payloads(result)),
    ])
    return 0


def _cmd_stats(args) -> int:
    from . import reader, traceio

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
    _write_texts([(args.out, ["\n".join(lines) + "\n"])])
    return 0


# --- plan -------------------------------------------------------------------


def _cmd_plan(args) -> int:
    from . import chipmodel

    scenario = chipmodel.PlanScenario()
    if args.scenario:
        scenario = chipmodel.load_scenario(args.scenario, base=scenario)
    if args.set:
        scenario = chipmodel.parse_scenario("\n".join(args.set), base=scenario)
    report = chipmodel.plan(scenario)
    items = chipmodel.report_items(report)
    lines = _header_lines("plan", [("scenario", args.scenario or "defaults")])
    lines.extend(f"{key} = {value}" for key, value in items)
    outputs = [(args.out, ["\n".join(lines) + "\n"])]
    if args.csv_out:
        csv_lines = [
            ",".join(key for key, _ in items),
            ",".join(value for _, value in items),
        ]
        outputs.append((args.csv_out, ["\n".join(csv_lines) + "\n"]))
    _write_texts(outputs)
    return 0


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one-line ``usage`` failures."""

    def error(self, message: str):
        raise CliError("usage", message)


def _header_path(value: str) -> str:
    """A path the command copies into an output header, which is UTF-8
    text: one given as bytes that are not UTF-8 is refused."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not UTF-8: {value!r}") from None
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    sim.add_argument("--trace-out", required=True, type=_header_path)
    sim.add_argument("--log-out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    rd = sub.add_parser("read", help="detect, classify, and decode a trace")
    rd.add_argument("--trace", required=True, type=_header_path)
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
    st.add_argument("--trace", required=True, type=_header_path)
    st.add_argument("--voltage-mv", type=float, default=150.0)
    st.add_argument("--kcl-molar", type=float, default=1.0)
    st.add_argument("--open-current-pa", type=float, default=None)
    st.add_argument("--pores", type=int, default=1)
    st.add_argument("--calibration", default=None)
    st.add_argument("--out", required=True)
    st.set_defaults(func=_cmd_stats)

    pl = sub.add_parser("plan", help="capacity / throughput report")
    pl.add_argument("--scenario", default=None, type=_header_path)
    pl.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    pl.add_argument("--out", required=True)
    pl.add_argument("--csv-out", default=None)
    pl.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        category = getattr(exc, "category", None)
        if category is None:
            raise
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
