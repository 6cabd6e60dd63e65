"""Current-trace file formats.

Both formats hold finite samples only: the writers refuse a non-finite
sample (in the binary format, one whose float32 value is not finite) and
the readers refuse a file holding one, as ``TraceFormatError``; a writer
that refuses a sample removes the file it was writing.  Writers take any
trace with ``sample_rate_hz``, ``len()`` and ``chunks()`` (float64 sample
chunks), so a simulated trace is written as it is made.

Text format: ASCII.  A header line ``sample_rate_hz=<integer>``, then one
decimal pA value per line, written as ``"%.6f"`` formats it (the exact
binary value rounded to 6 places, ties to even, ``-`` on every negative
value, so ``-0.0`` prints ``-0.000000``).  The reader skips blank lines and
rejects anything else: non-ASCII bytes, ``#`` lines, a line holding more
than one value, and ``nan`` or ``inf``.

Binary format: magic ``MTRC``, little-endian u32 version (1), f64 sample
rate, u64 sample count, then float32 samples; the reader refuses a count
the file is too short to hold.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .poresim import CurrentTrace

MAGIC = b"MTRC"
VERSION = 1
_HEADER = struct.Struct("<4sIdQ")


class TraceFormatError(ValueError):
    """Malformed trace file."""


# Samples formatted per numpy pass; bounds the writer's working memory.
_TEXT_CHUNK = 1 << 14
# Samples read per pass of the binary reader.
_READ_CHUNK = 1 << 18
# A float64 this large has no fractional bits left to round; chunks with
# |x * 1e6| at or past it go to Python's formatter.
_EXACT_LIMIT = 2.0**52


def _put_digits(rows: np.ndarray, stop: int, count: int, value: np.ndarray) -> None:
    """Write the last ``count`` decimal digits of ``value`` as ASCII into
    columns ``stop - count .. stop - 1`` of ``rows``."""
    for col in range(stop - 1, stop - 1 - count, -1):
        quot = value // 10
        np.add(value - quot * 10, ord("0"), out=rows[:, col], casting="unsafe")
        value = quot


def _format_exact(x: np.ndarray) -> bytes | None:
    """The ``"%.6f"`` lines of a non-empty float64 chunk, by integer
    arithmetic; ``None`` when the chunk needs Python's formatter.

    ``rint(x * 1e6)`` is the correctly rounded ``x * 10**6`` unless the
    product lies within its rounding error of a half-integer, so chunks
    holding such a near-tie, a non-finite value or a value too large for
    exact integers are refused.
    """
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        scaled = np.abs(x * 1e6)
    if not np.all(scaled < _EXACT_LIMIT):
        return None
    q = np.rint(scaled)
    if np.any(np.abs(scaled - q) >= 0.5 - 2.0 * np.spacing(scaled.max())):
        return None
    q = q.astype(np.uint64)
    whole = q // 1_000_000
    frac = (q - whole * 1_000_000).astype(np.uint32)
    n_int = len(str(int(whole.max())))
    rows = np.empty((x.size, n_int + 9), np.uint8)
    rows[:, 0] = ord("-")
    _put_digits(rows, n_int + 1, n_int, whole)
    rows[:, n_int + 1] = ord(".")
    _put_digits(rows, n_int + 8, 6, frac)
    rows[:, n_int + 8] = ord("\n")
    # Keep the sign on negative rows only, and no leading zeros.
    keep = np.ones(rows.shape, bool)
    keep[:, 0] = np.signbit(x)
    for col in range(1, n_int):
        np.greater_equal(whole, 10 ** (n_int - col), out=keep[:, col])
    return rows[keep].tobytes()


def _refuse_non_finite(values: np.ndarray, start: int) -> None:
    """Raise unless every value is finite; ``start`` is the index of the first."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise TraceFormatError(f"non-finite sample {values[bad]} at index {start + bad}")


def _write_chunks(path: str, header: bytes, trace, write_chunk) -> None:
    """Write ``header``, then ``write_chunk(fh, chunk, start)`` for each chunk
    of ``trace``; if a chunk is refused, the file is removed."""
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            start = 0
            for chunk in trace.chunks():
                write_chunk(fh, chunk, start)
                start += chunk.size
    except TraceFormatError:
        os.remove(path)
        raise


def _write_text_chunk(fh, samples: np.ndarray, start: int) -> None:
    _refuse_non_finite(samples, start)
    for offset in range(0, samples.size, _TEXT_CHUNK):
        chunk = samples[offset : offset + _TEXT_CHUNK]
        body = _format_exact(chunk)
        if body is None:
            body = ("%.6f\n" * chunk.size % tuple(chunk.tolist())).encode("ascii")
        fh.write(body)


def write_trace_text(trace, path: str) -> None:
    rate = trace.sample_rate_hz
    if rate != int(rate):
        raise TraceFormatError("text format stores an integer sample rate")
    header = f"sample_rate_hz={int(rate)}\n".encode("ascii")
    _write_chunks(path, header, trace, _write_text_chunk)


def read_trace_text(path: str) -> CurrentTrace:
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if not header.startswith("sample_rate_hz="):
                raise TraceFormatError("missing sample_rate_hz header line")
            try:
                rate = int(header.split("=", 1)[1])
            except ValueError as exc:
                raise TraceFormatError(f"bad sample rate in header: {header!r}") from exc
            if rate <= 0:
                raise TraceFormatError("sample rate must be positive")
            with warnings.catch_warnings():
                # A header-only trace is a valid empty trace.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    table = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
                except UnicodeDecodeError:
                    raise  # reported below, as one in the header line is
                except ValueError as exc:
                    raise TraceFormatError(f"bad sample value: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not ASCII: {exc}") from exc
    if table.shape[1] != 1:
        raise TraceFormatError(f"expected one value per line, found {table.shape[1]}")
    samples = table.reshape(-1)
    _refuse_non_finite(samples, 0)
    return CurrentTrace(float(rate), samples)


def _write_binary_chunk(fh, samples: np.ndarray, start: int) -> None:
    with np.errstate(over="ignore"):  # a sample past float32 range is refused
        stored = samples.astype("<f4")
    _refuse_non_finite(stored, start)
    fh.write(stored)


def write_trace_binary(trace, path: str) -> None:
    header = _HEADER.pack(MAGIC, VERSION, float(trace.sample_rate_hz), len(trace))
    _write_chunks(path, header, trace, _write_binary_chunk)


def read_trace_binary(path: str) -> CurrentTrace:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError("truncated header")
        magic, version, rate, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
        if version != VERSION:
            raise TraceFormatError(f"unsupported version {version}")
        if rate <= 0:
            raise TraceFormatError("sample rate must be positive")
        held = (os.fstat(fh.fileno()).st_size - _HEADER.size) // 4
        if count > held:
            raise TraceFormatError(
                f"truncated samples: header promises {count}, file holds {held}"
            )
        samples = np.empty(count, dtype=np.float64)
        buffer = np.empty(min(count, _READ_CHUNK), dtype="<f4")
        for start in range(0, count, _READ_CHUNK):
            part = buffer[: min(_READ_CHUNK, count - start)]
            if fh.readinto(part) != part.nbytes:
                raise TraceFormatError(f"truncated samples at index {start}")
            _refuse_non_finite(part, start)
            samples[start : start + part.size] = part
    return CurrentTrace(rate, samples)


def write_trace(trace, path: str, fmt: str) -> None:
    if fmt == "text":
        write_trace_text(trace, path)
    elif fmt == "binary":
        write_trace_binary(trace, path)
    else:
        raise TraceFormatError(f"unknown trace format {fmt!r}")


def read_trace(path: str, fmt: str | None = None) -> CurrentTrace:
    """Read a trace file; sniffs the format from the magic when not given."""
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == MAGIC else "text"
    if fmt == "binary":
        return read_trace_binary(path)
    if fmt == "text":
        return read_trace_text(path)
    raise TraceFormatError(f"unknown trace format {fmt!r}")
