"""Current-trace file formats.

Both formats hold finite samples only: the writers refuse a non-finite
sample (in the binary format, one whose float32 value is not finite) and
the readers refuse a file holding one, as ``TraceFormatError``; a writer
that refuses a sample or cannot get a chunk removes the file it was
writing.  Writers take any trace with ``sample_rate_hz``, ``len()`` and
``chunks()`` (float64 sample chunks), so a simulated trace is written as
it is made.

Readers return a lazy ``poresim.ChunkedTrace``, as ``simulate`` does.
Both check the header when the file is opened and read the samples on
each ``chunks()`` pass, so an error in the body (a malformed line, a
non-finite sample) is reported by the first pass that reaches it.  A
pass holds one chunk, not the trace; ``len()`` of a text trace, and so
its ``duration_s`` and ``samples``, takes a pass of its own, as its
header holds no count.

Text format: ASCII.  A header line ``sample_rate_hz=<integer>``, then one
decimal pA value per line, written as ``"%.6f"`` formats it (the exact
binary value rounded to 6 places, ties to even, ``-`` on every negative
value, so ``-0.0`` prints ``-0.000000``).  Lines end in LF, CR LF or
CR.  The reader skips blank and whitespace-only lines; any other
line, stripped of whitespace, must be one finite number as ``_SAMPLE``
spells it, else the error names its line number (the header is line 1).

The text reader parses the body in blocks of ``_BLOCK`` bytes, each cut
after its last newline, into one reused float64 buffer, and yields about
``poresim._CHUNK`` samples at a time from it.  Per block
it refuses a byte >= 0x80, finds the newlines, and reads each line the
writer makes for |x| < 1e8 from two 8-byte words with integer SWAR
arithmetic: its digits, read without the '.', are the integer
``q = |x| * 10**6``, below ``10**15 < 2**53`` and so exact in float64, and
``q / 1e6`` is one correctly rounded division, the float64 nearest the
decimal: the same bits ``float()`` and C ``strtod`` give.
The other lines (more digits, exponents, a short decimal such as
``1.5``, surrounding whitespace) are matched against ``_SAMPLE`` and
converted by ``float``.

Binary format: magic ``MTRC``, little-endian u32 version (1), f64 sample
rate, u64 sample count, then float32 samples; the reader refuses a count
the file is too short to hold.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import poresim
from .calibration import MAX_SAMPLE_RATE_HZ
from .poresim import ChunkedTrace, _Work

MAGIC = b"MTRC"
VERSION = 1
_HEADER = struct.Struct("<4sIdQ")


class TraceFormatError(ValueError):
    """Malformed trace file."""


# Samples formatted per numpy pass; bounds the writer's working memory.
_TEXT_CHUNK = 1 << 14
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
    of ``trace``; if the write stops on any error (a chunk refused or not
    made, a failed noise draw, a full disk), the file is removed."""
    with open(path, "wb") as fh:
        try:
            fh.write(header)
            start = 0
            for chunk in trace.chunks():
                write_chunk(fh, chunk, start)
                start += chunk.size
        except BaseException:
            fh.close()
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


# Bytes read per block of the text parse.
_BLOCK = 1 << 18
# Filler before a block's first line: a line's two words start 16 bytes
# before its newline.
_PAD = 16
_ONES = np.uint64(2**64 - 1)
# XOR turning the ASCII digits of a line's words into digit values, and
# the '.' 7 bytes before its newline (byte 1 of lo) into 0.
_HI_XOR, _LO_XOR = 0x3030303030303030, 0x3030303030302E30
# Added to those values, sets bit 7 of each byte above 9 (above 0 in the
# '.' slot); no carry crosses a byte, as every byte is below 0x80.
_HI_CHECK, _LO_CHECK = 0x7676767676767676, 0x7676767676767F76
# A sample line stripped of whitespace, as C string-to-double conversion
# takes it: a decimal with an optional exponent, or inf or nan (which are
# then refused).
_SAMPLE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


def _text_blocks(fh) -> Iterator[np.ndarray]:
    """The rest of ``fh`` as uint8 arrays: ``_PAD`` filler bytes, then whole
    lines, each ending in a newline (a last line without one gets one).

    Line breaks are those of Python's text mode: CR LF and a lone CR become
    LF.  Blocks share one buffer, so each is valid only until the next is
    read.
    """
    raw = bytearray(b"0" * _PAD + bytes(2 * _BLOCK))
    held = _PAD  # raw[_PAD:held] is a partial line carried over
    while True:
        if len(raw) - held <= _BLOCK:  # a line longer than the buffer
            raw = raw[:held] + bytes(len(raw))
        with memoryview(raw) as view:
            got = fh.readinto(view[held : held + _BLOCK])
        end = held + got
        if not got:
            if end == _PAD:
                return
            raw[end] = ord("\n")
            end += 1
        cut = raw.rfind(b"\n", held, end) + 1
        if not cut:
            held = end
            continue
        if raw.find(b"\r", _PAD, cut) < 0:
            yield np.frombuffer(raw, np.uint8, cut)
        else:
            lines = bytes(raw[_PAD:cut]).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            yield np.frombuffer(raw[:_PAD] + lines, np.uint8)
        if not got:
            return
        held = _PAD + end - cut
        raw[_PAD:held] = raw[cut:end]


def _sample_value(line: bytes, number: int) -> float | None:
    """The value of sample line ``number`` of the file, ``None`` if blank."""
    text = line.decode("ascii").strip()
    if not text:
        return None
    if not _SAMPLE.fullmatch(text):
        raise TraceFormatError(f"bad sample value on line {number}: {text[:40]!r}")
    value = float(text)
    if not math.isfinite(value):
        raise TraceFormatError(f"non-finite sample {text[:40]} on line {number}")
    return value


def _line_ends(buf: np.ndarray, begin: int, line: int, work: _Work) -> np.ndarray:
    """The index of each newline in ``buf[begin:]``, whose first line is
    file line ``line``; refuses a byte >= 0x80."""
    body = buf[begin:]
    if body.max(initial=0) >= 0x80:
        bad = begin + int(np.argmax(body >= 0x80))
        number = line + int(np.count_nonzero(buf[begin:bad] == ord("\n")))
        raise TraceFormatError(f"trace is not ASCII: byte {buf[bad]:#x} on line {number}")
    ends = np.flatnonzero(np.equal(body, ord("\n"), out=work("newline", body.size, bool)))
    ends += begin
    return ends


def _parse_block(
    buf: np.ndarray, begin: int, ends: np.ndarray, out: np.ndarray, line: int, work: _Work
) -> int:
    """Parse the lines ``buf[begin:]``, which end at the newlines ``ends``
    (and ``begin >= _PAD``), into the front of ``out``, which has room for
    one sample per line; ``line`` is the file line number of the first.
    Returns the samples written (blank lines are skipped).

    A line of 8 to 16 bytes with '.' 7 bytes before its newline is read
    from two little-endian words: lo, its last 8 bytes with the units digit
    moved into the '.' slot, and hi, the 8 bytes before them with any bytes
    before the line (and a leading '-') cleared.  Each word is checked to
    hold 8 digits and read as an integer by SWAR multiplies, and the value
    is ``(hi * 10**7 + lo) / 1e6`` (exact: see the module docstring).
    Every other line goes to ``_sample_value``.  Each step works in place
    or into the arrays of ``work``; only the gathered words are allocated
    per block.
    """
    n = ends.size
    if not n:
        return 0
    lengths = work("lengths", n, np.int64)
    lengths[0] = ends[0] - begin
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    ends -= 16
    words = np.ndarray((buf.size - 15,), "V16", buf, 0, (1,))[ends]
    ends += 16
    words = words.view("<u8").reshape(-1, 2)
    hi, lo = words[:, 0], words[:, 1]
    hi ^= _HI_XOR
    lo ^= _LO_XOR
    # Bits of hi below the line's first byte: a shift by 64 or more (lines
    # under 9 bytes) gives 0, and a line over 16 bytes is refused below.
    below = np.multiply(lengths, -8, out=work("below", n, np.int64))
    below += 128
    below = below.view(np.uint64)
    spare = np.right_shift(hi, below, out=work("spare", n, np.uint64))
    spare &= 0xFF
    negative = np.equal(spare, ord("-") ^ ord("0"), out=work("negative", n, bool))
    np.add(below, 8, out=below, where=negative)
    hi &= np.left_shift(_ONES, below, out=spare)
    check = np.add(hi, _HI_CHECK, out=below)
    check |= np.add(lo, _LO_CHECK, out=spare)
    check &= 0x8080808080808080
    ok = np.equal(check, 0, out=work("ok", n, bool))
    flag = work("flag", n, bool)
    ok &= np.less_equal(lengths, 16, out=flag)
    units = np.bitwise_and(lo, 0xFF, out=spare)
    units *= 0xFF
    lo += units  # units digit from byte 0 into byte 1, the '.' slot
    words *= 2561
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 6553601
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 42949672960001
    words >>= 32
    hi *= 10_000_000
    hi += lo
    held = out[:n]
    np.divide(hi.view(np.int64), 1e6, out=held)
    np.negative(held, out=held, where=negative)
    blank = np.equal(lengths, 0, out=work("blank", n, bool))
    ok |= blank
    for i in np.flatnonzero(np.logical_not(ok, out=flag)).tolist():
        end = int(ends[i])
        value = _sample_value(buf[end - lengths[i] : end].tobytes(), line + i)
        if value is None:
            blank[i] = True
        else:
            held[i] = value
    if not blank.any():
        return n
    kept = held[~blank]
    out[: kept.size] = kept
    return kept.size


def _header_end(buf: np.ndarray) -> int:
    """Index in the first block of ``_text_blocks`` of the newline that ends
    the header line."""
    return _PAD + int(np.argmax(buf[_PAD:] == ord("\n")))


@dataclass(frozen=True)
class TextTrace(ChunkedTrace):
    """A text trace file whose header has been checked; its body is parsed
    on each ``chunks()`` pass, so a malformed line is reported by the first
    pass that reaches it."""

    path: str
    sample_rate_hz: float

    def __len__(self) -> int:
        """The sample count, from one parse of the body."""
        return sum(chunk.size for chunk in self.chunks())

    def chunks(self) -> Iterator[np.ndarray]:
        """The samples as float64, parsed a block at a time into one reused
        buffer and yielded up to ``poresim._CHUNK`` at a time (a block of more
        lines is one chunk), so each chunk is valid only until the next is
        read; raises ``TraceFormatError`` at the first malformed line."""
        work = _Work()
        out = np.empty(0)
        n = 0
        with open(self.path, "rb") as fh:
            blocks = _text_blocks(fh)
            first = next(blocks, None)
            if first is None:
                return
            line, begin = 2, _header_end(first) + 1
            for buf in itertools.chain([first], blocks):
                ends = _line_ends(buf, begin, line, work)
                if n + ends.size > out.size:
                    if n:
                        yield out[:n]
                        n = 0
                    if ends.size > out.size:
                        out = np.empty(max(poresim._CHUNK, ends.size))
                n += _parse_block(buf, begin, ends, out[n:], line, work)
                line += ends.size
                begin = _PAD
        if n:
            yield out[:n]


def read_trace_text(path: str) -> TextTrace:
    """Open a text trace: check its header line, and leave the body to be
    parsed on each ``chunks()`` pass."""
    with open(path, "rb") as fh:
        buf = next(_text_blocks(fh), np.frombuffer(b"0" * _PAD + b"\n", np.uint8))
    try:
        header = buf[_PAD : _header_end(buf)].tobytes().decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not ASCII: {exc}") from exc
    if not header.startswith("sample_rate_hz="):
        raise TraceFormatError("missing sample_rate_hz header line")
    try:
        rate = int(header.split("=", 1)[1])
    except ValueError as exc:
        raise TraceFormatError(f"bad sample rate in header: {header!r}") from exc
    if not 1 <= rate <= MAX_SAMPLE_RATE_HZ:
        raise TraceFormatError(f"sample rate must be in [1, {MAX_SAMPLE_RATE_HZ:g}] Hz")
    return TextTrace(path, float(rate))


def _write_binary_chunk(fh, samples: np.ndarray, start: int) -> None:
    with np.errstate(over="ignore"):  # a sample past float32 range is refused
        stored = samples.astype("<f4")
    _refuse_non_finite(stored, start)
    fh.write(stored)


def write_trace_binary(trace, path: str) -> None:
    header = _HEADER.pack(MAGIC, VERSION, float(trace.sample_rate_hz), len(trace))
    _write_chunks(path, header, trace, _write_binary_chunk)


@dataclass(frozen=True)
class BinaryTrace(ChunkedTrace):
    """A binary trace file whose header has been checked; its samples are
    read on each ``chunks()`` pass."""

    path: str
    sample_rate_hz: float
    n_samples: int

    def __len__(self) -> int:
        return self.n_samples

    def chunks(self) -> Iterator[np.ndarray]:
        """The samples as float64, ``poresim._CHUNK`` at a time, read from
        the file through one reused float32 buffer; raises
        ``TraceFormatError`` on a non-finite sample."""
        step = poresim._CHUNK
        buffer = np.empty(min(self.n_samples, step), dtype="<f4")
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            for start in range(0, self.n_samples, step):
                part = buffer[: min(step, self.n_samples - start)]
                if fh.readinto(part) != part.nbytes:
                    raise TraceFormatError(f"truncated samples at index {start}")
                _refuse_non_finite(part, start)
                yield part.astype(np.float64)


def read_trace_binary(path: str) -> BinaryTrace:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError("truncated header")
        magic, version, rate, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
        if version != VERSION:
            raise TraceFormatError(f"unsupported version {version}")
        if not 1 <= rate <= MAX_SAMPLE_RATE_HZ:
            raise TraceFormatError(f"sample rate must be in [1, {MAX_SAMPLE_RATE_HZ:g}] Hz")
        held = (os.fstat(fh.fileno()).st_size - _HEADER.size) // 4
        if count > held:
            raise TraceFormatError(
                f"truncated samples: header promises {count}, file holds {held}"
            )
    return BinaryTrace(path, rate, count)


def write_trace(trace, path: str, fmt: str) -> None:
    if fmt == "text":
        write_trace_text(trace, path)
    elif fmt == "binary":
        write_trace_binary(trace, path)
    else:
        raise TraceFormatError(f"unknown trace format {fmt!r}")


def read_trace(path: str) -> TextTrace | BinaryTrace:
    """Read a trace file, sniffing its format from the magic."""
    with open(path, "rb") as fh:
        binary = fh.read(4) == MAGIC
    return read_trace_binary(path) if binary else read_trace_text(path)
