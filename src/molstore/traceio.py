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
binary trace cut short, or a text trace emptied (so without its header
line), after it was opened is refused by the next pass.  A pass holds one
chunk, not the trace; ``len()`` of a text trace, and so its
``duration_s`` and ``samples``, takes a pass: its header holds no count.

Text format: ASCII.  A header line ``sample_rate_hz=<integer>``, then one
decimal pA value per line, written as ``"%.6f"`` formats it (the exact
binary value rounded to 6 places, ties to even, ``-`` on every negative
value, so ``-0.0`` prints ``-0.000000``).  Lines end in LF, CR LF or
CR.  The reader skips blank and whitespace-only lines; any other
line, stripped of whitespace, must be one finite number as ``_SAMPLE``
spells it, else the error names its line number (the header is line 1).
A line of more than ``_MAX_LINE`` bytes (256 KiB) before its line break,
header included, is refused the same way, without holding it.

The text writer stores each line as little-endian 8-byte words, the
mirror of the reader's: ``lo`` is ``.dddddd`` and the newline, ``hi``
the last 8 integer digits, zero-padded, and ``top`` the digits before
them when a chunk has more, all looked up in ``_GROUPS``, the 10,000
four-digit ASCII groups.  A chunk of one line width and no sign is
stored through strided views.  Otherwise each word is scattered at the
line ends, in the order top, hi, lo, so each store repairs the bytes an
earlier one spilled into the line before; the ``-`` bytes go last.  A
chunk the integer arithmetic cannot format exactly (see
``_format_exact``) goes to Python's ``%`` instead.

The text reader parses the body in blocks of ``_BLOCK`` bytes, each cut
after its last newline, into one reused float64 buffer, and yields about
``poresim._CHUNK`` samples at a time from it; a chunk ends where the next
block's lines would not fit, counted exactly, blank lines too.  Each line
the writer makes for |x| < 1e8 is read from two 8-byte words with integer
SWAR arithmetic: its digits, read without the '.', are the integer
``q = |x| * 10**6``, below ``10**15 < 2**53`` and so exact in float64, and
``q / 1e6`` is one correctly rounded division, the float64 nearest the
decimal: the same bits ``float()`` and C ``strtod`` give.

A block is read in two ways (``_segment``).  A run of at least
``_MIN_RUN`` lines of one width, 9 to 16 bytes, each digits, '.', 6
digits and a newline, is read through two strided word views at the
width's stride (``_run``): no newline search, no gather, no per-line
length or sign; the newline and '.' slots, the digits and bit 7 (no byte
>= 0x80) are checked in the words.  The run ends at the first line that
breaks it.  The other lines are taken in windows of ``_WINDOW`` bytes or
more: ``_line_ends`` refuses a byte >= 0x80 and finds the newlines, and
``_parse_block`` gathers each line's words (a '-' negates it); the lines
it cannot read so (more digits, exponents, a short decimal such as
``1.5``, surrounding whitespace) are matched against ``_SAMPLE`` and
converted by ``float``.  Only those two refuse a line, and a block's
windows are all searched before any is parsed, so the error and its line
number are those of reading the whole block as one window: a byte >= 0x80
anywhere in a block is reported before a bad line in it.

Binary format: magic ``MTRC``, little-endian u32 version (1), f64 sample
rate, u64 sample count, then float32 samples; the reader refuses a count
the file is too short to hold.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import poresim
from .calibration import MAX_SAMPLE_RATE_HZ
from .poresim import ChunkedTrace

MAGIC = b"MTRC"
VERSION = 1
_HEADER = struct.Struct("<4sIdQ")


class TraceFormatError(ValueError):
    """Malformed trace file."""

    category = "format"


# Samples formatted per numpy pass; bounds the writer's working memory.
_TEXT_CHUNK = 1 << 14
# Chunks with |x * 1e6| at or past this go to Python's formatter: from 2**50
# on, the float64 spacing is 0.25 or more, and the near-tie gate of
# ``_format_exact`` refuses every such chunk.
_EXACT_LIMIT = 2.0**50


# The ASCII of ``"%04d" % i`` for each i < 10_000, as a little-endian int64.
_GROUPS = sum((np.arange(10_000) // 10**k % 10 + 48) << 8 * (3 - k) for k in range(4))
# The '.' and the newline of a line's last word, bytes 0 and 7.
_LO_ENDS = 0x0A00_0000_0000_002E


def _eight_digits(value: np.ndarray) -> np.ndarray:
    """``"%08d" % v`` for each ``0 <= v < 10**8`` of ``value``, as a
    little-endian int64."""
    high = value // 10_000
    return _GROUPS[high] | _GROUPS[value - high * 10_000] << 32


def _format_exact(x: np.ndarray) -> memoryview | None:
    """The ``"%.6f"`` lines of a non-empty float64 chunk, stored as words
    (see the module docstring); ``None`` when the chunk needs Python's
    formatter.

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
    q = q.astype(np.int64)
    whole = q // 1_000_000
    q -= whole * 1_000_000  # the 6 fractional digits
    n_int = len(str(int(whole.max())))
    # Each word with its start back from its line's end, in store order.
    low8, stores = whole, []
    if n_int > 8:
        top = whole // 100_000_000
        low8, stores = whole - top * 100_000_000, [(_eight_digits(top), 24)]
    stores += [(_eight_digits(low8), 16), (_eight_digits(q) >> 16 << 8 | _LO_ENDS, 8)]
    n, sign = x.size, np.signbit(x)
    # 16 bytes before the first line take the spill of its leading words.
    if len(str(int(whole.min()))) == n_int and not sign.any():
        width = n_int + 8
        out = np.empty(16 + n * width, np.uint8)
        for word, back in stores:
            np.ndarray((n,), "<i8", out, 16 + width - back, (width,))[...] = word
    else:
        widths = sign + 9
        for k in range(1, n_int):
            widths += whole >= 10**k
        ends = np.cumsum(widths) + 16
        out = np.empty(ends[-1], np.uint8)
        slots = np.ndarray((out.size - 7,), "<i8", out, 0, (1,))
        for word, back in stores:
            slots[ends - back] = word
        out[(ends - widths)[sign]] = ord("-")
    return out[16:].data


def _refuse_non_finite(values: np.ndarray, start: int) -> None:
    """Raise unless every value is finite; ``start`` is the index of the first."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise TraceFormatError(f"non-finite sample {values[bad]} at index {start + bad}")


def _write_chunks(path: str, header: bytes, trace, write_chunk) -> None:
    """Write ``header``, then ``write_chunk(fh, chunk, start)`` for each chunk
    of ``trace``; if the write stops on any error (a chunk refused or not
    made, a failed noise draw, a full disk), the file is removed if regular."""
    with open(path, "wb") as fh:
        try:
            fh.write(header)
            start = 0
            for chunk in trace.chunks():
                write_chunk(fh, chunk, start)
                start += chunk.size
        except BaseException:
            fh.close()
            if os.path.isfile(path) and not os.path.islink(path):
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
# The longest text line read, in bytes before its line break; the writer's
# longest is 317.  Not below ``_BLOCK``, which a test may patch down.
_MAX_LINE = 1 << 18
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
# The same for a run's lo word, the line's last 8 bytes: the '.' in byte 0
# and the newline in byte 7 both become 0.
_RUN_LO_XOR, _RUN_LO_CHECK = 0x0A3030303030302E, 0x7F7676767676767F
# The fewest lines read as a run through strided views (see ``_run``): a
# run costs about 30 numpy calls, which take as long as the gathered parse
# of some 1,000 lines.
_MIN_RUN = 1 << 10
_NEWLINES = b"\n" * _MIN_RUN
# Bytes of the first window of lines ``_line_ends`` and ``_parse_block``
# take where no run starts (see ``_segment``).
_WINDOW = 1 << 12
# A sample line stripped of whitespace, as C string-to-double conversion
# takes it: a decimal with an optional exponent, or inf or nan (which are
# then refused).
_SAMPLE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


def _text_blocks(fh, line: Callable[[], int]) -> Iterator[np.ndarray]:
    """The rest of ``fh`` as uint8 arrays: ``_PAD`` filler bytes, then whole
    lines, each ending in a newline (a last line without one gets one).

    Line breaks are those of Python's text mode: CR LF and a lone CR become
    LF.  Blocks share one buffer, so each is valid only until the next is
    read.  A line of more than ``_MAX_LINE`` bytes is refused, not held, as
    line ``line()``: the caller's count of the lines yielded, plus one.
    """
    raw = bytearray(b"0" * _PAD + bytes(_MAX_LINE + _BLOCK + 2))
    held = _PAD  # raw[_PAD:held] is a partial line carried over
    while True:
        if held - _PAD > _MAX_LINE + 1:  # too long even if it ends in half a CR LF
            raise TraceFormatError(f"line {line()} is longer than {_MAX_LINE} bytes")
        with memoryview(raw) as view:
            got = fh.readinto(view[held : held + _BLOCK])
        end = held + got
        if not got:
            if end == _PAD:
                return
            raw[end] = ord("\n")
            end += 1
        cut = raw.rfind(b"\n", held, end) + 1
        crs = raw.find(b"\r", _PAD, end) >= 0
        if crs:  # a lone CR ends a line too; the last byte may be half a CR LF
            cut = max(cut, raw.rfind(b"\r", _PAD, end - 1) + 1)
        if not cut:
            held = end
            continue
        block = raw
        if crs:
            lines = bytes(raw[_PAD:cut]).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            block = raw[:_PAD] + lines
        # Only the line carried over can be longer than a read.
        if block.find(b"\n", _PAD) - _PAD > _MAX_LINE:
            raise TraceFormatError(f"line {line()} is longer than {_MAX_LINE} bytes")
        yield np.frombuffer(block, np.uint8, cut if block is raw else -1)
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


def _line_ends(buf: np.ndarray, begin: int, line: int) -> np.ndarray:
    """The index of each newline in ``buf[begin:]``, whose first line is
    file line ``line``; refuses a byte >= 0x80."""
    body = buf[begin:]
    if body.max(initial=0) >= 0x80:
        bad = begin + int(np.argmax(body >= 0x80))
        number = line + int(np.count_nonzero(buf[begin:bad] == ord("\n")))
        raise TraceFormatError(f"trace is not ASCII: byte {buf[bad]:#x} on line {number}")
    ends = np.flatnonzero(body == ord("\n"))
    ends += begin
    return ends


def _word_faults(hi: np.ndarray, lo: np.ndarray, lo_check: int) -> np.ndarray:
    """Words with bit 7 of a byte set where the line's words ``hi`` and
    ``lo``, XORed to digit values and with the bytes before the line
    cleared from hi, hold a value above 9, or above 0 where ``lo_check``
    (like ``_LO_CHECK``) has 0x7F; every byte is below 0x80."""
    return (hi + _HI_CHECK) | (lo + lo_check)


def _word_values(
    words: np.ndarray, hi: np.ndarray, lo: np.ndarray, out: np.ndarray, scale: float
) -> None:
    """Write into ``out`` ``(hi * 10**7 + lo) / scale`` for each line's
    words ``hi`` and ``lo``, digit values that passed ``_word_faults``, each
    read as an 8-digit integer by SWAR multiplies on ``words``, which holds
    them both and is spent.  The integer is below 2**53, so one division
    gives the correctly rounded value."""
    halves = words.view(np.uint32)  # the first two steps stay within 4 bytes
    halves *= 2561
    halves >>= 8
    halves &= 0x00FF00FF
    halves *= 6553601
    halves >>= 16
    words *= 42949672960001
    words >>= 32
    hi *= 10_000_000
    hi += lo
    np.divide(hi.view(np.int64), scale, out=out[: hi.size])


def _parse_block(buf: np.ndarray, begin: int, ends: np.ndarray, out: np.ndarray, line: int) -> int:
    """Parse the lines ``buf[begin:]`` that end at the newlines ``ends``
    (and ``begin >= _PAD``) into the front of ``out``, which has room for
    one sample per line; ``line`` is the file line number of the first.
    Returns the samples written (blank lines are skipped).

    A line of 8 to 16 bytes with '.' 7 bytes before its newline is read
    from two little-endian words gathered at its end: lo, its last 8 bytes
    with the units digit moved into the '.' slot, and hi, the 8 bytes
    before them with any bytes before the line (and a leading '-')
    cleared.  They are checked by ``_word_faults`` and read by
    ``_word_values``, and a '-' negates the value.  Every other line goes
    to ``_sample_value``.
    """
    n = ends.size
    lengths = np.diff(ends, prepend=begin - 1) - 1
    words = np.ndarray((buf.size - 15,), "V16", buf, 0, (1,))[ends - 16]
    words = words.view("<u8").reshape(-1, 2)
    hi, lo = words[:, 0], words[:, 1]
    hi ^= _HI_XOR
    lo ^= _LO_XOR
    # Bits of hi below the line's first byte: a shift by 64 or more (lines
    # under 9 bytes) gives 0, and a line over 16 bytes is refused below.
    below = (128 - 8 * lengths).view(np.uint64)
    negative = (hi >> below) & 0xFF == ord("-") ^ ord("0")
    np.add(below, 8, out=below, where=negative)
    hi &= _ONES << below
    ok = (_word_faults(hi, lo, _LO_CHECK) & 0x8080808080808080 == 0) & (lengths <= 16)
    lo += (lo & 0xFF) * 0xFF  # units digit from byte 0 into byte 1, the '.' slot
    held = out[:n]
    _word_values(words, hi, lo, held, 1e6)
    np.negative(held, out=held, where=negative)
    blank = lengths == 0
    for i in np.flatnonzero(~(ok | blank)).tolist():
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


def _run(buf: np.ndarray, p: int, rows: np.ndarray) -> tuple[int, int]:
    """(width, lines) of the run of lines at ``buf[p:]`` that share the
    first one's width, 9 to 16 bytes, and are written as the writer writes
    a line with no sign; the checked words of line i are left in
    ``rows[:, i]``, for ``_word_values`` with a scale of 1e7.

    The words are read through two strided views at the width's stride:
    lo, the line's last 8 bytes ('.', 6 digits, newline), and hi, the 8
    before them with the bytes before the line cleared.  So lo reads
    ``10 * frac`` and hi the integer part.  A run shorter than ``_MIN_RUN``
    is not read: the first ``_MIN_RUN`` newline slots are compared as bytes
    first, and the words are read in a piece of ``_MIN_RUN`` lines, then
    one of the rest of the block.
    """
    width = buf[p : p + 16].tobytes().find(b"\n") + 1
    if width < 9 or buf[p + width - 1 : p + _MIN_RUN * width : width].tobytes() != _NEWLINES:
        return width, 0
    count = (buf.size - p) // width
    done, step = 0, _MIN_RUN
    while done < count:
        end = p + (done + 1) * width  # just past the piece's first newline
        m = min(step, count - done)
        hi, lo = rows[:, done : done + m]
        np.bitwise_xor(np.ndarray((m,), "<u8", buf, end - 16, (width,)), _HI_XOR, out=hi)
        np.bitwise_xor(np.ndarray((m,), "<u8", buf, end - 8, (width,)), _RUN_LO_XOR, out=lo)
        if width < 16:
            hi &= _ONES << np.uint64(8 * (16 - width))
        faults = _word_faults(hi, lo, _RUN_LO_CHECK)
        faults |= hi  # a byte >= 0x80, whose add may carry, fails by its own bit 7
        faults |= lo
        good = m
        if np.bitwise_or.reduce(faults) & 0x8080808080808080:
            faults &= 0x8080808080808080
            good = int(np.argmax(faults != 0))
        done += good
        if good < step:
            break
        step *= 32
    return width, done


def _segment(
    buf: np.ndarray, begin: int, line: int, window: int, rows: np.ndarray
) -> tuple[list, int, int]:
    """Split the lines ``buf[begin:]`` (file line ``line`` on) into runs
    that ``_run`` checks, of at least ``_MIN_RUN`` lines, and the lines
    between them, whose newlines ``_line_ends`` finds, ``window`` bytes at a
    time, doubled for each window in a row.  Returns the pieces, each the
    checked words of a run, kept in ``rows`` (2 x ``buf.size // 9 + 1``
    uint64), or the (begin, ends) of a window, the number of lines and the
    window size to go on with."""
    pieces, lines, used, p = [], 0, 0, begin
    while p < buf.size:
        width, k = _run(buf, p, rows[:, used:])
        if k >= _MIN_RUN:
            pieces.append(rows[:, used : used + k])
            used += k
            p += k * width
            window = _WINDOW
        else:
            ends = _line_ends(buf[: p + window], p, line + lines)
            if not ends.size:  # the line at p is longer than the window
                ends = _line_ends(buf, p, line + lines)
            pieces.append((p, ends))
            k = ends.size
            p = int(ends[-1]) + 1
            window = min(2 * window, _MAX_LINE + _BLOCK)
        lines += k
    return pieces, lines, window


def _parse_pieces(buf: np.ndarray, pieces: list, out: np.ndarray, line: int) -> int:
    """Parse the pieces ``_segment`` made of ``buf`` into the front of
    ``out``, whose first line is file line ``line``; returns the samples
    written."""
    n = 0
    for piece in pieces:
        if isinstance(piece, tuple):
            begin, ends = piece
            n += _parse_block(buf, begin, ends, out[n:], line)
            line += ends.size
        else:
            _word_values(piece, *piece, out[n:], 1e7)
            line += piece.shape[1]
            n += piece.shape[1]
    return n


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
        read; raises ``TraceFormatError`` at the first malformed line, or at
        once if the file has been emptied since it was opened.
        The words of a block's runs go to one reused buffer too: a fresh one
        per block more than doubled the page faults of reading a 10 s trace
        at 1 MHz."""
        out = np.empty(0)
        rows = np.empty((2, 0), np.uint64)
        n = begin = 0  # begin: where the block's lines start; 0 before the header
        window = _WINDOW
        line = 1  # the file line number of the next line to parse
        with open(self.path, "rb") as fh:
            for buf in _text_blocks(fh, lambda: line):
                if not begin:  # the first block: the header line comes first
                    line, begin = 2, _header_end(buf) + 1
                if rows.shape[1] <= buf.size // 9:
                    rows = np.empty((2, buf.size // 9 + 1), np.uint64)
                pieces, lines, window = _segment(buf, begin, line, window, rows)
                if n + lines > out.size:
                    if n:
                        yield out[:n]
                        n = 0
                    if lines > out.size:
                        out = np.empty(max(poresim._CHUNK, lines))
                n += _parse_pieces(buf, pieces, out[n:], line)
                line += lines
                begin = _PAD
        if not begin:  # no block: the file has been emptied since it was opened
            raise TraceFormatError("missing sample_rate_hz header line")
        if n:
            yield out[:n]


def read_trace_text(path: str) -> TextTrace:
    """Open a text trace: check its header line, and leave the body to be
    parsed on each ``chunks()`` pass."""
    with open(path, "rb") as fh:
        buf = next(_text_blocks(fh, lambda: 1), np.frombuffer(b"0" * _PAD + b"\n", np.uint8))
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
