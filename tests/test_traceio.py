import gc
import itertools
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from molstore import poresim, traceio
from molstore.calibration import CalibrationTable, ChannelConfig
from molstore.poresim import CurrentTrace, MoleculeSpec, simulate
from molstore.traceio import (
    _TEXT_CHUNK,
    MAGIC,
    TraceFormatError,
    _format_exact,
    read_trace,
    read_trace_binary,
    read_trace_text,
    write_trace,
    write_trace_binary,
    write_trace_text,
)


def _trace(n=100, rate=1_000_000.0, seed=0):
    rng = np.random.default_rng(seed)
    return CurrentTrace(rate, rng.normal(250.0, 5.0, n))


def test_text_round_trip(tmp_path):
    trace = _trace()
    path = str(tmp_path / "t.txt")
    write_trace_text(trace, path)
    back = read_trace_text(path)
    assert back.sample_rate_hz == trace.sample_rate_hz
    assert np.allclose(back.samples, trace.samples, atol=5e-7)


def test_text_header_format(tmp_path):
    path = str(tmp_path / "t.txt")
    write_trace_text(_trace(n=2), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sample_rate_hz=1000000"
    assert len(lines) == 3


def test_text_rejects_fractional_rate(tmp_path):
    with pytest.raises(TraceFormatError):
        write_trace_text(CurrentTrace(1000.5, np.zeros(3)), str(tmp_path / "t.txt"))


def test_text_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("rate=1000\n1.0\n")
    with pytest.raises(TraceFormatError):
        read_trace_text(str(path)).samples


def test_text_header_rate_not_an_integer(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sample_rate_hz=abc\n1.0\n")
    with pytest.raises(TraceFormatError, match="bad sample rate in header: 'sample_rate_hz=abc'"):
        read_trace_text(str(path))


def test_text_bad_sample(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sample_rate_hz=1000\nnot-a-number\n")
    with pytest.raises(TraceFormatError):
        read_trace_text(str(path)).samples


def test_text_empty_trace(tmp_path):
    path = str(tmp_path / "empty.txt")
    write_trace_text(CurrentTrace(1000.0, np.empty(0)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_trace_text(path)
    assert len(back) == 0


@pytest.mark.parametrize(
    "body",
    [
        b"1.0\nnan\n",
        b"1.0\ninf\n",
        b"-inf\n2.0\n",
        b"1.0 2.0\n",
        b"1.0\n2.0\t3.0\n4.0\n",
        b"1.0 2.0\n3.0 4.0\n",
        b"# comment\n1.0\n",
    ],
    ids=["nan", "inf", "-inf", "two-values", "two-values-mid", "two-columns", "comment"],
)
def test_text_rejects_malformed_body(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"sample_rate_hz=1000\n" + body)
    with pytest.raises(TraceFormatError):
        read_trace_text(str(path)).samples


@pytest.mark.parametrize(
    "content",
    [
        b"sample_rate_hz=1000\xe9\n1.0\n",
        b"sample_rate_hz=1000\n1.0\n2\xe9\n",
        b"sample_rate_hz=1000\n" + b"1.000000\n" * 5000 + b"2\xe9\n",
    ],
    ids=["header", "body", "past-first-read"],
)
def test_text_rejects_non_ascii(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(TraceFormatError, match="not ASCII"):
        read_trace_text(str(path)).samples


def test_text_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("sample_rate_hz=1000\n\n1.5\n \t\n-2.25\n\n")
    assert read_trace_text(str(path)).samples.tolist() == [1.5, -2.25]


def _reference_body(x):
    """Python's per-value formatting, which the writer must match byte for byte."""
    return "".join(f"{v:.6f}\n" for v in x).encode("ascii")


@pytest.mark.parametrize(
    "x",
    [
        np.random.default_rng(1).normal(250.0, 5.0, 1000),
        np.array([249.5, 251.25, 250.0, 999.999999]),
        np.array([250.1, -3.5, 25.0, 0.0, -0.0, -1e-9, 4e-7, 1234567.0625]),
        np.array([-0.0]),
        np.array([98765432.125, -7.0]),
        # One width (3 integer digits) and no sign: the strided stores.
        np.random.default_rng(7).uniform(100.0, 999.0, _TEXT_CHUNK),
        np.random.default_rng(8).uniform(0.0, 2000.0, _TEXT_CHUNK),
        -np.random.default_rng(9).uniform(100.0, 999.0, 1000),
        np.concatenate([np.full(500, 250.5), [-0.0], np.full(500, 251.25)]),
        np.array([12345678.5, 99999999.999999, 10000000.0, 1.0, -7.25]),
        np.array([123456789.25, 100000000.0, -999999999.5, 2.0, 3.0, 4.0]),
        # Up to just below 2**50 / 1e6 (traceio._EXACT_LIMIT): a chunk
        # holding a larger value is refused, as its spacing reaches 0.25.
        np.array([1.0, -2.0, 3.0, 1000000000.5, 1125899906.5, -1099511627.75, 0.0]),
        np.array([250.0, 1125899906.842622, -1125899906.842622, 1.0]),
        np.array([250.123456]),
    ],
    ids=["trace", "same-width", "mixed", "negative-zero", "large", "uniform",
         "mixed-widths", "all-negative", "lone-negative-zero", "8-digits", "9-digits",
         "10-digits", "below-limit", "single"],
)
def test_format_exact_matches_reference(x):
    assert _format_exact(x) == _reference_body(x)


@pytest.mark.parametrize(
    "value",
    [np.nan, np.inf, -np.inf, traceio._EXACT_LIMIT / 1e6, 1125899906.8426242,
     -1125899906.8426242, 2.0**52 / 1e6, -1e300, 0.0078125, (250123 + 0.5) / 1e6],
    ids=["nan", "inf", "-inf", "limit", "past-limit", "-past-limit", "2**52", "huge",
         "exact-tie", "near-tie"],
)
def test_format_exact_declines(value):
    """Chunks that integer arithmetic cannot format exactly go to the
    reference formatter."""
    x = np.array([250.0, value, 1.0])
    assert _format_exact(x) is None



def test_digit_groups_are_the_four_digit_ascii_groups():
    assert traceio._GROUPS.astype("<u4").tobytes() == b"".join(
        b"%04d" % i for i in range(10_000)
    )


# Trace-like values, which the integer path formats, including +-0 and
# tiny values of either sign.
_PLAIN = st.one_of(
    st.floats(-1000.0, 1000.0), st.floats(-1e-6, 1e-6), st.sampled_from([0.0, -0.0])
)
# Values it must decline: anything (+-inf, NaN, from 2**50 / 1e6 on),
# near-ties (k + 0.5) / 1e6 and exact dyadic ties (odd multiples of 2**-7
# scale to exact half-integers).
_AWKWARD = st.one_of(
    st.floats(width=64),
    st.integers(-(10**10), 10**10).map(lambda k: (k + 0.5) / 1e6),
    st.integers(-(2**20), 2**20).map(lambda n: (2 * n + 1) / 128),
)


def _value_lists(awkward):
    return st.one_of(
        st.lists(_PLAIN, min_size=1, max_size=40),
        st.lists(st.one_of(_PLAIN, awkward), min_size=1, max_size=40),
    )


_LENGTHS = st.one_of(
    st.sampled_from([0, 1, _TEXT_CHUNK - 1, _TEXT_CHUNK, _TEXT_CHUNK + 1]),
    st.integers(2, 64),
)


def _samples(values, length):
    return np.resize(np.array(values, dtype=np.float64), length)


_FIXTURE_OK = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FIXTURE_OK
@example(values=[1125899906.842622, -1125899906.8426242], length=3)
@given(values=_value_lists(_AWKWARD), length=_LENGTHS)
def test_text_writer_matches_reference(tmp_path, values, length):
    x = _samples(values, length)
    path = tmp_path / "t.txt"
    if not np.isfinite(x).all():
        with pytest.raises(TraceFormatError, match="non-finite sample"):
            write_trace_text(CurrentTrace(1000.0, x), str(path))
        assert not path.exists()
        return
    write_trace_text(CurrentTrace(1000.0, x), str(path))
    header, _, body = path.read_bytes().partition(b"\n")
    assert header == b"sample_rate_hz=1000"
    assert body == _reference_body(x)


@_FIXTURE_OK
@given(values=_value_lists(_AWKWARD.filter(math.isfinite)), length=_LENGTHS)
def test_text_round_trip_is_exact(tmp_path, values, length):
    x = _samples(values, length)
    path = str(tmp_path / "t.txt")
    write_trace_text(CurrentTrace(1000.0, x), path)
    assert read_trace_text(path).samples.tolist() == [float(f"{v:.6f}") for v in x]


def _loadtxt_reference(path):
    """The text reader before the block parse, kept as the oracle: the body
    through np.loadtxt in text mode (universal newlines)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            fh.readline()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:  # UnicodeDecodeError included
        return None
    if table.shape[1] != 1 or not np.isfinite(table).all():
        return None
    return table.reshape(-1)


_HAND_SHAPED = st.sampled_from(
    [
        "1.5", "+1", " 7 ", "\t-0.5", "1.", ".5", "1e3", "-.5e-2", "", " ", "\t \x0b\x0c",
        "123456789.5", "-123456789.123456", "1234567890.123456", "-0.000000",
        "9" * 300, "9" * 300 + ".5", "nan", "inf", "infinity", "-Infinity", "1e999",
        "1e-999", "1 2", "#x", "1_0", "0x10", "1e", ".", "-", "+-1", "1.0.0", "\x1c3.25",
        "1\x002", "-.123456", ".1234567", "0012.345678", "12345678.1234567",
    ]
)
_WRITTEN = _AWKWARD.map(lambda v: f"{v:.6f}")
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@_FIXTURE_OK
@example(
    lines=[
        (" ", "\n"), ("1.5", "\r\n"), ("\t \x0b\x0c", "\r"), ("-0.000000", "\n"),
        ("-.5e-2", "\n"),
    ],
    last_break=False, block=7, edge=0, read_chunk=2,
)
@given(
    lines=st.lists(st.tuples(st.one_of(_WRITTEN, _HAND_SHAPED), _BREAKS), max_size=12),
    last_break=st.booleans(),
    block=st.sampled_from([1, 7, 16, 64, None]),
    edge=st.integers(0, 40),
    read_chunk=st.sampled_from([1, 2, 5, None]),
)
def test_text_reader_accepts_what_loadtxt_accepts(
    tmp_path, monkeypatch, lines, last_break, block, edge, read_chunk
):
    """Bodies of written and hand-shaped lines parse exactly when
    np.loadtxt parses them, to the same float64 bits, with lines across
    block edges (a short block, or the real one ``edge`` bytes into the
    drawn lines) and a last line with or without a line break; the
    chunks of a pass (``read_chunk`` samples or the real size) join into
    those values."""
    header = "sample_rate_hz=1000\n"
    body = "".join(text + brk for text, brk in lines)
    if lines and not last_break:
        body = body[: -len(lines[-1][1])]
    if block is None:
        filler = traceio._BLOCK - len(header) - edge
        rows = filler // 11 - 2
        body = "250.000000\n" * rows + "0" * (filler - 11 * rows - 1) + "\n" + body
    else:
        monkeypatch.setattr(traceio, "_BLOCK", block)
    if read_chunk is not None:
        monkeypatch.setattr(poresim, "_CHUNK", read_chunk)
    path = tmp_path / "t.txt"
    path.write_bytes((header + body).encode("ascii"))
    expected = _loadtxt_reference(path)
    if expected is None:
        with pytest.raises(TraceFormatError):
            read_trace_text(str(path)).samples
        return
    trace = read_trace_text(str(path))
    chunks = [chunk.copy() for chunk in trace.chunks()]
    assert all(chunk.size for chunk in chunks)
    got = np.concatenate([np.empty(0), *chunks])
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert trace.samples.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_written_lines_take_the_word_parse(tmp_path, monkeypatch):
    """Every line the writer makes for |x| < 1e8 (and x < 1e9) is parsed
    from its two words, never by the per-line fallback."""
    x = np.array([
        0.0, -0.0, 1e-7, -4e-7, 7.5, -7.5, 250.123456, -12345678.5,
        99999999.999999, -99999999.999999, 123456789.25,
    ])
    path = str(tmp_path / "t.txt")
    write_trace_text(CurrentTrace(1000.0, x), path)

    def fallback(line, number):
        raise AssertionError(f"line {number} {line!r} left the word parse")

    monkeypatch.setattr(traceio, "_sample_value", fallback)
    got = read_trace_text(path).samples
    assert got.view(np.uint64).tolist() == np.array(
        [float(f"{v:.6f}") for v in x]
    ).view(np.uint64).tolist()


def _one_width_lines(rng, width, n):
    """``n`` lines of ``width`` bytes as the writer writes a non-negative
    value: ``width - 8`` integer digits, '.', 6 digits and a newline."""
    digits = width - 8
    whole = rng.integers(10 ** (digits - 1) if digits > 1 else 0, 10**digits, n)
    frac = rng.integers(0, 10**6, n)
    return [b"%d.%06d\n" % (w, f) for w, f in zip(whole.tolist(), frac.tolist())]


# One line that breaks a run of one width, and the error it makes (None
# when np.loadtxt reads it); the line is placed as line ``{line}``.
_ODD_LINES = [
    (b"-12.345678\n", None), (b"-1.234567\n", None), (b"7.5\n", None), (b"1.5\n", None),
    (b"123456789.123456\n", None), (b"\n", None), (b"  \t\n", None),
    (b"250.123456\r\n", None), (b"250.123456\r", None), (b"0250.123456\n", None),
    (b"25x.123456\n", "bad sample value on line {line}: '25x.123456'"),
    (b"250.1234 6\n", "bad sample value on line {line}: '250.1234 6'"),
    (b"250,123456\n", "bad sample value on line {line}: '250,123456'"),
    (b"250.123456 7.5\n", "bad sample value on line {line}: '250.123456 7.5'"),
    (b"250.12\xe93456\n", "trace is not ASCII: byte 0xe9 on line {line}"),
    (b"\x80\n", "trace is not ASCII: byte 0x80 on line {line}"),
]


@settings(_FIXTURE_OK, max_examples=200)
@example(width=11, before=2000, after=1500, odd=("byte", b"\x8a"), place=1, block=None, seed=0)
@example(width=11, before=2000, after=1500, odd=("byte", b"\x8a"), place=4, block=None, seed=0)
@given(
    width=st.integers(9, 16),
    before=st.integers(0, 3000),
    after=st.integers(0, 3000),
    odd=st.sampled_from(
        _ODD_LINES + [("join", b"\t"), ("join", b"\x0b"), ("byte", b"\xe9"), ("byte", b"\x8a")]
    ),
    place=st.integers(0, 14),
    block=st.sampled_from([17000, 33001, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_runs_of_one_width_read_as_loadtxt_reads_them(
    tmp_path, monkeypatch, width, before, after, odd, place, block, seed
):
    """A body of lines of one width, read as strided runs across patched
    block edges, with one line of another shape at any place: it parses
    to np.loadtxt's bits, or fails with the message and line number of the
    gathered parse, which is the only one that reads the odd line.  A
    "join" is two lines of the width joined by a whitespace byte in the
    first one's newline slot, and a "byte" one line of the width with a
    digit (the ``place``-th, cyclically) replaced by a byte >= 0x80."""
    if block is not None:
        monkeypatch.setattr(traceio, "_BLOCK", block)
    rng = np.random.default_rng(seed)
    line, error = odd
    if line == "join":
        first, second = _one_width_lines(rng, width, 2)
        line = first[:-1] + error + second
        error = f"bad sample value on line {{line}}: {line.decode().strip()!r}"
    elif line == "byte":
        (regular,) = _one_width_lines(rng, width, 1)
        digits = [i for i in range(width - 1) if regular[i : i + 1] != b"."]
        at = digits[place % len(digits)]
        line = regular[:at] + error + regular[at + 1 :]
        error = f"trace is not ASCII: byte {error[0]:#x} on line {{line}}"
    header = b"sample_rate_hz=1000\n"
    body = _one_width_lines(rng, width, before) + [line] + _one_width_lines(rng, width, after)
    path = tmp_path / "t.txt"
    path.write_bytes(header + b"".join(body))
    if error is not None:
        with pytest.raises(TraceFormatError) as raised:
            read_trace_text(str(path)).samples
        assert str(raised.value) == error.format(line=before + 2)
        return
    expected = _loadtxt_reference(path)
    assert expected is not None
    got = read_trace_text(str(path)).samples
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@pytest.mark.parametrize("width", range(9, 17))
def test_written_runs_take_the_strided_read(tmp_path, monkeypatch, width):
    """A written trace of one line width, over several blocks, is read as
    strided runs alone: no line goes through the newline search or the
    gathered parse, and the values are those of the written lines."""
    n = int(2.5 * traceio._BLOCK) // width
    x = np.array([float(v) for v in _one_width_lines(np.random.default_rng(width), width, n)])
    path = str(tmp_path / "t.txt")
    write_trace_text(CurrentTrace(1000.0, x), path)

    def gathered(*args):
        raise AssertionError("a line left the strided read")

    monkeypatch.setattr(traceio, "_line_ends", gathered)
    monkeypatch.setattr(traceio, "_parse_block", gathered)
    got = read_trace_text(path).samples
    assert got.view(np.uint64).tolist() == x.view(np.uint64).tolist()


def _block_counts(content: bytes, block: int) -> list[tuple[int, int]]:
    """(lines, samples) of each block of a text trace with LF line breaks:
    the body cut after the last newline of each ``block`` bytes read."""
    counts, start = [], 0
    for read in itertools.count(block, block):
        end = content.rfind(b"\n", 0, read) + 1 if read < len(content) else len(content)
        lines = content[start:end].split(b"\n")[:-1]
        if start == 0:
            lines = lines[1:]  # the header
        counts.append((len(lines), sum(1 for text in lines if text.strip())))
        start = end
        if end == len(content):
            return counts


def _chunk_sizes_by_rule(counts: list[tuple[int, int]], chunk: int) -> list[int]:
    """The reader's rule: a block of L lines (blank ones too) goes into the
    chunk when L more would fit in its room, else starts the next chunk,
    whose room is ``chunk`` or, if more, L."""
    sizes, n, room = [], 0, 0
    for lines, samples in counts:
        if n + lines > room:
            if n:
                sizes.append(n)
                n = 0
            room = max(room, chunk, lines)
        n += samples
    return sizes + [n] if n else sizes


def test_chunks_break_where_the_block_line_counts_say(tmp_path, monkeypatch):
    """A body of long one-width runs, mixed widths, signs and blank lines
    yields the chunk sizes of the reader's rule, which works on the exact
    line count of each block whichever way its lines are read: ``stats``
    of a text trace sums over slices of each chunk, so its bytes depend on
    where chunks break.  One chunk size is filled exactly by two blocks."""
    monkeypatch.setattr(traceio, "_BLOCK", 40_000)
    rng = np.random.default_rng(3)
    body = []
    for _ in range(60):
        width = int(rng.integers(9, 17))
        body += _one_width_lines(rng, width, int(rng.integers(1, 3000)))
        body += [b"-%d.5\n" % k for k in range(int(rng.integers(0, 5)))]
        body += [b"\n"] * int(rng.integers(0, 3))
    content = b"sample_rate_hz=1000\n" + b"".join(body)
    path = tmp_path / "t.txt"
    path.write_bytes(content)
    counts = _block_counts(content, 40_000)
    assert any(lines != samples for lines, samples in counts)
    fill = counts[0][1] + counts[1][0]  # the samples of one block and the lines of the next
    for chunk in (10_000, fill - 1, fill):
        monkeypatch.setattr(poresim, "_CHUNK", chunk)
        sizes = [part.size for part in read_trace_text(str(path)).chunks()]
        assert sizes == _chunk_sizes_by_rule(counts, chunk)
        assert len(set(sizes)) > 3


def test_short_lines_grow_the_sample_array(tmp_path):
    """Lines shorter than the writer's, more samples than a block of the
    writer's lines holds, parse over several blocks."""
    n = 3 * traceio._BLOCK // 2
    path = tmp_path / "t.txt"
    path.write_bytes(b"sample_rate_hz=1000\n" + b"7\n-1\n" * (n // 2))
    assert read_trace_text(str(path)).samples.tolist() == [7.0, -1.0] * (n // 2)


def test_bad_sample_error_names_its_line_in_the_third_block(tmp_path):
    n_good = 2 * traceio._BLOCK // 11 + 100
    header = b"sample_rate_hz=1000\n"
    assert 2 * traceio._BLOCK < len(header) + 11 * n_good < 3 * traceio._BLOCK
    path = tmp_path / "t.txt"
    path.write_bytes(header + b"250.000000\n" * n_good + b"1.0 2.0\n4.0\n")
    with pytest.raises(TraceFormatError, match=rf"^bad sample value on line {n_good + 2}: "):
        read_trace_text(str(path)).samples


@pytest.mark.parametrize(
    "content, number",
    [
        (b"sample_rate_hz=1000\n1.5\n" + b"1" * 10**7 + b"\n2.5\n", 3),
        (b"sample_rate_hz=" + b"1" * 10**7 + b"\n2.5\n", 1),
    ],
    ids=["body", "header"],
)
def test_text_line_longer_than_the_limit_is_refused_in_bounded_memory(
    tmp_path, content, number
):
    """A 10 MB line is refused by its number before it is held: the reader
    holds its sample chunk and a buffer of a block and the longest line it
    accepts, never the line."""
    path = tmp_path / "t.txt"
    path.write_bytes(content)
    message = rf"^line {number} is longer than {traceio._MAX_LINE} bytes$"
    tracemalloc.start()
    try:
        with pytest.raises(TraceFormatError, match=message):
            read_trace_text(str(path)).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * poresim._CHUNK + 2 * (traceio._MAX_LINE + traceio._BLOCK), peak


@pytest.mark.parametrize("brk", [b"\n", b"\r\n", b"\r"])
def test_text_line_at_the_limit_is_read(tmp_path, brk):
    """A line of ``_MAX_LINE`` bytes before its line break is read, one byte
    more is refused, whichever line break ends it."""
    longest = b" " * (traceio._MAX_LINE - 3) + b"2.5"
    path = tmp_path / "t.txt"
    path.write_bytes(brk.join([b"sample_rate_hz=1000", b"1.5", longest, b"3.5", b""]))
    assert read_trace_text(str(path)).samples.tolist() == [1.5, 2.5, 3.5]
    path.write_bytes(brk.join([b"sample_rate_hz=1000", b"1.5", b" " + longest, b""]))
    with pytest.raises(TraceFormatError, match="^line 3 is longer than"):
        read_trace_text(str(path)).samples


def test_text_lone_cr_lines_parse_over_many_blocks(tmp_path):
    """A file of CR line breaks alone, several blocks and longer than the
    line limit, parses line by line."""
    n = 3 * max(traceio._BLOCK, traceio._MAX_LINE) // 4
    path = tmp_path / "t.txt"
    path.write_bytes(b"sample_rate_hz=1000\r" + b"7\r-1\r" * (n // 2))
    assert read_trace_text(str(path)).samples.tolist() == [7.0, -1.0] * (n // 2)


def test_binary_round_trip(tmp_path):
    trace = _trace(n=1000)
    path = str(tmp_path / "t.mtrc")
    write_trace_binary(trace, path)
    back = read_trace_binary(path)
    assert back.sample_rate_hz == trace.sample_rate_hz
    # float32 storage
    assert np.allclose(back.samples, trace.samples, rtol=1e-6, atol=1e-3)


def test_binary_layout(tmp_path):
    path = str(tmp_path / "t.mtrc")
    write_trace_binary(CurrentTrace(250_000.0, np.array([1.5, -2.0])), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, rate, count = struct.unpack("<4sIdQ", raw[:24])
    assert magic == MAGIC == b"MTRC"
    assert version == 1
    assert rate == 250_000.0
    assert count == 2
    assert struct.unpack("<2f", raw[24:]) == (1.5, -2.0)


def _binary_file(path, values):
    path.write_bytes(
        struct.pack(f"<4sIdQ{len(values)}f", MAGIC, 1, 1000.0, len(values), *values)
    )


def test_binary_reads_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(poresim, "_CHUNK", 3)
    values = [float(v) for v in range(-5, 6)]
    path = tmp_path / "t.mtrc"
    _binary_file(path, values)
    back = read_trace_binary(str(path))
    assert back.samples.dtype == np.float64
    assert back.samples.tolist() == values


def test_binary_chunk_passes_close_their_files(tmp_path, monkeypatch):
    monkeypatch.setattr(poresim, "_CHUNK", 3)
    values = [float(v) for v in range(11)]
    path = tmp_path / "t.mtrc"
    _binary_file(path, values)
    trace = read_trace_binary(str(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            assert np.concatenate(list(trace.chunks())).tolist() == values
            for chunk in trace.chunks():
                assert chunk.tolist() == values[:3]
                break  # an abandoned pass
            partial = trace.chunks()
            next(partial)
            del partial
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 4, 10])
def test_binary_reader_refuses_non_finite(tmp_path, monkeypatch, bad, index):
    monkeypatch.setattr(poresim, "_CHUNK", 3)
    values = [250.0] * 11
    values[index] = bad
    path = tmp_path / "bad.mtrc"
    _binary_file(path, values)
    trace = read_trace_binary(str(path))
    with pytest.raises(TraceFormatError, match=f"non-finite sample .* at index {index}$"):
        list(trace.chunks())


@pytest.mark.parametrize("writer", [write_trace_text, write_trace_binary])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite(tmp_path, monkeypatch, writer, bad):
    monkeypatch.setattr(poresim, "_CHUNK", 4)
    x = np.full(10, 250.0)
    x[6] = bad
    path = tmp_path / "bad.trace"
    with pytest.raises(TraceFormatError, match="non-finite sample .* at index 6"):
        writer(CurrentTrace(1000.0, x), str(path))
    assert not path.exists()


def test_binary_writer_refuses_float32_overflow(tmp_path):
    path = tmp_path / "big.mtrc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match="non-finite sample inf at index 1"):
            write_trace_binary(CurrentTrace(1000.0, np.array([1.0, 1e300])), str(path))
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_streamed_trace_writes_held_trace_bytes(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(poresim, "_CHUNK", 1000)
    monkeypatch.setattr(poresim, "_NOISE_BLOCK", 1000)
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000, n_pores=2)
    result = simulate(MoleculeSpec.from_string("A50C100"), config, 0.1, CalibrationTable(), 6)
    streamed, held = tmp_path / "streamed", tmp_path / "held"
    write_trace(result.trace, str(streamed), fmt)
    write_trace(CurrentTrace(100_000.0, result.trace.samples.copy()), str(held), fmt)
    assert streamed.read_bytes() == held.read_bytes()
    assert len(read_trace(str(streamed))) == 10_000


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.mtrc"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(TraceFormatError):
        read_trace_binary(str(path))


@pytest.mark.parametrize(
    "fmt, rate", [
        ("binary", 0.5), ("binary", math.nan), ("binary", math.inf), ("binary", 1e12 + 1),
        ("binary", 1e300), ("text", "0"), ("text", "1000000000001"), ("text", "9" * 400),
    ],
)
def test_reader_refuses_sample_rate_outside_range(tmp_path, fmt, rate):
    # From ~9e21 Hz a 1 ms census block overflows an int64 index, and below
    # 1 Hz the microseconds of an event can overflow a float64.
    path = tmp_path / "t.trace"
    if fmt == "binary":
        path.write_bytes(struct.pack("<4sIdQf", MAGIC, 1, rate, 1, 250.0))
    else:
        path.write_bytes(f"sample_rate_hz={rate}\n250.0\n".encode("ascii"))
    with pytest.raises(TraceFormatError, match=r"^sample rate must be in \[1, 1e\+12\] Hz$"):
        read_trace(str(path))


def test_binary_truncated(tmp_path):
    trace = _trace(n=10)
    path = tmp_path / "t.mtrc"
    write_trace_binary(trace, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TraceFormatError):
        read_trace_binary(str(path))


def test_read_trace_refuses_a_binary_header_cut_short(tmp_path):
    path = tmp_path / "short.mtrc"
    path.write_bytes(struct.pack("<4sIdQ", MAGIC, 1, 1000.0, 0)[:20])
    with pytest.raises(TraceFormatError, match="^truncated header$"):
        read_trace(str(path))


def test_binary_trace_cut_short_after_it_is_opened(tmp_path):
    """The samples are read on each pass, so a file cut after the header
    check is refused by the first pass, at the first chunk it cannot fill."""
    path = tmp_path / "t.mtrc"
    write_trace_binary(_trace(n=10), str(path))
    trace = read_trace_binary(str(path))
    with open(path, "r+b") as fh:
        fh.truncate(struct.calcsize("<4sIdQ") + 8)
    with pytest.raises(TraceFormatError, match="^truncated samples at index 0$"):
        next(trace.chunks())


def test_text_trace_emptied_after_it_is_opened(tmp_path):
    """A text trace that has lost its header line since it was opened is
    refused by the next pass, as opening it would refuse it, not read as
    a trace of no samples."""
    path = tmp_path / "t.txt"
    write_trace_text(_trace(n=10), str(path))
    trace = read_trace_text(str(path))
    with open(path, "r+b") as fh:
        fh.truncate(0)
    with pytest.raises(TraceFormatError, match="^missing sample_rate_hz header line$"):
        next(trace.chunks())
    with pytest.raises(TraceFormatError, match="^missing sample_rate_hz header line$"):
        read_trace_text(str(path))


def test_binary_count_beyond_file_size(tmp_path):
    path = tmp_path / "huge.mtrc"
    path.write_bytes(struct.pack("<4sIdQ", MAGIC, 1, 1000.0, 2**40))
    with pytest.raises(TraceFormatError, match="header promises 1099511627776"):
        read_trace_binary(str(path))


def test_binary_bad_version(tmp_path):
    path = tmp_path / "bad.mtrc"
    path.write_bytes(struct.pack("<4sIdQ", MAGIC, 9, 1000.0, 0))
    with pytest.raises(TraceFormatError):
        read_trace_binary(str(path))


def test_read_trace_sniffs_format(tmp_path):
    trace = _trace(n=16)
    text_path = str(tmp_path / "t.txt")
    bin_path = str(tmp_path / "t.mtrc")
    write_trace(trace, text_path, "text")
    write_trace(trace, bin_path, "binary")
    assert np.allclose(read_trace(text_path).samples, trace.samples, atol=5e-7)
    assert np.allclose(read_trace(bin_path).samples, trace.samples, atol=1e-3)


def test_write_trace_unknown_format(tmp_path):
    with pytest.raises(TraceFormatError):
        write_trace(_trace(2), str(tmp_path / "x"), "csv")
