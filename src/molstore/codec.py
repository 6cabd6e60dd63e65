"""Bit payload <-> nucleotide sequence codecs.

Two schemes are supported: the direct 2-bit-per-base mapping (A=00, C=01,
G=10, T=11) and a run-length scheme where each bit is represented by a
homopolymer stretch of a fixed base and nominal length.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class CodecError(ValueError):
    """Base class for encode/decode failures."""


class LengthError(CodecError):
    """Payload or run length does not fit the scheme.

    ``run_index`` identifies the first offending homopolymer run when the
    error arises during run-length decoding; it is None for payload-level
    length errors.
    """

    def __init__(self, message: str, run_index: int | None = None):
        super().__init__(message)
        self.run_index = run_index


class AlphabetError(CodecError):
    """A homopolymer run uses a base that is not part of the scheme."""

    def __init__(self, message: str, run_index: int):
        super().__init__(message)
        self.run_index = run_index


class Nucleotide(str, enum.Enum):
    """The four DNA bases; the total order A < C < G < T is fixed."""

    A = "A"
    C = "C"
    G = "G"
    T = "T"

    def __str__(self) -> str:
        return self.value


# Fixed 2-bit mapping; not configurable.
_DIRECT_TABLE = {
    (0, 0): Nucleotide.A,
    (0, 1): Nucleotide.C,
    (1, 0): Nucleotide.G,
    (1, 1): Nucleotide.T,
}
_DIRECT_INVERSE = {base: bits for bits, base in _DIRECT_TABLE.items()}

_VALID_BASES = frozenset("ACGT")


@dataclass(frozen=True)
class BaseSequence:
    """An ordered nucleotide sequence, read 5' to 3'.

    Orientation is part of identity: reversing the string yields a
    different sequence.
    """

    bases: str

    def __post_init__(self):
        bad = set(self.bases) - _VALID_BASES
        if bad:
            raise AlphabetError(
                f"sequence contains non-ACGT characters: {sorted(bad)}", run_index=0
            )

    @classmethod
    def from_nucleotides(cls, nucleotides: Iterable[Nucleotide]) -> "BaseSequence":
        return cls("".join(n.value for n in nucleotides))

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self):
        return (Nucleotide(ch) for ch in self.bases)

    def __str__(self) -> str:
        return self.bases

    def runs(self) -> list[tuple[Nucleotide, int]]:
        """Maximal runs of identical bases, in order, as (base, length)."""
        out: list[tuple[Nucleotide, int]] = []
        for match in re.finditer(r"(.)\1*", self.bases):
            out.append((Nucleotide(match.group(1)), len(match.group(0))))
        return out


@dataclass(frozen=True)
class RunLengthScheme:
    """Homopolymer run-length code: 0 <-> zero_run copies of zero_base, etc."""

    zero_base: Nucleotide = Nucleotide.A
    zero_run: int = 20
    one_base: Nucleotide = Nucleotide.C
    one_run: int = 30

    def __post_init__(self):
        if self.zero_base == self.one_base:
            raise CodecError("scheme bases for 0 and 1 must differ")
        if self.zero_run < 1 or self.one_run < 1:
            raise CodecError("run lengths must be >= 1")

    @classmethod
    def from_string(cls, text: str) -> "RunLengthScheme":
        """Parse a compact scheme spec such as "A20C30" (zero then one)."""
        m = re.fullmatch(r"([ACGT])(\d+)([ACGT])(\d+)", text.strip().upper())
        if not m:
            raise CodecError(f"bad scheme spec {text!r}; expected e.g. A20C30")
        return cls(
            zero_base=Nucleotide(m.group(1)),
            zero_run=int(m.group(2)),
            one_base=Nucleotide(m.group(3)),
            one_run=int(m.group(4)),
        )

    def __str__(self) -> str:
        return f"{self.zero_base}{self.zero_run}{self.one_base}{self.one_run}"


def _check_bits(bits: Sequence[int]) -> None:
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise CodecError(f"payload symbol at index {i} is {b!r}, not 0/1")


def encode_direct(bits: Sequence[int]) -> BaseSequence:
    """Map consecutive bit pairs to bases with A=00, C=01, G=10, T=11."""
    _check_bits(bits)
    if len(bits) % 2 != 0:
        raise LengthError(f"payload length {len(bits)} is odd; need bit pairs")
    out = [_DIRECT_TABLE[(bits[i], bits[i + 1])] for i in range(0, len(bits), 2)]
    return BaseSequence.from_nucleotides(out)


def decode_direct(seq: BaseSequence) -> list[int]:
    """Inverse of :func:`encode_direct`; total on all sequences."""
    out: list[int] = []
    for base in seq:
        out.extend(_DIRECT_INVERSE[base])
    return out


def encode_runlength(bits: Sequence[int], scheme: RunLengthScheme) -> BaseSequence:
    """Emit zero_run/one_run copies of the scheme base per bit, concatenated."""
    _check_bits(bits)
    parts = []
    for b in bits:
        if b == 0:
            parts.append(scheme.zero_base.value * scheme.zero_run)
        else:
            parts.append(scheme.one_base.value * scheme.one_run)
    return BaseSequence("".join(parts))


def bit_runs(
    runs: Iterable[tuple[str, int]], scheme: RunLengthScheme, tolerance: float
) -> list[tuple[int, int]]:
    """The bits homopolymer runs, given in order as (base, length), carry,
    as (bit, count) pairs, by nearest-nominal matching; adjacent runs of
    one base merge first.

    Each run of a scheme base is matched to the nearest integer
    multiple k of its nominal run length (adjacent equal bits merge into a
    single physical run, so a run may carry several symbols).  The run is
    accepted when its length is within ``tolerance`` (relative) of
    k * nominal, and carries k copies of the bit.

    Raises AlphabetError for a run of a base outside the scheme and
    LengthError for a run outside tolerance; both carry the index of the
    first offending run.
    """
    if not 0.0 <= tolerance < 1.0:
        raise CodecError(f"tolerance must be in [0, 1), got {tolerance}")
    nominal = {scheme.zero_base: (0, scheme.zero_run), scheme.one_base: (1, scheme.one_run)}
    out: list[tuple[int, int]] = []
    for index, (base, group) in enumerate(itertools.groupby(runs, key=lambda run: run[0])):
        length = sum(n for _, n in group)
        if base not in nominal:
            raise AlphabetError(
                f"run {index}: base {base} is not part of the scheme", run_index=index
            )
        bit, run = nominal[base]
        k = max(1, int(length / run + 0.5))
        if abs(length - k * run) > tolerance * k * run:
            raise LengthError(
                f"run {index}: length {length} outside tolerance {tolerance} "
                f"of {k} x {run}",
                run_index=index,
            )
        out.append((bit, k))
    return out


def decode_runs(
    runs: Iterable[tuple[str, int]], scheme: RunLengthScheme, tolerance: float
) -> list[int]:
    """The bits of :func:`bit_runs`, each spelled out."""
    out: list[int] = []
    for bit, k in bit_runs(runs, scheme, tolerance):
        out.extend([bit] * k)
    return out


def decode_runlength(seq: BaseSequence, scheme: RunLengthScheme, tolerance: float) -> list[int]:
    """:func:`decode_runs` of the maximal runs of ``seq``."""
    return decode_runs(seq.runs(), scheme, tolerance)


def read_payload(text: str) -> list[int]:
    """Parse the bit payload text format: one line of 0/1 characters."""
    line = text.strip()
    if not set(line) <= {"0", "1"}:
        raise CodecError("payload file must contain only 0/1 characters")
    return [int(ch) for ch in line]


def format_payload(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits) + "\n"


def read_sequence(text: str) -> BaseSequence:
    """Parse the sequence text format: one line of ACGT, 5' end first."""
    return BaseSequence(text.strip())


def format_sequence(seq: BaseSequence) -> str:
    return seq.bases + "\n"
