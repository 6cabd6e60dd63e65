import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from molstore.codec import (
    AlphabetError,
    BaseSequence,
    CodecError,
    MAX_SEQUENCE_BASES,
    LengthError,
    Nucleotide,
    RunLengthScheme,
    SizeError,
    bit_runs,
    decode_direct,
    decode_runlength,
    encode_direct,
    encode_runlength,
    format_payload,
    format_sequence,
    read_payload,
    read_sequence,
)


def test_encode_direct_mapping():
    assert encode_direct([0, 0, 0, 1, 1, 0, 1, 1]).bases == "ACGT"


def test_encode_direct_empty():
    assert encode_direct([]).bases == ""


def test_encode_direct_all_ones():
    assert encode_direct([1, 1, 1, 1]).bases == "TT"


def test_encode_direct_odd_length_rejected():
    with pytest.raises(LengthError):
        encode_direct([0, 1, 0])


def test_encode_direct_bad_symbol_rejected():
    with pytest.raises(CodecError):
        encode_direct([0, 2])
    with pytest.raises(CodecError, match=r"^payload symbol at index 2 is 2, not 0/1$"):
        encode_direct([0, 1, 2, 1])


def test_bits_that_equal_0_and_1_encode_as_0_and_1():
    bits = [True, 1.0, 0, 0]
    assert encode_direct(bits) == encode_direct([1, 1, 0, 0])
    scheme = RunLengthScheme()
    assert encode_runlength(bits, scheme) == encode_runlength([1, 1, 0, 0], scheme)


def test_decode_direct_mapping():
    assert decode_direct(BaseSequence("ACGT")) == [0, 0, 0, 1, 1, 0, 1, 1]


def test_decode_direct_empty():
    assert decode_direct(BaseSequence("")) == []


def test_decode_direct_single_base():
    assert decode_direct(BaseSequence("G")) == [1, 0]


def test_direct_round_trip_random():
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        bits = list(rng.integers(0, 2, size=2 * rng.integers(0, 40)))
        bits = [int(b) for b in bits]
        seq = encode_direct(bits)
        assert len(seq) == len(bits) // 2
        assert decode_direct(seq) == bits


_BIT = st.integers(0, 1)


@given(st.lists(st.tuples(_BIT, _BIT)).map(lambda pairs: [b for p in pairs for b in p]))
def test_direct_round_trip_property(bits):
    assert decode_direct(encode_direct(bits)) == bits


@st.composite
def _schemes(draw):
    zero, one = draw(st.lists(st.sampled_from(list(Nucleotide)), min_size=2, max_size=2,
                              unique=True))
    return RunLengthScheme(zero, draw(st.integers(1, 200)), one, draw(st.integers(1, 200)))


@given(_schemes(), st.lists(_BIT, max_size=40), st.floats(0.0, 1.0, exclude_max=True))
def test_runlength_round_trip_property(scheme, bits, tolerance):
    assert decode_runlength(encode_runlength(bits, scheme), scheme, tolerance) == bits


def test_encode_runlength_example():
    scheme = RunLengthScheme()
    assert encode_runlength([0, 1], scheme).bases == "A" * 20 + "C" * 30


def test_encode_runlength_empty():
    assert encode_runlength([], RunLengthScheme()).bases == ""


def test_encode_runlength_refuses_more_bases_than_the_limit():
    with pytest.raises(SizeError, match=f"makes 10000000000 bases, more than {MAX_SEQUENCE_BASES}$"):
        encode_runlength([0], RunLengthScheme(zero_run=10**10))


def test_base_sequence_prints_its_bases():
    assert str(BaseSequence("AC")) == "AC"


def test_encode_runlength_repeated_ones():
    assert encode_runlength([1, 1], RunLengthScheme()).bases == "C" * 60


def test_decode_runlength_exact():
    scheme = RunLengthScheme()
    seq = BaseSequence("A" * 20 + "C" * 30)
    assert decode_runlength(seq, scheme, 0.1) == [0, 1]


def test_decode_runlength_within_tolerance():
    # |19 - 20| = 1 <= 0.1 * 20
    seq = BaseSequence("A" * 19 + "C" * 30)
    assert decode_runlength(seq, RunLengthScheme(), 0.1) == [0, 1]


def test_decode_runlength_alphabet_error():
    with pytest.raises(AlphabetError) as err:
        decode_runlength(BaseSequence("G" * 20), RunLengthScheme(), 0.1)
    assert err.value.run_index == 0


def test_decode_runlength_length_error_carries_run_index():
    seq = BaseSequence("A" * 20 + "C" * 10)
    with pytest.raises(LengthError) as err:
        decode_runlength(seq, RunLengthScheme(), 0.1)
    assert err.value.run_index == 1


def test_decode_runlength_merged_runs_decode_to_repeats():
    # adjacent equal bits merge into one physical run on encode
    scheme = RunLengthScheme()
    assert decode_runlength(BaseSequence("C" * 60), scheme, 0.0) == [1, 1]
    assert decode_runlength(BaseSequence("A" * 40), scheme, 0.0) == [0, 0]


def test_bit_runs_merges_adjacent_runs_of_one_base():
    scheme = RunLengthScheme()
    # Apart, each A run would be half a symbol, outside any tolerance.
    assert bit_runs([("A", 10), ("A", 10), ("C", 60)], scheme, 0.0) == [(0, 1), (1, 2)]
    # The short C run is the second run once the A runs merge.
    with pytest.raises(LengthError) as info:
        bit_runs([("A", 10), ("A", 10), ("C", 10)], scheme, 0.1)
    assert info.value.run_index == 1


def test_bit_runs_names_the_base_outside_the_scheme():
    with pytest.raises(AlphabetError, match="run 1: base G is not part") as info:
        bit_runs([("A", 20), (Nucleotide.G, 20)], RunLengthScheme(), 0.1)
    assert info.value.run_index == 1


def test_decode_runlength_tolerance_bounds():
    with pytest.raises(CodecError):
        decode_runlength(BaseSequence("A" * 20), RunLengthScheme(), 1.0)
    with pytest.raises(CodecError):
        decode_runlength(BaseSequence("A" * 20), RunLengthScheme(), -0.1)


def test_runlength_round_trip_random_schemes():
    rng = np.random.default_rng(99)
    bases = list("ACGT")
    for _ in range(2000):
        z, o = rng.choice(4, size=2, replace=False)
        scheme = RunLengthScheme(
            zero_base=Nucleotide(bases[z]),
            zero_run=int(rng.integers(1, 40)),
            one_base=Nucleotide(bases[o]),
            one_run=int(rng.integers(1, 40)),
        )
        bits = [int(b) for b in rng.integers(0, 2, size=rng.integers(0, 12))]
        seq = encode_runlength(bits, scheme)
        n0 = bits.count(0)
        n1 = bits.count(1)
        assert len(seq) == n0 * scheme.zero_run + n1 * scheme.one_run
        assert decode_runlength(seq, scheme, 0.0) == bits


def test_decode_runlength_monotone_in_tolerance():
    scheme = RunLengthScheme()
    seq = BaseSequence("A" * 18 + "C" * 33)
    decoded = decode_runlength(seq, scheme, 0.1)
    for tol in (0.15, 0.2, 0.3, 0.45):
        assert decode_runlength(seq, scheme, tol) == decoded


def test_scheme_rejects_equal_bases():
    with pytest.raises(CodecError):
        RunLengthScheme(zero_base=Nucleotide.A, one_base=Nucleotide.A)


def test_scheme_rejects_non_positive_runs():
    with pytest.raises(CodecError):
        RunLengthScheme(zero_run=0)


def test_scheme_string_round_trip():
    scheme = RunLengthScheme.from_string("G5T7")
    assert scheme.zero_base is Nucleotide.G
    assert scheme.one_run == 7
    assert RunLengthScheme.from_string(str(scheme)) == scheme


def test_scheme_bad_spec():
    with pytest.raises(CodecError):
        RunLengthScheme.from_string("AxC30")


def test_base_sequence_validation_and_runs():
    with pytest.raises(
        AlphabetError, match=r"^sequence contains non-ACGT characters: \['X'\]$"
    ) as info:
        BaseSequence("ACXG")
    assert info.value.run_index == 0
    assert BaseSequence("AACCCA").runs() == [
        (Nucleotide.A, 2),
        (Nucleotide.C, 3),
        (Nucleotide.A, 1),
    ]
    assert BaseSequence("").runs() == []


def test_nucleotide_total_order():
    assert Nucleotide.A < Nucleotide.C < Nucleotide.G < Nucleotide.T


def test_payload_and_sequence_text_formats():
    assert read_payload("0101\n") == [0, 1, 0, 1]
    assert format_payload([1, 0]) == "10\n"
    assert read_sequence("ACGT\n").bases == "ACGT"
    assert "".join(format_sequence(BaseSequence("AC"))) == "AC\n"
    with pytest.raises(CodecError):
        read_payload("01a")
