"""Golden digests: the determinism contract checked in tier-1.

Short variants of the benchmark's workloads run through ``cli.main``, each
in a fresh temporary directory, and the sha256 of every file they write is
compared with a pinned digest.  A change to any output byte (trace, ground
truth log, events, summary, payload, stats, encoded sequence or plan)
fails the test, so a change that alters an output must re-pin these
digests and say so.

The digests were taken with numpy 2.4.6.  A numpy whose ``Generator``
streams differ would change the traces and logs, and every output read
from them.

The runs cover, between them: ``encode`` and ``decode`` in both modes, a
run-length decode of runs off their nominal length, bi-level events
decoded to payloads, a decode refusal (``dense``), two clogs and every
census state of three pores (``w2*``), slices spanning many census states
(``w2wide``), both trace formats, and the text trace reader.
"""

from __future__ import annotations

import hashlib

import pytest

from molstore import cli

# The dense workload's calibration: 50x the default event rates.
DENSE_CALIBRATION = (
    "event_rate_points = 90:100:0.4 120:175:0.4 150:530:0.4 210:1050:0.4\n"
)
# A census step of 1 pA over 300 pores: the short W2 trace's noise spans
# many census states in each slice, so the tally sorts them by state.
WIDE_CALIBRATION = "clogged_current_pa = 1\n"


def payload_bits(n: int) -> str:
    """``n`` deterministic bits as 0/1 characters: the sha256 digests of
    "0", "1", ..., spelled out in binary."""
    words = (hashlib.sha256(str(i).encode()).digest() for i in range(-(-n // 256)))
    return "".join(format(int.from_bytes(word, "big"), "0256b") for word in words)[:n]


PAYLOAD = payload_bits(10240)
# PAYLOAD under the default scheme A20C30, each bit's run 2 bases longer or
# shorter than nominal by turns; adjacent equal bits merge into one run, so
# decode's tolerance 0.1 still holds for every merged run.
JITTERED = "".join(
    ("A" if b == "0" else "C") * ((20 if b == "0" else 30) + i % 5 - 2)
    for i, b in enumerate(PAYLOAD)
)
INPUTS = {
    "bits.txt": "0110\n", "dense.cal": DENSE_CALIBRATION, "wide.cal": WIDE_CALIBRATION,
    "payload.txt": PAYLOAD + "\n", "jitter.seq": JITTERED + "\n",
}

_READ_A50C100 = ("--molecule", "A50C100", "--scheme", "A50C100", "--threshold-fraction", "0.75")


def _read_outputs(stem: str) -> tuple[str, ...]:
    return (
        "--events-out", f"{stem}.events.csv", "--summary-out", f"{stem}.summary.txt",
        "--payload-out", f"{stem}.payload.txt",
    )


def _census_runs(fmt: str) -> list[tuple[str, ...]]:
    """W2, 1 s: three pores, two clogged before the end; stats and read."""
    trace = f"w2{fmt}.trace"
    return [
        (
            "simulate", "--molecule", "(AC)60", "--voltage-mv", "150", "--duration-s", "1",
            "--pores", "3", "--clog", "0:0.4:1", "--clog", "1:0.7:1", "--seed", "5",
            "--format", fmt, "--trace-out", trace, "--log-out", f"w2{fmt}.log",
        ),
        ("stats", "--trace", trace, "--voltage-mv", "150", "--pores", "3",
         "--out", f"w2{fmt}.stats"),
        ("read", "--trace", trace, "--voltage-mv", "150", "--pores", "3",
         *_read_outputs(f"w2{fmt}")),
    ]


RUNS = [
    ("encode", "--in", "bits.txt", "--mode", "runlength", "--scheme", "A50C100",
     "--out", "bits.seq"),
    ("encode", "--in", "payload.txt", "--mode", "direct", "--out", "payload.direct.seq"),
    ("decode", "--in", "jitter.seq", "--mode", "direct", "--out", "jitter.direct.txt"),
    ("decode", "--in", "jitter.seq", "--mode", "runlength", "--out", "jitter.runlength.txt"),
    ("plan", "--set", "stations=3000", "--out", "plan.txt", "--csv-out", "plan.csv"),
    # W1, 1 s, text trace.
    ("simulate", "--molecule", "A50C100", "--voltage-mv", "210", "--duration-s", "1",
     "--seed", "1", "--format", "text", "--trace-out", "w1.trace", "--log-out", "w1.log"),
    ("read", "--trace", "w1.trace", *_READ_A50C100, *_read_outputs("w1")),
    *_census_runs("text"),
    *_census_runs("binary"),
    ("stats", "--trace", "w2binary.trace", "--voltage-mv", "150", "--pores", "300",
     "--open-current-pa", "2", "--calibration", "wide.cal", "--out", "w2wide.stats"),
    # dense, 0.4 s: ~370 events.
    ("simulate", "--molecule", "A50C100", "--voltage-mv", "210", "--duration-s", "0.4",
     "--sample-rate-hz", "250000", "--calibration", "dense.cal", "--seed", "3",
     "--format", "binary", "--trace-out", "dense.trace", "--log-out", "dense.log"),
    ("read", "--trace", "dense.trace", *_READ_A50C100, *_read_outputs("dense")),
]

GOLDEN = {
    "bits.seq": "7615877ccd1de6ce121820498b443e9469125ca7420e19dd196818b57edb3c75",
    "dense.events.csv": "0f14fafeee46dd8db61ab098ccb417daa3e245c90ecfdc8d6b297ad6465f2f7e",
    "dense.log": "cd3953534bec51abb4c07d42e05e6675c1df0b8b09ae8816cfa0bf5205840de7",
    "dense.payload.txt": "a0630e89b31c1e92e6556ce70dbfef2da90486b7c732ac882a678b96baa2a3ac",
    "dense.summary.txt": "84ec98ffb37b82d10e1520588bf28e99cfa25f8527be7cd7f10c5ff2e448d823",
    "dense.trace": "5f160bb53f4c7cf803f1e31c8b37a2ddbc626be8a78cb5e6f4d95fbae88a313f",
    "jitter.direct.txt": "f8b2ece9498191b7e8fa4390b7393214c265cd0b85a50ebfbb2bafa739fdc0c5",
    "jitter.runlength.txt": "cecdd2018d2f62bab9beb6f00ea8ea0a5be04ef23631163fa1b0b517f460a306",
    "payload.direct.seq": "437cbd635e06c7db60e6307b15a5d55a28a89aafafd4cf7ad97cd68746b1f4e9",
    "plan.csv": "99316837776093def8b747616e953f57d02236f7491e3c0c5af64945aee0c7a7",
    "plan.txt": "3dc24557f2e5fe94457a4812517f8084f91752953d4cb5da35883914a2352700",
    "w1.events.csv": "03e29ebaa917372b9bca05dd7a395a599fb5810d879f6fb4f8314ec09d7d8738",
    "w1.log": "e75a39fdfac283162609199bc63d3637972d6d4410044107c6eeb90ca2e277d4",
    "w1.payload.txt": "acbc4b99fc2230cf05367e90453be2007af522890335f0dfbfe3179f2e3ea05f",
    "w1.summary.txt": "d51319f425ce76a61ab889d4e2a89cff3dbba9004cc099deb81c1b43e1d68cfd",
    "w1.trace": "8ce692c77c19ee36653807cd2299959921cfd482546770de4a36c60d7cbb137e",
    "w2binary.events.csv": "6f3bce12db999e9f14d4f80a306f08857fae1be3f8a7fdf74f686501ef55c723",
    "w2binary.log": "5ea7f41ad0195744776cbbcd69b5a35a681124dafb7b55922edbb6497626e9fd",
    "w2binary.payload.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "w2binary.stats": "587785ff47d530b1ffaed228c3ae0a19a426b6e1bd85885f9a8e52240673d410",
    "w2binary.summary.txt": "7ba08ac18e2e866bcfd8fd5742f96aeffb96315404238c9a21f83d1140d5e3fa",
    "w2binary.trace": "699d49b09da743225aacb3c4e3d7dc6e3d2807ec26268f46fd4eb162dfa9194d",
    "w2text.events.csv": "77cde8c0eace7c7d7e1d659e487ac20bc34ab577c4b6f9c6e639348900809dab",
    "w2text.log": "3e4886a85b8443c5319bc3e2837c4d417c276fda9d428a487f5790bf99c418fb",
    "w2text.payload.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "w2text.stats": "ffcb5f9786ceedbabeb98912080ab22d5108077a9da809421637f9f7f99bd286",
    "w2text.summary.txt": "34e644f6abc94092eeeb10895d4ddd4ceece4b74bd25bc5ce5cf5fa590dc55a8",
    "w2text.trace": "9baae51695e1505c277e21cd7d25525a276b31ebdbe50dcec7b59e1d11cd054f",
    "w2wide.stats": "73f832b871df7069d330237bb5061320e151739c0c328cbdbc3ba728784a18ef",
}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    # Relative paths only: read and stats copy --trace into their headers.
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    for argv in RUNS:
        assert cli.main(list(argv)) == 0, argv
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path.name not in INPUTS
    }
    assert digests == GOLDEN


@pytest.mark.parametrize("mode", ["direct", "runlength"])
def test_cli_codec_round_trip_gives_back_the_payload(tmp_path, monkeypatch, mode):
    """``encode`` then ``decode`` of 10^5 bits, in each mode with its
    defaults, writes the payload file's bytes back."""
    monkeypatch.chdir(tmp_path)
    payload = (payload_bits(10**5) + "\n").encode()
    (tmp_path / "bits.txt").write_bytes(payload)
    assert cli.main(["encode", "--in", "bits.txt", "--mode", mode, "--out", "seq.txt"]) == 0
    assert cli.main(["decode", "--in", "seq.txt", "--mode", mode, "--out", "back.txt"]) == 0
    assert (tmp_path / "back.txt").read_bytes() == payload
