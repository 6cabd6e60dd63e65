"""The benchmark's workloads, their reference digests and quality checks.

Each workload is one ``simulate`` run followed by one analysis run
(``read`` or ``stats``) of the CLI.  File names are relative: the CLI is
run from the workload's own directory, because ``read`` and ``stats``
copy their ``--trace`` argument into their headers and an absolute path
would change every digest.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

# 50x the default analyte concentration: many events per second of trace,
# so the per-event Python layers carry a large share of the run.
DENSE_CALIBRATION = (
    "event_rate_points = 90:100:0.4 120:175:0.4 150:530:0.4 210:1050:0.4\n"
)

READ_FLAGS = (
    "--molecule", "A50C100", "--scheme", "A50C100", "--threshold-fraction", "0.75",
    "--events-out", "events.csv", "--summary-out", "summary.txt",
    "--payload-out", "payload.txt",
)
READ_OUTPUTS = ("events.csv", "summary.txt", "payload.txt")

# Acceptance-suite bounds (tests/test_acceptance.py, criteria 5, 7 and 8).
MIN_RECALL = 0.99
MAX_PAYLOAD_ERROR = 0.04
MAX_CENSUS_RATE_ERROR = 0.10
# A truth event counts as detected when a detected start lies this close.
MATCH_TOLERANCE_S = 10e-6
# One-sided 95% normal quantile.  The recall and payload-error bounds are
# rates; a station run has only ~50 decode attempts, where one event moves
# the rate by 2%, so a bound fails only when the whole Wilson interval of
# the measured count lies on the wrong side of it.
Z_95 = 1.645


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    samples: int
    simulate: tuple[str, ...]
    analyze: tuple[str, ...]
    simulate_outputs: tuple[str, ...]
    analyze_outputs: tuple[str, ...]
    # sha256 of every output file at default_seed, taken at the commit
    # that defined this benchmark.
    reference: dict[str, str]
    inputs: dict[str, str] = field(default_factory=dict)

    def simulate_argv(self, seed: int) -> list[str]:
        return ["simulate", *self.simulate, "--seed", str(seed)]

    def analyze_argv(self) -> list[str]:
        return list(self.analyze)

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.simulate_outputs + self.analyze_outputs


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP W1 in text format: the text trace codec is ~90% of the time.
        Workload(
            name="station",
            default_seed=1,
            samples=10_000_000,
            simulate=(
                "--molecule", "A50C100", "--voltage-mv", "210", "--duration-s", "10",
                "--format", "text", "--trace-out", "trace.txt", "--log-out", "log.csv",
            ),
            analyze=("read", "--trace", "trace.txt", *READ_FLAGS),
            simulate_outputs=("trace.txt", "log.csv"),
            analyze_outputs=READ_OUTPUTS,
            reference={
                "trace.txt": "3c2e619d402a3da4795e31378f4ee8a7c879ebb274efd3ad7e08294326f9f44b",
                "log.csv": "cb6acced73a2f11b2ee52fdc3b31ab06f380c322ec9e1887110cfd50af1414ea",
                "events.csv": "995cdbd531443c76c71a5d6c45076360e776066cf4004549d510434e98c12b44",
                "summary.txt": "2b7476f15d7ec9b6df6b4ae913ea7b026a68d5b00c39b8de6d511013da2c5bc2",
                "payload.txt": "f048a456894039b2287d7446dc03e3efb1d21ff8276db9de7ebd7564b0760a38",
            },
        ),
        # ROADMAP W2 in binary format: per-sample synthesis and the census,
        # with the largest peak memory.
        Workload(
            name="census",
            default_seed=5,
            samples=60_000_000,
            simulate=(
                "--molecule", "(AC)60", "--voltage-mv", "150", "--duration-s", "60",
                "--pores", "3", "--clog", "0:20:60", "--clog", "1:40:60",
                "--format", "binary", "--trace-out", "trace.bin", "--log-out", "log.csv",
            ),
            analyze=(
                "stats", "--trace", "trace.bin", "--voltage-mv", "150", "--pores", "3",
                "--out", "stats.txt",
            ),
            simulate_outputs=("trace.bin", "log.csv"),
            analyze_outputs=("stats.txt",),
            reference={
                "trace.bin": "4ece80222b9804d064fbb25e2c2f227584110ab964ad838b0a337c287fe341d3",
                "log.csv": "2a492f361414d32a41751e5221d6e7aad9033e51ea6733db45800ebc81a59525",
                "stats.txt": "6478baedaa6dafb245e54777531a314b1081b742161d7729e746b7ff2609777a",
            },
        ),
        # ~39k events in 10 M samples: the per-event layers (sampling,
        # classify, orient, decode, row formatting) carry half the run.
        Workload(
            name="dense",
            default_seed=3,
            samples=10_000_000,
            simulate=(
                "--molecule", "A50C100", "--voltage-mv", "210", "--duration-s", "40",
                "--sample-rate-hz", "250000", "--calibration", "dense.cal",
                "--format", "binary", "--trace-out", "trace.bin", "--log-out", "log.csv",
            ),
            analyze=("read", "--trace", "trace.bin", *READ_FLAGS),
            simulate_outputs=("trace.bin", "log.csv"),
            analyze_outputs=READ_OUTPUTS,
            reference={
                "trace.bin": "cacbf78b016891fb919bb863cbbbbe55673d7c88912e61d1a7d5f1f5666eee9b",
                "log.csv": "c0f31d9771b37a36331ffe50fa3f206109a9b483289487f06c95d9b7e0d25788",
                "events.csv": "a5783deb8073e9f15f7aa9afff829ae6ced775c7816c5e17e064c59f34714759",
                "summary.txt": "82922b34fc6ceb1c49026df904d5a12ad14ce4036e819c6bc22e7afbf7fb536b",
                "payload.txt": "9395d68183794fd2e490af98bbb10cdf3986736c2d7e4dfef939f146271646ed",
            },
            inputs={"dense.cal": DENSE_CALIBRATION},
        ),
    )
}

# Start of the clog schedule of the census workload: all three pores are
# open before it.
CENSUS_OPEN_WINDOW_S = 20.0


def wilson(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    return (centre - half) / denom, (centre + half) / denom


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the ``#`` header block and the column-name line."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [row for row in csv.reader(lines[1:]) if row]


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") and "=" in line:
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


def _truth_events(workdir: Path) -> list[tuple[float, bool, int]]:
    """(start_s, complete, substate count) of each ground-truth event."""
    return [
        (float(row[2]), row[4] == "1", len(row[6].split(";")))
        for row in _data_rows(workdir / "log.csv")
        if row[0] == "event"
    ]


@dataclass(frozen=True)
class Quality:
    """One quality metric in percent, and whether it holds its bound."""

    value: float
    ok: bool
    detail: str


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def _has_match(sorted_starts: list[float], t: float) -> bool:
    i = bisect.bisect_left(sorted_starts, t - MATCH_TOLERANCE_S)
    return i < len(sorted_starts) and sorted_starts[i] <= t + MATCH_TOLERANCE_S


def read_quality(workdir: Path) -> dict[str, Quality]:
    truth = _truth_events(workdir)
    starts = sorted(float(row[0]) for row in _data_rows(workdir / "events.csv"))
    complete = [t for t, done, _ in truth if done]
    matched = sum(1 for t in complete if _has_match(starts, t))
    bilevel = sum(1 for _, _, n in truth if n == 2)
    summary = _key_values(workdir / "summary.txt")
    attempts = int(summary["decoded_events"]) + int(summary["decode_failures"])
    with open(workdir / "payload.txt", encoding="utf-8") as fh:
        good = sum(1 for line in fh if line.strip() == "01")
    errors = attempts - good
    return {
        "recall_pct": Quality(
            _pct(matched, len(complete)),
            wilson(matched, len(complete))[1] >= MIN_RECALL,
            f"{matched}/{len(complete)} complete truth events, bound >= {100 * MIN_RECALL:g}%",
        ),
        "payload_yield_pct": Quality(
            _pct(good, bilevel), True, f"{good}/{bilevel} truth bi-level events"
        ),
        "payload_error_pct": Quality(
            _pct(errors, attempts),
            wilson(errors, attempts)[0] <= MAX_PAYLOAD_ERROR,
            f"{errors}/{attempts} decode attempts, bound <= {100 * MAX_PAYLOAD_ERROR:g}%",
        ),
    }


def census_quality(workdir: Path) -> dict[str, Quality]:
    truth = _truth_events(workdir)
    truth_rate = sum(1 for t, _, _ in truth if t < CENSUS_OPEN_WINDOW_S) / CENSUS_OPEN_WINDOW_S
    read_rate = float(_key_values(workdir / "stats.txt")["census_3_rate_per_s"])
    err = abs(read_rate - truth_rate) / truth_rate if truth_rate else float("inf")
    return {
        "census_rate_err_pct": Quality(
            100.0 * err,
            err <= MAX_CENSUS_RATE_ERROR,
            f"{read_rate:g}/s read vs {truth_rate:g}/s truth, bound <= "
            f"{100 * MAX_CENSUS_RATE_ERROR:g}%",
        ),
    }


def quality(workload: Workload, workdir: Path) -> dict[str, Quality]:
    if workload.analyze[0] == "stats":
        return census_quality(workdir)
    return read_quality(workdir)
