"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Stochastic checks use fixed seeds; tolerances are sized by sampling error
at the stated draw counts.
"""

import dataclasses

import numpy as np
import pytest

from molstore import chipmodel, cli
from molstore.calibration import CalibrationTable, ChannelConfig
from molstore.codec import RunLengthScheme, encode_runlength
from molstore.poresim import (
    ORIENTATIONS,
    EventTable,
    MoleculeSpec,
    Orientation,
    capture_rate,
    mean_duration,
    open_current,
    pore_events,
    sample_event,
    simulate,
)
from molstore.reader import (
    BiLevel,
    census_stats,
    classify_event,
    complete_duration_floor_us,
    decode_event,
    detect_events,
    infer_orientation,
    trace_stats,
)

CALIB = CalibrationTable()
A50C100 = MoleculeSpec.from_string("A50C100")
AC60 = MoleculeSpec.from_string("(AC)60")

# Lower bound for the end-to-end round trip, from the level-pair misrank
# oracle (1e6 truncated-normal pairs, 75/25 orientation mixture): misrank
# rate 2.95% -> 100 * (1 - 0.0295) - 1 = 96.05, frozen conservatively.
ROUND_TRIP_BOUND_PCT = 96.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _draw_events(n, voltage, seed, molecule=A50C100):
    """``n`` events drawn one by one by sample_event, as one table."""
    config = ChannelConfig(voltage_mv=voltage)
    rng = np.random.default_rng(seed)
    return EventTable.concatenate(
        [sample_event(molecule, config, CALIB, rng) for _ in range(n)]
    )


def _bilevel(events):
    return np.diff(events.offsets) == 2


def _level(events, k):
    """Each event's k-th substate level (0 first)."""
    return events.levels[events.offsets[:-1] + k]


def _columns(events):
    """An event table's columns as lists, to compare two tables."""
    return [getattr(events, field.name).tolist() for field in dataclasses.fields(events)]


@pytest.fixture(scope="module")
def station_run():
    """30 s single-pore run of the two-segment molecule at 210 mV."""
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=500_000)
    return simulate(A50C100, config, 30.0, CALIB, seed=8101)


@pytest.fixture(scope="module")
def fig10_run():
    """Three-pore run: per-pore open current anchored to the 400 pA total,
    one pore held clogged from 20 s and a second from 40 s."""
    open_per_pore = 400.0 / 3.0
    calib = CALIB.replace(
        iv_points=(
            (-210.0, -200.0),
            (0.0, 0.0),
            (90.0, 90.0),
            (150.0, open_per_pore),
            (210.0, 250.0),
        )
    )
    config = ChannelConfig(voltage_mv=150.0, n_pores=3, sample_rate_hz=250_000)
    clogs = {0: [(20.0, 60.0)], 1: [(40.0, 60.0)]}
    return simulate(AC60, config, 60.0, calib, seed=101, clogs=clogs), open_per_pore


def test_criterion_1_calibration_fidelity():
    expected = {210.0: 250.0, -210.0: -200.0, 150.0: 160.0, 120.0: 130.0, 90.0: 90.0, 0.0: 0.0}
    errors = {
        v: open_current(v, 1.0, CALIB) - i for v, i in expected.items()
    }
    ok = all(e == 0.0 for e in errors.values())
    _report(1, ok, f"open-current knots exact: {errors}")


def test_criterion_2_bilevel_statistics():
    events = _draw_events(10_000, 210.0, seed=2002)
    bilevel = events.take(_bilevel(events))
    frac = len(bilevel) / len(events)
    three = bilevel.take(bilevel.orientation == ORIENTATIONS.index(Orientation.THREE_PRIME_FIRST))
    three_frac = len(three) / len(bilevel)
    five = bilevel.take(bilevel.orientation == ORIENTATIONS.index(Orientation.FIVE_PRIME_FIRST))
    means = (
        float(np.mean(_level(three, 0))),
        float(np.mean(_level(three, 1))),
        float(np.mean(_level(five, 1))),
        float(np.mean(_level(five, 0))),
    )
    targets = (0.37, 0.17, 0.20, 0.12)
    ok = (
        abs(frac - 0.29) <= 0.02
        and abs(three_frac - 0.75) <= 0.03
        and all(abs(m - t) <= 0.02 for m, t in zip(means, targets))
    )
    _report(
        2,
        ok,
        f"bi-level fraction {frac:.3f} (0.29±0.02), 3'-first {three_frac:.3f} "
        f"(0.75±0.03), level means {tuple(round(m, 3) for m in means)} vs {targets} ±0.02",
    )


def test_criterion_3_no_bilevel_below_threshold():
    counts = {}
    for voltage in (120.0, 150.0, 180.0):
        events = _draw_events(10_000, voltage, seed=int(voltage))
        counts[voltage] = int(np.count_nonzero(_bilevel(events)))
    ok = all(c == 0 for c in counts.values())
    _report(3, ok, f"bi-level counts at 120/150/180 mV: {counts} (all exactly 0)")


def test_criterion_4_duration_scaling():
    events_210 = _draw_events(10_000, 210.0, seed=44)
    events_105 = _draw_events(10_000, 105.0, seed=45)
    mean_210 = float(np.mean(events_210.duration_us[events_210.complete]))
    mean_105 = float(np.mean(events_105.duration_us[events_105.complete]))
    ratio = mean_105 / mean_210
    ok = abs(mean_210 - 150.0) <= 15.0 and abs(ratio - 2.0) <= 0.10
    _report(
        4,
        ok,
        f"mean complete duration {mean_210:.1f} us (150±10%), "
        f"105 mV / 210 mV ratio {ratio:.3f} (2.0±5%)",
    )


def test_criterion_5_multi_pore_fig10(fig10_run):
    result, open_per_pore = fig10_run
    stats = census_stats(result.trace, 3, open_per_pore, CALIB.clogged_current_pa)
    means = stats.current_means
    mean_errors = {
        3: means[3] - 400.0,
        2: means[2] - 290.0,
        1: means[1] - 190.0,
    }
    truth_rate = np.count_nonzero(result.events.t_start_s < 20.0) / 20.0
    r3, r2, r1 = (stats.rates[k].rate_per_s for k in (3, 2, 1))
    ok = (
        all(abs(e) <= 10.0 for e in mean_errors.values())
        and abs(truth_rate - 31.8) <= 3.18
        and abs(r3 - 31.8) <= 3.18
        and abs(r2 / r3 - 2.0 / 3.0) <= 0.1 * 2.0 / 3.0
        and abs(r1 / r3 - 1.0 / 3.0) <= 0.1 * 1.0 / 3.0
    )
    _report(
        5,
        ok,
        f"census means {means[3]:.1f}/{means[2]:.1f}/{means[1]:.1f} "
        f"(400/290/190±10 pA), all-open rate {truth_rate:.1f}/s truth "
        f"{r3:.1f}/s read (31.8±10%), ratios {r2 / r3:.3f}/{r1 / r3:.3f} "
        f"(0.667/0.333±10%)",
    )


def test_criterion_6_monotonicity_suite():
    voltages = (90.0, 120.0, 150.0)
    rates = [capture_rate(v, CALIB) for v in voltages + (210.0,)]
    rate_ok = all(b > a for a, b in zip(rates, rates[1:]))
    durations = [mean_duration(v, 120, CALIB) for v in voltages]
    duration_ok = all(b < a for a, b in zip(durations, durations[1:]))
    blockages = []
    for i, v in enumerate(voltages):
        events = _draw_events(3000, v, seed=60 + i, molecule=AC60)
        blockages.append(float(np.mean(1.0 - events.mean_level[events.complete])))
    blockage_ok = all(b < a for a, b in zip(blockages, blockages[1:]))
    open_fracs = []
    for i, v in enumerate(voltages):
        config = ChannelConfig(voltage_mv=v, sample_rate_hz=50_000)
        result = simulate(AC60, config, 120.0, CALIB, seed=600 + i)
        stats = trace_stats(
            result.trace, EventTable.concatenate([]), open_current(v, 1.0, CALIB),
            threshold_fraction=0.7,
        )
        open_fracs.append(stats.open_fraction)
    open_ok = all(b < a for a, b in zip(open_fracs, open_fracs[1:]))
    ok = rate_ok and duration_ok and blockage_ok and open_ok
    _report(
        6,
        ok,
        f"rate increasing {[round(r, 1) for r in rates]}, duration decreasing "
        f"{[round(d) for d in durations]} us, blockage decreasing "
        f"{[round(b, 3) for b in blockages]}, open fraction decreasing "
        f"{[round(f, 5) for f in open_fracs]}",
    )


def test_criterion_7_detection_oracle(station_run):
    open_pa = open_current(210.0, 1.0, CALIB)
    detected = detect_events(station_run.trace, open_pa, threshold_fraction=0.75)
    starts = np.array([d.t_start_s for d in detected])
    truth = station_run.events.t_start_s[station_run.events.complete].tolist()
    matched = sum(1 for t in truth if np.min(np.abs(starts - t)) <= 10e-6)
    recovery = matched / len(truth)
    ok = recovery >= 0.99
    _report(
        7,
        ok,
        f"{matched}/{len(truth)} ground-truth complete events matched within "
        f"10 us ({recovery:.4f} >= 0.99) at default noise",
    )


def _truncated_normal_array(rng, mean, sd, n):
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        draw = rng.normal(mean, sd, todo.size)
        keep = (draw > 0.0) & (draw < 1.0)
        out[todo[keep]] = draw[keep]
        todo = todo[~keep]
    return out


def _misrank_oracle_pct(seed=20040515, n=1_000_000) -> float:
    """Brute-force level-pair oracle for the round-trip bound.

    Samples time-ordered level pairs from the calibrated truncated normals
    (75% 3'-first where the shallower C segment leads, 25% 5'-first) and
    counts pairs whose ordering misranks the segments.
    """
    rng = np.random.default_rng(seed)
    n3 = rng.binomial(n, CALIB.three_prime_first_fraction)
    n5 = n - n3
    c3 = _truncated_normal_array(rng, 0.37, 0.09, n3)
    a3 = _truncated_normal_array(rng, 0.17, 0.04, n3)
    a5 = _truncated_normal_array(rng, 0.12, 0.04, n5)
    c5 = _truncated_normal_array(rng, 0.20, 0.03, n5)
    misrank = (np.sum(c3 <= a3) + np.sum(a5 >= c5)) / n
    return 100.0 * (1.0 - misrank) - 1.0


def test_criterion_8_end_to_end_round_trip(station_run):
    bits = [0, 1]
    scheme = RunLengthScheme.from_string("A50C100")
    assert MoleculeSpec.from_sequence(encode_runlength(bits, scheme)) == A50C100

    oracle_bound = _misrank_oracle_pct()
    open_pa = open_current(210.0, 1.0, CALIB)
    noise_norm = 5.0 / open_pa
    floor = complete_duration_floor_us(210.0, A50C100.total_bases, CALIB)
    detected = detect_events(station_run.trace, open_pa, threshold_fraction=0.75)
    decodable = successes = 0
    for det in detected:
        cls = classify_event(det, noise_norm, 20.0, floor)
        if not isinstance(cls, BiLevel):
            continue
        if infer_orientation(cls) is Orientation.UNKNOWN:
            continue
        decodable += 1
        try:
            if decode_event(cls, scheme, CALIB, 210.0, tolerance=0.45) == bits:
                successes += 1
        except Exception:
            pass
    rate_pct = 100.0 * successes / decodable
    ok = (
        abs(oracle_bound - ROUND_TRIP_BOUND_PCT) <= 0.5
        and rate_pct >= ROUND_TRIP_BOUND_PCT
    )
    _report(
        8,
        ok,
        f"{successes}/{decodable} oriented bi-level events decoded to 01 "
        f"({rate_pct:.2f}% >= bound {ROUND_TRIP_BOUND_PCT}%, oracle {oracle_bound:.2f}%)",
    )


def test_criterion_9_architecture_arithmetic():
    layout = chipmodel.ChipLayout()
    checks = {
        "areal": chipmodel.areal_capacity(layout) == pytest.approx(1e12, rel=1e-12),
        "volumetric": chipmodel.volumetric_capacity(layout) == pytest.approx(1e15, rel=1e-12),
        "station_2bit": chipmodel.station_rate(2.0, 150.0) == pytest.approx(2.0 / 150e-6)
        and round(chipmodel.station_rate(2.0, 150.0)) == 13333,
        "station_perbase": chipmodel.station_rate(150.0, 150.0) == pytest.approx(1e6),
        "aggregate": chipmodel.aggregate_rate(1e6, 3000) == pytest.approx(3e9),
        "dvd": abs(chipmodel.dvd_stack_height(1e15) - 127.7) <= 0.5,
        "transit": chipmodel.transit_time(1.0, 10.0) == pytest.approx(1.0e-3, rel=1e-12),
    }
    ok = all(checks.values())
    _report(
        9,
        ok,
        "exact: 1e12 B/cm2, 1e15 B/cm3, 13333.3 bit/s (vs the quoted 12 kbit/s), "
        f"1e6 bit/s, 3e9 bit/s, {chipmodel.dvd_stack_height(1e15):.2f} m stack, 1.0 ms transit"
        + ("" if ok else f" -- failures: {[k for k, v in checks.items() if not v]}"),
    )


def test_criterion_10_determinism(tmp_path):
    outputs = {}
    for fmt in ("text", "binary"):
        blobs = []
        for _ in range(2):
            trace = tmp_path / f"t.{fmt}"
            log = tmp_path / f"l.{fmt}"
            code = cli.main([
                "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
                "--duration-s", "0.5", "--seed", "99", "--pores", "2",
                "--sample-rate-hz", "100000", "--format", fmt,
                "--trace-out", str(trace), "--log-out", str(log),
            ])
            assert code == 0
            blobs.append(trace.read_bytes() + log.read_bytes())
        outputs[fmt] = blobs[0] == blobs[1]

    config = ChannelConfig(voltage_mv=210.0, n_pores=3, sample_rate_hz=100_000)
    result = simulate(A50C100, config, 2.0, CALIB, seed=7)
    events = result.events
    schedule_ok = all(
        _columns(pore_events(A50C100, config, CALIB, 7, pore, 2.0))
        == _columns(events.take(events.pore == pore))
        for pore in (2, 0, 1)
    )
    rerun = simulate(A50C100, config, 2.0, CALIB, seed=7)
    bitwise_ok = np.array_equal(result.trace.samples, rerun.trace.samples)
    ok = outputs["text"] and outputs["binary"] and schedule_ok and bitwise_ok
    _report(
        10,
        ok,
        f"rerun byte-identical (text={outputs['text']}, binary={outputs['binary']}), "
        f"pore substreams order-independent ({schedule_ok}), arrays bit-identical ({bitwise_ok})",
    )
