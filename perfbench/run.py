"""molstore benchmark: the CLI end to end, or its layers in a traced run.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload station|census|dense \
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the benchmark drives ``python -m molstore.cli`` from
this one process, one child at a time (a closed loop with one client).
Each iteration runs ``simulate`` then the analysis command and times
both; peak RSS comes from each child's own ``os.wait4`` rusage.  Between
iterations it samples ``molstore.cli --version`` to measure start-up.
Iterations repeat until the next one would end after ``--seconds``.

With ``--trace 1`` it imports molstore from ``src/`` and calls
``cli.main`` in-process, alternating untraced and traced passes; the
traced passes give per-layer calls and self time (see ``tracer.py``) and
the difference in wall time is the tracing overhead.

Every output file of every run is hashed.  All runs of a seed must hash
alike, and at a workload's default seed the digests must equal the
references in ``workloads.py``.  Quality metrics are checked against the
acceptance-suite bounds.  A nonzero exit, a digest mismatch or a broken
bound is a failed operation.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when nothing failed.  Scratch files go to
``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from tracer import COUNTS, LAYER_NAMES, Tracer
from workloads import WORKLOADS, Workload, quality

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES_PER_ITERATION = 2
CHILD_TIMEOUT_S = 120.0
# No iteration starts unless it is expected to end by this many seconds
# into the measurement, whatever --seconds says.
HARD_LIMIT_S = 140.0
CALIBRATION_ENV = "MOLSTORE_CALIBRATION"

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "msamples_per_s": "Msamples/s",
    "simulate_rss_mb": "MB",
    "analyze_rss_mb": "MB",
}


class Ops:
    """Attempted and failed operations, with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def trace_samples(path: Path) -> int:
    """Sample count of a trace file, read independently of molstore."""
    with open(path, "rb") as fh:
        head = fh.read(24)
        if head[:4] == b"MTRC":
            return struct.unpack("<4sIdQ", head)[3]
        fh.seek(0)
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b""))
    return lines - 1


def check_outputs(
    wl: Workload, seed: int, workdir: Path, first: dict[str, str] | None
) -> tuple[dict[str, str], list[str]]:
    """Digest every output; return the digests and the problems found."""
    problems = []
    digests = {}
    for name in wl.outputs:
        if (workdir / name).is_file():
            digests[name] = sha256(workdir / name)
        else:
            problems.append(f"{name} missing")
    trace = workdir / wl.simulate_outputs[0]
    if trace.is_file() and trace_samples(trace) != wl.samples:
        problems.append(f"{trace.name} holds {trace_samples(trace)} samples, not {wl.samples}")
    expected = first if first is not None else (wl.reference if seed == wl.default_seed else {})
    for name, digest in expected.items():
        if digests.get(name, digest) != digest:
            kind = "earlier run" if first is not None else "reference"
            problems.append(f"{name} differs from the {kind} digest")
    return digests, problems


class Child(NamedTuple):
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(CALIBRATION_ENV, None)
    return env


def run_child(argv: list[str], workdir: Path, env: dict[str, str]) -> Child:
    """Run one CLI command, timed, with its peak RSS from its own rusage."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "molstore.cli", *argv],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace").strip(),
    )


def check_quality(wl: Workload, workdir: Path, ops: Ops, report: list[str]) -> None:
    try:
        measured = quality(wl, workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ops.record(False, f"outputs do not parse for the quality metrics: {exc!r}")
        return
    for name, q in measured.items():
        report.append(f"{name:<22}{q.value:>14.4f} {'%':<12}{q.detail}")
        ops.record(q.ok, f"{name} = {q.value:.4f} breaks its bound ({q.detail})")


def timed_run(wl: Workload, seed: int, workdir: Path, seconds: float, ops: Ops, report):
    env = child_env()
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}

    def setup_sample() -> None:
        child = run_child(["--version"], workdir, env)
        ok = child.code == 0 and child.stdout.startswith("molstore ")
        if ops.record(ok, f"--version exited {child.code}: {child.stderr}"):
            samples["setup_s"].append(child.wall_s)

    setup_sample()  # fills the bytecode and page caches; not reported
    samples["setup_s"].clear()
    first = None
    start = time.perf_counter()
    iterations = 0
    while True:
        for _ in range(SETUP_SAMPLES_PER_ITERATION):
            setup_sample()
        sim = run_child(wl.simulate_argv(seed), workdir, env)
        ok = ops.record(sim.code == 0, f"simulate exited {sim.code}: {sim.stderr}")
        if ok:
            ana = run_child(wl.analyze_argv(), workdir, env)
            ok = ops.record(ana.code == 0, f"{wl.analyze[0]} exited {ana.code}: {ana.stderr}")
        if ok:
            digests, problems = check_outputs(wl, seed, workdir, first)
            ok = ops.record(not problems, "; ".join(problems))
        if ok:
            if first is None:
                first = digests
                check_quality(wl, workdir, ops, report)
            samples["simulate_s"].append(sim.wall_s)
            samples["analyze_s"].append(ana.wall_s)
            samples["msamples_per_s"].append(wl.samples / (sim.wall_s + ana.wall_s) / 1e6)
            samples["simulate_rss_mb"].append(sim.rss_mb)
            samples["analyze_rss_mb"].append(ana.rss_mb)
        iterations += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / iterations
        if ops.failures or next_end > seconds or next_end > HARD_LIMIT_S:
            break
    if not samples["simulate_s"]:
        return {}
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        report.append(f"{name:<22}{metrics[name]['value']:>14.4f} {unit:<12}median of {len(values)}")
    report.append(
        f"{'error_rate':<22}{len(ops.failures) / ops.attempted:>14.4f} {'ratio':<12}"
        f"{len(ops.failures)} failed of {ops.attempted} operations"
    )
    return metrics


def traced_run(wl: Workload, seed: int, workdir: Path, seconds: float, ops: Ops, report):
    os.environ.pop(CALIBRATION_ENV, None)
    sys.path.insert(0, str(SRC))
    from molstore import cli

    if Path(cli.__file__).resolve().parent != SRC / "molstore":
        raise SystemExit(f"perfbench: imported molstore from {cli.__file__}, not {SRC}")
    os.chdir(workdir)

    def run_pass(tracer: Tracer | None, first: dict[str, str] | None):
        """simulate + analyze in-process; (wall s, digests), or None on failure."""
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for argv in (wl.simulate_argv(seed), wl.analyze_argv()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                if not ops.record(code == 0, f"in-process {argv[0]} exited {code}"):
                    return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
        digests, problems = check_outputs(wl, seed, workdir, first)
        return (wall, digests) if ops.record(not problems, "; ".join(problems)) else None

    # An untimed first pass fills caches and checks the outputs' quality.
    warm = run_pass(None, None)
    if warm is None:
        return {}
    first = warm[1]
    check_quality(wl, workdir, ops, report)
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    pairs = 0
    while not ops.failures:
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            tracer = Tracer() if traced else None
            done = run_pass(tracer, first)
            if done is None:
                break
            walls[traced].append(done[0])
            if traced:
                layers.append(tracer.layer_metrics())
                tracer.write_spans(workdir / "spans.csv", len(layers) - 1)
        pairs += 1
        elapsed = warm[0] + time.perf_counter() - start
        next_end = elapsed + (elapsed - warm[0]) / pairs
        if next_end > seconds or next_end > HARD_LIMIT_S:
            break
    if not layers or not walls[False]:
        return {}
    units = {**COUNTS, "reader.decode_event.ok_ratio": "ratio"}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    metrics = {
        name: {"value": statistics.median(run[name] for run in layers), "unit": unit}
        for name, unit in sorted(units.items())
    }
    traced_s = statistics.median(walls[True])
    untraced_s = statistics.median(walls[False])
    metrics["trace.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    report.append(f"traced passes {len(walls[True])}, untraced passes {len(walls[False])}")
    ranked = sorted(
        (name for name in metrics if name.endswith(".self_s")),
        key=lambda name: -metrics[name]["value"],
    )
    for name in ranked + sorted(set(metrics) - set(ranked)):
        m = metrics[name]
        report.append(f"{name:<40}{m['value']:>14.4f} {m['unit']}")
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: int):
    """Run one workload; return its report lines, operations and metrics."""
    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in wl.inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    report = [
        f"workload {wl.name}  seed {seed}  samples {wl.samples}  trace {trace}  "
        f"python {sys.version.split()[0]}  numpy {metadata.version('numpy')}  "
        f"scipy {metadata.version('scipy')}  nproc {os.cpu_count()}"
    ]
    ops = Ops()
    run = traced_run if trace else timed_run
    metrics = run(wl, seed, workdir, seconds, ops, report)
    (workdir / wl.simulate_outputs[0]).unlink(missing_ok=True)
    report.extend(f"FAILED: {reason}" for reason in ops.failures)
    return report, ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], required=True,
        help="'all' runs every workload in turn and prefixes each metric with its name",
    )
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "molstore" / "cli.py").is_file():
        print(f"perfbench: no molstore source under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        report, ops, metrics = run_workload(wl, seed, args.seconds, args.trace)
        print("\n".join(report), flush=True)
        result["correct"] = result["correct"] and not ops.failures and bool(metrics)
        result["attempted"] += ops.attempted
        result["failed"] += len(ops.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update((prefix + key, value) for key, value in metrics.items())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
