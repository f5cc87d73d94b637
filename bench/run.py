"""Benchmark of korbit's verdict latency and throughput.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 0 --seconds 40 --trace 0

Workloads are ``verify-all``, ``acceptance`` and ``orbit-batch`` (see
bench/README.md).  One process runs passes of the workload back to back
for ``--seconds`` seconds, and at least once on each of its input sets;
every pass must clear the correctness gate.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times in the metrics are nominal seconds: measured seconds scaled by how
fast a fixed pure-Python loop ran around them, relative to
REFERENCE_NOMINAL_S.  On a machine whose speed drifts with other tenants'
load, this removes most of the drift; measured seconds are printed too.

korbit is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

#: BLAS threads.  One client in one process; a single thread keeps the
#: figures steady on a small shared machine and stays within nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Seconds the reference loop takes on the quiet 2-core machine the
#: benchmark was built on (Python 3.11.7); nominal seconds are measured
#: seconds at that speed.
REFERENCE_NOMINAL_S = 0.011

#: Fresh interpreters timed for setup_s; one more runs first, untimed, to
#: write the byte-code caches.
SETUP_RUNS = 7

SETUP_SNIPPET = """\
import time
start = time.perf_counter()
import korbit
from korbit import catalog, verify
for family, params in verify.REPRESENTATIVE_PARAMS.items():
    catalog.build(family, params).tensor
elapsed = time.perf_counter() - start
from run import reference_seconds
print(korbit.__file__)
print(repr(elapsed))
print(repr(reference_seconds()))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "samples_per_s": "1/s",
    "worst_headroom": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def reference_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop.

    Pass times track this loop closely (correlation 0.85 over 112
    verify-all passes), so it serves as the machine's current speed.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("verify-all", "acceptance", "orbit-batch")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_korbit() -> None:
    """Import korbit from the checkout's sources, after pinning BLAS."""
    if not (SRC / "korbit" / "__init__.py").is_file():
        raise SetupError(f"no korbit sources under {SRC}")
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import korbit

    if Path(korbit.__file__).resolve().parent != SRC / "korbit":
        raise SetupError(f"imported korbit from {korbit.__file__}, not from {SRC}")


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, reference seconds) to import korbit and build the sixteen
    representative algebras with their tensors, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    runs = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise SetupError(f"setup interpreter failed:\n{done.stderr}")
        where, elapsed, reference = done.stdout.split()
        if Path(where).resolve().parent != SRC / "korbit":
            raise SetupError(f"setup interpreter imported korbit from {where}")
        if i:
            runs.append((float(elapsed), float(reference)))
    return runs


def environment() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def run_passes(workload, seconds: float, tracer=None) -> list[dict]:
    """Run passes until the time is up and at least the minimum is done.

    An untraced run cycles through the workload's input sets and runs each
    at least once.  A traced run repeats input set 0, tracing every other
    pass, so that its counts can be compared pass by pass; it keeps the
    spans of its fastest traced pass only.  The reference loop runs before
    the first pass and after every pass; a pass's speed factor comes from
    the mean of the two timings around it.  Returns one record per pass.
    """
    from tracer import layer_values, totals
    from workloads import SUBSEEDS, PassOutcome

    minimum = SUBSEEDS if tracer is None else 2
    traced_run = None if tracer is None else tracer.wrap("pass", workload.run)
    records: list[dict] = []
    fastest: dict | None = None
    deadline = time.perf_counter() + seconds
    reference = reference_seconds()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        inputs = workload.inputs(k if tracer is None else 0)
        if traced:
            tracer.pass_id = k
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = (traced_run if traced else workload.run)(inputs)
        except Exception as exc:  # a crash is a failed pass, not the end of the run
            traceback.print_exc(file=sys.stderr)
            outcome = PassOutcome(0, 0.0, [f"{type(exc).__name__}: {exc}"])
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        after = reference_seconds()
        speed = REFERENCE_NOMINAL_S / ((reference + after) / 2)
        reference = after
        record = {
            "k": k, "traced": traced, "seconds": elapsed, "speed": speed,
            "nominal": elapsed * speed, "outcome": outcome,
        }
        records.append(record)
        if traced:
            spans = tracer.pop_spans()
            record["layers"] = layer_values(totals(spans))
            if fastest is None or elapsed < fastest["seconds"]:
                if fastest is not None:
                    del fastest["spans"]
                record["spans"] = spans
                fastest = record
        for problem in outcome.problems:
            print(f"pass {k}: gate: {problem}", file=sys.stderr)
        k += 1
        typical = statistics.median(r["seconds"] for r in records)
        if k >= minimum and time.perf_counter() + typical > deadline:
            return records


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten passes beyond it, and its rank
    as a percentage; the slowest pass when there are fewer than eleven."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(
    records: list[dict], setup: list[tuple[float, float]]
) -> tuple[dict[str, float], list[str]]:
    """Untraced metrics, times in nominal seconds."""
    from workloads import SUBSEEDS

    good = [r for r in records if not r["outcome"].problems] or records
    nominal = [r["nominal"] for r in good]
    measured = [r["seconds"] for r in good]
    tail_s, tail_rank = tail(nominal)
    failed = sum(1 for r in records if r["outcome"].problems)
    metrics = {
        "setup_s": statistics.median(s * REFERENCE_NOMINAL_S / ref for s, ref in setup),
        "pass_s": statistics.median(nominal),
        "samples_per_s": statistics.median(r["outcome"].n_evaluated / r["nominal"] for r in good),
        "worst_headroom": statistics.median(
            r["outcome"].headroom for r in records[:SUBSEEDS]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    speeds = [r["speed"] for r in records]
    first = records[0]["outcome"]
    notes = [
        f"speed factor median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f} to {max(speeds):.3f}",
        f"setup_s: median of {len(setup)} fresh interpreters; measured median "
        f"{statistics.median(s for s, _ in setup)!r} s",
        f"pass_s: median of {len(nominal)} passes; measured median "
        f"{statistics.median(measured)!r} s, best {min(measured)!r} s",
        f"pass_s_tail {tail_s!r} s (p{tail_rank:.0f} of {len(nominal)} passes)",
        f"failed_share {failed / len(records)!r} share ({failed} of {len(records)} passes)",
        f"worst_headroom: median over the first {min(SUBSEEDS, len(records))} input sets",
        f"first pass: {first.checks} checks, {first.skipped} skipped, "
        f"graded findings {sorted(first.findings)}",
    ]
    return metrics, notes


def per_layer(records: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Traced metrics: counts, which must agree between the traced passes,
    and median times over the traced passes, in nominal seconds."""
    from tracer import COUNT_FIELDS, LAYER_METRICS, PER_LAYER_UNITS

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    counts = [name for name, _, _, fld in LAYER_METRICS if fld in COUNT_FIELDS]
    first = traced[0]["layers"]
    for r in traced[1:]:
        differ = [c for c in counts if r["layers"][c] != first[c]]
        if differ:
            r["outcome"].problems.append(f"counts differ from pass {traced[0]['k']}: {differ}")
            print(f"pass {r['k']}: counts differ: {differ}", file=sys.stderr)
    metrics = {}
    for name in first:
        if PER_LAYER_UNITS[name] == "s":
            metrics[name] = statistics.median(r["layers"][name] * r["speed"] for r in traced)
        elif name in counts:
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
    metrics["trace.overhead_s"] = statistics.median(
        r["nominal"] for r in traced
    ) - statistics.median(r["nominal"] for r in untraced)
    notes = [
        f"{len(traced)} traced and {len(untraced)} untraced passes on input set 0; "
        f"times are medians over the traced passes",
    ]
    return metrics, notes


def write_spans(records: list[dict], path: Path) -> None:
    """Write the kept spans as JSON lines, after a header naming the fields."""
    from tracer import SPAN_FIELDS

    with path.open("w", encoding="utf-8") as out:
        out.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for record in records:
            for span in record.get("spans", ()):
                out.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_korbit()
        setup = [] if args.trace else measure_setup()
    except (SetupError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from tracer import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    print("environment " + json.dumps(environment()))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = Tracer() if args.trace else None
    try:
        records = run_passes(workload, args.seconds, tracer)
    finally:
        workload.close()
    if tracer is None:
        metrics, notes = end_to_end(records, setup)
        units = END_TO_END_UNITS
    else:
        metrics, notes = per_layer(records)
        units = PER_LAYER_UNITS
        write_spans(records, OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    failed = sum(1 for r in records if r["outcome"].problems)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} passes, {failed} failed")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"loadavg after {os.getloadavg()}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
