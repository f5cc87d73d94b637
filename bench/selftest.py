"""Self-test of the benchmark, at reduced size where the workload allows.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that the tracer rebinds and restores every name of a wrapped
function, that the self times of a traced pass sum to no more than the
pass's wall time, that counts repeat exactly on the same inputs, that
orbit-batch does no flow or Jacobi work, that the gate rejects an injected
failing, zero-evaluated or altered check, and that BENCHMARK.json names
exactly the metrics the benchmark prints.  Exits 1 at the first failure.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import run


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)
    print(f"ok  {message}")


def traced_pass(tracer, workload, k: int, pass_id: int) -> tuple[float, dict]:
    """Run pass k of ``workload`` traced; return its wall time and totals."""
    from tracer import totals

    traced_run = tracer.wrap("pass", workload.run)
    inputs = workload.inputs(k)
    tracer.pass_id = pass_id
    tracer.install()
    start = time.perf_counter()
    try:
        outcome = traced_run(inputs)
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    expect(not outcome.problems, f"{workload.name} pass {pass_id} clears the gate")
    spans = tracer.pop_spans()
    expect(
        min(span[6] for span in spans) > -1e-6,
        f"{workload.name}: no span of pass {pass_id} has negative self time",
    )
    return elapsed, totals(spans)


def check_rebinding() -> None:
    import korbit
    from korbit import coadjoint, foliation, liecore, verify
    from tracer import Tracer

    originals = {
        "coadjoint.exp_matrix": (coadjoint, "exp_matrix", liecore.exp_matrix),
        "foliation.numeric_rank": (foliation, "numeric_rank", liecore.numeric_rank),
        "verify.verify_jacobi": (verify, "verify_jacobi", liecore.verify_jacobi),
        "korbit.flow_numeric": (korbit, "flow_numeric", foliation.flow_numeric),
        "LieAlgebra7.ad": (liecore.LieAlgebra7, "ad", liecore.LieAlgebra7.ad),
    }
    tracer = Tracer()
    tracer.install()
    try:
        for label, (owner, attr, original) in originals.items():
            expect(
                getattr(owner, attr).__wrapped__ is original,
                f"install rebinds {label}",
            )
    finally:
        tracer.uninstall()
    for label, (owner, attr, original) in originals.items():
        expect(getattr(owner, attr) is original, f"uninstall restores {label}")


def check_workload_traces(out_dir: Path) -> None:
    import workloads
    from tracer import COUNT_FIELDS, LAYER_METRICS, Tracer, layer_values

    counts = [name for name, _, _, fld in LAYER_METRICS if fld in COUNT_FIELDS]
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, out_dir)
        tracer = Tracer()
        try:
            first_s, first = traced_pass(tracer, workload, 0, 0)
            _, second = traced_pass(tracer, workload, 0, 1)
        finally:
            workload.close()
        self_sum = sum(t.self_s for t in first.values())
        expect(
            self_sum <= first_s,
            f"{name}: self times sum to {self_sum:.4f} s within the pass's {first_s:.4f} s",
        )
        a, b = layer_values(first), layer_values(second)
        expect(
            all(a[c] == b[c] for c in counts),
            f"{name}: counts repeat exactly on the same inputs",
        )
        if name == "orbit-batch":
            idle = (
                "foliation.flow_numeric.calls",
                "foliation.field_eval.calls",
                "liecore.verify_jacobi.calls",
            )
            expect(all(a[c] == 0 for c in idle), "orbit-batch does no flow or Jacobi work")


def check_gate() -> None:
    from fractions import Fraction

    from korbit import verify
    from workloads import OrbitBatch, gate_checks

    base = [("G13", vars(r)) for r in verify.run_family_suite("G13", (Fraction(1, 2),), 50)]
    clean = gate_checks(base)
    expect(not clean.problems, "gate passes the G13 suite with its h11 finding")

    def injected(**fields) -> list:
        record = dict(
            name="injected", passed=True, max_residual=0.0, tolerance=1e-9,
            n_evaluated=10, worst_sample=None, graded=False, details="",
        )
        record.update(fields)
        return base + [("G13", vars(verify.CheckResult(**record)))]

    failing = gate_checks(injected(passed=False, max_residual=1.0))
    expect(
        any("injected" in p for p in failing.problems), "gate rejects a failing check"
    )
    empty = gate_checks(injected(n_evaluated=0))
    expect(
        any("zero evaluated" in p for p in empty.problems),
        "gate rejects a check that passed on zero evaluated samples",
    )
    skipped = gate_checks(base + [("G13", vars(verify._unsupported("injected", "thing")))])
    expect(
        not skipped.problems and skipped.skipped == clean.skipped + 1
        and skipped.n_evaluated == clean.n_evaluated,
        "gate counts an unsupported check as a skip, not as work",
    )
    unfound = gate_checks(
        (w, dict(c, passed=True)) if c["graded"] else (w, c) for w, c in base
    )
    expect(bool(unfound.problems), "gate rejects a missing graded finding")

    from korbit import coadjoint

    workload = OrbitBatch(1, Path("."))
    original = coadjoint.jacobian_check

    def skewed(algebra, u):
        det, exp_trace = original(algebra, u)
        return det * (1 + 1e-6), exp_trace

    coadjoint.jacobian_check = skewed
    try:
        outcome = workload.run(workload.inputs(0))
    finally:
        coadjoint.jacobian_check = original
    expect(bool(outcome.problems), "orbit-batch gate rejects a det / exp(trace) gap")


def check_benchmark_file() -> None:
    from tracer import PER_LAYER_UNITS
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the workloads run.py runs",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
        "BENCHMARK.json end_to_end matches the untraced metrics",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
        "BENCHMARK.json per_layer matches the traced metrics",
    )


def main() -> int:
    try:
        run.import_korbit()
    except run.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workloads.RANK_SAMPLES = 500
    workloads.ORBIT_POINTS = workloads.JACOBIAN_ELEMENTS = 500
    run.OUT_DIR.mkdir(exist_ok=True)
    try:
        check_rebinding()
        check_gate()
        check_workload_traces(run.OUT_DIR)
        check_benchmark_file()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
