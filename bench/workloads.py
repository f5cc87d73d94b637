"""The benchmark's three workloads and the correctness gate of every pass.

Each workload is a closed loop: one client in one process runs passes back
to back.  Pass k of a run with seed S works on the inputs of sub-seed
``S * SUBSEEDS + k % SUBSEEDS``, so a run cycles through a fixed set of
input sets and its figures do not hang on one draw.  A pass returns a
``PassOutcome``; an outcome with problems failed the gate and is counted
as failed, never just timed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from korbit import catalog, cli, coadjoint, foliation, rng, topology, verify

#: Distinct input sets a run cycles through.
SUBSEEDS = 8

#: Graded findings the engine reports today.  Any other set fails the gate.
EXPECTED_FINDINGS = frozenset({"leaf_constancy_h11"})

# Volumes and tolerances of the acceptance campaigns, as in
# tests/test_acceptance.py.
RANK_SAMPLES = 10_000
EXPONENTIAL_TOL = 1e-10
CONSTANCY_TOL = 1e-7
SPAN_TOL = 1e-9
MEASURE_TOL = 1e-10
FLOW_TOL = 1e-6
ROUNDTRIP_TOL = 1e-10
RESIDUAL_TOL = 1e-8
GRADIENT_FLOOR = 1e-6
FLOW_PARAMS = {"G4": (0, 2), "G12": (Fraction(1, 2),), "G13": (Fraction(1, 2),)}

#: Orbit points and group elements per family in one orbit-batch pass.
ORBIT_POINTS = 10_000
JACOBIAN_ELEMENTS = 10_000


def subseed(seed: int, k: int) -> int:
    """Program seed of pass k in a run keyed by ``seed``."""
    return seed * SUBSEEDS + k % SUBSEEDS


@dataclass
class PassOutcome:
    """What one pass produced, as the gate judged it."""

    n_evaluated: int
    headroom: float
    problems: list[str] = field(default_factory=list)
    findings: frozenset[str] = frozenset()
    checks: int = 0
    skipped: int = 0


def gate_checks(checks: Iterable[tuple[str, Mapping[str, Any]]]) -> PassOutcome:
    """Judge verification checks, given as (where, check record) pairs.

    Non-graded checks must pass and graded findings must be exactly
    EXPECTED_FINDINGS.  A check that evaluated nothing is a skip when the
    engine declared it unsupported, and a problem otherwise; either way its
    verdict is not counted as work done.
    """
    problems: list[str] = []
    findings: set[str] = set()
    n_evaluated = skipped = count = 0
    headroom = 0.0
    for where, check in checks:
        count += 1
        name = check["name"]
        if check["n_evaluated"] == 0:
            if check["details"].startswith("unsupported"):
                skipped += 1
            else:
                problems.append(f"{where} {name}: verdict on zero evaluated samples")
            continue
        n_evaluated += check["n_evaluated"]
        if check["graded"]:
            if not check["passed"]:
                findings.add(name)
            continue
        if not check["passed"]:
            problems.append(
                f"{where} {name}: residual {check['max_residual']:.3e} "
                f"against tolerance {check['tolerance']:.3e}"
            )
        if check["tolerance"] > 0:
            headroom = max(headroom, check["max_residual"] / check["tolerance"])
    if findings != EXPECTED_FINDINGS:
        problems.append(
            f"graded findings {sorted(findings)}, expected {sorted(EXPECTED_FINDINGS)}"
        )
    return PassOutcome(n_evaluated, headroom, problems, frozenset(findings), count, skipped)


class Workload:
    """One workload: ``inputs(k)`` makes the inputs of pass k, untimed, and
    ``run`` does the timed pass on them."""

    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def inputs(self, k: int) -> Any:
        return subseed(self.seed, k)

    def run(self, inputs: Any) -> PassOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the passes left on disk."""


class VerifyAll(Workload):
    """`korbit verify --family all` through ``cli.main``, report read back
    from disk.  The only workload where the RK4 flow layer dominates."""

    name = "verify-all"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.report = out_dir / f"verify-all-{os.getpid()}.json"

    def run(self, seed: int) -> PassOutcome:
        argv = ["verify", "--family", "all", "--seed", str(seed), "--out", str(self.report)]
        code = cli.main(argv)
        runs = json.loads(self.report.read_text(encoding="utf-8"))
        outcome = gate_checks(
            (f"{run['family']}{tuple(run['params'])}", check)
            for run in runs
            for check in run["checks"]
        )
        if code != 0:
            outcome.problems.append(f"korbit verify exited with {code}")
        if len(runs) != len(catalog.FAMILIES):
            outcome.problems.append(f"{len(runs)} runs in the report, expected 16")
        return outcome

    def close(self) -> None:
        self.report.unlink(missing_ok=True)


def acceptance_checks(seed: int) -> list[tuple[str, verify.CheckResult]]:
    """The eleven acceptance campaigns at full volume, seeded by ``seed``."""
    families = catalog.FAMILIES

    def by_catalog(names: Iterable[str]) -> list[str]:
        return sorted(names, key=families.index)

    out: list[tuple[str, verify.CheckResult]] = []
    for family in families:
        out.append((family, verify.jacobi_result(family, draws=100, seed=seed)))
    for family in by_catalog(coadjoint.RANK_CONDITION_FAMILIES):
        out.append((family, verify.golden_pairing_result(family)))
    for family in families:
        out.append((family, verify.rank_bound_result(family, samples=RANK_SAMPLES, seed=seed)))
    for family in by_catalog(coadjoint.RANK_CONDITION_FAMILIES):
        out.append(
            (family, verify.rank_agreement_result(family, samples=RANK_SAMPLES, seed=seed))
        )
    for family in ("G4", "G12", "G13"):
        out.append(
            (
                family,
                verify.golden_exponential_result(
                    family, samples=100, seed=seed, tol=EXPONENTIAL_TOL
                ),
            )
        )
    for family in verify.CONSTANCY_FAMILIES:
        params = verify.REPRESENTATIVE_PARAMS[family]
        out.append(
            (
                family,
                verify.invariant_constancy_result(
                    family, params, functionals=50, group_samples=200, seed=seed,
                    tol=CONSTANCY_TOL,
                ),
            )
        )
    for family in by_catalog(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        out.append(
            (
                family,
                verify.distribution_result(
                    family, params, samples=1000, seed=seed, rank_tol=SPAN_TOL
                ),
            )
        )
        out.append(
            (
                family,
                verify.involutivity_result(family, params, samples=1000, seed=seed, tol=SPAN_TOL),
            )
        )
    for family in families:
        params = verify.REPRESENTATIVE_PARAMS[family]
        out.append(
            (
                family,
                verify.measure_invariance_result(
                    family, params, samples=1000, seed=seed, tol=MEASURE_TOL
                ),
            )
        )
    for family, params in FLOW_PARAMS.items():
        out.append(
            (family, verify.flow_result(family, params, starts=100, seed=seed, tol=FLOW_TOL))
        )
    out.append(("catalog", verify.check_classification()))
    for name in sorted(topology.LEAF_MAP_NAMES, key=lambda s: int(s[1:])):
        out.append(
            (name, verify.leaf_roundtrip_result(name, samples=200, seed=seed, tol=ROUNDTRIP_TOL))
        )
    for name in verify.RESIDUAL_MAPS:
        out.append(
            (name, verify.leaf_residual_result(name, samples=1000, seed=seed, tol=RESIDUAL_TOL))
        )
    for name in sorted(verify.DERIVED_MAPS, key=lambda s: int(s[1:])):
        out.append(
            (
                name,
                verify.leaf_constancy_result(
                    name, functionals=50, group_samples=200, seed=seed, tol=CONSTANCY_TOL
                ),
            )
        )
    out.append(("types", verify.check_fibration(samples=1000, seed=seed, tol=GRADIENT_FLOOR)))
    out.append(("G4", verify.check_orbit_boundary(tol=1.0)))
    return out


class Acceptance(Workload):
    """The acceptance campaigns, called through ``korbit.verify``: large-batch
    SVD rank and exact Jacobi sums dominate."""

    name = "acceptance"

    def run(self, seed: int) -> PassOutcome:
        return gate_checks((where, vars(r)) for where, r in acceptance_checks(seed))


class OrbitBatch(Workload):
    """``korbit orbit`` at scale: for every family at its representative
    parameters, 10k orbit points through a seed-drawn functional, their
    orbit dimensions, and det against exp(trace ad) on 10k group elements.
    No flow and no Jacobi work."""

    name = "orbit-batch"

    def inputs(self, k: int) -> tuple[int, list[tuple[str, tuple, np.ndarray, np.ndarray]]]:
        s = subseed(self.seed, k)
        gen = np.random.default_rng([s, 0x6F726269])
        items = []
        for family in catalog.FAMILIES:
            f = gen.uniform(-rng.FUNCTIONAL_RADIUS, rng.FUNCTIONAL_RADIUS, 7)
            u = gen.uniform(
                -rng.COORDINATE_RADIUS, rng.COORDINATE_RADIUS, (JACOBIAN_ELEMENTS, 7)
            )
            items.append((family, verify.REPRESENTATIVE_PARAMS[family], f, u))
        return s, items

    def run(self, inputs: tuple[int, list]) -> PassOutcome:
        seed, items = inputs
        problems: list[str] = []
        n_evaluated = 0
        headroom = 0.0
        for family, params, f, u in items:
            algebra = catalog.build(family, params)
            points = coadjoint.sample_orbit(algebra, f, ORBIT_POINTS, seed)
            base = int(coadjoint.orbit_dimension(algebra, f))
            dims = np.asarray(coadjoint.orbit_dimension(algebra, points))
            off = int(np.count_nonzero(dims != base))
            if off:
                problems.append(f"{family}: {off} orbit point(s) off orbit dimension {base}")
            det, exp_trace = coadjoint.jacobian_check(algebra, u)
            gap = float(np.max(np.abs(det - exp_trace) / np.abs(exp_trace)))
            if not gap <= MEASURE_TOL:
                problems.append(f"{family}: det against exp(trace ad) gap {gap:.3e}")
            headroom = max(headroom, gap / MEASURE_TOL)
            n_evaluated += points.shape[0] + u.shape[0]
        return PassOutcome(n_evaluated, headroom, problems, checks=2 * len(items))


WORKLOADS = {w.name: w for w in (VerifyAll, Acceptance, OrbitBatch)}
