"""End-to-end acceptance gate for the verification engine.

Each test runs one full-volume verification campaign and prints a single
pass/fail line, so the suite output doubles as a campaign report. Graded
checks report findings without failing the gate.
"""
from __future__ import annotations

from fractions import Fraction

from korbit import catalog, verify

HALF = Fraction(1, 2)

PAIRING_FAMILIES = (
    "G1", "G4", "G5", "G6", "G7", "G8", "G11", "G12", "G13", "G14", "G15", "G16",
)
RANK_SAMPLES = 10_000
EXPONENTIAL_TOL = 1e-10
CONSTANCY_TOL = 1e-7
SPAN_TOL = 1e-9
MEASURE_TOL = 1e-10
FLOW_TOL = 1e-6
ROUNDTRIP_TOL = 1e-10
RESIDUAL_TOL = 1e-8
GRADIENT_FLOOR = 1e-6

FLOW_PARAMS = {"G4": (0, 2), "G12": (HALF,), "G13": (HALF,)}


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_criterion_jacobi_exactness():
    """Every family is exactly a Lie algebra at 100 rational draws."""
    worst = 0
    total = 0
    for family in catalog.FAMILIES:
        result = verify.jacobi_result(family, draws=100)
        worst = max(worst, result.max_residual)
        total += result.n_evaluated
    passed = worst == 0
    _report("jacobi-exactness", passed, f"16 families x 100 draws, worst residual {worst}")
    assert passed


def test_criterion_kirillov_form_match():
    """Computed pairing matrices equal the cataloged closed forms."""
    failed = []
    total = 0
    for family in PAIRING_FAMILIES:
        result = verify.golden_pairing_result(family)
        total += result.n_evaluated
        if not result.passed:
            failed.append(family)
    passed = not failed
    _report(
        "kirillov-form-match",
        passed,
        f"{len(PAIRING_FAMILIES)} families, {total} entries coefficient-exact"
        + (f"; mismatches in {failed}" if failed else ""),
    )
    assert passed, failed


def test_criterion_maximal_rank_six():
    """Orbit dimension is capped at six and attains six, never seven."""
    worst = 0.0
    attained_everywhere = True
    for family in catalog.FAMILIES:
        result = verify.rank_bound_result(family, samples=RANK_SAMPLES)
        worst = max(worst, result.max_residual)
        attained_everywhere &= result.passed
    passed = worst == 0.0 and attained_everywhere
    _report(
        "maximal-rank-six",
        passed,
        f"16 families x {RANK_SAMPLES} functionals, overshoot {worst}",
    )
    assert passed


def test_criterion_rank_predicate_agreement():
    """Closed-form full-rank predicates agree with numeric rank,
    including planted boundary probes."""
    disagreements = 0
    total = 0
    for family in sorted(verify.coadjoint.RANK_CONDITION_FAMILIES, key=catalog.FAMILIES.index):
        result = verify.rank_agreement_result(family, samples=RANK_SAMPLES)
        disagreements += int(result.max_residual)
        total += result.n_evaluated
    passed = disagreements == 0
    _report(
        "rank-predicate-agreement",
        passed,
        f"12 families, {total} samples with boundary probes, {disagreements} disagreements",
    )
    assert passed


def test_criterion_exponential_entry_match():
    """Cataloged group-exponential entries match the numeric matrix
    exponential to relative 1e-10."""
    worst = 0.0
    total = 0
    for family in ("G4", "G12", "G13"):
        result = verify.golden_exponential_result(family, samples=100, tol=EXPONENTIAL_TOL)
        worst = max(worst, result.max_residual)
        total += result.n_evaluated
        assert result.passed, (family, result.max_residual)
    passed = worst <= EXPONENTIAL_TOL
    _report(
        "exponential-entry-match",
        passed,
        f"G4/G12/G13, {total} entry checks, worst relative residual {worst:.3e}",
    )
    assert passed


def test_criterion_orbit_invariant_constancy():
    """The orbit invariant is constant along coadjoint orbits for every
    family that has one, printed or derived."""
    worst = 0.0
    for family in verify.CONSTANCY_FAMILIES:
        params = verify.REPRESENTATIVE_PARAMS[family]
        result = verify.invariant_constancy_result(
            family, params, functionals=50, group_samples=200, tol=CONSTANCY_TOL
        )
        worst = max(worst, result.max_residual)
        assert result.passed, (family, result.max_residual)
    passed = worst <= CONSTANCY_TOL
    _report(
        "orbit-invariant-constancy",
        passed,
        f"{len(verify.CONSTANCY_FAMILIES)} families, 50 functionals x 200 group "
        f"elements each, worst relative drift {worst:.3e}",
    )
    assert passed


def test_criterion_foliation_generation():
    """The cataloged vector fields span the orbit tangent distribution
    and close under brackets, as exact identities for every point and
    parameter value."""
    worst_span = 0.0
    worst_bracket = 0.0
    for family in sorted(verify.foliation.SYSTEM_FAMILIES, key=catalog.FAMILIES.index):
        params = verify.REPRESENTATIVE_PARAMS[family]
        span = verify.distribution_result(family, params, samples=1000, rank_tol=SPAN_TOL)
        brackets = verify.involutivity_result(family, params, samples=1000, tol=SPAN_TOL)
        worst_span = max(worst_span, span.max_residual)
        worst_bracket = max(worst_bracket, brackets.max_residual)
        assert span.passed and brackets.passed, family
        assert (span.n_evaluated, brackets.n_evaluated) == (7, 15), family
    passed = worst_span == 0.0 and worst_bracket == 0.0
    _report(
        "foliation-generation",
        passed,
        f"12 families x (7 span + 15 bracket) exact identities, "
        f"most failing {int(worst_span)} span and {int(worst_bracket)} bracket",
    )
    assert passed


def test_criterion_measure_invariance():
    """The coadjoint map scales Lebesgue measure by exp(trace ad),
    a constant in the functional."""
    worst = 0.0
    for family in catalog.FAMILIES:
        params = verify.REPRESENTATIVE_PARAMS[family]
        result = verify.measure_invariance_result(family, params, samples=1000, tol=MEASURE_TOL)
        worst = max(worst, result.max_residual)
        assert result.passed, (family, result.max_residual)
    passed = worst <= MEASURE_TOL
    _report(
        "measure-invariance",
        passed,
        f"16 families x 1000 group elements, worst relative residual {worst:.3e}",
    )
    assert passed


def test_criterion_flow_equivalence():
    """Closed-form flows match Runge-Kutta integration of the same
    fields over a unit time window."""
    worst = 0.0
    total = 0
    for family, params in FLOW_PARAMS.items():
        result = verify.flow_result(family, params, starts=100, tol=FLOW_TOL)
        worst = max(worst, result.max_residual)
        total += result.n_evaluated
        assert result.passed, (family, result.max_residual)
    passed = worst <= FLOW_TOL
    _report(
        "flow-equivalence",
        passed,
        f"G4/G12/G13, {total} trajectory endpoints, worst deviation {worst:.3e}",
    )
    assert passed


def test_criterion_topological_classification():
    """Classification counts, leaf-map round trips, leaf-map residuals,
    derived-invariant constancy, and fibration submersion floors."""
    problems: list[str] = []
    findings: list[str] = []

    classification = verify.check_classification()
    if not classification.passed:
        problems.append("classification")

    for name in sorted(verify.topology.LEAF_MAP_NAMES, key=lambda s: int(s[1:])):
        result = verify.leaf_roundtrip_result(name, samples=200, tol=ROUNDTRIP_TOL)
        if not result.passed:
            problems.append(f"roundtrip {name}")

    for name in verify.RESIDUAL_MAPS:
        result = verify.leaf_residual_result(name, samples=1000, tol=RESIDUAL_TOL)
        if not result.passed:
            problems.append(f"residual {name}")

    for name in sorted(verify.DERIVED_MAPS, key=lambda s: int(s[1:])):
        result = verify.leaf_constancy_result(
            name, functionals=50, group_samples=200, tol=CONSTANCY_TOL
        )
        if result.passed:
            continue
        if result.graded:
            findings.append(f"{name} drift {result.max_residual:.3e}")
        else:
            problems.append(f"constancy {name}")

    fibration = verify.check_fibration(samples=1000, tol=GRADIENT_FLOOR)
    if not fibration.passed:
        problems.append("fibration gradient floor")

    passed = not problems
    detail = "counts 11/1/4, 11 round trips, 3 residual checks, 7 constancy checks, 3 fibrations"
    if findings:
        detail += "; graded findings: " + "; ".join(findings)
    if problems:
        detail += "; failures: " + ", ".join(problems)
    _report("topological-classification", passed, detail)
    assert passed, problems


def test_criterion_orbit_type_discontinuity():
    """Shrinking one coordinate to zero flips the orbit type while the
    orbit invariant stays bounded."""
    result = verify.check_orbit_boundary(tol=1.0)
    _report(
        "orbit-type-discontinuity",
        result.passed,
        f"orbit types flip at the boundary; largest invariant magnitude "
        f"{result.max_residual} stays within {result.tolerance}",
    )
    assert result.passed, result.details
