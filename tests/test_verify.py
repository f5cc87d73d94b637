"""The campaign tally's worst-sample rule, and which checks of a fixed-seed
suite record no worst sample."""
from __future__ import annotations

import math

import numpy as np
import pytest

from korbit import verify
from korbit.verify import _Tally

POINTS = np.arange(21.0).reshape(3, 7)


def test_empty_batch_is_a_no_op():
    tally = _Tally()
    tally.fold(np.empty(0), np.empty((0, 7)))
    assert (tally.worst, tally.sample, tally.count) == (0.0, None, 0)
    tally.fold(np.array([0.5, 2.0, 1.0]), POINTS)
    tally.fold(np.empty(0), np.empty((0, 7)))
    assert (tally.worst, tally.sample, tally.count) == (2.0, tuple(POINTS[1]), 3)


def test_first_batch_records_even_at_zero_residual():
    tally = _Tally()
    tally.fold(np.zeros(3), POINTS)
    assert tally.worst == 0.0
    assert tally.sample == tuple(POINTS[0])
    assert tally.count == 3


def test_equal_residual_keeps_the_earlier_sample():
    tally = _Tally()
    tally.fold(np.array([0.0, 3.0, 1.0]), POINTS)
    tally.fold(np.array([3.0, 2.0, 3.0]), POINTS[::-1])
    assert tally.worst == 3.0
    assert tally.sample == tuple(POINTS[1])
    tally.fold(np.array([3.5]), POINTS[2:])
    assert (tally.worst, tally.sample, tally.count) == (3.5, tuple(POINTS[2]), 7)


def test_nan_wins_and_the_first_nan_is_kept():
    tally = _Tally()
    tally.fold(np.array([1.0, 2.0, 0.0]), POINTS)
    tally.fold(np.array([1.0, np.nan, np.nan]), POINTS)
    assert math.isnan(tally.worst) and tally.sample == tuple(POINTS[1])
    tally.fold(np.array([np.inf]), POINTS[:1])
    tally.fold(np.array([np.nan]), POINTS[2:])
    assert math.isnan(tally.worst) and tally.sample == tuple(POINTS[1])
    assert not tally.result("nan", 1.0).passed


def test_grid_batch_picks_the_point_of_the_worst_column():
    """A (group x functional) residual grid broadcasts the points over its
    rows, and ``evaluated`` counts only the entries that were evaluated."""
    residual = np.zeros((4, 3))
    residual[2, 1] = 0.25
    tally = _Tally()
    tally.fold(residual, POINTS, evaluated=5)
    assert (tally.worst, tally.sample, tally.count) == (0.25, tuple(POINTS[1]), 5)


def test_result_defaults_passed_to_worst_within_tolerance():
    tally = _Tally()
    tally.fold(np.array([1e-8]), POINTS[:1])
    check = tally.result("probe", 1e-7)
    assert check == verify.CheckResult(
        name="probe",
        passed=True,
        max_residual=1e-8,
        tolerance=1e-7,
        n_evaluated=1,
        worst_sample=tuple(POINTS[0]),
    )
    assert not tally.result("probe", 1e-9).passed
    assert tally.result("probe", 1e-9, passed=True, graded=True).passed
    assert _Tally().result("empty").passed


#: Checks of the seed-0 suite at the representative parameters that record
#: no worst sample: the Jacobi sums (exact, no points), the unsupported
#: checks, and the failure-count checks when nothing fails.  Every other
#: check records one, including G1's constancy checks and G15's and G16's
#: involutivity, whose residuals are zero.
NULL_SAMPLE_CHECKS = {
    "G1": {
        "jacobi", "golden_pairing", "rank_agreement", "golden_exponential",
        "distribution_span", "flow_equivalence",
    },
    "G4": {"jacobi", "golden_pairing", "rank_agreement", "distribution_span"},
    "G15": {
        "jacobi", "golden_pairing", "rank_agreement", "golden_exponential",
        "distribution_span", "flow_equivalence",
    },
    "G16": {
        "jacobi", "golden_pairing", "rank_agreement", "golden_exponential",
        "distribution_span", "flow_equivalence",
    },
}


@pytest.mark.parametrize("family", sorted(NULL_SAMPLE_CHECKS))
def test_suite_checks_without_a_worst_sample(family):
    results = verify.run_family_suite(family, verify.REPRESENTATIVE_PARAMS[family], seed=0)
    assert {r.name for r in results if r.worst_sample is None} == NULL_SAMPLE_CHECKS[family]

