"""The campaign tally's worst-sample rule, which checks of a fixed-seed
suite record no worst sample, how the foliation checks decided their
points, the leaf-map campaign lists, which checks each family's record
supports, the constancy and round-trip campaigns against their masked and
per-batch oracles, and the Jacobi certificate."""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbit import catalog, coadjoint, foliation, rng, topology, verify
from korbit.catalog import ClosedForm
from korbit.liecore import UnsupportedFamilyError, verify_jacobi
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
    assert not _Tally().result("empty").passed


def test_a_check_that_evaluates_nothing_fails():
    """At one sample, G13's single functional keeps none of its orbit pairs."""
    results = verify.run_family_suite("G13", verify.REPRESENTATIVE_PARAMS["G13"], samples=1)
    check = next(r for r in results if r.name == "orbit_constancy")
    assert check.n_evaluated == 0
    assert not check.passed


@pytest.mark.parametrize(
    "campaign, kwargs",
    [
        (verify.rank_bound_result, {"params_list": ()}),
        (verify.rank_agreement_result, {"params_list": ()}),
        (verify.golden_exponential_result, {"params_list": ()}),
        (verify.golden_exponential_result, {"samples": 0}),
    ],
    ids=["bound-no-grid", "agreement-no-grid", "exp-no-grid", "exp-no-samples"],
)
def test_a_grid_campaign_on_nothing_fails_without_raising(campaign, kwargs):
    """An empty parameter grid or a zero sample count evaluates nothing,
    which is a failed check, not an exception."""
    check = campaign("G4", **kwargs)
    assert check.status == "fail"
    assert check.n_evaluated == 0
    if check.name == "rank_bound":
        assert check.details == "no functional evaluated"


#: Checks of the seed-0 suite at the representative parameters that record
#: no worst sample: the exact certificates (the Jacobi sums, span and
#: involutivity, which draw no point), the unsupported checks, and the
#: failure-count checks when nothing fails.  Every other check records one,
#: including G1's constancy checks, whose residuals are zero.
NULL_SAMPLE_CHECKS = {
    "G1": {
        "jacobi", "golden_pairing", "rank_agreement", "golden_exponential",
        "distribution_span", "involutivity", "flow_equivalence",
    },
    "G4": {"jacobi", "golden_pairing", "rank_agreement", "distribution_span", "involutivity"},
    "G15": {
        "jacobi", "golden_pairing", "rank_agreement", "golden_exponential",
        "distribution_span", "involutivity", "flow_equivalence",
    },
    "G16": {
        "jacobi", "golden_pairing", "rank_agreement", "golden_exponential",
        "distribution_span", "involutivity", "flow_equivalence",
    },
}


@pytest.mark.parametrize("family", sorted(NULL_SAMPLE_CHECKS))
def test_suite_checks_without_a_worst_sample(family):
    results = verify.run_family_suite(family, verify.REPRESENTATIVE_PARAMS[family], seed=0)
    assert {r.name for r in results if r.worst_sample is None} == NULL_SAMPLE_CHECKS[family]


def test_foliation_checks_report_their_exact_identities():
    """The span and involutivity checks evaluate one identity each, seven
    and fifteen, name every one and the sign of n, and count failures
    against tolerance zero; the sample volume does not enter."""
    params = verify.REPRESENTATIVE_PARAMS["G13"]
    span = verify.distribution_result("G13", params, samples=200)
    brackets = verify.involutivity_result("G13", params, samples=200)
    assert span.details == (
        "exact identities in x1..x7 and (λ), where n = −p ≢ 0: F1·p ≡ 0, F2·p ≡ 0, "
        "F3·p ≡ 0, F4·p ≡ 0, F5·p ≡ 0, F6·p ≡ 0, n = ±p ≢ 0; 0 of 7 fail"
    )
    pairs = ", ".join(f"[F{i}, F{j}]·n ≡ 0" for i in range(1, 7) for j in range(i + 1, 7))
    assert brackets.details == (
        f"exact identities in x1..x7 and (λ), where n = −p ≢ 0: {pairs}; 0 of 15 fail"
    )
    assert (span.n_evaluated, brackets.n_evaluated) == (7, 15)
    for result in (span, brackets):
        assert result.passed and result.max_residual == result.tolerance == 0.0
        assert result.worst_sample is None
    assert verify.distribution_result("G13", params, samples=5, rank_tol=1e-13) == span
    g1 = verify.distribution_result("G1", verify.REPRESENTATIVE_PARAMS["G1"])
    assert g1.details.startswith("exact identities in x1..x7 and (λ), where n = +p ≢ 0: ")
    g5 = verify.involutivity_result("G5", ())
    assert g5.details.startswith("exact identities in x1..x7, where n = −p ≢ 0: [F1, F2]")


def test_leaf_map_views_keep_their_order():
    """The campaign lists derived from the leaf-map records, in the order
    the acceptance suite iterates them."""
    assert verify.RESIDUAL_MAPS == ("h2", "h7", "h8")
    assert verify.DERIVED_MAPS == ("h1", "h3", "h4", "h5", "h9", "h10", "h11")
    assert verify.CONSTANCY_FAMILIES == (
        "G4", "G12", "G13", "G1", "G7", "G8", "G11", "G14", "G15", "G16",
    )


#: Every campaign whose guard reads the family's record, at a small volume,
#: with the closed form the guard asks for.
GUARDED = {
    "golden_pairing": (
        ClosedForm.PAIRING, lambda family, params: verify.golden_pairing_result(family, (params,))
    ),
    "rank_agreement": (
        ClosedForm.PREDICATE,
        lambda family, params: verify.rank_agreement_result(
            family, (params,), samples=40, probes_per_pattern=4
        ),
    ),
    "golden_exponential": (
        ClosedForm.EXPONENTIAL,
        lambda family, params: verify.golden_exponential_result(family, (params,), samples=4),
    ),
    "invariant_constancy": (
        ClosedForm.INVARIANT,
        lambda family, params: verify.invariant_constancy_result(family, params, 8, 8),
    ),
    "orbit_constancy": (
        ClosedForm.INVARIANT,
        lambda family, params: verify.orbit_constancy_result(family, params, 8),
    ),
    "distribution_span": (
        ClosedForm.FIELDS, lambda family, params: verify.distribution_result(family, params, 20)
    ),
    "involutivity": (
        ClosedForm.FIELDS, lambda family, params: verify.involutivity_result(family, params, 20)
    ),
    "flow_equivalence": (
        ClosedForm.FLOWS,
        lambda family, params: verify.flow_result(family, params, starts=4, steps=16),
    ),
}


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_availability_is_pinned_to_the_record(family):
    """Each guarded check is unsupported, quoting the form's text, exactly
    when the family's record lacks the form, and each closed-form function
    raises UnsupportedFamilyError exactly then."""
    params = verify.REPRESENTATIVE_PARAMS[family]
    for name, (form, campaign) in GUARDED.items():
        result = campaign(family, params)
        assert result.name == name
        assert result.skipped == (not catalog.has(family, form)), (name, result)
        if result.skipped:
            assert result.details == (
                f"unsupported: no closed-form {form.value} is cataloged for this family"
            )
    v = np.array([[1.0, 0.5, -0.7, 0.9, 1.1, 0.2, 0.3]])
    functions = {
        ClosedForm.PREDICATE: (
            lambda: coadjoint.rank_condition(family, v),
            lambda: coadjoint.condition_margin(family, v),
        ),
        ClosedForm.FIELDS: (lambda: foliation.system_fields(family, params),),
        ClosedForm.INVARIANT: (lambda: foliation.invariant(family, params, v),),
        ClosedForm.FLOWS: (lambda: foliation.flow_closed(family, params, 2, 0.5, v),),
    }
    for form, calls in functions.items():
        for call in calls:
            if catalog.has(family, form):
                call()
            else:
                with pytest.raises(UnsupportedFamilyError, match=form.value):
                    call()


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_an_unknown_family_raises_instead_of_skipping(name):
    with pytest.raises(UnsupportedFamilyError, match="G99"):
        GUARDED[name][1]("G99", ())


def test_leaf_campaigns_follow_the_map_record():
    """A leaf campaign is unsupported exactly when the map's record names
    another check, and an unknown map name raises."""
    for name in topology.LEAF_MAP_NAMES:
        check = topology.leaf_map(name).check
        residual = verify.leaf_residual_result(name, samples=20)
        constancy = verify.leaf_constancy_result(name, functionals=4, group_samples=4)
        assert residual.skipped == (check != "residual"), name
        assert constancy.skipped == (check != "constancy"), name
    for campaign in (
        verify.leaf_residual_result, verify.leaf_constancy_result, verify.leaf_roundtrip_result
    ):
        with pytest.raises(ValueError, match="h99"):
            campaign("h99")


@pytest.mark.parametrize("family, invariant, orbit", [("G13", 7441, 99), ("G16", 7397, 187)])
def test_branch_locus_constancy_counts_are_pinned(family, invariant, orbit):
    """The seed-0 sample counts of the two constancy campaigns on the
    branch-locus families.  The branch filter pairs each group element
    with each functional; pairing them any other way keeps other pairs."""
    params = verify.REPRESENTATIVE_PARAMS[family]
    assert verify.invariant_constancy_result(family, params, seed=0).n_evaluated == invariant
    assert verify.orbit_constancy_result(family, params, seed=0).n_evaluated == orbit


def test_orbit_boundary_reports_the_functional_of_its_largest_invariant():
    """The worst sample is the functional whose invariant magnitude is the
    residual, not the boundary functional where it is never evaluated."""
    result = verify.check_orbit_boundary()
    assert result.passed
    assert result.max_residual == 0.25
    assert result.worst_sample == (1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.0)
    assert result.n_evaluated == 7



def _masked_constancy(algebra, f, u, value, locus=None, extra=None):
    """verify._constancy_campaign with boolean masks over the grid: the
    oracle of the indexed campaign."""
    tally = _Tally()
    if f.size == 0:
        return tally
    images = coadjoint.coadjoint_act(algebra, u, f)
    keep = topology.boundary_margin(topology.manifold_of(algebra.family), images) > verify.MARGIN
    if extra is not None:
        keep &= extra(images)
    if locus is not None:
        keep &= verify.same_branch(f, u, locus)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        base = value(f)
        moved = np.full(keep.shape, np.nan)
        if np.any(keep):
            moved[keep] = value(images[keep])
    spread = np.broadcast_to(base, keep.shape)
    ok = keep & np.isfinite(moved) & np.isfinite(spread)
    residual = np.zeros(keep.shape)
    residual[ok] = np.abs(moved[ok] - spread[ok]) / (1.0 + np.abs(spread[ok]))
    evaluated = int(np.count_nonzero(ok))
    if evaluated:
        tally.fold(residual, f, evaluated)
    return tally


def _masked_derived_value(map_obj):
    """verify._derived_value with a boolean mask over the preimages."""
    src_manifold = topology.manifold_of(map_obj.source)

    def value(points):
        pre = map_obj.invert(points)
        good = topology.boundary_margin(src_manifold, pre) > verify.MARGIN
        out = np.full(points.shape[:-1], np.nan)
        if np.any(good):
            out[good] = foliation.invariant(map_obj.source, map_obj.source_params, pre[good])
        return out

    return value


def _constancy_runs(seed):
    """The three constancy campaigns at ``seed``, every family or map they
    evaluate, at their default volumes."""
    for family in catalog.FAMILIES:
        if catalog.has(family, ClosedForm.INVARIANT):
            params = verify.REPRESENTATIVE_PARAMS[family]
            yield verify.invariant_constancy_result(family, params, seed=seed)
            yield verify.orbit_constancy_result(family, params, seed=seed)
    for name in verify.DERIVED_MAPS:
        yield verify.leaf_constancy_result(name, seed=seed)


def test_indexed_constancy_equals_the_masked_tally(monkeypatch):
    """Gathering the kept images by one flat index gives the worst residual,
    its sample and the count of the boolean-mask campaign, for every
    constancy campaign at seeds 0-3."""
    for seed in range(4):
        indexed = list(_constancy_runs(seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_constancy_campaign", _masked_constancy)
            patch.setattr(verify, "_derived_value", _masked_derived_value)
            masked = list(_constancy_runs(seed))
        assert len(indexed) == len(masked) == 29
        assert [vars(r) for r in indexed] == [vars(r) for r in masked], seed


def _planted_values(kind):
    """G13's printed invariant with planted NaN and inf values, with finite
    values whose differences overflow, or with no finite value at all."""
    printed = verify._printed_value("G13", verify.REPRESENTATIVE_PARAMS["G13"])

    def value(points):
        out = np.array(printed(points), dtype=float)
        if kind == "non-finite":
            out[points[:, 0] > 1.0] = np.nan
            out[points[:, 1] < -1.0] = np.inf
        elif kind == "overflow":
            out[:] = np.where(points[:, 2] > 0, 1.5e308, -1.5e308)
        elif kind == "dropped":
            out[:] = np.nan
        return out

    return value


@pytest.mark.parametrize("kind", ["printed", "non-finite", "overflow", "dropped", "rejected"])
def test_indexed_constancy_equals_the_masked_tally_on_planted_values(kind):
    """Non-finite values drop their pairs, an overflowing difference of
    finite values stays counted as an infinite residual, and a grid where
    every pair is dropped, by its values or by ``extra``, counts nothing
    and fails: the same under both gathers."""
    family = "G13"
    params = verify.REPRESENTATIVE_PARAMS[family]
    algebra = catalog.build(family, params)
    f = verify._generic_functionals(family, params, 5, 0, "invariant", None)
    u = rng.sample_coordinates(0, 40, "invariant-u", family, *params)
    locus = catalog.record(family).locus
    value = _planted_values(kind)
    extra = (lambda images: np.zeros(images.shape[:-1], dtype=bool)) if kind == "rejected" else None
    with np.errstate(over="ignore"):
        indexed = verify._constancy_campaign(algebra, f, u, value, locus, extra)
        masked = _masked_constancy(algebra, f, u, value, locus, extra)
    assert (indexed.worst, indexed.sample, indexed.count) == (
        masked.worst, masked.sample, masked.count,
    )
    kept = verify._constancy_campaign(algebra, f, u, _planted_values("printed"), locus).count
    expected = {"printed": kept, "overflow": kept, "dropped": 0, "rejected": 0}
    assert indexed.count == expected.get(kind, indexed.count)
    if kind == "non-finite":
        assert 0 < indexed.count < kept
    if kind == "overflow":
        assert indexed.worst == math.inf
    assert indexed.result("planted", 1e-7).passed == (kind in ("printed", "non-finite"))


def test_an_overflowing_difference_counts_as_an_infinite_residual():
    """Finite values whose difference overflows give an inf residual, with
    no RuntimeWarning (an error under this suite's settings) on the way."""
    family = "G13"
    params = verify.REPRESENTATIVE_PARAMS[family]
    algebra = catalog.build(family, params)
    f = verify._generic_functionals(family, params, 5, 0, "invariant", None)
    u = rng.sample_coordinates(0, 40, "invariant-u", family, *params)
    locus = catalog.record(family).locus
    tally = verify._constancy_campaign(algebra, f, u, _planted_values("overflow"), locus)
    assert tally.worst == math.inf
    assert tally.count == verify._constancy_campaign(
        algebra, f, u, _planted_values("printed"), locus
    ).count


def _batched_roundtrip(map_name, samples, seed, tol=1e-10):
    """verify.leaf_roundtrip_result folding each planted batch on its own:
    the oracle of the one-batch round trip."""
    map_obj = topology.leaf_map(map_name)
    tally = _Tally()
    for direction in ("forward", "inverse"):
        points = rng.sample_coordinates(
            seed, samples, f"roundtrip-{direction}", map_name, *map_obj.params
        )
        batches = [points[map_obj.margin(points) > verify.MARGIN]]
        if map_obj.manifold is topology.Manifold.V3:
            for zero, other in ((3, 4), (4, 3)):
                planted = np.array(points, copy=True)
                planted[:, zero] = 0.0
                batches.append(planted[np.abs(planted[:, other]) > verify.MARGIN])
        for batch in batches:
            if batch.size == 0:
                continue
            if direction == "forward":
                back = map_obj.invert(map_obj.apply(batch))
            else:
                pre = map_obj.invert(batch)
                ok = topology.boundary_margin(map_obj.manifold, pre) > verify.MARGIN
                batch, pre = batch[ok], pre[ok]
                if batch.size == 0:
                    continue
                back = map_obj.apply(pre)
            residual = np.abs(back - batch).max(axis=-1) / (1.0 + np.abs(batch).max(axis=-1))
            tally.fold(residual, batch)
    return tally.result(f"leaf_roundtrip_{map_name}", tol)


def test_one_roundtrip_fold_equals_the_per_batch_folds():
    for name in topology.LEAF_MAP_NAMES:
        for seed in range(4):
            result = verify.leaf_roundtrip_result(name, seed=seed)
            assert vars(result) == vars(_batched_roundtrip(name, 200, seed)), (name, seed)


@pytest.mark.parametrize("nan", [False, True])
def test_one_roundtrip_fold_keeps_the_first_batch_on_a_tie_and_a_later_nan(nan, monkeypatch):
    """The x4 = 0 and x5 = 0 copies of one forward point of h11 both
    recover x1 as inf, a tie across two batches that the earlier wins;
    NaNs planted in both copies of a later point outrank it, and the first
    is kept.  The one-batch fold and the per-batch folds report the same
    worst sample."""
    name, seed = "h11", 0
    map_obj = topology.leaf_map(name)
    points = rng.sample_coordinates(seed, 200, "roundtrip-forward", name, *map_obj.params)
    clear = np.flatnonzero(np.minimum(np.abs(points[:, 3]), np.abs(points[:, 4])) > verify.MARGIN)
    tie, late = points[clear[0]], points[clear[1]]
    invert = topology.LeafMap.invert

    def planted(self, v):
        out = invert(self, v)
        copies = (v[:, 3] == 0.0) | (v[:, 4] == 0.0)
        out[copies & (v[:, 0] == tie[0]), 0] = np.inf
        if nan:
            out[copies & (v[:, 0] == late[0]), 0] = np.nan
        return out

    monkeypatch.setattr(topology.LeafMap, "invert", planted)
    result = verify.leaf_roundtrip_result(name, seed=seed)
    assert repr(result) == repr(_batched_roundtrip(name, 200, seed))
    worst = late if nan else tie
    assert result.worst_sample == (*worst[:3], 0.0, *worst[4:])
    assert math.isnan(result.max_residual) if nan else result.max_residual == math.inf


def _planting(entry):
    """derivation_pair with ``entry(params)`` added to the e1 coefficient of
    [e6, e7] in G8, which breaks the Jacobi identity."""
    original = catalog.derivation_pair

    def derivation_pair(family, params):
        a, b, central = original(family, params)
        if family == "G8":
            central[0] = central[0] + entry(params)
        return a, b, central

    return derivation_pair


def _plant(patch, derivation_pair):
    """Put derivation_pair in place of the catalog's, with an empty algebra
    cache and an empty Jacobiator cache, so no algebra or polynomial
    derived before the plant masks it; the patch's undo restores the real
    caches, which never saw the plant."""
    patch.setattr(catalog, "derivation_pair", derivation_pair)
    patch.setattr(catalog, "_shared", functools.lru_cache(typed=True)(catalog._shared.__wrapped__))
    patch.setattr(
        verify, "_jacobi_polynomials", functools.cache(verify._jacobi_polynomials.__wrapped__)
    )


def _admitted(family, params):
    """Whether catalog.validate_params accepts the parameter point."""
    try:
        catalog.validate_params(family, params)
    except catalog.ParameterError:
        return False
    return True


def _draws(family, draws, seed):
    """The Jacobi campaign's parameter draws, one gen.integers call per
    numerator and denominator: the oracle of verify._rational_draws."""
    gen = rng.generator(seed, "jacobi", family)
    arity = catalog.PARAM_ARITY[family]
    trials = []
    while len(trials) < draws:
        trial = tuple(
            Fraction(int(gen.integers(-6, 7)), int(gen.integers(1, 7))) for _ in range(arity)
        )
        if _admitted(family, trial):
            trials.append(trial)
    return trials


def test_block_draws_are_the_scalar_draws():
    """The block draws read the stream as one call per numerator and
    denominator would, rejections included (half of G13's and G16's
    draws fail lambda >= 0)."""
    for family in catalog.FAMILIES:
        for seed in range(12):
            gen = rng.generator(seed, "jacobi", family)
            assert verify._rational_draws(family, gen, 100) == _draws(family, 100, seed), (
                family, seed,
            )


def test_certificate_values_equal_the_loop_at_a_planted_fault(monkeypatch):
    """A bracket affine in lambda gives nonzero Jacobiator polynomials; each
    draw's residual is verify_jacobi's, the worst draw is reported, and
    the loop cross-check runs at the first draw."""
    _plant(monkeypatch, _planting(lambda p: p[0]))
    result = verify.jacobi_result("G8", draws=40, seed=3)
    draws = _draws("G8", 40, 3)
    loops = [verify_jacobi(catalog.build("G8", d))[0] for d in draws]
    assert not result.passed
    assert result.n_evaluated == 40
    assert result.max_residual == float(max(loops)) > 0
    assert result.worst_sample == tuple(map(float, draws[loops.index(max(loops))]))
    assert f"verify_jacobi loop cross-check at ({draws[0][0]}) agrees" in result.details
    polynomials, bound = verify._jacobi_polynomials("G8")
    assert polynomials and bound == 2
    for lam in (Fraction(0), Fraction(1, 2), Fraction(3)):
        value = verify._jacobi_residual(polynomials, (lam,))
        assert value == verify_jacobi(catalog.build("G8", (lam,)))[0]


def test_a_quadratic_bracket_fails_at_the_loop_residuals(monkeypatch):
    """A bracket quadratic in lambda needs no affine model: every draw's
    residual is verify_jacobi's, and only the monomial lambda squared of
    the Jacobiator carries a coefficient, counted against the monomials of
    degree <= 4 that a quadratic table admits."""
    _plant(monkeypatch, _planting(lambda p: p[0] * p[0]))
    result = verify.jacobi_result("G8", draws=10, seed=0)
    draws = _draws("G8", 10, 0)
    loops = [verify_jacobi(catalog.build("G8", d))[0] for d in draws]
    assert not result.passed
    assert result.n_evaluated == 10
    assert result.max_residual == float(max(loops)) > 0
    assert result.worst_sample == tuple(map(float, draws[loops.index(max(loops))]))
    assert "degree 4 in (λ): 1 of 5 coefficient tensors nonzero;" in result.details


def test_a_cubic_bracket_sets_the_degree_bound(monkeypatch):
    """The degree bound is twice the largest parameter degree of the bracket
    table: lambda cubed in [e6, e7] gives degree 6 and C(1 + 6, 1) = 7
    monomials, one of which carries a coefficient."""
    _plant(monkeypatch, _planting(lambda p: p[0] * p[0] * p[0]))
    result = verify.jacobi_result("G8", draws=10, seed=0)
    assert not result.passed
    assert "degree 6 in (λ): 1 of 7 coefficient tensors nonzero;" in result.details


def test_a_plant_after_a_warm_cache_is_reported():
    """The Jacobiator polynomials are derived once per family and process;
    a fault planted after G8's were derived still fails the campaign, and
    once the plant is undone the real polynomials pass again."""
    assert verify.jacobi_result("G8", draws=10, seed=0).passed
    with pytest.MonkeyPatch.context() as patch:
        _plant(patch, _planting(lambda p: p[0]))
        planted = verify.jacobi_result("G8", draws=10, seed=0)
    assert not planted.passed and planted.max_residual > 0
    assert "0 of" not in planted.details
    assert verify.jacobi_result("G8", draws=10, seed=0).passed


def test_zero_evaluations_fail_with_the_cross_check_at_the_representative():
    result = verify.jacobi_result("G8", draws=0)
    assert not result.passed
    assert result.n_evaluated == 0
    (lam,) = verify.REPRESENTATIVE_PARAMS["G8"]
    assert f"cross-check at ({lam}) agrees" in result.details


def test_a_loop_disagreeing_with_the_polynomial_fails(monkeypatch):
    monkeypatch.setattr(verify, "verify_jacobi", lambda algebra: (Fraction(1, 7), []))
    result = verify.jacobi_result("G4", (0, 2), draws=10)
    assert not result.passed
    assert result.max_residual == 0.0
    assert "disagrees: loop 1/7, polynomial 0" in result.details


def test_passing_certificate_reports_its_shape():
    result = verify.jacobi_result("G14", draws=5, seed=1)
    assert result.passed and result.worst_sample is None
    assert result.n_evaluated == 5
    assert "degree 2 in (λ1, λ2): 0 of 6 coefficient tensors nonzero" in result.details


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(catalog.FAMILIES),
    planted=st.booleans(),
    raw=st.tuples(*[st.fractions(-4, 4, max_denominator=7)] * 2),
)
def test_certificate_equals_the_loop_at_random_rationals(family, planted, raw):
    """Where the family's constraints admit the point, the polynomials' value
    is verify_jacobi's residual, with and without a planted affine fault:
    the derivations gain e2 -> s e1 and e1 -> s e2 and [e6, e7] gains
    (1 + s) e2, where s is the sum of the parameters.  Without parameters
    (G2, for one) the planted entries are plain numbers."""
    params = raw[: catalog.PARAM_ARITY[family]]
    if not _admitted(family, params):
        return
    original = catalog.derivation_pair

    def derivation_pair(fam, p):
        a, b, central = original(fam, p)
        if planted:
            s = sum(p)
            a[1][0] += s
            b[0][1] += s
            central[1] += 1 + s
        return a, b, central

    with pytest.MonkeyPatch.context() as patch:
        _plant(patch, derivation_pair)
        value = verify._jacobi_residual(verify._jacobi_polynomials(family)[0], params)
        assert value == verify_jacobi(catalog.build(family, params))[0]
    assert (value != 0) <= planted
