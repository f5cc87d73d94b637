"""Foliated manifolds, classification, fibrations, and leaf maps."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from korbit import catalog, foliation, rng, topology
from korbit.liecore import DomainError

HALF = Fraction(1, 2)
ROUNDTRIP_TOL = 1e-10
COMPOSITE_TOL = 1e-10


def test_classification_counts():
    """Eleven families of the first type, one second, four third."""
    counts = {t: 0 for t in topology.FoliationType}
    for family in catalog.FAMILIES:
        counts[topology.classify(family)] += 1
    assert counts[topology.FoliationType.F1] == 11
    assert counts[topology.FoliationType.F2] == 1
    assert counts[topology.FoliationType.F3] == 4
    assert topology.classify("G12") is topology.FoliationType.F2
    for family in ("G13", "G14", "G15", "G16"):
        assert topology.classify(family) is topology.FoliationType.F3


def test_cstar_descriptors_are_the_documented_strings():
    """Leaf space algebras: four, two, and one stabilized summands."""
    assert topology.cstar_descriptor(topology.FoliationType.F1) == "(C0(R)^⊕4) ⊗ K"
    assert topology.cstar_descriptor(topology.FoliationType.F2) == "(C0(R)^⊕2) ⊗ K"
    assert topology.cstar_descriptor(topology.FoliationType.F3) == "C0(R) ⊗ K"


def test_manifold_membership_and_margins():
    """Membership and boundary margins follow the deciding coordinates."""
    v = np.array([5.0, 5.0, 5.0, 0.3, -0.4, 0.0, 0.0])
    assert bool(topology.contains(topology.Manifold.V1, v))
    assert math.isclose(float(topology.boundary_margin(topology.Manifold.V1, v)), 0.3)
    v = np.array([5.0, 5.0, 5.0, 0.3, 0.0, 0.0, 0.0])
    assert not bool(topology.contains(topology.Manifold.V1, v))
    assert not bool(topology.contains(topology.Manifold.V2, v))
    assert bool(topology.contains(topology.Manifold.V3, v))
    assert math.isclose(float(topology.boundary_margin(topology.Manifold.V3, v)), 0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 3, 6])
def test_non_finite_points_lie_outside_every_manifold(bad, column):
    """A NaN or infinite coordinate, deciding or not, puts a point outside
    all three manifolds, so the G13 invariant and every leaf map raise
    DomainError instead of returning NaN."""
    v = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    v[column] = bad
    for manifold in topology.Manifold:
        assert not bool(topology.contains(manifold, v))
        np.testing.assert_array_equal(topology.contains(manifold, np.stack([v, v])), [False, False])
    with pytest.raises(DomainError):
        foliation.invariant("G13", (HALF,), v)
    for name in topology.LEAF_MAP_NAMES:
        with pytest.raises(DomainError):
            topology.leaf_map(name).apply(v)


def test_fibration_values():
    """Hand values of the three fibrations."""
    v = np.array([0.0, 2.0, 3.0, 1.0, 2.0, 0.0, 0.0])
    assert math.isclose(float(topology.fibration_value(topology.FoliationType.F1, v)), 0.5)
    expected = 0.5 * math.exp(-0.5)
    assert math.isclose(float(topology.fibration_value(topology.FoliationType.F2, v)), expected)
    assert math.isclose(float(topology.fibration_value(topology.FoliationType.F3, v)), 0.2)


@pytest.mark.parametrize(
    "t, family, params",
    [
        (topology.FoliationType.F1, "G2", ()),
        (topology.FoliationType.F2, "G12", (Fraction(0),)),
        (topology.FoliationType.F3, "G13", (Fraction(0),)),
    ],
)
def test_each_type_is_fibred_by_its_parameter_zero_source(t, family, params):
    """The representative of each type is the parameter-zero member of a
    leaf-map source that prints an invariant."""
    assert topology._FIBRATIONS[t] == (family, params)
    assert catalog.has(family, catalog.ClosedForm.INVARIANT)
    assert topology.classify(family) is t


def _printed_fibration(t, v):
    """The three fibrations as the paper prints them."""
    x2, x3, x4, x5 = v[:, 1], v[:, 2], v[:, 3], v[:, 4]
    if t is topology.FoliationType.F1:
        return x2 - x3 * x4 / x5
    if t is topology.FoliationType.F2:
        return (x2 - x3 * x4 / x5) * np.exp(-x4 / x5)
    return (x2 * x5 - x3 * x4) / (x4 * x4 + x5 * x5)


@pytest.mark.parametrize("t", list(topology.FoliationType), ids=lambda t: t.value)
def test_fibration_value_is_the_printed_fibration_on_samples(t):
    """The invariant of the type's representative agrees with the printed
    fibration to rounding at sampled points of the type's manifold."""
    pts = rng.sample_coordinates(5, 400, "printed-fibration", t.value)
    pts = pts[topology.boundary_margin(topology.MANIFOLD_OF_TYPE[t], pts) > 0.05]
    assert len(pts) > 100
    np.testing.assert_allclose(
        topology.fibration_value(t, pts), _printed_fibration(t, pts), rtol=1e-13, atol=0
    )


def test_fibration_gradient_nonzero_on_samples():
    """Numeric gradients of every fibration clear the submersion floor."""
    for t in topology.FoliationType:
        manifold = topology.MANIFOLD_OF_TYPE[t]
        pts = rng.sample_coordinates(3, 400, "fibration", t.value)
        keep = topology.boundary_margin(manifold, pts) > 0.05
        if t is topology.FoliationType.F2:
            keep &= np.abs(pts[:, 3]) <= 10.0 * np.abs(pts[:, 4])
        norms = np.linalg.norm(topology.fibration_gradient(t, pts[keep]), axis=-1)
        assert float(norms.min()) > 1e-6


def test_fibration_gradient_of_first_type_has_unit_second_slot():
    """The first fibration depends on the second coordinate with slope one."""
    pts = rng.sample_coordinates(3, 50, "gradslot")
    pts = pts[topology.boundary_margin(topology.Manifold.V1, pts) > 0.1]
    grads = topology.fibration_gradient(topology.FoliationType.F1, pts)
    np.testing.assert_allclose(grads[:, 1], 1.0, rtol=1e-7)


def test_leaf_map_registry():
    """Eleven maps with the documented sources, targets, and manifolds."""
    assert len(topology.LEAF_MAP_NAMES) == 11
    h2 = topology.leaf_map("h2", (0, 2))
    assert (h2.source, h2.target, h2.manifold) == ("G2", "G4", topology.Manifold.V1)
    h7 = topology.leaf_map("h7", (HALF,))
    assert (h7.source, h7.target, h7.manifold) == ("G12", "G12", topology.Manifold.V2)
    h10 = topology.leaf_map("h10", ())
    assert (h10.source, h10.target, h10.manifold) == ("G13", "G15", topology.Manifold.V3)


def test_every_leaf_map_acts_on_its_source_and_targets_manifold():
    """Each map carries one foliated manifold onto itself: its source and
    target family share the manifold the map checks points against."""
    manifolds = {}
    for name in topology.LEAF_MAP_NAMES:
        leaf = topology.leaf_map(name)
        assert leaf.manifold == topology.manifold_of(leaf.source), name
        assert leaf.manifold == topology.manifold_of(leaf.target), name
        manifolds[name] = leaf.manifold.value
    assert manifolds == {
        **{f"h{k}": "V1" for k in range(1, 7)},
        "h7": "V2",
        **{f"h{k}": "V3" for k in range(8, 12)},
    }


def test_leaf_map_parameter_validation():
    """Maps validate their target family's parameter constraints."""
    with pytest.raises(Exception):
        topology.leaf_map("h2", ())
    with pytest.raises(Exception):
        topology.leaf_map("h8", (-1,))
    with pytest.raises(ValueError):
        topology.leaf_map("h12")


@pytest.mark.parametrize("name", topology.LEAF_MAP_NAMES)
def test_source_params_are_the_sources_parameter_zero_member(name):
    """A map carries the invariant of its source at all-zero parameters,
    which the source family accepts."""
    leaf = topology.leaf_map(name)
    params = leaf.source_params
    assert len(params) == catalog.record(leaf.source).arity
    assert all(p == 0 for p in params)
    catalog.validate_params(leaf.source, params)


def test_leaf_map_at_its_default_parameters_is_the_default_record():
    """Passing a map's default parameters back returns an equal record."""
    for name in topology.LEAF_MAP_NAMES:
        default = topology.leaf_map(name)
        assert topology.leaf_map(name, default.params) == default, name


def test_leaf_map_margin_matches_the_branch_filters():
    """The margin clears 0.05 exactly where the manifold margin, the main
    branch of the third manifold and, for the shear, the third coordinate
    all do."""
    for name in topology.LEAF_MAP_NAMES:
        map_obj = topology.leaf_map(name)
        pts = rng.sample_coordinates(15, 400, "margin", name)
        pts[:40, 3] = 0.0
        pts[40:80, 4] = 0.0
        keep = topology.boundary_margin(map_obj.manifold, pts) > 0.05
        if map_obj.manifold is topology.Manifold.V3:
            keep &= np.minimum(np.abs(pts[:, 3]), np.abs(pts[:, 4])) > 0.05
        if name == "h1":
            keep &= np.abs(pts[:, 2]) > 0.05
        np.testing.assert_array_equal(map_obj.margin(pts) > 0.05, keep, err_msg=name)


def test_identity_special_cases():
    """h2 is the identity where both deciding coordinates are one, and
    h8 with zero parameter is the identity everywhere it is defined."""
    pts = rng.sample_coordinates(4, 30, "ident")
    pts[:, 3] = 1.0
    pts[:, 4] = 1.0
    np.testing.assert_allclose(topology.leaf_map("h2", (0, 2)).apply(pts), pts, atol=1e-15)
    pts = rng.sample_coordinates(4, 30, "ident8")
    pts = pts[topology.boundary_margin(topology.Manifold.V3, pts) > 0.05]
    np.testing.assert_allclose(topology.leaf_map("h8", (0,)).apply(pts), pts, atol=1e-15)


def _margin_points(map_obj, seed, n=150):
    pts = rng.sample_coordinates(seed, n, "roundtrip", map_obj.name)
    return pts[map_obj.margin(pts) > 0.05]


def test_every_leaf_map_round_trips():
    """invert(apply(v)) = v to high relative accuracy for all maps."""
    for name in topology.LEAF_MAP_NAMES:
        map_obj = topology.leaf_map(name)
        pts = _margin_points(map_obj, 10)
        back = map_obj.invert(map_obj.apply(pts))
        residual = np.abs(back - pts).max() / (1.0 + np.abs(pts).max())
        assert residual <= ROUNDTRIP_TOL, name


def test_roundtrip_on_planted_degenerate_branches():
    """Maps on the third manifold invert exactly on both degenerate
    branches where one deciding coordinate is exactly zero."""
    for name in ("h8", "h9", "h10", "h11"):
        map_obj = topology.leaf_map(name)
        pts = rng.sample_coordinates(11, 100, "branches", name)
        for zeroed, other in ((3, 4), (4, 3)):
            branch = np.array(pts, copy=True)
            branch[:, zeroed] = 0.0
            branch = branch[np.abs(branch[:, other]) > 0.05]
            back = map_obj.invert(map_obj.apply(branch))
            np.testing.assert_allclose(back, branch, rtol=1e-12, atol=1e-12)


def _affine_batches(map_obj, seed, n=200):
    """Margin-cleared points and, on the third manifold, points with an
    exactly planted zero in either deciding coordinate."""
    pts = rng.sample_coordinates(seed, n, "affine", map_obj.name)
    batches = [pts[map_obj.margin(pts) > 0.05]]
    if map_obj.manifold is topology.Manifold.V3:
        for zeroed, other in ((3, 4), (4, 3)):
            branch = np.array(pts, copy=True)
            branch[:, zeroed] = 0.0
            batches.append(branch[np.abs(branch[:, other]) > 0.05])
    return batches


def _affine_maps():
    maps = [topology.leaf_map(name) for name in topology.LEAF_MAP_NAMES]
    assert [m.name for m in maps if m.shear] == ["h1"]
    return [m for m in maps if not m.shear]


FIXED = [0, 3, 4, 5, 6]


def test_every_affine_map_fixes_all_but_the_second_and_third_coordinates():
    """Every map but the h1 shear, forward and inverse, leaves the first
    and the fourth to seventh coordinates exactly as they were."""
    for map_obj in _affine_maps():
        for batch in _affine_batches(map_obj, 16):
            assert len(batch), map_obj.name
            for image in (map_obj.apply(batch), map_obj.invert(batch)):
                np.testing.assert_array_equal(image[:, FIXED], batch[:, FIXED], map_obj.name)


def test_every_affine_map_is_affine_in_the_second_and_third_coordinates():
    """For points p and q that differ only in the second and third
    coordinates, the image of a p + (1 - a) q is a image(p) + (1 - a)
    image(q), forward and inverse, on generic points and on the planted
    branches of the third manifold."""
    for map_obj in _affine_maps():
        for k, p in enumerate(_affine_batches(map_obj, 17)):
            q = np.array(p, copy=True)
            q[:, 1:3] = rng.sample_coordinates(18, len(p), "affine-q", map_obj.name, k)[:, 1:3]
            a = rng.generator(19, "affine-a", map_obj.name, k).uniform(-2.0, 3.0, (len(p), 1))
            mix = np.array(p, copy=True)
            mix[:, 1:3] = a * p[:, 1:3] + (1.0 - a) * q[:, 1:3]
            for f in (map_obj.apply, map_obj.invert):
                fp, fq = f(p), f(q)
                expected = a * fp + (1.0 - a) * fq
                scale = 1.0 + np.abs(a * fp).max(axis=-1) + np.abs((1.0 - a) * fq).max(axis=-1)
                residual = np.abs(f(mix) - expected).max(axis=-1) / scale
                assert residual.max() <= 1e-12, (map_obj.name, f.__name__, k)


@pytest.mark.parametrize("index, value", [(2, 0.0), (3, 0.0), (3, np.nan), (3, np.inf)])
def test_first_map_inverse_needs_nonzero_coordinates(index, value):
    """h1's inverse refuses points with a vanishing third coordinate, and,
    as its forward map does, points off V1: a vanishing or non-finite
    fourth coordinate."""
    h1 = topology.leaf_map("h1", ())
    w = np.array([1.0, 1.0, 3.0, 0.5, 1.0, 0.0, 0.0])
    w[index] = value
    with pytest.raises(DomainError):
        h1.invert(w)
    if index == 3:
        with pytest.raises(DomainError):
            h1.apply(w)


def test_composites_transport_source_invariants():
    """The maps carry each source invariant to the documented target
    expression, checked pointwise through the public invariants."""
    pts = rng.sample_coordinates(12, 300, "composite")
    v1 = pts[topology.boundary_margin(topology.Manifold.V1, pts) > 0.1]
    q = topology.fibration_value(topology.FoliationType.F1, v1)

    mapped = topology.leaf_map("h2", (0, 2)).apply(v1)
    np.testing.assert_allclose(
        foliation.invariant("G4", (0, 2), mapped), q, rtol=COMPOSITE_TOL, atol=COMPOSITE_TOL
    )

    mapped = topology.leaf_map("h4", (HALF,)).apply(v1)
    np.testing.assert_allclose(
        foliation.invariant("G8", (HALF,), mapped), q, rtol=1e-9, atol=1e-9
    )

    mapped = topology.leaf_map("h5", ()).apply(v1)
    np.testing.assert_allclose(
        foliation.invariant("G11", (), mapped), q, rtol=1e-9, atol=1e-9
    )


def test_scaling_map_between_parameterless_families():
    """h6 rescales so that the inverse-fourth-power invariant of its
    source becomes the inverse-square-root invariant of its target."""
    pts = rng.sample_coordinates(13, 200, "h6")
    v1 = pts[topology.boundary_margin(topology.Manifold.V1, pts) > 0.1]
    q = topology.fibration_value(topology.FoliationType.F1, v1)
    p_source = q / np.abs(v1[:, 3])
    mapped = topology.leaf_map("h6", ()).apply(v1)
    q_mapped = topology.fibration_value(topology.FoliationType.F1, mapped)
    p_target = q_mapped / np.sqrt(np.abs(mapped[:, 3]))
    np.testing.assert_allclose(p_target, p_source, rtol=1e-12, atol=1e-12)


def test_pulled_back_rotation_invariant_matches_target_form():
    """h9 transports the base rotation-family invariant to its target's
    cataloged invariant on every branch."""
    params = (HALF, 1)
    h9 = topology.leaf_map("h9", params)
    pts = rng.sample_coordinates(14, 300, "h9both")
    keep = np.minimum(np.abs(pts[:, 3]), np.abs(pts[:, 4])) > 0.05
    v3 = pts[keep]
    p_source = foliation.invariant("G13", (0,), v3)
    p_target = foliation.invariant("G14", params, h9.apply(v3))
    np.testing.assert_allclose(p_target, p_source, rtol=1e-9, atol=1e-9)


def test_ratio_angle_extends_to_vanishing_denominator():
    """The angle helper continues to plus or minus a right angle."""
    num = np.array([2.0, -3.0, 1.0])
    den = np.array([0.0, 0.0, 1.0])
    values = topology.ratio_angle(num, den)
    assert math.isclose(float(values[0]), math.pi / 2)
    assert math.isclose(float(values[1]), -math.pi / 2)
    assert math.isclose(float(values[2]), math.pi / 4)
