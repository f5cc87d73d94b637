"""Catalog construction: arities, constraints, brackets, and grids."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from korbit import catalog, coadjoint, foliation, topology, verify
from korbit.catalog import ClosedForm
from korbit.liecore import ParameterError, UnsupportedFamilyError
from korbit.poly import Poly

HALF = Fraction(1, 2)


def test_sixteen_families_in_order():
    """The catalog lists G1 through G16 exactly once, in order."""
    assert catalog.FAMILIES == tuple(f"G{i}" for i in range(1, 17))


def test_param_arity_totals():
    """Nine families take parameters: seven singles and two pairs."""
    assert sum(catalog.PARAM_ARITY.values()) == 11
    assert catalog.PARAM_ARITY["G4"] == 2
    assert catalog.PARAM_ARITY["G14"] == 2
    assert catalog.PARAM_ARITY["G2"] == 0


def test_validate_params_accepts_members():
    """Representative members of every family validate cleanly."""
    for family in catalog.FAMILIES:
        arity = catalog.PARAM_ARITY[family]
        params = (HALF, Fraction(2))[:arity]
        catalog.validate_params(family, params)


@pytest.mark.parametrize(
    "family, params, fragment",
    [
        ("G4", (-1, 0), "(λ1,λ2) ≠ (−1,0)"),
        ("G4", (1, 2), "λ2 ≠ λ1 + 1"),
        ("G12", (-1,), "λ ∈ R"),
        ("G13", (-HALF,), "λ ≥ 0"),
        ("G14", (-1, 1), "λ1 ≠ −1"),
        ("G14", (0, -1), "λ2 ≥ 0"),
        ("G16", (-2,), "λ ≥ 0"),
    ],
)
def test_validate_params_names_the_violated_constraint(family, params, fragment):
    """Constraint violations raise ParameterError quoting the condition."""
    with pytest.raises(ParameterError, match=".*"):
        catalog.validate_params(family, params)
    try:
        catalog.validate_params(family, params)
    except ParameterError as exc:
        assert fragment in str(exc)


def test_validate_params_checks_arity():
    """Wrong parameter counts are rejected with the expected count named."""
    with pytest.raises(ParameterError):
        catalog.validate_params("G2", (1,))
    with pytest.raises(ParameterError):
        catalog.validate_params("G4", (1,))


def test_validate_params_skips_the_clauses_only_for_polys():
    """A Poly parameter stands for every admissible value, so the clauses
    are skipped for it, but the arity is still checked; numbers and other
    types meet the clauses as before."""
    x, y = Poly.variable(0), Poly.variable(1)
    catalog.validate_params("G13", (x,))
    catalog.validate_params("G4", (x, x + 1))
    catalog.validate_params("G14", (HALF, y))
    for family, params in (("G13", (x, y)), ("G2", (x,)), ("G4", (x,))):
        with pytest.raises(ParameterError, match="parameter"):
            catalog.validate_params(family, params)
    with pytest.raises(ParameterError, match="λ ≥ 0"):
        catalog.validate_params("G13", (-HALF,))
    with pytest.raises(TypeError):
        catalog.validate_params("G13", ("x",))


def test_unknown_family_raises():
    """Families outside G1..G16 are rejected."""
    with pytest.raises(UnsupportedFamilyError):
        catalog.build("G17", ())


def test_nilradical_brackets_shared_by_all_families():
    """[X1,X2] = X4 and [X1,X3] = X5 hold in every family."""
    for family in catalog.FAMILIES:
        params = (HALF, Fraction(2))[: catalog.PARAM_ARITY[family]]
        tensor = catalog.build(family, params).tensor
        assert tensor[0, 1, 3] == 1.0 and np.count_nonzero(tensor[0, 1]) == 1
        assert tensor[0, 2, 4] == 1.0 and np.count_nonzero(tensor[0, 2]) == 1
        np.testing.assert_array_equal(tensor[1, 2], np.zeros(7))


def test_bracket_spot_values():
    """Hand-computed brackets from the derivation tables."""
    tensor = catalog.build("G4", (2, 0)).tensor
    assert tensor[5, 2, 2] == 2.0
    tensor = catalog.build("G5", ()).tensor
    assert tensor[6, 0, 0] == 1.0 and tensor[6, 0, 1] == 1.0
    tensor = catalog.build("G13", (HALF,)).tensor
    assert tensor[6, 1, 2] == 1.0 and tensor[6, 2, 1] == -1.0
    tensor = catalog.build("G1", (1,)).tensor
    assert tensor[5, 6, 3] == 1.0 and np.count_nonzero(tensor[5, 6]) == 1


def test_central_bracket_zero_outside_g1():
    """Only the first family carries a nonzero bracket of the two
    derivation directions."""
    for family in catalog.FAMILIES[1:]:
        params = (HALF, Fraction(2))[: catalog.PARAM_ARITY[family]]
        tensor = catalog.build(family, params).tensor
        np.testing.assert_array_equal(tensor[5, 6], np.zeros(7))


def test_antisymmetry_of_structure_tensor():
    """tensor[i, j] = -tensor[j, i] for every pair."""
    tensor = catalog.build("G14", (HALF, 1)).tensor
    np.testing.assert_array_equal(tensor, -np.swapaxes(tensor, 0, 1))


def test_exact_parameters_are_carried_unchanged():
    """Fractions survive into the structure constants without rounding."""
    algebra = catalog.build("G8", (Fraction(1, 3),))
    assert algebra.params == (Fraction(1, 3),)
    assert algebra.tensor[1, 5, 1] == -float(1 + Fraction(1, 3))


def test_equal_typed_parameters_share_one_algebra():
    """build returns one algebra per family and typed parameter point, so
    its tensor and operands are derived once."""
    assert catalog.build("G8", (HALF,)) is catalog.build("G8", [Fraction(2, 4)])
    assert catalog.build("G2") is catalog.build("G2", ())
    assert catalog.build("G8", (HALF,)).tensor is catalog.build("G8", (HALF,)).tensor


def test_a_fraction_and_a_float_build_distinct_algebras():
    """Fraction(1, 2) == 0.5, but each keeps its type in the parameters and
    the bracket table, and -0.0 == 0.0, but its str keys another rng
    stream."""
    exact, floating = catalog.build("G8", (HALF,)), catalog.build("G8", (0.5,))
    assert exact is not floating
    assert type(exact.params[0]) is Fraction and type(floating.params[0]) is float
    assert type(exact.brackets[(0, 5)][0]) is int
    assert type(exact.brackets[(1, 5)][1]) is Fraction
    assert type(floating.brackets[(1, 5)][1]) is float
    assert str(catalog.build("G8", (-0.0,)).params[0]) == "-0.0"
    assert str(catalog.build("G8", (0.0,)).params[0]) == "0.0"


def test_polynomial_parameters_build_afresh():
    variables = (Poly.variable(0),)
    assert catalog.build("G8", variables) is not catalog.build("G8", variables)


def test_the_shared_bracket_table_is_read_only():
    brackets = catalog.build("G8", (HALF,)).brackets
    with pytest.raises(TypeError):
        brackets[(0, 1)] = {3: 2}
    with pytest.raises(TypeError):
        brackets[(0, 1)][3] = 2
    assert catalog.build("G8", (HALF,)).brackets[(0, 1)] == {3: 1}


def test_the_algebra_cache_stays_within_its_bound():
    for n in range(300):
        catalog.build("G8", (Fraction(n, 301),))
    info = catalog._shared.cache_info()
    assert info.maxsize == 128 and info.currsize <= 128


def test_default_parameter_grid_shapes():
    """Default grids: four singles, valid pairs only, one empty tuple."""
    assert catalog.default_parameter_grid("G2") == ((),)
    singles = catalog.default_parameter_grid("G12")
    assert len(singles) == 4
    pairs = catalog.default_parameter_grid("G4")
    for l1, l2 in pairs:
        assert l2 != l1 + 1 and (l1, l2) != (-1, 0)
    assert len(catalog.default_parameter_grid("G14")) == 16


def test_derivation_pair_diagonal_example():
    """The two derivations of G4 have the documented diagonals."""
    a, b, central = catalog.derivation_pair("G4", (Fraction(1, 2), Fraction(2)))
    assert [a[i][i] for i in range(5)] == [1, 0, HALF, 1, Fraction(3, 2)]
    assert [b[i][i] for i in range(5)] == [0, 1, 2, 1, 2]
    assert central == [0, 0, 0, 0, 0]


def test_record_rejects_unknown_family():
    """The record accessor names an unknown family."""
    with pytest.raises(UnsupportedFamilyError, match="G17"):
        catalog.record("G17")
    with pytest.raises(UnsupportedFamilyError, match="G17"):
        catalog.has("G17", ClosedForm.FIELDS)


def test_representative_params_validate_and_lie_in_the_grid():
    """Each family's representative member is valid and on its default grid."""
    for family in catalog.FAMILIES:
        params = catalog.record(family).representative
        catalog.validate_params(family, params)
        assert params in catalog.default_parameter_grid(family)


def test_derived_views_of_the_records():
    """The module tables read from the records keep their cataloged values."""
    system = {"G1", "G4", "G5", "G6", "G7", "G8", "G11", "G12", "G13", "G14", "G15", "G16"}
    assert coadjoint.RANK_CONDITION_FAMILIES == system
    assert foliation.SYSTEM_FAMILIES == system
    assert catalog.families_with(ClosedForm.PAIRING) == system
    assert catalog.families_with(ClosedForm.INVARIANT) == {
        "G1", "G2", "G4", "G7", "G8", "G11", "G12", "G13", "G14", "G15", "G16",
    }
    assert catalog.families_with(ClosedForm.FLOWS) == {"G4", "G12", "G13"}
    assert catalog.families_with(ClosedForm.EXPONENTIAL) == {"G4", "G12", "G13"}
    loci = {f: catalog.record(f).locus for f in catalog.FAMILIES if catalog.record(f).locus}
    assert loci == {"G13": ("a", 6), "G14": ("a", 6), "G16": ("a", 5)}
    assert catalog.PARAM_ARITY == {
        "G1": 1, "G2": 0, "G3": 0, "G4": 2, "G5": 0, "G6": 1, "G7": 0, "G8": 1,
        "G9": 0, "G10": 1, "G11": 0, "G12": 1, "G13": 1, "G14": 2, "G15": 0, "G16": 1,
    }
    assert list(verify.REPRESENTATIVE_PARAMS) == list(catalog.FAMILIES)
    manifolds = [topology.manifold_of(family) for family in catalog.FAMILIES]
    counts = [manifolds.count(m) for m in topology.Manifold]
    assert counts == [11, 1, 4]
