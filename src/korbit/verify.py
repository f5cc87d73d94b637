"""Verification campaigns over the catalog of coadjoint-orbit claims.

Every closed-form statement shipped by the other modules is re-checked
here against an independent computation: exact Jacobi, span and
involutivity certificates, frozen coefficient tables for the pairing forms and matrix exponentials,
kirillov_rank's certified orbit dimensions against the closed-form
predicates, numerically integrated
flows against the printed ones, and Monte Carlo constancy of the orbit
invariants under the coadjoint action.  Campaign functions return
CheckResult records suitable for report assembly; every sampled campaign
reports through one tally of its worst residual, sample and count.

Sampling policy: functionals are drawn uniformly from [-2, 2]^7 and
algebra elements from [-1.5, 1.5]^7 with counter-based generators keyed
by (seed, check, family, params), so every campaign is reproducible.
Points are kept only when the deciding quantities clear a margin of
0.05, except that exactly planted zeros (whose verdicts are structural)
are always kept.  Orbit pairs whose connecting group element would drag
an angle-valued invariant across its branch locus are rejected by
comparing branch bins of the exactly known phase shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Callable

import numpy as np

from . import catalog, coadjoint, foliation, rng, topology
from .catalog import ClosedForm
from .liecore import (
    LieAlgebra7,
    _jacobiator,
    exp_matrix,
    phi1,
    verify_jacobi,
)
from .poly import Poly

#: Deciding quantities must clear this distance from their zero locus for a
#: randomly sampled point to enter a strict-comparison campaign.
MARGIN = 0.05

#: Samples for the second foliation type's fibration keep |x4/x5| below
#: this cap so the analytic gradient floor exp(-x4/x5) stays above the
#: submersion tolerance in float arithmetic.
FIBRATION_RATIO_CAP = 10.0

#: Default parameters used when a single member of a family must stand in
#: for the whole family.
REPRESENTATIVE_PARAMS: dict[str, tuple[Fraction, ...]] = {
    family: catalog.record(family).representative for family in catalog.FAMILIES
}

#: Leaf maps whose target invariant is cataloged alongside the source's,
#: checked by direct residual.
RESIDUAL_MAPS: tuple[str, ...] = tuple(
    name for name in topology.LEAF_MAP_NAMES if topology.leaf_map(name).check == "residual"
)

#: Leaf maps checked through the constancy of the pulled-back source
#: invariant under the target family's coadjoint action.
DERIVED_MAPS: tuple[str, ...] = tuple(
    name for name in topology.LEAF_MAP_NAMES if topology.leaf_map(name).check == "constancy"
)

#: Families whose invariant campaign the constancy criterion covers: the
#: targets of the residual maps, whose invariants are printed directly,
#: then those of the derived maps.
CONSTANCY_FAMILIES: tuple[str, ...] = tuple(
    topology.leaf_map(name).target for name in RESIDUAL_MAPS + DERIVED_MAPS
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification campaign."""

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    n_evaluated: int
    worst_sample: tuple[float, ...] | None = None
    graded: bool = False
    details: str = ""

    @property
    def skipped(self) -> bool:
        """True for a check the family does not support: it evaluated
        nothing and its details say so.  It still reports passed=True."""
        return self.n_evaluated == 0 and self.details.startswith("unsupported")

    @property
    def status(self) -> str:
        """Report status: "skip" when skipped, else "pass", "finding" or "fail"."""
        if self.skipped:
            return "skip"
        return "pass" if self.passed else ("finding" if self.graded else "fail")


def _unsupported(name: str, what: str) -> CheckResult:
    """The result of a check whose closed form the family's record, or the
    leaf map's, does not catalog: it evaluates nothing."""
    return CheckResult(
        name=name,
        passed=True,
        max_residual=0.0,
        tolerance=0.0,
        n_evaluated=0,
        worst_sample=None,
        details=f"unsupported: no closed-form {what} is cataloged for this family",
    )


class _Tally:
    """Running worst residual, its sample and the evaluated count of one
    campaign, which reports through ``result``.

    The first non-empty batch records its argmax sample, even at residual
    zero; a later batch replaces it only with a strictly larger residual.
    NaN ranks above every number and the first NaN is kept, so a non-finite
    residual becomes the worst and fails the ``worst <= tol`` test instead
    of losing every comparison.  An empty batch changes nothing.  Checks
    that count failures fold only their failing samples (residual one), so
    their sample stays None when nothing fails.
    """

    def __init__(self) -> None:
        self.worst = 0.0
        self.sample: tuple[float, ...] | None = None
        self.count = 0

    def fold(self, residual: np.ndarray, points: np.ndarray, evaluated: int | None = None) -> None:
        """Fold a batch of residuals; ``points`` holds one sample per entry
        of the trailing axes of ``residual``, broadcast over the leading
        ones.  ``evaluated`` counts the batch when not every entry is an
        evaluated sample (default: the size of ``residual``)."""
        residual = np.asarray(residual)
        self.count += residual.size if evaluated is None else evaluated
        if residual.size == 0:
            return
        index = np.unravel_index(int(np.argmax(residual)), residual.shape)
        top = float(residual[index])
        if self.sample is None or (
            not math.isnan(self.worst) and (math.isnan(top) or top > self.worst)
        ):
            self.worst = top
            at = index[residual.ndim - points.ndim + 1:]
            self.sample = tuple(float(x) for x in points[at])

    def result(self, name: str, tol: float = 0.0, **overrides) -> CheckResult:
        """The campaign's CheckResult; ``passed`` defaults to ``worst <= tol``
        on at least one evaluated sample, so a campaign that evaluated
        nothing fails."""
        fields = {
            "name": name,
            "passed": self.count > 0 and self.worst <= tol,
            "max_residual": self.worst,
            "tolerance": tol,
            "n_evaluated": self.count,
            "worst_sample": self.sample,
        }
        return CheckResult(**(fields | overrides))


def exact_params(params: tuple[Real, ...]) -> tuple[Fraction, ...]:
    """Exact rational images of the parameters (floats convert exactly)."""
    return tuple(Fraction(p) for p in params)


# --- Jacobi ---------------------------------------------------------------

def _valid(family: str, params: tuple[Fraction, ...]) -> bool:
    try:
        catalog.validate_params(family, params)
    except catalog.ParameterError:
        return False
    return True


def _random_rational_params(family: str, gen: np.random.Generator) -> tuple[Fraction, ...]:
    arity = catalog.PARAM_ARITY[family]
    while True:
        draw = tuple(
            Fraction(int(gen.integers(-6, 7)), int(gen.integers(1, 7))) for _ in range(arity)
        )
        if _valid(family, draw):
            return draw


def _jacobi_polynomials(family: str) -> tuple[list[Poly], int]:
    """The nonzero entries of the family's Jacobiator as exact polynomials
    in its parameters, and the bound 2d on their degree.

    liecore._jacobiator runs on the bracket table built with one Poly
    variable per parameter; each of its terms is a product of two table
    entries, so 2d bounds the degree, d the largest parameter degree of an
    entry.  The list is empty exactly when the Jacobi identity holds for
    every parameter value.  A table with no parameters, or a term that
    involves none, gives a plain number, which Poly() + x lifts to a
    constant."""
    variables = tuple(Poly.variable(i) for i in range(catalog.PARAM_ARITY[family]))
    table = catalog.build(family, variables).brackets
    d = max(
        (c.degree for image in table.values() for c in image.values() if isinstance(c, Poly)),
        default=0,
    )
    return [Poly() + x for x in _jacobiator(table, table).values()], 2 * d


def _jacobi_residual(polynomials: list[Poly], params: tuple[Fraction, ...]) -> Fraction:
    """Largest absolute entry of the Jacobiator at params, as verify_jacobi
    reports it."""
    return max((abs(p(params)) for p in polynomials), default=Fraction(0))


def _point(params: tuple[Fraction, ...]) -> str:
    return "(" + ", ".join(map(str, params)) + ")"


def jacobi_result(
    family: str,
    params: tuple[Real, ...] | None = None,
    draws: int = 100,
    seed: int = 0,
) -> CheckResult:
    """Exact Jacobi residual over random rational parameters of the family.

    The residuals come from the family's Jacobiator as exact polynomials
    in the parameters (_jacobi_polynomials), evaluated at the configured
    parameters, when given (converted to exact rationals, which is
    lossless for floats), and at every draw.  verify_jacobi, the same
    exact form on the built algebra itself, runs once, at the configured
    parameters, else at the first draw, else at REPRESENTATIVE_PARAMS, and
    must give the polynomials' value there.  Only nonzero residuals are
    folded into the tally, so the worst sample is the worst draw on a
    failure and None on a pass; with nothing evaluated the check fails.
    """
    gen = rng.generator(seed, "jacobi", family)
    trials: list[tuple[Fraction, ...]] = []
    if params is not None:
        trials.append(exact_params(tuple(params)))
    trials.extend(_random_rational_params(family, gen) for _ in range(draws))
    polynomials, bound = _jacobi_polynomials(family)
    names = catalog.record(family).param_names
    arity = len(names)
    tally = _Tally()
    residuals = [_jacobi_residual(polynomials, trial) for trial in trials]
    checked = trials[0] if trials else REPRESENTATIVE_PARAMS[family]
    loop, _ = verify_jacobi(catalog.build(family, checked))
    polynomial = _jacobi_residual(polynomials, checked)
    agrees = loop == polynomial
    bad = [n for n, r in enumerate(residuals) if r]
    tally.fold(
        np.array([float(residuals[n]) for n in bad]),
        np.array([[float(x) for x in trials[n]] for n in bad]).reshape(len(bad), arity),
        evaluated=len(trials),
    )
    degree = f"degree {bound} in ({', '.join(names)})" if names else "degree 0 (no parameters)"
    size = math.comb(arity + bound, arity)
    monomials = {m for p in polynomials for m in p.terms}
    verdict = "agrees" if agrees else f"disagrees: loop {loop}, polynomial {polynomial}"
    return tally.result(
        "jacobi",
        passed=agrees and tally.count > 0 and tally.worst <= 0.0,
        details=(
            f"Jacobiator of {family} as an exact polynomial of {degree}: "
            f"{len(monomials)} of {size} coefficient tensors nonzero; "
            f"{tally.count} exact evaluations; verify_jacobi loop cross-check at "
            f"{_point(checked)} {verdict}"
        ),
    )


# --- Golden pairing forms -------------------------------------------------

def _golden_pairing(family: str, params: tuple[Real, ...]):
    """Frozen linear forms of the pairing matrix: (row, col) -> {k: coeff}
    meaning the entry equals sum of coeff times the k-th coordinate of the
    functional (rows, columns, and k are one-based), for the families whose
    record lists the pairing matrix."""
    base = {(1, 2): {4: 1}, (1, 3): {5: 1}}
    if family == "G1":
        (lam,) = params
        extra = {
            (1, 6): {1: -1}, (2, 6): {2: 1}, (3, 7): {3: -1},
            (5, 6): {5: -1}, (5, 7): {5: -1}, (6, 7): {4: lam},
        }
    elif family == "G4":
        l1, l2 = params
        extra = {
            (1, 6): {1: -1}, (2, 7): {2: -1}, (3, 6): {3: -l1}, (3, 7): {3: -l2},
            (4, 6): {4: -1}, (4, 7): {4: -1}, (5, 6): {5: -(1 + l1)}, (5, 7): {5: -l2},
        }
    elif family == "G5":
        extra = {
            (1, 7): {1: -1, 2: -1}, (2, 7): {2: -1}, (3, 6): {3: -1},
            (4, 7): {4: -2}, (5, 6): {5: -1}, (5, 7): {5: -1},
        }
    elif family == "G6":
        (lam,) = params
        extra = {
            (1, 6): {1: -1}, (1, 7): {2: -1}, (2, 6): {2: -1}, (3, 6): {3: -lam},
            (3, 7): {3: -1}, (4, 6): {4: -2}, (5, 6): {5: -(1 + lam)}, (5, 7): {5: -1},
        }
    elif family == "G7":
        extra = {
            (1, 7): {1: -1}, (2, 6): {2: -1}, (2, 7): {2: -1, 5: -1}, (3, 6): {3: -1},
            (4, 6): {4: -1}, (4, 7): {4: -2}, (5, 6): {5: -1}, (5, 7): {5: -1},
        }
    elif family == "G8":
        (lam,) = params
        extra = {
            (1, 6): {1: -1}, (2, 6): {2: -(1 + lam)}, (2, 7): {2: -1, 5: -1},
            (3, 6): {3: -lam}, (3, 7): {3: -1}, (4, 6): {4: -(2 + lam)}, (4, 7): {4: -1},
            (5, 6): {5: -(1 + lam)}, (5, 7): {5: -1},
        }
    elif family == "G11":
        extra = {
            (1, 7): {1: -1}, (2, 6): {2: -1}, (2, 7): {3: -1}, (3, 6): {3: -1},
            (4, 6): {4: -1}, (4, 7): {4: -1, 5: -1}, (5, 6): {5: -1}, (5, 7): {5: -1},
        }
    elif family == "G12":
        (lam,) = params
        extra = {
            (1, 6): {1: -1}, (2, 6): {2: -lam}, (2, 7): {2: -1, 3: -1}, (3, 6): {3: -lam},
            (3, 7): {3: -1}, (4, 6): {4: -(1 + lam)}, (4, 7): {4: -1, 5: -1},
            (5, 6): {5: -(1 + lam)}, (5, 7): {5: -1},
        }
    elif family == "G13":
        (lam,) = params
        extra = {
            (1, 7): {1: -lam}, (2, 6): {2: -1}, (2, 7): {3: -1}, (3, 6): {3: -1},
            (3, 7): {2: 1}, (4, 6): {4: -1}, (4, 7): {4: -lam, 5: -1},
            (5, 6): {5: -1}, (5, 7): {4: 1, 5: -lam},
        }
    elif family == "G14":
        l1, l2 = params
        extra = {
            (1, 6): {1: -1}, (2, 6): {2: -l1}, (2, 7): {2: -l2, 3: -1}, (3, 6): {3: -l1},
            (3, 7): {2: 1, 3: -l2}, (4, 6): {4: -(1 + l1)}, (4, 7): {4: -l2, 5: -1},
            (5, 6): {5: -(1 + l1)}, (5, 7): {4: 1, 5: -l2},
        }
    elif family == "G15":
        extra = {
            (2, 6): {3: -1}, (2, 7): {2: -1, 5: -1}, (3, 6): {2: 1}, (3, 7): {3: -1, 4: 1},
            (4, 6): {5: -1}, (4, 7): {4: -1}, (5, 6): {4: 1}, (5, 7): {5: -1},
        }
    else:  # G16
        (lam,) = params
        extra = {
            (2, 6): {3: -1, 5: -1}, (2, 7): {2: -1, 5: -lam}, (3, 6): {2: 1},
            (3, 7): {3: -1, 4: lam}, (4, 6): {5: -1}, (4, 7): {4: -1},
            (5, 6): {4: 1}, (5, 7): {5: -1},
        }
    base.update(extra)
    return base


def golden_pairing_result(
    family: str,
    params_list: tuple[tuple[Real, ...], ...] | None = None,
) -> CheckResult:
    """Coefficient-exact match of computed pairing matrices against the
    frozen linear-form tables, tested one basis functional at a time."""
    if not catalog.has(family, ClosedForm.PAIRING):
        return _unsupported("golden_pairing", ClosedForm.PAIRING.value)
    if params_list is None:
        params_list = catalog.default_parameter_grid(family)
    tally = _Tally()
    basis = np.eye(7)
    for params in params_list:
        algebra = catalog.build(family, params)
        table = _golden_pairing(family, params)
        diff = np.zeros(7)
        for k in range(1, 8):
            golden = np.zeros((7, 7))
            for (i, j), poly in table.items():
                coeff = float(poly.get(k, 0))
                golden[i - 1, j - 1] += coeff
                golden[j - 1, i - 1] -= coeff
            diff[k - 1] = np.abs(algebra.kirillov(basis[k - 1]) - golden).max()
        bad = diff != 0.0
        tally.fold(diff[bad], basis[bad], evaluated=7)
    return tally.result(
        "golden_pairing",
        details=f"{tally.count} basis functionals across {len(params_list)} parameter choice(s)",
    )


# --- Rank campaigns -------------------------------------------------------

def rank_bound_result(
    family: str,
    params_list: tuple[tuple[Real, ...], ...] | None = None,
    samples: int = 10_000,
    seed: int = 0,
    rank_tol: float = 1e-9,
) -> CheckResult:
    """Orbit dimension never exceeds six and reaches six somewhere."""
    if params_list is None:
        params_list = catalog.default_parameter_grid(family)
    per = max(samples // len(params_list), 1)
    tally = _Tally()
    attained = False
    for params in params_list:
        algebra = catalog.build(family, params)
        f = rng.sample_functionals(seed, per, "rank-bound", family, *params)
        ranks = np.asarray(coadjoint.orbit_dimension(algebra, f, rank_tol))
        tally.fold(ranks - 6.0, f)
        attained = attained or bool(np.any(ranks == 6))
    excess = tally.worst
    return tally.result(
        "rank_bound",
        passed=tally.count > 0 and excess <= 0 and attained,
        max_residual=max(excess, 0.0),
        details=f"max rank {6 + int(excess)}; rank six attained: {attained}",
    )


def rank_agreement_result(
    family: str,
    params_list: tuple[tuple[Real, ...], ...] | None = None,
    samples: int = 10_000,
    seed: int = 0,
    rank_tol: float = 1e-9,
    probes_per_pattern: int = 100,
) -> CheckResult:
    """Closed-form rank predicate against kirillov_rank's certified orbit
    dimension, margin-filtered.

    Alongside uniform draws, boundary probes plant exact zeros in the
    fourth, fifth, and jointly third and fifth coordinates, where the
    predicate's verdict is structural.
    """
    if not catalog.has(family, ClosedForm.PREDICATE):
        return _unsupported("rank_agreement", ClosedForm.PREDICATE.value)
    if params_list is None:
        params_list = catalog.default_parameter_grid(family)
    per = max(samples // len(params_list), 1)
    tally = _Tally()
    disagreements = 0
    for params in params_list:
        algebra = catalog.build(family, params)
        pool = [rng.sample_functionals(seed, per, "rank-agree", family, *params)]
        for pattern in ((3,), (4,), (2, 4)):
            probe = rng.sample_functionals(
                seed, probes_per_pattern, "rank-probe", family, *params, *pattern
            )
            probe[:, list(pattern)] = 0.0
            pool.append(probe)
        f = np.concatenate(pool, axis=0)
        kept = f[coadjoint.condition_margin(family, f) > MARGIN]
        predicted = np.asarray(coadjoint.rank_condition(family, kept))
        observed = np.asarray(coadjoint.orbit_dimension(algebra, kept, rank_tol)) == 6
        bad = predicted != observed
        failed = int(np.count_nonzero(bad))
        tally.fold(np.ones(failed), kept[bad], evaluated=kept.shape[0])
        disagreements += failed
    return tally.result(
        "rank_agreement",
        max_residual=float(disagreements),
        details=f"{disagreements} disagreement(s) on {tally.count} margin-filtered functionals",
    )


# --- Golden exponentials --------------------------------------------------

def _golden_exp(family: str, params: tuple[Real, ...], u: np.ndarray):
    """Frozen entries of exp(ad_U) for the three families whose record
    lists the exponential table.

    Returns the golden matrix batch and the boolean cell mask of entries
    the source states in full; unmasked cells are exact zeros or ones.
    """
    x1, x2, x3 = u[..., 0], u[..., 1], u[..., 2]
    x, y = u[..., 5], u[..., 6]
    gold = np.zeros(u.shape[:-1] + (7, 7))
    checked = np.ones((7, 7), dtype=bool)
    gold[..., 5, 5] = 1.0
    gold[..., 6, 6] = 1.0
    if family == "G4":
        l1, l2 = (float(p) for p in params)
        d1, d2 = np.exp(x), np.exp(y)
        d3 = np.exp(l1 * x + l2 * y)
        d4, d5 = np.exp(x + y), np.exp((1 + l1) * x + l2 * y)
        xi, eps, zeta = phi1(x), -phi1(y), -phi1(l1 * x + l2 * y)
        entries = {
            (1, 1): d1, (2, 2): d2, (3, 3): d3, (4, 4): d4, (5, 5): d5,
            (1, 6): -x1 * xi, (2, 7): x2 * eps, (3, 6): l1 * x3 * zeta,
            (3, 7): l2 * x3 * zeta, (4, 1): x2 * d1 * eps, (4, 2): x1 * d2 * xi,
            (5, 3): x1 * d3 * xi,
        }
        skip = {(5, 1), (4, 6), (5, 6), (4, 7), (5, 7)}
    elif family == "G12":
        (lam,) = (float(p) for p in params)
        aa = lam * x + y
        bb = (1 + lam) * x + y
        ea, eb, ex = np.exp(aa), np.exp(bb), np.exp(x)
        p, r = phi1(x), phi1(aa)
        entries = {
            (1, 1): ex, (2, 2): ea, (3, 3): ea, (4, 4): eb, (5, 5): eb,
            (3, 2): y * ea, (5, 4): y * eb, (1, 6): -x1 * p, (2, 6): -lam * x2 * r,
            (2, 7): -x2 * r, (4, 1): -x2 * ex * r, (4, 2): x1 * ea * p,
            (5, 2): x1 * y * ea * p, (5, 3): x1 * ea * p,
        }
        skip = {(5, 1), (3, 6), (3, 7), (4, 6), (5, 6), (4, 7), (5, 7)}
    else:
        (lam,) = (float(p) for p in params)
        ely, ex, exy = np.exp(lam * y), np.exp(x), np.exp(x + lam * y)
        c, s = np.cos(y), np.sin(y)
        w = x1 * ex * phi1(lam * y)
        entries = {
            (1, 1): ely, (2, 2): ex * c, (2, 3): -ex * s, (3, 2): ex * s,
            (3, 3): ex * c, (4, 4): exy * c, (4, 5): -exy * s, (5, 4): exy * s,
            (5, 5): exy * c, (4, 2): w * c, (4, 3): -w * s, (5, 2): w * s,
            (5, 3): w * c,
        }
        skip = {(r, 7) for r in range(1, 6)}
        skip |= {(r, 6) for r in range(2, 6)}
        skip |= {(4, 1), (5, 1)}
    for (row, col), value in entries.items():
        gold[..., row - 1, col - 1] = value
    for row, col in skip:
        checked[row - 1, col - 1] = False
    return gold, checked


def golden_exponential_result(
    family: str,
    params_list: tuple[tuple[Real, ...], ...] | None = None,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Numeric exp(ad_U) against the frozen closed-form entries."""
    if not catalog.has(family, ClosedForm.EXPONENTIAL):
        return _unsupported("golden_exponential", ClosedForm.EXPONENTIAL.value)
    if params_list is None:
        params_list = catalog.default_parameter_grid(family)
    tally = _Tally()
    for params in params_list:
        algebra = catalog.build(family, params)
        u = rng.sample_coordinates(seed, samples, "exp-golden", family, *params)
        numeric = exp_matrix(algebra.ad(u))
        gold, checked = _golden_exp(family, params, u)
        residual = np.abs(numeric - gold) / (1.0 + np.abs(gold))
        residual = np.where(checked, residual, 0.0)
        tally.fold(residual.reshape(samples, -1).max(axis=1), u)
    return tally.result(
        "golden_exponential",
        tol,
        details=f"{int(checked.sum())} cells per draw, {len(params_list)} parameter choice(s)",
    )


# --- Invariant constancy --------------------------------------------------

def _generic_functionals(
    family: str,
    params: tuple[Real, ...],
    count: int,
    seed: int,
    key: str,
    extra: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    f = rng.sample_functionals(seed, count, key, family, *params)
    keep = topology.boundary_margin(topology.manifold_of(family), f) > MARGIN
    if extra is not None:
        keep &= extra(f)
    return f[keep]


def _printed_value(family: str, params: tuple[Real, ...]) -> Callable[[np.ndarray], np.ndarray]:
    def value(points: np.ndarray) -> np.ndarray:
        return np.asarray(foliation.invariant(family, params, points))

    return value


def _base_params(map_obj: topology.LeafMap) -> tuple[Fraction, ...]:
    """Parameters of the source's parameter-zero member, whose invariant
    the map carries."""
    return (Fraction(0),) * catalog.record(map_obj.source).arity


def _derived_value(map_obj: topology.LeafMap) -> Callable[[np.ndarray], np.ndarray]:
    src_manifold = topology.manifold_of(map_obj.source)
    src_params = _base_params(map_obj)

    def value(points: np.ndarray) -> np.ndarray:
        pre = map_obj.invert(points)
        good = topology.boundary_margin(src_manifold, pre) > MARGIN
        out = np.full(points.shape[:-1], np.nan)
        if np.any(good):
            out[good] = foliation.invariant(map_obj.source, src_params, pre[good])
        return out

    return value


def same_branch(f: np.ndarray, u: np.ndarray, locus: tuple[str, int]) -> np.ndarray:
    """Whether the coadjoint image of f under exp(u) stays in the branch bin
    of f for an angle-valued invariant with branch ``locus`` (see
    catalog.FamilyRecord.locus).  The phase shift is exactly the
    ``locus`` coordinate of u.  Like coadjoint.coadjoint_act, pairs every
    element of ``u`` with every functional of ``f``.
    """
    kind, axis = locus
    edge = math.pi / 2 if kind == "a" else 0.0
    phase = np.arctan2(f[..., 3], f[..., 4])
    shifted = np.add.outer(u[..., axis], phase)
    return np.floor((phase - edge) / math.pi) == np.floor((shifted - edge) / math.pi)


def _constancy_campaign(
    algebra: LieAlgebra7,
    f: np.ndarray,
    u: np.ndarray,
    value: Callable[[np.ndarray], np.ndarray],
    locus: tuple[str, int] | None = None,
    extra: Callable[[np.ndarray], np.ndarray] | None = None,
) -> _Tally:
    """Tally of the relative deviation of ``value`` between functionals
    ``f`` and their images under every element of ``u``: coadjoint_act's grid.

    Pairs are dropped when the image misses the manifold margin, fails
    ``extra``, crosses the branch ``locus``, or evaluates non-finite.
    """
    tally = _Tally()
    if f.size == 0:
        return tally
    images = coadjoint.coadjoint_act(algebra, u, f)
    keep = topology.boundary_margin(topology.manifold_of(algebra.family), images) > MARGIN
    if extra is not None:
        keep &= extra(images)
    if locus is not None:
        keep &= same_branch(f, u, locus)
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


def invariant_constancy_result(
    family: str,
    params: tuple[Real, ...],
    functionals: int = 50,
    group_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
) -> CheckResult:
    """Orbit invariant unchanged along sampled coadjoint motions."""
    if not catalog.has(family, ClosedForm.INVARIANT):
        return _unsupported("invariant_constancy", ClosedForm.INVARIANT.value)
    algebra = catalog.build(family, params)
    f = _generic_functionals(family, params, functionals, seed, "invariant", None)
    u = rng.sample_coordinates(seed, group_samples, "invariant-u", family, *params)
    tally = _constancy_campaign(
        algebra, f, u, _printed_value(family, params), catalog.record(family).locus
    )
    return tally.result(
        "invariant_constancy",
        tol,
        details=f"{f.shape[0]} functionals x {group_samples} group elements after rejection",
    )


def orbit_constancy_result(
    family: str,
    params: tuple[Real, ...],
    group_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
) -> CheckResult:
    """Invariant constancy along one orbit through a generic functional."""
    if not catalog.has(family, ClosedForm.INVARIANT):
        return _unsupported("orbit_constancy", ClosedForm.INVARIANT.value)
    algebra = catalog.build(family, params)
    f = _generic_functionals(family, params, 64, seed, "orbit-base", None)[:1]
    u = rng.sample_coordinates(seed, group_samples, "orbit-u", family, *params)
    tally = _constancy_campaign(
        algebra, f, u, _printed_value(family, params), catalog.record(family).locus
    )
    return tally.result(
        "orbit_constancy",
        tol,
        details=f"single generic functional, {group_samples} group elements",
    )


# --- Foliation generation -------------------------------------------------

def _certificate_result(
    name: str, family: str, params: tuple[Real, ...], certificate: Callable
) -> CheckResult:
    """An exact certificate of the family's generating system as a check:
    one evaluation per identity, the failing ones counted against
    tolerance 0 and named in the details after every identity and how the
    fields' normal n relates to p."""
    if not catalog.has(family, ClosedForm.FIELDS):
        return _unsupported(name, ClosedForm.FIELDS.value)
    catalog.validate_params(family, tuple(params))
    identities, relation = certificate(family)
    failing = [identity for identity, holds in identities.items() if not holds]
    names = catalog.record(family).param_names
    variables = f"x1..x7 and ({', '.join(names)})" if names else "x1..x7"
    details = (
        f"exact identities in {variables}, where {relation}: {', '.join(identities)}; "
        f"{len(failing)} of {len(identities)} fail"
    )
    if failing:
        details += ": " + ", ".join(failing)
    return CheckResult(
        name=name,
        passed=not failing,
        max_residual=float(len(failing)),
        tolerance=0.0,
        n_evaluated=len(identities),
        details=details,
    )


def distribution_result(
    family: str,
    params: tuple[Real, ...],
    samples: int = 1000,
    seed: int = 0,
    rank_tol: float = 1e-9,
) -> CheckResult:
    """Generating fields span exactly the orbit tangent space, by the seven
    identities of foliation.span_certificate, which hold for every
    parameter value.  An exact certificate draws no sample: ``samples``,
    ``seed`` and ``rank_tol`` go unused, and ``params`` is only validated."""
    return _certificate_result("distribution_span", family, params, foliation.span_certificate)


def involutivity_result(
    family: str,
    params: tuple[Real, ...],
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckResult:
    """Pairwise field brackets stay inside the pointwise span, by the
    fifteen identities of foliation.bracket_certificate, which hold for
    every parameter value.  An exact certificate draws no sample:
    ``samples``, ``seed`` and ``tol`` go unused, and ``params`` is only
    validated."""
    return _certificate_result("involutivity", family, params, foliation.bracket_certificate)


# --- Measure invariance and flows ------------------------------------------

def measure_invariance_result(
    family: str,
    params: tuple[Real, ...],
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Determinant of the orbit map equals exp of the adjoint trace.  The
    details name how coadjoint.jacobian_check took the determinant."""
    algebra = catalog.build(family, params)
    u = rng.sample_coordinates(seed, samples, "measure", family, *params)
    det, exp_trace = coadjoint.jacobian_check(algebra, u)
    tally = _Tally()
    tally.fold(np.abs(det - exp_trace) / np.abs(exp_trace), u)
    path = "of the (e1, e2, e3) and (e4, e5) blocks" if algebra.block_triangular else "by LU"
    return tally.result(
        "measure_invariance",
        tol,
        details=f"det of exp(ad u) {path}, against exp(tr ad u)",
    )


def flow_result(
    family: str,
    params: tuple[Real, ...],
    starts: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
    steps: int = 512,
) -> CheckResult:
    """Closed-form flows against Runge-Kutta integration of the fields."""
    if not catalog.has(family, ClosedForm.FLOWS):
        return _unsupported("flow_equivalence", ClosedForm.FLOWS.value)
    fields = foliation.system_fields(family, params)
    t = rng.generator(seed, "flow-time", family, *params).uniform(-1.0, 1.0, starts)
    v = rng.sample_coordinates(seed, starts, "flow-start", family, *params)
    tally = _Tally()
    for index in range(1, 7):
        closed = foliation.flow_closed(family, params, index, t, v)
        numeric = foliation.flow_numeric(fields[index - 1], t, v, steps)
        tally.fold(np.abs(closed - numeric).max(axis=-1), v)
    return tally.result(
        "flow_equivalence", tol, details=f"six fields, {starts} starts, {steps}-step integrator"
    )


# --- Leaf maps --------------------------------------------------------------

def _map_samples(
    map_obj: topology.LeafMap, samples: int, seed: int, key: str
) -> list[np.ndarray]:
    """Margin-filtered sample batches: points clearing the map's margin,
    plus, on the third manifold, batches with an exactly planted zero in
    either deciding coordinate."""
    points = rng.sample_coordinates(seed, samples, key, map_obj.name, *map_obj.params)
    batches = [points[map_obj.margin(points) > MARGIN]]
    if map_obj.manifold is topology.Manifold.V3:
        zero4 = np.array(points, copy=True)
        zero4[:, 3] = 0.0
        zero5 = np.array(points, copy=True)
        zero5[:, 4] = 0.0
        batches += [
            zero4[np.abs(zero4[:, 4]) > MARGIN],
            zero5[np.abs(zero5[:, 3]) > MARGIN],
        ]
    return batches


def leaf_roundtrip_result(
    map_name: str,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Inverse-after-forward and forward-after-inverse both recover the
    input, including on the planted degenerate branches.  The inverse
    direction keeps the points whose preimage clears the manifold margin."""
    map_obj = topology.leaf_map(map_name)
    tally = _Tally()
    for direction in ("forward", "inverse"):
        for batch in _map_samples(map_obj, samples, seed, f"roundtrip-{direction}"):
            if batch.size == 0:
                continue
            if direction == "forward":
                back = map_obj.invert(map_obj.apply(batch))
            else:
                pre = map_obj.invert(batch)
                ok = topology.boundary_margin(map_obj.manifold, pre) > MARGIN
                batch, pre = batch[ok], pre[ok]
                if batch.size == 0:
                    continue
                back = map_obj.apply(pre)
            residual = np.abs(back - batch).max(axis=-1) / (
                1.0 + np.abs(batch).max(axis=-1)
            )
            tally.fold(residual, batch)
    return tally.result(f"leaf_roundtrip_{map_name}", tol)


def leaf_residual_result(
    map_name: str,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckResult:
    """Target invariant of the mapped point equals the source invariant.

    Available for the maps whose source and target invariants are both
    cataloged; the source is always the parameter-zero member.
    """
    map_obj = topology.leaf_map(map_name)
    if map_obj.check != "residual":
        return _unsupported(f"leaf_residual_{map_name}", "invariant pair")
    src_params = _base_params(map_obj)
    points = rng.sample_coordinates(
        seed, 2 * samples, "leaf-residual", map_name, *map_obj.params
    )
    points = points[map_obj.margin(points) > MARGIN][:samples]
    source_vals = foliation.invariant(map_obj.source, src_params, points)
    target_vals = foliation.invariant(map_obj.target, map_obj.params, map_obj.apply(points))
    tally = _Tally()
    tally.fold(np.abs(target_vals - source_vals) / (1.0 + np.abs(source_vals)), points)
    return tally.result(
        f"leaf_residual_{map_name}",
        tol,
        details=f"source invariant {map_obj.source}{tuple(map(float, src_params))}",
    )


def leaf_constancy_result(
    map_name: str,
    functionals: int = 50,
    group_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
) -> CheckResult:
    """Pulled-back source invariant constant under the target family's
    coadjoint action.

    This is the leaf-preservation test for maps whose target invariant is
    not cataloged independently.  The target family is taken at the map's
    parameters or, for a map without any, at its representative ones.
    Results for a graded map are findings about the cataloged formulas
    rather than hard failures.
    """
    map_obj = topology.leaf_map(map_name)
    if map_obj.check != "constancy":
        return _unsupported(f"leaf_constancy_{map_name}", "derived invariant")
    target_family = map_obj.target
    target_params = tuple(map_obj.params) or REPRESENTATIVE_PARAMS[target_family]
    algebra = catalog.build(target_family, target_params)

    def inside(points: np.ndarray) -> np.ndarray:
        return map_obj.margin(points) > MARGIN

    f = _generic_functionals(
        target_family, target_params, functionals, seed, f"leaf-constancy-{map_name}", inside
    )
    u = rng.sample_coordinates(
        seed, group_samples, "leaf-constancy-u", map_name, *target_params
    )
    tally = _constancy_campaign(algebra, f, u, _derived_value(map_obj), map_obj.locus, inside)
    return tally.result(
        f"leaf_constancy_{map_name}",
        tol,
        graded=map_obj.graded,
        details=(
            f"pulled-back {map_obj.source} invariant under {target_family}"
            f"{tuple(map(float, target_params))} motions"
        ),
    )


# --- Classification, fibrations, boundary ----------------------------------

def check_classification() -> CheckResult:
    """Exactly eleven, one, and four families per foliation type, with
    operator-algebra descriptors matching the component counts."""
    counts = {t: 0 for t in topology.FoliationType}
    mismatches = 0
    for family in catalog.FAMILIES:
        t = topology.classify(family)
        counts[t] += 1
        descriptor = topology.cstar_descriptor(t)
        components = len(
            topology.COMPONENT_LABELS[topology.MANIFOLD_OF_TYPE[t]]
        )
        if "^⊕" in descriptor:
            summands = int(descriptor.split("^⊕")[1].split(")")[0])
        else:
            summands = 1
        mismatches += summands != components
    expected = {
        topology.FoliationType.F1: 11,
        topology.FoliationType.F2: 1,
        topology.FoliationType.F3: 4,
    }
    mismatches += counts != expected
    return CheckResult(
        name="classification",
        passed=mismatches == 0,
        max_residual=float(mismatches),
        tolerance=0.0,
        n_evaluated=len(catalog.FAMILIES),
        details="type counts "
        + ", ".join(f"{t.value}:{counts[t]}" for t in topology.FoliationType),
    )


def check_fibration(samples: int = 1000, seed: int = 0, tol: float = 1e-6) -> CheckResult:
    """Representative fibration of each type has a nonzero gradient.

    The residual is the reciprocal gradient norm, so the check passes when
    every sampled gradient clears ``tol``.  Second-type samples cap the
    ratio of the deciding coordinates to keep the analytic gradient floor
    above the tolerance.
    """
    tally = _Tally()
    for t in topology.FoliationType:
        manifold = topology.MANIFOLD_OF_TYPE[t]
        points = rng.sample_coordinates(seed, 2 * samples, "fibration", t.value)
        keep = topology.boundary_margin(manifold, points) > MARGIN
        if t is topology.FoliationType.F2:
            keep &= np.abs(points[:, 3]) <= FIBRATION_RATIO_CAP * np.abs(points[:, 4])
        points = points[keep][:samples]
        norms = np.linalg.norm(topology.fibration_gradient(t, points), axis=-1)
        tally.fold(1.0 / norms, points)
    return tally.result("fibration", 1.0 / tol, details="residual is the reciprocal gradient norm")


def check_orbit_boundary(tol: float = 1.0) -> CheckResult:
    """Orbit type jumps at the boundary functional while the invariant
    stays bounded as the fourth coordinate shrinks to zero."""
    family, params = "G4", REPRESENTATIVE_PARAMS["G4"]
    algebra = catalog.build(family, params)
    epsilons = (1.0, 0.5, 2.0**-4, 2.0**-8, 2.0**-16, 2.0**-24, 0.0)
    tally = _Tally()
    failures = 0
    for eps in epsilons:
        f = np.array([1.0, 1.0, 1.0, eps, 1.0, 0.0, 0.0])
        expected = (
            coadjoint.OrbitType.GENERIC if eps else coadjoint.OrbitType.MAXIMAL_NONGENERIC
        )
        failures += coadjoint.orbit_type(algebra, f) is not expected
        if eps:
            tally.fold(np.abs(foliation.invariant(family, params, f)), f)
    return tally.result(
        "orbit_type_boundary",
        tol,
        passed=failures == 0 and tally.worst <= tol,
        n_evaluated=len(epsilons),
        details=f"{failures} type mismatch(es); residual is the largest invariant magnitude",
    )


# --- Per-family suite -------------------------------------------------------

def run_family_suite(
    family: str,
    params: tuple[Real, ...],
    samples: int = 500,
    seed: int = 0,
    rank_tol: float = 1e-9,
    inv_tol: float = 1e-7,
    flow_tol: float = 1e-6,
) -> list[CheckResult]:
    """Every check applicable to one family at one parameter point."""
    params = exact_params(tuple(params))
    grid = (params,)
    results = [
        jacobi_result(family, params, draws=10, seed=seed),
        golden_pairing_result(family, grid),
        rank_bound_result(family, grid, samples, seed, rank_tol),
        rank_agreement_result(family, grid, samples, seed, rank_tol),
        golden_exponential_result(family, grid, min(samples, 200), seed),
        orbit_constancy_result(family, params, min(samples, 500), seed, inv_tol),
        invariant_constancy_result(family, params, 50, min(samples, 500), seed, inv_tol),
        distribution_result(family, params),
        involutivity_result(family, params),
        measure_invariance_result(family, params, samples, seed),
        flow_result(family, params, min(samples, 200), seed, flow_tol),
    ]
    for map_name in topology.LEAF_MAP_NAMES:
        map_obj = topology.leaf_map(map_name)
        if map_obj.source != family:
            continue
        results.append(leaf_roundtrip_result(map_name, min(samples, 200), seed))
        if map_obj.check == "residual":
            results.append(leaf_residual_result(map_name, samples, seed))
        if map_obj.check == "constancy":
            results.append(
                leaf_constancy_result(map_name, 50, min(samples, 200), seed, inv_tol)
            )
    return results
