"""Verification campaigns over the catalog of coadjoint-orbit claims.

Every closed-form statement shipped by the other modules is re-checked
here against an independent computation: exact rational Jacobi sums,
frozen coefficient tables for the pairing forms and matrix exponentials,
SVD ranks against the closed-form predicates, numerically integrated
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
from .liecore import LieAlgebra7, exp_matrix, phi1, verify_jacobi

#: Deciding quantities must clear this distance from their zero locus for a
#: randomly sampled point to enter a strict-comparison campaign.
MARGIN = 0.05

#: Samples for the second foliation type's fibration keep |x4/x5| below
#: this cap so the analytic gradient floor exp(-x4/x5) stays above the
#: submersion tolerance in float arithmetic.
FIBRATION_RATIO_CAP = 10.0

_HALF = Fraction(1, 2)

#: Default parameters used when a single member of a family must stand in
#: for the whole family.
REPRESENTATIVE_PARAMS: dict[str, tuple[Fraction, ...]] = {
    family: catalog.record(family).representative for family in catalog.FAMILIES
}

#: Families whose invariant campaign the constancy criterion covers, in
#: catalog order: the three with directly printed invariants first, then
#: the seven whose invariants derive from leaf maps.
CONSTANCY_FAMILIES: tuple[str, ...] = (
    "G4", "G12", "G13", "G1", "G7", "G8", "G11", "G14", "G15", "G16",
)

#: Branch locus of each angle-bearing invariant: "a" jumps where the fifth
#: coordinate vanishes, "b" where the fourth does; the second entry is the
#: index of the algebra coordinate that shifts the orbit phase.
INVARIANT_LOCUS: dict[str, tuple[str, int]] = {
    "G13": ("a", 6),
    "G14": ("a", 6),
    "G16": ("a", 5),
}

#: Default parameters for the leaf maps that carry any.
LEAF_MAP_PARAMS: dict[str, tuple[Fraction, ...]] = {
    "h1": (),
    "h2": (Fraction(0), Fraction(2)),
    "h3": (),
    "h4": (_HALF,),
    "h5": (),
    "h6": (),
    "h7": (_HALF,),
    "h8": (_HALF,),
    "h9": (_HALF, Fraction(1)),
    "h10": (),
    "h11": (_HALF,),
}

#: Leaf maps whose target invariant is cataloged alongside the source's,
#: checked by direct residual.
RESIDUAL_MAPS: tuple[str, ...] = ("h2", "h7", "h8")

#: Leaf maps checked through the constancy of the pulled-back source
#: invariant under the target family's coadjoint action.  The associated
#: value is the target family and, where the map itself carries no
#: parameters, the representative target parameters.
DERIVED_MAPS: dict[str, tuple[str, tuple[Fraction, ...] | None]] = {
    "h1": ("G1", (Fraction(1),)),
    "h3": ("G7", ()),
    "h4": ("G8", None),
    "h5": ("G11", ()),
    "h9": ("G14", None),
    "h10": ("G15", ()),
    "h11": ("G16", None),
}

#: Derived-constancy maps whose failure is reported as a finding rather
#: than breaking the run.
GRADED_MAPS: frozenset[str] = frozenset({"h10", "h11"})

_MAP_LOCUS: dict[str, tuple[str, int]] = {
    "h9": ("a", 6),
    "h11": ("b", 5),
}

_BASE_INVARIANT: dict[str, tuple[str, tuple[Fraction, ...]]] = {
    "G2": ("G2", ()),
    "G12": ("G12", (Fraction(0),)),
    "G13": ("G13", (Fraction(0),)),
}


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


def _unsupported(name: str, what: str) -> CheckResult:
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
        """The campaign's CheckResult; ``passed`` defaults to ``worst <= tol``."""
        fields = {
            "name": name,
            "passed": self.worst <= tol,
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

def _random_rational_params(family: str, gen: np.random.Generator) -> tuple[Fraction, ...]:
    arity = catalog.PARAM_ARITY[family]
    while True:
        draw = tuple(
            Fraction(int(gen.integers(-6, 7)), int(gen.integers(1, 7))) for _ in range(arity)
        )
        try:
            catalog.validate_params(family, draw)
        except catalog.ParameterError:
            continue
        return draw


def jacobi_result(
    family: str,
    params: tuple[Real, ...] | None = None,
    draws: int = 100,
    seed: int = 0,
) -> CheckResult:
    """Exact Jacobi residual over random rational parameters of the family.

    The configured parameters, when given, are verified first (converted
    to exact rationals, which is lossless for floats).
    """
    gen = rng.generator(seed, "jacobi", family)
    worst = 0.0
    count = 0
    trials: list[tuple[Fraction, ...]] = []
    if params is not None:
        trials.append(exact_params(tuple(params)))
    trials.extend(_random_rational_params(family, gen) for _ in range(draws))
    for draw in trials:
        residual, _ = verify_jacobi(catalog.build(family, draw))
        worst = max(worst, float(residual))
        count += 1
    return CheckResult(
        name="jacobi",
        passed=worst == 0.0,
        max_residual=worst,
        tolerance=0.0,
        n_evaluated=count,
        details=f"{count} exact verifications for {family}",
    )


# --- Golden pairing forms -------------------------------------------------

def _golden_pairing(family: str, params: tuple[Real, ...]):
    """Frozen linear forms of the pairing matrix: (row, col) -> {k: coeff}
    meaning the entry equals sum of coeff times the k-th coordinate of the
    functional (rows, columns, and k are one-based)."""
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
    elif family == "G16":
        (lam,) = params
        extra = {
            (2, 6): {3: -1, 5: -1}, (2, 7): {2: -1, 5: -lam}, (3, 6): {2: 1},
            (3, 7): {3: -1, 4: lam}, (4, 6): {5: -1}, (4, 7): {4: -1},
            (5, 6): {4: 1}, (5, 7): {5: -1},
        }
    else:
        return None
    base.update(extra)
    return base


def golden_pairing_result(
    family: str,
    params_list: tuple[tuple[Real, ...], ...] | None = None,
) -> CheckResult:
    """Coefficient-exact match of computed pairing matrices against the
    frozen linear-form tables, tested one basis functional at a time."""
    probe = _golden_pairing(family, REPRESENTATIVE_PARAMS.get(family, ()))
    if probe is None:
        return _unsupported("golden_pairing", "pairing matrix")
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
        passed=excess <= 0 and attained,
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
    """Closed-form rank predicate against SVD rank, margin-filtered.

    Alongside uniform draws, boundary probes plant exact zeros in the
    fourth, fifth, and jointly third and fifth coordinates, where the
    predicate's verdict is structural.
    """
    if family not in coadjoint.RANK_CONDITION_FAMILIES:
        return _unsupported("rank_agreement", "rank predicate")
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
    """Frozen entries of exp(ad_U) for the three worked families.

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
    if family not in ("G4", "G12", "G13"):
        return _unsupported("golden_exponential", "exponential table")
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


def _main_branch(points: np.ndarray) -> np.ndarray:
    return np.minimum(np.abs(points[..., 3]), np.abs(points[..., 4])) > MARGIN


def _third_coordinate(points: np.ndarray) -> np.ndarray:
    return np.abs(points[..., 2]) > MARGIN


def _printed_value(family: str, params: tuple[Real, ...]) -> Callable[[np.ndarray], np.ndarray]:
    def value(points: np.ndarray) -> np.ndarray:
        return np.asarray(foliation.invariant(family, params, points))

    return value


def _derived_value(
    map_obj: topology.LeafMap,
    src_family: str,
    src_params: tuple[Real, ...],
) -> Callable[[np.ndarray], np.ndarray]:
    src_manifold = topology.manifold_of(src_family)

    def value(points: np.ndarray) -> np.ndarray:
        pre = map_obj.invert(points)
        good = topology.boundary_margin(src_manifold, pre) > MARGIN
        out = np.full(points.shape[:-1], np.nan)
        if np.any(good):
            out[good] = foliation.invariant(src_family, src_params, pre[good])
        return out

    return value


def same_branch(f: np.ndarray, u: np.ndarray, locus: tuple[str, int]) -> np.ndarray:
    """Whether the coadjoint image of f under exp(u) stays in the branch bin
    of f for an angle-valued invariant with branch ``locus`` (see
    INVARIANT_LOCUS).  The phase shift is exactly the ``locus`` coordinate
    of u.  Broadcasts over leading axes of ``f`` and ``u``.
    """
    kind, axis = locus
    edge = math.pi / 2 if kind == "a" else 0.0
    phase = np.arctan2(f[..., 3], f[..., 4])
    shifted = phase + u[..., axis]
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
    ``f`` and their coadjoint images under every element of ``u``.

    Pairs are dropped when the image misses the manifold margin, fails
    ``extra``, crosses the branch ``locus``, or evaluates non-finite.
    """
    tally = _Tally()
    if f.size == 0:
        return tally
    images = coadjoint.coadjoint_act(algebra, u[:, None, :], f[None, :, :])
    keep = topology.boundary_margin(topology.manifold_of(algebra.family), images) > MARGIN
    if extra is not None:
        keep &= extra(images)
    if locus is not None:
        keep &= same_branch(f[None, :, :], u[:, None, :], locus)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        base = value(f)
        moved = np.full(keep.shape, np.nan)
        if np.any(keep):
            moved[keep] = value(images[keep])
    spread = np.broadcast_to(base[None, :], keep.shape)
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
    if family not in foliation.INVARIANT_FAMILIES:
        return _unsupported("invariant_constancy", "orbit invariant")
    algebra = catalog.build(family, params)
    f = _generic_functionals(family, params, functionals, seed, "invariant", None)
    u = rng.sample_coordinates(seed, group_samples, "invariant-u", family, *params)
    tally = _constancy_campaign(
        algebra, f, u, _printed_value(family, params), INVARIANT_LOCUS.get(family)
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
    if family not in foliation.INVARIANT_FAMILIES:
        return _unsupported("orbit_constancy", "orbit invariant")
    algebra = catalog.build(family, params)
    f = _generic_functionals(family, params, 64, seed, "orbit-base", None)[:1]
    u = rng.sample_coordinates(seed, group_samples, "orbit-u", family, *params)
    tally = _constancy_campaign(
        algebra, f, u, _printed_value(family, params), INVARIANT_LOCUS.get(family)
    )
    return tally.result(
        "orbit_constancy",
        tol,
        details=f"single generic functional, {group_samples} group elements",
    )


# --- Foliation generation -------------------------------------------------

def _foliation_points(
    family: str,
    params: tuple[Real, ...],
    samples: int,
    seed: int,
    key: str,
) -> np.ndarray:
    points = rng.sample_coordinates(seed, 2 * samples, key, family, *params)
    keep = topology.boundary_margin(topology.manifold_of(family), points) > MARGIN
    keep &= coadjoint.condition_margin(family, points) > MARGIN
    return points[keep][:samples]


def distribution_result(
    family: str,
    params: tuple[Real, ...],
    samples: int = 1000,
    seed: int = 0,
    rank_tol: float = 1e-9,
) -> CheckResult:
    """Generating fields span exactly the orbit tangent space."""
    if family not in foliation.SYSTEM_FAMILIES:
        return _unsupported("distribution_span", "generating system")
    algebra = catalog.build(family, params)
    points = _foliation_points(family, params, samples, seed, "distribution")
    bad = ~np.asarray(foliation.distribution_equiv(algebra, points, rank_tol))
    failures = int(np.count_nonzero(bad))
    tally = _Tally()
    tally.fold(np.ones(failures), points[bad], evaluated=points.shape[0])
    return tally.result(
        "distribution_span",
        max_residual=float(failures),
        details=f"{failures} span failure(s) on {points.shape[0]} generic points",
    )


def involutivity_result(
    family: str,
    params: tuple[Real, ...],
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckResult:
    """Pairwise field brackets stay inside the pointwise span."""
    if family not in foliation.SYSTEM_FAMILIES:
        return _unsupported("involutivity", "generating system")
    points = _foliation_points(family, params, samples, seed, "distribution")
    tally = _Tally()
    tally.fold(foliation.involutivity_residual(family, params, points), points)
    return tally.result("involutivity", tol)


# --- Measure invariance and flows ------------------------------------------

def measure_invariance_result(
    family: str,
    params: tuple[Real, ...],
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Determinant of the orbit map equals exp of the adjoint trace."""
    algebra = catalog.build(family, params)
    u = rng.sample_coordinates(seed, samples, "measure", family, *params)
    det, exp_trace = coadjoint.jacobian_check(algebra, u)
    tally = _Tally()
    tally.fold(np.abs(det - exp_trace) / np.abs(exp_trace), u)
    return tally.result("measure_invariance", tol)


def flow_result(
    family: str,
    params: tuple[Real, ...],
    starts: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
    steps: int = 512,
) -> CheckResult:
    """Closed-form flows against Runge-Kutta integration of the fields."""
    if family not in foliation.FLOW_FAMILIES:
        return _unsupported("flow_equivalence", "flow table")
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
    map_obj: topology.LeafMap,
    manifold: topology.Manifold,
    samples: int,
    seed: int,
    key: str,
    third_margin: bool,
) -> list[np.ndarray]:
    """Margin-filtered sample batches: the main branch, plus, on the third
    manifold, batches with an exactly planted zero in either deciding
    coordinate."""
    points = rng.sample_coordinates(seed, samples, key, map_obj.name, *map_obj.params)
    batches = []
    if manifold is topology.Manifold.V3:
        main = points[_main_branch(points)]
        zero4 = np.array(points, copy=True)
        zero4[:, 3] = 0.0
        zero5 = np.array(points, copy=True)
        zero5[:, 4] = 0.0
        batches = [
            main,
            zero4[np.abs(zero4[:, 4]) > MARGIN],
            zero5[np.abs(zero5[:, 3]) > MARGIN],
        ]
    else:
        keep = topology.boundary_margin(manifold, points) > MARGIN
        if third_margin:
            keep &= _third_coordinate(points)
        batches = [points[keep]]
    return batches


def leaf_roundtrip_result(
    map_name: str,
    params: tuple[Real, ...] | None = None,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> CheckResult:
    """Inverse-after-forward and forward-after-inverse both recover the
    input, including on the planted degenerate branches."""
    if params is None:
        params = LEAF_MAP_PARAMS[map_name]
    map_obj = topology.leaf_map(map_name, params)
    manifold = map_obj.manifold
    tally = _Tally()
    for direction in ("forward", "inverse"):
        key = f"roundtrip-{direction}"
        for batch in _map_samples(map_obj, manifold, samples, seed, key, map_name == "h1"):
            if batch.size == 0:
                continue
            if direction == "forward":
                there = map_obj.apply(batch)
                back = map_obj.invert(there)
            else:
                if map_name == "h1":
                    pre = map_obj.invert(batch)
                    ok = np.abs(pre[:, 3]) > MARGIN
                    batch, pre = batch[ok], pre[ok]
                    if batch.size == 0:
                        continue
                else:
                    pre = map_obj.invert(batch)
                back = map_obj.apply(pre)
            residual = np.abs(back - batch).max(axis=-1) / (
                1.0 + np.abs(batch).max(axis=-1)
            )
            tally.fold(residual, batch)
    return tally.result(f"leaf_roundtrip_{map_name}", tol)


def leaf_residual_result(
    map_name: str,
    params: tuple[Real, ...] | None = None,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckResult:
    """Target invariant of the mapped point equals the source invariant.

    Available for the maps whose source and target invariants are both
    cataloged; the source is always the parameter-zero member.
    """
    if map_name not in RESIDUAL_MAPS:
        return _unsupported(f"leaf_residual_{map_name}", "invariant pair")
    if params is None:
        params = LEAF_MAP_PARAMS[map_name]
    map_obj = topology.leaf_map(map_name, params)
    src_family, src_params = _BASE_INVARIANT[map_obj.source]
    points = rng.sample_coordinates(seed, 2 * samples, "leaf-residual", map_name, *params)
    keep = topology.boundary_margin(map_obj.manifold, points) > MARGIN
    if map_obj.manifold is topology.Manifold.V3:
        keep &= _main_branch(points)
    points = points[keep][:samples]
    source_vals = foliation.invariant(src_family, src_params, points)
    target_vals = foliation.invariant(map_obj.target, params, map_obj.apply(points))
    tally = _Tally()
    tally.fold(np.abs(target_vals - source_vals) / (1.0 + np.abs(source_vals)), points)
    return tally.result(
        f"leaf_residual_{map_name}",
        tol,
        details=f"source invariant {src_family}{tuple(map(float, src_params))}",
    )


def leaf_constancy_result(
    map_name: str,
    params: tuple[Real, ...] | None = None,
    functionals: int = 50,
    group_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
) -> CheckResult:
    """Pulled-back source invariant constant under the target family's
    coadjoint action.

    This is the leaf-preservation test for maps whose target invariant is
    not cataloged independently.  Results for the two maps in GRADED_MAPS
    are findings about the cataloged formulas rather than hard failures.
    """
    if map_name not in DERIVED_MAPS:
        return _unsupported(f"leaf_constancy_{map_name}", "derived invariant")
    if params is None:
        params = LEAF_MAP_PARAMS[map_name]
    map_obj = topology.leaf_map(map_name, params)
    target_family, fixed = DERIVED_MAPS[map_name]
    target_params = tuple(params) if fixed is None else fixed
    algebra = catalog.build(target_family, target_params)
    src_family, src_params = _BASE_INVARIANT[map_obj.source]
    extra = None
    if map_obj.manifold is topology.Manifold.V3:
        extra = _main_branch
    elif map_name == "h1":
        extra = _third_coordinate
    f = _generic_functionals(
        target_family, target_params, functionals, seed, f"leaf-constancy-{map_name}", extra
    )
    u = rng.sample_coordinates(
        seed, group_samples, "leaf-constancy-u", map_name, *target_params
    )
    tally = _constancy_campaign(
        algebra,
        f,
        u,
        _derived_value(map_obj, src_family, src_params),
        _MAP_LOCUS.get(map_name),
        extra,
    )
    return tally.result(
        f"leaf_constancy_{map_name}",
        tol,
        graded=map_name in GRADED_MAPS,
        details=(
            f"pulled-back {src_family} invariant under {target_family}"
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
    worst = 0.0
    failures = 0
    for eps in epsilons:
        f = np.array([1.0, 1.0, 1.0, eps, 1.0, 0.0, 0.0])
        expected = (
            coadjoint.OrbitType.GENERIC if eps else coadjoint.OrbitType.MAXIMAL_NONGENERIC
        )
        failures += coadjoint.orbit_type(algebra, f) is not expected
        if eps:
            worst = max(worst, abs(float(foliation.invariant(family, params, f))))
    return CheckResult(
        name="orbit_type_boundary",
        passed=failures == 0 and worst <= tol,
        max_residual=worst,
        tolerance=tol,
        n_evaluated=len(epsilons),
        worst_sample=(1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0),
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
        distribution_result(family, params, samples, seed, rank_tol),
        involutivity_result(family, params, samples, seed),
        measure_invariance_result(family, params, samples, seed),
        flow_result(family, params, min(samples, 200), seed, flow_tol),
    ]
    for map_name in topology.LEAF_MAP_NAMES:
        if topology.leaf_map(map_name, LEAF_MAP_PARAMS[map_name]).source != family:
            continue
        results.append(leaf_roundtrip_result(map_name, None, min(samples, 200), seed))
        if map_name in RESIDUAL_MAPS:
            results.append(leaf_residual_result(map_name, None, samples, seed))
        if map_name in DERIVED_MAPS:
            results.append(
                leaf_constancy_result(map_name, None, 50, min(samples, 200), seed, inv_tol)
            )
    return results
