"""Outside-in tracer for the korbit benchmark.

The tracer wraps public korbit functions from the benchmark's side; the
program itself carries no instrumentation.  Each wrapped call records a
span: id, parent id, pass id, layer name, start, end, self time, and the
work it did.  Spans are kept in memory while a pass runs and written out
after the run.

A layer's self time is the span's duration minus the durations of its
direct child spans.  Since calls nest, the self times of one pass add up
to the duration of its root span.

``from .liecore import exp_matrix`` leaves a second reference to the
function in the importing module, so ``install`` rebinds every name in the
korbit package that refers to a wrapped function, not only the defining one.
"""
from __future__ import annotations

import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from korbit import catalog, cli, coadjoint, foliation, liecore, rng, topology, verify

#: Span fields, in the order each span tuple stores them.  ``work`` is the
#: batch size for exp_matrix and numeric_rank, the step count for
#: flow_numeric and n_evaluated for a campaign; ``requested`` is the
#: campaign's sample budget; ``headroom`` is its max_residual / tolerance.
SPAN_FIELDS = (
    "span_id", "parent_id", "pass_id", "layer", "start", "end", "self_s",
    "work", "requested", "headroom",
)

#: Verification campaigns: every ``*_result`` and ``check_*`` function.
CAMPAIGNS = (
    "jacobi_result",
    "golden_pairing_result",
    "rank_bound_result",
    "rank_agreement_result",
    "golden_exponential_result",
    "invariant_constancy_result",
    "orbit_constancy_result",
    "distribution_result",
    "involutivity_result",
    "measure_invariance_result",
    "flow_result",
    "leaf_roundtrip_result",
    "leaf_residual_result",
    "leaf_constancy_result",
    "check_classification",
    "check_fibration",
    "check_orbit_boundary",
)


def _grid(a: dict[str, Any]) -> tuple:
    return a["params_list"] or catalog.default_parameter_grid(a["family"])


#: Samples a campaign was asked for, from its bound arguments.  Campaigns
#: that plant extra probes can evaluate more than they were asked for;
#: campaigns missing here take no sample budget and count what they
#: evaluated.
REQUESTED: dict[str, Callable[[dict[str, Any]], int]] = {
    "jacobi_result": lambda a: a["draws"] + (a["params"] is not None),
    "golden_pairing_result": lambda a: 7 * len(_grid(a)),
    "rank_bound_result": lambda a: a["samples"],
    "rank_agreement_result": lambda a: a["samples"] + 3 * a["probes_per_pattern"] * len(_grid(a)),
    "golden_exponential_result": lambda a: a["samples"] * len(_grid(a)),
    "invariant_constancy_result": lambda a: a["functionals"] * a["group_samples"],
    "orbit_constancy_result": lambda a: a["group_samples"],
    "distribution_result": lambda a: a["samples"],
    "involutivity_result": lambda a: a["samples"],
    "measure_invariance_result": lambda a: a["samples"],
    "flow_result": lambda a: 6 * a["starts"],
    "leaf_roundtrip_result": lambda a: 2 * a["samples"],
    "leaf_residual_result": lambda a: a["samples"],
    "leaf_constancy_result": lambda a: a["functionals"] * a["group_samples"],
    "check_fibration": lambda a: 3 * a["samples"],
}


def _batch(args: tuple, kwargs: dict, result: Any) -> tuple[int, int, float]:
    shape = np.shape(args[0] if args else kwargs["m"])
    return math.prod(shape[:-2]), 0, 0.0


def _rk_steps(fn: Callable) -> Callable[[tuple, dict, Any], tuple[int, int, float]]:
    signature = inspect.signature(fn)

    def measure(args: tuple, kwargs: dict, result: Any) -> tuple[int, int, float]:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["steps"], 0, 0.0

    return measure


def _campaign(name: str, fn: Callable) -> Callable[[tuple, dict, Any], tuple[int, int, float]]:
    signature = inspect.signature(fn)
    requested = REQUESTED.get(name)

    def measure(args: tuple, kwargs: dict, result: Any) -> tuple[int, int, float]:
        asked = result.n_evaluated
        if requested is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            asked = requested(bound.arguments)
        headroom = 0.0
        if not result.graded and result.tolerance > 0 and result.n_evaluated:
            headroom = result.max_residual / result.tolerance
        return result.n_evaluated, asked, headroom

    return measure


def layer_targets() -> list[tuple[str, object, str, Callable | None]]:
    """(layer, owner, attribute, work measure) for every wrapped callable."""
    targets: list[tuple[str, object, str, Callable | None]] = [
        ("liecore.exp_matrix", liecore, "exp_matrix", _batch),
        ("liecore.numeric_rank", liecore, "numeric_rank", _batch),
        ("liecore.verify_jacobi", liecore, "verify_jacobi", None),
        ("liecore.einsum", liecore.LieAlgebra7, "ad", None),
        ("liecore.einsum", liecore.LieAlgebra7, "kirillov", None),
        ("liecore.einsum", liecore.LieAlgebra7, "bracket", None),
        ("catalog.build", catalog, "build", None),
        ("foliation.flow_numeric", foliation, "flow_numeric", _rk_steps(foliation.flow_numeric)),
        ("foliation.field_eval", foliation.LinearVectorField, "__call__", None),
        ("foliation.geometry", foliation, "invariant", None),
        ("foliation.geometry", foliation, "distribution_equiv", None),
        ("foliation.geometry", foliation, "involutivity_residual", None),
        ("foliation.geometry", foliation, "annihilation_residual", None),
        ("coadjoint.sample_orbit", coadjoint, "sample_orbit", None),
        ("coadjoint.orbit_dimension", coadjoint, "orbit_dimension", None),
        ("coadjoint.jacobian_check", coadjoint, "jacobian_check", None),
        ("coadjoint.coadjoint_act", coadjoint, "coadjoint_act", None),
        ("topology.leaf_map", topology, "leaf_map", None),
        ("topology.leaf_map", topology.LeafMap, "apply", None),
        ("topology.leaf_map", topology.LeafMap, "invert", None),
        ("rng", rng, "generator", None),
        ("rng", rng, "sample_functionals", None),
        ("rng", rng, "sample_coordinates", None),
        ("verify.run_family_suite", verify, "run_family_suite", None),
        ("cli.main", cli, "main", None),
    ]
    for name in CAMPAIGNS:
        fn = getattr(verify, name)
        targets.append((f"verify.{name}", verify, name, _campaign(name, fn)))
    return targets


#: Per-layer metrics of a traced pass: (name, unit, layer, field).
#: ``calls`` counts spans, ``work`` sums the span work, ``self_s`` and
#: ``incl_s`` sum self times and durations, ``yield`` is work over
#: requested samples and ``headroom`` the largest headroom of the layer.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("liecore.exp_matrix.calls", "count", "liecore.exp_matrix", "calls"),
    ("liecore.exp_matrix.rows", "count", "liecore.exp_matrix", "work"),
    ("liecore.exp_matrix.self_s", "s", "liecore.exp_matrix", "self_s"),
    ("liecore.numeric_rank.calls", "count", "liecore.numeric_rank", "calls"),
    ("liecore.numeric_rank.rows", "count", "liecore.numeric_rank", "work"),
    ("liecore.numeric_rank.self_s", "s", "liecore.numeric_rank", "self_s"),
    ("liecore.verify_jacobi.calls", "count", "liecore.verify_jacobi", "calls"),
    ("liecore.verify_jacobi.self_s", "s", "liecore.verify_jacobi", "self_s"),
    ("liecore.einsum.calls", "count", "liecore.einsum", "calls"),
    ("liecore.einsum.self_s", "s", "liecore.einsum", "self_s"),
    ("catalog.build.calls", "count", "catalog.build", "calls"),
    ("catalog.build.self_s", "s", "catalog.build", "self_s"),
    ("foliation.flow_numeric.calls", "count", "foliation.flow_numeric", "calls"),
    ("foliation.flow_numeric.rk_steps", "count", "foliation.flow_numeric", "work"),
    ("foliation.flow_numeric.self_s", "s", "foliation.flow_numeric", "self_s"),
    ("foliation.field_eval.calls", "count", "foliation.field_eval", "calls"),
    ("foliation.field_eval.self_s", "s", "foliation.field_eval", "self_s"),
    ("foliation.geometry.self_s", "s", "foliation.geometry", "self_s"),
    ("coadjoint.sample_orbit.self_s", "s", "coadjoint.sample_orbit", "self_s"),
    ("coadjoint.orbit_dimension.self_s", "s", "coadjoint.orbit_dimension", "self_s"),
    ("coadjoint.jacobian_check.self_s", "s", "coadjoint.jacobian_check", "self_s"),
    ("coadjoint.coadjoint_act.self_s", "s", "coadjoint.coadjoint_act", "self_s"),
    ("topology.leaf_map.self_s", "s", "topology.leaf_map", "self_s"),
    ("rng.calls", "count", "rng", "calls"),
    ("rng.self_s", "s", "rng", "self_s"),
) + tuple(
    (f"verify.{name}.{suffix}", unit, f"verify.{name}", fld)
    for name in CAMPAIGNS
    for suffix, unit, fld in (
        ("incl_s", "s", "incl_s"),
        ("n_evaluated", "count", "work"),
        ("yield", "share", "yield"),
        ("headroom", "ratio", "headroom"),
    )
)

#: Unit of every per-layer metric a traced run reports.
PER_LAYER_UNITS: dict[str, str] = {name: unit for name, unit, _, _ in LAYER_METRICS} | {
    "cli.report.self_s": "s",
    "trace.overhead_s": "s",
}

#: Fields that count work; they must repeat exactly for the same inputs.
COUNT_FIELDS = ("calls", "work")


@dataclass
class LayerTotals:
    """Totals of one layer over one pass."""

    calls: int = 0
    work: int = 0
    requested: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    headroom: float = 0.0

    def value(self, fld: str) -> float:
        if fld == "yield":
            return self.work / self.requested if self.requested else 0.0
        return getattr(self, fld)


@dataclass
class Tracer:
    """Records spans around calls into korbit while installed."""

    spans: list[tuple] = field(default_factory=list)
    pass_id: int = -1
    _stack: list[list] = field(default_factory=list)
    _next_id: int = 0
    _patches: list[tuple[object, str, Any]] = field(default_factory=list)

    def wrap(self, layer: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """A callable that runs ``fn`` inside a span of ``layer``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent_id = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            work, requested, headroom = (0, 0, 0.0)
            if measure is not None:
                work, requested, headroom = measure(args, kwargs, result)
            spans.append(
                (span_id, parent_id, self.pass_id, layer, start, end,
                 end - start - frame[1], work, requested, headroom)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer target and rebind every korbit name for it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "korbit"]
        for layer, owner, attr, measure in layer_targets():
            original = owner.__dict__[attr]
            wrapper = self.wrap(layer, original, measure)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every name ``install`` rebound."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def pop_spans(self) -> list[tuple]:
        """The spans recorded so far, which the tracer then forgets."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def totals(spans: list[tuple]) -> dict[str, LayerTotals]:
    """Per-layer totals of a list of spans."""
    out: dict[str, LayerTotals] = {}
    for span in spans:
        t = out.setdefault(span[3], LayerTotals())
        t.calls += 1
        t.self_s += span[6]
        t.incl_s += span[5] - span[4]
        t.work += span[7]
        t.requested += span[8]
        t.headroom = max(t.headroom, span[9])
    return out


def layer_values(by_layer: dict[str, LayerTotals]) -> dict[str, float]:
    """Every per-layer metric of one pass, by metric name."""
    empty = LayerTotals()
    values = {
        name: by_layer.get(layer, empty).value(fld) for name, _, layer, fld in LAYER_METRICS
    }
    main = by_layer.get("cli.main", empty).incl_s
    suite = by_layer.get("verify.run_family_suite", empty).incl_s
    values["cli.report.self_s"] = main - suite
    return values
