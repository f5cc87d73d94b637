"""Command line interface: catalog listing, verification suites,
foliation classification, and orbit sampling.

Reports are deterministic for a fixed seed apart from wall_time_ms:
sampling uses counter-based generators keyed by (seed, check, family,
parameters), and every float is printed with 17 significant digits.
Exit codes: 0 when every non-graded check passes, 1 when a check fails,
2 on usage or parameter constraint violations.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import catalog, coadjoint, foliation, topology, verify
from .liecore import DomainError, ParameterError, UnsupportedFamilyError

SCHEMA_VERSION = 1

_NILRADICAL = "g5,2"


# --- Deterministic JSON -----------------------------------------------------

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must not contain non-finite numbers")
    return f"{x:.17g}"


def _finite_or_none(x: float) -> float | None:
    """A residual for the JSON report, where null states a non-finite one."""
    return x if math.isfinite(x) else None


def _to_json(value: Any, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _to_json(v, indent + 2) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": ' + _to_json(v, indent + 2) for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _emit(payload: Any, out: str | None, as_json: bool, human: str) -> None:
    text = _to_json(payload) + "\n"
    if out is not None:
        _write_atomic(Path(out), text)
    if as_json:
        sys.stdout.write(text)
    elif out is None:
        sys.stdout.write(human)


# --- Parameter handling -----------------------------------------------------

def _collect_params(family: str, args: argparse.Namespace) -> tuple[Fraction, ...] | None:
    """Parameters from the flags, or None when none were given."""
    arity = catalog.PARAM_ARITY[family]
    given = {
        name: value
        for name, value in (("l", args.l), ("l1", args.l1), ("l2", args.l2))
        if value is not None
    }
    if not given:
        return None
    if arity == 0:
        raise ParameterError(f"{family} takes no parameters")
    if arity == 1:
        if set(given) != {"l"}:
            raise ParameterError(f"{family} takes a single parameter via --l")
        return (given["l"],)
    if set(given) != {"l1", "l2"}:
        raise ParameterError(f"{family} takes two parameters via --l1 and --l2")
    return (given["l1"], given["l2"])


def _family_argument(value: str) -> str:
    name = value.strip().upper()
    if name != "ALL" and name not in catalog.FAMILIES:
        raise argparse.ArgumentTypeError(
            f"unknown family {value!r}; expected G1..G16 or 'all'"
        )
    return "all" if name == "ALL" else name


def _fraction_argument(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {value!r}") from exc


# --- catalog ----------------------------------------------------------------

def _catalog_rows() -> list[dict[str, Any]]:
    rows = []
    for family in catalog.FAMILIES:
        fam = catalog.record(family)
        rows.append(
            {
                "family": family,
                "arity": fam.arity,
                "parameters": list(fam.param_names),
                "constraint": fam.constraint,
                "class": "exponential" if fam.exponential else "non-exponential",
                "nilradical": _NILRADICAL,
            }
        )
    return rows


def cmd_catalog(args: argparse.Namespace) -> int:
    rows = _catalog_rows()
    lines = [f"{'family':<8}{'params':<14}{'constraint':<32}{'class':<17}nilradical"]
    for row in rows:
        names = ", ".join(row["parameters"]) if row["parameters"] else "-"
        constraint = row["constraint"] or "-"
        lines.append(
            f"{row['family']:<8}{names:<14}{constraint:<32}{row['class']:<17}{row['nilradical']}"
        )
    _emit(rows, args.out, args.json, "\n".join(lines) + "\n")
    return 0


# --- classify ----------------------------------------------------------------

def cmd_classify(args: argparse.Namespace) -> int:
    rows = []
    counts = {t: 0 for t in topology.FoliationType}
    for family in catalog.FAMILIES:
        t = topology.classify(family)
        counts[t] += 1
        rows.append(
            {
                "family": family,
                "manifold": topology.manifold_of(family).value,
                "foliation_type": t.value,
                "cstar_algebra": topology.cstar_descriptor(t),
            }
        )
    lines = [f"{'family':<8}{'manifold':<10}{'type':<6}leaf space C*-algebra"]
    for row in rows:
        lines.append(
            f"{row['family']:<8}{row['manifold']:<10}{row['foliation_type']:<6}{row['cstar_algebra']}"
        )
    lines.append(
        "counts: "
        + ", ".join(f"{t.value}={counts[t]}" for t in topology.FoliationType)
    )
    _emit(rows, args.out, args.json, "\n".join(lines) + "\n")
    return 0


# --- verify -------------------------------------------------------------------

def _run_report(
    family: str,
    params: tuple[Fraction, ...],
    args: argparse.Namespace,
) -> tuple[dict[str, Any], list[verify.CheckResult]]:
    start = time.perf_counter()
    results = verify.run_family_suite(
        family,
        params,
        samples=args.samples,
        seed=args.seed,
        rank_tol=args.rank_tol,
        inv_tol=args.inv_tol,
        flow_tol=args.flow_tol,
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "params": [float(p) for p in params],
        "seed": args.seed,
        "samples": args.samples,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "graded": r.graded,
                "max_residual": _finite_or_none(float(r.max_residual)),
                "tolerance": float(r.tolerance),
                "n_evaluated": r.n_evaluated,
                "worst_sample": list(r.worst_sample) if r.worst_sample is not None else None,
                "details": r.details,
            }
            for r in results
        ],
        "wall_time_ms": wall_ms,
    }
    return report, results


def _human_report(report: dict[str, Any], results: Sequence[verify.CheckResult]) -> str:
    params = ", ".join(_format_float(p) for p in report["params"])
    lines = [
        f"== {report['family']} params=({params}) seed={report['seed']} "
        f"samples={report['samples']} =="
    ]
    for r in results:
        if r.skipped:
            verdict = "SKIP"
        else:
            verdict = "PASS" if r.passed else ("FIND" if r.graded else "FAIL")
        residual = float(r.max_residual)
        shown = _format_float(residual) if math.isfinite(residual) else str(residual)
        line = (
            f"{verdict} {r.name:<24} residual={shown}"
            f" tol={_format_float(float(r.tolerance))} n={r.n_evaluated}"
        )
        if r.details and (not r.passed or r.n_evaluated == 0):
            line += f"  [{r.details}]"
        lines.append(line)
    skipped = sum(r.skipped for r in results)
    passed = sum(r.passed and not r.skipped for r in results)
    lines.append(
        f"{passed}/{len(results) - skipped} checks passed, {skipped} skipped"
        f" in {report['wall_time_ms']:.0f} ms"
    )
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    if args.family == "all":
        if any(v is not None for v in (args.l, args.l1, args.l2)):
            raise ParameterError("parameter flags require a single --family")
        runs = [
            (family, verify.REPRESENTATIVE_PARAMS[family])
            for family in catalog.FAMILIES
        ]
    else:
        params = _collect_params(args.family, args)
        if params is None:
            grid = catalog.default_parameter_grid(args.family)
        else:
            grid = (params,)
        runs = [(args.family, entry) for entry in grid]
    for family, params in runs:
        catalog.validate_params(family, params)
    reports = []
    all_results: list[verify.CheckResult] = []
    human_parts: list[str] = []
    for family, params in runs:
        report, results = _run_report(family, verify.exact_params(params), args)
        reports.append(report)
        all_results.extend(results)
        human_parts.append(_human_report(report, results))
    payload: Any = reports[0] if len(reports) == 1 else reports
    failures = [r for r in all_results if not r.passed and not r.graded]
    findings = [r for r in all_results if not r.passed and r.graded]
    summary = ""
    if len(reports) > 1:
        summary = (
            f"total: {sum(len(r['checks']) for r in reports)} checks over "
            f"{len(reports)} runs, {len(failures)} failure(s), "
            f"{len(findings)} graded finding(s)\n"
        )
    _emit(payload, args.out, args.json, "".join(human_parts) + summary)
    return 1 if failures else 0


# --- orbit --------------------------------------------------------------------

def cmd_orbit(args: argparse.Namespace) -> int:
    family = args.family
    if family == "all":
        raise ParameterError("orbit sampling needs one family, not 'all'")
    params = _collect_params(family, args)
    if params is None:
        if catalog.PARAM_ARITY[family]:
            flags = "--l" if catalog.PARAM_ARITY[family] == 1 else "--l1/--l2"
            raise ParameterError(f"{family} needs parameters via {flags}")
        params = ()
    catalog.validate_params(family, params)
    algebra = catalog.build(family, params)
    f = np.asarray(args.functional, dtype=float)
    points = coadjoint.sample_orbit(algebra, f, args.n, args.seed)
    kind = coadjoint.orbit_type(algebra, f)
    dimension = int(coadjoint.orbit_dimension(algebra, f))

    invariant_value: float | None = None
    deviation: float | None = None
    n_evaluated = 0
    if family in foliation.INVARIANT_FAMILIES and topology.contains(
        topology.manifold_of(family), f
    ):
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            base = float(foliation.invariant(family, params, f))
        if math.isfinite(base):
            invariant_value = base
            keep = topology.contains(topology.manifold_of(family), points)
            locus = verify.INVARIANT_LOCUS.get(family)
            if locus is not None:
                u = coadjoint.orbit_elements(algebra, args.n, args.seed)
                keep &= verify.same_branch(f, u, locus)
            values = np.full(args.n, np.nan)
            if np.any(keep):
                with np.errstate(
                    over="ignore", under="ignore", divide="ignore", invalid="ignore"
                ):
                    values[keep] = foliation.invariant(family, params, points[keep])
            good = np.isfinite(values)
            n_evaluated = int(np.count_nonzero(good))
            if n_evaluated:
                deviation = float(
                    np.abs(values[good] - base).max() / (1.0 + abs(base))
                )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "params": [float(p) for p in params],
        "functional": [float(x) for x in f],
        "seed": args.seed,
        "n": args.n,
        "orbit_type": kind.value,
        "orbit_dimension": dimension,
        "invariant": invariant_value,
        "max_invariant_deviation": deviation,
        "n_deviation_evaluated": n_evaluated,
        "points": [[float(x) for x in row] for row in points],
    }
    human = (
        f"{family} orbit through ({', '.join(_format_float(float(x)) for x in f)}): "
        f"type {kind.value}, dimension {dimension}, {args.n} points\n"
    )
    _emit(payload, args.out, args.json or args.out is None, human)
    return 0


# --- entry point ----------------------------------------------------------------

def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _finite_float(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {value!r}")
    return x


def _positive_float(value: str) -> float:
    x = float(value)
    if not (x > 0.0 and math.isfinite(x)):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return x


#: Arguments read as negative numbers, not options: argparse's own pattern
#: misses scientific notation and ``-inf``.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that passes every _NEGATIVE_NUMBER to the argument's
    type, which accepts or refuses it; subcommand parsers inherit the class."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="korbit",
        description=(
            "Numerical verification of coadjoint-orbit geometry for the "
            "sixteen seven-dimensional solvable Lie groups over the "
            "five-dimensional nilradical with two independent brackets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list the sixteen families")
    p_catalog.add_argument("--json", action="store_true", help="print JSON")
    p_catalog.add_argument("--out", metavar="PATH", help="write JSON to PATH atomically")
    p_catalog.set_defaults(func=cmd_catalog)

    p_classify = sub.add_parser("classify", help="foliation types and leaf space algebras")
    p_classify.add_argument("--json", action="store_true", help="print JSON")
    p_classify.add_argument("--out", metavar="PATH", help="write JSON to PATH atomically")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "--family",
        type=_family_argument,
        default="all",
        help="one of G1..G16, or 'all' for one representative member each",
    )
    p_verify.add_argument("--l", type=_fraction_argument, help="single parameter λ")
    p_verify.add_argument("--l1", type=_fraction_argument, help="first parameter λ1")
    p_verify.add_argument("--l2", type=_fraction_argument, help="second parameter λ2")
    p_verify.add_argument(
        "--samples", type=_positive_int, default=500,
        help="sample budget per check (default 500)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument(
        "--rank-tol", type=_positive_float, default=1e-9,
        help="singular-value cutoff for numeric rank (default 1e-9)",
    )
    p_verify.add_argument(
        "--inv-tol", type=_positive_float, default=1e-7,
        help="relative tolerance for invariant constancy (default 1e-7)",
    )
    p_verify.add_argument(
        "--flow-tol", type=_positive_float, default=1e-6,
        help="tolerance for closed-form versus integrated flows (default 1e-6)",
    )
    p_verify.add_argument("--out", metavar="PATH", help="write the report to PATH atomically")
    p_verify.add_argument("--json", action="store_true", help="print the report as JSON")
    p_verify.set_defaults(func=cmd_verify)

    p_orbit = sub.add_parser("orbit", help="sample one coadjoint orbit")
    p_orbit.add_argument("family", type=_family_argument)
    p_orbit.add_argument(
        "functional",
        type=_finite_float,
        nargs=7,
        metavar="F",
        help="seven coordinates of the starting functional",
    )
    p_orbit.add_argument("--l", type=_fraction_argument, help="single parameter λ")
    p_orbit.add_argument("--l1", type=_fraction_argument, help="first parameter λ1")
    p_orbit.add_argument("--l2", type=_fraction_argument, help="second parameter λ2")
    p_orbit.add_argument(
        "--n", type=_positive_int, default=200, help="number of orbit points (default 200)"
    )
    p_orbit.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_orbit.add_argument("--out", metavar="PATH", help="write JSON to PATH atomically")
    p_orbit.add_argument("--json", action="store_true", help="print JSON (default)")
    p_orbit.set_defaults(func=cmd_orbit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, UnsupportedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
