"""Command-line interface: exit codes, report schema, and reproducibility."""
from __future__ import annotations

import collections
import json

import numpy as np
import pytest

from korbit import cli, coadjoint, foliation

VERIFY_FAST = ["--samples", "60", "--seed", "0"]


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_all_sixteen_families(capsys):
    code, out, _ = _run(["catalog"], capsys)
    assert code == 0
    for family in ("G1", "G9", "G13", "G16"):
        assert family in out
    assert out.count("non-exponential") == 4


def test_classify_reports_counts(capsys):
    code, out, _ = _run(["classify"], capsys)
    assert code == 0
    assert "F1=11" in out and "F2=1" in out and "F3=4" in out


def test_classify_json_is_well_formed(capsys):
    code, out, _ = _run(["classify", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    counts = {"F1": 0, "F2": 0, "F3": 0}
    for row in rows:
        counts[row["foliation_type"]] += 1
    assert counts == {"F1": 11, "F2": 1, "F3": 4}
    by_name = {row["family"]: row for row in rows}
    assert by_name["G12"]["foliation_type"] == "F2"
    assert by_name["G12"]["manifold"] == "V2"
    assert by_name["G15"]["cstar_algebra"] == "C0(R) ⊗ K"


def test_verify_single_family_report_schema(capsys):
    code, out, _ = _run(
        ["verify", "--family", "G4", "--l1", "0", "--l2", "2", "--json", *VERIFY_FAST],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 2
    assert report["family"] == "G4"
    assert report["params"] == [0.0, 2.0]
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for check in report["checks"]:
        assert set(check) >= {
            "name", "status", "passed", "graded", "max_residual",
            "tolerance", "n_evaluated",
        }
    assert all(c["passed"] for c in report["checks"])
    assert {c["status"] for c in report["checks"]} <= {"pass", "skip"}


def test_verify_reports_are_reproducible(capsys):
    argv = ["verify", "--family", "G6", "--l", "1/2", "--json", *VERIFY_FAST]
    code_a, out_a, _ = _run(argv, capsys)
    code_b, out_b, _ = _run(argv, capsys)
    assert code_a == code_b == 0
    rep_a, rep_b = json.loads(out_a), json.loads(out_b)
    rep_a.pop("wall_time_ms")
    rep_b.pop("wall_time_ms")
    assert rep_a == rep_b


def test_verify_family_without_invariant_degrades(capsys):
    code, out, _ = _run(["verify", "--family", "G9", "--json", *VERIFY_FAST], capsys)
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    degraded = by_name["invariant_constancy"]
    assert degraded["passed"] and degraded["n_evaluated"] == 0
    assert degraded["status"] == "skip"
    assert "unsupported" in degraded["details"]


def test_verify_graded_finding_does_not_fail_the_run(capsys):
    code, out, _ = _run(
        ["verify", "--family", "G13", "--l", "1/2", "--json", *VERIFY_FAST], capsys
    )
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    finding = by_name["leaf_constancy_h11"]
    assert finding["graded"] and not finding["passed"]
    assert finding["status"] == "finding"


def test_verify_reports_a_nan_residual_as_a_failure(capsys, monkeypatch):
    """A NaN residual prints as a FAIL line and as null in JSON, and the
    finite residuals of the other checks are still numbers."""
    exact = coadjoint.jacobian_check

    def jacobian_with_nan(algebra, u):
        det, exp_trace = exact(algebra, u)
        det = np.array(det, dtype=float)
        det[3] = np.nan
        return det, exp_trace

    monkeypatch.setattr(coadjoint, "jacobian_check", jacobian_with_nan)
    argv = ["verify", "--family", "G4", "--l1", "0", "--l2", "2", *VERIFY_FAST]
    code, out, _ = _run(argv, capsys)
    assert code == 1
    line = next(l for l in out.splitlines() if "measure_invariance" in l)
    assert line.startswith("FAIL ") and "residual=nan " in line

    code, out, _ = _run([*argv, "--json"], capsys)
    assert code == 1
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    planted = by_name.pop("measure_invariance")
    assert planted["max_residual"] is None and not planted["passed"]
    assert planted["status"] == "fail"
    assert planted["worst_sample"] is not None
    assert all(isinstance(c["max_residual"], (int, float)) for c in by_name.values())


def test_verify_rejects_invalid_parameters(capsys):
    code, _, err = _run(
        ["verify", "--family", "G4", "--l1", "-1", "--l2", "0", "--json"], capsys
    )
    assert code == 2
    assert "(λ1,λ2) ≠ (−1,0)" in err


def test_verify_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "G17"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "G17" in captured.err


def test_verify_rejects_wrong_parameter_arity(capsys):
    code, _, err = _run(["verify", "--family", "G6", "--l1", "1", "--l2", "2"], capsys)
    assert code == 2
    assert err != ""


def test_samples_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "G3", "--samples", "0"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--rank-tol", "--inv-tol", "--flow-tol"])
def test_verify_takes_no_tolerance_option(flag, capsys):
    """Each check runs at its campaign's tolerance; a tolerance option,
    which could turn a finding into a pass, is a usage error."""
    argv = ["verify", "--family", "G4", "--l1", "0", "--l2", "2", "--samples", "10"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, "1000"])
    assert "unrecognized arguments" in capsys.readouterr().err
    assert exc.value.code == 2


def test_verify_help_lists_no_tolerance_option(capsys):
    """The verify help names no option that sets a check's tolerance."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--samples" in out
    assert "-tol" not in out


def test_orbit_reports_type_and_invariant(capsys):
    code, out, _ = _run(
        ["orbit", "G4", "1", "2", "3", "0.5", "1.5", "0", "0", "--l1", "0", "--l2", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "G4"
    assert payload["orbit_type"] == "Generic"
    assert payload["orbit_dimension"] == 6
    assert payload["invariant"] == pytest.approx(1.0 / 3.0)
    assert payload["max_invariant_deviation"] <= 1e-7
    assert len(payload["points"]) == payload["n"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_orbit_functional_must_be_finite(value, capsys):
    """A non-finite functional coordinate is a usage error, not an
    overflow blamed on a group element."""
    argv = ["orbit", "G4", "--l1", "0", "--l2", "2", "--", value, "1", "1", "1", "1", "0", "0"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert "must be finite" in capsys.readouterr().err
    assert exc.value.code == 2


def test_orbit_reads_a_negative_exponent_coordinate(capsys):
    code, out, _ = _run(
        ["orbit", "G4", "-1e-3", "1", "1", "1", "1", "0", "0", "--l1", "0", "--l2", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["functional"][0] == -1e-3


def test_verify_reads_a_negative_exponent_parameter(capsys):
    code, out, _ = _run(
        ["verify", "--family", "G4", "--l1", "-1e-3", "--l2", "2", "--json", *VERIFY_FAST],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["params"] == [-1e-3, 2.0]


def test_orbit_refuses_a_negative_infinite_coordinate(capsys):
    """Without ``--``, ``-inf`` is read as a coordinate and refused."""
    argv = ["orbit", "G4", "-inf", "1", "1", "1", "1", "0", "0", "--l1", "0", "--l2", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert "must be finite" in capsys.readouterr().err
    assert exc.value.code == 2


def test_verify_refuses_a_negative_infinite_parameter(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "G4", "--l1", "-inf", "--l2", "2"])
    assert "not a rational number: '-inf'" in capsys.readouterr().err
    assert exc.value.code == 2


def test_orbit_rejects_pairs_across_the_branch_locus(capsys):
    """G13's angle-valued invariant is compared only on orbit points in
    the functional's branch bin, and agrees there."""
    code, out, _ = _run(
        ["orbit", "G13", "1", "1", "1", "1", "1", "0", "0", "--l", "1/2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["n_deviation_evaluated"] < payload["n"]
    assert payload["max_invariant_deviation"] <= 1e-7


def test_orbit_requires_parameters_for_parameterful_family(capsys):
    code, _, err = _run(["orbit", "G4", "1", "1", "1", "1", "1", "0", "0"], capsys)
    assert code == 2
    assert err != ""


def test_orbit_boundary_functional_is_lower_type(capsys):
    code, out, _ = _run(
        ["orbit", "G4", "1", "1", "1", "0", "1", "0", "0", "--l1", "0", "--l2", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_type"] == "Type1MaxNonGeneric"
    assert payload["orbit_dimension"] == 6


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["G13", "1", "1", "1", "1", "1", "0", "0", "--l", "1/2"], "Generic"),
        (["G4", "1", "1", "1", "0", "1", "0", "0", "--l1", "0", "--l2", "2"], "Type1MaxNonGeneric"),
        (["G3", "0", "0", "0", "0", "0", "0", "1"], "LowerDimensional"),
    ],
)
def test_orbit_computes_the_orbit_dimension_once(argv, kind, capsys, monkeypatch):
    calls = []
    inner = coadjoint.orbit_dimension

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(coadjoint, "orbit_dimension", counting)
    code, out, _ = _run(["orbit", *argv, "--n", "50"], capsys)
    assert code == 0
    assert json.loads(out)["orbit_type"] == kind
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["G13", "1", "1", "1", "1", "1", "0", "0", "--l", "1/2"],
        ["G16", "1", "2", "3", "0.5", "1.5", "0", "0", "--l", "1"],
        ["G1", "1", "2", "3", "0.5", "1.5", "0", "0", "--l", "1/2"],
    ],
)
def test_orbit_draws_its_group_elements_once(argv, capsys, monkeypatch):
    """The orbit's points and the branch filter of an angle-valued
    invariant (G13, G16) read one draw of group elements."""
    calls = []
    inner = coadjoint.orbit_elements

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(coadjoint, "orbit_elements", counting)
    code, out, _ = _run(["orbit", *argv, "--n", "50"], capsys)
    assert code == 0
    assert json.loads(out)["n_deviation_evaluated"] > 0
    assert len(calls) == 1


def test_orbit_on_family_without_invariant_reports_null(capsys):
    code, out, _ = _run(["orbit", "G3", "1", "1", "1", "1", "1", "0", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] is None


def test_human_verify_output_has_one_line_per_check(capsys):
    code, out, _ = _run(["verify", "--family", "G2", *VERIFY_FAST], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FIND", "FAIL"))]
    assert lines and all(line.startswith("PASS") for line in lines)


def test_human_verify_prints_unsupported_checks_as_skips(capsys):
    """An unsupported check prints SKIP and leaves the passed count; the
    JSON report gives it status skip, and passed with nothing evaluated."""
    code, out, _ = _run(["verify", "--family", "G2", "--json", *VERIFY_FAST], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    unsupported = [c["name"] for c in checks if c["details"].startswith("unsupported")]
    assert unsupported and all(
        c["passed"] and c["n_evaluated"] == 0 and c["status"] == "skip"
        for c in checks
        if c["name"] in unsupported
    )
    code, out, _ = _run(["verify", "--family", "G2", *VERIFY_FAST], capsys)
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("SKIP")] == unsupported
    summary = f"{len(checks) - len(unsupported)}/{len(checks) - len(unsupported)} checks passed"
    assert lines[-1].startswith(f"{summary}, {len(unsupported)} skipped in ")


def test_verify_all_report_statuses(capsys):
    """Seed 0 over all sixteen families: the 52 unsupported checks are the
    skips, leaf_constancy_h11 is the one finding, and every other check
    passes."""
    code, out, _ = _run(["verify", "--family", "all", "--seed", "0", "--json"], capsys)
    assert code == 0
    checks = [c for run in json.loads(out) for c in run["checks"]]
    status = collections.Counter(c["status"] for c in checks)
    assert status == {"pass": len(checks) - 53, "skip": 52, "finding": 1}
    assert all(
        (c["status"] == "skip") == c["details"].startswith("unsupported") for c in checks
    )
    assert [c["name"] for c in checks if c["status"] == "finding"] == ["leaf_constancy_h11"]


def test_verify_builds_each_exact_system_once_per_process(tmp_path, monkeypatch):
    """The certificates decide each family's identities once per process:
    two verify-all runs build the twelve exact systems once each, and
    G14's sixteen grid entries share one build."""
    builds = []
    inner = foliation._exact_system

    def counting(family):
        builds.append(family)
        return inner(family)

    monkeypatch.setattr(foliation, "_exact_system", counting)
    foliation._certificates.cache_clear()
    for k in range(2):
        argv = ["verify", "--family", "all", "--seed", "0", "--out", str(tmp_path / f"{k}.json")]
        assert cli.main(argv) == 0
    assert sorted(builds) == sorted(foliation.SYSTEM_FAMILIES)
    foliation._certificates.cache_clear()
    builds.clear()
    assert cli.main(["verify", "--family", "G14", "--out", str(tmp_path / "G14.json")]) == 0
    assert builds == ["G14"]


@pytest.mark.parametrize("command", [["verify", "--family", "G2"], ["orbit", "G2", *"1111100"]])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_outside_the_philox_key_is_a_usage_error(command, seed, capsys):
    """rng.generator keys Philox with the seed as one uint64 word, so a
    seed outside 0..2^64 - 1 is refused by the parser, not by an
    OverflowError at the first draw."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--seed", seed])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "must be in 0..2^64 - 1" in err
    assert "Traceback" not in err


def test_the_largest_seed_is_accepted(capsys):
    code, out, _ = _run(
        ["verify", "--family", "G2", "--samples", "60", "--seed", str(2**64 - 1), "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "output, printed", [([], True), (["--json"], False), (["--out", "report.json"], False)]
)
def test_the_human_report_is_built_only_when_printed(output, printed, tmp_path, monkeypatch, capsys):
    """With --json or --out the human report is not printed, so it is not
    built either."""
    built = []
    inner = cli._human_report

    def counting(report, results):
        built.append(report["family"])
        return inner(report, results)

    monkeypatch.setattr(cli, "_human_report", counting)
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(["verify", "--family", "G2", *VERIFY_FAST, *output], capsys)
    assert code == 0
    assert built == (["G2"] if printed else [])
    assert ("checks passed" in out) == printed
