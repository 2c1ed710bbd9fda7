"""Tests for the orchestration layer and the command-line interface."""

import contextlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

import qsign
from qsign import arithmetic, cli, exactformula, modularcheck, qseries, verifier
from qsign.cli import main
from qsign.numerics import ErrReal, working_precision
from qsign.qseries import PAPER_THRESHOLD, ZERO_EXCEPTIONS, Verdict, sign_pattern_verdict
from qsign.verifier import (
    full_pipeline,
    run_bound_sweeps,
    run_exact_oracle,
    verify_conjecture,
)

SCHEMAS = Path(__file__).resolve().parents[1] / "src/qsign/schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


# -- verify_conjecture ----------------------------------------------------------


def test_verify_small_range():
    report = verify_conjecture(1, 60)
    assert report.passed
    assert report.zero_set_found == sorted(ZERO_EXCEPTIONS[1])
    assert report.mismatches == []
    assert report.thresholds is None  # below the closed-form threshold
    assert len(report.verdicts) == 61


def test_verify_overlaps_the_analytic_range():
    # n <= 20000 runs 7-9x past the thresholds 2929 / 2234 beyond which
    # the exact formula settles the signs, and 6000 is the largest order
    # the benchmark's series workload runs; the zero sets are the paper's,
    # written out here rather than read from qsign
    paper_zeros = {
        1: [2, 5, 7, 9, 15, 17, 22, 27, 37, 47],
        -1: [3, 4, 5, 6, 9, 13, 19, 23, 29, 39],
    }
    for n_max in (6000, 20000):
        for delta, zeros in paper_zeros.items():
            report = verify_conjecture(delta, n_max)
            assert report.passed, (delta, n_max)
            assert report.zero_set_found == zeros
            assert report.mismatches == []
            assert report.thresholds["lhs_below_one"]


def per_index_report(delta, coeffs):
    """The sign report's verdict fields, index by index from sign_pattern_verdict."""
    verdicts = [sign_pattern_verdict(delta, n, c).value for n, c in enumerate(coeffs)]
    mismatches = [n for n, v in enumerate(verdicts) if v == "X"]
    return {
        "delta": delta,
        "range": [0, len(coeffs) - 1],
        "verdicts": "".join(verdicts),
        "zero_set_found": [n for n, c in enumerate(coeffs) if not c],
        "mismatches": mismatches,
        "unexpected_zeros": [n for n in mismatches if not coeffs[n]],
        "thresholds": None,
        "pass": not mismatches,
    }


FLIP = "flip"


@pytest.mark.parametrize(
    "delta, n_max, edits, mismatches",
    [
        pytest.param(1, 100, {60: FLIP, 71: 0}, [60, 71], id="flipped-sign-and-extra-zero"),
        pytest.param(1, 100, {61: FLIP}, [61], id="wrong-sign-in-a-negative-class"),
        pytest.param(-1, 100, {84: FLIP, 97: FLIP}, [84, 97], id="wrong-signs-in-negative-classes-minus"),
        pytest.param(1, 100, {100: FLIP}, [100], id="wrong-sign-at-n-max"),
        pytest.param(-1, 97, {97: FLIP}, [97], id="wrong-sign-at-n-max-minus"),
        pytest.param(1, 100, {53: 0, 90: 0}, [53, 90], id="zeros-past-50"),
        pytest.param(1, 100, {48: 0}, [48], id="zero-just-past-the-last-exception"),
        pytest.param(-1, 100, {40: 0, 51: 0}, [40, 51], id="zeros-past-the-last-exception-minus"),
        pytest.param(1, 100, {47: 5}, [47], id="nonzero-at-a-zero-exception"),
        pytest.param(-1, 100, {39: -5}, [39], id="nonzero-at-a-zero-exception-minus"),
        pytest.param(1, 100, {47: -5}, [], id="nonzero-of-the-pattern-sign-at-a-zero-exception"),
        pytest.param(1, 50, {50: FLIP, 48: 0}, [48, 50], id="n-max-50"),
        pytest.param(-1, 50, {}, [], id="n-max-50-unchanged"),
        pytest.param(1, 53, {49: FLIP, 53: FLIP}, [49, 53], id="n-max-3-mod-10"),
        pytest.param(-1, 103, {103: 0}, [103], id="n-max-3-mod-10-minus"),
    ],
)
def test_verify_flags_a_flipped_sign_and_an_extra_zero(monkeypatch, delta, n_max, edits, mismatches):
    # the real series never reaches the mismatch branch, so feed one that
    # does: past the last zero exception whole residue classes are decided
    # at once, and a doctored class must fall back to the per-index verdicts
    coeffs = list(qseries.q10_series(delta, n_max).coeffs)
    for n, edit in edits.items():
        assert coeffs[n] or edit != FLIP
        coeffs[n] = -coeffs[n] if edit == FLIP else edit
    monkeypatch.setattr(verifier, "q10_series", lambda delta, order: qseries.TruncatedSeries(coeffs))
    report = verify_conjecture(delta, n_max).to_dict()
    del report["timing"]
    expected = per_index_report(delta, coeffs)
    assert expected["mismatches"] == mismatches
    assert report == expected


def test_verdict_string_is_the_per_index_verdicts():
    letters = {
        Verdict.MATCH_POSITIVE: "P",
        Verdict.MATCH_NEGATIVE: "N",
        Verdict.ZERO_EXCEPTION: "Z",
        Verdict.MISMATCH: "X",
    }
    for delta in (1, -1):
        coeffs = qseries.q10_series(delta, 3000).coeffs
        expected = "".join(letters[sign_pattern_verdict(delta, n, c)] for n, c in enumerate(coeffs))
        assert verify_conjecture(delta, 3000).to_dict()["verdicts"] == expected


def test_verify_rejects_small_n_max():
    with pytest.raises(ValueError):
        verify_conjecture(1, 49)


def test_signreport_schema():
    report = verify_conjecture(1, 60)
    jsonschema.validate(report.to_dict(), load_schema("signreport.schema.json"))


# -- sweeps -----------------------------------------------------------------------


def test_small_sweep_passes():
    report = run_bound_sweeps(k_max=30, n_samples=3, identity_k_max=30)
    assert report.passed
    assert report.identity_checks > 0
    assert report.negative_control_detected
    assert not report.identity_failures
    jsonschema.validate(report.to_dict(), load_schema("sweeps.schema.json"))
    lines = report.csv_text().split("\n")
    assert lines[0] == "k,j,n,abs_akj,bound,ok"
    assert lines[1:] == [",".join(str(x) for x in row) for row in report.rows]
    assert len(lines) > 1


def test_sweep_reports_rewrite_failures_when_a_summand_depends_on_its_representative(monkeypatch):
    # adding h to every exponent makes a summand change under h -> h + k, so
    # the shifted tables differ and every sampled n of every (k, j) fails
    parts = arithmetic._term_exponent_parts
    monkeypatch.setattr(arithmetic, "_term_exponent_parts", lambda h, hp, k: parts(h, hp, k) + h)
    arithmetic.clear_caches()
    try:
        report = run_bound_sweeps(k_max=10, n_samples=2, identity_k_max=10)
    finally:
        arithmetic.clear_caches()
    rewrite = [(f["k"], f["j"], f["n"]) for f in report.identity_failures if f["kind"] == "rewrite"]
    assert len(rewrite) == report.identity_checks // 2 == 16
    assert len(set(rewrite)) == 16
    assert not report.passed


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_sweep_identities_pass_at_every_precision(prec):
    # the whole identity grid: each reduced form fails only when its
    # enclosure and the direct sum's are disjoint, whatever the precision
    report = run_bound_sweeps(k_max=5, identity_k_max=200, n_samples=20, prec=prec)
    assert report.identity_checks == 6400
    assert report.identity_failures == []
    assert report.negative_control_detected
    assert report.passed


def test_cli_sweeps_at_64_bits(capsys):
    assert main(["sweeps", "--precision-bits", "64", "--k-max", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_sweep_decides_the_d10_reduced_form_as_a_value(monkeypatch):
    # conjugating S for the even moduli 10k keeps |S|, so only a check of
    # the value A = S/50 sees it; the d = 5 forms are untouched
    fifth_root_sum = arithmetic._fifth_root_sum

    def conjugated(t, modulus, first, second, prec):
        (re, (im, err)), w = fifth_root_sum(t, modulus, first, second, prec)
        return (re, (-im if modulus % 2 == 0 else im, err)), w

    monkeypatch.setattr(arithmetic, "_fifth_root_sum", conjugated)
    arithmetic.clear_caches()
    report = run_bound_sweeps(k_max=5, identity_k_max=40, n_samples=4)
    reduced = [f for f in report.identity_failures if f["kind"] == "reduced"]
    assert reduced
    assert {f["k"] % 10 for f in reduced} == {0}
    assert not report.passed


def test_sweep_csv_bound_is_the_twisted_bound_on_the_default_grid():
    # the bound column depends on k alone: the default k grid, one sample
    report = run_bound_sweeps(identity_k_max=5, n_samples=1)
    assert sorted({row[0] for row in report.rows}) == list(range(5, 501, 5))
    with working_precision(256):
        for k, _, _, _, bound, _ in report.rows:
            square = arithmetic._twisted_square(k)
            assert bound == math.sqrt(square), k
            # the double nearest every point of the 256-bit ball
            ball = ErrReal(square).sqrt()
            assert float(ball.lo) == float(ball.hi) == bound, k


# -- exact oracle -----------------------------------------------------------------


def test_exact_oracle_small_range():
    report = run_exact_oracle(10, 14, deltas=(1, -1))
    assert report.oracle_passed
    assert report.rounding_matches == report.total == 10
    assert report.max_gap_plus_err < 0.5
    assert report.definitive_count == 0  # Weil-type certificate blocks this
    assert [(r["delta"], r["n"]) for r in report.rows] == [
        (d, n) for d in (1, -1) for n in range(10, 15)
    ]
    half = mpf(1) / 2
    for r in report.rows:
        assert r["rounded"] == r["true"] and r["gap"] + r["err"] < half, r
        assert abs(r["value"] - r["true"]) <= r["err"] + r["tail_bound"], r
        assert r["definitive"] == (r["gap"] + r["err"] + r["tail_bound"] < half), r
    # exact_oracle.json carries the same per-index breakdown
    for row, r in zip(report.to_dict()["rows"], report.rows, strict=True):
        assert json.loads(json.dumps(row)) == row
        assert row.keys() == r.keys()
        for key in ("k_max", "rounded", "true", "definitive"):
            assert row[key] == r[key], key
        for key in ("value", "gap", "err", "tail_bound"):
            assert abs(mpf(row[key]) - r[key]) <= mpf("1e-7") * abs(r[key]), key


def test_exact_oracle_refuses_an_empty_range(tmp_path, capsys):
    # an oracle over no index would pass having compared nothing
    with pytest.raises(ValueError, match="invalid exact-formula range"):
        run_exact_oracle(12, 11)
    with pytest.raises(ValueError, match="deltas must be"):
        run_exact_oracle(10, 12, ())
    out = tmp_path / "out"
    argv = ["pipeline", "--exact-lo", "12", "--exact-hi", "11", "--n-max", "60", "--sweep-k-max", "5",
            "--identity-k-max", "5", "--n-samples", "1", "--output-dir", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == "qsign: error: invalid exact-formula range"


# -- pipeline ---------------------------------------------------------------------


def test_pipeline_refuses_an_unusable_output_dir_before_any_phase(tmp_path, monkeypatch, capsys):
    # a file, or a path below one: exit 1 with mkdir's message, no phase run
    # and nothing created
    def no_phase(*args):
        raise AssertionError("a phase ran")

    monkeypatch.setattr(verifier, "verify_conjecture", no_phase)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    for out, message in (
        (taken, f"[Errno 17] File exists: '{taken}'"),
        (taken / "sub" / "deeper", f"[Errno 20] Not a directory: '{taken / 'sub' / 'deeper'}'"),
    ):
        assert main(["pipeline", "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"qsign: error: {message}"]
    assert list(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("denied", ["write", "search"])
def test_pipeline_refuses_an_unwritable_output_dir_before_any_phase(tmp_path, monkeypatch, capsys, denied):
    # a directory, or the nearest existing ancestor of a missing one, that
    # cannot be written into or searched: exit 1 with the message of the
    # write or mkdir that would fail, no phase run and nothing created.
    # os.access is patched because root passes every mode check.
    def no_phase(*args):
        raise AssertionError("a phase ran")

    locked = tmp_path / "locked"
    locked.mkdir()
    lacking = os.W_OK if denied == "write" else os.X_OK
    real_access = os.access

    def access(path, mode):
        return not (Path(path) == locked and mode & lacking) and real_access(path, mode)

    monkeypatch.setattr(verifier, "verify_conjecture", no_phase)
    monkeypatch.setattr(os, "access", access)
    deeper = locked / "new" / "deeper"
    for out, delta, reported in (
        (locked, 1, locked / "sign_delta_1.json"),
        (locked, -1, locked / "sign_delta_-1.json"),
        (deeper, 1, locked / "new" if denied == "write" else deeper),
    ):
        assert main(["pipeline", "--delta", str(delta), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"qsign: error: [Errno 13] Permission denied: '{reported}'"]
    assert list(tmp_path.iterdir()) == [locked]
    assert list(locked.iterdir()) == []


def small_config(tmp_path, name, **overrides):
    """full_pipeline's keyword settings for a small run into tmp_path / name."""
    return {
        "deltas": (1, -1),
        "n_max": 60,
        "sweep_k_max": 20,
        "identity_k_max": 20,
        "sweep_n_samples": 2,
        "exact_range": (10, 12),
        "output_dir": tmp_path / name,
        **overrides,
    }


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def test_pipeline_small_and_deterministic(tmp_path):
    result1 = full_pipeline(**small_config(tmp_path, "run1"))
    assert result1.exit_status == 0
    result2 = full_pipeline(**small_config(tmp_path, "run2"))
    for name in ("sign_delta_1.json", "sweeps.json", "modular.json", "exact_oracle.json", "summary.json"):
        a = strip_timing(json.loads((tmp_path / "run1" / name).read_text()))
        b = strip_timing(json.loads((tmp_path / "run2" / name).read_text()))
        assert a == b, name
    # every JSON artifact against its schema
    schemas = {
        "sign_delta_1.json": "signreport",
        "sign_delta_-1.json": "signreport",
        "sweeps.json": "sweeps",
        "modular.json": "modular",
        "exact_oracle.json": "exact_oracle",
        "summary.json": "summary",
    }
    assert sorted(p.name for p in (tmp_path / "run1").glob("*.json")) == sorted(schemas)
    for name, schema in schemas.items():
        jsonschema.validate(json.loads((tmp_path / "run1" / name).read_text()), load_schema(f"{schema}.schema.json"))


def test_full_pipeline_takes_its_eight_settings_by_keyword():
    params = inspect.signature(full_pipeline).parameters
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params.values())
    assert {name: p.default for name, p in params.items()} == {
        "deltas": (1, -1),
        "n_max": None,
        "sweep_k_max": 500,
        "identity_k_max": 200,
        "sweep_n_samples": 20,
        "exact_range": (10, 300),
        "precision_bits": 128,
        "output_dir": "qsign_artifacts",
    }


def test_pipeline_rejects_invalid_config(tmp_path):
    with pytest.raises(ValueError):
        full_pipeline(**small_config(tmp_path, "bad", n_max=10))
    with pytest.raises(ValueError):
        full_pipeline(**small_config(tmp_path, "bad2", precision_bits=32))
    # no sign report, and an oracle over no index
    with pytest.raises(ValueError, match="deltas"):
        full_pipeline(**small_config(tmp_path, "bad3", deltas=()))
    assert not any((tmp_path / name).exists() for name in ("bad", "bad2", "bad3"))


def test_pipeline_refuses_an_exact_range_outside_the_formula_before_writing(tmp_path, capsys):
    # c_exact(-1, n) needs n >= 2: refused up front, with no artifact written
    out = tmp_path / "out"
    argv = ["pipeline", "--exact-lo", "1", "--exact-hi", "5", "--n-max", "60", "--sweep-k-max", "10",
            "--identity-k-max", "10", "--n-samples", "1", "--output-dir", str(out)]
    assert main(argv) == 1
    assert not out.exists() or not any(out.iterdir())
    assert "delta=-1" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [(0, 20, 2), (20, 4, 2), (20, 20, 0)])
def test_sweeps_refuse_a_grid_that_checks_nothing(tmp_path, sizes, capsys):
    k_max, identity_k_max, n_samples = sizes
    with pytest.raises(ValueError):
        run_bound_sweeps(k_max=k_max, identity_k_max=identity_k_max, n_samples=n_samples)
    argv = ["sweeps", "--k-max", str(k_max), "--identity-k-max", str(identity_k_max), "--n-samples", str(n_samples)]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qsign: error:"), lines
    with pytest.raises(ValueError):
        full_pipeline(**small_config(tmp_path, "empty", sweep_k_max=k_max, identity_k_max=identity_k_max,
                                     sweep_n_samples=n_samples))
    assert not (tmp_path / "empty").exists()  # refused before any artifact


def test_pipeline_phase_that_raises_leaves_no_artifact(tmp_path, monkeypatch, capsys):
    # the modular phase runs after the sign reports and the sweeps, whose
    # artifacts are held back until every phase has run
    def failing(prec):
        raise RuntimeError("modular suite failed")

    monkeypatch.setattr(modularcheck, "validation_suite", failing)
    out = tmp_path / "out"
    argv = ["pipeline", "--n-max", "60", "--sweep-k-max", "5", "--identity-k-max", "5", "--n-samples", "1",
            "--exact-lo", "10", "--exact-hi", "11", "--output-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["qsign: error: modular suite failed"]
    assert not out.exists() or not any(out.iterdir())


def test_pipeline_default_range_leaves_no_index_between_the_two_steps(tmp_path):
    """The default brute-force range reaches PAPER_THRESHOLD[delta] + delta - 1:
    in the exact formula's 5n +- 3 convention the closed form's first index
    is PAPER_THRESHOLD[delta] + delta (2930 / 2233), so every index below it
    is brute-forced, and each default sign report carries the closed-form
    check at PAPER_THRESHOLD[delta]. That check is one index of the closed
    form; that its lhs stays below one for every later n is not shown here
    and stays with the all-n certificate (ROADMAP item 14(b))."""
    assert full_pipeline(**small_config(tmp_path, "defaults", n_max=None)).exit_status == 0
    for delta in (1, -1):
        report = json.loads((tmp_path / "defaults" / f"sign_delta_{delta}.json").read_text())
        assert report["range"][1] >= PAPER_THRESHOLD[delta] + delta - 1, delta
        assert report["thresholds"]["paper_threshold"] == PAPER_THRESHOLD[delta]
        assert report["thresholds"]["lhs_below_one"] is True
        assert report["pass"] is True


def test_pipeline_single_delta(tmp_path):
    result = full_pipeline(**small_config(tmp_path, "single", deltas=(1,)))
    assert result.exit_status == 0
    assert (tmp_path / "single" / "sign_delta_1.json").exists()
    assert not (tmp_path / "single" / "sign_delta_-1.json").exists()


# -- CLI ---------------------------------------------------------------------------


def test_cli_expand_json(capsys):
    assert main(["expand", "--delta", "1", "--order", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("series.schema.json"))
    assert payload["coeffs"][47] == "0"


def test_cli_expand_minimal(capsys):
    assert main(["expand", "--delta", "1", "--order", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["1"]


def test_cli_expand_formats(tmp_path, capsys):
    out = tmp_path / "series.csv"
    assert main(["expand", "--delta", "-1", "--order", "10", "--format", "csv",
                 "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[4] == "3,0"
    assert main(["expand", "--delta", "-1", "--order", "3", "--format", "plain"]) == 0
    assert capsys.readouterr().out.split() == ["1", "1", "1", "0"]


def test_cli_expand_usage_errors(capsys):
    assert main(["expand", "--delta", "3", "--order", "5"]) == 1
    assert main(["expand", "--delta", "1", "--order", "-2"]) == 1
    capsys.readouterr()


def test_cli_exact_precision_below_64_is_a_usage_error(capsys):
    assert main(["exact", "--delta", "1", "--n", "10", "--precision-bits", "32"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "qsign: error: precision-bits must be >= 64\n"


def test_cli_exact(capsys):
    # exit 2: data is produced but the tail certificate is not definitive
    code = main(["exact", "--delta", "1", "--n", "47"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["rounded"] == 0
    assert payload["definitive"] is False
    assert float(payload["gap"]) + float(payload["err"]) < 0.5  # the breakdown the oracle rows carry
    jsonschema.validate(payload, load_schema("exact.schema.json"))


def test_cli_exact_domain_error(capsys):
    assert main(["exact", "--delta", "-1", "--n", "1"]) == 1
    assert "n >= 2" in capsys.readouterr().err


def test_cli_verify(capsys):
    assert main(["verify", "--delta", "1", "--n-max", "60"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["pass"] is True
    assert "PASS" in out.err


def test_cli_verify_usage(capsys):
    assert main(["verify", "--delta", "1", "--n-max", "10"]) == 1
    capsys.readouterr()


def test_cli_verify_has_no_threads_flag(capsys):
    assert main(["verify", "--delta", "1", "--n-max", "100", "--threads", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if line.startswith("qsign: error:")]
    assert errors == ["qsign: error: unrecognized arguments: --threads 2"]
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--delta", "1", "--n", "2929"],
        ["verify", "--delta", "1", "--n-max", "60"],
        ["modular"],
        ["pipeline"],
    ],
)
def test_cli_format_only_on_commands_that_read_it(argv, capsys):
    assert main([*argv, "--format", "csv"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if line.startswith("qsign: error:")]
    assert errors == ["qsign: error: unrecognized arguments: --format csv"]
    assert "Traceback" not in out.err


def test_cli_sweeps_refuses_the_plain_format(capsys):
    argv = ["sweeps", "--k-max", "5", "--identity-k-max", "5", "--n-samples", "1", "--format", "plain"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if line.startswith("qsign: error:")]
    assert len(errors) == 1 and "'plain'" in errors[0]
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["threshold", "--delta", "1", "--n", "2929"], ["--precision-bits", "128"]),
        (["verify", "--delta", "1", "--n-max", "60"], ["--precision-bits", "128"]),
        (["pipeline"], ["--output", "out.json"]),
        (["expand", "--delta", "1", "--order", "5"], ["--precision-bits", "128"]),
    ],
)
def test_cli_refuses_flags_the_command_would_ignore(argv, flag, capsys):
    assert main([*argv, *flag]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if line.startswith("qsign: error:")]
    assert errors == [f"qsign: error: unrecognized arguments: {' '.join(flag)}"]
    assert "Traceback" not in out.err


def test_cli_exact_at_512_bits(capsys):
    # the zeta(3/2) target stays at 2^-128, so 512 bits returns promptly
    assert main(["exact", "--delta", "1", "--n", "10", "--precision-bits", "512"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["rounded"] == 1 and payload["prec"] == 512
    jsonschema.validate(payload, load_schema("exact.schema.json"))


def _package_modules():
    """Every qsign module, imported, in name order."""
    import importlib
    import pkgutil

    import qsign

    return [importlib.import_module(f"qsign.{info.name}") for info in pkgutil.iter_modules(qsign.__path__)]


def _package_errors():
    """Every exception class named in a qsign module's __all__."""
    return [
        obj
        for module in _package_modules()
        for obj in (getattr(module, name, None) for name in getattr(module, "__all__", ()))
        if isinstance(obj, type) and issubclass(obj, BaseException)
    ]


# a convergence cap, a bare ArithmeticError (the base of every unresolved
# sign), then every error class the package exports: each is a numeric result
# that could not be resolved, so each exits 2
@pytest.mark.parametrize(
    "error, code",
    [(RuntimeError("Bessel series failed to converge"), 2), (ArithmeticError("sign not resolved"), 2)]
    + [(cls(f"{cls.__name__} raised"), 2) for cls in _package_errors()],
)
def test_cli_maps_numeric_errors_to_exit_codes(monkeypatch, capsys, error, code):
    def command(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "threshold", command)
    assert main(["threshold", "--delta", "1", "--n", "100"]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"qsign: error: {error}\n"


# an overflow or a floating-point trap is a numeric result that could not be
# resolved too; ZeroDivisionError is caught first, as a domain error
@pytest.mark.parametrize(
    "error, code",
    [
        (OverflowError("math range error"), 2),
        (FloatingPointError("invalid value"), 2),
        (ZeroDivisionError("division by zero"), 1),
    ],
)
def test_cli_arithmetic_errors_exit_with_one_line(monkeypatch, capsys, error, code):
    def command(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "exact", command)
    assert main(["exact", "--delta", "1", "--n", "10"]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"qsign: error: {error}\n"


def test_cli_threshold(capsys):
    assert main(["threshold", "--delta", "1", "--n", "2929"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # at least 10 significant digits are printed
    assert "0.998718959" in out
    assert main(["threshold", "--delta", "-1", "--n", "2234"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_threshold_output_file(tmp_path, capsys):
    out_file = tmp_path / "threshold.txt"
    assert main(["threshold", "--delta", "1", "--n", "2929", "--output", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    line = out_file.read_text()
    assert line.startswith("threshold delta=+1 n=2929: lhs = 0.998718959")
    assert line.endswith(" PASS\n")


def test_cli_threshold_fail_exit(capsys):
    assert main(["threshold", "--delta", "1", "--n", "100"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_threshold_lhs_raises_at_its_precision_cap(monkeypatch, capsys):
    # a zeta(3/2) pair too wide for the 1e-7 goal at any precision (its term
    # is about 1e-17 of the lhs at n = 2929, so the pair must be huge):
    # the cap is reported, not returned as if the goal were met; an earlier
    # call with the true zeta(3/2) shows that no pair of it outlives a call
    exactformula.threshold_lhs(1, 2929)
    monkeypatch.setattr(exactformula, "zeta_3_2", lambda w: (1 << w, 10**6 << w))
    with pytest.raises(RuntimeError, match="relative error goal"):
        exactformula.threshold_lhs(1, 2929)
    assert main(["threshold", "--delta", "1", "--n", "2929"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if line.startswith("qsign: error:")]
    assert len(errors) == 1 and "Traceback" not in out.err


def test_cli_sweeps(capsys):
    assert main(["sweeps", "--k-max", "20", "--identity-k-max", "20", "--n-samples", "2"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["pass"] is True


def test_cli_missing_subcommand(capsys):
    assert main([]) == 1
    capsys.readouterr()


# -- the exit-code contract over drawn argv ------------------------------------------

_JUNK = st.sampled_from(["", "x", "0", "1.5", "nan", "1e3", "--", "-", "--bogus", "-z", "é"])
_DELTA = st.sampled_from(["1", "-1"])


def _ints(hi):
    return st.integers(-3, hi).map(str)


# per subcommand: flag -> value strategy, and the flags always given: the
# required ones and those whose defaults are seconds of work (sizes are
# bounded so each run is small)
_ARGV_FLAGS = {
    "expand": ({"--delta": _DELTA, "--order": _ints(500)}, ("--delta", "--order")),
    "exact": ({"--delta": _DELTA, "--n": _ints(400), "--k-max": _ints(120)}, ("--delta", "--n")),
    "verify": ({"--delta": _DELTA, "--n-max": _ints(400)}, ("--delta", "--n-max")),
    "threshold": ({"--delta": _DELTA, "--n": _ints(400)}, ("--delta", "--n")),
    "sweeps": (
        {"--k-max": _ints(30), "--identity-k-max": _ints(20), "--n-samples": _ints(4)},
        ("--k-max", "--identity-k-max", "--n-samples"),
    ),
    "modular": ({}, ()),
    "pipeline": (
        {
            "--delta": _DELTA,
            "--n-max": _ints(400),
            "--sweep-k-max": _ints(30),
            "--identity-k-max": _ints(20),
            "--n-samples": _ints(4),
            "--exact-lo": _ints(15),
            "--exact-hi": _ints(15),
        },
        (
            "--sweep-k-max",
            "--identity-k-max",
            "--n-samples",
            "--exact-lo",
            "--exact-hi",
        ),
    ),
}
_ARGV_COMMON = {
    "--precision-bits": st.sampled_from(["0", "63", "64", "128"]),
    "--format": st.sampled_from(["json", "csv", "plain", "xml"]),
    "--output": st.just("out.txt"),
}


@st.composite
def _argv(draw):
    """A subcommand with some of its flags (and flags of other subcommands),
    small values, and in about half the draws one junk token: in place of
    a value, or anywhere in argv."""
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    flags, required = _ARGV_FLAGS[command]
    pool = {**flags, **_ARGV_COMMON, "--output-dir": st.just("artifacts"), "--order": _ints(50)}
    chosen = set(required) | set(draw(st.lists(st.sampled_from(sorted(pool)), max_size=3)))
    pairs = draw(st.permutations([[flag, draw(pool[flag])] for flag in sorted(chosen)]))
    argv = [command] + [token for pair in pairs for token in pair]
    junk = draw(st.integers(0, 3))
    if junk == 1 and len(argv) > 1:
        argv[draw(st.integers(1, len(argv) - 1))] = draw(_JUNK)
    elif junk == 2:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_argv())
def test_cli_exit_contract_over_drawn_argv(tmp_path_factory, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv"))  # --output and --output-dir write here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3), argv
    text = out.getvalue() + err.getvalue()
    assert sum(line.startswith("qsign: error:") for line in text.splitlines()) <= 1, argv
    assert "Traceback" not in text, argv


# -- fresh processes -----------------------------------------------------------------
# In-process tests run with every qsign module already imported; these start a
# new interpreter, as a user's shell does.

_SRC = str(Path(qsign.__file__).resolve().parents[1])
_QSIGN_MODULES = {f"qsign.{info.name}" for info in pkgutil.iter_modules(qsign.__path__)}
# runs main(argv) and prints the names in sys.modules as the last line of stderr
_RUN_MAIN = (
    "import json, sys\n"
    "from qsign.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _fresh(args, cwd, stdout=subprocess.PIPE, **env):
    """`python *args` in a new interpreter that imports qsign from this checkout."""
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300
    )


_SERIES_ONLY = {"mpmath"} | (_QSIGN_MODULES - {"qsign.cli", "qsign.qseries", "qsign.verifier"})
# standard-library modules no qsign computation uses: dataclasses brings
# inspect, ast, dis and tokenize, and fractions brings decimal
_UNUSED_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}


def test_importing_each_module_loads_no_unused_stdlib(tmp_path):
    # one new interpreter imports the modules in turn and prints sys.modules after each
    code = (
        "import importlib, json, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "    print(json.dumps([name, sorted(sys.modules)]))\n"
    )
    modules = sorted(_QSIGN_MODULES | {"qsign"})
    proc = _fresh(["-c", code, *modules], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == modules
    for name, loaded in lines:
        assert set(loaded) & _UNUSED_STDLIB == set(), name


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["expand", "--delta", "1", "--order", "50"], _SERIES_ONLY),
        (["verify", "--delta", "1", "--n-max", "2928"], _SERIES_ONLY),
        (["exact", "--delta", "1", "--n", "10"], {"qsign.modularcheck", "qsign.verifier"}),
        (["threshold", "--delta", "1", "--n", "2929"], {"qsign.modularcheck", "qsign.verifier"}),
        (["modular"], {"qsign.exactformula", "qsign.verifier"}),
    ],
)
def test_cli_command_imports_only_what_it_runs(tmp_path, argv, absent):
    proc = _fresh(["-c", _RUN_MAIN, *argv], tmp_path)
    assert proc.returncode in (0, 2), proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "qsign.cli" in loaded
    assert loaded & (absent | _UNUSED_STDLIB) == set()


def test_cli_verify_at_the_threshold_loads_the_exact_formula(tmp_path):
    proc = _fresh(["-c", _RUN_MAIN, "verify", "--delta", "1", "--n-max", "2929"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "qsign.exactformula" in loaded and loaded & _UNUSED_STDLIB == set()
    assert json.loads(proc.stdout)["thresholds"]["lhs_below_one"] is True


# one small argv per command, then two bad inputs
@pytest.mark.parametrize(
    "argv, code",
    [
        (["expand", "--delta", "1", "--order", "60"], 0),
        (["exact", "--delta", "1", "--n", "10"], 2),
        (["verify", "--delta", "-1", "--n-max", "60"], 0),
        (["sweeps", "--k-max", "10", "--identity-k-max", "5", "--n-samples", "1"], 0),
        (["threshold", "--delta", "1", "--n", "100"], 3),
        (["modular"], 0),
        (
            ["pipeline", "--delta", "1", "--n-max", "60", "--sweep-k-max", "5", "--identity-k-max", "5",
             "--n-samples", "1", "--exact-lo", "10", "--exact-hi", "11"],
            0,
        ),
        (["expand", "--delta", "1", "--order", "-1"], 1),
        (["verify", "--delta", "1", "--n-max", "nan"], 1),
    ],
)
def test_python_m_qsign_keeps_the_exit_contract(tmp_path, argv, code):
    proc = _fresh(["-m", "qsign", *argv], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("qsign: error:")]
    assert len(errors) == (code == 1)


def assert_one_error_line(proc):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr
    assert sum(line.startswith("qsign: error:") for line in proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--delta", "1", "--order", "2000", "--format", "plain"],
        ["sweeps", "--k-max", "5", "--identity-k-max", "5", "--n-samples", "1", "--format", "csv"],
    ],
)
def test_python_m_qsign_to_a_closed_pipe_exits_1_with_one_line(tmp_path, argv, unbuffered):
    # the reader is gone before the first write, as when `| head -1` has
    # exited; buffered, the write fails only at the flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _fresh(["-m", "qsign", *argv], tmp_path, stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert_one_error_line(proc)


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--delta", "1", "--order", "5", "--output", "missing/x.json"],
        ["pipeline", "--delta", "1", "--n-max", "60", "--sweep-k-max", "5", "--identity-k-max", "5",
         "--n-samples", "1", "--exact-lo", "10", "--exact-hi", "11", "--output-dir", "taken"],
    ],
)
def test_python_m_qsign_to_an_unwritable_path_exits_1_with_one_line(tmp_path, argv):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    assert_one_error_line(_fresh(["-m", "qsign", *argv], tmp_path))


# -- package -----------------------------------------------------------------------


def test_every_module_all_name_exists():
    for module in _package_modules():
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
