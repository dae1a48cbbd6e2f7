"""Acceptance gate: each criterion runs at its stated tolerance and prints one
pass/fail line. The heavy corpus runs once per session through the module
fixture; the determinism criterion compares the report bytes of a second
full run through the CLI with the session's pooled run_all report.
"""

import time

import pytest

from entkit import verify
from entkit.cli import main as cli_main
from entkit.linalg import DEFAULT_SEED, DEFAULT_TOL

_timings: dict[str, float] = {}


def _timed(suite):
    start = time.perf_counter()
    result = suite(DEFAULT_SEED, DEFAULT_TOL)
    _timings[result.name] = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def report():
    suites = {}
    for suite in verify.ALL_SUITES:
        result = _timed(suite)
        suites[result.name] = result
    return suites


def test_suite_names_follow_function_names(report):
    assert list(report) == [fn.__name__.removeprefix("suite_") for fn in verify.ALL_SUITES]


def _announce(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{name}]: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_probability_reproducibility(report):
    r = report["prob_reproducibility"]
    ok = r.passed and r.checks >= 100 and r.worst["probability_deviation"] < 1e-10
    runtime = _timings["prob_reproducibility"]
    ok = ok and runtime < 5.0
    _announce(
        1,
        "probability-reproducibility",
        ok,
        f"worst={r.worst['probability_deviation']:.3e} over {r.checks} triples, {runtime:.2f}s",
    )


def test_criterion_2_classifier_oracle_agreement(report):
    r = report["classifier_oracle"]
    runtime = _timings["classifier_oracle"]
    ok = (
        r.passed
        and r.checks >= 1000
        and r.worst["disagreements"] == 0
        and r.worst["reconstruction_error"] < 1e-8
        and runtime < 60.0
    )
    _announce(
        2,
        "theorem-classification-vs-oracle",
        ok,
        f"{r.checks} unitaries, reconstruction worst={r.worst['reconstruction_error']:.3e}, {runtime:.2f}s",
    )


def test_criterion_3_equal_dimension_constraint(report):
    r = report["equal_dim_constraint"]
    ok = r.passed and r.checks >= 200 and r.worst["swap_verdicts"] == 0
    _announce(
        3,
        "equal-dimension-constraint",
        ok,
        f"{r.checks} unequal-dimension instances, zero swap verdicts",
    )


def test_criterion_4_slice_consistency(report):
    r = report["slice_consistency"]
    ok = r.passed and r.checks >= 200 and r.worst["operator_distance"] < 1e-8
    _announce(
        4,
        "slice-consistency",
        ok,
        f"{r.checks} couplings, worst operator distance {r.worst['operator_distance']:.3e}",
    )


def test_criterion_5_trivial_observable_law(report):
    r = report["trivial_observable"]
    ok = (
        r.passed
        and r.checks >= 200
        and r.worst["triviality_deviation"] < 1e-9
        and r.worst["swap_pointer_distance"] < 1e-10
    )
    _announce(
        5,
        "trivial-observable-law",
        ok,
        f"{r.checks} couplings, triviality worst={r.worst['triviality_deviation']:.3e}, "
        f"swap-pointer worst={r.worst['swap_pointer_distance']:.3e}",
    )


def test_criterion_6_no_info_no_disturbance(report):
    r = report["no_info_no_disturbance"]
    ok = (
        r.passed
        and r.worst["identity_disturbance"] < 1e-12
        and r.worst["undisturbed_info_deviation"] <= 1e-6
    )
    _announce(
        6,
        "no-info-no-disturbance",
        ok,
        f"{r.checks} schemes, identity disturbance {r.worst['identity_disturbance']:.3e}",
    )


def test_criterion_7_swap_obstruction(report):
    r = report["swap_obstruction"]
    ok = (
        r.passed
        and r.worst["max_entropy_d2"] > 0.5
        and r.worst["max_entropy_d3"] > 0.5
        and r.worst["midpoint_oracle_deviation"] < 1e-6
    )
    _announce(
        7,
        "swap-obstruction",
        ok,
        f"peaks d2={r.worst['max_entropy_d2']:.4f} d3={r.worst['max_entropy_d3']:.4f} bits, "
        f"midpoint oracle deviation {r.worst['midpoint_oracle_deviation']:.3e}",
    )


def test_criterion_8_local_generator_null(report):
    r = report["local_generator_null"]
    ok = r.passed and r.checks >= 50 and r.worst["profile_entropy"] < 1e-9
    _announce(
        8,
        "local-generator-null",
        ok,
        f"{r.checks} paths, worst entropy {r.worst['profile_entropy']:.3e} bits",
    )


def test_criterion_9_verify_determinism(tmp_path, capsys, pooled_report):
    first = pooled_report(DEFAULT_SEED)
    out = tmp_path / "verify.json"
    code = cli_main(["verify", "--seed", str(DEFAULT_SEED), "--out", str(out)])
    second = out.read_text()
    ok = code == 0 and first.encode() == second.encode()
    with capsys.disabled():
        print()
    _announce(
        9,
        "verify-determinism",
        ok,
        f"{len(first)} bytes, byte-identical across independent runs",
    )
