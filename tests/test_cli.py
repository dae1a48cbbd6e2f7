import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entkit import __version__
from entkit.cli import COMMANDS, EXIT_CODES, FIXTURES, build_parser, main
from entkit.errors import SliceHypothesisError
from entkit.fixtures import cnot, controlled_phase
from entkit.linalg import swap_unitary
from entkit.serialize import canonical_json, matrix_to_json, profile_csv, vector_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path, obj):
    path.write_text(canonical_json(obj))
    return str(path)


@pytest.fixture
def e0_file(tmp_path):
    return write_json(tmp_path / "e0.json", vector_to_json(np.eye(2)[0]))


def run_cli(args):
    return main(list(args))


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def accepted_flags(p: argparse.ArgumentParser) -> list[str]:
    return sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))


def format_choices(p: argparse.ArgumentParser) -> list[str] | None:
    return next((list(a.choices) for a in p._actions if "--format" in a.option_strings), None)


class TestClassifyCommand:
    def test_swap_json(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        assert run_cli(["classify", path, "--dims", "2", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "swap"
        assert report["claim"] == "theorem-classification"
        v21 = report["factors"]["v21"]
        np.testing.assert_allclose(v21["re"], [1.0, 0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(v21["im"], 0.0, atol=1e-12)

    def test_identity_product(self, tmp_path, capsys):
        path = write_json(tmp_path / "i4.json", matrix_to_json(np.eye(4)))
        assert run_cli(["classify", path, "--dims", "2", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "product"

    def test_cnot_entangling_with_witness(self, tmp_path, capsys):
        from entkit.fixtures import cnot

        path = write_json(tmp_path / "cnot.json", matrix_to_json(cnot()))
        assert run_cli(["classify", path, "--dims", "2", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "entangling"
        assert report["witness"]["second_schmidt_coeff"] > 1e-8

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["classify", str(bad), "--dims", "2", "2"]) == 2

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "i4.json", matrix_to_json(np.eye(4)))
        assert run_cli(["classify", path, "--dims", "2", "3"]) == 2

    def test_non_unitary_exit_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", matrix_to_json(np.diag([1.0, 2.0])))
        assert run_cli(["classify", path, "--dims", "1", "2"]) == 3


class TestSliceCommand:
    def test_swap_transfer(self, tmp_path, capsys, e0_file):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        assert run_cli(["slice", path, "--phi0", e0_file, "--dims", "2", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["form"] == "transfer_to_probe"
        assert report["claim"] == "prop1-slice"
        np.testing.assert_allclose(report["isometry"]["re"], [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_identity_local(self, tmp_path, capsys, e0_file):
        path = write_json(tmp_path / "i4.json", matrix_to_json(np.eye(4)))
        assert run_cli(["slice", path, "--phi0", e0_file, "--dims", "2", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["form"] == "local_on_object"

    def test_object_control_cnot_exit_4(self, tmp_path, capsys, e0_file):
        from entkit.fixtures import cnot

        path = write_json(tmp_path / "cnot.json", matrix_to_json(cnot(True)))
        assert run_cli(["slice", path, "--phi0", e0_file, "--dims", "2", "2"]) == 4

    def test_probe_control_cnot_local(self, tmp_path, capsys, e0_file):
        from entkit.fixtures import cnot

        path = write_json(tmp_path / "cnot.json", matrix_to_json(cnot(False)))
        assert run_cli(["slice", path, "--phi0", e0_file, "--dims", "2", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["form"] == "local_on_object"

    def test_residual_is_the_forms_not_phi0_norm_slack(self, tmp_path, capsys):
        # The form is decided on the normalized phi0; before 0.10.0 the
        # report gave 9.0e-10, the norm slack of phi0.
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        phi0 = write_json(tmp_path / "phi0.json", vector_to_json(np.eye(2)[0] * (1 + 0.9e-9)))
        assert run_cli(["slice", path, "--phi0", phi0, "--dims", "2", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["form"] == "transfer_to_probe"
        assert report["residual"] <= 1e-15


_ROOT_SWAP = (np.eye(4) + swap_unitary(2)) / 2 + 1j * (np.eye(4) - swap_unitary(2)) / 2
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)

# Slice hypothesis failures: name -> (coupling, d1 = d2, phi0, offending
# indices). Each exits 4 and names its indices; the object-control CNOT case
# is TestSliceCommand.test_object_control_cnot_exit_4.
SLICE_ERRORS = {
    "cz-plus-pair": (controlled_phase(np.pi), 2, _PLUS, (0, 1)),
    "sqrt-swap-basis": (_ROOT_SWAP, 2, np.eye(2)[0], (1,)),
    "cphase-3x3-pair": (controlled_phase(np.pi, 3, 3), 3, np.ones(3) / np.sqrt(3), (0, 2)),
    # Pairs (0, 1) and (0, 2) both deviate; the first is reported.
    "controlled-z-3x3-first-pair": (
        np.diag([1, 1, 1, 1, 1, -1, 1, -1, 1]).astype(complex), 3, np.ones(3) / np.sqrt(3), (0, 1),
    ),
}


@pytest.mark.parametrize("case", sorted(SLICE_ERRORS))
def test_slice_error_exit_4(case, tmp_path, capsys):
    u, d, phi0, indices = SLICE_ERRORS[case]
    path = write_json(tmp_path / "u.json", matrix_to_json(u))
    phi0_file = write_json(tmp_path / "phi0.json", vector_to_json(phi0))
    assert run_cli(["slice", path, "--phi0", phi0_file, "--dims", str(d), str(d)]) == 4
    assert f"(offending indices {indices})" in capsys.readouterr().err


def test_slice_pattern_error_exit_4(tmp_path, capsys):
    # Every probed image is a product within tol 1e-3, yet neither form fits.
    path = write_json(tmp_path / "u.json", matrix_to_json(controlled_phase(0.0036)))
    phi0_file = write_json(tmp_path / "phi0.json", vector_to_json(_PLUS))
    args = ["slice", path, "--phi0", phi0_file, "--dims", "2", "2", "--tol", "1e-3"]
    assert run_cli(args) == 4
    assert "neither the local nor the transfer form" in capsys.readouterr().err


# Couplings scaled by 1 + 2e-4 (unitarity defect 8.0e-4) pass the check at
# --tol 1e-3 and must get a verdict: command -> (coupling, report key, value).
SCALED_WITHIN_TOL = {
    "classify": (cnot() * (1 + 2e-4), "verdict", "entangling"),
    "slice": (swap_unitary(2) * (1 + 2e-4), "form", "transfer_to_probe"),
}


@pytest.mark.parametrize("command", sorted(SCALED_WITHIN_TOL))
def test_scaled_coupling_within_tol(command, tmp_path, capsys, e0_file):
    u, key, value = SCALED_WITHIN_TOL[command]
    path = write_json(tmp_path / "u.json", matrix_to_json(u))
    args = [command, path, "--dims", "2", "2", "--tol", "1e-3"]
    if command == "slice":
        args += ["--phi0", e0_file]
    assert run_cli(args) == 0
    assert json.loads(capsys.readouterr().out)[key] == value


class TestNormTolerance:
    """A vector whose norm is off by 1e-10 passes at the default tol and
    exits 2 at --tol 1e-12."""

    def test_measure_state(self, tmp_path, capsys):
        run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")])
        state = write_json(tmp_path / "phi.json", vector_to_json(_PLUS * (1 + 1e-10)))
        args = ["measure", "--scheme", str(tmp_path / "s.json"), "--state", state]
        assert run_cli(args) == 0
        capsys.readouterr()
        assert run_cli(args + ["--tol", "1e-12"]) == 2
        assert "object state norm" in capsys.readouterr().err

    def test_slice_phi0(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        phi0 = write_json(tmp_path / "phi0.json", vector_to_json(np.eye(2)[0] * (1 + 1e-10)))
        args = ["slice", path, "--phi0", phi0, "--dims", "2", "2"]
        assert run_cli(args) == 0
        assert run_cli(args + ["--tol", "1e-12"]) == 2


class TestMeasureCommand:
    def test_one_unitarity_check_per_run(self, tmp_path, capsys, unitarity_checks):
        run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")])
        state = write_json(tmp_path / "plus.json", vector_to_json(_PLUS))
        unitarity_checks.clear()
        assert run_cli(["measure", "--scheme", str(tmp_path / "s.json"), "--state", state]) == 0
        assert unitarity_checks == [(4, 4)]

    def test_one_pointer_validation_per_run(self, tmp_path, capsys, monkeypatch):
        import entkit.measurement

        calls = []
        validate = entkit.measurement.validate_povm
        counted = lambda e, *args: calls.append(e.dim) or validate(e, *args)
        monkeypatch.setattr(entkit.measurement, "validate_povm", counted)
        run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")])
        state = write_json(tmp_path / "plus.json", vector_to_json(_PLUS))
        calls.clear()
        assert run_cli(["measure", "--scheme", str(tmp_path / "s.json"), "--state", state]) == 0
        assert calls == [2]

    def test_swap_scheme_on_plus(self, tmp_path, capsys):
        assert run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")]) == 0
        plus = write_json(
            tmp_path / "plus.json", vector_to_json(np.array([1, 1]) / np.sqrt(2))
        )
        assert run_cli(["measure", "--scheme", str(tmp_path / "s.json"), "--state", plus]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["probabilities"], [0.5, 0.5], atol=1e-12)
        assert report["trivial_observable"] is False
        assert report["claim"] == "prob-reproducibility"

    def test_unnormalized_state_exit_2(self, tmp_path, capsys):
        run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")])
        capsys.readouterr()
        bad = write_json(tmp_path / "bad.json", vector_to_json(np.array([1.0, 1.0])))
        assert run_cli(["measure", "--scheme", str(tmp_path / "s.json"), "--state", bad]) == 2

    def test_invalid_povm_exit_4(self, tmp_path, capsys):
        run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")])
        capsys.readouterr()
        scheme = json.loads((tmp_path / "s.json").read_text())
        scheme["pointer"]["effects"][0]["re"] = [2.0, 0.0, 0.0, 2.0]
        write_json(tmp_path / "s.json", scheme)
        state = write_json(tmp_path / "e0.json", vector_to_json(np.eye(2)[0]))
        assert run_cli(["measure", "--scheme", str(tmp_path / "s.json"), "--state", state]) == 4

    def test_non_unitary_coupling_exit_3(self, tmp_path, capsys):
        # Exit 3 is "input not unitary", as for classify on the same coupling.
        run_cli(["gen", "swap-scheme", "--dims", "2", "2", "--out", str(tmp_path / "s.json")])
        capsys.readouterr()
        scheme = json.loads((tmp_path / "s.json").read_text())
        scheme["coupling"]["re"][0] = 3.0
        write_json(tmp_path / "s.json", scheme)
        state = write_json(tmp_path / "e0.json", vector_to_json(np.eye(2)[0]))
        assert run_cli(["measure", "--scheme", str(tmp_path / "s.json"), "--state", state]) == 3

    def test_csv_not_supported_for_classify(self, tmp_path, capsys):
        path = write_json(tmp_path / "i4.json", matrix_to_json(np.eye(4)))
        assert run_cli(["classify", path, "--dims", "2", "2", "--format", "csv"]) == 2


class TestPathCommand:
    def test_identity_profile_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "i4.json", matrix_to_json(np.eye(4)))
        assert run_cli(["path", path, "--dims", "2", "2", "--steps", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_entropy_bits"] < 1e-12
        assert report["interior_entangling_witnessed"] is False

    def test_swap_obstruction_witnessed(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        assert run_cli(["path", path, "--dims", "2", "2", "--steps", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["interior_entangling_witnessed"] is True
        assert report["max_entropy_bits"] > 0.5
        assert report["claim"] == "swap-obstruction"

    def test_csv_format(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        out = tmp_path / "profile.csv"
        assert run_cli(
            ["path", path, "--dims", "2", "2", "--steps", "8", "--format", "csv", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,max_entropy_bits,verdict,maximizing_input_id"
        assert len(lines) == 10
        assert lines[1].startswith("0.0,")

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1)])
    def test_non_square_exit_2(self, tmp_path, capsys, shape):
        path = write_json(tmp_path / "m.json", matrix_to_json(np.eye(*shape)))
        assert run_cli(["path", path, "--dims", "1", "2"]) == 2
        assert "square" in capsys.readouterr().err

    def test_dims_mismatch_exit_2_before_unitarity_check(self, tmp_path, capsys, unitarity_checks):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(4)))
        unitarity_checks.clear()
        assert run_cli(["path", path, "--dims", "2", "2"]) == 2
        assert "square of side 4, got (16, 16)" in capsys.readouterr().err
        assert unitarity_checks == []

    def test_probe_init_norm_checked_at_tol(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        probe = write_json(tmp_path / "probe.json", vector_to_json(np.eye(2)[0] * (1 + 1e-7)))
        args = ["path", path, "--dims", "2", "2", "--steps", "2", "--probe-init", probe]
        assert run_cli(args) == 2
        assert "probe_init norm" in capsys.readouterr().err
        assert run_cli(args + ["--tol", "1e-6"]) == 0

    def test_one_unitarity_check_per_path(self, tmp_path, capsys, unitarity_checks):
        # The endpoint's, before its eigendecomposition, and the path's eigenvectors',
        # which bound every grid point's defect.
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        unitarity_checks.clear()
        assert run_cli(["path", path, "--dims", "2", "2", "--steps", "64"]) == 0
        assert unitarity_checks == [(4, 4)] * 2

    def test_tol_zero_exit_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        assert run_cli(["path", path, "--dims", "2", "2", "--tol", "0"]) == 3
        assert "path is not unitary" in capsys.readouterr().err

    def test_json_out_writes_csv_sibling(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        out = tmp_path / "profile.json"
        assert run_cli(["path", path, "--dims", "2", "2", "--steps", "8", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_steps"] == 8
        assert (tmp_path / "profile.csv").exists()


class TestGenCommand:
    def test_gen_swap(self, capsys):
        assert run_cli(["gen", "swap", "--dims", "2", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["rows"] == 4

    def test_gen_haar_product_classifies_product(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        assert run_cli(["gen", "haar-product", "--dims", "3", "3", "--seed", "8", "--out", str(out)]) == 0
        assert run_cli(["classify", str(out), "--dims", "3", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "product"

    def test_gen_trine_validates(self, capsys):
        assert run_cli(["gen", "trine-povm"]) == 0
        from entkit.measurement import validate_povm
        from entkit.serialize import povm_from_json

        ok, _ = validate_povm(povm_from_json(json.loads(capsys.readouterr().out)))
        assert ok

    def test_gen_determinism(self, capsys):
        run_cli(["gen", "haar", "--dims", "2", "2", "--seed", "5"])
        first = capsys.readouterr().out
        run_cli(["gen", "haar", "--dims", "2", "2", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_unknown_fixture_exit_2(self, capsys):
        assert run_cli(["gen", "nonsense"]) == 2

    @pytest.mark.parametrize("name", FIXTURES)
    def test_every_fixture_emits_json(self, capsys, name):
        assert run_cli(["gen", name]) == 0
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("name", ["swap", "dressed-swap", "swap-scheme"])
    def test_equal_dim_fixture_rejects_unequal_dims(self, capsys, name):
        assert run_cli(["gen", name, "--dims", "2", "3"]) == 2
        assert "requires equal dimensions" in capsys.readouterr().err

    def test_readme_lists_every_fixture(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Fixture names for `gen`:")[1].split("\n\n")[0]
        names = [n for n in re.findall(r"`([^`]+)`", paragraph) if not n.startswith("--")]
        assert names == list(FIXTURES)


# subcommand -> (flags it accepts, --format choices or None)
ACCEPTED_FLAGS = {
    "classify": (["--dims", "--format", "--out", "--seed", "--tol"], ["json", "text"]),
    "slice": (["--dims", "--format", "--out", "--phi0", "--tol"], ["json", "text"]),
    "measure": (["--format", "--out", "--scheme", "--state", "--tol"], ["json", "text"]),
    "path": (
        ["--dims", "--format", "--out", "--probe-init", "--samples", "--seed", "--steps", "--tol"],
        ["json", "csv", "text"],
    ),
    "verify": (["--format", "--out", "--seed", "--tol"], ["json", "text"]),
    "gen": (["--dims", "--out", "--phase", "--probe-control", "--samples", "--seed"], None),
}


class TestFlagContract:
    def test_each_subcommand_accepts_only_its_flags(self):
        parsers = subparsers()
        assert list(parsers) == list(COMMANDS)
        for name, p in parsers.items():
            assert (accepted_flags(p), format_choices(p)) == ACCEPTED_FLAGS[name], name

    def test_readme_lists_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Flags per subcommand:")[1].split("\n\n")[0]
        listed = {}
        for item in paragraph.split("\n- ")[1:]:
            name = re.match(r"`(\w+)", item).group(1)
            flags = sorted(set(re.findall(r"`(--[a-z0-9-]+)", item)))
            fmt = re.search(r"`--format ([a-z|]+)`", item)
            listed[name] = (flags, fmt.group(1).split("|") if fmt else None)
        assert listed == ACCEPTED_FLAGS

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("slice", ["--seed", "7"]),
            ("measure", ["--dims", "2", "2"]),
            ("verify", ["--steps", "4"]),
            ("classify", ["--samples", "3"]),
            ("gen", ["--tol", "1e-3"]),
        ],
    )
    def test_dropped_flag_is_usage_error(self, command, flag, tmp_path, capsys, e0_file):
        swap = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        scheme = str(tmp_path / "s.json")
        run_cli(["gen", "swap-scheme", "--out", scheme])
        valid = {
            "slice": ["slice", swap, "--phi0", e0_file, "--dims", "2", "2"],
            "measure": ["measure", "--scheme", scheme, "--state", e0_file],
            "verify": ["verify", "--tol", "1e-30"],
            "classify": ["classify", swap, "--dims", "2", "2"],
            "gen": ["gen", "swap"],
        }[command]
        capsys.readouterr()
        assert run_cli(valid + flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "classify" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["classify", "path", "verify"])
    def test_tol_without_possible_witness_exit_2(
        self, command, tmp_path, capsys, unitarity_checks
    ):
        path = write_json(tmp_path / "cnot.json", matrix_to_json(cnot()))
        args = ["verify"] if command == "verify" else [command, path, "--dims", "2", "2"]
        assert run_cli(args + ["--tol", "0.1"]) == 2
        assert "tol must be below 0.0707" in capsys.readouterr().err
        # Refused before any work: no unitarity check, so no eigendecomposition either.
        assert unitarity_checks == []

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_non_finite_tolerance_exit_2(self, tol, tmp_path, capsys):
        # All-2s passes "defect > nan" as unitary; it must never reach the check.
        path = write_json(tmp_path / "twos.json", matrix_to_json(np.full((4, 4), 2.0)))
        assert run_cli(["classify", path, "--dims", "2", "2", "--tol", tol]) == 2
        assert "finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--dims", "0", "2"], "--dims: must be at least 1, got 0"),
            (["--steps", "1"], "--steps: must be at least 2, got 1"),
            (["--samples", "-1"], "--samples: must be at least 0, got -1"),
            (["--steps", "two"], "--steps: invalid int value: 'two'"),
        ],
    )
    def test_int_values_checked_by_parser(self, flag, message, tmp_path, capsys):
        swap = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        assert run_cli(["path", swap, "--dims", "2", "2", *flag]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, has_seed", [
        ("classify", True), ("slice", False), ("measure", False), ("path", True),
    ])
    def test_seed_only_where_drawn(self, command, has_seed, tmp_path, capsys, e0_file):
        swap = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        scheme = str(tmp_path / "s.json")
        run_cli(["gen", "swap-scheme", "--out", scheme])
        argv = {
            "classify": ["classify", swap, "--dims", "2", "2"],
            "slice": ["slice", swap, "--phi0", e0_file, "--dims", "2", "2"],
            "measure": ["measure", "--scheme", scheme, "--state", e0_file],
            "path": ["path", swap, "--dims", "2", "2", "--steps", "2"],
        }[command]
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert ("seed" in json.loads(capsys.readouterr().out)) is has_seed


def test_readme_names_every_exit_code_class():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\d)` \| (.*) \|$", readme, re.MULTILINE))
    for cls, code in EXIT_CODES.items():
        assert f"`{cls.__name__}`" in rows[str(code)], (cls.__name__, code)


def test_readme_states_the_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"\bit is (\d+\.\d+\.\d+)\.", readme) == [__version__]


def test_readme_lists_profile_csv_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    columns = re.search(r"CSV columns `([^`]*)`", readme).group(1)
    assert re.split(r",\s+", columns) == profile_csv([]).splitlines()[0].split(",")


@pytest.mark.parametrize("cls", EXIT_CODES)
def test_exit_code_table_reached_through_main(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom", (0,)) if cls is SliceHypothesisError else cls("boom")

    monkeypatch.setitem(COMMANDS, "verify", fail)
    assert run_cli(["verify"]) == EXIT_CODES[cls]
    assert capsys.readouterr().err == "error: boom\n"


class TestDeterminism:
    def test_classify_byte_identical(self, tmp_path):
        from entkit.fixtures import haar_product

        u, _, _ = haar_product(3, 3, 4)
        path = write_json(tmp_path / "u.json", matrix_to_json(u))
        outs = []
        for k in range(2):
            out = tmp_path / f"report{k}.json"
            assert run_cli(
                ["classify", path, "--dims", "3", "3", "--seed", "11", "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_impossible_tolerance_fails_with_diagnostics(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run_cli(["verify", "--tol", "1e-30", "--seed", "3", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert any("error" in s["worst"] for s in report["suites"])


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "swap.json"
        # This checkout's src first, so an installed copy cannot answer.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "entkit.cli", "gen", "swap", "--dims", "2", "2", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(out.read_text())["rows"] == 4

    @pytest.mark.parametrize("command", ["classify", "path"])
    def test_unwritable_out_exit_2(self, command, tmp_path, capsys):
        swap = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        out = tmp_path / "nodir" / "r.json"
        assert run_cli([command, swap, "--dims", "2", "2", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_unwritable_csv_sibling_exit_2(self, tmp_path, capsys):
        swap = write_json(tmp_path / "swap.json", matrix_to_json(swap_unitary(2)))
        (tmp_path / "p.csv").mkdir()
        args = ["path", swap, "--dims", "2", "2", "--steps", "2", "--out", str(tmp_path / "p.json")]
        assert run_cli(args) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_no_partial_output_on_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "report.json"
        code = run_cli(["classify", str(bad), "--dims", "2", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()
