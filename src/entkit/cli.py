"""Command-line front-end.

Subcommands: classify, slice, measure, path, verify, gen. All reports embed
the tool version, tolerance, seed and the claim tag they instantiate, and are
byte-identical across runs for identical inputs. Output files are written
atomically (temp file plus rename), so no partial files survive an error.

Exit codes: 0 success (an "entangling" verdict is a successful
classification), 1 verification-suite failure, 2 malformed input or usage,
3 input not unitary within tolerance, 4 hypothesis violation (non-product
slice image, no slice form within tolerance, invalid POVM).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, fixtures, verify
from .classify import (
    LocalOnObject,
    Product,
    SwapForm,
    classify_slice,
    classify_unitary,
    reconstruction_error,
    slice_residual,
)
from .dynamics import entanglement_profile, geodesic_path
from .errors import (
    DimensionError,
    InvalidPOVMError,
    NonUnitaryError,
    SliceHypothesisError,
    SlicePatternError,
    WitnessSearchError,
)
from .linalg import DEFAULT_SEED, Tolerance, haar_unitary, random_state, swap_unitary
from .measurement import (
    disturbance,
    is_trivial_povm,
    measured_observable,
    outcome_probabilities,
    swap_scheme,
    triviality_deviation,
)
from .bipartite import DensityOperator
from .serialize import (
    canonical_json,
    matrix_from_json,
    matrix_to_json,
    povm_to_json,
    profile_csv,
    scheme_from_json,
    scheme_to_json,
    state_to_json,
    vector_from_json,
    vector_to_json,
    write_atomic,
)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_UNITARY = 3
EXIT_HYPOTHESIS = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _validate(args: argparse.Namespace) -> None:
    """Check the shared flags and turn ``args.tol`` into a Tolerance.

    The seed always has a value (default 0xB05C), so unseeded runs are
    reproducible.
    """
    if args.dims is not None:
        d1, d2 = args.dims
        if d1 < 1 or d2 < 1:
            raise CliError(f"dimensions must be positive, got {d1} {d2}", EXIT_BAD_INPUT)
    try:
        args.tol = Tolerance(args.tol)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    if args.steps < 2:
        raise CliError(f"--steps must be at least 2, got {args.steps}", EXIT_BAD_INPUT)


def _require_dims(args: argparse.Namespace) -> tuple[int, int]:
    if args.dims is None:
        raise CliError("--dims d1 d2 is required for this command", EXIT_BAD_INPUT)
    return tuple(args.dims)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_BAD_INPUT) from exc


def _load_matrix(path: str) -> np.ndarray:
    try:
        return matrix_from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path} is not a valid matrix: {exc}", EXIT_BAD_INPUT) from exc


def _load_vector(path: str) -> np.ndarray:
    try:
        return vector_from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path} is not a valid vector: {exc}", EXIT_BAD_INPUT) from exc


def _report_header(claim: str, args: argparse.Namespace) -> dict:
    return {
        "tool": "entkit",
        "version": __version__,
        "claim": claim,
        "tol": args.tol.eps,
        "seed": args.seed,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(report)
    if fmt == "text":
        lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(report.items())]
        return "\n".join(lines) + "\n"
    raise CliError(f"format {fmt!r} not supported for this command", EXIT_BAD_INPUT)


def cmd_classify(args: argparse.Namespace) -> int:
    d1, d2 = _require_dims(args)
    u = _load_matrix(args.input)
    try:
        form = classify_unitary(u, d1, d2, args.tol, args.seed)
    except DimensionError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    except NonUnitaryError as exc:
        raise CliError(f"{exc} (unitarity defect {exc.defect:.6e})", EXIT_NOT_UNITARY) from exc
    report = _report_header("theorem-classification", args)
    report["dims"] = [d1, d2]
    report["verdict"] = form.verdict
    if isinstance(form, Product):
        report["factors"] = {"v": matrix_to_json(form.v), "w": matrix_to_json(form.w)}
        report["reconstruction_error"] = reconstruction_error(form, u)
        report["witness"] = None
    elif isinstance(form, SwapForm):
        report["factors"] = {"v21": matrix_to_json(form.v21), "w12": matrix_to_json(form.w12)}
        report["reconstruction_error"] = reconstruction_error(form, u)
        report["witness"] = None
    else:
        report["factors"] = None
        report["reconstruction_error"] = None
        report["witness"] = {
            "input": state_to_json(form.input),
            "image": state_to_json(form.witness),
            "second_schmidt_coeff": form.second_coeff,
        }
    _emit(_render(report, args.format), args.out)
    return EXIT_OK


def cmd_slice(args: argparse.Namespace) -> int:
    d1, d2 = _require_dims(args)
    u = _load_matrix(args.input)
    phi0 = _load_vector(args.phi0)
    try:
        form = classify_slice(u, d1, d2, phi0, args.tol)
    except SliceHypothesisError as exc:
        raise CliError(f"{exc} (offending indices {exc.indices})", EXIT_HYPOTHESIS) from exc
    except SlicePatternError as exc:
        raise CliError(str(exc), EXIT_HYPOTHESIS) from exc
    except NonUnitaryError as exc:
        raise CliError(str(exc), EXIT_NOT_UNITARY) from exc
    except (DimensionError, ValueError) as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    report = _report_header("prop1-slice", args)
    report["dims"] = [d1, d2]
    report["form"] = form.form
    if isinstance(form, LocalOnObject):
        report["isometry"] = matrix_to_json(form.v)
    else:
        report["isometry"] = matrix_to_json(form.w12)
    report["phi_prime"] = vector_to_json(form.phi_prime)
    report["residual"] = slice_residual(form, u, d1, d2, phi0)
    _emit(_render(report, args.format), args.out)
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    raw = _load_json(args.scheme)
    try:
        scheme = scheme_from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid scheme: {exc}", EXIT_BAD_INPUT) from exc
    phi = _load_vector(args.state)
    try:
        induced = measured_observable(scheme, args.tol)
        probs = outcome_probabilities(scheme, phi, args.tol)
        rho = DensityOperator.from_pure(phi)
        dist = disturbance(scheme, rho, args.tol)
    except InvalidPOVMError as exc:
        raise CliError(f"invalid POVM: {exc.report}", EXIT_HYPOTHESIS) from exc
    except NonUnitaryError as exc:
        raise CliError(str(exc), EXIT_NOT_UNITARY) from exc
    except ValueError as exc:
        # covers normalization and dimension defects
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    trivial, scalars = is_trivial_povm(induced, args.tol)
    report = _report_header("prob-reproducibility", args)
    report["outcomes"] = list(probs.labels)
    report["probabilities"] = [float(p) for p in probs.probabilities]
    report["measured_observable"] = povm_to_json(induced)
    report["trivial_observable"] = trivial
    report["trivial_scalars"] = scalars
    report["triviality_deviation"] = triviality_deviation(induced)
    report["disturbance"] = dist
    _emit(_render(report, args.format), args.out)
    return EXIT_OK


def cmd_path(args: argparse.Namespace) -> int:
    d1, d2 = _require_dims(args)
    u = _load_matrix(args.input)
    if args.probe_init:
        probe_init = _load_vector(args.probe_init)
    else:
        probe_init = np.eye(d2)[0]
    try:
        path = geodesic_path(u, d1, d2, args.tol)
        profile = entanglement_profile(
            path, probe_init, args.steps, args.seed, args.samples, args.tol
        )
    except NonUnitaryError as exc:
        raise CliError(str(exc), EXIT_NOT_UNITARY) from exc
    except (DimensionError, ValueError) as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT) from exc
    best = profile.max_point()
    summary = (
        f"max entropy {best.max_entropy_bits:.6f} bits at t={best.t} "
        f"({best.maximizing_input_id}); interior entangling point witnessed: "
        f"{profile.interior_entangling}"
    )
    print(summary, file=sys.stderr)
    if args.format == "csv":
        _emit(profile_csv(profile.points), args.out)
        return EXIT_OK
    report = _report_header("swap-obstruction", args)
    report["dims"] = [d1, d2]
    report["n_steps"] = args.steps
    report["max_entropy_bits"] = best.max_entropy_bits
    report["max_entropy_t"] = best.t
    report["max_entropy_input_id"] = best.maximizing_input_id
    report["max_entropy_input"] = vector_to_json(best.maximizing_input)
    report["interior_entangling_witnessed"] = profile.interior_entangling
    report["profile"] = [
        {
            "t": pt.t,
            "max_entropy_bits": pt.max_entropy_bits,
            "op_schmidt_rank": pt.op_schmidt_rank,
            "verdict": pt.verdict,
            "maximizing_input_id": pt.maximizing_input_id,
            "maximizing_input": vector_to_json(pt.maximizing_input),
        }
        for pt in profile.points
    ]
    _emit(_render(report, args.format), args.out)
    if args.out:
        # the grid data also lands next to the report as CSV
        base = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
        write_atomic(base + ".csv", profile_csv(profile.points))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_all(args.seed, args.tol)
    _emit(_render(report, args.format), args.out)
    return EXIT_OK if report["passed"] else EXIT_SUITE_FAILURE


# name -> builder(args, d1, d2) of the JSON object `gen` emits.
FIXTURES = {
    "identity": lambda a, d1, d2: matrix_to_json(np.eye(d1 * d2)),
    "swap": lambda a, d1, d2: matrix_to_json(swap_unitary(d1)),
    "cnot": lambda a, d1, d2: matrix_to_json(fixtures.cnot(control_on_object=not a.probe_control)),
    "controlled-phase": lambda a, d1, d2: matrix_to_json(fixtures.controlled_phase(a.phase, d1, d2)),
    "haar": lambda a, d1, d2: matrix_to_json(haar_unitary(d1 * d2, a.seed)),
    "haar-product": lambda a, d1, d2: matrix_to_json(fixtures.haar_product(d1, d2, a.seed)[0]),
    "dressed-swap": lambda a, d1, d2: matrix_to_json(fixtures.dressed_swap(d1, a.seed)[0]),
    "random-state": lambda a, d1, d2: vector_to_json(random_state(d1, a.seed)),
    "projective-povm": lambda a, d1, d2: povm_to_json(fixtures.projective_povm(d1)),
    "trine-povm": lambda a, d1, d2: povm_to_json(fixtures.trine_povm()),
    "random-povm": lambda a, d1, d2: povm_to_json(fixtures.random_povm(d1, max(2, a.samples), a.seed)),
    "swap-scheme": lambda a, d1, d2: scheme_to_json(
        swap_scheme(fixtures.projective_povm(d1), np.eye(d1)[0])
    ),
}

# Fixtures that exist only when both factors have the same dimension.
_EQUAL_DIM_FIXTURES = ("swap", "dressed-swap", "swap-scheme")


def cmd_gen(args: argparse.Namespace) -> int:
    d1, d2 = args.dims or (2, 2)
    if args.name not in FIXTURES:
        raise CliError(f"unknown fixture name {args.name!r}", EXIT_BAD_INPUT)
    if args.name in _EQUAL_DIM_FIXTURES and d1 != d2:
        raise CliError(f"{args.name} requires equal dimensions", EXIT_BAD_INPUT)
    _emit(canonical_json(FIXTURES[args.name](args, d1, d2)), args.out)
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "slice": cmd_slice,
    "measure": cmd_measure,
    "path": cmd_path,
    "verify": cmd_verify,
    "gen": cmd_gen,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Bipartite toolkit: non-entangling unitary classification, "
        "measurement schemes, entanglement dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=1e-9, help="absolute tolerance")
        p.add_argument(
            "--seed", type=int, default=DEFAULT_SEED,
            help="RNG seed (default 0xB05C for reproducible unseeded runs)",
        )
        p.add_argument("--dims", type=int, nargs=2, metavar=("D1", "D2"), default=None)
        p.add_argument("--steps", type=int, default=64, help="path grid intervals")
        p.add_argument("--samples", type=int, default=8, help="random input count")
        p.add_argument("--out", default=None, help="output path (stdout if absent)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("classify", help="classify a bipartite unitary")
    p.add_argument("input", help="matrix JSON file")
    add_common(p)

    p = sub.add_parser("slice", help="classify the action on a fixed probe slice")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--phi0", required=True, help="probe vector JSON file")
    add_common(p)

    p = sub.add_parser("measure", help="evaluate a measurement scheme on a state")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    p.add_argument("--state", required=True, help="object state JSON file")
    add_common(p)

    p = sub.add_parser("path", help="entanglement profile along the path to a coupling")
    p.add_argument("input", help="endpoint matrix JSON file")
    p.add_argument("--probe-init", default=None, help="probe vector JSON file")
    add_common(p)

    p = sub.add_parser("verify", help="run the full invariant corpus")
    add_common(p)

    p = sub.add_parser("gen", help="emit a named fixture as JSON")
    # No argparse choices: an unknown name must return 2 from main(), not exit.
    p.add_argument("name", help=" | ".join(FIXTURES))
    p.add_argument("--phase", type=float, default=float(np.pi) / 2)
    p.add_argument("--probe-control", action="store_true")
    add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except WitnessSearchError as exc:
        # numerical breakdown, typically a misconfigured tolerance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
