"""Command-line front-end.

Subcommands: classify, slice, measure, path, verify, gen. Each accepts only
the flags it reads. All reports embed the tool version, tolerance and the
claim tag they instantiate (and the seed, where the command draws random
numbers), and are byte-identical across runs for identical inputs. Output
files are written atomically (temp file plus rename), so no partial files
survive an error.

Exit codes: 0 success (an "entangling" verdict is a successful
classification), 1 verification-suite failure, 2 usage error (argparse),
otherwise the first ``EXIT_CODES`` entry the library error is an instance of.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, fixtures, verify
from .classify import (
    Entangling,
    LocalOnObject,
    Product,
    classify_slice,
    classify_unitary,
    witness_margin,
)
from .dynamics import entanglement_profile, geodesic_path, require_probe_init
from .errors import (
    DimensionError,
    InvalidPOVMError,
    NonUnitaryError,
    SliceHypothesisError,
    SlicePatternError,
    WitnessSearchError,
)
from .linalg import DEFAULT_SEED, DEFAULT_TOL, Tolerance, haar_unitary, random_state, swap_unitary
from .measurement import (
    disturbance,
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

# Library error -> exit code, most specific class first. main() is the only
# place that maps an error to a code; usage errors exit 2 from argparse.
EXIT_CODES = {
    NonUnitaryError: 3,
    SliceHypothesisError: 4,
    SlicePatternError: 4,
    InvalidPOVMError: 4,
    # no certificate either way: an input near the boundary, or a loose tol
    WitnessSearchError: 1,
    ValueError: 2,
}


def _tolerance(text: str) -> Tolerance:
    try:
        return Tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, parse, what: str):
    """Parse a JSON file; any defect in it is a plain ValueError (exit 2)."""
    raw = _load_json(path)
    try:
        return parse(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is not a valid {what}: {exc}") from exc


def _report_header(claim: str, args: argparse.Namespace) -> dict:
    header = {
        "tool": "entkit",
        "version": __version__,
        "claim": claim,
        "tol": args.tol.eps,
    }
    if "seed" in args:
        header["seed"] = args.seed
    return header


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        write_atomic(out, text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(report)
    lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(report.items())]
    return "\n".join(lines) + "\n"


def cmd_classify(args: argparse.Namespace) -> int:
    d1, d2 = args.dims
    u = _load(args.input, matrix_from_json, "matrix")
    form = classify_unitary(u, d1, d2, args.tol, args.seed)
    report = _report_header("theorem-classification", args)
    report["dims"] = [d1, d2]
    report["verdict"] = form.verdict
    if isinstance(form, Entangling):
        report["factors"] = None
        report["reconstruction_error"] = None
        report["witness"] = {
            "input": state_to_json(form.input),
            "image": state_to_json(form.witness),
            "second_schmidt_coeff": form.second_coeff,
        }
    else:
        names = ("v", "w") if isinstance(form, Product) else ("v21", "w12")
        report["factors"] = {name: matrix_to_json(getattr(form, name)) for name in names}
        report["reconstruction_error"] = form.residual
        report["witness"] = None
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    d1, d2 = args.dims
    u = _load(args.input, matrix_from_json, "matrix")
    phi0 = _load(args.phi0, vector_from_json, "vector")
    form = classify_slice(u, d1, d2, phi0, args.tol)
    report = _report_header("prop1-slice", args)
    report["dims"] = [d1, d2]
    report["form"] = form.form
    if isinstance(form, LocalOnObject):
        report["isometry"] = matrix_to_json(form.v)
    else:
        report["isometry"] = matrix_to_json(form.w12)
    report["phi_prime"] = vector_to_json(form.phi_prime)
    report["residual"] = form.residual
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    scheme = _load(args.scheme, scheme_from_json, "scheme")
    phi = _load(args.state, vector_from_json, "vector")
    induced = measured_observable(scheme, args.tol)
    probs = outcome_probabilities(scheme, phi, args.tol)
    rho = DensityOperator.from_pure(phi)
    dist = disturbance(scheme, rho, args.tol)
    deviation = triviality_deviation(induced)
    trivial = deviation <= args.tol.eps
    report = _report_header("prob-reproducibility", args)
    report["outcomes"] = list(scheme.pointer.outcomes)
    report["probabilities"] = [float(p) for p in probs]
    report["measured_observable"] = povm_to_json(induced)
    report["trivial_observable"] = trivial
    report["trivial_scalars"] = (
        [float(np.trace(eff).real) / induced.dim for eff in induced.effects] if trivial else None
    )
    report["triviality_deviation"] = deviation
    report["disturbance"] = dist
    _emit(_render(report, args.format), args.out)
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    # A tol no witness can beat, and a probe vector the profile would refuse,
    # are refused before the endpoint's eigendecomposition.
    witness_margin(args.tol)
    d1, d2 = args.dims
    u = _load(args.input, matrix_from_json, "matrix")
    if args.probe_init:
        probe_init = _load(args.probe_init, vector_from_json, "vector")
        require_probe_init(probe_init, d2, args.tol)
    else:
        probe_init = np.eye(d2)[0]
    path = geodesic_path(u, d1, d2, args.tol)
    profile = entanglement_profile(
        path, probe_init, args.steps, args.seed, args.samples, args.tol
    )
    best = profile.max_point()
    summary = (
        f"max entropy {best.max_entropy_bits:.6f} bits at t={best.t} "
        f"({best.maximizing_input_id}); interior entangling point witnessed: "
        f"{profile.interior_entangling}"
    )
    print(summary, file=sys.stderr)
    if args.format == "csv":
        _emit(profile_csv(profile.points), args.out)
        return 0
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
        _emit(profile_csv(profile.points), base + ".csv")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_all(args.seed, args.tol)
    _emit(_render(report, args.format), args.out)
    return 0 if report["passed"] else 1


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
    "random-povm": lambda a, d1, d2: povm_to_json(fixtures.random_povm(d1, a.samples, a.seed)),
    "swap-scheme": lambda a, d1, d2: scheme_to_json(
        swap_scheme(fixtures.projective_povm(d1), np.eye(d1)[0])
    ),
}

# Fixtures that exist only when both factors have the same dimension.
_EQUAL_DIM_FIXTURES = ("swap", "dressed-swap", "swap-scheme")


def cmd_gen(args: argparse.Namespace) -> int:
    d1, d2 = args.dims
    if args.name in _EQUAL_DIM_FIXTURES and d1 != d2:
        raise DimensionError(f"{args.name} requires equal dimensions")
    _emit(canonical_json(FIXTURES[args.name](args, d1, d2)), args.out)
    return 0


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
    tol = dict(type=_tolerance, default=DEFAULT_TOL, help="absolute tolerance (default 1e-9)")
    seed = dict(
        type=int, default=DEFAULT_SEED,
        help="RNG seed (default 0xB05C for reproducible unseeded runs)",
    )
    dims = dict(type=_int_at_least(1), nargs=2, metavar=("D1", "D2"), required=True)

    def command(name: str, help: str, formats=("json", "text")) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="output path (stdout if absent)")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        return p

    p = command("classify", "classify a bipartite unitary")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--tol", **tol)
    p.add_argument("--seed", **seed)
    p.add_argument("--dims", **dims)

    p = command("slice", "classify the action on a fixed probe slice")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--phi0", required=True, help="probe vector JSON file")
    p.add_argument("--tol", **tol)
    p.add_argument("--dims", **dims)

    p = command("measure", "evaluate a measurement scheme on a state")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    p.add_argument("--state", required=True, help="object state JSON file")
    p.add_argument("--tol", **tol)

    p = command(
        "path", "entanglement profile along the path to a coupling", ("json", "csv", "text")
    )
    p.add_argument("input", help="endpoint matrix JSON file")
    p.add_argument("--probe-init", help="probe vector JSON file")
    p.add_argument("--tol", **tol)
    p.add_argument("--seed", **seed)
    p.add_argument("--dims", **dims)
    p.add_argument("--steps", type=_int_at_least(2), default=64, help="path grid intervals")
    p.add_argument(
        "--samples", type=_int_at_least(0), default=8, help="random product input count"
    )

    p = command("verify", "run the full invariant corpus")
    p.add_argument("--tol", **tol)
    p.add_argument("--seed", **seed)

    p = command("gen", "emit a named fixture as JSON", formats=None)
    p.add_argument("name", choices=FIXTURES, metavar="name", help=" | ".join(FIXTURES))
    p.add_argument("--seed", **seed)
    p.add_argument("--dims", **{**dims, "required": False, "default": (2, 2)})
    p.add_argument(
        "--samples", type=_int_at_least(2), default=8, help="random-povm outcome count"
    )
    p.add_argument("--phase", type=float, default=float(np.pi) / 2)
    p.add_argument("--probe-control", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    try:
        return COMMANDS[args.command](args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
