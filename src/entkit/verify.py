"""Invariant corpus suites behind the ``verify`` command and the acceptance gate.

Every suite is a pure function of (seed, tol) and returns a SuiteResult whose
fields are deterministic; reports serialized from identical inputs are
byte-identical. Wall-clock measurements therefore never appear here; the
acceptance tests time the suites externally.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, fixtures
from .bipartite import entanglement_entropy, PureState
from .classify import (
    Product,
    SwapForm,
    brute_force_non_entangling,
    classify_slice,
    classify_unitary,
    LocalOnObject,
    reconstruction_error,
    TransferToProbe,
)
from .dynamics import (
    entanglement_profile,
    geodesic_path,
    path_from_generator,
    profile_inputs,
)
from .linalg import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Tolerance,
    frobenius,
    haar_unitary,
    random_hermitian,
    random_state,
    split_seed,
    swap_unitary,
    tensor_product,
)
from .measurement import (
    measured_observable,
    no_info_no_disturbance_check,
    outcome_probabilities,
    is_trivial_povm,
    swap_scheme,
    MeasurementScheme,
    triviality_deviation,
)

VERSION = __version__


@dataclass(frozen=True)
class SuiteResult:
    name: str
    claim: str
    passed: bool
    checks: int
    failures: int
    worst: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||b - e^{i phase} a||_F minimized over the global phase."""
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return frobenius(b - phase * a)


def suite_prob_reproducibility(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Swap schemes reproduce the pointer statistics on the object state."""
    checks = 0
    failures = 0
    worst = 0.0
    for n in range(100):
        d = (2, 3, 4)[n % 3]
        pointer = fixtures.random_povm(d, 2 + n % 3, split_seed(seed, f"pr-povm-{n}"))
        phi0 = random_state(d, split_seed(seed, f"pr-phi0-{n}"))
        phi = random_state(d, split_seed(seed, f"pr-phi-{n}"))
        scheme = swap_scheme(pointer, phi0, tol)
        probs = outcome_probabilities(scheme, phi, tol).probabilities
        direct = np.array(
            [float(np.vdot(phi, eff @ phi).real) for eff in pointer.effects]
        )
        deviation = float(np.abs(probs - direct).max())
        worst = max(worst, deviation)
        checks += 1
        if deviation >= 1e-10:
            failures += 1
    return SuiteResult(
        name="prob_reproducibility",
        claim="prob-reproducibility",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={"probability_deviation": worst},
    )


def classifier_corpus(seed: int) -> list[tuple[str, int, int, np.ndarray]]:
    """Labeled unitaries: Haar products, dressed swaps, Haar generics and
    diagonal/controlled couplings over equal and unequal dimension pairs."""
    corpus: list[tuple[str, int, int, np.ndarray]] = []
    for d in (2, 3, 4):
        for n in range(60):
            u, _, _ = fixtures.haar_product(d, d, split_seed(seed, f"cp-prod-{d}-{n}"))
            corpus.append((f"product:{d}x{d}:{n}", d, d, u))
        for n in range(60):
            u, _, _ = fixtures.dressed_swap(d, split_seed(seed, f"cp-swap-{d}-{n}"))
            corpus.append((f"dressed-swap:{d}x{d}:{n}", d, d, u))
        for n in range(40):
            u = haar_unitary(d * d, split_seed(seed, f"cp-gen-{d}-{n}"))
            corpus.append((f"generic:{d}x{d}:{n}", d, d, u))
        for n in range(20):
            u = fixtures.random_diagonal_coupling(d, d, split_seed(seed, f"cp-diag-{d}-{n}"))
            corpus.append((f"diagonal:{d}x{d}:{n}", d, d, u))
    corpus.append(("cnot:2x2:object", 2, 2, fixtures.cnot(True)))
    corpus.append(("cnot:2x2:probe", 2, 2, fixtures.cnot(False)))
    for n, theta in enumerate((np.pi / 3, np.pi / 2, 2.0, np.pi)):
        corpus.append((f"cphase:2x2:{n}", 2, 2, fixtures.controlled_phase(theta)))
        corpus.append((f"cphase:3x3:{n}", 3, 3, fixtures.controlled_phase(theta, 3, 3)))
    for d1, d2 in ((2, 3), (3, 2), (2, 4)):
        for n in range(60):
            u, _, _ = fixtures.haar_product(d1, d2, split_seed(seed, f"cp-prod-{d1}{d2}-{n}"))
            corpus.append((f"product:{d1}x{d2}:{n}", d1, d2, u))
        for n in range(60):
            u = haar_unitary(d1 * d2, split_seed(seed, f"cp-gen-{d1}{d2}-{n}"))
            corpus.append((f"generic:{d1}x{d2}:{n}", d1, d2, u))
        for n in range(40):
            u = fixtures.random_diagonal_coupling(d1, d2, split_seed(seed, f"cp-diag-{d1}{d2}-{n}"))
            corpus.append((f"diagonal:{d1}x{d2}:{n}", d1, d2, u))
    return corpus


def suite_classifier_oracle(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """classify_unitary agrees with the sampling oracle; forms reconstruct."""
    corpus = classifier_corpus(seed)
    checks = 0
    failures = 0
    disagreements = 0
    worst_reconstruction = 0.0
    for label, d1, d2, u in corpus:
        form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"co-cls-{label}"))
        non_entangling, _ = brute_force_non_entangling(
            u, d1, d2, tol, split_seed(seed, f"co-bf-{label}"), n_samples=40
        )
        ok = isinstance(form, (Product, SwapForm)) == non_entangling
        if not ok:
            disagreements += 1
        if isinstance(form, (Product, SwapForm)):
            err = reconstruction_error(form, u)
            worst_reconstruction = max(worst_reconstruction, err)
            ok = ok and err < 1e-8
        checks += 1
        if not ok:
            failures += 1
    return SuiteResult(
        name="classifier_oracle",
        claim="theorem-classification",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={
            "disagreements": float(disagreements),
            "reconstruction_error": worst_reconstruction,
        },
    )


def suite_equal_dim_constraint(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """No swap-form verdict can occur on unequal-dimension spaces."""
    checks = 0
    swap_verdicts = 0
    for d1, d2 in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 4)):
        for n in range(25):
            u, _, _ = fixtures.haar_product(d1, d2, split_seed(seed, f"eq-prod-{d1}{d2}-{n}"))
            form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"eq-c1-{d1}{d2}-{n}"))
            swap_verdicts += isinstance(form, SwapForm)
            checks += 1
        for n in range(15):
            u = haar_unitary(d1 * d2, split_seed(seed, f"eq-gen-{d1}{d2}-{n}"))
            form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"eq-c2-{d1}{d2}-{n}"))
            swap_verdicts += isinstance(form, SwapForm)
            checks += 1
    return SuiteResult(
        name="equal_dim_constraint",
        claim="theorem-classification",
        passed=swap_verdicts == 0,
        checks=checks,
        failures=swap_verdicts,
        worst={"swap_verdicts": float(swap_verdicts)},
    )


def suite_slice_consistency(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Slice form matches the full classification, operators agree up to phase."""
    checks = 0
    failures = 0
    worst = 0.0
    dims = ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (2, 4))
    for d1, d2 in dims:
        for n in range(18):
            u, _, _ = fixtures.haar_product(d1, d2, split_seed(seed, f"sl-prod-{d1}{d2}-{n}"))
            form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"sl-c-{d1}{d2}-{n}"))
            phi0 = random_state(d2, split_seed(seed, f"sl-phi0-{d1}{d2}-{n}"))
            sliced = classify_slice(u, d1, d2, phi0, tol)
            ok = isinstance(form, Product) and isinstance(sliced, LocalOnObject)
            if ok:
                distance = _phase_aligned_distance(form.v, sliced.v)
                worst = max(worst, distance)
                ok = distance < 1e-8
            checks += 1
            if not ok:
                failures += 1
    for d in (2, 3, 4):
        for n in range(32):
            u, _, _ = fixtures.dressed_swap(d, split_seed(seed, f"sl-swap-{d}-{n}"))
            form = classify_unitary(u, d, d, tol, split_seed(seed, f"sl-cs-{d}-{n}"))
            phi0 = random_state(d, split_seed(seed, f"sl-sphi0-{d}-{n}"))
            sliced = classify_slice(u, d, d, phi0, tol)
            ok = isinstance(form, SwapForm) and isinstance(sliced, TransferToProbe)
            if ok:
                distance = _phase_aligned_distance(form.w12, sliced.w12)
                worst = max(worst, distance)
                ok = distance < 1e-8
            checks += 1
            if not ok:
                failures += 1
    return SuiteResult(
        name="slice_consistency",
        claim="prop1-slice",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={"operator_distance": worst},
    )


def suite_trivial_observable(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Product couplings induce trivial observables; the swap copies the pointer."""
    checks = 0
    failures = 0
    worst_trivial = 0.0
    worst_swap = 0.0
    for n in range(200):
        d = (2, 3, 4)[n % 3]
        pointer = fixtures.random_povm(d, 2 + n % 2, split_seed(seed, f"to-povm-{n}"))
        phi0 = random_state(d, split_seed(seed, f"to-phi0-{n}"))
        coupling, _, _ = fixtures.haar_product(d, d, split_seed(seed, f"to-coupling-{n}"))
        scheme = MeasurementScheme(d, d, phi0, coupling, pointer)
        induced = measured_observable(scheme, tol)
        deviation = triviality_deviation(induced)
        worst_trivial = max(worst_trivial, deviation)
        trivial, _ = is_trivial_povm(induced, Tolerance(1e-9))
        swapped = measured_observable(swap_scheme(pointer, phi0, tol), tol)
        pointer_distance = max(
            frobenius(a - b) for a, b in zip(swapped.effects, pointer.effects)
        )
        worst_swap = max(worst_swap, pointer_distance)
        checks += 1
        if not trivial or pointer_distance >= 1e-10:
            failures += 1
    return SuiteResult(
        name="trivial_observable",
        claim="no-info-no-disturbance",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={
            "triviality_deviation": worst_trivial,
            "swap_pointer_distance": worst_swap,
        },
    )


def scheme_corpus(seed: int, tol: Tolerance) -> list[tuple[str, MeasurementScheme]]:
    """Identity, product, swap and Haar-generic couplings with varied pointers."""
    schemes: list[tuple[str, MeasurementScheme]] = []
    for d in (2, 3):
        for n in range(5):
            pointer = fixtures.random_povm(d, 2, split_seed(seed, f"sc-id-povm-{d}-{n}"))
            phi0 = random_state(d, split_seed(seed, f"sc-id-phi0-{d}-{n}"))
            schemes.append(
                (f"identity:{d}:{n}", MeasurementScheme(d, d, phi0, np.eye(d * d), pointer))
            )
        for n in range(6):
            pointer = fixtures.random_povm(d, 2 + n % 2, split_seed(seed, f"sc-pr-povm-{d}-{n}"))
            phi0 = random_state(d, split_seed(seed, f"sc-pr-phi0-{d}-{n}"))
            coupling, _, _ = fixtures.haar_product(d, d, split_seed(seed, f"sc-pr-u-{d}-{n}"))
            schemes.append((f"product:{d}:{n}", MeasurementScheme(d, d, phi0, coupling, pointer)))
        for n in range(6):
            if n % 3 == 0:
                pointer = fixtures.projective_povm(d)
            elif n % 3 == 1:
                pointer = fixtures.random_povm(d, 2, split_seed(seed, f"sc-sw-povm-{d}-{n}"))
            else:
                pointer = fixtures.trivial_povm(d)
            phi0 = random_state(d, split_seed(seed, f"sc-sw-phi0-{d}-{n}"))
            schemes.append((f"swap:{d}:{n}", swap_scheme(pointer, phi0, tol)))
        for n in range(6):
            pointer = fixtures.random_povm(d, 2, split_seed(seed, f"sc-gen-povm-{d}-{n}"))
            phi0 = random_state(d, split_seed(seed, f"sc-gen-phi0-{d}-{n}"))
            coupling = haar_unitary(d * d, split_seed(seed, f"sc-gen-u-{d}-{n}"))
            schemes.append((f"generic:{d}:{n}", MeasurementScheme(d, d, phi0, coupling, pointer)))
    return schemes


def suite_no_info_no_disturbance(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Nontrivial information transfer implies a disturbed probed state."""
    checks = 0
    failures = 0
    worst_undisturbed_info = 0.0
    worst_identity_disturbance = 0.0
    for label, scheme in scheme_corpus(seed, tol):
        report = no_info_no_disturbance_check(
            scheme, tol, split_seed(seed, f"nind-{label}"), n_states=8
        )
        ok = report.implication_holds
        if report.max_triviality_deviation > 1e-6:
            # Information was transferred: some probed state must be disturbed.
            ok = ok and report.max_disturbance > 1e-8
        if label.startswith("identity:"):
            worst_identity_disturbance = max(
                worst_identity_disturbance, report.max_disturbance
            )
            ok = ok and report.max_disturbance < 1e-12 and report.trivial
        if report.undisturbed:
            worst_undisturbed_info = max(
                worst_undisturbed_info, report.max_triviality_deviation
            )
        checks += 1
        if not ok:
            failures += 1
    return SuiteResult(
        name="no_info_no_disturbance",
        claim="no-info-no-disturbance",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={
            "undisturbed_info_deviation": worst_undisturbed_info,
            "identity_disturbance": worst_identity_disturbance,
        },
    )


def sqrt_swap_oracle(d: int) -> np.ndarray:
    """Independent √SWAP: spectral projectors of the flip, +1 phase convention.

    Built from the symmetric/antisymmetric projectors directly, without the
    matrix-logarithm machinery, so it can cross-check the path sampler.
    """
    swap = swap_unitary(d)
    eye = np.eye(d * d)
    p_sym = (eye + swap) / 2
    p_anti = (eye - swap) / 2
    return p_sym + np.exp(1j * np.pi / 2) * p_anti


def suite_swap_obstruction(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """A swap endpoint forces entangling unitaries strictly inside the path."""
    checks = 0
    failures = 0
    worst_oracle = 0.0
    max_entropy = {}
    for d in (2, 3):
        path = geodesic_path(swap_unitary(d), d, d, tol)
        probe_init = np.eye(d)[0]
        profile = entanglement_profile(
            path, probe_init, n_steps=64, seed=split_seed(seed, f"ob-{d}"), n_inputs=8, tol=tol
        )
        interior_entangling = any(
            pt.verdict == "entangling" for pt in profile.points if 0.0 < pt.t < 1.0
        )
        peak = profile.max_point().max_entropy_bits
        max_entropy[f"d{d}"] = peak
        ok = interior_entangling and peak > 0.5
        checks += 1
        if not ok:
            failures += 1
        if d == 2:
            midpoint = next(pt for pt in profile.points if pt.t == 0.5)
            oracle_u = sqrt_swap_oracle(d)
            same_inputs = profile_inputs(
                d, d, probe_init, split_seed(seed, f"ob-{d}"), 8
            )
            oracle_entropy = max(
                entanglement_entropy(PureState(path.space, oracle_u @ vec))
                for _, vec in same_inputs
            )
            deviation = abs(midpoint.max_entropy_bits - oracle_entropy)
            worst_oracle = max(worst_oracle, deviation)
            checks += 1
            if deviation >= 1e-6:
                failures += 1
    return SuiteResult(
        name="swap_obstruction",
        claim="swap-obstruction",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={
            "midpoint_oracle_deviation": worst_oracle,
            "max_entropy_d2": max_entropy.get("d2", 0.0),
            "max_entropy_d3": max_entropy.get("d3", 0.0),
        },
    )


def suite_local_generator_null(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Local generators A⊗I + I⊗B never entangle anywhere along the path."""
    checks = 0
    failures = 0
    worst_entropy = 0.0
    for n in range(50):
        d1 = (2, 2, 3, 3)[n % 4]
        d2 = (2, 3, 2, 3)[n % 4]
        a = random_hermitian(d1, split_seed(seed, f"lg-a-{n}"), scale=np.pi / 3)
        b = random_hermitian(d2, split_seed(seed, f"lg-b-{n}"), scale=np.pi / 3)
        h = tensor_product(a, np.eye(d2)) + tensor_product(np.eye(d1), b)
        path = path_from_generator(h, d1, d2)
        probe_init = random_state(d2, split_seed(seed, f"lg-phi0-{n}"))
        profile = entanglement_profile(
            path, probe_init, n_steps=16, seed=split_seed(seed, f"lg-{n}"), n_inputs=4, tol=tol
        )
        peak = profile.max_point().max_entropy_bits
        worst_entropy = max(worst_entropy, peak)
        all_product = all(pt.verdict == "product" for pt in profile.points)
        checks += 1
        if peak >= 1e-9 or not all_product:
            failures += 1
    return SuiteResult(
        name="local_generator_null",
        claim="swap-obstruction",
        passed=failures == 0,
        checks=checks,
        failures=failures,
        worst={"profile_entropy": worst_entropy},
    )


ALL_SUITES = (
    suite_prob_reproducibility,
    suite_classifier_oracle,
    suite_equal_dim_constraint,
    suite_slice_consistency,
    suite_trivial_observable,
    suite_no_info_no_disturbance,
    suite_swap_obstruction,
    suite_local_generator_null,
)


def run_all(seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every suite and assemble the deterministic verification report.

    A suite aborted by an exception (typically a misconfigured tolerance
    rejecting valid inputs) is reported as failed with the error message
    rather than crashing the run.
    """
    suites = []
    for suite in ALL_SUITES:
        try:
            suites.append(suite(seed, tol))
        except Exception as exc:
            suites.append(
                SuiteResult(
                    name=suite.__name__.removeprefix("suite_"),
                    claim="",
                    passed=False,
                    checks=0,
                    failures=1,
                    worst={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return {
        "tool": "entkit",
        "version": VERSION,
        "seed": seed,
        "tol": tol.eps,
        "suites": [s.to_json() for s in suites],
        "passed": all(s.passed for s in suites),
    }
