"""Invariant corpus suites behind the ``verify`` command and the acceptance gate.

Every suite is a pure function of (seed, tol) and returns a SuiteResult whose
fields are deterministic; reports serialized from identical inputs are
byte-identical. Wall-clock measurements therefore never appear here; the
acceptance tests time the suites externally.

run_all runs the suites in up to one forked worker per available CPU and
collects their results in ALL_SUITES order, so its report bytes are those
of an in-process run. Fork, because spawn and forkserver re-import entkit in
every worker, and its scipy import (0.4-0.5 s) costs more than the pool
saves; forkserver is worth revisiting once scipy leaves the import. Python
3.12 and later warn (DeprecationWarning) when a process with threads, such
as OpenBLAS's, forks; CI pins Python 3.11.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, fixtures
from .bipartite import entanglement_entropies
from .classify import (
    Product,
    SwapForm,
    classify_slice,
    classify_unitary,
    LocalOnObject,
    operator_entanglement,
    reconstruction_error,
    TransferToProbe,
    witness_margin,
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
    gamma,
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
    swap_scheme,
    MeasurementScheme,
    triviality_deviation,
)

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


class _Tally:
    """One suite's bookkeeping: check and failure counts, worst values.

    ``worst_defaults`` fixes the keys of the worst dict and the values it
    reports when nothing is recorded; ``record`` keeps the maximum per key.
    """

    def __init__(self, name: str, claim: str, **worst_defaults: float):
        self.name = name
        self.claim = claim
        self.worst = dict(worst_defaults)
        self.checks = 0
        self.failures = 0

    def record(self, **worst: float) -> None:
        for key, value in worst.items():
            self.worst[key] = max(self.worst[key], value)

    def check(self, ok: bool, **worst: float) -> None:
        self.record(**worst)
        self.checks += 1
        self.failures += not ok

    def result(self) -> SuiteResult:
        return SuiteResult(
            name=self.name,
            claim=self.claim,
            passed=self.failures == 0,
            checks=self.checks,
            failures=self.failures,
            worst=dict(self.worst),
        )


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||b - e^{i phase} a||_F minimized over the global phase."""
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return frobenius(b - phase * a)


def suite_prob_reproducibility(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Swap schemes reproduce the pointer statistics on the object state."""
    tally = _Tally("prob_reproducibility", "prob-reproducibility", probability_deviation=0.0)
    for n in range(100):
        d = (2, 3, 4)[n % 3]
        pointer = fixtures.random_povm(d, 2 + n % 3, split_seed(seed, f"pr-povm-{n}"))
        phi0 = random_state(d, split_seed(seed, f"pr-phi0-{n}"))
        phi = random_state(d, split_seed(seed, f"pr-phi-{n}"))
        scheme = swap_scheme(pointer, phi0, tol)
        probs = outcome_probabilities(scheme, phi, tol)
        direct = np.array(
            [float(np.vdot(phi, eff @ phi).real) for eff in pointer.effects]
        )
        deviation = float(np.abs(probs - direct).max())
        tally.check(deviation < 1e-10, probability_deviation=deviation)
    return tally.result()


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


def oracle_non_entangling(u: np.ndarray, d1: int, d2: int, tol: Tolerance) -> bool:
    """The reference verdict for classify_unitary, with no search and no fit:
    v <= θ = 2m²/D + (m²/D)² + γ_{4k + g² + 2g + 3}, m = 10 * tol.eps,
    D = d1·d2, k = max(d1, d2)², g = min(d1, d2)², where v is the operator
    entanglement E(U), or min(E(U), E(U·SWAP)) when d1 == d2.

    realign is an isometry, so a unitary within residual r <= m of V ⊗ W has
    R(U) within r of rank one: a tail t <= r² of n = ||U||_F² = D past the first
    singular value, E <= 1 - (1 - t/n)² <= 2r²/D - r⁴/D² (swaps alike), and the
    square term lets n fall to D / (1 + m²/D). The last term bounds the
    rounding of E = 1 - ||G||²/n² by linalg.gamma's rules, for any U: the
    g x g Gram matrix G has inner dimension k, so it is off by γ_k·n (the
    gemm rule) and ||G||² (<= n²) by 2·γ_k·n² before the norm rule's
    relative γ_{g²}; n = tr G, g diagonal entries each within a relative
    γ_k, carries γ_{k + g} (the norm rule), twice in n²; n², the ratio and
    1 - ratio round once each (U·SWAP permutes U's columns exactly).
    """
    q = witness_margin(tol) ** 2 / (d1 * d2)
    value = operator_entanglement(u, d1, d2)
    if d1 == d2:
        value = min(value, operator_entanglement(u @ swap_unitary(d1), d1, d2))
    k, g = max(d1, d2) ** 2, min(d1, d2) ** 2
    return value <= 2 * q + q * q + gamma(4 * k + g * g + 2 * g + 3)


def suite_classifier_oracle(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """classify_unitary agrees with oracle_non_entangling; forms reconstruct."""
    tally = _Tally(
        "classifier_oracle", "theorem-classification",
        disagreements=0.0, reconstruction_error=0.0,
    )
    disagreements = 0
    for label, d1, d2, u in classifier_corpus(seed):
        form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"co-cls-{label}"))
        ok = isinstance(form, (Product, SwapForm)) == oracle_non_entangling(u, d1, d2, tol)
        disagreements += not ok
        if isinstance(form, (Product, SwapForm)):
            err = reconstruction_error(form, u)
            tally.record(reconstruction_error=err)
            ok = ok and err < 1e-8
        tally.check(ok)
    tally.record(disagreements=float(disagreements))
    return tally.result()


def suite_equal_dim_constraint(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """No swap-form verdict can occur on unequal-dimension spaces."""
    tally = _Tally("equal_dim_constraint", "theorem-classification", swap_verdicts=0.0)
    for d1, d2 in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 4)):
        for n in range(25):
            u, _, _ = fixtures.haar_product(d1, d2, split_seed(seed, f"eq-prod-{d1}{d2}-{n}"))
            form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"eq-c1-{d1}{d2}-{n}"))
            tally.check(not isinstance(form, SwapForm))
        for n in range(15):
            u = haar_unitary(d1 * d2, split_seed(seed, f"eq-gen-{d1}{d2}-{n}"))
            form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"eq-c2-{d1}{d2}-{n}"))
            tally.check(not isinstance(form, SwapForm))
    # Every failed check is a swap verdict.
    tally.record(swap_verdicts=float(tally.failures))
    return tally.result()


def suite_slice_consistency(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Slice form matches the full classification, operators agree up to phase."""
    tally = _Tally("slice_consistency", "prop1-slice", operator_distance=0.0)

    def check(form, sliced, full_type, slice_type, operator: str) -> None:
        ok = isinstance(form, full_type) and isinstance(sliced, slice_type)
        if ok:
            distance = _phase_aligned_distance(getattr(form, operator), getattr(sliced, operator))
            tally.record(operator_distance=distance)
            ok = distance < 1e-8
        tally.check(ok)

    dims = ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (2, 4))
    for d1, d2 in dims:
        for n in range(18):
            u, _, _ = fixtures.haar_product(d1, d2, split_seed(seed, f"sl-prod-{d1}{d2}-{n}"))
            form = classify_unitary(u, d1, d2, tol, split_seed(seed, f"sl-c-{d1}{d2}-{n}"))
            phi0 = random_state(d2, split_seed(seed, f"sl-phi0-{d1}{d2}-{n}"))
            check(form, classify_slice(u, d1, d2, phi0, tol), Product, LocalOnObject, "v")
    for d in (2, 3, 4):
        for n in range(32):
            u, _, _ = fixtures.dressed_swap(d, split_seed(seed, f"sl-swap-{d}-{n}"))
            form = classify_unitary(u, d, d, tol, split_seed(seed, f"sl-cs-{d}-{n}"))
            phi0 = random_state(d, split_seed(seed, f"sl-sphi0-{d}-{n}"))
            check(form, classify_slice(u, d, d, phi0, tol), SwapForm, TransferToProbe, "w12")
    return tally.result()


def suite_trivial_observable(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Product couplings induce trivial observables; the swap copies the pointer."""
    tally = _Tally(
        "trivial_observable", "no-info-no-disturbance",
        triviality_deviation=0.0, swap_pointer_distance=0.0,
    )
    for n in range(200):
        d = (2, 3, 4)[n % 3]
        pointer = fixtures.random_povm(d, 2 + n % 2, split_seed(seed, f"to-povm-{n}"))
        phi0 = random_state(d, split_seed(seed, f"to-phi0-{n}"))
        coupling, _, _ = fixtures.haar_product(d, d, split_seed(seed, f"to-coupling-{n}"))
        scheme = MeasurementScheme(d, d, phi0, coupling, pointer)
        induced = measured_observable(scheme, tol)
        deviation = triviality_deviation(induced)
        swapped = measured_observable(swap_scheme(pointer, phi0, tol), tol)
        pointer_distance = max(
            frobenius(a - b) for a, b in zip(swapped.effects, pointer.effects)
        )
        tally.check(
            deviation <= 1e-9 and pointer_distance < 1e-10,
            triviality_deviation=deviation,
            swap_pointer_distance=pointer_distance,
        )
    return tally.result()


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
    tally = _Tally(
        "no_info_no_disturbance", "no-info-no-disturbance",
        undisturbed_info_deviation=0.0, identity_disturbance=0.0,
    )
    for label, scheme in scheme_corpus(seed, tol):
        report = no_info_no_disturbance_check(
            scheme, tol, split_seed(seed, f"nind-{label}"), n_states=8
        )
        ok = report.implication_holds
        if report.max_triviality_deviation > 1e-6:
            # Information was transferred: some probed state must be disturbed.
            ok = ok and report.max_disturbance > 1e-8
        if label.startswith("identity:"):
            tally.record(identity_disturbance=report.max_disturbance)
            ok = ok and report.max_disturbance < 1e-12 and report.trivial
        if report.undisturbed:
            tally.record(undisturbed_info_deviation=report.max_triviality_deviation)
        tally.check(ok)
    return tally.result()


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
    tally = _Tally(
        "swap_obstruction", "swap-obstruction",
        midpoint_oracle_deviation=0.0, max_entropy_d2=0.0, max_entropy_d3=0.0,
    )
    for d in (2, 3):
        path = geodesic_path(swap_unitary(d), d, d, tol)
        probe_init = np.eye(d)[0]
        profile = entanglement_profile(
            path, probe_init, n_steps=64, seed=split_seed(seed, f"ob-{d}"), n_inputs=8, tol=tol
        )
        peak = profile.max_point().max_entropy_bits
        tally.check(profile.interior_entangling and peak > 0.5, **{f"max_entropy_d{d}": peak})
        if d == 2:
            midpoint = next(pt for pt in profile.points if pt.t == 0.5)
            oracle_u = sqrt_swap_oracle(d)
            _, same_inputs = profile_inputs(d, d, probe_init, split_seed(seed, f"ob-{d}"), 8)
            oracle_entropy = float(entanglement_entropies(path.space, same_inputs @ oracle_u.T).max())
            deviation = abs(midpoint.max_entropy_bits - oracle_entropy)
            tally.check(deviation < 1e-6, midpoint_oracle_deviation=deviation)
    return tally.result()


def suite_local_generator_null(
    seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL
) -> SuiteResult:
    """Local generators A⊗I + I⊗B never entangle anywhere along the path."""
    tally = _Tally("local_generator_null", "swap-obstruction", profile_entropy=0.0)
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
        all_product = all(pt.verdict == "product" for pt in profile.points)
        tally.check(peak < 1e-9 and all_product, profile_entropy=peak)
    return tally.result()


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


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_suite(index: int, seed: int, tol: Tolerance) -> SuiteResult:
    """ALL_SUITES[index] at (seed, tol); an exception becomes a failed result.

    The suite is looked up where it runs: a forked worker gets the tuple its
    parent held at the fork, wrapped suites included, which need not pickle.
    """
    suite = ALL_SUITES[index]
    try:
        return suite(seed, tol)
    except Exception as exc:
        worst = {"error": f"{type(exc).__name__}: {exc}"}
        name = suite.__name__.removeprefix("suite_")
        return SuiteResult(name, "", passed=False, checks=0, failures=1, worst=worst)


def run_all(seed: int = DEFAULT_SEED, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every suite and assemble the deterministic verification report.

    A tol too loose for classify_unitary raises ValueError before any suite
    runs. A suite aborted by an exception (typically a tolerance too tight
    for valid inputs) is reported as failed with the error message rather
    than crashing the run.

    With more than one available CPU and the fork start method, the suites
    run in a pool of min(len(ALL_SUITES), CPUs) forked workers; otherwise in
    this process. Results come back in ALL_SUITES order either way, so the
    report bytes do not depend on the path. Every worker has exited when
    this returns; a worker that dies raises BrokenProcessPool.
    """
    witness_margin(tol)
    # Imported here: loading them costs about 30 ms that `import entkit` need not pay.
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    run = functools.partial(_run_suite, seed=seed, tol=tol)
    indices = range(len(ALL_SUITES))
    workers = min(len(ALL_SUITES), _available_cpus())
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as executor:
            suites = list(executor.map(run, indices))
    else:
        suites = list(map(run, indices))
    return {
        "tool": "entkit",
        "version": __version__,
        "seed": seed,
        "tol": tol.eps,
        "suites": [s.to_json() for s in suites],
        "passed": all(s.passed for s in suites),
    }
