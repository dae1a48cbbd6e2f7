"""POVMs, measurement schemes, induced observables and instruments.

A measurement scheme couples an object system to a probe, reads a pointer
POVM on the probe, and thereby measures an induced observable on the object.
The induced observable of the swap coupling is the pointer itself (perfect
information transfer with no residual entanglement); the induced observable
of any product coupling is trivial (no information transfer at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bipartite import DensityOperator, trace_distances
from .errors import DimensionError, InvalidPOVMError
from .linalg import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    frobenius,
    probe_states,
    require_unit,
    require_unitary,
    rng_from_seed,
    slice_map,
    swap_unitary,
    unitarity_defect,
)


@dataclass(frozen=True)
class POVM:
    """Finite-outcome POVM, its effects one read-only (n_outcomes, dim, dim)
    array; its labels are distinct strings."""

    dim: int
    outcomes: tuple[str, ...]
    effects: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.outcomes) != len(self.effects) or not len(self.outcomes):
            raise InvalidPOVMError("need one effect per outcome label")
        outcomes = tuple(str(o) for o in self.outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise InvalidPOVMError(f"outcome labels must be distinct, got {list(outcomes)}")
        effects = [as_matrix(e) for e in self.effects]
        for e in effects:
            if e.shape != (self.dim, self.dim):
                raise DimensionError(f"effect shape {e.shape} != ({self.dim}, {self.dim})")
        effects = np.stack(effects)
        effects.flags.writeable = False
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "outcomes", outcomes)


def validate_povm(e: POVM) -> dict:
    """Worst violation per invariant: Hermiticity, positivity, completeness.

    Never raises, and no entry depends on tol: require_valid_povm compares
    them to it.
    """
    eff = e.effects
    eff_h = eff.conj().transpose(0, 2, 1)
    return {
        "hermiticity_defect": max(frobenius(h) for h in eff - eff_h),
        "negativity": max(0.0, -float(np.linalg.eigvalsh((eff + eff_h) / 2).min())),
        "completeness_defect": frobenius(eff.sum(axis=0) - np.eye(e.dim)),
    }


def require_valid_povm(e: POVM, tol: Tolerance = DEFAULT_TOL, report: dict | None = None) -> None:
    """InvalidPOVMError unless every entry of validate_povm's report is within
    tol.eps; ``report`` skips the validation when the caller holds it."""
    if report is None:
        report = validate_povm(e)
    if not all(v <= tol.eps for v in report.values()):
        raise InvalidPOVMError(f"invalid POVM: {report}", dict(report))


@dataclass(frozen=True)
class MeasurementScheme:
    """Probe space, initial probe vector, coupling unitary, pointer POVM; the
    arrays are stored as read-only copies, so cached values stay valid."""

    object_dim: int
    probe_dim: int
    probe_init: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    pointer: POVM = field(repr=False)

    def __post_init__(self):
        probe_init = as_vector(np.array(self.probe_init, dtype=np.complex128))
        coupling = as_matrix(np.array(self.coupling, dtype=np.complex128))
        dim = self.object_dim * self.probe_dim
        if probe_init.size != self.probe_dim:
            raise DimensionError(
                f"probe_init dimension {probe_init.size} != probe dim {self.probe_dim}"
            )
        if coupling.shape != (dim, dim):
            raise DimensionError(f"coupling shape {coupling.shape} != ({dim}, {dim})")
        if self.pointer.dim != self.probe_dim:
            raise DimensionError(
                f"pointer dim {self.pointer.dim} != probe dim {self.probe_dim}"
            )
        probe_init.flags.writeable = False
        coupling.flags.writeable = False
        object.__setattr__(self, "probe_init", probe_init)
        object.__setattr__(self, "coupling", coupling)

    @cached_property
    def coupling_defect(self) -> float:
        """||U^†U - I||_F of the coupling."""
        return unitarity_defect(self.coupling)

    @cached_property
    def pointer_report(self) -> dict:
        """validate_povm's report on the pointer."""
        return validate_povm(self.pointer)

    @cached_property
    def slice_map(self) -> np.ndarray:
        """B = U(I ⊗ φ0), (d1*d2) x d1: column i is U(e_i ⊗ φ0)."""
        b = slice_map(self.coupling, self.object_dim, self.probe_dim, self.probe_init)
        b.flags.writeable = False
        return b

    def check(self, tol: Tolerance = DEFAULT_TOL) -> None:
        require_unitary(self.coupling, tol, "coupling", self.coupling_defect)
        require_unit(self.probe_init, tol, "probe_init")
        require_valid_povm(self.pointer, tol, self.pointer_report)


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed completely positive maps: kraus[X, k], the k-th Kraus operator
    of outcome X, in one read-only (n_outcomes, n_kraus, dim, dim) array.

    apply(ρ[None])[0, X] is outcome X's map of ρ, and summing apply over its
    outcome axis gives the non-selective state; gram_defect of the Kraus
    operators stacked as kraus.reshape(-1, dim) is ||sum K^†K - I||_F."""

    dim: int
    outcomes: tuple[str, ...]
    kraus: np.ndarray = field(repr=False)

    def __post_init__(self):
        kraus = np.array(self.kraus, dtype=np.complex128, order="C")
        if kraus.shape[:1] + kraus.shape[2:] != (len(self.outcomes), self.dim, self.dim):
            raise DimensionError(f"Kraus stack shape {kraus.shape} does not fit dim {self.dim}")
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)

    def apply(self, rhos: np.ndarray) -> np.ndarray:
        """Outcome maps sum_k K_{X,k} ρ K_{X,k}^† of an (n, dim, dim) stack, as
        (n, n_outcomes, dim, dim). One gemm forms K ρ for every Kraus operator, a
        batched matmul multiplies each by its K^†, and the products are summed over
        k in order, so every map rounds as a loop over the Kraus operators does.
        Conjugating K ρ and the sums, not the stack, leaves the stack uncopied."""
        kr = self.kraus.reshape(-1, self.dim) @ rhos
        np.conjugate(kr, out=kr)
        kr = kr.reshape(len(rhos), *self.kraus.shape)
        out = (kr @ self.kraus.transpose(0, 1, 3, 2)).sum(axis=2)
        return np.conjugate(out, out=out)


def swap_scheme(e: POVM, phi0: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> MeasurementScheme:
    """Scheme whose coupling is the canonical swap; it measures e itself."""
    require_valid_povm(e, tol)
    phi0 = as_vector(phi0)
    if phi0.size != e.dim:
        raise DimensionError(f"phi0 dimension {phi0.size} != POVM dim {e.dim}")
    return MeasurementScheme(e.dim, e.dim, phi0, swap_unitary(e.dim), e)


def measured_observable(s: MeasurementScheme, tol: Tolerance = DEFAULT_TOL) -> POVM:
    """Induced object observable: E'(X) = (I ⊗ <φ0|) U^† (I ⊗ E(X)) U (I ⊗ |φ0>)."""
    s.check(tol)
    d1, d2 = s.object_dim, s.probe_dim
    # (I ⊗ E(X)) B for every outcome X: (n_outcomes, d1*d2, d1), never D x D.
    b = s.slice_map
    eb = s.pointer.effects[:, None] @ b.reshape(d1, d2, d1)
    ep = b.conj().T @ eb.reshape(-1, d1 * d2, d1)
    return POVM(d1, s.pointer.outcomes, (ep + ep.conj().transpose(0, 2, 1)) / 2)


def outcome_probabilities(
    s: MeasurementScheme, phi: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Pointer statistics p(X) = <U(φ⊗φ0) | (I ⊗ E(X)) U(φ⊗φ0)>, one entry
    per label of s.pointer.outcomes."""
    s.check(tol)
    phi = as_vector(phi)
    if phi.size != s.object_dim:
        raise DimensionError(f"state dimension {phi.size} != object dim {s.object_dim}")
    require_unit(phi, tol, "object state")
    psi = (s.slice_map @ phi).reshape(s.object_dim, s.probe_dim)
    # The probe's reduced state, probe[r, q] = sum_a psi[a, r] conj(psi[a, q]).
    probe = psi.T @ psi.conj()
    probs = np.einsum("xqr,rq->x", s.pointer.effects, probe).real
    # Rounding slack only: small negatives clamp to 0, and the total may be
    # renormalized within 10 * eps of 1. Larger deviations are logic bugs.
    if probs.min() < -tol.eps:
        raise ValueError(f"outcome probability {probs.min()} below -eps")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 10 * tol.eps:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs / total


def luders_instrument(s: MeasurementScheme, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """Square-root pointer reading of the scheme, as one Kraus stack.

    K_{X,k} = (I ⊗ <g_k|) (I ⊗ sqrt(E(X))) U (I ⊗ |φ0>) over a probe basis
    {g_k}; the total map is trace preserving and Tr I_X(ρ) reproduces the
    outcome probabilities.
    """
    s.check(tol)
    d1, d2 = s.object_dim, s.probe_dim
    eff = s.pointer.effects
    w, v = np.linalg.eigh((eff + eff.conj().transpose(0, 2, 1)) / 2)
    # s.check validated the pointer: the clip only absorbs rounding and tol.
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)
    # m[X, :, k, :] is (I ⊗ <g_k|) applied to (I ⊗ sqrt(E(X))) B.
    m = roots[:, None] @ s.slice_map.reshape(d1, d2, d1)
    return Instrument(d1, s.pointer.outcomes, m.transpose(0, 2, 1, 3))


def _disturbances(s: MeasurementScheme, rhos: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Trace distance of each state of an (n, d1, d1) stack from its
    non-selective post-measurement state."""
    return trace_distances(rhos, luders_instrument(s, tol).apply(rhos).sum(axis=1))


def disturbance(
    s: MeasurementScheme, rho: DensityOperator, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Trace distance between rho and the non-selective post-measurement state."""
    if rho.dim != s.object_dim:
        raise DimensionError(f"state dim {rho.dim} != object dim {s.object_dim}")
    return float(_disturbances(s, rho.mat[None], tol)[0])


def triviality_deviation(e: POVM) -> float:
    """max_X || E(X) - (Tr E(X)/dim) I ||_F; 0 exactly on trivial observables.

    The one triviality rule: e is trivial within tol iff this is at most
    tol.eps, with scalars Tr E(X)/dim.
    """
    return max(
        frobenius(eff - (float(np.trace(eff).real) / e.dim) * np.eye(e.dim))
        for eff in e.effects
    )


@dataclass(frozen=True)
class NoInfoNoDisturbanceReport:
    """Sampled check of: undisturbed on all probed states ⇒ trivial observable."""

    n_states: int
    max_disturbance: float
    max_disturbance_state: str
    max_triviality_deviation: float
    undisturbed: bool
    trivial: bool
    implication_holds: bool


def no_info_no_disturbance_check(
    s: MeasurementScheme,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    n_states: int = 16,
) -> NoInfoNoDisturbanceReport:
    """Evaluate the no-information-without-disturbance implication on samples.

    Probes a deterministic basis grid plus seeded random states. The converse
    is intentionally not asserted: product couplings disturb without
    transferring information.
    """
    labels, vecs = probe_states(s.object_dim, rng_from_seed(seed), n_states)
    rhos = vecs[:, :, None] * vecs[:, None, :].conj()
    dists = _disturbances(s, rhos, tol)
    # The first maximum wins: a tie names the earliest state.
    best = int(np.argmax(dists))
    max_dist = float(dists[best])
    deviation = triviality_deviation(measured_observable(s, tol))
    undisturbed = max_dist <= tol.eps
    trivial = deviation <= tol.eps
    return NoInfoNoDisturbanceReport(
        n_states=len(labels),
        max_disturbance=max_dist,
        max_disturbance_state=labels[best],
        max_triviality_deviation=deviation,
        undisturbed=undisturbed,
        trivial=trivial,
        implication_holds=(not undisturbed) or trivial,
    )
