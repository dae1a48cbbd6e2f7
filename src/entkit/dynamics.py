"""Continuous unitary interpolation and entanglement profiling.

A coupling reached continuously from the identity is sampled along the
one-parameter exponential path U_t = exp(i t H) of its principal-branch
generator. Profiling the entanglement produced from product inputs along the
path makes the obstruction quantitative: a swap endpoint cannot be reached
through product-form unitaries alone, so interior points must entangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bipartite import BipartiteSpace, PureState, entanglement_entropies
from .classify import _classify, witness_margin
from .errors import DimensionError, NonUnitaryError
from .linalg import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    exp_i_hermitian,
    probe_states,
    require_unit,
    rng_from_seed,
    split_seed,
    unitarity_defect,
    unitary_log,
)


@dataclass(frozen=True)
class UnitaryPath:
    """One-parameter family exp(i t generator), t in [0, 1], ending at endpoint."""

    generator: np.ndarray = field(repr=False)
    endpoint: np.ndarray = field(repr=False)
    space: BipartiteSpace

    def __post_init__(self):
        g = as_matrix(self.generator)
        e = as_matrix(self.endpoint)
        dim = self.space.dim
        if g.shape != (dim, dim) or e.shape != (dim, dim):
            raise DimensionError(
                f"generator/endpoint shape {g.shape}/{e.shape} != ({dim}, {dim})"
            )
        object.__setattr__(self, "generator", g)
        object.__setattr__(self, "endpoint", e)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        # The eigenpair exp_i_hermitian computes, once per path.
        g = self.generator
        return np.linalg.eigh((g + g.conj().T) / 2)


def geodesic_path(
    endpoint: np.ndarray, d1: int, d2: int, tol: Tolerance = DEFAULT_TOL
) -> UnitaryPath:
    """Path generated by the principal-branch logarithm of the endpoint."""
    endpoint = as_matrix(endpoint)
    h = unitary_log(endpoint, tol)
    return UnitaryPath(h, endpoint, BipartiteSpace(d1, d2))


def path_from_generator(h: np.ndarray, d1: int, d2: int) -> UnitaryPath:
    """Path with an explicitly chosen Hermitian generator; endpoint = exp(iH)."""
    h = as_matrix(h)
    h = (h + h.conj().T) / 2
    return UnitaryPath(h, exp_i_hermitian(h), BipartiteSpace(d1, d2))


def path_point(p: UnitaryPath, t: float) -> np.ndarray:
    """exp(i t generator), bit-identical to exp_i_hermitian(generator, t) but
    from the path's one eigendecomposition; exactly the identity at t == 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter {t} outside [0, 1]")
    if t == 0.0:
        return np.eye(p.space.dim, dtype=np.complex128)
    w, v = p._eigh
    return (v * np.exp(1j * t * w)) @ v.conj().T


@dataclass(frozen=True)
class ProfilePoint:
    t: float
    max_entropy_bits: float
    maximizing_input_id: str
    maximizing_input: np.ndarray = field(repr=False)
    verdict: str


@dataclass(frozen=True)
class EntanglementProfile:
    space: BipartiteSpace
    points: tuple[ProfilePoint, ...]

    @property
    def interior_entangling(self) -> bool:
        """Whether some grid point strictly inside (0, 1) has an entangling verdict."""
        return any(pt.verdict == "entangling" for pt in self.points if 0.0 < pt.t < 1.0)

    def max_point(self) -> ProfilePoint:
        return max(self.points, key=lambda pt: pt.max_entropy_bits)


def profile_inputs(
    d1: int, d2: int, probe_init: np.ndarray, seed: int, n_inputs: int
) -> list[tuple[str, np.ndarray]]:
    """Deterministic labeled input family probed along a path: object basis
    vectors and pairwise superpositions ⊗ probe_init, then random products
    a_k ⊗ b_k, all a_k then all b_k drawn by probe_states from ``seed``."""
    rng = rng_from_seed(seed)
    labels, left = probe_states(d1, rng, n_inputs)
    _, right = probe_states(d2, rng, n_inputs, grid=False)
    n_grid = len(labels) - n_inputs
    right = np.concatenate([np.broadcast_to(probe_init, (n_grid, d2)), right])
    vecs = (left[:, :, None] * right[:, None, :]).reshape(len(labels), d1 * d2)
    return list(zip(labels, vecs))


def entanglement_profile(
    p: UnitaryPath,
    probe_init: np.ndarray,
    n_steps: int = 64,
    seed: int = DEFAULT_SEED,
    n_inputs: int = 8,
    tol: Tolerance = DEFAULT_TOL,
) -> EntanglementProfile:
    """Entanglement produced from product inputs along the path.

    The grid has n_steps uniform intervals (n_steps + 1 points, including
    t = 0, 1/2 for even n_steps, and 1 exactly). At each grid point the
    maximum output entanglement entropy over a deterministic input family
    plus seeded random product inputs is recorded, together with the
    verdict of U_t; a tol too loose for classify_unitary raises ValueError.
    """
    if n_steps < 2:
        raise ValueError(f"need at least 2 steps, got {n_steps}")
    witness_margin(tol)
    probe_init = as_vector(probe_init)
    d1, d2 = p.space.d1, p.space.d2
    if probe_init.size != d2:
        raise DimensionError(f"probe_init dimension {probe_init.size} != d2 {d2}")
    require_unit(probe_init, tol, "probe_init")
    # One check for every U_t = V e^{itw} V^†: with E = V^†V - I, δ = ||E||_F,
    # U_t^†U_t - I = (VV^† - I) + V e^{-itw} E e^{itw} V^†, where VV^† - I
    # has the norm of E and ||V||² <= 1 + δ, so each defect is <= δ(2 + δ).
    delta = unitarity_defect(p._eigh[1])
    bound = delta * (2 + delta)
    if bound > tol.eps:
        raise NonUnitaryError(f"path is not unitary: defect bound {bound:.3e}", bound)
    inputs = profile_inputs(d1, d2, probe_init, seed, n_inputs)
    vecs = np.stack([vec for _, vec in inputs])
    points = []
    for k in range(n_steps + 1):
        t = k / n_steps
        u_t = path_point(p, t)
        entropies = entanglement_entropies(p.space, vecs @ u_t.T)
        # argmax takes the first maximum, as a strict > scan over the inputs would.
        best = int(np.argmax(entropies))
        form = _classify(u_t, d1, d2, tol, split_seed(seed, f"verdict-{k}"))
        # inputs[best] is the (maximizing_input_id, maximizing_input) pair.
        points.append(ProfilePoint(t, float(entropies[best]), *inputs[best], form.verdict))
    return EntanglementProfile(p.space, tuple(points))


def max_path_entanglement(
    p: UnitaryPath,
    probe_init: np.ndarray,
    n_steps: int = 64,
    seed: int = DEFAULT_SEED,
    n_inputs: int = 8,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, PureState, float]:
    """Grid argmax of the profile: (t*, maximizing input state, entropy* bits)."""
    profile = entanglement_profile(p, probe_init, n_steps, seed, n_inputs, tol)
    best = profile.max_point()
    return best.t, PureState(p.space, best.maximizing_input), best.max_entropy_bits
