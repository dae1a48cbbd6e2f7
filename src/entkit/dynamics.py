"""Continuous unitary interpolation and entanglement profiling.

A coupling reached continuously from the identity is sampled along the
one-parameter exponential path U_t = exp(i t H) of its principal-branch
generator. Profiling the entanglement produced from product inputs along the
path makes the obstruction quantitative: a swap endpoint cannot be reached
through product-form unitaries alone, so interior points must entangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Iterator

import numpy as np

from .bipartite import BipartiteSpace, _entropy_bits, schmidt_coefficients
from .classify import _classify, witness_margin
from .errors import DimensionError, NonUnitaryError
from .linalg import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    defect_bound,
    frobenius,
    gamma,
    probe_states,
    require_unit,
    rng_from_seed,
    split_seed,
    unitarity_defect,
    unitary_eig,
)


@dataclass(frozen=True)
class UnitaryPath:
    """U_t = V diag(e^{it·phases}) V^†, t in [0, 1]: the generator's spectral
    decomposition H = V diag(phases) V^†, as read-only copies of the arrays."""

    phases: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    space: BipartiteSpace

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.float64)
        vectors = as_matrix(np.array(self.vectors, dtype=np.complex128))
        dim = self.space.dim
        if phases.shape != (dim,) or vectors.shape != (dim, dim):
            raise DimensionError(f"phases/vectors shape {phases.shape}/{vectors.shape}, dim {dim}")
        for name, a in (("phases", phases), ("vectors", vectors)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def geodesic_path(
    endpoint: np.ndarray, d1: int, d2: int, tol: Tolerance = DEFAULT_TOL
) -> UnitaryPath:
    """Path of the endpoint's principal-branch logarithm, (phases, vectors) from
    linalg.unitary_eig."""
    space = BipartiteSpace(d1, d2)
    endpoint = as_matrix(endpoint)
    if endpoint.shape != (space.dim, space.dim):
        raise DimensionError(f"endpoint must be square of side {space.dim}, got {endpoint.shape}")
    return UnitaryPath(*unitary_eig(endpoint, tol), space)


def path_from_generator(h: np.ndarray, d1: int, d2: int) -> UnitaryPath:
    """Path of an explicitly chosen generator, from one eigh of its Hermitian
    part; DimensionError, before any work on h, unless h is square of side
    d1 * d2."""
    space = BipartiteSpace(d1, d2)
    if np.shape(h) != (space.dim, space.dim):
        raise DimensionError(f"generator must be square of side {space.dim}, got {np.shape(h)}")
    h = as_matrix(h)
    return UnitaryPath(*np.linalg.eigh((h + h.conj().T) / 2), space)


def path_point(p: UnitaryPath, t: float) -> np.ndarray:
    """V e^{it·phases} V^†, one D³ matmul; exactly the identity at t == 0. A
    generator path is bit-identical to exp_i_hermitian(H, t), since both run
    the same eigh. entanglement_profile forms it only at grid points whose
    verdict needs a form fitted."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter {t} outside [0, 1]")
    if t == 0.0:
        return np.eye(p.space.dim, dtype=np.complex128)
    return (p.vectors * np.exp(1j * t * p.phases)) @ p.vectors.conj().T


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


def require_probe_init(probe_init: np.ndarray, d2: int, tol: Tolerance) -> np.ndarray:
    """probe_init as a vector, after the checks entanglement_profile makes on
    it: DimensionError unless it has d2 entries, NormalizationError unless
    its norm is within tol.eps of 1. O(d2), so a caller can run them before
    any work on the path."""
    probe_init = as_vector(probe_init)
    if probe_init.size != d2:
        raise DimensionError(f"probe_init dimension {probe_init.size} != d2 {d2}")
    require_unit(probe_init, tol, "probe_init")
    return probe_init


def profile_inputs(
    d1: int, d2: int, probe_init: np.ndarray, seed: int, n_inputs: int
) -> tuple[list[str], np.ndarray]:
    """Deterministic labeled input family probed along a path, as (labels,
    rows): the object grid rows of probe_grid ⊗ probe_init, then random
    products a_k ⊗ b_k, all a_k then all b_k drawn by probe_states from ``seed``."""
    rng = rng_from_seed(seed)
    labels, left = probe_states(d1, rng, n_inputs)
    _, right = probe_states(d2, rng, n_inputs, grid=False)
    n_grid = len(labels) - n_inputs
    right = np.concatenate([np.broadcast_to(probe_init, (n_grid, d2)), right])
    return labels, (left[:, :, None] * right[:, None, :]).reshape(len(labels), d1 * d2)


# Entries of one block of grid images: up to this many (at least one grid
# point's worth) come from a single gemm.
_IMAGE_BLOCK = 1 << 17


def _grid_images(p: UnitaryPath, vecs: np.ndarray, n_steps: int) -> Iterator[np.ndarray]:
    """U_t x for each row x of vecs at t = k / n_steps, k = 0..n_steps,
    without forming U_t. At t = 0 the images are vecs itself, as path_point's
    exact identity gives. With coords = vecs conj(V) (the rows V^† x) formed
    once, the images at t > 0 are (coords * e^{itw}) V^T, stacked over as
    many grid points as fit in _IMAGE_BLOCK entries: one gemm per block, not
    one per point, so a BLAS thread pool is woken a few times per profile
    rather than n_steps times, and a busy machine delays it less often. Each
    image is the row a per-point gemm would form.

    Rounding, by linalg.gamma's rules: each of the two products has inner
    dimension D (the gemm rule, γ_D), and each phase e^{itw} is within
    γ_2·(1 + max|w|) of exact and then multiplies a coordinate once (the
    per-entry rule). With ||V||_2² <= 1 + δ and ||V||_F² <= D(1 + δ), δ the
    defect that entanglement_profile bounds, an image of a unit x is within
    (2·γ_D·√D + γ_4·(1 + max|w|))·(1 + δ) of V e^{itw} V^† x in norm
    (1.5e-11 at d = 32), as U_t x is when U_t comes from path_point.
    """
    yield vecs
    coords = vecs @ p.vectors.conj()
    n, dim = coords.shape
    block = max(1, _IMAGE_BLOCK // coords.size)
    for k in range(1, n_steps + 1, block):
        t = np.arange(k, min(k + block, n_steps + 1)) / n_steps
        images = (coords * np.exp(1j * t[:, None, None] * p.phases)).reshape(-1, dim) @ p.vectors.T
        yield from images.reshape(len(t), n, dim)


def _nonlocal_bound(p: UnitaryPath, delta: float) -> float:
    """r >= max over t in [0, 1] of ||U_t - e^{itA} ⊗ e^{itB}||_F for
    Hermitian A, B, as entanglement_profile derives it, from one D³ gemm:
    ||H - P(H)||_F for H = V diag(w) V^†, plus V's defect ``delta`` weighted
    by max|w|, plus the rounding of forming H, P(H) and the norm. Inf or
    NaN, silently, when H or its partial traces overflow."""
    d1, d2, dim = p.space.d1, p.space.d2, p.space.dim
    w, v = p.phases, p.vectors
    with np.errstate(over="ignore", invalid="ignore"):
        h = (v * w) @ v.conj().T
        h4 = h.reshape(d1, d2, d1, d2)
        a = np.trace(h4, axis1=1, axis2=3) / d2
        b = np.trace(h4, axis1=0, axis2=2) / d1
        mean = np.trace(h) / dim
        # h - P(h) in place: a ⊗ I is a on the diagonal of every d2 x d2
        # block, I ⊗ b is b in each diagonal block.
        h4[:, np.arange(d2), :, np.arange(d2)] -= a
        h4[np.arange(d1), :, np.arange(d1), :] -= b
        h.flat[:: dim + 1] += mean
        nonlocal_norm = frobenius(h)
    w_max = float(np.abs(w).max())
    d_bar = defect_bound(v, delta)
    rounding = (gamma(dim + 1) * dim + gamma(dim + d1 + d2 + 15) * math.sqrt(dim)) * w_max * (1 + d_bar)
    return nonlocal_norm * (1 + gamma(dim * dim)) + (w_max + 1) * d_bar * (2 + d_bar) + rounding


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
    images of the profile_inputs family (a deterministic grid plus seeded
    random products) come from _grid_images, and their Schmidt coefficients
    from one stacked SVD. The point records the largest output entropy, the
    first input whose entropy is within tol.eps of it (entropies that tie up
    to rounding then pick a stable input), and the verdict of U_t.

    The verdict is "entangling" as soon as some input's second Schmidt
    coefficient exceeds m = 10 * tol.eps, and nothing else runs at that
    point. This is classify_unitary's exclusivity argument: a product or
    swap form within residual r <= m maps every unit product to a vector
    whose second coefficient is <= r (singular values move by at most the
    norm of a perturbation, Weyl), so an input above m excludes both forms.
    The argument holds for the exact U_t; the images and path_point's U_t
    each carry the rounding that _grid_images states, so the verdict can
    differ from _classify(path_point(p, t), ...) only where an input's
    coefficient and a form's residual both lie that close to m.

    A point whose inputs witness nothing is decided, where it can be, by one
    certificate for the whole path: a bound r on the distance from every
    U_t to a product of local unitaries, computed by _nonlocal_bound at the
    first such point with 0 < t < 1 and at most once per profile. Let
    H = V diag(w) V^† and P the Hilbert-Schmidt projection onto the local
    generators X ⊗ I + I ⊗ Y (Zanardi, quant-ph/0010074),
    P(H) = Tr_2 H/d2 ⊗ I + I ⊗ Tr_1 H/d1 - (Tr H/D) I. Three steps:
    - V = QS with Q unitary (its polar factor) and S = (V^†V)^{1/2}; S's
      eigenvalues s satisfy |s - 1| <= |s² - 1|, so ||V - Q||_F <= δ. With
      H' = Q diag(w) Q^†, ||H - H'||_F <= max|w|·δ(2 + δ), and the exact
      U_t = V e^{itw} V^† is within δ(2 + δ) of e^{itH'}.
    - I - P is an orthogonal projection, hence a contraction:
      ||H' - P(H')||_F <= ||H - P(H)||_F + ||H - H'||_F. P(H') is
      A ⊗ I + I ⊗ B with Hermitian, commuting terms, so
      e^{itP(H')} = e^{itA} ⊗ e^{itB}.
    - Duhamel: e^{itX} - e^{itY} is the integral over s in [0, t] of
      e^{isX} i(X - Y) e^{i(t-s)Y}, so ||e^{itX} - e^{itY}||_F <=
      t·||X - Y||_F for Hermitian X, Y, and t <= 1.
    Hence ||U_t - e^{itA} ⊗ e^{itB}||_F <= ||H - P(H)||_F
    + (max|w| + 1)·δ(2 + δ) for every t in [0, 1]. r adds the rounding, by
    linalg.gamma's rules: δ is raised to linalg.defect_bound of V; the
    scaling V·diag(w) and the gemm forming H are off by at most
    γ_{D + 1}·D·ρ (the per-entry and gemm rules, ρ = max|w|(1 + δ) >=
    ||H||_2, ||V||_F² <= D(1 + δ)); the partial traces, sums of d2, d1
    and D terms and a division each, and the three in-place subtractions
    by (γ_{d2 + 1} + γ_{d1 + 1} + γ_{D + 1} + 4·γ_3)·||H||_F (each of P's
    three terms has Frobenius norm <= ||H||_F <= √D·ρ), which is
    γ_{D + d1 + d2 + 15}·√D·ρ; and the computed norm, over D² entries, is
    raised by the norm rule's γ_{D²}. When r < m (never at m = 0), that
    point and every later one whose inputs witness nothing is "product",
    t = 1 included, with no path_point and no fit. _classify's power-step
    fit of U_t reaches the nearest product's distance up to a term of order
    r²/√D, so a certified verdict can differ from
    _classify(path_point(p, t), ...) only where a fit residual lies within
    rounding (and that term) of m.

    The other points whose inputs witness nothing (every point, when d1 or
    d2 is 1 and no input can witness) form path_point(p, t), and _classify
    decides, seeded split_seed(seed, f"verdict-{k}"): t = 0; t = 1 on a path
    whose interior is witnessed throughout, such as a SWAP geodesic, which
    never forms the bound; and all of them when r >= m, or r is NaN or inf.
    _classify raises WitnessSearchError when it finds neither form nor
    witness. A tol too loose for classify_unitary raises ValueError.
    """
    if n_steps < 2:
        raise ValueError(f"need at least 2 steps, got {n_steps}")
    margin = witness_margin(tol)
    d1, d2 = p.space.d1, p.space.d2
    probe_init = require_probe_init(probe_init, d2, tol)
    # One check for every U_t = V e^{itw} V^† (w, V the path's phases, vectors):
    # with E = V^†V - I, δ = ||E||_F, U_t^†U_t - I = (VV^† - I) + V e^{-itw} E e^{itw} V^†,
    # where VV^† - I has the norm of E and ||V||² <= 1 + δ, so each defect is <= δ(2 + δ).
    delta = unitarity_defect(p.vectors)
    bound = delta * (2 + delta)
    if bound > tol.eps:
        raise NonUnitaryError(f"path is not unitary: defect bound {bound:.3e}", bound)
    labels, vecs = profile_inputs(d1, d2, probe_init, seed, n_inputs)
    certified = None  # whether _nonlocal_bound certifies every U_t, once formed
    points = []
    for k, images in enumerate(_grid_images(p, vecs, n_steps)):
        t = k / n_steps
        s = schmidt_coefficients(p.space, images)
        entropies = _entropy_bits(s)
        top = entropies.max()
        best = int(np.argmax(entropies >= top - tol.eps))
        if min(d1, d2) > 1 and s[:, 1].max() > margin:
            verdict = "entangling"
        else:
            if certified is None and 0 < k < n_steps:
                certified = _nonlocal_bound(p, delta) < margin
            if certified:
                verdict = "product"
            else:
                u_t = path_point(p, t)
                verdict = _classify(u_t, d1, d2, tol, split_seed(seed, f"verdict-{k}")).verdict
        points.append(ProfilePoint(t, float(top), labels[best], vecs[best], verdict))
    return EntanglementProfile(p.space, tuple(points))

