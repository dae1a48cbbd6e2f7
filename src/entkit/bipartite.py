"""Bipartite structure over H1 ⊗ H2.

Index convention: component ``i * d2 + j`` of a pure-state vector is the
amplitude on the basis vector ``e_i ⊗ f_j`` (row-major / numpy.kron order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NormalizationError
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector


@dataclass(frozen=True)
class BipartiteSpace:
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionError(f"dimensions must be positive, got ({self.d1}, {self.d2})")

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


@dataclass(frozen=True)
class PureState:
    """Unit vector on a bipartite space."""

    space: BipartiteSpace
    vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = as_vector(self.vec)
        if v.size != self.space.dim:
            raise DimensionError(
                f"state has {v.size} components, space needs {self.space.dim}"
            )
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise NormalizationError(f"state norm {norm} is not 1")
        object.__setattr__(self, "vec", v)

    def coefficient_matrix(self) -> np.ndarray:
        """d1 x d2 reshaping of the amplitude vector."""
        return self.vec.reshape(self.space.d1, self.space.d2)


def product_state(a: np.ndarray, b: np.ndarray) -> PureState:
    """Pure state a ⊗ b from unit factors."""
    a = as_vector(a)
    b = as_vector(b)
    return PureState(BipartiteSpace(a.size, b.size), np.kron(a, b))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Non-negative descending coefficients with orthonormal vector systems."""

    coeffs: np.ndarray
    left: list[np.ndarray]
    right: list[np.ndarray]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros(self.left[0].size * self.right[0].size, dtype=np.complex128)
        for c, l, r in zip(self.coeffs, self.left, self.right):
            out += c * np.kron(l, r)
        return out


@dataclass(frozen=True)
class DensityOperator:
    dim: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = as_matrix(self.mat)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"density matrix shape {m.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "mat", m)

    @staticmethod
    def from_pure(vec: np.ndarray) -> "DensityOperator":
        v = as_vector(vec)
        return DensityOperator(v.size, np.outer(v, v.conj()))


def schmidt(psi: PureState, tol: Tolerance = DEFAULT_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the d1 x d2 coefficient matrix.

    Phase convention: each left vector's first component with modulus >
    tol.eps is made real positive, with the compensating phase pushed into
    the paired right vector.
    """
    m = psi.coefficient_matrix()
    u, s, vh = np.linalg.svd(m)
    r = min(psi.space.d1, psi.space.d2)
    left, right = [], []
    for k in range(r):
        l, rt = _fix_phase(u[:, k], vh[k, :], tol)
        left.append(l)
        right.append(rt)
    return SchmidtDecomposition(s[:r].copy(), left, right)


def _fix_phase(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Make a's first entry with modulus > tol.eps (row-major) real positive;
    b takes the opposite phase, so the outer product of a and b is unchanged."""
    flat = a.ravel()
    big = np.flatnonzero(np.abs(flat) > tol.eps)
    if big.size:
        phase = np.exp(-1j * np.angle(flat[big[0]]))
        return a * phase, b * np.conj(phase)
    return a, b


def schmidt_rank(psi: PureState, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of Schmidt coefficients above tol.eps (absolute threshold)."""
    s = np.linalg.svd(psi.coefficient_matrix(), compute_uv=False)
    return int(np.count_nonzero(s > tol.eps))


def is_product(
    psi: PureState, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, tuple[np.ndarray, np.ndarray] | None]:
    """Rank-1 test; on success also returns the (left, right) unit factors."""
    dec = schmidt(psi, tol)
    rank = int(np.count_nonzero(dec.coeffs > tol.eps))
    if rank != 1:
        return False, None
    return True, (dec.left[0], dec.right[0])


def partial_trace(
    rho: DensityOperator, space: BipartiteSpace, keep: int
) -> DensityOperator:
    """Trace out the discarded tensor factor; keep is 1 or 2."""
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    if rho.dim != space.dim:
        raise DimensionError(f"density dim {rho.dim} != space dim {space.dim}")
    t = rho.mat.reshape(space.d1, space.d2, space.d1, space.d2)
    if keep == 1:
        return DensityOperator(space.d1, np.einsum("ijkj->ik", t))
    return DensityOperator(space.d2, np.einsum("ijil->jl", t))


def entanglement_entropy(psi: PureState) -> float:
    """Entropy of the squared Schmidt coefficients, in bits; 0 on products."""
    s = np.linalg.svd(psi.coefficient_matrix(), compute_uv=False)
    p = s * s
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _canonical_sign(d: np.ndarray) -> np.ndarray:
    # Flip the overall sign so trace_distance(a, b) and (b, a) diagonalize the
    # same matrix bit-for-bit (symmetry is then exact).
    flat = d.ravel()
    nz = np.flatnonzero(flat != 0)
    if nz.size:
        first = flat[nz[0]]
        if first.real < 0 or (first.real == 0 and first.imag < 0):
            return -d
    return d


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of (a - b)."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = a.mat - b.mat
    d = _canonical_sign((d + d.conj().T) / 2)
    return float(0.5 * np.abs(np.linalg.eigvalsh(d)).sum())
