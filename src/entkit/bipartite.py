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
    """Make a's first entry with modulus > tol.eps (row-major) real positive,
    exactly its modulus; b takes the opposite phase, so the outer product of
    a and b is unchanged.

    The rotations are done in real arithmetic, so factor pairs that differ
    by an exact unit phase (g a, b / g), g in {±1, ±i}, come out bit-identical.
    """
    flat = a.ravel()
    big = np.flatnonzero(np.abs(flat) > tol.eps)
    if not big.size:
        return a, b
    pivot = flat[big[0]]
    modulus = abs(pivot)
    c, s = pivot.real / modulus, pivot.imag / modulus
    a_out = _rotate(a, c, -s)
    a_out.flat[big[0]] = modulus
    return a_out, _rotate(b, c, s)


def _rotate(z: np.ndarray, c: float, s: float) -> np.ndarray:
    """z * (c + i s) from separate real products and sums; a complex multiply
    may fuse them, which makes the rounding depend on the operand order."""
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = z.real * c - z.imag * s
    out.imag = z.real * s + z.imag * c
    return out


def schmidt_ranks(
    space: BipartiteSpace, vecs: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Number of Schmidt coefficients above tol.eps (absolute threshold) of
    each row of vecs, an (n, space.dim) stack of vectors; a row is a product
    iff its rank is 1. No norm check, so images of a coupling that is
    unitary only within tol can be tested."""
    s = np.linalg.svd(np.reshape(vecs, (-1, space.d1, space.d2)), compute_uv=False)
    return np.count_nonzero(s > tol.eps, axis=1)


def schmidt_rank(psi: PureState, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of Schmidt coefficients above tol.eps (absolute threshold)."""
    return int(schmidt_ranks(psi.space, psi.vec[None, :], tol)[0])


def is_product(
    psi: PureState, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, tuple[np.ndarray, np.ndarray] | None]:
    """Rank-1 test; on success also returns the (left, right) unit factors.

    Nothing in the package calls it. It is kept as the independent
    reference that the slice and certificate tests compare against."""
    if schmidt_rank(psi, tol) != 1:
        return False, None
    dec = schmidt(psi, tol)
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


def schmidt_coefficients(space: BipartiteSpace, vecs: np.ndarray) -> np.ndarray:
    """Schmidt coefficients, descending, of each row of vecs, an (n, space.dim)
    stack of pure-state vectors, as the (n, min(d1, d2)) result of one
    stacked SVD.

    Every row must pass PureState's check, ||v|| within 1e-6 of 1, else
    NormalizationError; a row with a non-finite entry fails it too.
    """
    vecs = np.ascontiguousarray(vecs, dtype=np.complex128)
    if vecs.ndim != 2 or vecs.shape[1] != space.dim:
        raise DimensionError(f"state stack shape {vecs.shape} != (n, {space.dim})")
    # The norm of the real view: an infinite entry gives an infinite norm
    # where the complex product inf * conj(inf) would warn and give NaN.
    norms = np.linalg.norm(vecs.view(np.float64), axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))
    if bad.size:
        raise NormalizationError(f"state {bad[0]} has norm {norms[bad[0]]}, not 1")
    return np.linalg.svd(vecs.reshape(-1, space.d1, space.d2), compute_uv=False)


def _entropy_bits(s: np.ndarray) -> np.ndarray:
    """Entropy in bits of the squared rows of a Schmidt coefficient stack;
    +0.0 on products."""
    p = s * s
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    # 0.0 - x, not -x: an exact product gives +0.0 rather than -0.0.
    return 0.0 - (p * log_p).sum(axis=1)


def entanglement_entropies(space: BipartiteSpace, vecs: np.ndarray) -> np.ndarray:
    """Entanglement entropy in bits of each row of vecs, an (n, space.dim)
    stack of pure-state vectors, from schmidt_coefficients and its checks;
    +0.0 on products."""
    return _entropy_bits(schmidt_coefficients(space, vecs))


def entanglement_entropy(psi: PureState) -> float:
    """Entropy of the squared Schmidt coefficients, in bits; +0.0 on products."""
    return float(entanglement_entropies(psi.space, psi.vec[None, :])[0])


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norms of a - b over (n, dim, dim) stacks, from one
    stacked eigvalsh of the Hermitian parts."""
    d = a - b
    d = (d + d.conj().swapaxes(1, 2)) / 2
    # Flip each difference's overall sign so that (a, b) and (b, a)
    # diagonalize the same matrix bit-for-bit (symmetry is then exact).
    flat = d.reshape(len(d), -1)
    first = flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)]
    flip = (first.real < 0) | ((first.real == 0) & (first.imag < 0))
    d[flip] = -d[flip]
    return 0.5 * np.abs(np.linalg.eigvalsh(d)).sum(axis=1)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of (a - b)."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(trace_distances(a.mat[None], b.mat[None])[0])
