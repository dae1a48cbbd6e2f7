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


def product_state(a: np.ndarray, b: np.ndarray) -> PureState:
    """Pure state a ⊗ b from unit factors."""
    a = as_vector(a)
    b = as_vector(b)
    return PureState(BipartiteSpace(a.size, b.size), np.kron(a, b))


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


def schmidt_ranks(
    space: BipartiteSpace, vecs: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Number of Schmidt coefficients above tol.eps (absolute threshold) of
    each row of vecs, an (n, space.dim) stack of vectors; a row is a product
    iff its rank is 1. No norm check, so images of a coupling that is
    unitary only within tol can be tested."""
    s = np.linalg.svd(np.reshape(vecs, (-1, space.d1, space.d2)), compute_uv=False)
    return np.count_nonzero(s > tol.eps, axis=1)


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


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the trace norms of a - b over (n, dim, dim) stacks, from one
    stacked eigvalsh of the Hermitian parts."""
    if np.shape(a) != np.shape(b):
        raise DimensionError(f"stack shapes differ: {np.shape(a)} vs {np.shape(b)}")
    d = a - b
    d = (d + d.conj().swapaxes(1, 2)) / 2
    # Flip each difference's overall sign so that (a, b) and (b, a)
    # diagonalize the same matrix bit-for-bit (symmetry is then exact).
    flat = d.reshape(len(d), -1)
    first = flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)]
    flip = (first.real < 0) | ((first.real == 0) & (first.imag < 0))
    d[flip] = -d[flip]
    return 0.5 * np.abs(np.linalg.eigvalsh(d)).sum(axis=1)
