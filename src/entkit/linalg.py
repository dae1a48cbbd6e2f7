"""Dense complex linear algebra primitives.

Matrices are plain ``numpy.ndarray`` of dtype complex128, row-major, with
vectors as shape ``(d, 1)`` columns or 1-D arrays where noted. Everything here
is a pure function of its inputs; randomness always flows from an explicit
integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import zlib

import numpy as np

# Loaded, never called: entkit's kernels all run on numpy's BLAS, so one
# thread pool works; bench/spans.py wraps scipy.linalg's kernels by module.
import scipy.linalg  # noqa: F401

from .errors import DimensionError, NonUnitaryError, NormalizationError

# Default absolute tolerance for Frobenius-norm comparisons. Comfortably above
# double-precision accumulation error at the dimensions this package targets
# (factors up to ~64).
DEFAULT_EPS = 1e-9

# Default seed for reproducible CLI runs when the user supplies none.
DEFAULT_SEED = 0xB05C

# Refuse tensor products whose entry count would exceed this (dense storage
# only; the package has no large-dimension ambitions).
_MAX_PRODUCT_ENTRIES = 1 << 26


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance for norm-based comparisons."""

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"tolerance must be finite and non-negative, got {self.eps}")


DEFAULT_TOL = Tolerance()


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a: np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"expected a column vector, got shape {np.shape(a)}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_unit(v: np.ndarray, tol: Tolerance, name: str) -> None:
    """Raise NormalizationError unless | ||v|| - 1 | <= tol.eps."""
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol.eps:
        raise NormalizationError(f"{name} norm {norm} is not 1")


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    # Size the result from the shapes alone, before as_matrix copies the
    # operands to complex128; a vector counts as one column.
    rows = cols = 1
    for shape in (np.shape(a), np.shape(b)):
        if len(shape) in (1, 2):
            rows *= shape[0]
            cols *= shape[1] if len(shape) == 2 else 1
    if rows * cols > _MAX_PRODUCT_ENTRIES:
        raise DimensionError(f"tensor product shape {rows}x{cols} too large")
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose. Involutive exactly: adjoint(adjoint(a)) == a."""
    return as_matrix(a).conj().T


def is_unitary(u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the square matrix u has unitarity defect within tol.eps."""
    return unitarity_defect(u) <= tol.eps


def unitarity_defect(u: np.ndarray) -> float:
    """||U^†U - I||_F of a square U, or inf or NaN, silently, if U^†U
    overflows; equal to ||UU^† - I||_F, since both are the norm of
    sigma_k^2 - 1 over the singular values of U."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise DimensionError(f"unitarity is defined for square matrices, got {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(u: np.ndarray, tol: Tolerance, what: str, defect: float | None = None) -> float:
    """u's unitarity defect, or NonUnitaryError naming ``what`` unless it is
    within tol.eps (a NaN defect, from U^†U overflowing, is not); ``defect``
    skips the computation when the caller holds it."""
    if defect is None:
        defect = unitarity_defect(u)
    if not defect <= tol.eps:
        raise NonUnitaryError(f"{what} is not unitary: defect {defect:.3e}", defect)
    return defect


def slice_map(u: np.ndarray, d1: int, d2: int, phi0: np.ndarray) -> np.ndarray:
    """B = U(I ⊗ φ0), the (d1*d2) x d1 map φ -> U(φ ⊗ φ0); column i is U(e_i ⊗ φ0)."""
    return (u.reshape(-1, d2) @ phi0).reshape(d1 * d2, d1)


def unitary_eig(u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(theta, z) with u == z diag(e^{i theta}) z^†, after the unitarity check.
    Phases are in (-pi, pi], -1 mapped to +pi; those within 1e-12 of the cut
    are folded onto +pi, so -1 is stable under rounding.

    numpy alone, so a process runs one BLAS thread pool. The eigenvalues of
    the Hermitian part, cos(theta), place the widest arc of the unit circle
    that holds no eigenvalue (it spans at least pi/(D + 1)); w = e^{i phi} u
    turns its centre onto -1. z is eigh's orthonormal eigenbasis of the
    Cayley transform i (I + w)^{-1} (I - w), Hermitian with eigenvalues
    tan((theta + phi)/2), whose solve is conditioned by 1/sin(arc/4) at
    worst. theta is read off u's own Rayleigh quotients z_j^† u z_j.
    Degenerate eigenspaces get eigh's (deterministic per build) basis."""
    u = as_matrix(u)
    require_unitary(u, tol, "matrix")
    # |theta| in [0, pi], each end mirrored: gaps are the empty arcs' widths.
    folded = np.arccos(np.clip(np.linalg.eigvalsh((u + u.conj().T) / 2), -1.0, 1.0))[::-1]
    ends = np.concatenate([-folded[:1], folded, 2 * np.pi - folded[-1:]])
    j = int(np.argmax(np.diff(ends)))
    w = u * np.exp(1j * (np.pi - (ends[j] + ends[j + 1]) / 2))
    eye = np.eye(u.shape[0])
    k = 1j * np.linalg.solve(eye + w, eye - w)
    _, z = np.linalg.eigh((k + k.conj().T) / 2)
    theta = np.angle(np.einsum("ij,ij->j", z.conj(), u @ z))
    return np.where(theta <= -np.pi + 1e-12, theta + 2 * np.pi, theta), z


def unitary_log(u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian H = z diag(theta) z^† with exp(iH) == u, (theta, z) from unitary_eig;
    H does not depend on the basis chosen in degenerate eigenspaces."""
    theta, z = unitary_eig(u, tol)
    h = (z * theta) @ z.conj().T
    return (h + h.conj().T) / 2


def exp_i_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i * t * h) for Hermitian h, via eigendecomposition; the reference
    that dynamics.path_point is tested against."""
    h = as_matrix(h)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def swap_unitary(d: int) -> np.ndarray:
    """The canonical flip e_i ⊗ f_j -> f_j ⊗ e_i on a d*d bipartite space."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    # Column i * d + j (input e_i ⊗ f_j) has its 1 in row j * d + i.
    col = np.arange(d * d)
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    s[(col % d) * d + col // d, col] = 1.0
    return s


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator for a seed."""
    return np.random.default_rng(seed)


def split_seed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label); stable across runs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(label.encode()),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary: QR of a complex Gaussian matrix with
    the R-diagonal phase correction. Deterministic per seed."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    rng = rng_from_seed(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_state(d: int, seed: int) -> np.ndarray:
    """Unit-norm d-vector with complex Gaussian entries; deterministic per seed."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    rng = rng_from_seed(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@functools.lru_cache(maxsize=16)
def probe_grid(d: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The deterministic probe rows (e_i + e_j) / ||e_i + e_j|| for i <= j in
    row-major order: "basis:i" (exactly e_i) on the diagonal, "pair:i:j" =
    (e_i + e_j)/sqrt(2) off it. Cached per dimension, so the array is read-only."""
    i, j = np.triu_indices(d)
    rows = np.eye(d, dtype=np.complex128)[i] + np.eye(d)[j]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows.flags.writeable = False
    labels = tuple(f"basis:{a}" if a == b else f"pair:{a}:{b}" for a, b in zip(i, j))
    return labels, rows


def probe_states(
    d: int, rng: np.random.Generator, n_random: int, grid: bool = True
) -> tuple[list[str], np.ndarray]:
    """Labelled unit d-vectors as rows: with grid, the rows of probe_grid(d);
    then n_random rows "rand:k" of complex Gaussians from rng (all real parts
    drawn first)."""
    v = rng.standard_normal((n_random, d)) + 1j * rng.standard_normal((n_random, d))
    labels = [f"rand:{k}" for k in range(n_random)]
    rows = v / np.linalg.norm(v, axis=1, keepdims=True)
    if grid:
        grid_labels, grid_rows = probe_grid(d)
        labels = list(grid_labels) + labels
        rows = np.concatenate([grid_rows, rows])
    return labels, rows


def random_hermitian(d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix (A + A^†)/2, rescaled to spectral norm <= scale."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    rng = rng_from_seed(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    top = np.abs(np.linalg.eigvalsh(h)).max()
    if top > 0:
        h = h * (scale / top)
    return h
