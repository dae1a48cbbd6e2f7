"""Named unitaries, POVMs and corpus instances used by tests and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import haar_unitary, rng_from_seed, split_seed, swap_unitary, tensor_product
from .measurement import POVM

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def cnot(control_on_object: bool = True) -> np.ndarray:
    """Two-qubit CNOT; control on the first (object) factor by default."""
    u = np.zeros((4, 4), dtype=np.complex128)
    if control_on_object:
        u[0, 0] = u[1, 1] = 1.0
        u[2, 3] = u[3, 2] = 1.0
    else:
        u[0, 0] = u[3, 1] = 1.0
        u[2, 2] = u[1, 3] = 1.0
    return u


def controlled_phase(theta: float, d1: int = 2, d2: int = 2) -> np.ndarray:
    """Diagonal coupling phasing only the |d1-1> ⊗ |d2-1> component."""
    diag = np.ones(d1 * d2, dtype=np.complex128)
    diag[-1] = np.exp(1j * theta)
    return np.diag(diag)


def haar_product(d1: int, d2: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V ⊗ W, V, W) with independent Haar factors."""
    v = haar_unitary(d1, split_seed(seed, "product-left"))
    w = haar_unitary(d2, split_seed(seed, "product-right"))
    return tensor_product(v, w), v, w


def dressed_swap(d: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """((A ⊗ B) @ SWAP, A, B) with independent Haar factors."""
    a = haar_unitary(d, split_seed(seed, "swap-left"))
    b = haar_unitary(d, split_seed(seed, "swap-right"))
    return tensor_product(a, b) @ swap_unitary(d), a, b


def random_diagonal_coupling(d1: int, d2: int, seed: int) -> np.ndarray:
    """Random-phase diagonal unitary; entangling unless the phases factorize."""
    rng = rng_from_seed(seed)
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d1 * d2)))


def projective_povm(d: int) -> POVM:
    """Rank-1 projective POVM onto the standard basis."""
    effects = tuple(np.diag(e) for e in np.eye(d, dtype=np.complex128))
    return POVM(d, tuple(str(k) for k in range(d)), effects)


def trine_povm() -> POVM:
    """Qubit trine: three effects (2/3)|v_k><v_k| at 120 degrees; complete."""
    effects = []
    for k in range(3):
        angle = 2 * np.pi * k / 3
        v = np.array([np.cos(angle / 2), np.sin(angle / 2)], dtype=np.complex128)
        effects.append((2.0 / 3.0) * np.outer(v, v.conj()))
    return POVM(2, ("0", "1", "2"), tuple(effects))


def trivial_povm(d: int, weights: tuple[float, ...] = (0.5, 0.5)) -> POVM:
    """Effects proportional to the identity; carries no state information."""
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    effects = tuple(w * np.eye(d, dtype=np.complex128) for w in weights)
    return POVM(d, tuple(str(k) for k in range(len(weights))), effects)


def random_povm(d: int, n_outcomes: int, seed: int) -> POVM:
    """Random full-rank POVM: Wishart pieces renormalized by the inverse
    square root of their sum; completeness holds to machine precision."""
    if n_outcomes < 1:
        raise DimensionError(f"need at least one outcome, got {n_outcomes}")
    rng = rng_from_seed(seed)
    pieces = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    effects = tuple(inv_root @ p @ inv_root for p in pieces)
    return POVM(d, tuple(str(k) for k in range(n_outcomes)), effects)

