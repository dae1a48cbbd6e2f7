"""Constructive classification of non-entangling bipartite unitaries.

A unitary on H1 ⊗ H2 that maps every product state to a product state is
either a product of local unitaries or (for equal dimensions) local unitaries
composed with the canonical swap. Every verdict is decided by the certificate
it returns, against one margin 10 * tol.eps: factors V, W read off the
realignment (operator-Schmidt reshuffle) of U, or of U @ SWAP, by one power
step, and accepted when they reconstruct U within the margin; otherwise a
product input whose image has second Schmidt coefficient above the margin.

``classify_slice`` is different in character: it follows the constructive
case analysis for a single fixed probe vector, where the image factors of an
object basis are either left-orthogonal (a local isometry acts on the object)
or right-orthogonal (the object state is transferred into the probe). Its
form, too, carries the residual that decided it: the spectral norm of the
slice map minus the form's prediction, against max(tol.eps, 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Callable, Union

import numpy as np

from .bipartite import BipartiteSpace, PureState, _fix_phase, product_state, schmidt_ranks
from .errors import (
    DimensionError,
    SliceHypothesisError,
    SlicePatternError,
    WitnessSearchError,
)
from .linalg import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    frobenius,
    probe_grid,
    probe_states,
    require_unit,
    require_unitary,
    rng_from_seed,
    slice_map,
    tensor_product,
)

# Number of seeded random product inputs tried after the deterministic grid
# when hunting for an entanglement witness.
WITNESS_SAMPLES = 64

# Most probe candidates whose images one batch of the witness engine holds.
_BATCH_CAP = 1024

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class Product:
    """U == V ⊗ W with local unitaries V (d1 x d1) and W (d2 x d2), within residual."""

    v: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    residual: float
    verdict: str = field(default="product", init=False)


@dataclass(frozen=True)
class SwapForm:
    """U == (V21 ⊗ W12) @ SWAP within residual; only representable when d1 == d2."""

    v21: np.ndarray = field(repr=False)
    w12: np.ndarray = field(repr=False)
    residual: float
    verdict: str = field(default="swap", init=False)


@dataclass(frozen=True)
class Entangling:
    """Witnessed entangling behavior: ``witness``, U(input) normalized, has
    Schmidt rank >= 2."""

    witness: PureState
    input: PureState
    second_coeff: float
    verdict: str = field(default="entangling", init=False)


NonEntanglingForm = Union[Product, SwapForm, Entangling]


@dataclass(frozen=True)
class LocalOnObject:
    """U(φ ⊗ φ0) == Vφ ⊗ phi_prime with V an isometry on the object space,
    within residual for every unit φ."""

    v: np.ndarray = field(repr=False)
    phi_prime: np.ndarray = field(repr=False)
    residual: float
    form: str = field(default="local_on_object", init=False)


@dataclass(frozen=True)
class TransferToProbe:
    """U(φ ⊗ φ0) == phi_prime ⊗ W12 φ with W12 an isometry H1 -> H2, within
    residual for every unit φ."""

    phi_prime: np.ndarray = field(repr=False)
    w12: np.ndarray = field(repr=False)
    residual: float
    form: str = field(default="transfer_to_probe", init=False)


SliceForm = Union[LocalOnObject, TransferToProbe]


def _check_shape(u: np.ndarray, d1: int, d2: int) -> np.ndarray:
    u = as_matrix(u)
    if d1 < 1 or d2 < 1:
        raise DimensionError(f"dimensions must be positive, got ({d1}, {d2})")
    if u.shape != (d1 * d2, d1 * d2):
        raise DimensionError(f"matrix shape {u.shape} != ({d1 * d2}, {d1 * d2})")
    return u


def realign(u: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Operator-Schmidt reshuffle: R[(i,k), (j,l)] = U[(i,j), (k,l)].

    A product operator V ⊗ W realigns to the rank-1 matrix vec(V) vec(W)^T.
    Linear and invertible.
    """
    u = _check_shape(u, d1, d2)
    return u.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def operator_schmidt_rank(
    u: np.ndarray, d1: int, d2: int, tol: Tolerance = DEFAULT_TOL
) -> int:
    """Rank of the realignment; singular values count when > tol.eps * sigma_max."""
    s = np.linalg.svd(realign(u, d1, d2), compute_uv=False)
    return int(np.count_nonzero(s > tol.eps * s[0]))


def operator_entanglement(u: np.ndarray, d1: int, d2: int) -> float:
    """Operator entanglement (Zanardi, Zalka, Faoro, quant-ph/0005031) scaled
    by n², not D², so that scaling u leaves it alone: E = 1 - ||G||_F² / n²,
    G the smaller of R^†R and RR^† for R = realign(u), n = tr G. It is
    1 - sum s⁴ / (sum s²)² over R's singular values: 0 exactly when u = V ⊗ W.
    ValueError for the zero matrix."""
    r = realign(u, d1, d2)
    g = r.conj().T @ r if d2 <= d1 else r @ r.conj().T
    n = g.trace().real
    if not n > 0:
        raise ValueError("operator entanglement is undefined for the zero matrix")
    return 1.0 - np.vdot(g, g).real / (n * n)


def witness_margin(tol: Tolerance) -> float:
    """The verdict margin 10 * tol.eps. ValueError unless it is below
    1/sqrt(2), the largest second Schmidt coefficient: from there up no
    witness can exist and any form, however far off, would pass."""
    if 10 * tol.eps >= 1 / np.sqrt(2):
        raise ValueError(
            f"tol {tol.eps:g} is too loose: 10*tol must be below 1/sqrt(2), the largest "
            "second Schmidt coefficient, so tol must be below 0.0707"
        )
    return 10 * tol.eps


def _rank_one_fit(
    r: np.ndarray, d1: int, d2: int, margin: float
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(||U - V ⊗ W||_F, V, W) for the rank-one fit vec(V) vec(W)^T of R(U),
    or None when that residual is above margin.

    One step a <- R (a^† R)^† of power iteration on R R^† from R's largest
    column damps all but the leading direction by (s1/s0)^2; with a
    normalized, vec(W) = a^† R. A zero step (R = 0, or underflow) fails.
    For unit a the residual squared is ||R||² - ||vec(W)||², both sums at
    hand, so a fit stops before the D² outer product once that difference
    exceeds margin² by more than its rounding, 4(d1² + d2²)·eps·||R||²:
    then the residual is provably above margin. The difference cancels to
    ~1e-6 on a d = 32 product, whose residual is ~2e-14, so a fit that gets
    through reports the norm of the difference itself. Both factors get the
    Frobenius norm of a unitary; the caller fixes the phase.
    """
    # Squared column norms as np.linalg.norm(r, axis=0) forms them, so the
    # argmax picks the same column.
    col_sq = np.add.reduce((r.conj() * r).real, axis=0)
    a = r[:, np.argmax(np.sqrt(col_sq))]
    a = r @ (a.conj() @ r).conj()
    norm = np.linalg.norm(a)
    if not norm > 0:
        return None
    a = a / norm
    w = a.conj() @ r
    total = col_sq.sum()
    if total - np.vdot(w, w).real > margin**2 + 4 * (d1 * d1 + d2 * d2) * _EPS * total:
        return None
    residual = frobenius(r - a[:, None] * w[None, :])
    if not residual <= margin:
        return None
    v_raw = a.reshape(d1, d1)
    alpha = np.sqrt(d1) / frobenius(v_raw)
    return residual, v_raw * alpha, w.reshape(d2, d2) / alpha


def _unitarity_bound(form: Product | SwapForm) -> float:
    """An upper bound on ||U^†U - I||_F for every U within the form's residual
    of its reassembly, from the factors x, y alone: O(d³) against U^†U's D³.

    With a = x^†x - I, b = y^†y - I and U = x ⊗ y + E, ||E||_F = r:
    (x ⊗ y)^†(x ⊗ y) - I = a ⊗ I + I ⊗ b + a ⊗ b and ||x ⊗ y||_2² <=
    (1 + ||a||)(1 + ||b||), so U^†U - I is within
    sqrt(d_y)||a|| + sqrt(d_x)||b|| + ||a|| ||b|| + 2 sqrt((1 + ||a||)(1 + ||b||)) r + r².
    It holds for (x ⊗ y)·SWAP as well, SWAP being unitary. Rounding slack:
    ||a|| is raised by 4·d_x·eps·||x||², above the error of forming x^†x, and
    r by 16·eps·(||x|| ||y|| + r), which covers the few roundings per entry
    that the fit's alpha rescale and _fix_phase put between the factors and
    the product whose residual the fit measured.
    """
    x, y = (form.v, form.w) if isinstance(form, Product) else (form.v21, form.w12)
    (a, nx2), (b, ny2) = _gram_defect(x), _gram_defect(y)
    dx, dy = len(x), len(y)
    a += 4 * dx * _EPS * nx2
    b += 4 * dy * _EPS * ny2
    r = form.residual + 16 * _EPS * (math.sqrt(nx2 * ny2) + form.residual)
    product_defect = math.sqrt(dy) * a + math.sqrt(dx) * b + a * b
    return product_defect + 2 * math.sqrt((1 + a) * (1 + b)) * r + r * r


def _gram_defect(z: np.ndarray) -> tuple[float, float]:
    """(||z^†z - I||_F, ||z||_F²) of a small factor from one Gram matrix, the
    identity subtracted in place; vdot, not np.linalg.norm, whose call
    overhead would dominate at the d ~ 2 of most calls."""
    g = z.conj().T @ z
    sq_norm = g.trace().real
    g.flat[:: len(g) + 1] -= 1
    return math.sqrt(np.vdot(g, g).real), sq_norm


def _swap_columns(u: np.ndarray, d: int) -> np.ndarray:
    """u @ SWAP on a d*d bipartite space, as a column permutation."""
    return u.reshape(d * d, d, d).transpose(0, 2, 1).reshape(d * d, d * d)


def _first_hit(
    images: Callable[[int, int], np.ndarray], n: int, d1: int, d2: int, margin: float
) -> tuple[int, float] | None:
    """First index in 0..n-1 whose image has second Schmidt coefficient > margin.

    ``images(start, stop)`` returns the (stop - start, d1 * d2) image vectors
    of those candidates. Batches grow from 1 to _BATCH_CAP candidates, so an
    early hit costs one candidate's work and memory stays bounded.
    """
    start, size = 0, 1
    while start < n:
        stop = min(start + size, n)
        s = np.linalg.svd(images(start, stop).reshape(-1, d1, d2), compute_uv=False)
        above = s[:, 1] > margin
        if above.any():
            k = int(np.argmax(above))
            return start + k, float(s[k, 1])
        start, size = stop, min(2 * size, _BATCH_CAP)
    return None


def _find_witness(
    u: np.ndarray, d1: int, d2: int, margin: float, seed: int, n_samples: int
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """First product input a ⊗ b whose image u(a ⊗ b) has second Schmidt
    coefficient > margin, as (a, b, coefficient); None when no probe has one.

    Probes the superposition grid (e_i + e_j) ⊗ (f_k + f_l), normalized, of
    probe_grid's rows, with the left row as the outer loop, then n_samples
    random product inputs drawn from one generator seeded with ``seed``.
    """
    if min(d1, d2) == 1:
        return None
    dim = d1 * d2
    left, right = probe_grid(d1)[1], probe_grid(d2)[1]
    n2 = right.shape[0]
    u3 = u.reshape(dim, d1, d2)

    def grid_images(start: int, stop: int) -> np.ndarray:
        # Contract U with each left factor once, then reach every right
        # factor of that row with one matmul: D * d2 work per candidate.
        p0, p1 = start // n2, (stop - 1) // n2 + 1
        partial = left[p0:p1] @ u3
        rows = [
            right[max(start - p * n2, 0) : min(stop - p * n2, n2)] @ partial[:, p - p0].T
            for p in range(p0, p1)
        ]
        return np.concatenate(rows)

    hit = _first_hit(grid_images, left.shape[0] * n2, d1, d2, margin)
    if hit is not None:
        c, coeff = hit
        return left[c // n2], right[c % n2], coeff

    rng = rng_from_seed(seed)
    _, a = probe_states(d1, rng, n_samples, grid=False)
    _, b = probe_states(d2, rng, n_samples, grid=False)

    def random_images(start: int, stop: int) -> np.ndarray:
        inputs = (a[start:stop, :, None] * b[start:stop, None, :]).reshape(stop - start, dim)
        return inputs @ u.T

    hit = _first_hit(random_images, n_samples, d1, d2, margin)
    if hit is not None:
        n, coeff = hit
        return a[n], b[n], coeff
    return None


def _fit_form(u: np.ndarray, d1: int, d2: int, tol: Tolerance) -> Product | SwapForm | None:
    """The product form, else (d1 == d2) the swap form, whose one-power-step
    factors reconstruct u within the margin 10 * tol.eps; None when neither does."""
    margin = witness_margin(tol)
    fit = _rank_one_fit(realign(u, d1, d2), d1, d2, margin)
    if fit is not None:
        return Product(*_fix_phase(fit[1], fit[2], tol), fit[0])
    if d1 == d2:
        # R(U·SWAP)[(i,k), (j,l)] = U[(i,j), (l,k)]: one reshuffle of U.
        r_swap = u.reshape(d1, d1, d1, d1).transpose(0, 3, 1, 2).reshape(d1 * d1, d1 * d1)
        fit = _rank_one_fit(r_swap, d1, d1, margin)
        if fit is not None:
            return SwapForm(*_fix_phase(fit[1], fit[2], tol), fit[0])
    return None


def _entangling(u: np.ndarray, d1: int, d2: int, tol: Tolerance, seed: int) -> Entangling:
    """The witness search's verdict for a unitary u that no form fits."""
    margin = witness_margin(tol)
    hit = _find_witness(u, d1, d2, margin, seed, WITNESS_SAMPLES)
    if hit is None:
        raise WitnessSearchError(
            "no entanglement witness found although no product or swap form reconstructs "
            f"U within 10*tol = {margin:.1e}: U is near that boundary, or tol is too loose"
        )
    a, b, coeff = hit
    inp = product_state(a, b)
    # Normalized: u passed the unitarity check only within tol.
    image = u @ inp.vec
    witness = PureState(inp.space, image / np.linalg.norm(image))
    return Entangling(witness, inp, coeff)


def _classify(
    u: np.ndarray, d1: int, d2: int, tol: Tolerance, seed: int
) -> NonEntanglingForm:
    """classify_unitary for a u that already passed its checks."""
    form = _fit_form(u, d1, d2, tol)
    return _entangling(u, d1, d2, tol, seed) if form is None else form


def classify_unitary(
    u: np.ndarray,
    d1: int,
    d2: int,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> NonEntanglingForm:
    """Classify a bipartite unitary as Product, SwapForm or Entangling.

    One margin m = 10 * tol.eps decides every verdict by its certificate.
    Product when the factors of R(U) give ||U - V ⊗ W||_F <= m, swap when
    those of R(U·SWAP) do; else entangling, with a product input whose image
    has second Schmidt coefficient > m (searched over a deterministic
    superposition grid, then seeded random product inputs), or
    WitnessSearchError. The verdicts exclude each other: for a unit product
    x, (V ⊗ W)x is a product and singular values move by at most the norm of
    a perturbation, so Ux has second coefficient <= ||U - V ⊗ W||_F; likewise
    for (V ⊗ W)·SWAP. A form carries that residual. m >= 1/sqrt(2) raises
    ValueError before any work on U: no witness can exist there.

    The fits run first, on the D² realignment of a U whose unitarity is not
    yet known; a fit whose power step is zero, as on the zero matrix, fails.
    A form's factors then certify unitarity in O(d³): with a = V^†V - I,
    b = W^†W - I and r the residual,
    ||U^†U - I||_F <= sqrt(d2)||a|| + sqrt(d1)||b|| + ||a|| ||b||
    + 2 sqrt((1 + ||a||)(1 + ||b||)) r + r², which the swap form meets too.
    The bound adds rounding slack for forming V^†V and W^†W and for the few
    roundings per entry that the fit's rescale by alpha and _fix_phase put
    between the returned factors and the product whose residual was measured.
    A bound within tol.eps returns the form with no D x D work. Otherwise,
    and always before the witness search, U^†U is checked in full:
    NonUnitaryError when its defect exceeds tol.eps.
    """
    witness_margin(tol)
    u = _check_shape(u, d1, d2)
    # Overflowing entries fail the fits silently; require_unitary refuses u.
    with np.errstate(over="ignore", invalid="ignore"):
        form = _fit_form(u, d1, d2, tol)
    if form is None:
        require_unitary(u, tol, "input")
        return _entangling(u, d1, d2, tol, seed)
    if not _unitarity_bound(form) <= tol.eps:
        require_unitary(u, tol, "input")
    return form


def reconstruction_error(form: NonEntanglingForm, u: np.ndarray) -> float:
    """Frobenius distance between u and the form's reassembly; NaN for Entangling."""
    u = as_matrix(u)
    if isinstance(form, Product):
        return frobenius(u - tensor_product(form.v, form.w))
    if isinstance(form, SwapForm):
        return frobenius(u - _swap_columns(tensor_product(form.v21, form.w12), form.v21.shape[0]))
    return float("nan")


def _hypothesis_error(indices: tuple[int, ...]) -> SliceHypothesisError:
    label = "basis vector" if len(indices) == 1 else "superposition of basis vectors"
    return SliceHypothesisError(
        f"image of {label} ⊗ phi0 is not a product state (offending indices {indices})", indices
    )


def classify_slice(
    u: np.ndarray,
    d1: int,
    d2: int,
    phi0: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> SliceForm:
    """Constructive dichotomy for the slice φ -> U(φ ⊗ φ0).

    Checks that every basis image, a column of the slice map B = U(I ⊗ φ0)
    for the normalized φ0, is a product, with one stacked SVD. Image 0 =
    a ⊗ c then fixes both candidate forms: LocalOnObject(V = (I ⊗ c^†)B, c)
    and TransferToProbe(a, W12 = (a^† ⊗ I)B). The first whose spectral
    residual ||B - P||_2 against its prediction P is <= max(tol, 1e-9) is
    returned, carrying that residual: the largest deviation
    ||U(φ ⊗ φ0) - form(φ)|| over unit object inputs φ. Raises
    SliceHypothesisError with the offending indices when a basis image, or
    (if neither form fits) the first pair image (e_i + e_j)/sqrt(2) ⊗ φ0 in
    row-major order, is not a product, and SlicePatternError when every
    probed image is a product yet neither form fits, which a tolerance too
    loose for the input signals.

    No isometry check is needed. Either form projects B, so with R = B - P,
    V^†V - I = (B^†B - I) - R^†R (W12 alike); B^†B - I is a compression of
    U^†U - I, so ||V^†V - I||_F <= defect + ||R||_F^2.
    """
    u = _check_shape(u, d1, d2)
    require_unitary(u, tol, "input")
    phi0 = as_vector(phi0)
    if phi0.size != d2:
        raise DimensionError(f"phi0 has dimension {phi0.size}, probe space needs {d2}")
    require_unit(phi0, tol, "phi0")
    # Unit phi0, so B^†B - I is a compression of U^†U - I and a fitting
    # form's isometry defect has no norm slack that require_unit let through.
    b = slice_map(u, d1, d2, phi0 / np.linalg.norm(phi0))
    space = BipartiteSpace(d1, d2)

    bad = np.flatnonzero(schmidt_ranks(space, b.T, tol) != 1)
    if bad.size:
        raise _hypothesis_error((int(bad[0]),))
    x, _, yh = np.linalg.svd(b[:, 0].reshape(d1, d2))
    a, c = _fix_phase(x[:, 0], yh[0], tol)
    b3 = b.reshape(d1, d2, d1)
    # A floor: residuals below 1e-9 pass at any tol, which keeps
    # controlled_phase(1e-10) at tol 1e-12 a form (TestSliceAgainstVoteReference).
    check_tol = max(tol.eps, 1e-9)
    # Column i of each prediction is V e_i ⊗ c or a ⊗ W12 e_i.
    v = c.conj() @ b3
    local = float(np.linalg.norm(b - (v[:, None, :] * c[None, :, None]).reshape(-1, d1), 2))
    if local <= check_tol:
        return LocalOnObject(v, c, local)
    w12 = (a.conj() @ b3.reshape(d1, -1)).reshape(d2, d1)
    transfer = float(np.linalg.norm(b - (a[:, None, None] * w12[None, :, :]).reshape(-1, d1), 2))
    if transfer <= check_tol:
        return TransferToProbe(a, w12, transfer)

    # Diagnosis, one row of pairs at a time: at most d1 - 1 images in memory.
    for i in range(d1 - 1):
        pairs = (b[:, i, None] + b[:, i + 1 :]) / np.sqrt(2)
        bad = np.flatnonzero(schmidt_ranks(space, pairs.T, tol) != 1)
        if bad.size:
            raise _hypothesis_error((i, i + 1 + int(bad[0])))
    raise SlicePatternError(
        "every probed image is a product, yet neither the local nor the transfer "
        f"form predicts every unit input within {check_tol:.1e}: the closer one "
        f"is off by {min(local, transfer):.3e}"
    )
