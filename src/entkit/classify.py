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
from typing import Callable, Iterator, Union

import numpy as np

from .bipartite import BipartiteSpace, PureState, product_state, schmidt_ranks
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
    defect_bound,
    frobenius,
    gamma,
    gram_defect,
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


def _power_step(r: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, col_sq): a the normalized step a <- R (a^† R)^† of power iteration
    on R R^† from R's largest column, which damps all but the leading left
    singular direction by (s1/s0)^2, and col_sq R's squared column norms;
    None for a zero step (R = 0, or underflow)."""
    # Squared column norms as np.linalg.norm(r, axis=0) forms them, so the
    # argmax picks the same column.
    col_sq = np.add.reduce((r.conj() * r).real, axis=0)
    a = r[:, np.argmax(np.sqrt(col_sq))]
    a = r @ (a.conj() @ r).conj()
    norm = np.linalg.norm(a)
    if not norm > 0:
        return None
    return a / norm, col_sq


def _rank_one_fit(
    r: np.ndarray, d1: int, d2: int, margin: float
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(||U - V ⊗ W||_F, V, W) for the rank-one fit vec(V) vec(W)^T of R(U),
    or None when that residual is above margin.

    vec(V) is a from _power_step and vec(W) = a^† R; a zero step fails.
    For unit a the residual squared is ||R||² - ||vec(W)||², both sums at
    hand, so a fit stops before the D² outer product once that difference
    exceeds margin² by more than its rounding, γ_{5·d1² + 2·d2² + 3}·||R||²:
    then the exact residual of the computed a and w is provably above
    margin. By gamma's rules, in units of ||R||²: ||R||² is a sum of
    d1² + d2² stage lengths and ||w||² of d2² (the norm rule), w is off
    a^†R by γ_{d1²}·||a||·||R|| (the gemm rule), which enters twice, a's
    norm is 1 within γ_{d1² + 1} (the norm rule and the division), which
    enters twice through ||a||², and the subtraction rounds once. The
    difference cancels to ~1e-6 on a d = 32 product, whose residual is
    ~2e-14, so a fit that gets through reports the norm of the difference
    itself. Both factors get the Frobenius norm of a unitary; the caller
    fixes the phase.
    """
    step = _power_step(r)
    if step is None:
        return None
    a, col_sq = step
    w = a.conj() @ r
    total = col_sq.sum()
    if total - np.vdot(w, w).real > margin**2 + gamma(5 * d1 * d1 + 2 * d2 * d2 + 3) * total:
        return None
    residual = frobenius(r - a[:, None] * w[None, :])
    if not residual <= margin:
        return None
    v_raw = a.reshape(d1, d1)
    alpha = np.sqrt(d1) / frobenius(v_raw)
    return residual, v_raw * alpha, w.reshape(d2, d2) / alpha


def _fix_phase(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Make a's first entry with modulus > tol.eps (row-major) real positive,
    exactly its modulus; b takes the opposite phase, so the outer product of
    a and b is unchanged. The phase convention of the factors of every form,
    Product, SwapForm and classify_slice's alike.

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


def _unitarity_bound(form: Product | SwapForm) -> float:
    """An upper bound on ||U^†U - I||_F for every U within the form's residual
    of its reassembly, from the factors x, y alone: O(d³) against U^†U's D³.

    With a = x^†x - I, b = y^†y - I and U = x ⊗ y + E, ||E||_F = r:
    (x ⊗ y)^†(x ⊗ y) - I = a ⊗ I + I ⊗ b + a ⊗ b and ||x ⊗ y||_2² <=
    (1 + ||a||)(1 + ||b||), so U^†U - I is within
    sqrt(d_y)||a|| + sqrt(d_x)||b|| + ||a|| ||b|| + 2 sqrt((1 + ||a||)(1 + ||b||)) r + r².
    It holds for (x ⊗ y)·SWAP as well, SWAP being unitary. Rounding, by
    gamma's rules: ||a|| and ||b|| are linalg.defect_bound of the computed
    defects. r, a norm over D² entries, is raised by the norm rule's
    relative γ_{D²}, and by γ_16·(||x|| ||y|| + r) for the few roundings per
    entry (the per-entry rule) that forming the fit's residual, its alpha
    rescale and _fix_phase put between the factors and the product whose
    residual the fit measured.
    """
    x, y = (form.v, form.w) if isinstance(form, Product) else (form.v21, form.w12)
    a, b = (defect_bound(f, gram_defect(f)) for f in (x, y))
    dx, dy, xy = len(x), len(y), math.sqrt(np.vdot(x, x).real * np.vdot(y, y).real)
    r = form.residual * (1 + gamma((dx * dy) ** 2)) + gamma(16) * (xy + form.residual)
    product_defect = math.sqrt(dy) * a + math.sqrt(dx) * b + a * b
    return product_defect + 2 * math.sqrt((1 + a) * (1 + b)) * r + r * r


def _swap_columns(u: np.ndarray, d: int) -> np.ndarray:
    """u @ SWAP on a d*d bipartite space, as a column permutation."""
    return u.reshape(d * d, d, d).transpose(0, 2, 1).reshape(d * d, d * d)


def _first_hit(
    images: Callable[[int, int], np.ndarray],
    n: int,
    d1: int,
    d2: int,
    margin: float,
    start: int = 0,
) -> tuple[int, float] | None:
    """First index in start..n-1 whose image has second Schmidt coefficient > margin.

    ``images(start, stop)`` returns the (stop - start, d1 * d2) image vectors
    of those candidates. A batch from start ends at 2 * start + 1, or
    _BATCH_CAP candidates on, so memory stays bounded: from 0 batches hold
    1, 2, 4, ... candidates and an early hit costs one candidate's work;
    from 1 every batch but a truncated last one holds at least 2.
    """
    while start < n:
        stop = min(2 * start + 1, start + _BATCH_CAP, n)
        s = np.linalg.svd(images(start, stop).reshape(-1, d1, d2), compute_uv=False)
        above = s[:, 1] > margin
        if above.any():
            k = int(np.argmax(above))
            return start + k, float(s[k, 1])
        start = stop
    return None


def _slice_forms(
    b: np.ndarray, d1: int, d2: int, a: np.ndarray, c: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The two product forms of a slice map B (D x n, column k the image of
    input e_k) whose image 0 is about a ⊗ c, each as (factor, B - prediction),
    the second formed only if asked for: V = (I ⊗ c^†)B, predicting column k
    as V e_k ⊗ c, then W = (a^† ⊗ I)B, predicting a ⊗ W e_k. Each prediction
    is a product of B's columns with a fixed factor, so every image B x of a
    unit x is within ||B - prediction||_2 of a product."""
    n = b.shape[1]
    b3 = b.reshape(d1, d2, n)
    v = c.conj() @ b3
    yield v, b - (v[:, None, :] * c[None, :, None]).reshape(-1, n)
    w = (a.conj() @ b3.reshape(d1, -1)).reshape(d2, n)
    yield w, b - (a[:, None, None] * w[None, :, :]).reshape(-1, n)


def _row_certified(b: np.ndarray, x: np.ndarray, d1: int, d2: int, margin: float) -> bool:
    """True when no image B y of a unit y can have a computed second Schmidt
    coefficient above margin: the row certificate of _grid_hit.

    b is the computed slice map B = U(a ⊗ ·) of one grid row and x = B e_0
    its image 0, whose top singular pair (c from _power_step, c' = x^T c̄
    normalized) fixes both of _slice_forms. Each prediction P maps y to a
    product, so by Weyl's inequality, as in classify_unitary's exclusivity
    argument, sigma_2(B y) <= ||B - P||_2 for unit y. The row is certified
    when the smaller residual r plus the slack γ_{D·(d2 + 1) + 6}·||B||_F is
    <= margin. By linalg.gamma's rules, in units of ||B||_F: the search
    computes each image B y from this b, two nonzero products per entry
    (the gemm rule, γ_2); the candidate SVD has backward error γ_D·||B y||
    (LAPACK's p(d1, d2) taken as D); forming B - P rounds each entry of the
    product P once and of the difference once (the per-entry rule:
    γ_3·||P|| + γ_1·||B||, and ||P|| <= ||B||, P being a projection of B);
    the norm of r <= ||B||_F carries the norm rule's γ_{D·d2}, which the
    spectral norm's SVD stays within. The Frobenius norm
    bounds the spectral one and is tried first; the SVD for ||.||_2 runs
    only where ||.||_F / sqrt(d2) could still pass. A slack >= margin
    certifies nothing, so at margin 0 every row is searched.

    A row of at most 6 candidates (d2 <= 3) is never certified: its
    remaining images cost no more to search than the certificate, even where
    it would certify. Measured with one BLAS thread on row 0 of
    controlled_phase(pi/3, d, d) and of a random diagonal coupling, both
    certified: the certificate takes 37-42 us at d = 2..4, the search of the
    other images 15 us at d = 2 (3 candidates), 33-35 us at d = 3 (6) and
    56-61 us at d = 4 (10). Skipping a row that holds no witness leaves the
    search's hit as it was, so reports do not change.
    """
    if d2 <= 3:
        return False
    room = margin - gamma(d1 * d2 * (d2 + 1) + 6) * frobenius(b)
    if not room > 0:
        return False
    step = _power_step(x)
    if step is None:
        return False
    c = step[0]
    c2 = c.conj() @ x
    for _, residual in _slice_forms(b, d1, d2, c, c2 / np.linalg.norm(c2)):
        frob = frobenius(residual)
        if frob <= room or frob <= room * math.sqrt(d2) and np.linalg.norm(residual, 2) <= room:
            return True
    return False


def _grid_hit(u: np.ndarray, d1: int, d2: int, margin: float) -> tuple[int, int, float] | None:
    """(left row p, right row q, coefficient) of the first grid candidate,
    left row outer, whose image has second Schmidt coefficient > margin.

    Rows are contracted with U two or more per matmul, as many as fill
    _BATCH_CAP candidates. In each row a, image 0 (right factor basis:0) is
    column 0 of the slice B = U(a ⊗ ·) and is tested first, alone; unless
    _row_certified then proves that the row holds no witness, _first_hit
    reaches its images from 1 on, two or more per matmul. The hit and its
    coefficient are those of a candidate-by-candidate search: a skipped
    candidate is provably no hit, and a tested image gets the same bits (a
    lone basis factor copies entries in any matmul, so column 0 is image 0).
    """
    left, right = probe_grid(d1)[1], probe_grid(d2)[1]
    n1, n2 = left.shape[0], right.shape[0]
    dim = d1 * d2
    # U[r, (i, k)] copied to the (d1, D·d2) matrix M[i, (r, k)]: a block of
    # left rows is then one gemm, whose row p reshapes to row p's slice map.
    u_left = u.reshape(dim, d1, d2).transpose(1, 0, 2).reshape(d1, dim * d2)
    block = max(2, _BATCH_CAP // n2)
    for p0 in range(0, n1, block):
        first = min(p0, n1 - 2)
        partial = (left[first : p0 + block] @ u_left).reshape(-1, dim, d2)
        for p in range(p0, min(p0 + block, n1)):
            b = partial[p - first]
            hit = _first_hit(lambda i, j: b.T[i:j], 1, d1, d2, margin)
            if hit is None and not _row_certified(b, b[:, 0].reshape(d1, d2), d1, d2, margin):
                hit = _first_hit(lambda i, j: right[i:j] @ b.T, n2, d1, d2, margin, start=1)
            if hit is not None:
                return p, hit[0], hit[1]
    return None


def _find_witness(
    u: np.ndarray, d1: int, d2: int, margin: float, seed: int, n_samples: int
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """First product input a ⊗ b whose image u(a ⊗ b) has second Schmidt
    coefficient > margin, as (a, b, coefficient); None when no probe has one.

    Probes the superposition grid (e_i + e_j) ⊗ (f_k + f_l), normalized, of
    probe_grid's rows, with the left row as the outer loop (_grid_hit, which
    skips the rows that _row_certified proves hold no witness), then
    n_samples random product inputs drawn from one generator seeded with
    ``seed``.
    """
    if min(d1, d2) == 1:
        return None
    hit = _grid_hit(u, d1, d2, margin)
    if hit is not None:
        p, q, coeff = hit
        return probe_grid(d1)[1][p], probe_grid(d2)[1][q], coeff
    dim = d1 * d2

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

    The witness search uses the same argument on every grid row a, at
    every dimension: with B = U(a ⊗ ·) and P the nearer of its two product
    forms, read off the top singular pair of image 0 (tested first, alone),
    every image U(a ⊗ y) of a unit y is within r = ||B - P||_2 of a
    product. A row whose r plus the rounding slack γ_{D·(d2 + 1) + 6}·||B||_F
    (computed images, candidate SVDs, the computed norm; linalg.gamma's
    rules) is <= m holds no witness and is skipped, which leaves
    the hit, its input and its coefficient as they were (_row_certified).
    At m = 0, or any m the slack reaches, no row is skipped, nor is any row
    of at most 6 candidates (d2 <= 3), which costs less to search than to
    certify.

    The fits run first, on the D² realignment of a U whose unitarity is not
    yet known; a fit whose power step is zero, as on the zero matrix, fails.
    A form's factors then certify unitarity in O(d³): with a = V^†V - I,
    b = W^†W - I and r the residual,
    ||U^†U - I||_F <= sqrt(d2)||a|| + sqrt(d1)||b|| + ||a|| ||b||
    + 2 sqrt((1 + ||a||)(1 + ||b||)) r + r², which the swap form meets too.
    The bound adds the rounding slack of linalg.gamma's rules for forming
    V^†V and W^†W, for the residual's norm, and for the few roundings per
    entry that the fit's rescale by alpha and _fix_phase put between the
    returned factors and the product whose residual was measured.
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
    # A floor: residuals below 1e-9 pass at any tol, which keeps
    # controlled_phase(1e-10) at tol 1e-12 a form (TestSliceAgainstVoteReference).
    check_tol = max(tol.eps, 1e-9)
    forms = _slice_forms(b, d1, d2, a, c)
    v, residual = next(forms)
    local = float(np.linalg.norm(residual, 2))
    if local <= check_tol:
        return LocalOnObject(v, c, local)
    w12, residual = next(forms)
    transfer = float(np.linalg.norm(residual, 2))
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
