"""The rounding bounds of entkit, checked against long double.

Every gemm-, trace- and norm-based bound is recomputed in np.clongdouble
(ε = 1.08e-19 on x86-64, against float64's 2.2e-16) on adversarial inputs:
perturbations at δ in {m/2, m, 2m} of the default margin m = 10·tol, max|w|
near π, and nearly degenerate spectra. Each check compares the observed
error, float64 against long double, with the slack the bound states, and
records the worst observed/stated ratio (printed with ``pytest -s``). Where
the code returns the bound, its stated slack is the bound minus the same
bound with linalg.EPS at 0: every slack comes from linalg.gamma, so that is
the bound without rounding.

Not checked here, because numpy has no long-double LAPACK: the terms that
rest on an SVD's backward error. They are the candidate SVD and the spectral
norm in _row_certified's slack (LAPACK's p taken as D) and the Schmidt
coefficients of the witness search and the profile. The power step enters
no bound through its direction, since any direction gives a valid fit or
prediction; its norm, which enters the fit's early exit, is checked.
"""

import numpy as np
import pytest

from entkit import classify, dynamics, linalg
from entkit.classify import Product, SwapForm, operator_entanglement, realign
from entkit.dynamics import UnitaryPath, path_from_generator, geodesic_path, profile_inputs
from entkit.fixtures import controlled_phase, dressed_swap, haar_product
from entkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    defect_bound,
    exp_i_hermitian,
    gamma,
    gram_defect,
    haar_unitary,
    probe_grid,
    random_hermitian,
    random_state,
    rng_from_seed,
    swap_unitary,
    tensor_product,
    unitarity_defect,
)
from entkit.verify import oracle_non_entangling

M = 10 * DEFAULT_TOL.eps
DELTAS = (M / 2, M, 2 * M)
WORST = {}


@pytest.fixture(scope="module", autouse=True)
def worst_ratios():
    yield
    for name, ratio in sorted(WORST.items()):
        print(f"{name}: worst observed/stated {ratio:.3g}")


def _check(name, observed, stated):
    observed = float(observed)
    assert observed <= stated, (name, observed, stated)
    if stated > 0:
        WORST[name] = max(WORST.get(name, -np.inf), observed / stated)


def _without_rounding(monkeypatch, fn, *args):
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "EPS", 0.0)
        return fn(*args)


def _ld(a):
    return np.asarray(a, dtype=np.clongdouble)


def _norm(a):
    return np.sqrt(np.sum(np.abs(a) ** 2))


def _ld_defect(z):
    z = _ld(z)
    return _norm(z.conj().T @ z - np.eye(z.shape[1]))


def _hermitian_of_norm(d, seed, norm):
    """A random Hermitian with Frobenius norm ``norm``."""
    h = random_hermitian(d, seed)
    return h * (norm / np.linalg.norm(h))


def _gram_cases():
    rng = rng_from_seed(1)
    for d in (4, 16, 64, 160):  # 160: two panels of gram_defect
        u = haar_unitary(d, d)
        yield f"haar-{d}", u
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for delta in DELTAS if d < 160 else DELTAS[2:]:
            yield f"haar-{d}+{delta:g}", u + delta * g / np.linalg.norm(g)
    # Squares that drop their low bits: (1 + η)² rounds to 1 + 2η.
    yield "low-bits", np.diag(1 + 2.0**-27 * (1 + np.arange(16) % 5)).astype(complex)
    # Singular values split by at most m: nearly degenerate.
    s = 1 + M * np.linspace(-1, 1, 32)
    yield "near-degenerate", (haar_unitary(32, 3) * s) @ haar_unitary(32, 4)
    # A tall isometry, as the Kraus check stacks its operators.
    yield "isometry-48x12", haar_unitary(48, 5)[:, :12]


GRAMS = list(_gram_cases())


@pytest.mark.parametrize("name, z", GRAMS, ids=[name for name, _ in GRAMS])
def test_defect_bound_covers_the_exact_defect(name, z):
    # defect_bound states gram_defect's (and unitarity_defect's) rounding.
    computed = gram_defect(z)
    if z.shape[0] == z.shape[1]:
        assert unitarity_defect(z) == computed
    _check("gram_defect", _ld_defect(z) - computed, defect_bound(z, computed) - computed)


def _paths():
    """(name, path): max|w| at or near π, and degenerate or nearly
    degenerate generators."""
    yield "swap-4", geodesic_path(swap_unitary(4), 4, 4)
    yield "dressed-swap-3", geodesic_path(dressed_swap(3, 11)[0], 3, 3)
    yield "haar-generator-6x6", path_from_generator(random_hermitian(36, 7, scale=np.pi), 6, 6)
    for d1, d2, split in ((2, 3, 0.0), (4, 4, M), (8, 8, M)):
        yield f"local-{d1}x{d2}", _local_path(d1, d2, 31, split=split)
    for delta in DELTAS:
        yield f"coupled-4x4-{delta:g}", _local_path(4, 4, 41, coupling=delta)
        p = _local_path(4, 4, 51)
        g = haar_unitary(16, 52) * delta / 4
        yield f"off-unitary-4x4-{delta:g}", UnitaryPath(p.phases, p.vectors + g, p.space)


def _local_path(d1, d2, seed, coupling=0.0, split=0.0):
    """Path of A ⊗ I + I ⊗ B with ||A||_2 = ||B||_2 = π/2, so max|w| is
    near π, plus a Hermitian of Frobenius norm ``coupling``; B's eigenvalues
    come in pairs ``split`` apart."""
    a = random_hermitian(d1, seed, scale=np.pi / 2)
    q = haar_unitary(d2, seed + 1)
    eig = np.repeat(np.linspace(-np.pi / 2, np.pi / 2, (d2 + 1) // 2), 2)[:d2]
    b = (q * (eig + split * (np.arange(d2) % 2))) @ q.conj().T
    h = tensor_product(a, np.eye(d2)) + tensor_product(np.eye(d1), b)
    if coupling:
        h = h + _hermitian_of_norm(d1 * d2, seed + 2, coupling)
    return path_from_generator(h, d1, d2)


PATHS = list(_paths())


@pytest.mark.parametrize("name, path", PATHS, ids=[name for name, _ in PATHS])
def test_grid_images_within_their_stated_rounding(name, path):
    # _grid_images' docstring: (2·γ_D·√D + γ_4·(1 + max|w|))·(1 + δ) for a unit input.
    d1, d2, dim = path.space.d1, path.space.d2, path.space.dim
    vecs = profile_inputs(d1, d2, random_state(d2, 5), 9, 8)[1]
    delta = defect_bound(path.vectors, gram_defect(path.vectors))
    w_max = np.abs(path.phases).max()
    stated = (2 * gamma(dim) * np.sqrt(dim) + gamma(4) * (1 + w_max)) * (1 + delta)
    v, w = _ld(path.vectors), np.asarray(path.phases, dtype=np.longdouble)
    coords = _ld(vecs) @ v.conj()
    n_steps = 8
    images = dynamics._grid_images(path, vecs, n_steps)
    # At t = 0 U_t is exactly the identity, as path_point gives it.
    assert np.array_equal(next(images), vecs)
    for k, images in enumerate(images, start=1):
        exact = (coords * np.exp(1j * (np.longdouble(k) / n_steps) * w)) @ v.T
        errors = np.sqrt(np.sum(np.abs(_ld(images) - exact) ** 2, axis=1))
        _check("_grid_images", errors.max(), stated)


@pytest.mark.parametrize("name, path", PATHS, ids=[name for name, _ in PATHS])
def test_nonlocal_bound_covers_the_exact_distance(name, path, monkeypatch):
    # The exact ||H - P(H)||_F + (max|w| + 1)·δ(2 + δ) of the float64 path.
    d1, d2, dim = path.space.d1, path.space.d2, path.space.dim
    v, w = _ld(path.vectors), np.asarray(path.phases, dtype=np.longdouble)
    h = (v * w) @ v.conj().T
    h4 = h.reshape(d1, d2, d1, d2)
    local = (
        np.einsum("ikjk->ij", h4)[:, None, :, None] * np.eye(d2)[None, :, None, :] / d2
        + np.eye(d1)[:, None, :, None] * np.einsum("kikj->ij", h4)[None, :, None, :] / d1
    ).reshape(dim, dim) - np.trace(h) / dim * np.eye(dim)
    delta = _ld_defect(path.vectors)
    exact = _norm(h - local) + (np.abs(w).max() + 1) * delta * (2 + delta)
    computed = unitarity_defect(path.vectors)
    bound = dynamics._nonlocal_bound(path, computed)
    nominal = _without_rounding(monkeypatch, dynamics._nonlocal_bound, path, computed)
    _check("_nonlocal_bound", exact - nominal, bound - nominal)


def _fit_cases():
    """(name, R, d1, d2): realignments of products, of products perturbed
    at δ, of swaps, and of a nearly degenerate one."""
    for d1, d2 in ((2, 2), (3, 3), (2, 8), (8, 2), (6, 6)):
        u, _, _ = haar_product(d1, d2, 3)
        yield f"product-{d1}x{d2}", realign(u, d1, d2), d1, d2
        for delta in DELTAS:
            near = u @ exp_i_hermitian(_hermitian_of_norm(d1 * d2, 5, delta))
            yield f"product-{d1}x{d2}-{delta:g}", realign(near, d1, d2), d1, d2
    for d in (2, 4):
        u = dressed_swap(d, 7)[0]
        yield f"dressed-swap-{d}", realign(u, d, d), d, d
        yield f"dressed-swap-{d}-swapped", realign(classify._swap_columns(u, d), d, d), d, d
    # R's top two singular values nearly equal: the power step barely
    # separates them.
    u = controlled_phase(np.pi, 4, 4) @ tensor_product(haar_unitary(4, 8), haar_unitary(4, 9))
    yield "controlled-phase-pi-4x4", realign(u, 4, 4), 4, 4


FITS = list(_fit_cases())


@pytest.mark.parametrize("name, r, d1, d2", FITS, ids=[c[0] for c in FITS])
def test_fit_early_exit_difference(name, r, d1, d2, monkeypatch):
    # ||R||² - ||w||² is within γ_{5·d1² + 2·d2² + 3}·||R||² of the exact
    # squared residual of the computed a, w (_rank_one_fit).
    a, col_sq = classify._power_step(r)
    w = a.conj() @ r
    total = col_sq.sum()
    exact = _norm(_ld(r) - _ld(a)[:, None] * _ld(w)[None, :]) ** 2
    slack = gamma(5 * d1 * d1 + 2 * d2 * d2 + 3) * total
    _check("_rank_one_fit early exit", abs(total - np.vdot(w, w).real - exact), slack)
    # At a margin just above the exact residual the fit must not stop early:
    # it goes on to form the residual itself.
    formed = []
    monkeypatch.setattr(classify, "frobenius", lambda x: formed.append(1) or linalg.frobenius(x))
    classify._rank_one_fit(r, d1, d2, float(np.sqrt(exact)) * (1 + 2.0**-50))
    assert formed


def _form_cases():
    """(name, U, d1, d2) within 2m of a product or swap form: exact, scaled
    (non-unitary, where the factor bound is tight), unitarily perturbed and
    additively perturbed."""
    rng = rng_from_seed(2)
    for d1, d2 in ((2, 2), (3, 3), (2, 4), (4, 4)):
        u, _, _ = haar_product(d1, d2, 11)
        yield f"product-{d1}x{d2}", u, d1, d2
        g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        for delta in DELTAS:
            yield f"scaled-{d1}x{d2}-{delta:g}", (1 + delta) * u, d1, d2
            near = u @ exp_i_hermitian(_hermitian_of_norm(d1 * d2, 13, delta))
            yield f"near-{d1}x{d2}-{delta:g}", near, d1, d2
            yield f"additive-{d1}x{d2}-{delta:g}", u + delta * g / np.linalg.norm(g), d1, d2
    for delta in DELTAS:
        yield f"scaled-swap-3-{delta:g}", (1 - delta) * dressed_swap(3, 17)[0], 3, 3
    # Squares that drop their low bits: the computed defects fall below the
    # exact ones, so the bound needs its slack.
    for d in (2, 3, 4):
        yield f"low-bits-{d}x{d}", (1 + 2.0**-27) * np.eye(d * d, dtype=complex), d, d


FORMS = list(_form_cases())


@pytest.mark.parametrize("name, u, d1, d2", FORMS, ids=[c[0] for c in FORMS])
def test_unitarity_bound_covers_the_exact_defect(name, u, d1, d2, monkeypatch):
    form = classify._fit_form(u, d1, d2, Tolerance(1e-6))
    assert isinstance(form, (Product, SwapForm))
    x, y = (form.v, form.w) if isinstance(form, Product) else (form.v21, form.w12)
    for f in (x, y):
        computed = gram_defect(f)
        _check("_unitarity_bound Gram slack", _ld_defect(f) - computed, defect_bound(f, computed) - computed)
    bound = classify._unitarity_bound(form)
    nominal = _without_rounding(monkeypatch, classify._unitarity_bound, form)
    _check("_unitarity_bound", _ld_defect(u) - nominal, bound - nominal)


def _oracle_cases():
    for d1, d2 in ((2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 2)):
        u, _, _ = haar_product(d1, d2, 19)
        yield f"product-{d1}x{d2}", u, d1, d2
        for delta in DELTAS:
            near = u @ exp_i_hermitian(_hermitian_of_norm(d1 * d2, 23, delta))
            yield f"product-{d1}x{d2}-{delta:g}", near, d1, d2
        yield f"haar-{d1}x{d2}", haar_unitary(d1 * d2, 29), d1, d2
    for d in (2, 3, 4):
        yield f"swap-{d}", swap_unitary(d), d, d
        yield f"dressed-swap-{d}", dressed_swap(d, 31)[0], d, d
        # Second singular value of R about m: nearly degenerate with 0.
        yield f"controlled-phase-{d}", controlled_phase(M, d, d), d, d


ORACLE = list(_oracle_cases())


@pytest.mark.parametrize("name, u, d1, d2", ORACLE, ids=[c[0] for c in ORACLE])
def test_oracle_gram_rounding(name, u, d1, d2):
    # oracle_non_entangling's last term bounds E's rounding for any U.
    r = _ld(realign(u, d1, d2))
    g = r.conj().T @ r if d2 <= d1 else r @ r.conj().T
    n = np.trace(g).real
    exact = 1 - _norm(g) ** 2 / (n * n)
    k, side = max(d1, d2) ** 2, min(d1, d2) ** 2
    slack = gamma(4 * k + side * side + 2 * side + 3)
    _check("oracle Gram term", abs(operator_entanglement(u, d1, d2) - exact), slack)
    if exact < 0.01 / (d1 * d2):
        # The tol whose 2q + q² is the exact E: the oracle, within its slack,
        # calls U non-entangling there.
        q = float(exact / (1 + np.sqrt(1 + exact)))
        assert oracle_non_entangling(u, d1, d2, Tolerance(np.sqrt(q * d1 * d2) / 10 * (1 + 1e-12)))


def _rows():
    """(name, u, d1, d2) whose grid rows the witness search certifies or
    searches: exact and nearly product rows, and rows about m from a product."""
    yield "controlled-phase-6x6", controlled_phase(np.pi / 3, 6, 6), 6, 6
    yield "product-4x8", haar_product(4, 8, 37)[0], 4, 8
    for delta in DELTAS:
        u = controlled_phase(delta, 4, 4) @ exp_i_hermitian(_hermitian_of_norm(16, 41, delta))
        yield f"near-product-4x4-{delta:g}", u, 4, 4


ROWS = list(_rows())


@pytest.mark.parametrize("name, u, d1, d2", ROWS, ids=[c[0] for c in ROWS])
def test_row_certificate_gemm_and_norm_terms(name, u, d1, d2):
    # _row_certified's slack, less its SVD term γ_D: γ_2·||B||_F for each
    # searched image, γ_4·||B||_F + γ_{D·d2}·r for the computed residual r.
    dim = d1 * d2
    u_left = u.reshape(dim, d1, d2).transpose(1, 0, 2).reshape(d1, dim * d2)
    right = probe_grid(d2)[1]
    for row in probe_grid(d1)[1]:
        b = (row[None, :] @ u_left).reshape(dim, d2)
        frob = linalg.frobenius(b)
        exact_images = _ld(right) @ _ld(b).T
        errors = np.sqrt(np.sum(np.abs(_ld(right @ b.T) - exact_images) ** 2, axis=1))
        _check("_row_certified images", errors.max(), gamma(2) * frob)
        x = b[:, 0].reshape(d1, d2)
        c = classify._power_step(x)[0]
        c2 = c.conj() @ x
        c2 = c2 / np.linalg.norm(c2)
        forms = classify._slice_forms(b, d1, d2, c, c2)
        v, residual = next(forms)
        prediction = (_ld(v)[:, None, :] * _ld(c2)[None, :, None]).reshape(dim, d2)
        exact = _norm(_ld(b) - prediction)
        stated = gamma(4) * frob + gamma(dim * d2) * linalg.frobenius(residual)
        _check("_row_certified residual", abs(linalg.frobenius(residual) - exact), stated)
        w, residual = next(forms)
        prediction = (_ld(c)[:, None, None] * _ld(w)[None, :, :]).reshape(dim, d2)
        exact = _norm(_ld(b) - prediction)
        stated = gamma(4) * frob + gamma(dim * d2) * linalg.frobenius(residual)
        _check("_row_certified residual", abs(linalg.frobenius(residual) - exact), stated)
