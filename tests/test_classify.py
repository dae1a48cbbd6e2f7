import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entkit import classify
from entkit.bipartite import BipartiteSpace, schmidt_ranks
from entkit.classify import (
    Entangling,
    LocalOnObject,
    Product,
    SwapForm,
    TransferToProbe,
    classify_slice,
    classify_unitary,
    operator_entanglement,
    realign,
    reconstruction_error,
)
from entkit.dynamics import geodesic_path, path_point
from entkit.errors import (
    NonUnitaryError,
    NormalizationError,
    SliceHypothesisError,
    SlicePatternError,
    WitnessSearchError,
)
from entkit.fixtures import (
    PAULI_X,
    PAULI_Z,
    cnot,
    controlled_phase,
    dressed_swap,
    haar_product,
    random_diagonal_coupling,
)
from entkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    exp_i_hermitian,
    gamma,
    haar_unitary,
    probe_grid,
    probe_states,
    random_hermitian,
    random_state,
    require_unitary,
    rng_from_seed,
    slice_map,
    swap_unitary,
    tensor_product,
    unitarity_defect,
)
from entkit.verify import oracle_non_entangling

seeds = st.integers(min_value=0, max_value=2**32 - 1)
E2 = np.eye(2)


class TestRealign:
    def test_identity_is_rank_one(self):
        r = realign(np.eye(4), 2, 2)
        vec_i = np.eye(2).ravel()
        np.testing.assert_allclose(r, np.outer(vec_i, vec_i), atol=1e-15)

    def test_haar_product_seed_2(self):
        u, _, _ = haar_product(3, 3, 2)
        s = np.linalg.svd(realign(u, 3, 3), compute_uv=False)
        assert s[0] > 1.0
        assert s[1] < 1e-12 * s[0]

    def test_cnot_has_two_singular_values(self):
        s = np.linalg.svd(realign(cnot(), 2, 2), compute_uv=False)
        assert np.count_nonzero(s > 1e-12) == 2

    def test_invertible_reshuffle(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = realign(u, 2, 3)
        # undo by the inverse index shuffle
        back = r.reshape(2, 2, 3, 3).transpose(0, 2, 1, 3).reshape(6, 6)
        np.testing.assert_array_equal(back, u)


class TestOperatorSchmidtRank:
    """Inputs whose r nonzero realignment singular values are equal have
    operator entanglement 1 - 1/r: the operator Schmidt rank, read off E."""

    def test_identity(self):
        assert operator_entanglement(np.eye(4), 2, 2) == 0.0

    def test_swap_is_full_rank(self):
        assert operator_entanglement(swap_unitary(2), 2, 2) == 0.75

    def test_cnot(self):
        assert operator_entanglement(cnot(), 2, 2) == 0.5


class TestClassifyUnitary:
    def test_swap(self):
        form = classify_unitary(swap_unitary(2), 2, 2)
        assert isinstance(form, SwapForm)
        np.testing.assert_allclose(form.v21, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(form.w12, np.eye(2), atol=1e-12)

    def test_haar_product_seed_8(self):
        u, v, w = haar_product(2, 3, 8)
        form = classify_unitary(u, 2, 3)
        assert isinstance(form, Product)
        assert reconstruction_error(form, u) < 1e-9
        np.testing.assert_allclose(tensor_product(form.v, form.w), tensor_product(v, w), atol=1e-9)

    def test_cnot_witness(self):
        form = classify_unitary(cnot(), 2, 2)
        assert isinstance(form, Entangling)
        plus = (E2[0] + E2[1]) / np.sqrt(2)
        np.testing.assert_allclose(form.input.vec, np.kron(plus, E2[0]), atol=1e-12)
        assert schmidt_ranks(form.witness.space, form.witness.vec[None]).tolist() == [2]
        assert form.second_coeff > 1e-8

    def test_witness_image_normalized_within_tol(self):
        # Defect 8.0e-4 passes the unitarity check at tol 1e-3; the stored
        # image is U(input) normalized, not a 1.0002-norm vector.
        u = cnot() * (1 + 2e-4)
        form = classify_unitary(u, 2, 2, Tolerance(1e-3))
        assert isinstance(form, Entangling)
        image = u @ form.input.vec
        np.testing.assert_allclose(form.witness.vec, image / np.linalg.norm(image), atol=1e-15)

    def test_controlled_phase_entangling(self):
        for theta in (np.pi / 3, np.pi):
            form = classify_unitary(controlled_phase(theta), 2, 2)
            assert isinstance(form, Entangling)

    def test_probe_side_controlled_coupling(self):
        # Basis products stay product: only the superposition grid and random
        # inputs can expose the entanglement.
        form = classify_unitary(cnot(control_on_object=False), 2, 2)
        assert isinstance(form, Entangling)

    def test_non_unitary_raises(self):
        with pytest.raises(NonUnitaryError):
            classify_unitary(np.diag([1.0, 2.0, 1.0, 1.0]), 2, 2)

    @given(seeds, st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_product_family(self, seed, d):
        u, _, _ = haar_product(d, d, seed)
        form = classify_unitary(u, d, d)
        assert isinstance(form, Product)
        assert reconstruction_error(form, u) < 1e-9

    @given(seeds, st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_dressed_swap_family(self, seed, d):
        u, _, _ = dressed_swap(d, seed)
        form = classify_unitary(u, d, d)
        assert isinstance(form, SwapForm)
        assert reconstruction_error(form, u) < 1e-9


def product_factors(u, d1, d2):
    form = classify_unitary(u, d1, d2)
    assert isinstance(form, Product)
    return form.v, form.w


def swap_factors(u, d):
    form = classify_unitary(u, d, d)
    assert isinstance(form, SwapForm)
    return form.v21, form.w12


class TestDecomposeProduct:
    def test_pivot_exactly_real_positive(self):
        u = tensor_product(np.diag([1j, 1.0]) @ haar_unitary(2, 3), haar_unitary(3, 4))
        v = classify_unitary(u, 2, 3).v
        assert v[0, 0].imag == 0.0 and v[0, 0].real > 0

    def test_identity(self):
        v, w = product_factors(np.eye(4), 2, 2)
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)

    def test_x_tensor_z(self):
        v, w = product_factors(tensor_product(PAULI_X, PAULI_Z), 2, 2)
        np.testing.assert_allclose(v, PAULI_X, atol=1e-12)
        np.testing.assert_allclose(w, PAULI_Z, atol=1e-12)

    def test_haar_round_trip_seed_8(self):
        u, _, _ = haar_product(3, 4, 8)
        v, w = product_factors(u, 3, 4)
        assert np.linalg.norm(u - tensor_product(v, w)) < 1e-9

    def test_factors_unitary(self):
        u, _, _ = haar_product(3, 2, 17)
        v, w = product_factors(u, 3, 2)
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-10
        assert np.linalg.norm(w.conj().T @ w - np.eye(2)) < 1e-10

    def test_rejects_entangling(self):
        assert isinstance(classify_unitary(cnot(), 2, 2), Entangling)


def _svd_split(r, d1, d2):
    """Reference: the factors of the leading singular pair of R, scaled to
    unitary norm (the phase convention does not change the product)."""
    u_s, s, vh = np.linalg.svd(r)
    v, w = u_s[:, 0].reshape(d1, d1), (s[0] * vh[0, :]).reshape(d2, d2)
    alpha = np.sqrt(d1) / np.linalg.norm(v)
    return v * alpha, w / alpha


# Haar products, then U0 exp(i delta H), whose realignment is rank one only
# up to delta.
NEAR_PRODUCTS = {
    **{f"haar-{d1}x{d2}": (haar_product(d1, d2, d1 * d2)[0], d1, d2)
       for d1, d2 in ((2, 2), (2, 3), (3, 2), (4, 4), (5, 3), (8, 8), (16, 16))},
    **{f"delta-{delta:g}": (haar_product(3, 3, 7)[0] @ exp_i_hermitian(random_hermitian(9, 8), delta), 3, 3)
       for delta in (1e-12, 1e-11, 1e-10, 1e-9)},
}


class TestSplitRankOne:
    @pytest.mark.parametrize("case", sorted(NEAR_PRODUCTS))
    def test_no_worse_than_svd_split(self, case):
        u, d1, d2 = NEAR_PRODUCTS[case]
        r = realign(u, d1, d2)
        residual, v, w = classify._rank_one_fit(r, d1, d2, np.inf)
        ref_v, ref_w = _svd_split(r, d1, d2)
        err = np.linalg.norm(u - np.kron(v, w))
        ref = np.linalg.norm(u - np.kron(ref_v, ref_w))
        assert err <= 1.01 * ref + 1e-15, (err, ref)
        # The certificate is the reconstruction error, not a cancelling
        # difference of squared norms.
        assert abs(residual - err) <= 1e-15 + 1e-6 * err, (residual, err)

    @pytest.mark.parametrize("case", sorted(NEAR_PRODUCTS))
    def test_margin_does_not_change_a_passing_fit(self, case):
        # The early exit never rejects a fit whose residual is within the
        # margin, even a margin equal to the residual, and changes no bit.
        u, d1, d2 = NEAR_PRODUCTS[case]
        r = realign(u, d1, d2)
        free = classify._rank_one_fit(r, d1, d2, np.inf)
        tight = classify._rank_one_fit(r, d1, d2, free[0])
        assert tight[0] == free[0]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(tight[1:], free[1:]))
        assert classify._rank_one_fit(r, d1, d2, free[0] * (1 - 1e-3)) is None

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_failing_fit_stops_before_the_outer_product(self, monkeypatch, d):
        norms = []
        monkeypatch.setattr(classify, "frobenius", lambda a: norms.append(a.shape) or 1.0)
        r = realign(haar_unitary(d * d, 30 + d), d, d)
        assert classify._rank_one_fit(r, d, d, 10 * DEFAULT_TOL.eps) is None
        assert norms == []

    def test_zero_power_step_fails(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify._rank_one_fit(np.zeros((9, 9), complex), 3, 3, np.inf) is None


class TestDecompositionCounts:
    @pytest.mark.parametrize(
        "u, d, verdict",
        [
            (haar_product(3, 3, 5)[0], 3, "product"),
            (dressed_swap(3, 6)[0], 3, "swap"),
            (haar_unitary(9, 7), 3, "entangling"),
        ],
        ids=["product", "dressed-swap", "entangling"],
    )
    def test_one_realignment_svd_per_rank_test(self, realignment_svds, u, d, verdict):
        # Each verdict is decided and reported by its certificate. No verdict
        # runs an operator-Schmidt rank test, so none runs a realignment SVD.
        assert classify_unitary(u, d, d).verdict == verdict
        assert realignment_svds == []


def _boundary_sweep():
    """Dressed swaps U0·exp(iδH) across δ, Haar products, Haar and diagonal
    couplings, and points of the SWAP geodesic, some within 1e-9 of SWAP."""
    cases = []
    for d in (2, 3, 4):
        u0, _, _ = dressed_swap(d, 40 + d)
        h = random_hermitian(d * d, 50 + d)
        for delta in np.logspace(-12, -2, 11):
            cases.append((f"dressed-swap:{d}:{delta:.0e}", d, u0 @ exp_i_hermitian(h, delta)))
        cases.append((f"product:{d}", d, haar_product(d, d, 80 + d)[0]))
        cases.append((f"haar:{d}", d, haar_unitary(d * d, 60 + d)))
        cases.append((f"diagonal:{d}", d, random_diagonal_coupling(d, d, 70 + d)))
        path = geodesic_path(swap_unitary(d), d, d)
        for t in (0.25, 0.5, 63 / 64, 1 - 1e-6, 1 - 1e-9, 1.0):
            cases.append((f"swap-geodesic:{d}:{t}", d, path_point(path, t)))
    return cases


class TestCertificates:
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3, 0.5])
    def test_every_verdict_is_its_certificate(self, eps):
        tol, margin = Tolerance(eps), 10 * eps
        if margin >= 1 / np.sqrt(2):
            # No second Schmidt coefficient exceeds 1/sqrt(2): no witness can
            # exist, so any form would pass. The tol itself is refused.
            for label, d, u in _boundary_sweep():
                with pytest.raises(ValueError, match=r"below 1/sqrt\(2\)"):
                    classify_unitary(u, d, d, tol, seed=11)
            return
        verdicts, raised = set(), set()
        for label, d, u in _boundary_sweep():
            try:
                form = classify_unitary(u, d, d, tol, seed=11)
            except WitnessSearchError:
                raised.add(label)
                continue
            verdicts.add(form.verdict)
            if isinstance(form, Entangling):
                image = u @ form.input.vec
                inp = form.input
                assert schmidt_ranks(inp.space, inp.vec[None], tol).tolist() == [1], label
                assert np.linalg.svd(image.reshape(d, d), compute_uv=False)[1] > margin, label
                assert form.second_coeff > margin, label
            else:
                assert reconstruction_error(form, u) <= margin, label
                # A form within the margin leaves no image a witness above it.
                assert classify._find_witness(u, d, d, margin, 11, 64) is None, label
        assert verdicts == {"product", "swap", "entangling"}
        # The band left between the two certificates: residual above the
        # margin, no witness found.
        assert raised == {f"dressed-swap:{d}:{10 * eps:.0e}" for d in (3, 4)}

    def test_loosest_tol_still_witnesses_cnot(self):
        # CNOT's witness has second coefficient 1/sqrt(2), just above 10 * 0.07.
        assert classify_unitary(cnot(), 2, 2, Tolerance(0.07)).verdict == "entangling"
        with pytest.raises(ValueError, match="tol must be below 0.0707"):
            classify_unitary(cnot(), 2, 2, Tolerance(0.0708))

    def test_loose_tol_refused_before_unitarity_check(self, unitarity_checks):
        # A non-unitary input: the tol is refused first, with no D x D work.
        with pytest.raises(ValueError, match="too loose"):
            classify_unitary(np.full((4, 4), 2.0), 2, 2, Tolerance(0.1))
        assert unitarity_checks == []

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_dressed_swap_at_ten_tol_is_swap(self, eps):
        # At δ = 10·tol the swap residual is within the margin 10·tol.
        cases = {label: u for label, _, u in _boundary_sweep()}
        u = cases[f"dressed-swap:2:{10 * eps:.0e}"]
        form = classify_unitary(u, 2, 2, Tolerance(eps), seed=11)
        assert isinstance(form, SwapForm)
        assert reconstruction_error(form, u) <= 10 * eps

    def test_swap_factors_match_swapped_columns(self):
        # The one reshuffle of U reads the same entries as R(U·SWAP).
        u, _, _ = dressed_swap(3, 6)
        form = classify_unitary(u, 3, 3)
        _, v, w = classify._rank_one_fit(realign(classify._swap_columns(u, 3), 3, 3), 3, 3, np.inf)
        v, w = classify._fix_phase(v, w, DEFAULT_TOL)
        assert form.v21.tobytes() == v.tobytes() and form.w12.tobytes() == w.tobytes()


def _perturbed_forms():
    """Haar products and dressed swaps, exact and with entries or factors
    perturbed by 1e-12 ... 1e-6, as (label, u, d1, d2)."""
    cases = []
    for d1, d2 in ((2, 2), (2, 3), (3, 2), (4, 4), (8, 8), (5, 3), (16, 16)):
        cases.append((f"product:{d1}x{d2}", *haar_product(d1, d2, d1 * d2 + 3), d1, d2))
    for d in (2, 3, 4, 8, 16):
        cases.append((f"dressed-swap:{d}", *dressed_swap(d, d + 5), d, d))
    out = []
    for label, u, v, w, d1, d2 in cases:
        out.append((label, u, d1, d2))
        dim = d1 * d2
        rng = rng_from_seed(dim)
        for delta in (1e-12, 1e-9, 1e-6):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            out.append((f"{label}:entries:{delta:g}", u + delta * g, d1, d2))
            gv = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            factors = np.kron(v + delta * gv, w)
            if label.startswith("dressed-swap"):
                factors = classify._swap_columns(factors, d1)
            out.append((f"{label}:factor:{delta:g}", factors, d1, d2))
    return out


class TestUnitarityBound:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_forms_run_no_full_check(self, unitarity_checks, d):
        product, swap = haar_product(d, d, d)[0], dressed_swap(d, d)[0]
        assert isinstance(classify_unitary(product, d, d), Product)
        assert isinstance(classify_unitary(swap, d, d), SwapForm)
        assert isinstance(classify_unitary(haar_product(d, 3, d)[0], d, 3), Product)
        assert unitarity_checks == []

    @pytest.mark.parametrize(
        "u, d1, d2",
        [(haar_unitary(9, 7), 3, 3), (cnot(), 2, 2), (controlled_phase(np.pi / 3, 3, 2), 3, 2)],
        ids=["haar", "cnot", "cphase-3x2"],
    )
    def test_entangling_runs_one_full_check(self, unitarity_checks, u, d1, d2):
        assert classify_unitary(u, d1, d2).verdict == "entangling"
        assert unitarity_checks == [(d1 * d2, d1 * d2)]

    @pytest.mark.parametrize(
        "u",
        [np.diag([1.0, 2.0, 1.0, 1.0, 1.0, 1.0]), 2 * haar_product(2, 3, 4)[0], np.zeros((6, 6))],
        ids=["diag-2", "twice-product", "zero"],
    )
    def test_non_unitary_runs_one_full_check(self, unitarity_checks, u):
        with pytest.raises(NonUnitaryError):
            classify_unitary(u, 2, 3)
        assert unitarity_checks == [(6, 6)]

    @pytest.mark.parametrize("case", _perturbed_forms(), ids=lambda c: c[0])
    def test_bound_covers_the_defect(self, case):
        _, u, d1, d2 = case
        form = classify._fit_form(u, d1, d2, Tolerance(1e-3))
        assert isinstance(form, Product if "product" in case[0] else SwapForm)
        assert classify._unitarity_bound(form) >= unitarity_defect(u)

    def test_bound_above_tol_falls_back_to_the_full_check(self, unitarity_checks):
        # U0·exp(iδH) is unitary, and within the margin of a product, but its
        # residual is too large for the bound to certify that at tol.
        u = haar_product(3, 3, 7)[0] @ exp_i_hermitian(random_hermitian(9, 8), 1e-9)
        fitted = classify._fit_form(u, 3, 3, DEFAULT_TOL)
        assert fitted.residual <= 10 * DEFAULT_TOL.eps
        assert classify._unitarity_bound(fitted) > DEFAULT_TOL.eps > unitarity_defect(u)
        unitarity_checks.clear()
        form = classify_unitary(u, 3, 3)
        assert unitarity_checks == [(9, 9)]
        assert isinstance(form, Product) and form.residual == fitted.residual
        assert form.v.tobytes() == fitted.v.tobytes() and form.w.tobytes() == fitted.w.tobytes()

    @pytest.mark.parametrize(
        "u, d, eps",
        [
            (np.zeros((9, 9)), 3, 1e-9),
            (2 * haar_product(3, 3, 4)[0], 3, 1e-9),
            ((1 + 2e-9) * haar_product(3, 3, 4)[0], 3, 1e-9),
            (np.ones((9, 9)), 3, 1e-9),
            (np.full((4, 4), 2.0), 2, 0.05),
        ],
        ids=["zero", "twice-product", "scaled-product", "all-ones", "all-twos"],
    )
    def test_degenerate_inputs_raise_the_full_check_error(self, u, d, eps):
        # Inputs the fits now see before unitarity is known: the fits fail or
        # their bound does, and the full check's error comes out, warning-free.
        message = f"input is not unitary: defect {unitarity_defect(u):.3e}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitaryError, match=f"^{re.escape(message)}$"):
                classify_unitary(u, d, d, Tolerance(eps))


class TestResidualField:
    @pytest.mark.parametrize(
        "u, d1, d2, kind",
        [
            (haar_product(2, 3, 1)[0], 2, 3, Product),
            (swap_unitary(3), 3, 3, SwapForm),
            (dressed_swap(2, 2)[0], 2, 2, SwapForm),
        ],
        ids=["product", "swap", "dressed-swap"],
    )
    def test_residual_is_reconstruction_error(self, u, d1, d2, kind):
        form = classify_unitary(u, d1, d2)
        assert isinstance(form, kind)
        assert abs(form.residual - reconstruction_error(form, u)) <= 1e-12


class TestDecomposeSwap:
    def test_swap(self):
        v21, w12 = swap_factors(swap_unitary(3), 3)
        np.testing.assert_allclose(v21, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(w12, np.eye(3), atol=1e-12)

    def test_dressed_round_trip_seed_13(self):
        u, a, b = dressed_swap(2, 13)
        v21, w12 = swap_factors(u, 2)
        assert np.linalg.norm(u - tensor_product(v21, w12) @ swap_unitary(2)) < 1e-9
        # factors match the construction up to a reciprocal phase
        overlap = abs(np.trace(a.conj().T @ v21))
        assert abs(overlap - 2.0) < 1e-9

    def test_swap_times_local_phase(self):
        u = swap_unitary(2) @ tensor_product(np.diag([1.0, 1j]), np.eye(2))
        v21, w12 = swap_factors(u, 2)
        assert np.linalg.norm(u - tensor_product(v21, w12) @ swap_unitary(2)) < 1e-9

    def test_rejects_product(self):
        assert isinstance(classify_unitary(np.eye(4), 2, 2), Product)


class TestClassifySlice:
    def test_identity_any_phi0(self):
        phi0 = random_state(3, 11)
        form = classify_slice(np.eye(6), 2, 3, phi0)
        assert isinstance(form, LocalOnObject)
        np.testing.assert_allclose(form.v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(form.phi_prime, phi0, atol=1e-12)

    def test_swap_slice(self):
        form = classify_slice(swap_unitary(2), 2, 2, E2[0])
        assert isinstance(form, TransferToProbe)
        np.testing.assert_allclose(form.w12, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(form.phi_prime, E2[0], atol=1e-12)

    def test_haar_product_seed_21(self):
        u, v, w = haar_product(3, 3, 21)
        phi0 = random_state(3, 210)
        form = classify_slice(u, 3, 3, phi0)
        assert isinstance(form, LocalOnObject)
        # recovered isometry equals V up to a global phase
        overlap = abs(np.trace(v.conj().T @ form.v))
        assert abs(overlap - 3.0) < 1e-9
        # phi_prime is W phi0 up to the same phase freedom
        assert abs(abs(np.vdot(w @ phi0, form.phi_prime)) - 1.0) < 1e-10

    def test_swap_slice_random_phi0(self):
        u, a, b = dressed_swap(3, 5)
        phi0 = random_state(3, 55)
        form = classify_slice(u, 3, 3, phi0)
        assert isinstance(form, TransferToProbe)
        assert np.linalg.norm(form.w12.conj().T @ form.w12 - np.eye(3)) < 1e-10

    def test_unequal_dims_tall_isometry(self):
        # Probe strictly larger than the object: split the probe as C2 ⊗ C2
        # and swap the object into its first half. The slice transfers the
        # object state through a 4 x 2 isometry.
        u = np.zeros((8, 8), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    u[b * 4 + a * 2 + c, a * 4 + b * 2 + c] = 1.0
        phi0 = np.eye(4)[0]
        form = classify_slice(u, 2, 4, phi0)
        assert isinstance(form, TransferToProbe)
        assert form.w12.shape == (4, 2)
        assert np.linalg.norm(form.w12.conj().T @ form.w12 - np.eye(2)) < 1e-12
        np.testing.assert_allclose(form.w12[:, 0], np.eye(4)[0], atol=1e-12)
        np.testing.assert_allclose(form.w12[:, 1], np.eye(4)[2], atol=1e-12)

    def test_object_control_cnot_violates_hypothesis(self):
        with pytest.raises(SliceHypothesisError) as exc:
            classify_slice(cnot(control_on_object=True), 2, 2, E2[0])
        assert exc.value.indices == (0, 1)

    def test_probe_control_cnot_is_local_identity(self):
        form = classify_slice(cnot(control_on_object=False), 2, 2, E2[0])
        assert isinstance(form, LocalOnObject)
        np.testing.assert_allclose(form.v, np.eye(2), atol=1e-12)

    def test_probe_control_cnot_other_slice_applies_x(self):
        form = classify_slice(cnot(control_on_object=False), 2, 2, E2[1])
        assert isinstance(form, LocalOnObject)
        np.testing.assert_allclose(np.abs(form.v), PAULI_X, atol=1e-12)

    def test_hypothesis_violation_at_superposition_pair(self):
        # CZ with phi0 = |+>: both basis images stay product, but the pair
        # superposition does not, and the report names the pair.
        u = controlled_phase(np.pi)
        plus = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(SliceHypothesisError) as exc:
            classify_slice(u, 2, 2, plus)
        assert exc.value.indices == (0, 1)

    def test_hypothesis_violation_at_basis_vector(self):
        # sqrt(SWAP) entangles the basis input e1 ⊗ f0 directly.
        s = swap_unitary(2)
        root = (np.eye(4) + s) / 2 + 1j * (np.eye(4) - s) / 2
        with pytest.raises(SliceHypothesisError) as exc:
            classify_slice(root, 2, 2, E2[0])
        assert exc.value.indices == (1,)

    def test_pair_product_but_off_form_is_pattern_error(self):
        # At tol 1e-3 the pair image is product within tol while its
        # deviation from the assembled form (about 1.3e-3) is not.
        plus = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(SlicePatternError):
            classify_slice(controlled_phase(0.0036), 2, 2, plus, Tolerance(1e-3))

    def test_scaled_swap_within_tol(self):
        # Defect 8.0e-4 passes the unitarity check at tol 1e-3; the images'
        # norm 1.0002 must not trip a fixed-floor norm check.
        form = classify_slice(swap_unitary(2) * (1 + 2e-4), 2, 2, E2[0], Tolerance(1e-3))
        assert isinstance(form, TransferToProbe)
        np.testing.assert_allclose(form.w12, np.eye(2) * (1 + 2e-4), atol=1e-15)

    def test_phi0_norm_follows_tol(self):
        phi0 = E2[0] * (1 + 1e-10)
        classify_slice(swap_unitary(2), 2, 2, phi0)
        with pytest.raises(NormalizationError):
            classify_slice(swap_unitary(2), 2, 2, phi0, Tolerance(1e-12))


def _vote_classify_slice(u, d1, d2, phi0, tol):
    """The vote-based slice classifier of entkit 0.5.0, kept as a reference.

    Factors each basis image by its own SVD (a product when one singular
    value exceeds tol), votes every image against image 0 at threshold
    sqrt(tol), assembles the voted form from the factors, then checks pairs
    and the isometry as classify_slice did before 0.10.0. Its forms carry a
    NaN residual: only their outcome is compared, each factor up to a phase.
    """
    u = classify._check_shape(u, d1, d2)
    require_unitary(u, tol, "input")
    b = slice_map(u, d1, d2, phi0)

    def factor(indices):
        image = b[:, indices].sum(axis=1) / np.sqrt(len(indices))
        x, s, yh = np.linalg.svd(image.reshape(d1, d2))
        if np.count_nonzero(s > tol.eps) != 1:
            raise SliceHypothesisError("not a product", indices)
        return x[:, 0], yh[0]

    lefts, rights = zip(*(factor((i,)) for i in range(d1)))
    if d1 == 1:
        return LocalOnObject(np.array([[1.0 + 0j]]), rights[0] * lefts[0][0], np.nan)
    decide_tol = np.sqrt(max(tol.eps, 1e-300))
    left_votes = right_votes = 0
    for i in range(1, d1):
        lo = abs(np.vdot(lefts[0], lefts[i]))
        ro = abs(np.vdot(rights[0], rights[i]))
        if lo <= decide_tol and ro <= decide_tol:
            factor((0, i))
            raise SlicePatternError("both factor systems orthogonal")
        if lo <= decide_tol:
            left_votes += 1
        elif ro <= decide_tol:
            right_votes += 1
        else:
            raise SlicePatternError("neither factor system orthogonal")
    if left_votes and right_votes:
        raise SlicePatternError("inconsistent votes")
    if left_votes:
        phi_prime = rights[0]
        iso = np.stack([np.vdot(phi_prime, rights[i]) * lefts[i] for i in range(d1)], axis=1)
        form = LocalOnObject(iso, phi_prime, np.nan)
        predicted = (iso[:, None, :] * phi_prime[None, :, None]).reshape(-1, d1)
    else:
        phi_prime = lefts[0]
        iso = np.stack([np.vdot(phi_prime, lefts[i]) * rights[i] for i in range(d1)], axis=1)
        form = TransferToProbe(phi_prime, iso, np.nan)
        predicted = (phi_prime[:, None, None] * iso[None, :, :]).reshape(-1, d1)
    check_tol = max(tol.eps, 1e-9)
    r = b - predicted
    for i in range(d1 - 1):
        deviation = np.linalg.norm(r[:, i, None] + r[:, i + 1 :], axis=0) / np.sqrt(2)
        bad = np.flatnonzero(deviation > check_tol)
        if bad.size:
            factor((i, i + 1 + int(bad[0])))
            raise SlicePatternError("pair deviates")
    if np.linalg.norm(iso.conj().T @ iso - np.eye(d1)) > check_tol:
        raise SlicePatternError("not an isometry")
    return form


def _slice_outcome(classifier, u, d1, d2, phi0, tol):
    """(form or error class, indices, phi', isometry) of one slice call."""
    try:
        form = classifier(u, d1, d2, phi0, tol)
    except SliceHypothesisError as exc:
        return "hypothesis", exc.indices, None, None
    except SlicePatternError:
        return "pattern", None, None, None
    iso = form.v if isinstance(form, LocalOnObject) else form.w12
    return form.form, None, form.phi_prime, iso


def _phase_aligned(a, b):
    overlap = np.vdot(a.ravel(), b.ravel())
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(b - phase * a))


class TestSliceAgainstVoteReference:
    """Projection onto image 0's factors against the 0.5.0 vote, over product,
    Haar, diagonal, controlled-phase and dressed-swap couplings, perturbed to
    U·exp(iδH), three probe vectors and tol from 1e-12 to 1e-3."""

    DELTAS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
    TOLS = (1e-12, 1e-9, 1e-6, 1e-3)

    @pytest.mark.parametrize("d1,d2", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 4)])
    def test_same_outcomes(self, d1, d2):
        seed = 10 * d1 + d2
        couplings = [
            haar_product(d1, d2, seed)[0],
            haar_unitary(d1 * d2, seed),
            random_diagonal_coupling(d1, d2, seed),
            controlled_phase(0.3, d1, d2),
            # Product basis images, pair deviation between tol and 1e-9.
            controlled_phase(1e-10, d1, d2),
        ]
        if d1 == d2:
            couplings.append(dressed_swap(d1, seed)[0])
        h = random_hermitian(d1 * d2, seed + 1)
        phis = (np.eye(d2)[0], np.ones(d2) / np.sqrt(d2), random_state(d2, seed + 2))
        for u0, delta, phi0, eps in itertools.product(couplings, self.DELTAS, phis, self.TOLS):
            u = u0 @ exp_i_hermitian(h, delta)
            tol = Tolerance(eps)
            want = _slice_outcome(_vote_classify_slice, u, d1, d2, phi0, tol)
            got = _slice_outcome(classify_slice, u, d1, d2, phi0, tol)
            assert got[:2] == want[:2], (delta, eps)
            if got[2] is not None:
                # The vote keeps each image's leading Schmidt term; the
                # projection also takes the second term's overlap with the
                # factor of image 0, of order delta².
                bound = 1e-12 + delta**2
                assert _phase_aligned(want[2], got[2]) < bound
                assert _phase_aligned(want[3], got[3]) < bound

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    @pytest.mark.parametrize("case", ["identity-1x2", "swap-2x2", "identity-4x2"])
    def test_phi0_norm_slack_within_tol(self, case, eps, sign):
        # | ||phi0|| - 1 | = 0.9 tol passes the norm check, so the form the
        # vote returned must still come back, not a SlicePatternError.
        u, d1, d2, phi0 = {
            "identity-1x2": (np.eye(2), 1, 2, np.eye(2)[0]),
            "swap-2x2": (swap_unitary(2), 2, 2, np.eye(2)[0]),
            "identity-4x2": (np.eye(8), 4, 2, np.ones(2) / np.sqrt(2)),
        }[case]
        phi0 = phi0 * (1 + sign * 0.9 * eps)
        tol = Tolerance(eps)
        want = _slice_outcome(_vote_classify_slice, u, d1, d2, phi0, tol)
        got = _slice_outcome(classify_slice, u, d1, d2, phi0, tol)
        assert want[0] in ("local_on_object", "transfer_to_probe")
        assert got[0] == want[0]
        assert _phase_aligned(want[2], got[2]) < 1e-12
        assert _phase_aligned(want[3], got[3]) < 1e-12

    def test_loose_tol_names_first_row_major_pair(self):
        # At tol 0.1 no form fits this diagonal coupling; the vote reported
        # pair (0, 2), the first row-major non-product pair is (0, 1).
        u, plus = random_diagonal_coupling(3, 2, 0), np.ones(2) / np.sqrt(2)
        tol = Tolerance(0.1)
        assert _slice_outcome(_vote_classify_slice, u, 3, 2, plus, tol)[:2] == ("hypothesis", (0, 2))
        with pytest.raises(SliceHypothesisError) as exc:
            classify_slice(u, 3, 2, plus, tol)
        assert exc.value.indices == (0, 1)
        b = slice_map(u, 3, 2, plus)
        pair = (b[:, 0] + b[:, 1]) / np.sqrt(2)
        assert schmidt_ranks(BipartiteSpace(3, 2), pair[None], tol).tolist() == [2]


def _kron_spectral_residual(form, u, d1, phi0):
    """||B - P||_2 with B and the prediction P built column by column from
    Kronecker products."""
    eye = np.eye(d1)
    b = np.stack([u @ np.kron(eye[i], phi0) for i in range(d1)], axis=1)
    if isinstance(form, LocalOnObject):
        p = np.stack([np.kron(form.v @ eye[i], form.phi_prime) for i in range(d1)], axis=1)
    else:
        p = np.stack([np.kron(form.phi_prime, form.w12 @ eye[i]) for i in range(d1)], axis=1)
    return float(np.linalg.svd(b - p, compute_uv=False)[0])


class TestSliceMapAgainstKron:
    @pytest.mark.parametrize("d1,d2", [(2, 3), (3, 2), (3, 4), (4, 4)])
    def test_images_and_residual(self, d1, d2):
        seed = 10 * d1 + d2
        u, phi0 = haar_unitary(d1 * d2, seed), random_state(d2, seed + 1)
        b = slice_map(u, d1, d2, phi0)
        eye = np.eye(d1)
        for i in range(d1):
            assert np.abs(b[:, i] - u @ np.kron(eye[i], phi0)).max() < 1e-13
            for j in range(i + 1, d1):
                pair = (b[:, i] + b[:, j]) / np.sqrt(2)
                want = u @ np.kron((eye[i] + eye[j]) / np.sqrt(2), phi0)
                assert np.abs(pair - want).max() < 1e-13
        # Perturbed by 1e-10, so each residual is well above rounding.
        h = random_hermitian(d1 * d2, seed + 2)
        couplings = [(haar_product(d1, d2, seed)[0], LocalOnObject)]
        if d1 == d2:
            couplings.append((dressed_swap(d1, seed)[0], TransferToProbe))
        for u0, form_type in couplings:
            u = u0 @ exp_i_hermitian(h, 1e-10)
            form = classify_slice(u, d1, d2, phi0, Tolerance(1e-8))
            assert isinstance(form, form_type)
            assert form.residual > 1e-12
            assert abs(form.residual - _kron_spectral_residual(form, u, d1, phi0)) < 1e-13


def _leak_coupling(eps):
    """exp(iεH) on 3 x 2 with H = |e0 f1><a| + h.c., a = e1 f0 - e2 f0.

    The slice at f0 is local up to the unit input (e1 - e2)/sqrt(2) ⊗ f0, whose
    image has second Schmidt coefficient sin(sqrt(2) ε); pair inputs see at
    most half of it.
    """
    e0f1, a = np.zeros(6), np.zeros(6)
    e0f1[1] = 1.0
    a[2], a[4] = 1.0, -1.0
    h = np.outer(e0f1, a)
    return exp_i_hermitian(h + h.T, eps)


class TestSliceCertificate:
    F0 = np.array([1.0, 0.0])

    def test_worst_unit_input_beyond_tol_refuses_form(self):
        # The pair rule of entkit 0.9.0 returned LocalOnObject here.
        with pytest.raises(SlicePatternError) as exc:
            classify_slice(_leak_coupling(0.9e-3), 3, 2, self.F0, Tolerance(1e-3))
        assert "off by 1.273e-03" in str(exc.value)

    def test_residual_is_worst_second_coefficient(self):
        u = _leak_coupling(0.6e-3)
        form = classify_slice(u, 3, 2, self.F0, Tolerance(1e-3))
        assert isinstance(form, LocalOnObject)
        worst = u @ np.kron(np.array([0.0, 1.0, -1.0]) / np.sqrt(2), self.F0)
        second = np.linalg.svd(worst.reshape(3, 2), compute_uv=False)[1]
        assert abs(form.residual - second) < 1e-12
        assert abs(form.residual - 8.485e-4) < 1e-7


def _oracle_threshold(d1, d2, tol=DEFAULT_TOL):
    """θ of verify.oracle_non_entangling, restated: 2m²/D + (m²/D)² + γ_{4k + g² + 2g + 3}
    with k = max(d1, d2)² and g = min(d1, d2)²."""
    q = (10 * tol.eps) ** 2 / (d1 * d2)
    k, g = max(d1, d2) ** 2, min(d1, d2) ** 2
    return 2 * q + q * q + gamma(4 * k + g * g + 2 * g + 3)


def _sampled_images_are_product(u, d1, d2, n_samples, seed):
    """Brute force, sharing no code with the classifier or the oracle: the image
    of every sampled product input has second Schmidt coefficient <= 1e-12."""
    rng = rng_from_seed(seed)
    a = rng.standard_normal((n_samples, d1)) + 1j * rng.standard_normal((n_samples, d1))
    b = rng.standard_normal((n_samples, d2)) + 1j * rng.standard_normal((n_samples, d2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    images = np.einsum("kl,nl->nk", u, np.einsum("ni,nj->nij", a, b).reshape(n_samples, -1))
    return np.linalg.svd(images.reshape(n_samples, d1, d2), compute_uv=False)[:, 1].max() <= 1e-12


class TestBruteForce:
    def test_identity(self):
        assert _sampled_images_are_product(np.eye(4), 2, 2, 100, 0)
        assert oracle_non_entangling(np.eye(4), 2, 2, DEFAULT_TOL)

    def test_haar_product_500_samples(self):
        u, _, _ = haar_product(2, 2, 8)
        assert _sampled_images_are_product(u, 2, 2, 500, 8)
        assert oracle_non_entangling(u, 2, 2, DEFAULT_TOL)
        assert not _sampled_images_are_product(cnot(), 2, 2, 500, 8)


class TestOperatorEntanglement:
    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 3), (4, 4), (2, 3), (4, 2)])
    def test_identity_and_products_within_threshold(self, d1, d2):
        theta = _oracle_threshold(d1, d2)
        assert operator_entanglement(np.eye(d1 * d2), d1, d2) <= theta
        for seed in range(5):
            u, _, _ = haar_product(d1, d2, seed)
            assert operator_entanglement(u, d1, d2) <= theta

    def test_cnot_is_one_half(self):
        assert operator_entanglement(cnot(), 2, 2) == 0.5

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap(self, d):
        assert operator_entanglement(swap_unitary(d), d, d) == pytest.approx(1 - 1 / d**2, rel=1e-15)

    def test_scale_invariant(self):
        assert operator_entanglement(2 * cnot(), 2, 2) == operator_entanglement(cnot(), 2, 2)

    def test_zero_matrix_is_refused(self):
        with pytest.raises(ValueError, match="zero matrix"):
            operator_entanglement(np.zeros((4, 4)), 2, 2)

    def test_oracle_runs_no_witness_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle ran the witness search")

        monkeypatch.setattr(classify, "_find_witness", refuse)
        assert not oracle_non_entangling(cnot(), 2, 2, DEFAULT_TOL)
        assert oracle_non_entangling(swap_unitary(3), 3, 3, DEFAULT_TOL)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_oracle_agrees_with_classifier(self, seed):
        d1, d2 = (2, 2) if seed % 2 else (2, 3)
        if seed % 3 == 0:
            u, _, _ = haar_product(d1, d2, seed)
        elif seed % 3 == 1 and d1 == d2:
            u, _, _ = dressed_swap(d1, seed)
        else:
            u = haar_unitary(d1 * d2, seed)
        form = classify_unitary(u, d1, d2, seed=seed)
        assert isinstance(form, (Product, SwapForm)) == oracle_non_entangling(u, d1, d2, DEFAULT_TOL)


class TestEqualDimensionConstraint:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_never_swap_for_unequal_dims(self, seed):
        for d1, d2 in ((2, 3), (3, 2), (2, 4)):
            u, _, _ = haar_product(d1, d2, seed)
            assert not isinstance(classify_unitary(u, d1, d2, seed=seed), SwapForm)
            gen = haar_unitary(d1 * d2, seed)
            assert not isinstance(classify_unitary(gen, d1, d2, seed=seed), SwapForm)


def _reference_first_hit(u, d1, d2, margin, candidates):
    """Per-candidate loop: one input, one matvec, one SVD at a time."""
    for a, b in candidates:
        s = np.linalg.svd((u @ np.kron(a, b)).reshape(d1, d2), compute_uv=False)
        if s[1] > margin:
            return a, b, float(s[1])
    return None


def _grid_candidates(d1, d2):
    eye1, eye2 = np.eye(d1), np.eye(d2)
    for i in range(d1):
        for j in range(i, d1):
            a = (eye1[i] + eye1[j]) / np.linalg.norm(eye1[i] + eye1[j])
            for k in range(d2):
                for l in range(k, d2):
                    yield a, (eye2[k] + eye2[l]) / np.linalg.norm(eye2[k] + eye2[l])


ENGINE_MARGIN = 10 * DEFAULT_TOL.eps


def _straddling_coupling(d, margin, gap):
    """Diagonal coupling with phases only in rows e_1 and e_2 of the left
    factor: phases (0, +x, -x, 0, ...) on the right basis, x = 2 arcsin(r),
    give grid row pair:0:1 the residual r = margin·(1 - gap) and row pair:0:2
    r = margin·(1 + gap); each row's best candidate, pair:1:2, reaches about
    r·cos(x/2), so the hit is in row pair:0:2."""
    phases = np.zeros((d, d))
    for row, r in ((1, margin * (1 - gap)), (2, margin * (1 + gap))):
        x = 2 * np.arcsin(r)
        phases[row, 1:3] = x, -x
    return np.diag(np.exp(1j * phases.ravel()))


ENGINE_CASES = {
    "cnot": (cnot(), 2, 2, ENGINE_MARGIN),
    "cnot-probe-control": (cnot(control_on_object=False), 2, 2, ENGINE_MARGIN),
    "cphase-3x3": (controlled_phase(np.pi / 3, 3, 3), 3, 3, ENGINE_MARGIN),
    "cphase-8x8": (controlled_phase(np.pi / 3, 8, 8), 8, 8, ENGINE_MARGIN),
    "haar-2x3": (haar_unitary(6, 31), 2, 3, ENGINE_MARGIN),
    "haar-4x4": (haar_unitary(16, 44), 4, 4, ENGINE_MARGIN),
    # Rows 0-14 are certified products; the hit is in row 15, pair:0:15.
    "cphase-16x16": (controlled_phase(np.pi / 3, 16, 16), 16, 16, ENGINE_MARGIN),
    "diagonal-8x8": (random_diagonal_coupling(8, 8, 3), 8, 8, ENGINE_MARGIN),
    # Row 0 maps e_0 ⊗ y to D_0 y ⊗ e_0: certified by the form that moves
    # the right input to the left factor.
    "swap-diagonal-6x6": (swap_unitary(6) @ random_diagonal_coupling(6, 6, 2), 6, 6, ENGINE_MARGIN),
    "straddling-6x6": (_straddling_coupling(6, 1e-3, 1e-3), 6, 6, 1e-3),
    # Margin 0 certifies no row: the hit is a rounding residue in row 1.
    "cphase-8x8-margin-0": (controlled_phase(np.pi / 3, 8, 8), 8, 8, 0.0),
    # Thin and odd factors: 3 rows of 528 candidates, 15 rows of 15 and
    # 6 rows of 10.
    "cphase-2x32": (controlled_phase(np.pi / 3, 2, 32), 2, 32, ENGINE_MARGIN),
    "cphase-5x5": (controlled_phase(np.pi / 3, 5, 5), 5, 5, ENGINE_MARGIN),
    "diagonal-3x4": (random_diagonal_coupling(3, 4, 5), 3, 4, ENGINE_MARGIN),
}


def _row_slices(u, d1, d2):
    """Each grid row's slice map U(a ⊗ ·), D x d2, and its image 0."""
    u3 = u.reshape(d1 * d2, d1, d2)
    for a in probe_grid(d1)[1]:
        b = np.einsum("i,jik->jk", a, u3)
        yield b, b[:, 0].reshape(d1, d2)


def _form_residuals(b, x, d1, d2):
    """Spectral residuals of the two row forms: (V ⊗ c', c ⊗ W)."""
    c = classify._power_step(x)[0]
    c2 = c.conj() @ x
    forms = classify._slice_forms(b, d1, d2, c, c2 / np.linalg.norm(c2))
    return [np.linalg.norm(r, 2) for _, r in forms]


class TestWitnessEngine:
    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_grid_matches_reference_loop(self, case, cap, monkeypatch):
        if cap is not None:
            # Batches of at most 3 cross chunk and grid-row boundaries.
            monkeypatch.setattr(classify, "_BATCH_CAP", cap)
        u, d1, d2, margin = ENGINE_CASES[case]
        want = _reference_first_hit(u, d1, d2, margin, _grid_candidates(d1, d2))
        got = classify._find_witness(u, d1, d2, margin, seed=0, n_samples=0)
        assert want is not None and got is not None
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert abs(got[2] - want[2]) < 1e-12

    def test_straddling_rows_certified_below_margin_only(self):
        margin, gap = 1e-3, 1e-3
        u = _straddling_coupling(6, margin, gap)
        rows = list(_row_slices(u, 6, 6))
        for p, r in ((1, margin * (1 - gap)), (2, margin * (1 + gap))):
            b, x = rows[p]
            residual = min(_form_residuals(b, x, 6, 6))
            assert abs(residual - r) < 1e-12
            # Its Frobenius norm is sqrt(2) r, above the margin: only the
            # spectral norm certifies row 1.
            assert classify._row_certified(b, x, 6, 6, margin) == (p == 1)

    @pytest.mark.parametrize(
        "u, form",
        [
            (controlled_phase(np.pi / 3, 6, 6), 1),
            (swap_unitary(6) @ random_diagonal_coupling(6, 6, 2), 0),
        ],
    )
    def test_each_form_certifies_its_rows(self, u, form):
        # Row 0 of a controlled coupling keeps the right input on the right
        # (c ⊗ W); after a swap it moves to the left (V ⊗ c').
        b, x = next(_row_slices(u, 6, 6))
        residuals = _form_residuals(b, x, 6, 6)
        assert residuals[form] < 1e-14 and residuals[1 - form] > 0.5
        assert classify._row_certified(b, x, 6, 6, ENGINE_MARGIN)

    def test_slack_at_or_above_margin_certifies_nothing(self):
        # Row 0 of a controlled phase is an exact product: certified at the
        # default margin, never at 0 or at a margin below the rounding slack.
        b, x = next(_row_slices(controlled_phase(np.pi / 3, 8, 8), 8, 8))
        assert classify._row_certified(b, x, 8, 8, ENGINE_MARGIN)
        for margin in (0.0, 1e-14):
            assert not classify._row_certified(b, x, 8, 8, margin)

    @pytest.mark.parametrize(
        "d1, d2", [(2, 2), (2, 4), (4, 2), (3, 4), (4, 4), (5, 5), (6, 6), (8, 8), (2, 32)]
    )
    def test_certificates_at_every_dimension(self, d1, d2, monkeypatch):
        # Every dimension reaches the certificate, the verify corpus (d <= 4)
        # and thin factors included; it certifies rows of more than 6
        # candidates (d2 >= 4) and no shorter row.
        calls = []
        real = classify._row_certified
        monkeypatch.setattr(
            classify, "_row_certified", lambda *args: calls.append(real(*args)) or calls[-1]
        )
        u = controlled_phase(np.pi / 3, d1, d2)
        assert classify._find_witness(u, d1, d2, ENGINE_MARGIN, seed=0, n_samples=0) is not None
        assert calls
        assert any(calls) == (d2 >= 4)

    def test_certified_rows_svd_few_matrices(self, monkeypatch):
        svd = np.linalg.svd
        matrices = []

        def counting_svd(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        u = controlled_phase(np.pi / 2, 24, 24)
        a, b, coeff = classify._find_witness(u, 24, 24, ENGINE_MARGIN, seed=0, n_samples=0)
        # The uncertified engine SVD'd 7167 images before this hit.
        assert sum(matrices) < 100
        monkeypatch.setattr(np.linalg, "svd", svd)
        pair = (np.eye(24)[0] + np.eye(24)[23]) / np.sqrt(2)
        np.testing.assert_array_equal(a, pair)
        np.testing.assert_array_equal(b, pair)
        want = np.linalg.svd((u @ np.kron(pair, pair)).reshape(24, 24), compute_uv=False)[1]
        assert abs(coeff - want) < 1e-12

    @pytest.mark.parametrize("cap", [None, 3])
    def test_random_tail_matches_reference_loop(self, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(classify, "_BATCH_CAP", cap)
        # A grid search that finds nothing leaves the random tail alone.
        # With this seed and margin the first ten random inputs fall short,
        # so the hit is the eleventh, past several batch boundaries.
        monkeypatch.setattr(classify, "_grid_hit", lambda *args: None)
        u, d1, d2, seed, n = controlled_phase(np.pi / 3, 3, 3), 3, 3, 21, 40
        rng = rng_from_seed(seed)
        _, a = probe_states(d1, rng, n, grid=False)
        _, b = probe_states(d2, rng, n, grid=False)
        margin = 0.2
        want = _reference_first_hit(u, d1, d2, margin, zip(a, b))
        got = classify._find_witness(u, d1, d2, margin, seed, n)
        assert want is not None and got is not None
        np.testing.assert_array_equal(got[0], a[10])
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert abs(got[2] - want[2]) < 1e-12

    def test_random_tail_deterministic_unit_norm(self):
        draw = lambda seed: probe_states(3, rng_from_seed(seed), 50, grid=False)[1]
        np.testing.assert_array_equal(draw(9), draw(9))
        assert not np.array_equal(draw(9), draw(10))
        np.testing.assert_allclose(np.linalg.norm(draw(9), axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_hit_on_non_entangling(self, d):
        for u in (haar_product(d, d, 3)[0], dressed_swap(d, 4)[0], haar_product(2, d + 1, 5)[0]):
            d1, d2 = (d, d) if u.shape[0] == d * d else (2, d + 1)
            assert classify._find_witness(u, d1, d2, DEFAULT_TOL.eps, 6, 200) is None

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_swap_columns_is_product_with_swap(self, d):
        rng = np.random.default_rng(d)
        u = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        np.testing.assert_array_equal(classify._swap_columns(u, d), u @ swap_unitary(d))
