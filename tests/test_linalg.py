import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from entkit.classify import classify_slice, classify_unitary
from entkit.cli import main
from entkit.dynamics import geodesic_path
from entkit.errors import DimensionError, NonUnitaryError
from entkit.fixtures import projective_povm
from entkit.linalg import (
    Tolerance,
    exp_i_hermitian,
    gram_defect,
    haar_unitary,
    probe_grid,
    probe_states,
    random_hermitian,
    random_state,
    require_unitary,
    rng_from_seed,
    swap_unitary,
    tensor_product,
    unitarity_defect,
    unitary_eig,
)
from entkit.measurement import MeasurementScheme
from entkit.serialize import canonical_json, matrix_to_json

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
E2 = np.eye(2)
HADAMARD_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTolerance:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_non_finite_or_negative(self, eps):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Tolerance(eps)


class TestTensorProduct:
    def test_identity(self):
        np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_vectors(self):
        e0 = np.array([[1], [0]], dtype=complex)
        f1 = np.array([[0], [1]], dtype=complex)
        np.testing.assert_array_equal(
            tensor_product(e0, f1), np.array([[0], [1], [0], [0]], dtype=complex)
        )

    def test_pauli_x_tensor_z(self):
        # Block expansion by the Kronecker rule, written out by hand.
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(tensor_product(X, Z), expected)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_mixed_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)) for _ in range(4))
        a, b, c, d = a[0], b[1], c[0], d[1]
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_adjoint_distributes(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_array_equal(
            tensor_product(a, b).conj().T,
            tensor_product(a.conj().T, b.conj().T),
        )

    def test_overflow_guard(self):
        # 8193 x 8193 result entries, just over the 2**26 limit, from small
        # dense operands.
        with pytest.raises(DimensionError):
            tensor_product(np.ones((1, 8193)), np.ones((8193, 1)))

    def test_overflow_guard_checks_before_allocating(self):
        # Zero-copy operands: only a coercion ahead of the guard allocates.
        big = np.broadcast_to(1.0, (10000, 10000))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                tensor_product(big, big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestIsUnitary:
    def test_identity(self):
        assert unitarity_defect(np.eye(4)) == 0.0

    def test_hadamard(self):
        assert unitarity_defect(HADAMARD_GATE) <= Tolerance().eps

    def test_diag_1_2(self):
        assert unitarity_defect(np.diag([1.0, 2.0])) == 3.0

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            unitarity_defect(np.ones((2, 3)))

    def test_require_unitary_names_its_subject(self):
        defect = unitarity_defect(HADAMARD_GATE)
        assert require_unitary(HADAMARD_GATE, Tolerance(), "gate") == defect
        message = "^gate is not unitary: defect 3.000e\\+00$"
        with pytest.raises(NonUnitaryError, match=message) as exc:
            require_unitary(np.diag([1.0, 2.0]), Tolerance(), "gate")
        assert exc.value.defect == 3.0

    def test_require_unitary_takes_a_known_defect(self):
        # The matrix is not looked at when the caller passes its defect.
        assert require_unitary(None, Tolerance(1e-3), "coupling", 1e-4) == 1e-4
        with pytest.raises(NonUnitaryError, match="coupling is not unitary"):
            require_unitary(None, Tolerance(1e-5), "coupling", 1e-4)

    def test_overflowing_defect_is_not_unitary(self):
        # U^†U overflows to inf and nan entries; a NaN defect must not pass,
        # and each entry point refuses such a U without a numpy warning. One
        # loop over the four callers, so the test keeps its one name.
        big = 1e200 * np.eye(4)
        runs = [
            ("input", lambda: classify_unitary(1e200 * np.eye(9), 3, 3)),
            ("input", lambda: classify_slice(big, 2, 2, E2[0])),
            ("matrix", lambda: geodesic_path(big, 2, 2)),
            ("coupling", lambda: MeasurementScheme(2, 2, E2[0], big, projective_povm(2)).check()),
        ]
        for subject, run in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonUnitaryError, match=f"^{subject} is not unitary: defect nan$"):
                    run()

    @pytest.mark.parametrize("subject", ["input", "matrix", "coupling"])
    def test_every_check_keeps_its_subject(self, subject):
        u = swap_unitary(2) * 1.01
        run = {
            "input": lambda: classify_unitary(u, 2, 2),
            "matrix": lambda: unitary_eig(u),
            "coupling": lambda: MeasurementScheme(2, 2, E2[0], u, projective_povm(2)).check(),
        }[subject]
        with pytest.raises(NonUnitaryError, match=f"^{subject} is not unitary"):
            run()

    def test_defect_is_symmetric(self):
        m = np.random.default_rng(3).standard_normal((5, 5)) * (1 + 0.5j)
        eye = np.eye(5)
        defect = unitarity_defect(m)
        assert abs(defect - np.linalg.norm(m @ m.conj().T - eye)) < 1e-12 * defect
        assert abs(defect - np.linalg.norm(m.conj().T @ m - eye)) < 1e-12 * defect


def _dense_gram_defect(z):
    return float(np.linalg.norm(z.conj().T @ z - np.eye(z.shape[1])))


def _gram_rounding(z, ref):
    """How far the panel and dense defects of z may differ: each is within
    gamma_m·||Z||_F² of the exact one (unitarity_defect's docstring), plus
    the relative rounding, below n²·eps, of summing the n² squared entries."""
    m, n = z.shape
    eps = np.finfo(float).eps
    gamma = m * eps / (1 - m * eps)
    return 2 * gamma * np.vdot(z, z).real + 2 * n * n * eps * ref


def _haar_with_defect(d, seed, target):
    """A Haar unitary whose column 0 is scaled by sqrt(1 + target): U^†U - I
    is then target at (0, 0) and 0 elsewhere."""
    u = haar_unitary(d, seed)
    u[:, 0] *= np.sqrt(1 + target)
    return u


class TestGramDefect:
    @pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 257, 300])
    def test_matches_dense_reference(self, d):
        rng = np.random.default_rng(d)
        near = haar_unitary(d, d) + 1e-6 * rng.standard_normal((d, d))
        far = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d)
        for z in (near, far):
            ref = _dense_gram_defect(z)
            assert ref > 0
            assert abs(unitarity_defect(z) - ref) <= _gram_rounding(z, ref)

    @pytest.mark.parametrize("shape", [(700, 200), (300, 129)])
    def test_tall_matches_dense_reference(self, shape):
        # A stack of Kraus rows is tall: its Gram matrix is sum K^†K.
        rng = np.random.default_rng(shape[1])
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        isometry = np.linalg.qr(z)[0]
        for m in (z / np.sqrt(shape[0]), isometry):
            ref = _dense_gram_defect(m)
            assert abs(gram_defect(m) - ref) <= _gram_rounding(m, ref)

    @pytest.mark.parametrize("d", [129, 300])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_accepts_and_refuses_as_dense(self, d, scale):
        tol = Tolerance()
        u = _haar_with_defect(d, d + 1, scale * tol.eps)
        accepted = _dense_gram_defect(u) <= tol.eps
        assert accepted == (scale < 1)
        assert (unitarity_defect(u) <= tol.eps) == accepted
        if not accepted:
            with pytest.raises(NonUnitaryError):
                require_unitary(u, tol, "input")

    @pytest.mark.parametrize("d", [4, 129, 300])
    def test_overflow_is_silent(self, d):
        for u in (1e200 * np.eye(d), 1e160 * haar_unitary(d, d)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                defect = unitarity_defect(u)
            assert np.isnan(defect) or np.isinf(defect)

    @pytest.mark.parametrize("scaled", ["identity", "haar"])
    def test_overflowing_input_exits_3(self, scaled, tmp_path, capsys):
        # D = 144: two column panels.
        u = 1e200 * np.eye(144) if scaled == "identity" else 1e160 * haar_unitary(144, 5)
        path = tmp_path / "u.json"
        path.write_text(canonical_json(matrix_to_json(u)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", str(path), "--dims", "12", "12"]) == 3
        assert "input is not unitary" in capsys.readouterr().err

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            unitarity_defect(np.ones((300, 129)))

    def test_peak_memory_is_a_fraction_of_u(self):
        # A dense U^†U - I needs about 2 U beside U (a conjugated copy and the
        # product); the panels need one conjugated (D, 128) panel and one
        # (128, D) product, whatever U's entries.
        u = np.eye(1024, dtype=np.complex128)
        tracemalloc.start()
        try:
            unitarity_defect(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * u.nbytes


def principal_log(u: np.ndarray) -> np.ndarray:
    """z diag(theta) z^† from unitary_eig: the Hermitian H with exp(iH) == u
    and eigenvalues in (-pi, pi]."""
    theta, z = unitary_eig(u)
    return (z * theta) @ z.conj().T


class TestUnitaryLog:
    def test_identity(self):
        np.testing.assert_allclose(principal_log(np.eye(2)), np.zeros((2, 2)), atol=1e-14)

    def test_diag_1_i(self):
        h = principal_log(np.diag([1.0, 1j]))
        np.testing.assert_allclose(h, np.diag([0.0, np.pi / 2]), atol=1e-12)

    def test_branch_minus_one_maps_to_plus_pi(self):
        h = principal_log(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(h, np.diag([0.0, np.pi]), atol=1e-12)

    def test_swap_round_trip(self):
        s = swap_unitary(2)
        h = principal_log(s)
        assert np.linalg.norm(h - h.conj().T) < 1e-12
        assert np.linalg.norm(exp_i_hermitian(h) - s) < 1e-10

    def test_matches_scipy_logm(self):
        u = haar_unitary(4, 21)
        h = principal_log(u)
        np.testing.assert_allclose(1j * h, scipy.linalg.logm(u), atol=1e-9)

    def test_not_unitary_raises(self):
        with pytest.raises(NonUnitaryError):
            unitary_eig(np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1)])
    def test_non_square_raises(self, shape):
        with pytest.raises(DimensionError):
            unitary_eig(np.eye(*shape))

    @given(seeds, st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, d):
        u = haar_unitary(d, seed)
        assert np.linalg.norm(exp_i_hermitian(principal_log(u)) - u) < 1e-8


class TestExpIHermitian:
    @given(seeds, st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_matches_scipy_expm(self, seed, d):
        h = random_hermitian(d, seed, scale=2.0)
        np.testing.assert_allclose(
            exp_i_hermitian(h, 0.7), scipy.linalg.expm(0.7j * h), atol=1e-10
        )


class TestHaarUnitary:
    def test_d1_unit_modulus(self):
        u = haar_unitary(1, 5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity_seed_42(self):
        assert unitarity_defect(haar_unitary(3, 42)) <= 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(haar_unitary(3, 42), haar_unitary(3, 42))

    def test_unitarity_sweep(self):
        for d in range(2, 9):
            for seed in range(100):
                defect = np.linalg.norm(
                    haar_unitary(d, seed).conj().T @ haar_unitary(d, seed) - np.eye(d)
                )
                assert defect < 1e-10


class TestRandomState:
    def test_d1(self):
        v = random_state(1, 0)
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_norm_seed_5(self):
        assert abs(np.linalg.norm(random_state(4, 5)) - 1.0) < 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(random_state(4, 5), random_state(4, 5))


def _reference_random_rows(rng, n, d):
    """The witness search's original random tail: n unit rows with complex
    Gaussian entries, all real parts drawn first."""
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestProbeStates:
    def test_labels_and_order(self):
        # The grid is row-major over i <= j, the witness search's order.
        labels, vecs = probe_states(3, rng_from_seed(1), 2)
        assert labels == [
            "basis:0", "pair:0:1", "pair:0:2",
            "basis:1", "pair:1:2",
            "basis:2",
            "rand:0", "rand:1",
        ]
        np.testing.assert_array_equal(vecs[[0, 3, 5]], np.eye(3))
        r = 1 / np.sqrt(2)
        np.testing.assert_array_equal(vecs[[1, 2, 4]], [[r, r, 0], [r, 0, r], [0, r, r]])
        assert vecs.dtype == np.complex128

    def test_grid_is_cached_and_read_only(self):
        labels, rows = probe_grid(4)
        assert probe_grid(4)[1] is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert labels == tuple(probe_states(4, rng_from_seed(0), 0)[0])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_unit_norms(self, d):
        _, vecs = probe_states(d, rng_from_seed(d), 7)
        assert len(vecs) == d * (d + 1) // 2 + 7
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-15)

    def test_random_rows_keep_the_witness_draw_order(self):
        rng, ref = rng_from_seed(21), rng_from_seed(21)
        for d in (3, 4):
            labels, vecs = probe_states(d, rng, 40, grid=False)
            assert labels == [f"rand:{k}" for k in range(40)]
            np.testing.assert_array_equal(vecs, _reference_random_rows(ref, 40, d))

    def test_grid_only(self):
        labels, vecs = probe_states(2, rng_from_seed(0), 0)
        assert labels == ["basis:0", "pair:0:1", "basis:1"]
        assert vecs.shape == (3, 2)


class TestSwapUnitary:
    def test_flips_basis_products(self):
        s = swap_unitary(3)
        for i in range(3):
            for j in range(3):
                e = np.zeros(3)
                f = np.zeros(3)
                e[i] = 1
                f[j] = 1
                np.testing.assert_array_equal(s @ np.kron(e, f), np.kron(f, e))

    def test_involution(self):
        s = swap_unitary(4)
        np.testing.assert_array_equal(s @ s, np.eye(16))
