import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entkit.bipartite import (
    BipartiteSpace,
    DensityOperator,
    PureState,
    _fix_phase,
    entanglement_entropies,
    entanglement_entropy,
    is_product,
    partial_trace,
    product_state,
    schmidt,
    schmidt_rank,
    schmidt_ranks,
    trace_distance,
    trace_distances,
)
from entkit.errors import DimensionError, NormalizationError
from entkit.fixtures import cnot
from entkit.linalg import Tolerance, haar_unitary, random_state, tensor_product
from entkit.serialize import canonical_json, matrix_to_json

seeds = st.integers(min_value=0, max_value=2**32 - 1)

E2 = np.eye(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_state() -> PureState:
    return PureState(BipartiteSpace(2, 2), BELL)


def random_pure(d1, d2, seed) -> PureState:
    return PureState(BipartiteSpace(d1, d2), random_state(d1 * d2, seed))


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(NormalizationError):
            PureState(BipartiteSpace(2, 2), np.array([1, 1, 0, 0], dtype=complex))

    def test_index_convention(self):
        # component i*d2 + j carries e_i ⊗ f_j
        psi = product_state(E2[1], np.eye(3)[2])
        assert psi.vec[1 * 3 + 2] == 1.0


class TestSchmidt:
    def test_basis_product(self):
        psi = product_state(E2[0], E2[1])
        dec = schmidt(psi)
        np.testing.assert_allclose(dec.coeffs, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(dec.left[0], E2[0], atol=1e-15)
        np.testing.assert_allclose(dec.right[0], E2[1], atol=1e-15)

    def test_bell(self):
        dec = schmidt(bell_state())
        np.testing.assert_allclose(dec.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_random_3x4_seed_9(self):
        psi = random_pure(3, 4, 9)
        dec = schmidt(psi)
        assert np.linalg.norm(dec.reconstruct() - psi.vec) < 1e-10
        assert abs((dec.coeffs**2).sum() - 1.0) < 1e-12

    def test_orthonormal_systems(self):
        dec = schmidt(random_pure(4, 3, 2))
        for vecs in (dec.left, dec.right):
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            assert np.linalg.norm(gram - np.eye(len(vecs))) < 1e-12

    @given(seeds, st.sampled_from([(2, 2), (3, 4), (5, 3), (8, 8)]))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, seed, dims):
        psi = random_pure(*dims, seed)
        dec = schmidt(psi)
        assert np.linalg.norm(dec.reconstruct() - psi.vec) < 1e-10

    def test_reconstruction_sweep_200_seeds(self):
        dims = [(2, 2), (2, 8), (8, 2), (4, 5), (8, 8)]
        for seed in range(200):
            psi = random_pure(*dims[seed % len(dims)], seed)
            dec = schmidt(psi)
            assert np.linalg.norm(dec.reconstruct() - psi.vec) < 1e-10


class TestSchmidtRank:
    def test_product(self):
        assert schmidt_rank(product_state(E2[0], E2[0])) == 1

    def test_bell(self):
        assert schmidt_rank(bell_state()) == 2

    def test_cnot_on_plus(self):
        plus = (E2[0] + E2[1]) / np.sqrt(2)
        image = cnot() @ np.kron(plus, E2[0])
        assert schmidt_rank(PureState(BipartiteSpace(2, 2), image)) == 2

    def test_stack_matches_per_state_rank(self):
        space = BipartiteSpace(2, 3)
        states = [product_state(random_state(2, s), random_state(3, s + 1)) for s in range(5)]
        states += [PureState(space, random_state(6, s)) for s in range(5)]
        vecs = np.stack([psi.vec for psi in states])
        ranks = schmidt_ranks(space, vecs)
        assert ranks.tolist() == [schmidt_rank(psi) for psi in states] == [1] * 5 + [2] * 5

    def test_stack_needs_no_unit_norm(self):
        # Images of a coupling unitary only within tol are tested as they are.
        vecs = np.stack([np.kron(E2[0], E2[1]) * 1.01, (np.eye(4)[0] + np.eye(4)[3]) * 3])
        assert schmidt_ranks(BipartiteSpace(2, 2), vecs).tolist() == [1, 2]


class TestIsProduct:
    def test_basis_product(self):
        ok, factors = is_product(product_state(E2[1], E2[0]))
        assert ok
        np.testing.assert_allclose(factors[0], E2[1], atol=1e-15)
        np.testing.assert_allclose(factors[1], E2[0], atol=1e-15)

    def test_bell_not_product(self):
        ok, factors = is_product(bell_state())
        assert not ok and factors is None

    def test_haar_rotated_product_seed_3(self):
        v = haar_unitary(3, 3)
        w = haar_unitary(4, 30)
        psi = PureState(
            BipartiteSpace(3, 4), tensor_product(v, w) @ np.kron(np.eye(3)[0], np.eye(4)[0])
        )
        ok, factors = is_product(psi)
        assert ok
        np.testing.assert_allclose(np.kron(factors[0], factors[1]), psi.vec, atol=1e-12)

    def test_left_factor_phase_convention(self):
        psi = PureState(BipartiteSpace(2, 2), np.exp(0.7j) * np.kron(E2[1], E2[0]))
        ok, factors = is_product(psi)
        assert ok
        first = factors[0][np.flatnonzero(np.abs(factors[0]) > 1e-9)[0]]
        assert first.real > 0 and abs(first.imag) < 1e-12
        # compensating phase lives in the right factor
        np.testing.assert_allclose(np.kron(factors[0], factors[1]), psi.vec, atol=1e-12)


class TestPhaseConvention:
    # diag(i, 1) takes the pivot A[0, 0] off the real axis.
    A = np.diag([1j, 1.0]) @ haar_unitary(2, 3)
    B = haar_unitary(3, 4)

    def test_pivot_is_exactly_its_modulus(self):
        a, _ = _fix_phase(self.A, self.B, Tolerance())
        assert a[0, 0].imag == 0.0
        assert a[0, 0].real == abs(self.A[0, 0])

    @pytest.mark.parametrize("g", [-1, 1j, -1j])
    def test_unit_phase_factorisations_serialise_identically(self, g):
        tol = Tolerance()
        ref = _fix_phase(self.A, self.B, tol)
        got = _fix_phase(g * self.A, self.B * np.conj(g), tol)
        for x, y in zip(ref, got):
            assert canonical_json(matrix_to_json(x)) == canonical_json(matrix_to_json(y))


class TestPartialTrace:
    def test_product_marginal(self):
        rho1 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho2 = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        joint = DensityOperator(4, tensor_product(rho1, rho2))
        out = partial_trace(joint, BipartiteSpace(2, 2), keep=1)
        np.testing.assert_allclose(out.mat, rho1, atol=1e-14)

    def test_bell_marginal_maximally_mixed(self):
        rho = DensityOperator.from_pure(BELL)
        out = partial_trace(rho, BipartiteSpace(2, 2), keep=1)
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-14)

    def test_marginal_spectra_agree_seed_4(self):
        psi = random_pure(3, 5, 4)
        rho = DensityOperator.from_pure(psi.vec)
        s1 = np.linalg.eigvalsh(partial_trace(rho, psi.space, 1).mat)
        s2 = np.linalg.eigvalsh(partial_trace(rho, psi.space, 2).mat)
        np.testing.assert_allclose(s1, s2[-3:], atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(DensityOperator(4, np.eye(4) / 4), BipartiteSpace(2, 3), 1)


class TestEntanglementEntropy:
    def test_product_zero(self):
        h = entanglement_entropy(product_state(E2[0], E2[1]))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_bell_one_bit(self):
        assert abs(entanglement_entropy(bell_state()) - 1.0) < 1e-12

    def test_09_01_split(self):
        vec = np.sqrt(0.9) * np.kron(E2[0], E2[0]) + np.sqrt(0.1) * np.kron(E2[1], E2[1])
        psi = PureState(BipartiteSpace(2, 2), vec)
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert abs(expected - 0.4689955935892812) < 1e-15
        assert abs(entanglement_entropy(psi) - expected) < 1e-12

    def test_bounded_by_log_min_dim(self):
        for seed in range(20):
            psi = random_pure(3, 5, seed)
            assert 0.0 <= entanglement_entropy(psi) <= np.log2(3) + 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_local_unitary_invariance(self, seed):
        psi = random_pure(3, 3, seed)
        v = haar_unitary(3, seed + 1)
        w = haar_unitary(3, seed + 2)
        rotated = PureState(psi.space, tensor_product(v, w) @ psi.vec)
        assert abs(entanglement_entropy(rotated) - entanglement_entropy(psi)) < 1e-10

    def test_agrees_with_is_product(self):
        tol = Tolerance()
        states = [product_state(E2[0], E2[1]), bell_state()]
        states += [random_pure(2, 3, s) for s in range(20)]
        states += [
            product_state(random_state(2, s), random_state(3, s + 100)) for s in range(20)
        ]
        for psi in states:
            ok, _ = is_product(psi, tol)
            # entropy of a state with second Schmidt coefficient eps is
            # bounded by the binary entropy scale of eps^2
            assert ok == (entanglement_entropy(psi) < 1e-15)


class TestEntanglementEntropies:
    def test_matches_per_state_entropy(self):
        states = [random_state(12, s) for s in range(20)]
        states += [np.kron(random_state(3, s), random_state(4, s + 100)) for s in range(20)]
        space = BipartiteSpace(3, 4)
        batch = entanglement_entropies(space, np.stack(states))
        for h, vec in zip(batch, states):
            assert abs(h - entanglement_entropy(PureState(space, vec))) <= 1e-15

    def test_product_and_bell(self):
        pair = np.stack([product_state(E2[0], E2[1]).vec, BELL])
        product, bell = entanglement_entropies(BipartiteSpace(2, 2), pair)
        assert product == 0.0 and math.copysign(1.0, product) == 1.0
        assert abs(bell - 1.0) < 1e-15

    @pytest.mark.parametrize("bad", [2.0, np.nan, np.inf])
    def test_non_unit_row_rejected(self, bad):
        vecs = np.stack([random_state(4, 1), random_state(4, 2) * bad])
        with pytest.raises(NormalizationError):
            entanglement_entropies(BipartiteSpace(2, 2), vecs)

    def test_shape_checked(self):
        with pytest.raises(DimensionError):
            entanglement_entropies(BipartiteSpace(2, 3), np.stack([random_state(4, 1)]))


def _one_pair_trace_distance(a, b):
    """The single-pair rule of entkit 0.11.0: flip the Hermitian part of a - b
    so its first nonzero entry is positive (or has positive imaginary part
    when real part 0), then half the sum of |eigenvalues|."""
    d = a - b
    d = (d + d.conj().T) / 2
    flat = d.ravel()
    nz = np.flatnonzero(flat != 0)
    if nz.size and (flat[nz[0]].real < 0 or (flat[nz[0]].real == 0 and flat[nz[0]].imag < 0)):
        d = -d
    return float(0.5 * np.abs(np.linalg.eigvalsh(d)).sum())


class TestTraceDistance:
    def test_same_state(self):
        rho = DensityOperator.from_pure(random_state(3, 1))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = DensityOperator.from_pure(E2[0])
        b = DensityOperator.from_pure(E2[1])
        assert abs(trace_distance(a, b) - 1.0) < 1e-14

    def test_zero_vs_plus(self):
        a = DensityOperator.from_pure(E2[0])
        b = DensityOperator.from_pure((E2[0] + E2[1]) / np.sqrt(2))
        assert abs(trace_distance(a, b) - 1 / np.sqrt(2)) < 1e-14

    def test_symmetry_exact(self):
        for seed in range(10):
            a = DensityOperator.from_pure(random_state(4, seed))
            b = DensityOperator.from_pure(random_state(4, seed + 50))
            assert trace_distance(a, b) == trace_distance(b, a)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        a, b, c = (DensityOperator.from_pure(random_state(3, seed + k)) for k in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_stack_matches_the_one_pair_rule(self):
        states = [DensityOperator.from_pure(random_state(3, seed)).mat for seed in range(3)]
        # One pair in both orders (so one difference starts negative), another, a zero one.
        a = np.stack([states[0], states[1], states[1], states[2]])
        b = np.stack([states[1], states[0], states[2], states[2]])
        got = trace_distances(a, b)
        assert got.shape == (4,) and got[3] == 0.0
        np.testing.assert_array_equal(got, [_one_pair_trace_distance(x, y) for x, y in zip(a, b)])
        np.testing.assert_array_equal(got, trace_distances(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            trace_distance(
                DensityOperator(2, np.eye(2) / 2), DensityOperator(3, np.eye(3) / 3)
            )
