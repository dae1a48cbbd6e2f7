import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entkit.bipartite import (
    BipartiteSpace,
    DensityOperator,
    PureState,
    entanglement_entropies,
    product_state,
    schmidt_coefficients,
    schmidt_ranks,
    trace_distances,
)
from entkit.classify import _fix_phase
from entkit.errors import DimensionError, NormalizationError
from entkit.fixtures import cnot
from entkit.linalg import Tolerance, haar_unitary, random_state, tensor_product
from entkit.serialize import canonical_json, matrix_to_json

seeds = st.integers(min_value=0, max_value=2**32 - 1)

E2 = np.eye(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
S22 = BipartiteSpace(2, 2)


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


def schmidt_terms(psi: PureState) -> tuple[np.ndarray, tuple, tuple]:
    """schmidt_coefficients of psi with the SVD's vector pairs, each pair
    under the factors' phase convention (_fix_phase)."""
    u, _, vh = np.linalg.svd(psi.vec.reshape(psi.space.d1, psi.space.d2))
    rank = min(psi.space.d1, psi.space.d2)
    left, right = zip(*(_fix_phase(u[:, k], vh[k], Tolerance()) for k in range(rank)))
    return schmidt_coefficients(psi.space, psi.vec[None])[0], left, right


def reconstruct(coeffs, left, right) -> np.ndarray:
    return sum(c * np.kron(a, b) for c, a, b in zip(coeffs, left, right))


class TestSchmidt:
    def test_basis_product(self):
        psi = product_state(E2[0], E2[1])
        coeffs, left, right = schmidt_terms(psi)
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(left[0], E2[0], atol=1e-15)
        np.testing.assert_allclose(right[0], E2[1], atol=1e-15)

    def test_bell(self):
        coeffs = schmidt_coefficients(S22, BELL[None])[0]
        np.testing.assert_allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_random_3x4_seed_9(self):
        psi = random_pure(3, 4, 9)
        coeffs, left, right = schmidt_terms(psi)
        assert np.linalg.norm(reconstruct(coeffs, left, right) - psi.vec) < 1e-10
        assert abs((coeffs**2).sum() - 1.0) < 1e-12

    def test_orthonormal_systems(self):
        _, left, right = schmidt_terms(random_pure(4, 3, 2))
        for vecs in (left, right):
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            assert np.linalg.norm(gram - np.eye(len(vecs))) < 1e-12

    @given(seeds, st.sampled_from([(2, 2), (3, 4), (5, 3), (8, 8)]))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, seed, dims):
        psi = random_pure(*dims, seed)
        assert np.linalg.norm(reconstruct(*schmidt_terms(psi)) - psi.vec) < 1e-10

    def test_reconstruction_sweep_200_seeds(self):
        dims = [(2, 2), (2, 8), (8, 2), (4, 5), (8, 8)]
        for seed in range(200):
            psi = random_pure(*dims[seed % len(dims)], seed)
            assert np.linalg.norm(reconstruct(*schmidt_terms(psi)) - psi.vec) < 1e-10


class TestSchmidtRank:
    def test_product(self):
        assert schmidt_ranks(S22, np.kron(E2[0], E2[0])[None]).tolist() == [1]

    def test_bell(self):
        assert schmidt_ranks(S22, BELL[None]).tolist() == [2]

    def test_cnot_on_plus(self):
        plus = (E2[0] + E2[1]) / np.sqrt(2)
        image = cnot() @ np.kron(plus, E2[0])
        assert schmidt_ranks(S22, image[None]).tolist() == [2]

    def test_stack_matches_per_state_rank(self):
        space = BipartiteSpace(2, 3)
        states = [product_state(random_state(2, s), random_state(3, s + 1)).vec for s in range(5)]
        states += [random_state(6, s) for s in range(5)]
        ranks = schmidt_ranks(space, np.stack(states))
        one_by_one = [int(schmidt_ranks(space, vec[None])[0]) for vec in states]
        assert ranks.tolist() == one_by_one == [1] * 5 + [2] * 5

    def test_stack_needs_no_unit_norm(self):
        # Images of a coupling unitary only within tol are tested as they are.
        vecs = np.stack([np.kron(E2[0], E2[1]) * 1.01, (np.eye(4)[0] + np.eye(4)[3]) * 3])
        assert schmidt_ranks(S22, vecs).tolist() == [1, 2]


class TestIsProduct:
    def test_basis_product(self):
        psi = product_state(E2[1], E2[0])
        assert schmidt_ranks(S22, psi.vec[None]).tolist() == [1]
        _, left, right = schmidt_terms(psi)
        np.testing.assert_allclose(left[0], E2[1], atol=1e-15)
        np.testing.assert_allclose(right[0], E2[0], atol=1e-15)

    def test_bell_not_product(self):
        assert schmidt_ranks(S22, BELL[None]).tolist() != [1]

    def test_haar_rotated_product_seed_3(self):
        v = haar_unitary(3, 3)
        w = haar_unitary(4, 30)
        psi = PureState(
            BipartiteSpace(3, 4), tensor_product(v, w) @ np.kron(np.eye(3)[0], np.eye(4)[0])
        )
        assert schmidt_ranks(psi.space, psi.vec[None]).tolist() == [1]
        _, left, right = schmidt_terms(psi)
        np.testing.assert_allclose(np.kron(left[0], right[0]), psi.vec, atol=1e-12)

    def test_left_factor_phase_convention(self):
        vec = np.exp(0.7j) * np.kron(E2[1], E2[0])
        a, b = _fix_phase(np.exp(0.7j) * E2[1], E2[0].astype(complex), Tolerance())
        first = a[np.flatnonzero(np.abs(a) > 1e-9)[0]]
        assert first.real > 0 and first.imag == 0.0
        # compensating phase lives in the right factor
        np.testing.assert_allclose(np.kron(a, b), vec, atol=1e-15)


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


class TestEntanglementEntropy:
    def test_product_zero(self):
        (h,) = entanglement_entropies(BipartiteSpace(2, 2), product_state(E2[0], E2[1]).vec[None])
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_bell_one_bit(self):
        (h,) = entanglement_entropies(BipartiteSpace(2, 2), BELL[None])
        assert abs(h - 1.0) < 1e-12

    def test_09_01_split(self):
        vec = np.sqrt(0.9) * np.kron(E2[0], E2[0]) + np.sqrt(0.1) * np.kron(E2[1], E2[1])
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert abs(expected - 0.4689955935892812) < 1e-15
        (h,) = entanglement_entropies(BipartiteSpace(2, 2), vec[None])
        assert abs(h - expected) < 1e-12

    def test_bounded_by_log_min_dim(self):
        vecs = np.stack([random_state(15, seed) for seed in range(20)])
        h = entanglement_entropies(BipartiteSpace(3, 5), vecs)
        assert np.all((0.0 <= h) & (h <= np.log2(3) + 1e-12))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_local_unitary_invariance(self, seed):
        vec = random_state(9, seed)
        v = haar_unitary(3, seed + 1)
        w = haar_unitary(3, seed + 2)
        vecs = np.stack([vec, tensor_product(v, w) @ vec])
        h, rotated = entanglement_entropies(BipartiteSpace(3, 3), vecs)
        assert abs(rotated - h) < 1e-10

    def test_agrees_with_is_product(self):
        # entropy of a state with second Schmidt coefficient eps is bounded
        # by the binary entropy scale of eps^2
        products = [np.kron(random_state(2, s), random_state(3, s + 100)) for s in range(20)]
        cases = [
            (BipartiteSpace(2, 2), [product_state(E2[0], E2[1]).vec, BELL]),
            (BipartiteSpace(2, 3), [random_state(6, s) for s in range(20)] + products),
        ]
        for space, states in cases:
            vecs = np.stack(states)
            np.testing.assert_array_equal(
                schmidt_ranks(space, vecs) == 1, entanglement_entropies(space, vecs) < 1e-15
            )


class TestEntanglementEntropies:
    def test_matches_per_state_entropy(self):
        states = [random_state(12, s) for s in range(20)]
        states += [np.kron(random_state(3, s), random_state(4, s + 100)) for s in range(20)]
        space = BipartiteSpace(3, 4)
        batch = entanglement_entropies(space, np.stack(states))
        for h, vec in zip(batch, states):
            assert abs(h - entanglement_entropies(space, vec[None])[0]) <= 1e-15

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


def _pair_distance(a, b):
    """trace_distances of one pair of DensityOperators, as 1-stacks."""
    return trace_distances(a.mat[None], b.mat[None])[0]


class TestTraceDistance:
    def test_same_state(self):
        rho = DensityOperator.from_pure(random_state(3, 1))
        assert _pair_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = DensityOperator.from_pure(E2[0])
        b = DensityOperator.from_pure(E2[1])
        assert abs(_pair_distance(a, b) - 1.0) < 1e-14

    def test_zero_vs_plus(self):
        a = DensityOperator.from_pure(E2[0])
        b = DensityOperator.from_pure((E2[0] + E2[1]) / np.sqrt(2))
        assert abs(_pair_distance(a, b) - 1 / np.sqrt(2)) < 1e-14

    def test_symmetry_exact(self):
        for seed in range(10):
            a = DensityOperator.from_pure(random_state(4, seed))
            b = DensityOperator.from_pure(random_state(4, seed + 50))
            assert _pair_distance(a, b) == _pair_distance(b, a)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        a, b, c = (DensityOperator.from_pure(random_state(3, seed + k)) for k in range(3))
        assert _pair_distance(a, c) <= _pair_distance(a, b) + _pair_distance(b, c) + 1e-12

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
            trace_distances((np.eye(2) / 2)[None], (np.eye(3) / 3)[None])
