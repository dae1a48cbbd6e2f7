import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entkit import dynamics
from entkit.bipartite import BipartiteSpace, PureState, entanglement_entropy
from entkit.classify import _classify, classify_unitary
from entkit.dynamics import (
    UnitaryPath,
    _grid_images,
    entanglement_profile,
    geodesic_path,
    max_path_entanglement,
    path_from_generator,
    path_point,
    profile_inputs,
)
from entkit.errors import DimensionError, NonUnitaryError, NormalizationError
from entkit.fixtures import cnot, dressed_swap, haar_product
from entkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    exp_i_hermitian,
    haar_unitary,
    probe_states,
    random_hermitian,
    random_state,
    rng_from_seed,
    split_seed,
    swap_unitary,
    tensor_product,
    unitary_log,
)
from entkit.verify import sqrt_swap_oracle

seeds = st.integers(min_value=0, max_value=2**32 - 1)
E2 = np.eye(2)

# Binary entropies of the sqrt(SWAP) Schmidt weights, derived from the
# spectral-projector construction: the pair superposition input splits as
# (2 ± sqrt(3))/4 at the midpoint, the basis input as (2 ± sqrt(2))/4 at the
# quarter point.
MIDPOINT_SUPERPOSITION_ENTROPY = 0.35457890266527003
QUARTER_BASIS_ENTROPY = 0.6008760366928562


def binary_entropy(p: float) -> float:
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))


def test_frozen_constants_match_closed_forms():
    assert abs(binary_entropy((2 + np.sqrt(3)) / 4) - MIDPOINT_SUPERPOSITION_ENTROPY) < 1e-15
    assert abs(binary_entropy((2 + np.sqrt(2)) / 4) - QUARTER_BASIS_ENTROPY) < 1e-15


class TestGeodesicPath:
    def test_identity_endpoint(self):
        path = geodesic_path(np.eye(4), 2, 2)
        np.testing.assert_allclose(path.phases, np.zeros(4), atol=1e-14)
        np.testing.assert_allclose(path_point(path, 0.7), np.eye(4), atol=1e-14)

    def test_controlled_z_midpoint(self):
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        path = geodesic_path(cz, 2, 2)
        np.testing.assert_allclose(sorted(path.phases), [0, 0, 0, np.pi], atol=1e-12)
        np.testing.assert_allclose(
            path_point(path, 0.5), np.diag([1, 1, 1, 1j]), atol=1e-12
        )

    def test_swap_round_trip(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        assert np.linalg.norm(path_point(path, 1.0) - swap_unitary(2)) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            geodesic_path(np.diag([1.0, 2.0, 1.0, 1.0]), 2, 2)


class TestUnitaryPath:
    def test_arrays_are_read_only_copies(self):
        w, v = np.linalg.eigh(random_hermitian(4, 3))
        path = UnitaryPath(w, v, BipartiteSpace(2, 2))
        before = path_point(path, 0.5)
        w[0], v[0, 0] = 7.0, 7.0
        np.testing.assert_array_equal(path_point(path, 0.5), before)
        for a in (path.phases, path.vectors):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_shapes_must_fit_the_space(self):
        w, v = np.linalg.eigh(random_hermitian(4, 3))
        with pytest.raises(DimensionError):
            UnitaryPath(w, v, BipartiteSpace(2, 3))


class TestPathPoint:
    def test_t0_exact_identity(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        np.testing.assert_array_equal(path_point(path, 0.0), np.eye(4))

    def test_t1_endpoint(self):
        u, _, _ = haar_product(2, 2, 3)
        path = geodesic_path(u, 2, 2)
        assert np.linalg.norm(path_point(path, 1.0) - u) < 1e-10

    def test_sqrt_swap_squares_to_swap(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        half = path_point(path, 0.5)
        assert np.linalg.norm(half @ half - swap_unitary(2)) < 1e-10

    def test_out_of_range(self):
        path = geodesic_path(np.eye(4), 2, 2)
        with pytest.raises(ValueError):
            path_point(path, 1.5)

    @pytest.mark.parametrize(
        "make",
        [
            # The old route, through the logarithm: the same U_t to rounding.
            lambda u=haar_product(2, 3, 5)[0] @ np.diag(np.exp(1j * np.arange(6))): (
                geodesic_path(u, 2, 3), unitary_log(u), 1e-12
            ),
            # The same eigh: bit-identical.
            lambda h=random_hermitian(6, 9, scale=2.0): (path_from_generator(h, 3, 2), h, 0.0),
        ],
        ids=["geodesic", "generator"],
    )
    def test_bit_identical_to_exp_i_hermitian(self, make):
        path, h, atol = make()
        for t in (1e-3, 0.25, 0.5, 0.7, 1.0):
            np.testing.assert_allclose(path_point(path, t), exp_i_hermitian(h, t), rtol=0, atol=atol)

    @given(seeds, st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_group_property(self, seed, s):
        u, _, _ = haar_product(2, 2, seed)
        path = geodesic_path(u, 2, 2)
        t = 0.4
        lhs = path_point(path, s) @ path_point(path, t)
        rhs = path_point(path, min(s + t, 1.0))
        assert np.linalg.norm(lhs - rhs) < 1e-8


@pytest.mark.parametrize("d1,d2", [(2, 3), (3, 2)])
def test_profile_inputs_come_from_the_probe_generator(d1, d2):
    probe_init = random_state(d2, 8)
    input_ids, vecs = profile_inputs(d1, d2, probe_init, 9, 4)
    rng = rng_from_seed(9)
    labels, left = probe_states(d1, rng, 4)
    _, right = probe_states(d2, rng, 4, grid=False)
    assert input_ids == labels
    assert vecs.shape == (len(labels), d1 * d2)
    n_grid = len(labels) - 4
    for k, vec in enumerate(vecs):
        b = probe_init if k < n_grid else right[k - n_grid]
        np.testing.assert_array_equal(vec, np.kron(left[k], b))


def _reference_profile(u, d1, d2, probe_init, n_steps, seed, n_inputs):
    """Input ids, and per grid point each input's image entropy from its own
    SVD, in input order, with the verdict of U_t, where U_t comes by the old
    route: exp_i_hermitian of the endpoint's logarithm."""
    h = unitary_log(u)
    input_ids, vecs = profile_inputs(d1, d2, probe_init, seed, n_inputs)
    points = []
    for k in range(n_steps + 1):
        u_t = exp_i_hermitian(h, k / n_steps)
        entropies = []
        for vec in vecs:
            s = np.linalg.svd((u_t @ vec).reshape(d1, d2), compute_uv=False)
            p = s[s > 0] ** 2
            entropies.append(float(-(p * np.log2(p)).sum()))
        form = classify_unitary(u_t, d1, d2, seed=split_seed(seed, f"verdict-{k}"))
        points.append((entropies, form.verdict))
    return input_ids, points


class TestEntanglementProfile:
    @pytest.mark.parametrize(
        "u, d",
        [pytest.param(swap_unitary(d), d, id=str(d)) for d in (2, 3)]
        + [pytest.param(dressed_swap(d, 11)[0], d, id=f"dressed-swap-{d}") for d in (2, 3)],
    )
    def test_matches_per_input_reference_loop(self, u, d):
        path = geodesic_path(u, d, d)
        probe = np.eye(d)[0]
        profile = entanglement_profile(path, probe, n_steps=64, seed=9, n_inputs=8)
        ids, reference = _reference_profile(u, d, d, probe, 64, 9, 8)
        for pt, (entropies, verdict) in zip(profile.points, reference):
            top = sorted(entropies, reverse=True)
            assert abs(pt.max_entropy_bits - top[0]) <= 1e-12
            assert pt.verdict == verdict
            if top[0] - top[1] > 1e-12:
                assert pt.maximizing_input_id == ids[int(np.argmax(entropies))]

    def test_realignment_svds_per_profile(self, realignment_svds):
        path = geodesic_path(swap_unitary(3), 3, 3)
        entanglement_profile(path, np.eye(3)[0], n_steps=64)
        # Every grid point's verdict is its certificate: no rank SVD.
        assert realignment_svds == []

    def test_loose_tol_refused_before_unitarity_check(self, unitarity_checks):
        path = geodesic_path(swap_unitary(2), 2, 2)
        unitarity_checks.clear()
        with pytest.raises(ValueError, match="too loose"):
            entanglement_profile(path, E2[0], n_steps=4, tol=Tolerance(0.1))
        assert unitarity_checks == []

    def test_one_eigh_per_path(self, monkeypatch):
        h = random_hermitian(4, 3)
        calls = []
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, k=kernel, n=name, **kw: calls.append(n) or k(*a, **kw)
            )
        geodesic = geodesic_path(swap_unitary(2), 2, 2)
        assert calls == ["eigvalsh", "eigh"]
        generator = path_from_generator(h, 2, 2)
        assert calls == ["eigvalsh", "eigh", "eigh"]
        calls.clear()
        entanglement_profile(geodesic, E2[0], n_steps=64)
        entanglement_profile(generator, E2[0], n_steps=64)
        assert calls == []

    def test_probe_init_norm_checked_at_tol(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        near = E2[0] * (1 + 1e-7)
        with pytest.raises(NormalizationError, match="probe_init norm"):
            entanglement_profile(path, near, n_steps=2)
        entanglement_profile(path, near, n_steps=2, tol=Tolerance(1e-6))

    def test_constant_path_all_zero(self):
        path = geodesic_path(np.eye(4), 2, 2)
        profile = entanglement_profile(path, E2[0], n_steps=8, seed=1, n_inputs=4)
        assert all(pt.max_entropy_bits < 1e-12 for pt in profile.points)
        assert all(pt.verdict == "product" for pt in profile.points)

    def test_start_is_product_with_zero_entropy(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        profile = entanglement_profile(path, E2[0], n_steps=8, seed=1, n_inputs=4)
        assert profile.points[0].t == 0.0
        assert profile.points[0].max_entropy_bits < 1e-12
        assert profile.points[0].verdict == "product"

    def test_swap_midpoint_superposition_entropy_matches_oracle(self):
        # independent oracle: spectral-projector sqrt(SWAP) applied to the
        # same input, entropy via the reduced density operator spectrum
        oracle_u = sqrt_swap_oracle(2)
        inp = np.kron((E2[0] + E2[1]) / np.sqrt(2), E2[0])
        image = oracle_u @ inp
        m = image.reshape(2, 2)
        marginal = m @ m.conj().T
        evals = np.linalg.eigvalsh(marginal)
        evals = evals[evals > 1e-300]
        oracle_entropy = float(-(evals * np.log2(evals)).sum())
        assert abs(oracle_entropy - MIDPOINT_SUPERPOSITION_ENTROPY) < 1e-12

        path = geodesic_path(swap_unitary(2), 2, 2)
        half = path_point(path, 0.5)
        sampled = entanglement_entropy(PureState(BipartiteSpace(2, 2), half @ inp))
        assert abs(sampled - oracle_entropy) < 1e-6

    def test_swap_quarter_point_basis_entropy(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        quarter = path_point(path, 0.25)
        image = PureState(BipartiteSpace(2, 2), quarter @ np.kron(E2[1], E2[0]))
        assert abs(entanglement_entropy(image) - QUARTER_BASIS_ENTROPY) < 1e-12

    def test_swap_profile_midpoint_max_matches_oracle_family(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        profile = entanglement_profile(path, E2[0], n_steps=64, seed=5, n_inputs=8)
        midpoint = next(pt for pt in profile.points if pt.t == 0.5)
        _, inputs = profile_inputs(2, 2, E2[0], 5, 8)
        oracle_u = sqrt_swap_oracle(2)
        oracle_max = max(
            entanglement_entropy(PureState(BipartiteSpace(2, 2), oracle_u @ vec))
            for vec in inputs
        )
        assert abs(midpoint.max_entropy_bits - oracle_max) < 1e-6

    def test_local_generator_never_entangles(self):
        a = random_hermitian(2, 101, scale=1.0)
        b = random_hermitian(3, 102, scale=1.0)
        h = tensor_product(a, np.eye(3)) + tensor_product(np.eye(2), b)
        path = path_from_generator(h, 2, 3)
        profile = entanglement_profile(path, random_state(3, 103), n_steps=12, seed=7, n_inputs=4)
        assert all(pt.max_entropy_bits < 1e-9 for pt in profile.points)
        assert all(pt.verdict == "product" for pt in profile.points)

    def test_interior_entangling(self):
        swap_path = geodesic_path(swap_unitary(2), 2, 2)
        assert entanglement_profile(swap_path, E2[0], n_steps=4, seed=1, n_inputs=2).interior_entangling
        h = tensor_product(random_hermitian(2, 106), np.eye(2))
        local = entanglement_profile(path_from_generator(h, 2, 2), E2[0], n_steps=4, seed=1, n_inputs=2)
        assert not local.interior_entangling

    def test_local_generator_endpoint_factorizes(self):
        a = random_hermitian(2, 104, scale=1.0)
        b = random_hermitian(2, 105, scale=1.0)
        h = tensor_product(a, np.eye(2)) + tensor_product(np.eye(2), b)
        path = path_from_generator(h, 2, 2)
        # exp(i(A⊗I + I⊗B)) == exp(iA) ⊗ exp(iB) since the terms commute
        expected = tensor_product(exp_i_hermitian(a), exp_i_hermitian(b))
        assert np.linalg.norm(path_point(path, 1.0) - expected) < 1e-12

    def test_profile_continuity_under_refinement(self):
        path = geodesic_path(swap_unitary(2), 2, 2)

        def max_step(n):
            profile = entanglement_profile(path, E2[0], n_steps=n, seed=3, n_inputs=4)
            ent = [pt.max_entropy_bits for pt in profile.points]
            return max(abs(ent[i + 1] - ent[i]) for i in range(len(ent) - 1))

        assert max_step(32) < max_step(16)


def _local_path(d1, d2, seed, coupling=0.0):
    """Path of A⊗I + I⊗B, plus a random Hermitian of norm ``coupling``."""
    a = random_hermitian(d1, seed, scale=1.0)
    b = random_hermitian(d2, seed + 1, scale=1.0)
    h = tensor_product(a, np.eye(d2)) + tensor_product(np.eye(d1), b)
    return path_from_generator(h + random_hermitian(d1 * d2, seed + 2, scale=coupling), d1, d2)


HOISTING_PATHS = (
    [pytest.param(lambda d=d: geodesic_path(swap_unitary(d), d, d), id=f"swap-{d}") for d in (2, 3, 4)]
    + [
        pytest.param(lambda d=d: geodesic_path(dressed_swap(d, 11)[0], d, d), id=f"dressed-swap-{d}")
        for d in (2, 3)
    ]
    + [
        pytest.param(lambda d=d: geodesic_path(haar_unitary(d * d, 21), d, d), id=f"haar-{d}x{d}")
        for d in (2, 3)
    ]
    + [pytest.param(lambda: _local_path(2, 3, 31), id="local-2x3")]
    + [pytest.param(lambda: _local_path(3, 2, 41), id="local-3x2")]
    # Second Schmidt coefficients up to ~3e-10, below the margin 1e-8: the
    # inputs witness nothing, and every point is a product within the margin.
    + [pytest.param(lambda: _local_path(2, 3, 31, coupling=1e-9), id="near-local-2x3")]
)


class TestHoistedImages:
    @pytest.mark.parametrize("make", HOISTING_PATHS)
    def test_verdicts_match_classify_at_every_grid_point(self, make):
        path = make()
        d1, d2 = path.space.d1, path.space.d2
        profile = entanglement_profile(path, random_state(d2, 5), n_steps=64, seed=9)
        for k, pt in enumerate(profile.points):
            form = _classify(path_point(path, pt.t), d1, d2, DEFAULT_TOL, split_seed(9, f"verdict-{k}"))
            assert pt.verdict == form.verdict, (k, pt.t)

    @pytest.mark.parametrize("make", HOISTING_PATHS)
    def test_images_match_path_point(self, make):
        path = make()
        d1, d2 = path.space.d1, path.space.d2
        _, vecs = profile_inputs(d1, d2, random_state(d2, 5), 9, 8)
        images = list(_grid_images(path, vecs, 16))
        assert len(images) == 17
        assert np.array_equal(images[0], vecs)
        for k in range(1, 17):
            assert np.abs(images[k] - vecs @ path_point(path, k / 16).T).max() <= 1e-13

    @pytest.mark.parametrize("per_block", [1, 3, 16])
    def test_blocks_cover_every_grid_point(self, monkeypatch, per_block):
        path = geodesic_path(dressed_swap(3, 11)[0], 3, 3)
        _, vecs = profile_inputs(3, 3, random_state(3, 5), 9, 8)
        monkeypatch.setattr(dynamics, "_IMAGE_BLOCK", per_block * vecs.size)
        images = list(_grid_images(path, vecs, 16))
        assert len(images) == 17
        for k in range(1, 17):
            assert np.abs(images[k] - vecs @ path_point(path, k / 16).T).max() <= 1e-13

    @pytest.mark.parametrize(
        "make, probe, expected",
        [
            pytest.param(
                lambda: geodesic_path(swap_unitary(3), 3, 3), np.eye(3)[0],
                [(0.0, "product"), (1.0, "swap")], id="swap-3",
            ),
            pytest.param(
                lambda: _local_path(2, 3, 31), random_state(3, 5),
                [(k / 64, "product") for k in range(65)], id="local-2x3",
            ),
            pytest.param(
                lambda: path_from_generator(random_hermitian(3, 51), 1, 3), np.eye(3)[0],
                [(k / 64, "product") for k in range(65)], id="factor-dim-1",
            ),
        ],
    )
    def test_forms_fitted_only_where_no_input_witnesses(self, monkeypatch, make, probe, expected):
        path = make()
        calls = []

        def counted(name, record):
            kernel = getattr(dynamics, name)

            def wrapper(*args):
                out = kernel(*args)
                calls.append((name, record(args, out)))
                return out

            monkeypatch.setattr(dynamics, name, wrapper)

        counted("path_point", lambda args, out: args[1])
        counted("_classify", lambda args, out: out.verdict)
        entanglement_profile(path, probe, n_steps=64)
        assert calls == [
            call for t, verdict in expected for call in (("path_point", t), ("_classify", verdict))
        ]

    def test_input_ids_stable_under_degenerate_eigenbasis_change(self):
        path = geodesic_path(swap_unitary(3), 3, 3)
        vectors = path.vectors.copy()
        for phase in np.unique(np.round(path.phases, 12)):
            cols = np.flatnonzero(np.abs(path.phases - phase) < 1e-12)
            vectors[:, cols] = vectors[:, cols] @ haar_unitary(len(cols), 61)
        rotated = UnitaryPath(path.phases, vectors, path.space)
        a = entanglement_profile(path, np.eye(3)[0], n_steps=64, seed=9)
        b = entanglement_profile(rotated, np.eye(3)[0], n_steps=64, seed=9)
        for pa, pb in zip(a.points, b.points):
            assert abs(pa.max_entropy_bits - pb.max_entropy_bits) <= 1e-13
            assert (pa.maximizing_input_id, pa.verdict) == (pb.maximizing_input_id, pb.verdict)


class TestMaxPathEntanglement:
    def test_identity(self):
        path = geodesic_path(np.eye(4), 2, 2)
        _, _, entropy = max_path_entanglement(path, E2[0], n_steps=8, seed=1, n_inputs=2)
        assert entropy < 1e-12

    def test_swap_peak_at_midpoint(self):
        path = geodesic_path(swap_unitary(2), 2, 2)
        t_star, state, entropy = max_path_entanglement(path, E2[0], n_steps=64, seed=2, n_inputs=8)
        assert entropy > 0.5
        assert abs(t_star - 0.5) < 1e-12
        assert abs(entropy - 1.0) < 1e-9

    def test_cnot_reaches_witness_entropy(self):
        path = geodesic_path(cnot(), 2, 2)
        _, _, entropy = max_path_entanglement(path, E2[0], n_steps=64, seed=2, n_inputs=8)
        assert entropy >= 1.0 - 1e-9
