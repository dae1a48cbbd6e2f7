import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entkit.bipartite import DensityOperator, trace_distances
from entkit.errors import DimensionError, InvalidPOVMError, NonUnitaryError, NormalizationError
from entkit.fixtures import (
    haar_product,
    projective_povm,
    random_povm,
    trine_povm,
    trivial_povm,
)
from entkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    gram_defect,
    haar_unitary,
    probe_states,
    random_state,
    rng_from_seed,
    swap_unitary,
    tensor_product,
)
from entkit.measurement import (
    Instrument,
    MeasurementScheme,
    POVM,
    _disturbances,
    disturbance,
    luders_instrument,
    measured_observable,
    no_info_no_disturbance_check,
    outcome_probabilities,
    require_valid_povm,
    swap_scheme,
    triviality_deviation,
    validate_povm,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
E2 = np.eye(2)
PLUS = (E2[0] + E2[1]) / np.sqrt(2)


def _refused_with_report(e, tol=DEFAULT_TOL):
    """require_valid_povm raises, carrying validate_povm's report."""
    with pytest.raises(InvalidPOVMError) as exc:
        require_valid_povm(e, tol)
    assert exc.value.report == validate_povm(e)
    return exc.value.report


# One POVM per invariant, off by 1e-6 in that invariant alone.
BOUNDARY_POVMS = {
    "hermiticity_defect": lambda: POVM(
        2, ("a", "b"), (0.5 * E2 + 1e-6 * np.triu(np.ones((2, 2)), 1),
                        0.5 * E2 - 1e-6 * np.triu(np.ones((2, 2)), 1)),
    ),
    "negativity": lambda: POVM(2, ("a", "b"), (np.diag([-1e-6, 0.5]), np.diag([1 + 1e-6, 0.5]))),
    "completeness_defect": lambda: POVM(2, ("a", "b"), (np.diag([0.5 + 1e-6, 0.5]), 0.5 * E2)),
}


class TestValidatePOVM:
    def test_projective_valid(self):
        report = validate_povm(projective_povm(2))
        require_valid_povm(projective_povm(2), report=report)
        assert report["completeness_defect"] < 1e-12

    def test_scaled_identity_valid(self):
        e = POVM(2, ("a", "b"), (0.7 * np.eye(2), 0.3 * np.eye(2)))
        require_valid_povm(e)

    def test_double_identity_invalid(self):
        e = POVM(2, ("a", "b"), (np.eye(2), np.eye(2)))
        report = _refused_with_report(e)
        assert abs(report["completeness_defect"] - np.linalg.norm(np.eye(2))) < 1e-12

    def test_negative_effect_invalid(self):
        e = POVM(2, ("a", "b"), (1.5 * np.eye(2), -0.5 * np.eye(2)))
        assert _refused_with_report(e)["negativity"] > 0.4

    def test_trine_complete(self):
        report = validate_povm(trine_povm())
        require_valid_povm(trine_povm(), report=report)
        assert report["completeness_defect"] < 1e-12

    @given(seeds, st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_random_povm_always_valid(self, seed, n_out):
        require_valid_povm(random_povm(3, n_out, seed))

    @pytest.mark.parametrize("invariant", sorted(BOUNDARY_POVMS))
    def test_entry_at_tol_passes_and_just_above_is_refused(self, invariant):
        e = BOUNDARY_POVMS[invariant]()
        report = validate_povm(e)
        at = report[invariant]
        assert 0.5e-6 < at < 2e-6
        assert all(v < 1e-12 for k, v in report.items() if k != invariant)
        require_valid_povm(e, Tolerance(at))
        _refused_with_report(e, Tolerance(np.nextafter(at, 0.0)))


class TestSwapScheme:
    def test_projective(self):
        s = swap_scheme(projective_povm(2), E2[0])
        assert s.object_dim == s.probe_dim == 2
        np.testing.assert_array_equal(s.coupling, swap_unitary(2))

    def test_trivial_pointer(self):
        s = swap_scheme(trivial_povm(2), E2[0])
        assert triviality_deviation(s.pointer) <= DEFAULT_TOL.eps

    def test_trine(self):
        s = swap_scheme(trine_povm(), random_state(2, 4))
        assert s.probe_dim == 2 and len(s.pointer.outcomes) == 3

    def test_invalid_povm_rejected(self):
        bad = POVM(2, ("a", "b"), (np.eye(2), np.eye(2)))
        with pytest.raises(InvalidPOVMError):
            swap_scheme(bad, E2[0])


class TestMeasuredObservable:
    def test_swap_reproduces_pointer(self):
        pointer = random_povm(3, 3, 12)
        s = swap_scheme(pointer, random_state(3, 13))
        induced = measured_observable(s)
        worst = max(
            np.linalg.norm(a - b) for a, b in zip(induced.effects, pointer.effects)
        )
        assert worst < 1e-12

    def test_product_coupling_trivial_with_predicted_scalars(self):
        v = haar_unitary(2, 31)
        w = haar_unitary(2, 32)
        pointer = random_povm(2, 2, 33)
        phi0 = random_state(2, 34)
        s = MeasurementScheme(2, 2, phi0, tensor_product(v, w), pointer)
        induced = measured_observable(s)
        assert triviality_deviation(induced) <= 1e-10
        for ind, eff in zip(induced.effects, pointer.effects):
            predicted = float(np.vdot(w @ phi0, eff @ (w @ phi0)).real)
            assert abs(float(np.trace(ind).real) / 2 - predicted) < 1e-12

    def test_identity_coupling(self):
        pointer = random_povm(2, 2, 40)
        phi0 = random_state(2, 41)
        s = MeasurementScheme(2, 2, phi0, np.eye(4), pointer)
        induced = measured_observable(s)
        for ind, eff in zip(induced.effects, pointer.effects):
            lam = float(np.vdot(phi0, eff @ phi0).real)
            assert np.linalg.norm(ind - lam * np.eye(2)) < 1e-12

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_output_is_valid_povm(self, seed):
        pointer = random_povm(2, 3, seed)
        phi0 = random_state(2, seed + 1)
        coupling = haar_unitary(4, seed + 2)
        s = MeasurementScheme(2, 2, phi0, coupling, pointer)
        require_valid_povm(measured_observable(s), Tolerance(1e-10))


class TestOutcomeProbabilities:
    def test_swap_on_plus(self):
        s = swap_scheme(projective_povm(2), E2[0])
        probs = outcome_probabilities(s, PLUS)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_single_outcome(self):
        s = MeasurementScheme(2, 2, E2[0], haar_unitary(4, 3), trivial_povm(2, (1.0,)))
        probs = outcome_probabilities(s, random_state(2, 9))
        np.testing.assert_allclose(probs, [1.0], atol=1e-12)

    def test_product_coupling_state_independent(self):
        v, w = haar_unitary(2, 50), haar_unitary(2, 51)
        s = MeasurementScheme(
            2, 2, random_state(2, 52), tensor_product(v, w), random_povm(2, 3, 53)
        )
        p1 = outcome_probabilities(s, random_state(2, 54))
        p2 = outcome_probabilities(s, random_state(2, 55))
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_rejects_unnormalized(self):
        s = swap_scheme(projective_povm(2), E2[0])
        with pytest.raises(NormalizationError):
            outcome_probabilities(s, np.array([1.0, 1.0]))

    # Defect 8e-9 (statistics would be renormalized) and 4e-3 (they would sum
    # to 1.002): both are the coupling's fault, as in measured_observable.
    @pytest.mark.parametrize("scale", [1 + 2e-9, 1 + 1e-3])
    def test_non_unitary_coupling_rejected(self, scale):
        s = MeasurementScheme(2, 2, E2[0], haar_unitary(4, 3) * scale, projective_povm(2))
        with pytest.raises(NonUnitaryError, match="coupling is not unitary"):
            outcome_probabilities(s, PLUS, Tolerance(1e-9))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_matches_measured_observable(self, seed):
        pointer = random_povm(2, 2, seed)
        s = MeasurementScheme(
            2, 2, random_state(2, seed + 1), haar_unitary(4, seed + 2), pointer
        )
        phi = random_state(2, seed + 3)
        probs = outcome_probabilities(s, phi)
        induced = measured_observable(s)
        direct = [float(np.vdot(phi, eff @ phi).real) for eff in induced.effects]
        np.testing.assert_allclose(probs, direct, atol=1e-10)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_sums_to_one(self, seed):
        s = MeasurementScheme(
            3,
            3,
            random_state(3, seed),
            haar_unitary(9, seed + 1),
            random_povm(3, 4, seed + 2),
        )
        probs = outcome_probabilities(s, random_state(3, seed + 3))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs.min() >= 0.0


class TestLudersInstrument:
    def test_swap_projective_leaves_probe_state(self):
        phi0 = random_state(2, 60)
        s = swap_scheme(projective_povm(2), phi0)
        inst = luders_instrument(s)
        phi = random_state(2, 61)
        maps = inst.apply(np.outer(phi, phi.conj())[None])[0]
        for k in range(2):
            out = maps[k]
            p = abs(phi[k]) ** 2
            assert abs(np.trace(out).real - p) < 1e-12
            np.testing.assert_allclose(out, p * np.outer(phi0, phi0.conj()), atol=1e-12)

    def test_single_outcome_pointer_traces_out(self):
        s = MeasurementScheme(2, 2, E2[0], haar_unitary(4, 62), trivial_povm(2, (1.0,)))
        inst = luders_instrument(s)
        rho = DensityOperator.from_pure(random_state(2, 63))
        out = inst.apply(rho.mat[None])[0, 0]
        assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_identity_coupling_undisturbed(self):
        pointer = random_povm(2, 2, 64)
        phi0 = random_state(2, 65)
        s = MeasurementScheme(2, 2, phi0, np.eye(4), pointer)
        inst = luders_instrument(s)
        rho = DensityOperator.from_pure(random_state(2, 66))
        maps = inst.apply(rho.mat[None])[0]
        for k, eff in enumerate(pointer.effects):
            lam = float(np.vdot(phi0, eff @ phi0).real)
            np.testing.assert_allclose(maps[k], lam * rho.mat, atol=1e-12)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_trace_consistency(self, seed):
        pointer = random_povm(2, 3, seed)
        s = MeasurementScheme(
            2, 2, random_state(2, seed + 1), haar_unitary(4, seed + 2), pointer
        )
        inst = luders_instrument(s)
        assert gram_defect(inst.kraus.reshape(-1, inst.dim)) < 1e-10
        phi = random_state(2, seed + 3)
        maps = inst.apply(np.outer(phi, phi.conj())[None])[0]
        probs = outcome_probabilities(s, phi)
        for k in range(len(pointer.outcomes)):
            assert abs(np.trace(maps[k]).real - probs[k]) < 1e-10


class TestDisturbance:
    def test_identity_zero(self):
        s = MeasurementScheme(2, 2, E2[0], np.eye(4), random_povm(2, 2, 70))
        rho = DensityOperator.from_pure(random_state(2, 71))
        assert disturbance(s, rho) < 1e-12

    def test_swap_replaces_object(self):
        s = MeasurementScheme(2, 2, E2[0], swap_unitary(2), trivial_povm(2, (1.0,)))
        rho = DensityOperator.from_pure(E2[1])
        assert abs(disturbance(s, rho) - 1.0) < 1e-12

    def test_product_coupling_is_local_rotation(self):
        v, w = haar_unitary(2, 72), haar_unitary(2, 73)
        s = MeasurementScheme(
            2, 2, random_state(2, 74), tensor_product(v, w), random_povm(2, 2, 75)
        )
        rho = DensityOperator.from_pure(random_state(2, 76))
        rotated = v @ rho.mat @ v.conj().T
        assert abs(disturbance(s, rho) - trace_distances(rho.mat[None], rotated[None])[0]) < 1e-12


class TestIsTrivialPOVM:
    def test_half_identity(self):
        assert triviality_deviation(trivial_povm(2)) == 0.0

    def test_projective_not_trivial(self):
        deviation = triviality_deviation(projective_povm(2))
        assert deviation > DEFAULT_TOL.eps
        assert abs(deviation - 1 / np.sqrt(2)) < 1e-15

    def test_product_coupling_observable_trivial(self):
        u, _, _ = haar_product(2, 2, 80)
        s = MeasurementScheme(2, 2, random_state(2, 81), u, random_povm(2, 2, 82))
        assert triviality_deviation(measured_observable(s)) <= DEFAULT_TOL.eps


class TestNoInfoNoDisturbance:
    def test_identity_scheme(self):
        s = MeasurementScheme(2, 2, E2[0], np.eye(4), random_povm(2, 2, 90))
        report = no_info_no_disturbance_check(s, seed=90)
        assert report.undisturbed and report.trivial and report.implication_holds
        assert report.max_disturbance < 1e-12

    def test_swap_scheme_gains_info_and_disturbs(self):
        s = swap_scheme(projective_povm(2), E2[0])
        report = no_info_no_disturbance_check(s, seed=91)
        assert not report.undisturbed
        assert not report.trivial
        assert report.implication_holds
        assert report.max_disturbance > 1e-8

    def test_product_coupling_disturbs_without_info(self):
        v, w = haar_unitary(2, 92), haar_unitary(2, 93)
        s = MeasurementScheme(
            2, 2, random_state(2, 94), tensor_product(v, w), random_povm(2, 2, 95)
        )
        report = no_info_no_disturbance_check(s, seed=96)
        assert not report.undisturbed
        assert report.trivial
        assert report.implication_holds

    def test_triviality_deviation_zero_on_trivial(self):
        assert triviality_deviation(trivial_povm(3, (0.2, 0.8))) < 1e-15


class TestSchemeValidation:
    def test_non_unitary_coupling_raises_with_defect(self):
        coupling = swap_unitary(2)
        coupling[0, 0] = 3.0
        s = MeasurementScheme(2, 2, E2[0], coupling, projective_povm(2))
        with pytest.raises(NonUnitaryError) as exc:
            s.check()
        assert isinstance(exc.value, ValueError)
        assert exc.value.defect == pytest.approx(8.0)

    def test_arrays_are_read_only_copies(self):
        coupling, phi0 = haar_unitary(4, 1), random_state(2, 2)
        s = MeasurementScheme(2, 2, phi0, coupling, random_povm(2, 2, 3))
        before = s.coupling_defect
        coupling[0, 0] = 3.0
        phi0[0] = 3.0
        assert s.coupling[0, 0] != 3.0 and s.probe_init[0] != 3.0
        assert s.coupling_defect == before
        s.check()
        for a in (s.coupling, s.probe_init, s.slice_map):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_pointer_report_is_compared_to_each_tol(self):
        # One cached report, independent of tol, decides check at every tol.
        pointer = POVM(2, ("0", "1"), [np.diag([1.0, 1e-7]), np.diag([1e-7, 1.0])])
        s = MeasurementScheme(2, 2, E2[0], swap_unitary(2), pointer)
        assert s.pointer_report == validate_povm(pointer)
        s.check(Tolerance(1e-6))
        with pytest.raises(InvalidPOVMError, match="invalid POVM") as exc:
            s.check(Tolerance(1e-9))
        assert exc.value.report == s.pointer_report
        assert str(exc.value) == f"invalid POVM: {validate_povm(pointer)}"

    def test_one_unitarity_check_per_no_info_check(self, unitarity_checks):
        s = MeasurementScheme(2, 3, random_state(3, 4), haar_unitary(6, 5), random_povm(3, 2, 6))
        no_info_no_disturbance_check(s, seed=7)
        assert unitarity_checks == [(6, 6)]


OFF_NORM = 1 + 1e-10


class TestNormTolerance:
    """Unit-norm checks follow tol.eps: a norm off by 1e-10 passes at the
    default 1e-9 and fails at 1e-12."""

    CASES = {
        "probe_init": lambda tol: MeasurementScheme(
            2, 2, E2[0] * OFF_NORM, swap_unitary(2), projective_povm(2)
        ).check(tol),
        "object_state": lambda tol: outcome_probabilities(
            swap_scheme(projective_povm(2), E2[0]), PLUS * OFF_NORM, tol
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_follows_tol(self, case):
        self.CASES[case](Tolerance())
        with pytest.raises(NormalizationError):
            self.CASES[case](Tolerance(1e-12))


# Haar couplings for the reference comparisons, (d1, d2) with seeds.
REFERENCE_DIMS = [(2, 3), (3, 2), (3, 4), (4, 4)]


def _reference_scheme(d1, d2):
    seed = 10 * d1 + d2
    return MeasurementScheme(
        d1, d2, random_state(d2, seed), haar_unitary(d1 * d2, seed + 1),
        random_povm(d2, 3, seed + 2),
    )


def _kron_slice(s):
    """U (I ⊗ |φ0>) from Kronecker identities."""
    return s.coupling @ np.kron(np.eye(s.object_dim), s.probe_init.reshape(-1, 1))


def _kron_observable(s):
    b = _kron_slice(s)
    out = []
    for eff in s.pointer.effects:
        ep = b.conj().T @ np.kron(np.eye(s.object_dim), eff) @ b
        out.append((ep + ep.conj().T) / 2)
    return out


def _kron_probabilities(s, phi):
    psi = s.coupling @ np.kron(phi, s.probe_init)
    return [
        float(np.vdot(psi, np.kron(np.eye(s.object_dim), eff) @ psi).real)
        for eff in s.pointer.effects
    ]


def _kron_kraus(s):
    d1, d2 = s.object_dim, s.probe_dim
    b = _kron_slice(s)
    out = []
    for eff in s.pointer.effects:
        w, v = np.linalg.eigh((eff + eff.conj().T) / 2)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        m = np.kron(np.eye(d1), root) @ b
        out.append([m.reshape(d1, d2, d1)[:, k, :] for k in range(d2)])
    return out


class TestAgainstKronReference:
    TOL = 1e-13

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_slice_map(self, d1, d2):
        s = _reference_scheme(d1, d2)
        assert np.abs(s.slice_map - _kron_slice(s)).max() < self.TOL

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_measured_observable(self, d1, d2):
        s = _reference_scheme(d1, d2)
        got = measured_observable(s).effects
        for a, b in zip(got, _kron_observable(s), strict=True):
            assert np.abs(a - b).max() < self.TOL

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_outcome_probabilities(self, d1, d2):
        s = _reference_scheme(d1, d2)
        phi = random_state(d1, 99)
        got = outcome_probabilities(s, phi)
        np.testing.assert_allclose(got, _kron_probabilities(s, phi), rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_luders_kraus(self, d1, d2):
        s = _reference_scheme(d1, d2)
        got = luders_instrument(s).kraus
        for ops, want in zip(got, _kron_kraus(s), strict=True):
            for a, b in zip(ops, want, strict=True):
                assert np.abs(a - b).max() < self.TOL


class TestNoInfoStates:
    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_states_come_from_the_probe_generator(self, d1, d2):
        s = _reference_scheme(d1, d2)
        seed, n = 5, 16
        labels, vecs = probe_states(d1, rng_from_seed(seed), n)
        dists = [disturbance(s, DensityOperator.from_pure(vec)) for vec in vecs]
        rhos = vecs[:, :, None] * vecs[:, None, :].conj()
        np.testing.assert_array_equal(_disturbances(s, rhos, DEFAULT_TOL), dists)
        report = no_info_no_disturbance_check(s, seed=seed, n_states=n)
        assert report.n_states == len(labels)
        assert report.max_disturbance_state == labels[int(np.argmax(dists))]
        assert report.max_disturbance == max(dists)


def _loop_outcome_map(inst, index, rho):
    """One outcome's map by the per-Kraus loop of entkit 0.11.0."""
    out = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for k in inst.kraus[index]:
        out += k @ rho @ k.conj().T
    return out


def _loop_nonselective(inst, rho):
    total = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for index in range(len(inst.outcomes)):
        total += _loop_outcome_map(inst, index, rho)
    return total


def _loop_trace_preservation_defect(inst):
    acc = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for ops in inst.kraus:
        for k in ops:
            acc += k.conj().T @ k
    return np.linalg.norm(acc - np.eye(inst.dim))


def _mixed_state(d, seed):
    a, b = random_state(d, seed), random_state(d, seed + 1)
    return 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())


class TestChannelAgainstKrausLoop:
    """The stacked channel rounds as the per-Kraus loop it replaced, which
    keeps the disturbance in every report byte-identical."""

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_outcome_maps_and_nonselective(self, d1, d2):
        inst = luders_instrument(_reference_scheme(d1, d2))
        pure = DensityOperator.from_pure(random_state(d1, 7)).mat
        for rho in (pure, _mixed_state(d1, 8)):
            maps = inst.apply(rho[None])
            for index in range(len(inst.outcomes)):
                np.testing.assert_array_equal(maps[0, index], _loop_outcome_map(inst, index, rho))
            want = _loop_nonselective(inst, rho)
            np.testing.assert_array_equal(maps.sum(axis=1)[0], want)

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_trace_preservation_defect(self, d1, d2):
        inst = luders_instrument(_reference_scheme(d1, d2))
        defect = gram_defect(inst.kraus.reshape(-1, inst.dim))
        assert defect < 1e-13
        assert abs(defect - _loop_trace_preservation_defect(inst)) < 1e-14

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_each_state_of_a_stack_as_alone(self, d1, d2):
        inst = luders_instrument(_reference_scheme(d1, d2))
        _, vecs = probe_states(d1, rng_from_seed(3), 4)
        rhos = np.concatenate([vecs[:, :, None] * vecs[:, None, :].conj(), [_mixed_state(d1, 9)]])
        out = inst.apply(rhos)
        assert out.shape == (len(rhos), len(inst.outcomes), d1, d1)
        for rho, maps in zip(rhos, out):
            np.testing.assert_array_equal(maps, inst.apply(rho[None])[0])


class TestStackedOperators:
    def test_povm_effects_are_a_read_only_stack(self):
        effects = [0.3 * np.eye(3), 0.7 * np.eye(3)]
        e = POVM(3, ("a", "b"), effects)
        assert e.effects.shape == (2, 3, 3) and e.effects.dtype == np.complex128
        effects[0][0, 0] = 5.0
        assert e.effects[0, 0, 0] == 0.3
        with pytest.raises(ValueError):
            e.effects[0, 0, 0] = 1.0

    @pytest.mark.parametrize("d1,d2", REFERENCE_DIMS)
    def test_instrument_kraus_is_a_read_only_stack(self, d1, d2):
        s = _reference_scheme(d1, d2)
        inst = luders_instrument(s)
        assert inst.kraus.shape == (len(s.pointer.outcomes), d2, d1, d1)
        assert inst.kraus.flags.c_contiguous
        with pytest.raises(ValueError):
            inst.kraus[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize(
        "labels,message",
        [
            # Labels are compared as the strings a report lists.
            ((1, "1"), "outcome labels must be distinct"),
            (("a", "a"), "outcome labels must be distinct"),
            (("a", "b", "c"), "one effect per outcome label"),
        ],
        ids=["int-and-str", "repeated", "count-mismatch"],
    )
    def test_bad_outcome_labels_refused(self, labels, message):
        with pytest.raises(InvalidPOVMError, match=message):
            POVM(2, labels, (0.5 * np.eye(2), 0.5 * np.eye(2)))

    @pytest.mark.parametrize(
        "second", [np.eye(3), np.ones(2), np.ones((2, 2, 2))], ids=["3x3", "vector", "3-d"]
    )
    def test_ragged_povm_is_a_dimension_error(self, second):
        with pytest.raises(DimensionError):
            POVM(2, ("a", "b"), (np.eye(2), second))

    def test_instrument_shape_is_checked(self):
        for kraus in (np.zeros((1, 2, 3, 3)), np.zeros((2, 2, 2, 2)), np.zeros((1, 2, 2))):
            with pytest.raises(DimensionError):
                Instrument(2, ("a",), kraus)

    def test_effect_eigenvalue_just_below_zero_stays_trace_preserving(self):
        # -1e-10 is within tol 1e-9, so the scheme check passes it and the
        # square roots clip it to 0; the sum of effects is still I.
        eps = 1e-10
        pointer = POVM(2, ("0", "1"), (np.diag([-eps, 0.5]), np.diag([1 + eps, 0.5])))
        s = MeasurementScheme(2, 2, random_state(2, 1), haar_unitary(4, 2), pointer)
        assert np.linalg.eigvalsh(pointer.effects[0]).min() == -eps
        inst = luders_instrument(s)
        assert gram_defect(inst.kraus.reshape(-1, inst.dim)) <= 2 * eps

    def test_effect_eigenvalue_below_minus_tol_is_refused(self):
        pointer = POVM(2, ("0", "1"), (np.diag([-1e-8, 0.5]), np.diag([1 + 1e-8, 0.5])))
        s = MeasurementScheme(2, 2, random_state(2, 1), haar_unitary(4, 2), pointer)
        with pytest.raises(InvalidPOVMError, match="negativity"):
            luders_instrument(s)
