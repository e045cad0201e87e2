import math

import numpy as np
import pytest

from rtnqubit import (
    MU_STAR_BOUND,
    KrausSet,
    ModelParams,
    NotCompletelyPositiveError,
    apply_channel,
    bloch_to_density,
    dephasing_steady_state,
    is_cp,
    kraus_from_params,
    pauli,
    propagate,
    relaxation_profile,
)

RNG = np.random.default_rng(5150)


def random_state(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return bloch_to_density(v * rng.uniform() ** (1.0 / 3.0))


def random_cp_params(rng):
    # pure-damping configurations (all kappa tau < 1/4) are CP-safe
    a = rng.uniform(0.0, 0.15, 3)
    return ModelParams(a=tuple(a), tau=rng.uniform(0.2, 1.0))


class TestKrausConstruction:
    def test_identity_channel_is_single_operator(self):
        p = ModelParams(a=(1.0, 0.5, 0.2), tau=1.0)
        ks = kraus_from_params(p, 0.0)
        assert len(ks) == 1
        assert ks.basis_indices == (0,)
        assert ks.weights == (1.0,)
        assert np.array_equal(ks.operators[0], np.eye(2, dtype=complex))

    def test_dephasing_pair(self):
        a_tau = 1.0
        p = ModelParams(a=(0.0, 0.0, a_tau), tau=1.0)
        nu = 0.8
        profile = relaxation_profile(nu, a_tau)
        ks = kraus_from_params(p, nu)
        assert len(ks) == 2
        by_basis = dict(zip(ks.basis_indices, ks.operators))
        assert set(by_basis) == {0, 3}
        assert np.allclose(
            by_basis[0], math.sqrt((1.0 + profile) / 2.0) * np.eye(2), atol=1e-15
        )
        assert np.allclose(
            by_basis[3], math.sqrt((1.0 - profile) / 2.0) * pauli(3), atol=1e-15
        )

    def test_non_cp_raises_with_witness(self):
        p = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
        verdict = is_cp(p)
        assert not verdict.is_cp
        with pytest.raises(NotCompletelyPositiveError) as exc:
            kraus_from_params(p, verdict.witness.nu)
        err = exc.value
        assert err.index == verdict.witness.index
        assert err.value == pytest.approx(verdict.witness.value, rel=1e-9)
        assert err.value < -1e-10

    def test_roundoff_negative_xi_clamped(self):
        # at the frequency bound the minimum of xi_4 is an exact zero; the
        # floating-point value dips a few 1e-17 below and must be clamped
        a = math.sqrt((MU_STAR_BOUND**2 + 1.0) / 32.0)
        p = ModelParams(a=(a, a, a), tau=1.0)
        ks = kraus_from_params(p, math.pi / MU_STAR_BOUND)
        assert min(ks.weights) >= 0.0
        assert ks.completeness_defect() < 1e-12

    def test_completeness(self):
        for _ in range(100):
            p = random_cp_params(RNG)
            ks = kraus_from_params(p, RNG.uniform(0.0, 6.0))
            assert ks.completeness_defect() <= 1e-12

    def test_negative_weight_rejected(self):
        for w in (-0.1, math.nan):
            with pytest.raises(ValueError, match="Kraus weight must be >= 0"):
                KrausSet(weights=(w, 1.1), basis_indices=(1, 0))
        # a zero weight drops its operator but does not excuse a bad index
        with pytest.raises(ValueError, match="Pauli index must be 0, 1, 2 or 3, got 7"):
            KrausSet(weights=(0.0, 1.0), basis_indices=(7, 0))
        with pytest.raises(ValueError, match="nu must be >= 0"):
            kraus_from_params(ModelParams(a=(0.4, 0.3, 1.2), tau=0.7), math.nan)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="2 Kraus weights for 1 basis indices"):
            KrausSet(weights=(0.5, 0.5), basis_indices=(1,))

    def test_construction_succeeds_iff_map_is_cp(self):
        # a CP verdict means the Kraus form exists at every scanned time,
        # and a negative verdict means it fails at the witness
        cp_params = ModelParams(a=(0.5, 0.5, 0.0), tau=1.0)
        verdict = is_cp(cp_params)
        assert verdict.is_cp
        for nu in np.linspace(0.0, verdict.horizon, 200):
            assert kraus_from_params(cp_params, nu).completeness_defect() <= 1e-12

        bad_params = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
        bad = is_cp(bad_params)
        assert not bad.is_cp
        with pytest.raises(NotCompletelyPositiveError):
            kraus_from_params(bad_params, bad.witness.nu)


class TestApplyChannel:
    def test_identity_set_leaves_state(self):
        ks = KrausSet(weights=(1.0,), basis_indices=(0,))
        rho = random_state(RNG)
        assert np.array_equal(apply_channel(ks, rho), rho)
        # all weights zero: the empty set maps every state to zero
        empty = KrausSet(weights=(0.0, 0.0), basis_indices=(1, 0))
        assert len(empty) == 0
        assert np.array_equal(apply_channel(empty, rho), np.zeros((2, 2)))
        assert empty.completeness_defect() == 1.0

    def test_agrees_with_propagator(self):
        # two independent routes to the same state: Kraus conjugation vs
        # Bloch-component scaling
        for _ in range(500):
            p = random_cp_params(RNG)
            nu = RNG.uniform(0.0, 5.0)
            rho = random_state(RNG)
            via_kraus = apply_channel(kraus_from_params(p, nu), rho)
            via_bloch = propagate(rho, nu, p)
            assert np.max(np.abs(via_kraus - via_bloch)) <= 1e-12

    def test_hermitian_operators_make_ordering_immaterial(self):
        p = random_cp_params(RNG)
        ks = kraus_from_params(p, 1.3)
        rho = random_state(RNG)
        forward = sum(op @ rho @ op.conj().T for op in ks.operators)
        reversed_order = sum(op.conj().T @ rho @ op for op in ks.operators)
        assert np.array_equal(forward, reversed_order)
        # the batched conjugation is the per-operator sum, bit for bit
        assert np.array_equal(apply_channel(ks, rho), forward)

    def test_output_is_valid_state(self):
        for _ in range(200):
            p = random_cp_params(RNG)
            out = apply_channel(
                kraus_from_params(p, RNG.uniform(0.0, 5.0)), random_state(RNG)
            )
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_full_decoherence_kills_transverse_components(self):
        # dephasing with the profile driven to ~0: x and y vanish, z kept
        p = ModelParams(a=(0.0, 0.0, 1.0), tau=1.0)
        nu = 40.0
        rho = bloch_to_density([0.6, -0.3, 0.5])
        out = apply_channel(kraus_from_params(p, nu), rho)
        assert abs(out[0, 1]) < 1e-12
        assert out[0, 0].real == pytest.approx(0.75, abs=1e-12)


class TestDephasingSteadyState:
    def test_plus_x_goes_maximally_mixed(self):
        rho = bloch_to_density([1.0, 0.0, 0.0])
        assert np.allclose(dephasing_steady_state(rho), np.eye(2) / 2.0, atol=1e-16)

    def test_diagonal_states_fixed(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.array_equal(dephasing_steady_state(rho), rho)

    def test_reached_by_nu_40(self):
        # underdamped dephasing: |Lambda(40)| <= ~2 e^-40, far below 1e-12
        for a_tau in (1.0, 10.0, 100.0):
            p = ModelParams(a=(0.0, 0.0, a_tau), tau=1.0)
            rho = random_state(RNG)
            assert np.max(np.abs(propagate(rho, 40.0, p) - dephasing_steady_state(rho))) <= 1e-12

    def test_overdamped_dephasing_needs_longer(self):
        # at a tau = 0.1 the slow rate 1 - mt ~ 8 (a tau)^2 means nu = 40 is
        # nowhere near stationary; by nu = 400 it is
        p = ModelParams(a=(0.0, 0.0, 0.1), tau=1.0)
        rho = bloch_to_density([1.0, 0.0, 0.0])
        ss = dephasing_steady_state(rho)
        assert np.max(np.abs(propagate(rho, 40.0, p) - ss)) > 1e-3
        assert np.max(np.abs(propagate(rho, 400.0, p) - ss)) <= 1e-12

    def test_matches_infinite_time_envelope(self):
        # deviation bounded by 2 exp(-nu) in the oscillatory regime
        p = ModelParams(a=(0.0, 0.0, 2.0), tau=1.0)
        rho = random_state(RNG)
        ss = dephasing_steady_state(rho)
        for nu in (2.0, 5.0, 10.0):
            assert np.max(np.abs(propagate(rho, nu, p) - ss)) <= 2.0 * math.exp(-nu)
