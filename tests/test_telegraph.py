import math

import numpy as np
import pytest

from rtnqubit import (
    ExponentialKernel,
    ModelParams,
    Regime,
    bloch_to_density,
    classify_regime,
    damping_spectrum,
    density_to_bloch,
    markov_propagate,
    markov_rates,
    pauli,
    propagate,
    propagate_time,
    relaxation_profile,
    relaxation_profiles,
    solve_volterra,
)

RNG = np.random.default_rng(2024)


def random_params(rng, scale=3.0):
    return ModelParams(a=tuple(rng.uniform(0.0, scale, 3)), tau=rng.uniform(0.1, 2.0))


def edge_params():
    """Parameters whose kappa*tau values hit 0, the critical window around
    1/4 (both sides and the centre), a damped and a ringing profile."""
    out = [
        ModelParams(a=(0.0, 0.0, kt), tau=1.0)  # kappa taus (kt, kt, 0)
        for kt in (0.25 - 1e-7, 0.25, 0.25 + 1e-7, 0.1, 1.3)
    ]
    out.append(ModelParams(a=(0.3, 0.05, 1.1), tau=0.9))
    return out


def random_state(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return bloch_to_density(v * rng.uniform() ** (1.0 / 3.0))


def dissipator_superoperator(params):
    """Brute-force 4x4 matrix of rho -> -sum_k a_k^2 [s_k, [s_k, rho]]."""
    mat = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        basis = np.zeros((2, 2), dtype=complex)
        basis[col // 2, col % 2] = 1.0
        image = np.zeros((2, 2), dtype=complex)
        for k in (1, 2, 3):
            s = pauli(k)
            image -= params.a[k - 1] ** 2 * (s @ (s @ basis - basis @ s) - (s @ basis - basis @ s) @ s)
        mat[:, col] = image.ravel()
    return mat


class TestModelParams:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(a=(1.0, -0.5, 0.0), tau=1.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            ModelParams(a=(1.0, 1.0, 1.0), tau=0.0)
        with pytest.raises(ValueError):
            ModelParams(a=(1.0, 1.0, 1.0), tau=math.inf)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            ModelParams(a=(1.0, 2.0), tau=1.0)

    def test_kappas(self):
        p = ModelParams(a=(3.0, 4.0, 0.0), tau=1.0)
        assert np.allclose(p.kappas, [4.0, 3.0, 5.0], atol=0)


class TestDampingSpectrum:
    def test_dephasing(self):
        p = ModelParams(a=(0.0, 0.0, 2.0), tau=1.0)
        assert np.allclose(damping_spectrum(p), [0.0, -16.0, -16.0, 0.0], atol=0)

    def test_free(self):
        p = ModelParams(a=(0.0, 0.0, 0.0), tau=1.0)
        assert np.array_equal(damping_spectrum(p), np.zeros(4))

    def test_two_axis(self):
        p = ModelParams(a=(1.0, 1.0, 0.0), tau=1.0)
        assert np.allclose(damping_spectrum(p), [0.0, -4.0, -4.0, -8.0], atol=0)

    def test_against_superoperator_oracle(self):
        for _ in range(25):
            p = random_params(RNG)
            brute = np.linalg.eigvals(dissipator_superoperator(p))
            assert np.max(np.abs(brute.imag)) < 1e-10
            assert np.allclose(
                np.sort(brute.real), np.sort(damping_spectrum(p)), atol=1e-9
            )

    def test_eigenoperators_are_pauli_basis(self):
        # each sigma_i is an eigenoperator of the dissipator with
        # eigenvalue lambda_i
        for _ in range(10):
            p = random_params(RNG)
            spectrum = damping_spectrum(p)
            for i in range(4):
                sig = pauli(i)
                image = np.zeros((2, 2), dtype=complex)
                for k in (1, 2, 3):
                    s = pauli(k)
                    comm = s @ sig - sig @ s
                    image -= p.a[k - 1] ** 2 * (s @ comm - comm @ s)
                assert np.max(np.abs(image - spectrum[i] * sig)) < 1e-9 * max(
                    1.0, abs(spectrum[i])
                )


class TestRegimes:
    @pytest.mark.parametrize(
        "kappa_tau,expected",
        [(0.1, Regime.OVERDAMPED), (0.25, Regime.CRITICAL), (0.3, Regime.UNDERDAMPED)],
    )
    def test_classification(self, kappa_tau, expected):
        # dephasing shape makes kappa_1 = kappa_2 = a
        p = ModelParams(a=(0.0, 0.0, kappa_tau), tau=1.0)
        regimes = classify_regime(p)
        assert regimes[0] is expected
        assert regimes[1] is expected
        assert regimes[2] is Regime.OVERDAMPED  # kappa_3 = 0

    def test_near_critical_tolerance(self):
        p = ModelParams(a=(0.0, 0.0, 0.25 + 1e-13), tau=1.0)
        assert classify_regime(p)[0] is Regime.CRITICAL


class TestRelaxationProfile:
    def test_origin_is_one_exactly(self):
        for kt in (0.0, 0.1, 0.25, 1.0, 100.0):
            assert relaxation_profile(0.0, kt) == 1.0
        arr = relaxation_profile(np.array([0.0, 1.0]), 0.7)
        assert arr[0] == 1.0

    def test_zero_coupling_is_identity(self):
        nu = np.linspace(0.0, 50.0, 101)
        assert np.array_equal(relaxation_profile(nu, 0.0), np.ones(101))

    def test_critical_closed_form(self):
        nu = np.linspace(0.0, 10.0, 301)
        expected = np.exp(-nu) * (1.0 + nu)
        assert np.max(np.abs(relaxation_profile(nu, 0.25) - expected)) < 1e-14

    def test_critical_against_volterra(self):
        # arbitrates the critical-point form: the quadrature solution
        # follows exp(-nu)(1 + nu), not exp(-nu)(1 - nu)
        tau = 1.0
        kappa = 0.25
        sol = solve_volterra(
            ExponentialKernel(tau=tau), -4.0 * kappa**2, t_max=20.0, steps=20_000
        )
        nu = sol.nu_grid(tau)
        assert np.max(np.abs(sol.values - np.exp(-nu) * (1.0 + nu))) < 1e-6
        wrong = np.exp(-nu) * (1.0 - nu)
        assert np.max(np.abs(sol.values - wrong)) > 0.5

    def test_series_window_continuity(self):
        # the series used inside |4 kt - 1| < 1e-6 matches the exact
        # branches at the window edges to 1e-10
        nu = np.linspace(0.0, 8.0, 641)
        for sign in (+1.0, -1.0):
            kt_edge = (1.0 + sign * 1.001e-6) / 4.0
            musq = (4.0 * kt_edge) ** 2 - 1.0
            series = np.exp(-nu) * ((1.0 + nu) - 0.5 * musq * nu**2 * (1.0 + nu / 3.0))
            assert np.max(np.abs(relaxation_profile(nu, kt_edge) - series)) < 1e-10

    def test_small_nu_series_fit(self):
        for kt in (0.05, 0.3, 1.0, 3.0):
            musq = (4.0 * kt) ** 2 - 1.0
            nu_max = 0.1 / math.sqrt(abs(musq) + 1.0)
            nu = np.linspace(0.0, nu_max, 500)
            coef = np.polynomial.polynomial.polyfit(
                nu / nu_max, relaxation_profile(nu, kt), 8
            )
            assert abs(coef[1] / nu_max) < 1e-6
            assert coef[2] / nu_max**2 == pytest.approx(-(musq + 1.0) / 2.0, abs=1e-6)

    def test_damped_sinusoid_envelope(self):
        for kt in (0.3, 1.0, 5.0):
            mu = math.sqrt((4.0 * kt) ** 2 - 1.0)
            nu = np.linspace(0.0, 12.0, 2000)
            envelope = np.exp(-nu) * math.sqrt(1.0 + 1.0 / mu**2)
            assert np.all(np.abs(relaxation_profile(nu, kt)) <= envelope + 1e-12)

    def test_bounded_by_one(self):
        nu = np.linspace(0.0, 30.0, 4000)
        for kt in (0.0, 0.05, 0.2, 0.25, 0.26, 1.0, 10.0, 200.0):
            assert np.all(np.abs(relaxation_profile(nu, kt)) <= 1.0 + 1e-12)

    def test_overdamped_no_overflow_at_large_nu(self):
        val = relaxation_profile(5000.0, 0.01)
        assert np.isfinite(val) and 0.0 <= val < 1.0

    def test_rejects_negative_nu(self):
        p = ModelParams(a=(0.4, 0.3, 1.2), tau=0.7)
        for nu in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="nu must be >= 0"):
                relaxation_profile(nu, 1.0)
            with pytest.raises(ValueError, match="nu must be >= 0"):
                relaxation_profiles(np.array([0.0, nu]), p)
            with pytest.raises(ValueError, match="nu must be >= 0"):
                propagate(bloch_to_density([0.6, 0.0, 0.0]), nu, p)

    def test_profiles_stack_component_profiles(self):
        nus = [0.0, 0.37, 5.0, np.linspace(0.0, 12.0, 97)]
        for p in edge_params():
            for nu in nus:
                stacked = np.stack([relaxation_profile(nu, kt) for kt in p.kappa_taus])
                assert np.array_equal(relaxation_profiles(nu, p), stacked)

    def test_matches_volterra_across_regimes(self):
        # closed form vs quadrature to 1e-6 over nu in [0, 10]
        tau = 1.0
        for kappa_tau, steps in ((0.1, 10_000), (0.25, 10_000), (1.0, 20_000), (5.0, 320_000)):
            sol = solve_volterra(
                ExponentialKernel(tau=tau),
                -4.0 * (kappa_tau / tau) ** 2,
                t_max=20.0,
                steps=steps,
            )
            exact = relaxation_profile(sol.nu_grid(tau), kappa_tau)
            assert np.max(np.abs(sol.values - exact)) < 1e-6, kappa_tau


class TestPropagate:
    def test_identity_at_origin(self):
        for _ in range(20):
            rho = random_state(RNG)
            out = propagate(rho, 0.0, random_params(RNG))
            assert np.max(np.abs(out - rho)) < 1e-12

    def test_dephasing_fixed_points(self):
        p = ModelParams(a=(0.0, 0.0, 1.3), tau=0.8)
        for pole in (+1.0, -1.0):
            rho = bloch_to_density([0.0, 0.0, pole])
            for nu in (0.0, 0.5, 3.0, 25.0):
                assert np.array_equal(propagate(rho, nu, p), rho)

    def test_maximally_mixed_is_fixed(self):
        rho = np.eye(2, dtype=complex) / 2.0
        for _ in range(10):
            out = propagate(rho, RNG.uniform(0.0, 5.0), random_params(RNG))
            assert np.array_equal(out, rho)

    def test_trace_and_hermiticity_preserved(self):
        for _ in range(1000):
            out = propagate(
                random_state(RNG), RNG.uniform(0.0, 8.0), random_params(RNG)
            )
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_output_positive(self):
        # |Lambda| <= 1 contracts every Bloch component, so single-qubit
        # positivity holds in every regime
        for _ in range(200):
            out = propagate(
                random_state(RNG), RNG.uniform(0.0, 8.0), random_params(RNG)
            )
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_output_positive_pure_damping(self):
        for _ in range(100):
            p = random_params(RNG, scale=0.05)  # all kappa tau < 1/4
            assert all(kt < 0.25 for kt in p.kappa_taus)
            out = propagate(random_state(RNG), RNG.uniform(0.0, 8.0), p)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_semigroup_property_fails(self):
        # memory makes Lambda(nu) Lambda(s) != Lambda(nu+s)
        kt = 1.0
        nus = np.linspace(0.0, 3.0, 301)
        profile = relaxation_profile(nus, kt)
        gap = np.abs(np.outer(profile, profile) - relaxation_profile(nus[:, None] + nus[None, :], kt))
        assert np.max(gap) > 0.01

    def test_scales_bloch_by_component_profiles(self):
        rng = np.random.default_rng(31)
        for p in edge_params() + [random_params(rng) for _ in range(20)]:
            rho = random_state(rng)
            for nu in (0.0, rng.uniform(0.0, 8.0)):
                lams = np.array([relaxation_profile(nu, kt) for kt in p.kappa_taus])
                expected = bloch_to_density(lams * density_to_bloch(rho))
                assert np.array_equal(propagate(rho, nu, p), expected)

    def test_physical_time_wrapper(self):
        p = random_params(RNG)
        rho = random_state(RNG)
        t = 1.7
        assert np.array_equal(
            propagate_time(rho, t, p), propagate(rho, t / (2.0 * p.tau), p)
        )


class TestMarkovPropagate:
    def test_identity_at_zero(self):
        rho = random_state(RNG)
        assert np.max(np.abs(markov_propagate(rho, 0.0, random_params(RNG)) - rho)) < 1e-15

    def test_dephasing_rates(self):
        p = ModelParams(a=(0.0, 0.0, 1.5), tau=0.3)
        expected = 4.0 * 1.5**2 * 0.3
        assert np.allclose(markov_rates(p), [expected, expected, 0.0], atol=0)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_t(self, t):
        p = ModelParams(a=(1.0, 0.0, 0.0), tau=1.0)
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            markov_propagate(np.eye(2) / 2.0, t, p)

    def test_rate_decay(self):
        p = ModelParams(a=(0.0, 0.0, 1.5), tau=0.3)
        b0 = np.array([0.6, 0.0, 0.5])
        t = 0.9
        out = density_to_bloch(markov_propagate(bloch_to_density(b0), t, p))
        gamma = markov_rates(p)
        assert np.allclose(out, b0 * np.exp(-gamma * t), atol=1e-15)

    def test_colored_noise_converges_to_markov(self):
        # fixed D = 2 a^2 tau, shrinking tau: the memory profile approaches
        # exp(-gamma t) pointwise, below 1e-2 by tau = 1e-3
        diffusion = 1.0
        t = 1.0
        gamma = 2.0 * diffusion
        prev = math.inf
        for tau in (1e-1, 1e-2, 1e-3):
            a = math.sqrt(diffusion / (2.0 * tau))
            dev = abs(relaxation_profile(t / (2.0 * tau), a * tau) - math.exp(-gamma * t))
            assert dev < prev
            prev = dev
        assert prev < 1e-2
