import dataclasses
import math
import pickle

import numpy as np
import pytest

from rtnqubit import (
    ExponentialKernel,
    ModelParams,
    Regime,
    bloch_to_density,
    choi_matrix,
    classify_regime,
    damping_spectrum,
    density_to_bloch,
    kraus_from_params,
    markov_rates,
    pauli,
    propagate,
    relaxation_profile,
    relaxation_profiles,
    solve_volterra,
    telegraph,
    xi,
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


def profile_reference(nu, kt):
    """One component's closed form as evaluated before the regimes were
    grouped: one pass per component, frozen here so the grouped evaluation
    is held to its bits."""
    nu_arr = np.asarray(nu, dtype=float)
    musq = (4.0 * kt) ** 2 - 1.0
    if kt == 0.0:
        out = np.ones_like(nu_arr)
    elif abs(4.0 * kt - 1.0) < 1e-6:
        out = np.exp(-nu_arr) * (
            (1.0 + nu_arr) - 0.5 * musq * nu_arr**2 * (1.0 + nu_arr / 3.0)
        )
    elif musq > 0.0:
        mu = math.sqrt(musq)
        out = np.exp(-nu_arr) * (np.cos(mu * nu_arr) + np.sin(mu * nu_arr) / mu)
    else:
        mt = math.sqrt(-musq)
        out = 0.5 * (1.0 + 1.0 / mt) * np.exp(-(1.0 - mt) * nu_arr) + 0.5 * (
            1.0 - 1.0 / mt
        ) * np.exp(-(1.0 + mt) * nu_arr)
    return np.where(nu_arr == 0.0, 1.0, out)


def params_with_kappa_taus(kts, tau=1.0):
    """Couplings whose kappa_i tau are kts (up to rounding); the kts must
    obey the triangle conditions on their squares."""
    sq = [(kt / tau) ** 2 for kt in kts]
    half = 0.5 * sum(sq)
    return ModelParams(a=tuple(math.sqrt(max(half - q, 0.0)) for q in sq), tau=tau)


def reference_params():
    """Every regime alone and mixed: kappa*tau at 0, below 2e-9 (mu^2
    rounds to -1), 4 kappa tau - 1 at +-1e-7 (series) and +-2e-6 (exact
    branches next to the window), damped, ringing, and seeded draws."""
    out = [ModelParams(a=(0.0, 0.0, 0.0), tau=1.0), ModelParams(a=(1.5e-9, 0.0, 0.0), tau=1.0)]
    for offset in (1e-7, -1e-7, 2e-6, -2e-6):
        kt = 0.25 * (1.0 + offset)
        out.append(ModelParams(a=(0.0, 0.0, kt), tau=1.0))  # kappa taus (kt, kt, 0)
        out.append(params_with_kappa_taus((0.2, kt, 0.3), tau=0.7))
    out += [
        ModelParams(a=(0.05, 0.1, 0.02), tau=1.3),  # all damped
        ModelParams(a=(2.0, 1.0, 0.5), tau=0.8),  # all ringing
        ModelParams(a=(0.3, 0.05, 1.1), tau=0.9),  # mixed
        ModelParams(a=(1e-10, 0.0, 1.3), tau=1.0),  # ringing beside mu^2 = -1
    ]
    rng = np.random.default_rng(616)
    out += [random_params(rng, scale) for scale in (0.2, 0.5, 3.0, 300.0) for _ in range(5)]
    return out


def reference_nus():
    rng = np.random.default_rng(617)
    with_zeros = rng.uniform(0.0, 12.0, 40)
    with_zeros[[0, 7, 8, 31]] = 0.0
    refine = rng.uniform(0.0, 6.0, (5, 21))
    refine[2, 0] = 0.0
    return [0.0, -0.0, 5e-324, 0.37, 9.5, np.linspace(0.0, 30.0, 301), with_zeros, refine]


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

    @pytest.mark.parametrize(
        "inside, outside",
        [
            # (4 kappa_3 tau)^2 = 32 a^2 overflows between these couplings
            (((2.3e153, 2.3e153, 0.0), 1.0), ((2.4e153, 2.4e153, 0.0), 1.0)),
            # (4 kappa tau)^2 = 16 tau^2 overflows between these timescales
            (((1.0, 0.0, 0.0), 3.3e153), ((1.0, 0.0, 0.0), 3.4e153)),
            # 4 kappa^2 overflows while (4 kappa tau)^2 stays finite
            (((4.7e153, 0.0, 0.0), 1e-100), ((1e154, 0.0, 0.0), 1e-100)),
            # kappa itself overflows
            (((3e153, 3e153, 0.0), 1e-200), ((1e155, 1e155, 0.0), 1e-200)),
        ],
    )
    def test_domain_edge(self, inside, outside):
        p = ModelParams(*inside)
        assert np.all(np.isfinite(p.mu_squared)) and np.all(np.isfinite(damping_spectrum(p)))
        with pytest.raises(ValueError, match=r"a = \(.*\) at tau = .* overflows"):
            ModelParams(*outside)


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
        [
            (0.1, Regime.OVERDAMPED),
            (0.25, Regime.CRITICAL),
            (0.3, Regime.UNDERDAMPED),
            # CRITICAL is the series window, |4 kappa tau - 1| < 1e-6
            (0.25 * (1.0 + 4e-9), Regime.CRITICAL),
            (0.25 * (1.0 - 4e-9), Regime.CRITICAL),
            (0.25 * (1.0 + 2e-6), Regime.UNDERDAMPED),
            (0.25 * (1.0 - 2e-6), Regime.OVERDAMPED),
        ],
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

    def test_mu_squared_is_the_profiles(self):
        # squared by ** as the profile squares it (a numpy square of this
        # kappa*tau differs in the last bit)
        kt = 1.134
        musq = ModelParams(a=(0.0, 0.0, kt), tau=1.0).mu_squared[0]
        assert musq == (4.0 * kt) ** 2 - 1.0 == 19.575295999999994


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

    @pytest.mark.parametrize("kt", [-0.1, math.nan, math.inf, 1e154])
    def test_rejects_kappa_tau_outside_domain(self, kt):
        # (4 * 1e154)^2 overflows a float
        with pytest.raises(ValueError, match=r"kappa\*tau must be >= 0 with"):
            relaxation_profile(0.5, kt)

    def test_list_is_an_array_input(self):
        out = relaxation_profile([0.0, 1.0], 0.7)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, relaxation_profile(np.array([0.0, 1.0]), 0.7))
        assert relaxation_profile([[0.5]], 0.7).shape == (1, 1)
        for nu in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(relaxation_profile(nu, 0.7)) is float

    def test_profiles_stack_component_profiles(self):
        # both functions evaluate through one helper, so this checks shape
        # and row order; TestFrozenReference holds the values to the
        # independent per-component evaluation
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


class TestFrozenReference:
    """The grouped evaluation against the per-component one, bit for bit."""

    def test_profiles_equal_reference(self):
        for p in reference_params():
            kts = p.kappa_taus
            for nu in reference_nus():
                expected = np.stack([profile_reference(nu, kt) for kt in kts])
                assert np.array_equal(relaxation_profiles(nu, p), expected), (p, nu)
                for kt, row in zip(kts, expected):
                    assert np.array_equal(relaxation_profile(nu, kt), row), (kt, nu)

    def test_propagate_equals_reference(self):
        rng = np.random.default_rng(618)
        for p in reference_params():
            rho = random_state(rng)
            for nu in (0.0, 0.37, 9.5, float(rng.uniform(0.0, 12.0))):
                lams = np.stack([profile_reference(nu, kt) for kt in p.kappa_taus])
                expected = bloch_to_density(lams * density_to_bloch(rho))
                assert np.array_equal(propagate(rho, nu, p), expected), (p, nu)

    def test_reference_covers_every_regime(self):
        # each branch of the closed form, the series window on both sides
        # and mu^2 rounded to -1 occur in the reference set
        kts = np.concatenate([p.kappa_taus for p in reference_params()])
        assert np.any(kts == 0.0)
        assert np.any((kts > 0.0) & ((4.0 * kts) ** 2 - 1.0 == -1.0))
        for lo, hi in ((0.5e-7, 1.5e-7), (-1.5e-7, -0.5e-7), (1.5e-6, 2.5e-6), (-2.5e-6, -1.5e-6)):
            assert np.any((4.0 * kts - 1.0 > lo) & (4.0 * kts - 1.0 < hi))
        assert np.any(kts > 0.3) and np.any((kts > 0.0) & (kts < 0.2))

    @pytest.mark.parametrize("func", [np.exp, np.cos, np.sin])
    def test_elementwise_math_independent_of_array_length(self, func):
        # Grouped and per-component evaluation feed the same element to
        # these ufuncs in arrays of different lengths and alignments; their
        # bit identity needs each element's result to be independent of
        # both.  A platform where this fails breaks the reference tests.
        rng = np.random.default_rng(619)
        if func is np.exp:
            x = -rng.uniform(0.0, 740.0, 4096) * rng.uniform(0.0, 1.0, 4096) ** 4
        else:
            x = rng.choice([-1.0, 1.0], 4096) * 10.0 ** rng.uniform(-3.0, 8.0, 4096)
        full = func(x)
        for i in range(0, 4096, 37):
            assert func(x[i]) == full[i]
            assert func(np.array(x[i])) == full[i]
            assert np.array_equal(func(x[i : i + 1]), full[i : i + 1])
            assert np.array_equal(func(x[i : i + 3]), full[i : i + 3])
            assert np.array_equal(func(x[i + 1 : i + 4]), full[i + 1 : i + 4])


class TestScalarLane:
    """A scalar nu takes the array evaluation's path, bit for bit."""

    @staticmethod
    def elements():
        return np.concatenate([np.ravel(nu) for nu in reference_nus()])

    def test_scalar_equals_array_column(self):
        nus = self.elements()
        assert np.any(np.signbit(nus) & (nus == 0.0)) and np.any(nus == 5e-324)
        for p in reference_params():
            table = relaxation_profiles(nus, p)
            for k, nu in enumerate(nus.tolist()):
                for scalar in (nu, np.float64(nu), np.array(nu)):
                    out = relaxation_profiles(scalar, p)
                    assert out.shape == (3,) and out.tobytes() == table[:, k].tobytes(), (p, nu)

    def test_one_component_scalar_equals_array_column(self):
        nus = self.elements()
        kts = np.unique(np.concatenate([p.kappa_taus for p in reference_params()]))
        for kt in kts.tolist():
            column = relaxation_profile(nus, kt)
            for k, nu in enumerate(nus.tolist()):
                for scalar in (nu, np.float64(nu), np.array(nu)):
                    out = relaxation_profile(scalar, kt)
                    assert type(out) is float, (kt, nu)
                    assert np.float64(out).tobytes() == column[k].tobytes(), (kt, nu)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, -0.1, -5e-324])
    def test_zero_d_rejects_outside_domain(self, nu):
        p = ModelParams(a=(0.4, 0.3, 1.2), tau=0.7)
        for scalar in (nu, np.float64(nu), np.array(nu)):
            with pytest.raises(ValueError, match=r"^nu must be >= 0 and finite$"):
                relaxation_profiles(scalar, p)
            with pytest.raises(ValueError, match=r"^nu must be >= 0 and finite$"):
                relaxation_profile(scalar, 1.0)


class TestPlanCache:
    """ModelParams builds its regime grouping once, on first evaluation."""

    @staticmethod
    def count_plans(monkeypatch):
        calls = []
        build = telegraph._profile_plan

        def counting(components):
            calls.append(components)
            return build(components)

        monkeypatch.setattr(telegraph, "_profile_plan", counting)
        return calls

    def test_built_once_on_first_evaluation(self, monkeypatch):
        calls = self.count_plans(monkeypatch)
        p = ModelParams(a=(0.3, 0.05, 1.1), tau=0.9)
        assert calls == []
        rho = bloch_to_density([0.3, -0.2, 0.5])
        for nu in np.linspace(0.0, 4.0, 50).tolist():
            propagate(rho, nu, p)
            xi(nu, p)
            choi_matrix(p, nu)
            kraus_from_params(p, nu)
        assert len(calls) == 1

    def test_cached_plan_is_invisible(self):
        nus = np.array([0.0, 0.37, 9.5])
        for p in reference_params():
            expected = relaxation_profiles(nus, p)  # builds the plan
            fresh = ModelParams(a=p.a, tau=p.tau)
            assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
            for other in (dataclasses.replace(p), pickle.loads(pickle.dumps(p))):
                assert other == fresh and hash(other) == hash(fresh)
                assert np.array_equal(relaxation_profiles(nus, other), expected)
            assert np.array_equal(relaxation_profiles(nus, fresh), expected)


class TestEnvelope:
    """The bounds the CP scan's horizon, grid and mu* test read."""

    @pytest.mark.parametrize(
        "branch, lo, hi",
        [
            (Regime.OVERDAMPED, 0.01, 0.25 - 2e-6),
            (Regime.CRITICAL, 0.25 - 2.4e-7, 0.25 + 2.4e-7),
            (Regime.UNDERDAMPED, 0.25 + 2e-6, 50.0),
        ],
    )
    def test_below_one_third_past_crossing(self, branch, lo, hi):
        # the horizon's premise: past its own crossing (the settle time)
        # every profile stays under 1/3.  At the crossing it touches 1/3 up
        # to rounding.  The critical series on the window's damped side
        # (mu^2 < 0) lies above exp(-nu) (1 + nu): it overshoots 1/3 by under
        # 1e-6 for under 1e-5 past the crossing, inside scan_horizon's unit
        # margin (measured 9.4e-7 and 4.1e-6)
        rng = np.random.default_rng(1931)
        for kt in rng.uniform(lo, hi, 40):
            row = telegraph._component(kt, 1.0)
            assert row[2] is branch
            settle = telegraph._envelope(telegraph._profile_plan([row]))[0]
            nu = settle + np.linspace(0.0, 30.0, 30_001)[1:]
            lam = np.abs(relaxation_profile(nu, kt))
            if branch is Regime.CRITICAL and (4.0 * kt) ** 2 < 1.0:
                assert np.all(lam < 1.0 / 3.0 + 1e-6), kt
                lam = lam[nu > settle + 1e-5]
            assert np.all(lam < 1.0 / 3.0), (kt, settle)


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


class TestMarkovPropagate:
    def test_dephasing_rates(self):
        p = ModelParams(a=(0.0, 0.0, 1.5), tau=0.3)
        expected = 4.0 * 1.5**2 * 0.3
        assert np.allclose(markov_rates(p), [expected, expected, 0.0], atol=0)

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
