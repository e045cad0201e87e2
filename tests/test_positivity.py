import math
import time

import numpy as np
import pytest

from rtnqubit import (
    CP_TOLERANCE,
    MU_STAR_BOUND,
    ModelParams,
    bell_projector,
    choi_matrix,
    critical_flip_parameter,
    hermitian_eigenvalues,
    is_cp,
    markov_cp_check,
    markov_rates,
    pauli,
    relaxation_profile,
    relaxation_profiles,
    scan_horizon,
    sufficient_condition,
    xi,
)
from rtnqubit import positivity

RNG = np.random.default_rng(99)


def random_params(rng, scale=3.0):
    return ModelParams(a=tuple(rng.uniform(0.0, scale, 3)), tau=rng.uniform(0.05, 2.0))


def equal_coupling_params(mu, tau=1.0):
    """All three frequencies equal to mu: a_i = sqrt((mu^2+1)/32) / tau."""
    a = math.sqrt((mu * mu + 1.0) / 32.0) / tau
    return ModelParams(a=(a, a, a), tau=tau)


def edge_params(rng):
    """Random parameters with kappa*tau at 0, in the critical window,
    damped or ringing."""
    tau = rng.uniform(0.05, 2.0)
    kind = rng.integers(4)
    if kind == 0:
        return ModelParams(a=(0.0, 0.0, 0.0), tau=tau)
    if kind == 1:
        kt = 0.25 + rng.uniform(-2e-7, 2e-7)
        return ModelParams(a=(0.0, 0.0, kt / tau), tau=tau)
    scale = 0.1 if kind == 2 else 3.0
    return ModelParams(a=tuple(rng.uniform(0.0, scale, 3) / tau), tau=tau)


def choi_reference(params, nu):
    """The Choi matrix from Pauli traces of the map on each matrix unit.

    Phi(M) = 1/2 sum_i Lambda_i Tr(sigma_i M) sigma_i with Lambda_0 = 1,
    applied to the first factor of the Bell projector
    1/2 sum_ij E_ij (x) E_ij.
    """
    lams = (1.0, *relaxation_profiles(float(nu), params))
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            image = np.zeros((2, 2), dtype=complex)
            for k in range(4):
                sig = pauli(k)
                image += 0.5 * lams[k] * np.trace(sig @ basis) * sig
            out += 0.5 * np.kron(image, basis)
    return out


def xi_reference(nu, params):
    """xi as four stacked combinations, frozen from before xi filled one
    preallocated array."""
    l1, l2, l3 = relaxation_profiles(nu, params)
    return np.stack(
        [
            0.25 * ((1.0 - l3) + (l1 - l2)),
            0.25 * ((1.0 - l3) - (l1 - l2)),
            0.25 * ((1.0 + l3) - (l1 + l2)),
            0.25 * ((1.0 + l3) + (l1 + l2)),
        ]
    )


def choi_tensordot_reference(params, nu):
    """The Choi matrix by np.tensordot over the Pauli tensor, frozen from
    before choi_matrix called np.dot on its flattened rows."""
    lams = np.concatenate(([1.0], relaxation_profiles(float(nu), params)))
    tensor = np.stack([0.25 * np.kron(pauli(i), pauli(i).conj()) for i in range(4)])
    return np.tensordot(lams, tensor, axes=1)


def bitwise_cases():
    """kappa*tau at 0, below 2e-9, 4 kappa tau - 1 at +-1e-7 and +-2e-6,
    damped, ringing and mixed couplings, then seeded edge draws."""
    out = [ModelParams(a=(0.0, 0.0, 0.0), tau=1.0), ModelParams(a=(1.5e-9, 0.0, 0.0), tau=1.0)]
    out += [ModelParams(a=(0.0, 0.0, 0.25 * (1.0 + d)), tau=1.0) for d in (1e-7, -1e-7, 2e-6, -2e-6)]
    out += [
        ModelParams(a=(0.05, 0.1, 0.02), tau=1.3),
        ModelParams(a=(2.0, 1.0, 0.5), tau=0.8),
        ModelParams(a=(0.3, 0.05, 1.1), tau=0.9),
        ModelParams(a=(0.2, 0.24, 0.07), tau=1.0),
    ]
    rng = np.random.default_rng(52)
    return out + [edge_params(rng) for _ in range(30)]


class TestXi:
    def test_equals_stacked_reference(self):
        rng = np.random.default_rng(53)
        with_zeros = rng.uniform(0.0, 12.0, 40)
        with_zeros[[0, 9, 10]] = 0.0
        refine = rng.uniform(0.0, 6.0, (5, 21))
        refine[1, 0] = 0.0
        for p in bitwise_cases():
            for nu in (0.0, 0.37, float(rng.uniform(0.0, 12.0)), with_zeros, refine):
                assert np.array_equal(xi(nu, p), xi_reference(nu, p)), (p, nu)

    def test_identity_channel_at_origin(self):
        p = random_params(RNG)
        assert np.array_equal(xi(0.0, p), [0.0, 0.0, 0.0, 1.0])

    def test_components_sum_to_one(self):
        for _ in range(100):
            p = random_params(RNG)
            values = xi(RNG.uniform(0.0, 6.0), p)
            assert abs(values.sum() - 1.0) <= 1e-12

    def test_dephasing_form(self):
        p = ModelParams(a=(0.0, 0.0, 1.2), tau=1.0)
        for nu in (0.3, 1.0, 4.0):
            profile = relaxation_profile(nu, 1.2)
            x = xi(nu, p)
            assert x[0] == 0.0 and x[1] == 0.0
            assert x[2] == pytest.approx((1.0 - profile) / 2.0, abs=1e-15)
            assert x[3] == pytest.approx((1.0 + profile) / 2.0, abs=1e-15)

    def test_equal_frequencies_at_half_period(self):
        # with all mu_i = mu, xi_4(pi/mu) = (1 - 3 exp(-pi/mu)) / 4
        for mu in (1.5, MU_STAR_BOUND, 4.0):
            p = equal_coupling_params(mu)
            value = xi(math.pi / mu, p)[3]
            assert value == pytest.approx((1.0 - 3.0 * math.exp(-math.pi / mu)) / 4.0, abs=1e-12)

    def test_vectorized_shape(self):
        p = random_params(RNG)
        out = xi(np.linspace(0.0, 3.0, 17), p)
        assert out.shape == (4, 17)


class TestChoiMatrix:
    def test_identity_channel_gives_bell_projector(self):
        p = random_params(RNG)
        assert np.max(np.abs(choi_matrix(p, 0.0) - bell_projector())) < 1e-15

    def test_spectrum_equals_xi(self):
        for _ in range(200):
            p = random_params(RNG)
            nu = RNG.uniform(0.0, 6.0)
            evals = hermitian_eigenvalues(choi_matrix(p, nu))
            assert np.max(np.abs(evals - np.sort(xi(nu, p)))) < 1e-10

    def test_unit_trace(self):
        for _ in range(100):
            p = random_params(RNG)
            c = choi_matrix(p, RNG.uniform(0.0, 6.0))
            assert abs(np.trace(c) - 1.0) < 1e-12

    def test_hermitian(self):
        for _ in range(20):
            c = choi_matrix(random_params(RNG), RNG.uniform(0.0, 6.0))
            assert np.max(np.abs(c - c.conj().T)) < 1e-14

    def test_rejects_negative_nu(self):
        p = random_params(RNG)
        for nu in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="nu must be >= 0"):
                choi_matrix(p, nu)
            with pytest.raises(ValueError, match="nu must be >= 0"):
                xi(nu, p)

    def test_equals_tensordot_reference(self):
        rng = np.random.default_rng(54)
        for p in bitwise_cases():
            for nu in (0.0, 0.37, float(rng.uniform(0.0, 12.0))):
                assert np.array_equal(choi_matrix(p, nu), choi_tensordot_reference(p, nu))

    def test_equals_pauli_trace_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(400):
            p = edge_params(rng)
            nu = 0.0 if rng.uniform() < 0.1 else rng.uniform(0.0, 8.0)
            assert np.array_equal(choi_matrix(p, nu), choi_reference(p, nu))


class TestIsCp:
    def test_dephasing_always_cp(self):
        for a_tau in (0.1, 1.0, 10.0, 100.0):
            p = ModelParams(a=(0.0, 0.0, a_tau), tau=1.0)
            assert is_cp(p).is_cp

    def test_two_axis_threshold(self):
        assert is_cp(ModelParams(a=(0.5, 0.5, 0.0), tau=1.0)).is_cp
        verdict = is_cp(ModelParams(a=(1.2, 1.2, 0.0), tau=1.0))
        assert not verdict.is_cp

    def test_identity_map_cp(self):
        assert is_cp(ModelParams(a=(0.0, 0.0, 0.0), tau=1.0)).is_cp

    def test_witness_reproducible_by_direct_evaluation(self):
        verdict = is_cp(ModelParams(a=(1.2, 1.2, 0.0), tau=1.0))
        w = verdict.witness
        assert w is not None
        direct = float(xi(w.nu, ModelParams(a=(1.2, 1.2, 0.0), tau=1.0))[w.index - 1])
        assert direct == pytest.approx(w.value, rel=1e-12)
        assert direct < -CP_TOLERANCE

    def test_deterministic(self):
        p = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
        v1, v2 = is_cp(p), is_cp(p)
        assert v1.is_cp == v2.is_cp
        assert v1.witness.nu == v2.witness.nu
        assert v1.witness.value == v2.witness.value

    def test_verdict_matches_dense_rescan(self):
        # soundness: a brute-force dense scan over twice the horizon finds
        # no violation the certified scan missed (and vice versa)
        for a in ((0.3, 0.7, 0.2), (1.2, 1.2, 0.0), (0.9, 0.4, 0.1), (2.0, 2.0, 2.0)):
            p = ModelParams(a=a, tau=1.0)
            verdict = is_cp(p)
            nus = np.linspace(0.0, 2.0 * verdict.horizon, 40_001)
            brute_min = float(xi(nus, p).min())
            assert verdict.is_cp == (brute_min >= -1e-6), (a, brute_min)

    def test_scan_horizon_positive_and_finite(self):
        for _ in range(20):
            h = scan_horizon(random_params(RNG))
            assert np.isfinite(h) and h >= 1.0

    def test_numerically_constant_profile_leaves_horizon(self):
        # (4 kappa tau)^2 = 1.6e-17 rounds away next to 1: that profile
        # evaluates to exactly 1, like a zero coupling's
        tiny = ModelParams(a=(1.0, 1e-9, 0.0), tau=1.0)
        assert np.all(relaxation_profiles(np.linspace(0.0, 50.0, 11), tiny)[0] == 1.0)
        assert scan_horizon(tiny) == scan_horizon(ModelParams(a=(1.0, 0.0, 0.0), tau=1.0))
        assert is_cp(tiny).is_cp

    def test_fuzz_against_brute_force(self):
        rng = np.random.default_rng(271828)
        for _ in range(30):
            p = random_params(rng)
            verdict = is_cp(p)
            nus = np.linspace(0.0, min(verdict.horizon, 60.0), 100_001)
            brute = float(xi(nus, p).min())
            assert verdict.is_cp == (brute >= -1e-7), (p, verdict, brute)

    def test_dip_between_grid_points_found(self):
        # both grid neighbours of this dip sit above 1e-6; the Choi matrix
        # confirms the violation independently of xi
        p = ModelParams(a=(17.6565, 0.04 * 17.6565, 0.0), tau=1.0)
        verdict = is_cp(p)
        assert not verdict.is_cp
        w = verdict.witness
        assert w.index == 4
        assert w.value == pytest.approx(-8.9166e-6, abs=1e-9)
        assert w.nu == pytest.approx(0.93403, abs=1e-5)
        assert float(hermitian_eigenvalues(choi_matrix(p, w.nu))[0]) == pytest.approx(
            w.value, abs=1e-12
        )

    @pytest.mark.parametrize("a", [(1.2, 1.2, 0.0), (50.0, 50.0, 50.0), (1e5, 1e5, 0.0)])
    def test_witness_matches_choi_spectrum(self, a):
        p = ModelParams(a=a, tau=1.0)
        w = is_cp(p).witness
        assert w is not None
        assert float(hermitian_eigenvalues(choi_matrix(p, w.nu))[0]) == pytest.approx(
            w.value, abs=1e-12
        )

    def test_bound_ends_refinement_of_dephasing(self, monkeypatch):
        # the first minima of xi_1 and xi_4 pass the grid's dip bound, but
        # one rescan shows they cannot reach below the witness value 0
        calls = []

        def counting_xi(nu, params):
            calls.append(nu)
            return xi(nu, params)

        monkeypatch.setattr(positivity, "xi", counting_xi)
        assert is_cp(ModelParams(a=(100.0, 0.0, 0.0), tau=1.0)).is_cp
        assert len(calls) <= 2

    def test_touching_zero_ends_and_is_cp(self):
        # at mu = pi / ln 3 the first minimum of xi_4 is exactly 0 (at
        # nu = ln 3), so only the machine-epsilon floor ends its refinement
        p = equal_coupling_params(MU_STAR_BOUND)
        assert abs(float(xi(math.log(3.0), p)[3])) <= 1e-15
        assert is_cp(p).is_cp

    @pytest.mark.parametrize("nu_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_horizon(self, nu_max):
        with pytest.raises(ValueError, match="scan horizon must be finite and > 0"):
            is_cp(ModelParams(a=(1.2, 1.2, 0.0), tau=1.0), nu_max=nu_max)

    def test_overflowing_frequency_rejected(self):
        # kappa_i overflows to inf; the grid could not be sized
        with pytest.raises(ValueError, match=r"a = \(1e\+200, 1e\+200, 0\.0\) at tau = 1e-190"):
            is_cp(ModelParams(a=(1e200, 1e200, 0.0), tau=1e-190))

    @pytest.mark.parametrize("nu_max", [0.4424, 0.4425])
    def test_cut_horizon_ending_in_a_dip(self, nu_max):
        # xi_4 first crosses -CP_TOLERANCE between nu = 0.4423 and 0.4424, so
        # a scan cut just past it is negative only at its nu = nu_max end;
        # that end still decides the verdict and is the witness
        p = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
        assert is_cp(p, nu_max=0.4423).is_cp
        verdict = is_cp(p, nu_max=nu_max)
        assert not verdict.is_cp
        end = float(xi(nu_max, p)[3])
        assert verdict.witness == positivity.CpWitness(nu=nu_max, index=4, value=end)
        assert end < -CP_TOLERANCE


class TestDipBound:
    """The two facts the scan rests on."""

    @pytest.mark.parametrize(
        "kt", [0.0, 0.01, 0.1, 0.25 - 1e-7, 0.25, 0.25 + 1e-7, 1.0, 50.0, 1000.0]
    )
    def test_profile_curvature_bound(self, kt):
        # Lambda' = -16 kt^2 int_0^nu exp(-2 (nu - s)) Lambda ds with
        # |Lambda| <= 1 gives |Lambda''| <= 32 kt^2; a second difference
        # equals Lambda'' somewhere in its stencil (measured max ratio 0.50)
        h = min(1e-3, 0.05 / (4.0 * kt + 1.0))
        lam = relaxation_profile(np.arange(0.0, 12.0 + h, h), kt)
        second = (lam[2:] - 2.0 * lam[1:-1] + lam[:-2]) / (h * h)
        assert np.all(np.abs(second) <= 32.0 * kt * kt)

    def test_critical_crossing_constant(self):
        v = positivity._CRITICAL_CROSSING
        assert v > 0.0
        assert abs((1.0 + v) * math.exp(-v) - 1.0 / 3.0) <= 1e-12

    def test_c_star_constant(self):
        # c* is the root of min over nu > 0 of 1 + Lambda(nu; c) - 2 exp(-nu);
        # the dip's depth moves by about 1.2 per unit relative change of c
        def depth(c):
            # the interior minimum, refined from a 1e-4 to a 1e-7 grid
            def f(nu):
                return 1.0 + relaxation_profile(nu, c) - 2.0 * np.exp(-nu)

            nu = np.linspace(0.5, 1.5, 10001)
            nu = nu[np.argmin(f(nu))] + np.linspace(-1e-4, 1e-4, 2001)
            i = int(np.argmin(f(nu)))
            return float(f(nu)[i]), float(nu[i])

        c = positivity._C_STAR
        value, nu = depth(c)
        assert abs(value) <= 1e-12
        assert nu == pytest.approx(0.91558, abs=1e-5)
        assert depth(c * (1.0 - 1e-9))[0] > 0.0 > depth(c * (1.0 + 1e-9))[0]


class TestCriticalFlipParameter:
    def test_boundary_with_weak_second_axis(self):
        # the boundary's violating dip falls between grid points
        assert critical_flip_parameter((1.0, 0.04, 0.0), 1.0) == pytest.approx(
            17.65596, abs=1e-3
        )

    def test_two_axis_boundary(self):
        boundary = critical_flip_parameter((1.0, 1.0, 0.0), tau=1.0)
        assert boundary == pytest.approx(0.8, abs=0.05)

    def test_boundary_independent_of_tau(self):
        b1 = critical_flip_parameter((1.0, 1.0, 0.0), tau=0.5)
        b2 = critical_flip_parameter((1.0, 1.0, 0.0), tau=2.0)
        assert b1 == pytest.approx(b2, abs=1e-6)

    def test_first_scan_at_c_star_over_kappa_min(self, monkeypatch):
        # the search starts where the smallest kappa_i tau equals c*
        scanned = []

        def recording_scan(params, horizon, margin):
            scanned.append(params)
            return scan(params, horizon, margin)

        scan = positivity._scan
        monkeypatch.setattr(positivity, "_scan", recording_scan)
        rng = np.random.default_rng(5)
        shapes = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0)] + [rng.uniform(0, 1, 3) for _ in range(20)]
        for shape in shapes:
            scanned.clear()
            critical_flip_parameter(shape, tau=1.0)
            assert float(np.min(scanned[0].kappa_taus)) == pytest.approx(
                positivity._C_STAR, rel=1e-12
            )

    @pytest.mark.parametrize("weak", [1e-2, 1e-3])
    def test_boundary_follows_c_star_law(self, weak):
        # b kappa_min / c* -> 1 as kappa_min -> 0 (measured 2.0e-5 and 0: the
        # start is certified there)
        b = critical_flip_parameter((1.0, weak, 0.0), tau=1.0)
        kappa_min = float(np.min(ModelParams(a=(1.0, weak, 0.0), tau=1.0).kappa_taus))
        assert abs(b * kappa_min / positivity._C_STAR - 1.0) <= 1e-4

    @pytest.mark.parametrize("weak", [1e-6, 1e-100, 1e-160, 1e-200])
    def test_unresolvable_start_refused_before_any_scan(self, monkeypatch, weak):
        # kappa_min below about 1e-5, or underflowing to 0, puts the start
        # past the grid cap; the refusal is decided before any scan
        monkeypatch.setattr(positivity, "_scan", None)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"c\*/kappa_min"):
            critical_flip_parameter((1.0, weak, 0.0), tau=1.0)
        assert time.perf_counter() - start < 1.0

    def test_overflowing_couplings_rejected(self):
        with pytest.raises(ValueError, match="tau = 1e-300"):
            critical_flip_parameter((1.0, 1.0, 0.0), tau=1e-300)

    def test_dephasing_has_no_boundary(self):
        assert critical_flip_parameter((0.0, 0.0, 1.0), tau=1.0) is None

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError):
            critical_flip_parameter((0.0, 0.0, 0.0), tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="flip timescale must be finite and > 0"):
            critical_flip_parameter((1.0, 1.0, 0.0), tau=tau)

    def test_equal_coupling_boundary_respects_sufficient_bound(self):
        # sufficiency says the boundary cannot sit below the frequency bound
        boundary = critical_flip_parameter((1.0, 1.0, 1.0), tau=1.0)
        p = ModelParams(a=(boundary, boundary, boundary), tau=1.0)
        mu_max = math.sqrt(float(np.max(p.mu_squared)))
        assert mu_max >= MU_STAR_BOUND - 0.01
        # for three equal frequencies the bound is tight, so the boundary
        # lands where max mu equals pi/ln 3
        assert boundary == pytest.approx(math.sqrt((MU_STAR_BOUND**2 + 1.0) / 32.0), abs=1e-6)

    def test_boundary_certified_to_delta(self):
        # CP at b (and at b - delta), not CP at b + delta, delta = 1e-6 max(1, b)
        rng = np.random.default_rng(31)
        for k in range(40):
            shape = rng.uniform(0.05, 1.0, 3)
            if k % 2:
                shape[rng.integers(3)] = 0.0
            tau = rng.uniform(0.5, 2.0)
            b = critical_flip_parameter(shape, tau)
            delta = 1e-6 * max(1.0, b)
            unit = shape / shape.max()

            def cp_at(a_tau):
                return is_cp(ModelParams(a=tuple(unit * (a_tau / tau)), tau=tau)).is_cp

            assert cp_at(b) and cp_at(b - delta) and not cp_at(b + delta), (shape, tau, b)

    @pytest.mark.parametrize(
        "shape, most",
        [((1.0, 1.0, 0.0), 8), ((1.0, 0.0, 0.0), 0), ((0.0, 0.0, 1.0), 0), ((1.0, 1e-3, 0.0), 8)],
    )
    def test_scan_count(self, monkeypatch, shape, most):
        # a fall-back to bisection (15 scans) would exceed the two-axis
        # count; a one-axis direction has no boundary and needs no scan
        calls = []

        def counting_scan(*args):
            calls.append(args)
            return scan(*args)

        scan = positivity._scan
        monkeypatch.setattr(positivity, "_scan", counting_scan)
        critical_flip_parameter(shape, tau=1.0)
        assert len(calls) <= most

    def test_returns_builtin_float(self):
        assert type(critical_flip_parameter((1.0, 1.0, 0.0), tau=1.0)) is float
        assert type(critical_flip_parameter((1.0, 0.04, 0.0), tau=1.0)) is float


class TestSufficientCondition:
    def test_bound_value(self):
        assert MU_STAR_BOUND == pytest.approx(2.85960, abs=1e-4)

    def test_low_frequencies_guarantee_cp(self):
        p = equal_coupling_params(2.0)
        assert sufficient_condition(p)
        assert is_cp(p).is_cp

    def test_high_frequencies_not_guaranteed(self):
        assert not sufficient_condition(equal_coupling_params(3.5))

    def test_boundary_case(self):
        p = equal_coupling_params(MU_STAR_BOUND)
        assert sufficient_condition(p)
        assert abs(xi(math.pi / MU_STAR_BOUND, p)[3]) < 1e-12

    def test_pure_damping_trivially_satisfies(self):
        p = random_params(RNG, scale=0.05)
        assert np.all(p.mu_squared < 0.0)
        assert sufficient_condition(p)


class TestMarkovCpCheck:
    def test_equilateral(self):
        assert markov_cp_check((1.0, 1.0, 1.0))

    def test_violated_triangle(self):
        assert not markov_cp_check((3.0, 1.0, 1.0))

    def test_rates_from_model_always_pass(self):
        # gamma_j + gamma_k - gamma_i = 8 a_i^2 tau >= 0 identically
        for _ in range(200):
            assert markov_cp_check(markov_rates(random_params(RNG)))

    def test_validation(self):
        with pytest.raises(ValueError):
            markov_cp_check((1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            markov_cp_check((1.0, 1.0))
