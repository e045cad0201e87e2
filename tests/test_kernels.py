import math

import numpy as np
import pytest

from rtnqubit import (
    ExponentialKernel,
    NumericalBlowupError,
    SampledKernel,
    exponential_kernel_poles,
    relaxation_profile,
    solve_volterra,
)


def closed_form(nu, kappa_tau):
    return relaxation_profile(nu, kappa_tau)


def heun_reference(lam, tau, h, steps):
    # the exponential-kernel scheme one step at a time: trapezoid memory sum
    # updated in O(1) per step, Heun predictor-corrector, NaN after blow-up
    d = math.exp(-h / tau)
    out = np.empty(steps + 1)
    out[0] = 1.0
    cur = 1.0
    integral = 0.0
    for n in range(steps):
        rate = lam * integral
        shifted = d * (integral + 0.5 * h * cur)
        predictor = cur + h * rate
        rate_pred = lam * (shifted + 0.5 * h * predictor)
        nxt = cur + 0.5 * h * (rate + rate_pred)
        out[n + 1] = nxt
        if not math.isfinite(nxt):
            out[n + 1 :] = math.nan
            break
        integral = shifted + 0.5 * h * nxt
        cur = nxt
    return out


def reference_cases():
    # log-uniform draws of both eigenvalue signs, plus the smallest, odd and
    # zero-eigenvalue cases; the second batch reaches overflow in some cases
    rng = np.random.default_rng(20240)
    fixed = [(-4.0, 1.0, 5.0, s) for s in (2, 3, 5, 7, 1001, 4097)]
    fixed += [(0.0, tau, 7.0, s) for tau in (0.01, 1.0, 10.0) for s in (2, 3, 5, 10_000)]
    fixed.append((400.0, 1.0, 200.0, 4000))
    drawn = []
    for lam_exp, t_exp in (((-3.0, 3.0), (-2.0, 2.0)), ((0.0, 4.0), (0.0, 2.5))):
        for _ in range(120):
            lam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(*lam_exp)
            tau = 10.0 ** rng.uniform(-2.0, 1.0)
            t_max = 10.0 ** rng.uniform(*t_exp)
            steps = round(10.0 ** rng.uniform(math.log10(2.0), math.log10(20_000.0)))
            drawn.append((float(lam), float(tau), float(t_max), int(steps)))
    return fixed + drawn


class TestLaplacePoles:
    def test_free_case(self):
        roots = exponential_kernel_poles(0.0, tau=2.0)
        assert sorted(r.real for r in roots) == [-0.5, 0.0]
        assert all(r.imag == 0.0 for r in roots)

    def test_critical_double_root(self):
        # 4 kappa tau = 1  =>  lambda = -1/(4 tau^2), double root at -1/(2 tau)
        tau = 1.5
        lam = -1.0 / (4.0 * tau * tau)
        r1, r2 = exponential_kernel_poles(lam, tau)
        assert r1 == pytest.approx(-1.0 / (2.0 * tau), abs=1e-14)
        assert r2 == pytest.approx(-1.0 / (2.0 * tau), abs=1e-14)

    def test_underdamped_pair(self):
        # kappa tau = 1 with tau = 1: roots (-1 +/- i sqrt(15)) / 2
        r1, r2 = exponential_kernel_poles(-4.0, tau=1.0)
        expected = complex(-0.5, math.sqrt(15.0) / 2.0)
        assert abs(r1 - expected) < 1e-12
        assert abs(r2 - expected.conjugate()) < 1e-12

    def test_residuals_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = -rng.uniform(0.0, 50.0)
            tau = rng.uniform(0.05, 5.0)
            for s in exponential_kernel_poles(lam, tau):
                assert abs(s * s + s / tau - lam) < 1e-12

    def test_conjugate_pair_iff_oscillatory(self):
        # 4 kappa tau > 1: complex pair; < 1: both real
        r1, r2 = exponential_kernel_poles(-4.0, tau=1.0)
        assert r1.imag != 0.0 and r2.imag != 0.0
        r1, r2 = exponential_kernel_poles(-0.01, tau=1.0)
        assert r1.imag == 0.0 and r2.imag == 0.0

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            exponential_kernel_poles(-1.0, tau=0.0)
        with pytest.raises(ValueError):
            exponential_kernel_poles(-1.0, tau=-2.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalue_rejected(self, lam):
        with pytest.raises(ValueError, match="eigenvalue must be finite"):
            exponential_kernel_poles(lam, tau=1.0)


class TestKernelTypes:
    def test_exponential_values(self):
        k = ExponentialKernel(tau=0.5)
        assert k(0.0) == 1.0
        assert k(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_exponential_rejects_negative_dt(self):
        for dt in (-0.1, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                ExponentialKernel(tau=1.0)(dt)

    def test_exponential_validates_tau(self):
        with pytest.raises(ValueError):
            ExponentialKernel(tau=0.0)

    def test_sampled_interpolates(self):
        k = SampledKernel(times=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 0.5, 0.0]))
        assert k(0.5) == pytest.approx(0.75)

    def test_sampled_refuses_extrapolation(self):
        k = SampledKernel(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
        for dt in (1.5, -0.5, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                k(dt)

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            SampledKernel(times=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SampledKernel(times=np.array([0.0]), values=np.array([1.0]))


class TestSolveVolterra:
    def test_zero_eigenvalue_is_constant(self):
        sampled = SampledKernel(
            times=np.linspace(0.0, 5.0, 64), values=np.linspace(1.0, 0.2, 64)
        )
        for kernel in (ExponentialKernel(tau=1.0), sampled):
            sol = solve_volterra(kernel, 0.0, t_max=5.0, steps=100)
            assert np.array_equal(sol.values, np.ones(101))

    def test_initial_value_is_one_exactly(self):
        sol = solve_volterra(ExponentialKernel(tau=1.0), -4.0, t_max=5.0, steps=100)
        assert sol.values[0] == 1.0

    def test_matches_closed_form(self):
        # kappa tau = 0.25, 1e4 steps over nu in [0, 10]
        tau = 1.0
        kappa = 0.25
        sol = solve_volterra(
            ExponentialKernel(tau=tau), -4.0 * kappa**2, t_max=20.0, steps=10_000
        )
        exact = closed_form(sol.nu_grid(tau), kappa * tau)
        assert np.max(np.abs(sol.values - exact)) < 1e-6

    def test_second_order_convergence(self):
        tau = 1.0
        kappa = 0.25
        devs = []
        for steps in (1250, 2500, 5000, 10_000):
            sol = solve_volterra(
                ExponentialKernel(tau=tau), -4.0 * kappa**2, t_max=20.0, steps=steps
            )
            exact = closed_form(sol.nu_grid(tau), kappa * tau)
            devs.append(np.max(np.abs(sol.values - exact)))
        ratios = [devs[i] / devs[i + 1] for i in range(3)]
        assert all(3.5 < r < 4.5 for r in ratios), ratios

    def test_initial_slope_vanishes(self):
        # one-sided finite difference at the origin stays O(step), unlike
        # the white-noise case where the decay starts linearly
        tau = 1.0
        lam = -4.0
        for kernel in (
            ExponentialKernel(tau=tau),
            SampledKernel(
                times=np.linspace(0.0, 1.0, 2001),
                values=np.exp(-np.linspace(0.0, 1.0, 2001) / tau),
            ),
        ):
            sol = solve_volterra(kernel, lam, t_max=1.0, steps=2000)
            h = sol.grid[1]
            slope = (sol.values[1] - sol.values[0]) / h
            assert abs(slope) <= abs(lam) * h

    def test_series_coefficients(self):
        # quadratic coefficient in nu is -(mu^2+1)/2; no linear term
        tau = 1.0
        kappa = 1.0
        musq = (4.0 * kappa * tau) ** 2 - 1.0
        nu_max = 0.02
        sol = solve_volterra(
            ExponentialKernel(tau=tau),
            -4.0 * kappa**2,
            t_max=2.0 * tau * nu_max,
            steps=4000,
        )
        x = sol.nu_grid(tau) / nu_max
        coef = np.polynomial.polynomial.polyfit(x, sol.values, 4)
        linear = coef[1] / nu_max
        quadratic = coef[2] / nu_max**2
        assert abs(linear) < 1e-4
        assert quadratic == pytest.approx(-(musq + 1.0) / 2.0, abs=1e-4)

    def test_sampled_kernel_agrees_with_exponential_path(self):
        tau = 0.7
        lam = -3.0
        t_max = 4.0
        steps = 1500
        grid = np.linspace(0.0, t_max, steps + 1)
        sampled = SampledKernel(times=grid, values=np.exp(-grid / tau))
        a = solve_volterra(ExponentialKernel(tau=tau), lam, t_max, steps)
        b = solve_volterra(sampled, lam, t_max, steps)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_sampled_kernel_must_cover_horizon(self):
        k = SampledKernel(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.4]))
        with pytest.raises(ValueError):
            solve_volterra(k, -1.0, t_max=2.0, steps=10)

    def test_blowup_reports_time(self):
        with pytest.raises(NumericalBlowupError) as exc:
            solve_volterra(ExponentialKernel(tau=1.0), 400.0, t_max=200.0, steps=4000)
        assert 0.0 < exc.value.time <= 200.0

    def test_validates_arguments(self):
        k = ExponentialKernel(tau=1.0)
        with pytest.raises(ValueError):
            solve_volterra(k, -1.0, t_max=1.0, steps=1)
        with pytest.raises(ValueError):
            solve_volterra(k, -1.0, t_max=0.0, steps=10)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eigenvalue must be finite"):
                solve_volterra(k, lam, t_max=1.0, steps=10)

    def test_matches_heun_reference(self):
        blowups = 0
        for lam, tau, t_max, steps in reference_cases():
            ref = heun_reference(lam, tau, t_max / steps, steps)
            if not np.all(np.isfinite(ref)):
                blowups += 1
                with pytest.raises(NumericalBlowupError):
                    solve_volterra(ExponentialKernel(tau), lam, t_max, steps)
                continue
            sol = solve_volterra(ExponentialKernel(tau), lam, t_max, steps)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(sol.values - ref)) <= 1e-11 * scale, (lam, tau, t_max, steps)
            if lam == 0.0:
                assert np.array_equal(sol.values, np.ones(steps + 1))
        assert blowups >= 10
