import math

import numpy as np
import pytest

from rtnqubit import (
    ModelParams,
    TelegraphPath,
    bloch_to_density,
    ensemble_average,
    evolve_trajectory,
    relaxation_profiles,
    sample_path,
    signal_samples,
    trajectory_rng,
)

RNG = np.random.default_rng(31415)


def make_paths(amps, flip_lists, tau=1.0, t_max=10.0):
    return tuple(
        TelegraphPath(amplitude=a, flip_times=np.asarray(f, dtype=float), tau=tau, t_max=t_max)
        for a, f in zip(amps, flip_lists)
    )


def purity(b):
    return 0.5 * (1.0 + float(np.dot(b, b)))


class TestTelegraphPath:
    def test_signal_magnitude_constant(self):
        rng = trajectory_rng(1, 0)
        path = sample_path(tau=0.5, a=1.7, t_max=20.0, rng=rng)
        ts = np.linspace(0.0, 20.0, 500)
        assert np.all(np.abs(path.values(ts)) == 1.7)

    def test_flip_parity(self):
        path = TelegraphPath(amplitude=2.0, flip_times=np.array([1.0, 3.0]), tau=1.0, t_max=5.0)
        assert np.array_equal(
            path.values([0.5, 2.0, 4.0]), [2.0, -2.0, 2.0]
        )

    def test_rejects_disordered_flips(self):
        with pytest.raises(ValueError):
            TelegraphPath(amplitude=1.0, flip_times=np.array([2.0, 1.0]), tau=1.0, t_max=5.0)

    def test_rejects_flips_outside_horizon(self):
        with pytest.raises(ValueError):
            TelegraphPath(amplitude=1.0, flip_times=np.array([6.0]), tau=1.0, t_max=5.0)

    def test_values_outside_horizon_rejected(self):
        path = sample_path(1.0, 1.0, 5.0, trajectory_rng(2, 0))
        with pytest.raises(ValueError):
            path.values([5.5])

    @pytest.mark.parametrize(
        "tau, t_max", [(math.nan, 5.0), (1.0, math.nan), (math.inf, 5.0), (1.0, math.inf)]
    )
    def test_rejects_non_finite_tau_or_horizon(self, tau, t_max):
        with pytest.raises(ValueError, match="tau and t_max must be finite and > 0"):
            TelegraphPath(amplitude=1.0, flip_times=np.array([]), tau=tau, t_max=t_max)
        with pytest.raises(ValueError, match="tau and t_max must be finite and > 0"):
            sample_path(tau, 1.0, t_max, trajectory_rng(3, 0))

    def test_nan_times_rejected(self):
        path = sample_path(1.0, 1.0, 5.0, trajectory_rng(2, 0))
        with pytest.raises(ValueError):
            path.values([1.0, math.nan])
        with pytest.raises(ValueError):
            signal_samples(1.0, 1.0, [0.0, math.nan], 3, seed=0)

    def test_flip_count_statistics(self):
        # Poisson with mean t_max / (2 tau)
        tau, t_max, n = 0.7, 7.0, 4000
        counts = np.array(
            [sample_path(tau, 1.0, t_max, trajectory_rng(7, i)).flip_times.size for i in range(n)]
        )
        mean_expected = t_max / (2.0 * tau)
        se = math.sqrt(mean_expected / n)  # Poisson variance = mean
        assert abs(counts.mean() - mean_expected) < 5.0 * se

    def test_sign_is_fair_coin(self):
        n = 4000
        signs = np.array(
            [sample_path(1.0, 1.0, 1.0, trajectory_rng(8, i)).amplitude for i in range(n)]
        )
        assert abs(np.mean(signs > 0) - 0.5) < 5.0 * 0.5 / math.sqrt(n)

    def test_zero_mean_signal(self):
        n = 20_000
        vals = signal_samples(tau=1.0, a=1.0, times=[0.7, 2.3], n_paths=n, seed=17)
        assert np.all(np.abs(vals.mean(axis=0)) <= 4.0 / math.sqrt(n))

    def test_autocorrelation_exponential(self):
        tau, a, n = 1.0, 1.0, 20_000
        t_ref = 1.0
        lags = np.linspace(0.25, 2.0, 5)
        vals = signal_samples(tau, a, np.concatenate([[t_ref], t_ref + lags]), n, seed=23)
        products = vals[:, :1] * vals[:, 1:]
        est = products.mean(axis=0)
        se = products.std(axis=0, ddof=1) / math.sqrt(n)
        theory = a * a * np.exp(-lags / tau)
        assert np.all(np.abs(est - theory) <= 4.0 * se)


class TestEvolveTrajectory:
    def test_zero_amplitudes_keep_state(self):
        paths = make_paths([0.0, 0.0, 0.0], [[1.0], [2.0], [0.5]])
        out = evolve_trajectory(paths, bloch_to_density([0.3, -0.2, 0.5]), np.linspace(0, 4, 9))
        assert np.array_equal(out, np.tile([0.3, -0.2, 0.5], (9, 1)))

    def test_single_axis_no_flip_precession(self):
        # constant field a sigma_1: Bloch vector precesses about x at rate 2a
        a = 0.8
        paths = make_paths([a, 0.0, 0.0], [[], [], []])
        b0 = np.array([0.2, 0.6, -0.3])
        grid = np.linspace(0.0, 3.0, 31)
        out = evolve_trajectory(paths, bloch_to_density(b0), grid)
        t = 2.0 * 1.0 * grid  # tau = 1
        theta = 2.0 * a * t
        expected = np.stack(
            [
                np.full_like(t, b0[0]),
                b0[1] * np.cos(theta) - b0[2] * np.sin(theta),
                b0[2] * np.cos(theta) + b0[1] * np.sin(theta),
            ],
            axis=1,
        )
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_unitary_invariants_along_trajectory(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            paths = tuple(
                sample_path(0.6, a, 8.0, trajectory_rng(77, k))
                for k, a in enumerate(rng.uniform(0.0, 2.0, 3))
            )
            b0 = rng.normal(size=3)
            b0 /= np.linalg.norm(b0) * rng.uniform(1.0, 3.0)
            rho0 = bloch_to_density(b0)
            out = evolve_trajectory(paths, rho0, np.linspace(0.0, 8.0 / 1.2, 40))
            # purity (norm of b) conserved to 1e-12 at every grid point
            norms = np.linalg.norm(out, axis=1)
            assert np.max(np.abs(norms - np.linalg.norm(b0))) < 1e-12
            # eigenvalues of rho(t) equal those of rho0
            ev0 = np.linalg.eigvalsh(rho0)
            for row in out[::13]:
                ev = np.linalg.eigvalsh(bloch_to_density(row))
                assert np.max(np.abs(ev - ev0)) < 1e-12

    def test_matches_generic_ode_integrator(self):
        # independent oracle: integrate the von Neumann equation for the
        # same noise realization with scipy and compare
        from scipy.integrate import solve_ivp

        from rtnqubit import pauli

        rng = np.random.default_rng(606)
        tau, t_max = 1.0, 3.0
        paths = tuple(
            TelegraphPath(
                amplitude=amp,
                flip_times=np.sort(rng.uniform(0.0, t_max, rng.integers(0, 6))),
                tau=tau,
                t_max=t_max,
            )
            for amp in (0.7, -0.4, 1.1)
        )
        b0 = np.array([0.3, -0.5, 0.6])
        grid = np.linspace(0.0, t_max / (2.0 * tau), 7)
        mine = evolve_trajectory(paths, bloch_to_density(b0), grid)

        sigmas = [pauli(k) for k in (1, 2, 3)]

        def rhs(t, y):
            rho = y.reshape(2, 2)
            h = sum(
                p.values(min(t, p.t_max)) * s for p, s in zip(paths, sigmas)
            )
            return (-1j * (h @ rho - rho @ h)).ravel()

        sol = solve_ivp(
            rhs,
            (0.0, 2.0 * tau * grid[-1]),
            bloch_to_density(b0).ravel(),
            t_eval=2.0 * tau * grid,
            rtol=1e-11,
            atol=1e-13,
            max_step=0.005,
        )
        from rtnqubit import density_to_bloch

        reference = np.array(
            [density_to_bloch(sol.y[:, i].reshape(2, 2)) for i in range(grid.size)]
        )
        assert np.max(np.abs(mine - reference)) < 1e-8

    def test_dephasing_conserves_z_exactly(self):
        for i in range(20):
            paths = tuple(
                sample_path(1.0, a, 10.0, trajectory_rng(5, i * 3 + k))
                for k, a in enumerate([0.0, 0.0, 1.3])
            )
            out = evolve_trajectory(paths, bloch_to_density([0.6, 0.0, 0.7]), np.linspace(0, 5, 21))
            assert np.all(out[:, 2] == 0.7)

    def test_grid_beyond_horizon_rejected(self):
        paths = make_paths([1.0, 0.0, 0.0], [[], [], []], t_max=1.0)
        with pytest.raises(ValueError):
            evolve_trajectory(paths, np.eye(2) / 2.0, np.array([0.0, 10.0]))

    def test_unsorted_grid_rejected(self):
        paths = make_paths([1.0, 0.0, 0.0], [[], [], []])
        with pytest.raises(ValueError):
            evolve_trajectory(paths, np.eye(2) / 2.0, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("grid", [[0.0, math.nan], [math.nan], [0.0, math.nan, 1.0]])
    def test_nan_grid_rejected(self, grid):
        paths = make_paths([1.0, 0.0, 0.0], [[], [], []])
        with pytest.raises(ValueError):
            evolve_trajectory(paths, np.eye(2) / 2.0, np.array(grid))

    def test_mismatched_tau_rejected(self):
        p1 = TelegraphPath(1.0, np.array([]), tau=1.0, t_max=5.0)
        p2 = TelegraphPath(1.0, np.array([]), tau=2.0, t_max=5.0)
        with pytest.raises(ValueError):
            evolve_trajectory((p1, p2, p1), np.eye(2) / 2.0, np.array([0.0, 1.0]))


class TestEnsembleAverage:
    def test_initial_point_exact(self):
        p = ModelParams(a=(0.5, 0.5, 0.5), tau=1.0)
        b0 = [0.3, -0.4, 0.5]
        # every single trajectory starts at exactly b0 ...
        for i in range(5):
            paths = tuple(sample_path(p.tau, p.a[k], 1.0, trajectory_rng(1, i)) for k in range(3))
            traj = evolve_trajectory(paths, bloch_to_density(b0), np.array([0.0, 0.5]))
            assert np.array_equal(traj[0], b0)
        # ... so the ensemble mean matches to summation roundoff and the
        # spread is exactly zero
        res = ensemble_average(p, bloch_to_density(b0), np.array([0.0, 0.5]), 200, seed=1)
        assert np.max(np.abs(res.mean_bloch[0] - b0)) < 1e-14
        assert np.max(res.stderr[0]) < 1e-15

    def test_bit_for_bit_reproducible(self):
        p = ModelParams(a=(0.7, 0.2, 0.4), tau=0.8)
        grid = np.linspace(0.0, 2.0, 11)
        r1 = ensemble_average(p, np.eye(2, dtype=complex) / 2.0, grid, 300, seed=42)
        r2 = ensemble_average(p, np.eye(2, dtype=complex) / 2.0, grid, 300, seed=42)
        assert np.array_equal(r1.mean_bloch, r2.mean_bloch)
        assert np.array_equal(r1.stderr, r2.stderr)

    def test_seed_changes_result(self):
        p = ModelParams(a=(0.7, 0.2, 0.4), tau=0.8)
        grid = np.linspace(0.0, 2.0, 5)
        rho0 = bloch_to_density([0.0, 0.0, 1.0])
        r1 = ensemble_average(p, rho0, grid, 100, seed=1)
        r2 = ensemble_average(p, rho0, grid, 100, seed=2)
        assert not np.array_equal(r1.mean_bloch, r2.mean_bloch)

    def test_requires_two_trajectories(self):
        p = ModelParams(a=(1.0, 0.0, 0.0), tau=1.0)
        with pytest.raises(ValueError):
            ensemble_average(p, np.eye(2) / 2.0, np.array([0.0, 1.0]), 1, seed=0)

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_non_finite_grid_rejected(self, last):
        p = ModelParams(a=(1.0, 0.0, 0.0), tau=1.0)
        with pytest.raises(ValueError, match="grid"):
            ensemble_average(p, np.eye(2) / 2.0, np.array([0.0, last]), 4, seed=0)

    def test_matches_analytic_dephasing(self):
        # single-axis noise: the averaged equation is exact, so the MC mean
        # must track Lambda to within statistical error
        kt = 1.0
        p = ModelParams(a=(0.0, 0.0, kt), tau=1.0)
        b0 = np.array([1.0, 0.0, 0.0])
        grid = np.linspace(0.0, 4.0, 25)
        res = ensemble_average(p, bloch_to_density(b0), grid, 4000, seed=99)
        analytic = relaxation_profiles(grid, p) * b0[:, None]
        diff = np.abs(res.mean_bloch.T - analytic)
        with np.errstate(invalid="ignore"):
            z = np.where(res.stderr.T > 0, diff / res.stderr.T, np.where(diff == 0, 0.0, np.inf))
        assert np.mean(np.abs(z) <= 3.0) >= 0.95

    def test_multi_axis_decoupling_breaks_down_at_strong_noise(self):
        # the averaged memory-kernel equation treats the three axes as an
        # incoherent sum, which is exact per axis but approximate jointly;
        # at kappa tau = 1 the ensemble deviates far beyond statistics and
        # the oracle must report it rather than agree
        kt = 1.0
        a = kt / math.sqrt(2.0)
        p = ModelParams(a=(a, a, a), tau=1.0)
        b0 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        grid = np.linspace(0.0, 4.0, 25)
        res = ensemble_average(p, bloch_to_density(b0), grid, 4000, seed=101)
        analytic = relaxation_profiles(grid, p) * b0[:, None]
        diff = np.abs(res.mean_bloch.T - analytic)
        assert np.max(diff) > 0.05  # systematic, not statistical (se ~ 0.01)
        assert np.max(diff / np.where(res.stderr.T > 0, res.stderr.T, np.inf)) > 10.0

    def test_multi_axis_agrees_at_weak_noise(self):
        kt = 0.1
        a = kt / math.sqrt(2.0)
        p = ModelParams(a=(a, a, a), tau=1.0)
        b0 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        grid = np.linspace(0.0, 4.0, 25)
        res = ensemble_average(p, bloch_to_density(b0), grid, 4000, seed=103)
        analytic = relaxation_profiles(grid, p) * b0[:, None]
        diff = np.abs(res.mean_bloch.T - analytic)
        with np.errstate(invalid="ignore"):
            z = np.where(res.stderr.T > 0, diff / res.stderr.T, np.where(diff == 0, 0.0, np.inf))
        assert np.mean(np.abs(z) <= 3.0) >= 0.95

    def test_stderr_scales_inverse_sqrt(self):
        p = ModelParams(a=(0.0, 0.0, 0.8), tau=1.0)
        grid = np.linspace(0.5, 3.0, 6)
        rho0 = bloch_to_density([1.0, 0.0, 0.0])
        se_small = ensemble_average(p, rho0, grid, 500, seed=7).stderr
        se_large = ensemble_average(p, rho0, grid, 2000, seed=7).stderr
        ratio = se_small[:, 0] / se_large[:, 0]
        assert np.all((1.6 < ratio) & (ratio < 2.4))

    def test_mean_stays_inside_bloch_ball(self):
        p = ModelParams(a=(0.9, 0.4, 0.2), tau=0.5)
        res = ensemble_average(
            p, bloch_to_density([0.0, 0.0, 1.0]), np.linspace(0.0, 3.0, 10), 500, seed=3
        )
        assert np.all(np.linalg.norm(res.mean_bloch, axis=1) <= 1.0 + 1e-12)
