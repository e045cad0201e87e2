import math
import tracemalloc

import numpy as np
import pytest

from rtnqubit import (
    ModelParams,
    TelegraphPath,
    bloch_to_density,
    density_to_bloch,
    ensemble_average,
    evolve_trajectory,
    relaxation_profiles,
    sample_path,
    trajectory_rng,
)
from rtnqubit import montecarlo

from helpers import signal_samples

RNG = np.random.default_rng(31415)


def make_paths(amps, flip_lists, tau=1.0, t_max=10.0):
    return tuple(
        TelegraphPath(amplitude=a, flip_times=np.asarray(f, dtype=float), tau=tau, t_max=t_max)
        for a, f in zip(amps, flip_lists)
    )


def sample_blocks(a, tau, t_max, n, seed):
    """The block sampler's draws joined: (amps (n, 3), owner = 3 * trajectory + axis, time)."""
    starts, amps, owners, times = zip(*montecarlo._blocks(a, tau, t_max, n, seed))
    owner = np.concatenate([3 * start + o for start, o in zip(starts, owners)])
    return np.concatenate(amps), owner, np.concatenate(times)


def block_paths(p, t_max, n, seed):
    """The block sampler's trajectories as path triples (flips sorted, signed amplitudes)."""
    amps, owner, time = sample_blocks(p.a, p.tau, t_max, n, seed)
    return [
        tuple(
            TelegraphPath(amps[i, k], np.sort(time[owner == 3 * i + k]), p.tau, t_max)
            for k in range(3)
        )
        for i in range(n)
    ]


def purity(b):
    return 0.5 * (1.0 + float(np.dot(b, b)))


def _rotate_reference(b, axis, angle):
    # scalar rotation, as the per-event loop below used it
    bx, by, bz = b
    kx, ky, kz = axis
    c = math.cos(angle)
    s = math.sin(angle)
    if ky == 0.0 and kz == 0.0:
        s *= kx
        return (bx, by * c - bz * s, bz * c + by * s)
    if kx == 0.0 and kz == 0.0:
        s *= ky
        return (bx * c + bz * s, by, bz * c - bx * s)
    if kx == 0.0 and ky == 0.0:
        s *= kz
        return (bx * c - by * s, by * c + bx * s, bz)
    dot = (kx * bx + ky * by + kz * bz) * (1.0 - c)
    return (
        bx * c + (ky * bz - kz * by) * s + kx * dot,
        by * c + (kz * bx - kx * bz) * s + ky * dot,
        bz * c + (kx * by - ky * bx) * s + kz * dot,
    )


def evolve_reference(paths, rho0, grid):
    """One trajectory, one flip event at a time: the reference for the batched evolution."""
    t_grid = (2.0 * paths[0].tau) * np.asarray(grid, dtype=float)
    amps = [p.amplitude for p in paths]
    g = math.sqrt(sum(a * a for a in amps))
    events = sorted((t, k) for k, p in enumerate(paths) for t in p.flip_times.tolist())
    b = tuple(density_to_bloch(rho0))
    out = np.empty((t_grid.size, 3))
    signs = [1.0, 1.0, 1.0]
    t_cur = 0.0
    ev = 0
    for gi, tg in enumerate(t_grid.tolist()):
        while ev < len(events) and events[ev][0] <= tg:
            t_flip, k = events[ev]
            if g > 0.0 and t_flip > t_cur:
                axis = tuple(a * s / g for a, s in zip(amps, signs))
                b = _rotate_reference(b, axis, 2.0 * g * (t_flip - t_cur))
            signs[k] = -signs[k]
            t_cur = t_flip
            ev += 1
        if g > 0.0 and tg > t_cur:
            axis = tuple(a * s / g for a, s in zip(amps, signs))
            b = _rotate_reference(b, axis, 2.0 * g * (tg - t_cur))
        t_cur = tg
        out[gi] = b
    return out


def _rotate_frozen(b, axis, angle, i):
    # the batched rotation as the step loop below used it, frozen
    c = np.cos(angle)
    s = np.sin(angle)
    if i is not None:
        j, k = (i + 1) % 3, (i + 2) % 3
        s *= axis[i]
        b[j], b[k] = b[j] * c - b[k] * s, b[k] * c + b[j] * s
        return
    bx, by, bz = b
    kx, ky, kz = axis
    dot = (kx * bx + ky * by + kz * bz) * (1.0 - c)
    b[:] = (
        bx * c + (ky * bz - kz * by) * s + kx * dot,
        by * c + (kz * bx - kx * bz) * s + ky * dot,
        bz * c + (kx * by - ky * bx) * s + kz * dot,
    )


def evolve_frozen(amps, owner, time, b0, t_grid):
    """The batched evolution with its bookkeeping in the step loop, frozen.

    Each step computes its angle, cosine and sine, rotates, flips the axis
    signs through a sign table and writes its grid rows; ``_evolve`` hoists
    all but the rotation out of the loop and must give the same bytes.
    """
    n, m, t_end = amps.shape[0], t_grid.size, t_grid[-1]
    g = np.sqrt((amps * amps).sum(axis=1))
    axis = amps.T / np.where(g > 0.0, g, 1.0)
    aligned = np.flatnonzero(axis.any(axis=1))
    i = int(aligned[0]) if aligned.size == 1 else None
    flip = 1.0 - 2.0 * np.eye(4, 3)
    keep = np.flatnonzero(time <= t_end)
    keep = keep[np.lexsort((time[keep], owner[keep] // 3))]
    time, col = time[keep], owner[keep] // 3
    count = np.bincount(col, minlength=n)
    slot = np.arange(col.size) - np.repeat(np.cumsum(count) - count, count)
    slot += np.searchsorted(t_grid, time)
    kinds = np.full((m + count.max(), n), 3, dtype=np.int8)
    kinds[slot, col] = owner[keep] % 3
    rows = np.minimum(np.cumsum(kinds == 3, axis=0) - 1, m - 1)
    times = t_grid[rows]
    times[slot, col] = time
    b = np.repeat(b0[:, None], n, axis=1)
    out, t_cur = np.empty((n, m, 3)), np.zeros(n)
    for t, kind, row in zip(times, kinds, rows):
        _rotate_frozen(b, axis, 2.0 * g * (t - t_cur), i)
        axis *= flip[kind].T
        t_cur, r = t, kind == 3
        out[r, row[r]] = b[:, r].T
    return out


def frozen_case(index):
    """Seeded block ``(amps, owner, time, b0, t_grid, window)`` for ``evolve_frozen``.

    Cycles n through 1, 2, 32, 256 and 1024 and the number of nonzero
    couplings through 0 to 3.  Flips come from the block sampler or are
    drawn here, then some land on grid times, some tie across two axes of
    one trajectory, some sit on zero couplings, and some blocks are
    shuffled; grids may repeat points.  Zero-length steps can move only the
    sign of a zero, so b0 often has zero components, and a zero field (whose
    axis is all signed zeros) keeps them.  Every other block runs in windows
    of 1 to 11 steps, so it crosses several.
    """
    rng = np.random.default_rng([2718, index])
    n = (1, 2, 32, 256, 1024)[index % 5]
    axes = rng.permutation(3)[: index // 5 % 4]
    a = np.zeros(3)
    a[axes] = rng.uniform(0.1, 2.0, axes.size)
    tau = rng.uniform(0.3, 2.0)
    grid = np.sort(rng.uniform(0.0, 3.0 if n < 1024 else 1.5, rng.integers(1, 42)))
    if rng.random() < 0.3:
        grid = np.round(grid * 2.0) / 2.0  # repeated points
    if rng.random() < 0.3:
        grid[0] = 0.0
    t_grid = (2.0 * tau) * grid
    t_max = t_grid[-1] * rng.uniform(1.0, 1.3)
    if rng.random() < 0.5:
        amps, owner, time = sample_blocks(a, tau, t_max, n, seed=index)
    else:
        amps = np.where(rng.random((n, 3)) < 0.5, a, -a)
        on = np.arange(3) if rng.random() < 0.3 or not axes.size else axes
        counts = rng.poisson(t_max / (2.0 * tau), (n, on.size))
        owner = np.repeat((3 * np.arange(n)[:, None] + on).ravel(), counts.ravel())
        time = rng.uniform(0.0, t_max, owner.size)
        if time.size and rng.random() < 0.5:  # flips exactly at grid times
            hit = rng.random(time.size) < 0.3
            time[hit] = rng.choice(t_grid, hit.sum())
        if time.size and rng.random() < 0.5:  # equal times on two axes of a trajectory
            j = rng.integers(time.size, size=max(1, time.size // 10))
            other = owner[j] // 3 * 3 + (owner[j] + 1 + rng.integers(2, size=j.size)) % 3
            owner, time = np.concatenate([owner, other]), np.concatenate([time, time[j]])
        if rng.random() < 0.5:
            order = rng.permutation(owner.size)
            owner, time = owner[order], time[order]
    b0 = rng.normal(size=3)
    b0 /= np.linalg.norm(b0) * rng.uniform(1.0, 2.0)
    if rng.random() < 0.5:
        zero = rng.permutation(3)[: rng.integers(1, 3)]
        b0[zero] = rng.choice([0.0, -0.0], zero.size)
    window = n * int(rng.integers(1, 12)) if index % 2 else montecarlo._WINDOW
    return amps, owner, time, b0, t_grid, window


# (couplings, nu grid): every axis-aligned rotation case, the generic case,
# zero field, repeated grid points (also on one axis, where the aligned
# rotation takes zero-length steps), a one-point grid and an all-zero grid
REFERENCE_CASES = {
    "x": ((1.3, 0.0, 0.0), np.linspace(0.0, 3.0, 31)),
    "y": ((0.0, 0.7, 0.0), np.linspace(0.0, 4.0, 17)),
    "z": ((0.0, 0.0, 2.1), np.linspace(0.5, 2.0, 12)),
    "xz": ((0.8, 0.0, 0.5), np.linspace(0.0, 5.0, 41)),
    "xyz": ((0.9, 0.4, 1.7), np.linspace(0.0, 3.0, 25)),
    "zero field": ((0.0, 0.0, 0.0), np.linspace(0.0, 2.0, 5)),
    "repeated points": ((0.6, 1.1, 0.3), np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.2, 2.0, 2.0])),
    "repeated points, z": ((0.0, 0.0, 1.2), np.array([0.0, 0.0, 0.5, 0.5, 1.2, 2.0, 2.0])),
    "one point": ((0.6, 1.1, 0.3), np.array([1.7])),
    "all-zero grid": ((0.6, 0.0, 0.3), np.zeros(3)),
}


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

    def test_leaves_caller_flip_times_writeable(self):
        # the path freezes its own copy, not the caller's array
        flips = np.array([1.0, 3.0])
        path = TelegraphPath(amplitude=2.0, flip_times=flips, tau=1.0, t_max=5.0)
        assert flips.flags.writeable and not path.flip_times.flags.writeable
        flips[0] = 2.5
        assert np.array_equal(path.values([2.0]), [-2.0])

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

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            TelegraphPath(amplitude=amplitude, flip_times=np.array([1.0]), tau=1.0, t_max=5.0)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            sample_path(1.0, amplitude, 5.0, trajectory_rng(3, 0))

    def test_nan_times_rejected(self):
        path = sample_path(1.0, 1.0, 5.0, trajectory_rng(2, 0))
        with pytest.raises(ValueError):
            path.values([1.0, math.nan])

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


class TestBlockSampler:
    def test_flip_count_law(self):
        # Poisson(t_max / 2 tau) counts: mean and variance within 5 standard errors
        tau, t_max, n = 0.7, 7.0, 4000
        _, owner, _ = sample_blocks((1.0, 0.3, 2.0), tau, t_max, n, seed=7)
        counts = np.bincount(owner, minlength=3 * n)
        lam = t_max / (2.0 * tau)
        assert abs(counts.mean() - lam) <= 5.0 * math.sqrt(lam / counts.size)
        # Var(sample variance) ~ (mu_4 - sigma^4) / k = (lam + 2 lam^2) / k
        assert abs(counts.var(ddof=1) - lam) <= 5.0 * math.sqrt((lam + 2.0 * lam**2) / counts.size)

    def test_zero_coupling_draws_nothing(self):
        amps, owner, time = sample_blocks((0.0, 0.0, 0.0), 1.0, 5.0, 500, seed=3)
        assert not amps.any() and owner.size == 0 and time.size == 0
        amps, owner, _ = sample_blocks((1.0, 0.0, 0.5), 1.0, 5.0, 500, seed=3)
        assert not amps[:, 1].any() and not np.any(owner % 3 == 1)
        rho0 = bloch_to_density([0.3, -0.2, 0.5])
        rows = montecarlo._trajectories(
            ModelParams(a=(0.0, 0.0, 0.0), tau=1.0), rho0, np.linspace(0.0, 2.5, 6), 500, seed=3
        )
        assert np.all(rows == density_to_bloch(rho0))

    def test_undrawable_horizon_refused(self):
        # numpy's Poisson sampler refuses a mean above about 9.22e18; the
        # sampler refuses first, naming the inputs, before drawing anything
        limit = montecarlo._MAX_MEAN_FLIPS
        with pytest.raises(ValueError, match=r"t_max = 2e\+300 at tau = 1 asks for 1e\+300"):
            next(montecarlo._blocks((1.0, 0.0, 0.0), 1.0, 2e300, 2, seed=0))
        with pytest.raises(ValueError, match="the sampler draws at most 9.22e\\+18"):
            next(montecarlo._blocks((1.0, 0.0, 0.0), 0.5, math.nextafter(limit, math.inf), 2, 0))
        p = ModelParams(a=(1.0, 1.0, 0.0), tau=1e-300)
        with pytest.raises(ValueError, match="at tau = 1e-300 asks for 1e\\+19 flips"):
            ensemble_average(p, bloch_to_density([1.0, 0.0, 0.0]), [0.0, 1e19], 2, seed=0)

    def test_zero_horizon_draws_no_flips(self):
        # the coins are drawn first, so the signs match a positive horizon's
        amps, owner, time = sample_blocks((1.0, 0.0, 0.5), 1.0, 0.0, 1500, seed=3)
        assert owner.size == 0 and time.size == 0
        assert np.array_equal(amps, sample_blocks((1.0, 0.0, 0.5), 1.0, 5.0, 1500, seed=3)[0])
        rho0 = bloch_to_density([0.3, -0.2, 0.5])
        rows = montecarlo._trajectories(
            ModelParams(a=(1.0, 0.7, 0.4), tau=1.0), rho0, np.zeros(3), 50, seed=3
        )
        assert np.all(rows == density_to_bloch(rho0))
        vals = signal_samples(1.0, 1.3, [0.0, 0.0], 50, seed=4)
        assert np.array_equal(vals, np.repeat(vals[:, :1], 2, axis=1))
        assert set(np.unique(vals)) == {-1.3, 1.3}

    @pytest.mark.parametrize("axis", range(3))
    def test_single_axis_noise_conserves_aligned_component(self, axis):
        a = [0.0, 0.0, 0.0]
        a[axis] = 1.3
        rho0 = bloch_to_density([0.6, -0.5, 0.4])
        rows = montecarlo._trajectories(
            ModelParams(a=a, tau=0.6), rho0, np.linspace(0.0, 5.0, 21), 300, seed=9
        )
        assert np.all(rows[:, :, axis] == density_to_bloch(rho0)[axis])

    @pytest.mark.parametrize("a", [(1.0, 0.7, 0.4), (1.0, 1.0, 0.0)])
    def test_agrees_with_per_path_sampler(self, a):
        # two-sample z rule: block ensemble vs sample_path + evolve_reference
        p = ModelParams(a=a, tau=1.0)
        rho0 = bloch_to_density([0.5, -0.4, 0.6])
        grid = np.linspace(0.0, 3.0, 16)
        n = 2000
        res = ensemble_average(p, rho0, grid, n, seed=61)
        t_max = 2.0 * p.tau * grid[-1]
        ref = np.array(
            [
                evolve_reference(tuple(sample_path(p.tau, x, t_max, rng) for x in p.a), rho0, grid)
                for rng in (trajectory_rng(62, i) for i in range(n))
            ]
        )
        diff = res.mean_bloch - ref.mean(axis=0)
        se = np.hypot(res.stderr, ref.std(axis=0, ddof=1) / math.sqrt(n))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0.0, diff / se, np.where(diff == 0.0, 0.0, math.inf))
        ok = (np.abs(z) <= 3.0) | (np.abs(diff) <= 1e-12)
        assert np.mean(ok) >= 0.95

    def test_signal_samples_match_paths(self):
        # the vectorized flip count gives each path's values, times in any order
        p = ModelParams(a=(1.3, 0.0, 0.0), tau=0.9)
        times = np.array([2.0, 0.0, 0.7, 2.0, 3.1, 1.4])
        vals = signal_samples(p.tau, 1.3, times, 50, seed=12)
        paths = block_paths(p, 3.1, 50, seed=12)
        assert np.array_equal(vals, np.array([x.values(times) for x, _, _ in paths]))


class TestEvolveTrajectory:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("horizon", [1.0, 1.7])
    def test_matches_reference(self, case, horizon):
        # bit for bit, on sampled paths that end at or beyond the grid
        a, grid = REFERENCE_CASES[case]
        tau = 0.7
        t_max = max(2.0 * tau * grid[-1], 0.5) * horizon
        rng = np.random.default_rng(2024)
        for i in range(12):
            b0 = rng.normal(size=3)
            rho0 = bloch_to_density(b0 / (np.linalg.norm(b0) * rng.uniform(1.0, 2.0)))
            paths = tuple(sample_path(tau, x, t_max, trajectory_rng(i, 0)) for x in a)
            assert np.array_equal(
                evolve_trajectory(paths, rho0, grid), evolve_reference(paths, rho0, grid)
            )

    def test_flips_at_grid_times_match_reference(self):
        # tau = 0.5 makes t = nu: flips at 0, at interior grid times (two
        # axes at once at t = 1), at the last grid time and between points;
        # in the second triple the flips of the zero couplings leave the
        # field on axis 2
        grid = np.linspace(0.0, 2.0, 9)
        flips = [[0.5, 1.0, 1.3], [1.0, 1.75], [0.0, 0.25, 2.0]]
        cases = (([0.9, -0.6, 1.4], [0.3, -0.5, 0.6]), ([0.0, -2.6, 0.0], [0.3, -0.45, 0.6]))
        for amps, b0 in cases:
            paths = make_paths(amps, flips, tau=0.5, t_max=2.5)
            rho0 = bloch_to_density(b0)
            assert np.array_equal(
                evolve_trajectory(paths, rho0, grid), evolve_reference(paths, rho0, grid)
            )

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

    def test_overflowing_field_rejected(self):
        paths = make_paths([1e200, 0.0, 0.0], [[], [], []])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="field magnitude"):
            evolve_trajectory(paths, np.eye(2) / 2.0, np.array([0.0, 1.0]))

    def test_mismatched_tau_rejected(self):
        p1 = TelegraphPath(1.0, np.array([]), tau=1.0, t_max=5.0)
        p2 = TelegraphPath(1.0, np.array([]), tau=2.0, t_max=5.0)
        with pytest.raises(ValueError):
            evolve_trajectory((p1, p2, p1), np.eye(2) / 2.0, np.array([0.0, 1.0]))


class TestFrozenLoop:
    @pytest.mark.parametrize("chunk", range(5))
    def test_same_bytes_as_frozen_loop(self, monkeypatch, chunk):
        # 500 seeded blocks; tobytes, not array_equal, so the sign of a zero counts
        for index in range(100 * chunk, 100 * chunk + 100):
            amps, owner, time, b0, t_grid, window = frozen_case(index)
            monkeypatch.setattr(montecarlo, "_WINDOW", window)
            got = montecarlo._evolve(amps, owner, time, b0, t_grid)
            want = evolve_frozen(amps, owner, time, b0, t_grid)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), index

    def test_zero_amplitude_paths_with_flips(self):
        # a zero coupling's path (amplitude 0.0 or -0.0) still flips its axis,
        # at grid times, in ties across axes and between grid points; that
        # moves only the sign of zeros, which must match the frozen loop too
        grid = np.array([0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 2.0])
        flips = [[0.25, 0.6, 1.0], [0.6, 1.3], [0.0, 1.0, 1.7]]
        for amps in ([0.0, -0.0, 0.0], [-0.0, 1.1, 0.0], [0.0, 0.0, -0.7], [0.9, -0.0, 0.4]):
            paths = make_paths(amps, flips, tau=0.5, t_max=2.5)
            owner = np.repeat(np.arange(3), [len(f) for f in flips])
            time = np.concatenate([p.flip_times for p in paths])
            for b in ([0.0, 0.0, 0.6], [0.0, 0.8, 0.0], [0.3, -0.5, 0.6]):
                rho0 = bloch_to_density(b)
                got = evolve_trajectory(paths, rho0, grid)
                want = evolve_frozen(
                    np.array([amps]), owner, time, density_to_bloch(rho0), 1.0 * grid
                )[0]
                assert got.tobytes() == want.tobytes(), (amps, b)


class TestEnsembleAverage:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference(self, case):
        # the block sampler's paths, reference trajectories, the same reduction: same bits
        a, grid = REFERENCE_CASES[case]
        p = ModelParams(a=a, tau=0.8)
        rho0 = bloch_to_density([0.5, -0.4, 0.6])
        n, seed = 37, 4242
        res = ensemble_average(p, rho0, grid, n, seed)
        t_max = float(2.0 * p.tau * grid[-1]) or 2.0 * p.tau
        paths = block_paths(p, t_max, n, seed)
        acc = np.array([evolve_reference(x, rho0, grid) for x in paths])
        assert np.array_equal(res.mean_bloch, acc.mean(axis=0))
        assert np.array_equal(res.stderr, acc.std(axis=0, ddof=1) / math.sqrt(n))

    def test_golden_ensemble(self):
        # pins contract version 2 over two blocks: a change to the streams
        # or the draw order moves these digits (test_matches_reference pins
        # the reduction), and an intended one bumps CONTRACT_VERSION and
        # repins them
        p = ModelParams(a=(0.9, 0.4, 0.2), tau=0.5)
        res = ensemble_average(
            p, bloch_to_density([0.0, 0.6, 0.8]), np.linspace(0.0, 2.0, 5), 1100, seed=2026
        )
        assert res.contract_version == montecarlo.CONTRACT_VERSION == 2
        assert res.mean_bloch[-1] == pytest.approx(
            [0.0293339006, -0.0489063282, -0.0749349949], abs=1e-10
        )

    def test_long_horizon_peak_memory(self):
        # one 1024-trajectory block with about 300 flips each: the timeline
        # runs in windows of _WINDOW slots, so the traced peak stays with the
        # flips' own arrays (20.1 MiB, against 22.8 for the frozen loop and
        # 49.3 for one window over the whole timeline)
        p = ModelParams(a=(1.0, 0.7, 0.4), tau=1.0)
        grid = np.linspace(0.0, 100.0, 41)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            ensemble_average(p, bloch_to_density([0.0, 0.6, 0.8]), grid, 1024, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 25 * 2**20

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
