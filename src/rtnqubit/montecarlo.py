"""Brute-force trajectory oracle for the telegraph-noise qubit.

Instead of the averaged memory-kernel propagator, this module simulates
the microscopic picture directly: three independent telegraph signals
Gamma_k(t) = (+/- a_k) * (-1)^{n_k(t)} drive the Hamiltonian
H(t) = Gamma_1 sigma_1 + Gamma_2 sigma_2 + Gamma_3 sigma_3 (hbar = 1),
each trajectory evolves unitarily, and the ensemble mean of the Bloch
vector is compared against the analytic profiles.

Between flips the Hamiltonian is constant, so each segment is an exact
rotation of the Bloch vector about the instantaneous field axis by angle
2 |Gamma| dt.  There is no time-discretization error: any residual
disagreement with the closed form is purely statistical.

Reproducibility contract (version ``CONTRACT_VERSION``): an ensemble of N
trajectories is drawn in blocks of ``_BLOCK`` trajectories, block b from a
counter-based Philox stream keyed by (seed, b).  Within a block the draw
order is fixed: a sign coin per (trajectory, nonzero axis), then a
Poisson(t_max / 2 tau) flip count per (trajectory, nonzero axis), then
that many uniform flip times on [0, t_max], trajectory-major.  By the
order statistics of a Poisson process these are the flips of a telegraph
signal; an axis with zero coupling draws nothing.  Trajectories are
reduced in index order, so a fixed (seed, N, grid) gives bit-identical
results within one contract version.  The trajectories of an ensemble are
evolved together, in one loop over their merged flip-and-grid timelines,
and each takes exactly the rotations, in the same order, that it would
take alone.  A step of zero length is an identity rotation, and whether
the field lies along one axis is decided once per ensemble.
``trajectory_rng`` and ``sample_path`` draw one path at a time from a
per-(seed, index) stream, a different stream family from the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .telegraph import ModelParams

__all__ = [
    "TelegraphPath",
    "EnsembleResult",
    "sample_path",
    "evolve_trajectory",
    "ensemble_average",
    "signal_samples",
    "trajectory_rng",
]


@dataclass(frozen=True)
class TelegraphPath:
    """One realization of a telegraph signal on [0, t_max].

    ``amplitude`` is the signed initial value (+a or -a, fair coin);
    the signal at time t is amplitude * (-1)^(number of flips <= t).
    Waiting times between flips are exponential with mean 2 tau, i.e.
    the flip count over [0, t] is Poisson with mean t / (2 tau).
    """

    amplitude: float
    flip_times: np.ndarray
    tau: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < math.inf and 0.0 < self.t_max < math.inf):
            raise ValueError("tau and t_max must be finite and > 0")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        flips = np.asarray(self.flip_times, dtype=float)
        if flips.ndim != 1 or not np.all(np.diff(flips) > 0.0):
            raise ValueError("flip times must be a strictly increasing 1-d array")
        if flips.size and not (flips[0] >= 0.0 and flips[-1] <= self.t_max):
            raise ValueError("flip times must lie inside [0, t_max]")
        flips.flags.writeable = False
        object.__setattr__(self, "flip_times", flips)

    def values(self, times) -> np.ndarray:
        """Signal values at the given times (vectorized)."""
        times = np.asarray(times, dtype=float)
        if not np.all((times >= 0.0) & (times <= self.t_max)):
            raise ValueError("requested times outside [0, t_max]")
        counts = np.searchsorted(self.flip_times, times, side="right")
        return np.where(counts % 2 == 0, self.amplitude, -self.amplitude)


def sample_path(tau: float, a: float, t_max: float, rng: np.random.Generator) -> TelegraphPath:
    """Draw one telegraph realization.

    Draw order is fixed (sign coin first, then exponential waiting times),
    so a path drawn from ``trajectory_rng(seed, i)`` is reproducible.  The
    ensembles draw from the block sampler instead (see the module docstring).
    """
    tau = float(tau)
    t_max = float(t_max)
    if not (0.0 < tau < math.inf and 0.0 < t_max < math.inf):
        raise ValueError("tau and t_max must be finite and > 0")
    amplitude = float(a) if rng.integers(0, 2) == 0 else -float(a)
    flips = []
    t = rng.exponential(2.0 * tau)
    while t < t_max:
        flips.append(t)
        t += rng.exponential(2.0 * tau)
    return TelegraphPath(amplitude=amplitude, flip_times=np.array(flips), tau=tau, t_max=t_max)


def _rotate(b, axis, angle, i):
    # Rotates Bloch vectors b (3, n) in place about unit axes by angles.  A
    # field along axis i leaves b[i] untouched (an exact constant of the
    # motion, which tests rely on); any other field takes Rodrigues' formula.
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


def _nu_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    ok = grid.ndim == 1 and grid.size and grid[0] >= 0.0 and grid[-1] < math.inf
    if not (ok and np.all(np.diff(grid) >= 0.0)):
        raise ValueError("grid must be a non-empty 1-d array of finite, nonnegative, ascending nu")
    return grid


def _evolve(amps, owner, time, b0, t_grid) -> np.ndarray:
    """Bloch rows at ``t_grid`` of each trajectory: (n, len(t_grid), 3).

    ``amps`` (n, 3) holds each trajectory's signed initial couplings, and
    flip j (in any order) flips axis ``owner[j] % 3`` of trajectory
    ``owner[j] // 3`` at ``time[j]``.  Timeline column i holds trajectory
    i's flips up to the last grid time and the grid times, a flip first at
    a tie; shorter columns end with repeats of the last grid row.  Each step
    rotates every trajectory about its field up to the step's time (a step
    of zero length is an identity rotation: only the sign of a zero may
    change), then flips axis component ``kind`` < 3 or records grid row
    ``row`` (kind 3), so each trajectory takes the rotations it would take
    alone.  Every trajectory has the same nonzero couplings at every step,
    so whether the field lies along one axis ``i`` is decided once.
    """
    n, m, t_end = amps.shape[0], t_grid.size, t_grid[-1]
    g = np.sqrt((amps * amps).sum(axis=1))
    if not np.all(g < math.inf):
        raise ValueError("field magnitude overflows: a1^2 + a2^2 + a3^2 is not finite")
    axis = amps.T / np.where(g > 0.0, g, 1.0)
    aligned = np.flatnonzero(axis.any(axis=1))
    i = int(aligned[0]) if aligned.size == 1 else None
    flip = 1.0 - 2.0 * np.eye(4, 3)  # axis signs by kind: 0-2 flip that axis, 3 none
    keep = np.flatnonzero(time <= t_end)
    keep = keep[np.lexsort((time[keep], owner[keep] // 3))]  # stable: axis order at ties
    time, col = time[keep], owner[keep] // 3
    count = np.bincount(col, minlength=n)
    slot = np.arange(col.size) - np.repeat(np.cumsum(count) - count, count)
    slot += np.searchsorted(t_grid, time)  # grid times strictly before the flip
    kinds = np.full((m + count.max(), n), 3, dtype=np.int8)
    kinds[slot, col] = owner[keep] % 3
    rows = np.minimum(np.cumsum(kinds == 3, axis=0) - 1, m - 1)
    times = t_grid[rows]
    times[slot, col] = time
    b = np.repeat(b0[:, None], n, axis=1)
    out, t_cur = np.empty((n, m, 3)), np.zeros(n)
    for t, kind, row in zip(times, kinds, rows):
        _rotate(b, axis, 2.0 * g * (t - t_cur), i)
        axis *= flip[kind].T
        t_cur, r = t, kind == 3
        out[r, row[r]] = b[:, r].T
    return out


def evolve_trajectory(paths, rho0, grid) -> np.ndarray:
    """Evolve one noise realization exactly; return Bloch rows per grid nu.

    Args:
        paths: three TelegraphPath realizations (axes 1, 2, 3) sharing tau
            and covering the grid.
        rho0: initial density matrix.
        grid: ascending dimensionless times nu = t / (2 tau).

    Between the merged flip events the field is constant, so each segment
    applies the exact unitary: a Bloch rotation about the current field
    direction at angular rate 2 |Gamma|.  Purity is conserved along the
    trajectory up to roundoff.  This is the ensemble's evolution run on a
    batch of one trajectory.
    """
    if len(paths) != 3:
        raise ValueError("need exactly three telegraph paths")
    tau = paths[0].tau
    if any(p.tau != tau for p in paths):
        raise ValueError("paths must share one flip timescale")
    grid = _nu_grid(grid)
    t_grid = (2.0 * tau) * grid
    if not t_grid[-1] <= min(p.t_max for p in paths):
        raise ValueError("grid extends beyond the sampled paths")
    amps = np.array([[p.amplitude for p in paths]])
    owner = np.repeat(np.arange(3), [p.flip_times.size for p in paths])
    time = np.concatenate([p.flip_times for p in paths])
    return _evolve(amps, owner, time, linalg.density_to_bloch(rho0), t_grid)[0]


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble mean of the Bloch vector with per-point standard errors.

    Equal inputs give equal bits within one ``contract_version``; another
    version may draw other trajectories.
    """

    grid: np.ndarray
    mean_bloch: np.ndarray  # shape (len(grid), 3)
    stderr: np.ndarray  # sample stddev / sqrt(N), same shape
    n_trajectories: int
    seed: int
    contract_version: int


# Version of the ensemble's streams, draw order and reduction (see the
# module docstring): any change to them, _BLOCK included, bumps it.
CONTRACT_VERSION = 2
_BLOCK = 1024
# The largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX).
_MAX_MEAN_FLIPS = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for trajectory ``index`` of ensemble ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _blocks(a, tau: float, t_max: float, n: int, seed: int):
    """Telegraph noise of n trajectories, one (start, amps, owner, time) per block.

    Block b holds trajectories ``start`` = b * _BLOCK onwards and draws from
    a Philox stream whose two-word spawn key (_BLOCK, b) can never equal a
    one-word ``trajectory_rng`` key.  ``amps`` (size, 3) are the signed
    couplings; flip j flips axis ``owner[j] % 3`` of the block's trajectory
    ``owner[j] // 3`` at ``time[j]``, grouped by owner but not sorted.  A
    zero horizon draws no flips.
    """
    if not (0.0 < tau < math.inf and 0.0 <= t_max < math.inf):
        raise ValueError("tau must be finite and > 0, and t_max finite and >= 0")
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("amplitude must be finite")
    axes = np.flatnonzero(a)  # a zero coupling draws nothing
    mean_flips = t_max / (2.0 * tau)
    if not mean_flips <= _MAX_MEAN_FLIPS:
        raise ValueError(
            f"t_max = {t_max:g} at tau = {tau:g} asks for {mean_flips:.3g} flips per axis on"
            f" average; the sampler draws at most {_MAX_MEAN_FLIPS:.3g}"
        )
    for start in range(0, n, _BLOCK):
        rng = np.random.Generator(
            np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(_BLOCK, start // _BLOCK))
            )
        )
        size = min(_BLOCK, n - start)
        coins = rng.integers(0, 2, (size, axes.size))
        counts = rng.poisson(mean_flips, (size, axes.size))
        time = rng.uniform(0.0, t_max, int(counts.sum()))
        amps = np.zeros((size, 3))
        amps[:, axes] = np.where(coins == 0, a[axes], -a[axes])
        owner = np.repeat((3 * np.arange(size)[:, None] + axes).ravel(), counts.ravel())
        yield start, amps, owner, time


def _trajectories(params: ModelParams, rho0, grid, n: int, seed: int) -> np.ndarray:
    """Bloch rows (n, len(grid), 3) of the n trajectories of ensemble ``seed``."""
    b0 = linalg.density_to_bloch(rho0)
    t_grid = (2.0 * params.tau) * grid
    out = np.empty((n, grid.size, 3))
    for start, amps, owner, time in _blocks(params.a, params.tau, t_grid[-1], n, seed):
        out[start : start + amps.shape[0]] = _evolve(amps, owner, time, b0, t_grid)
    return out


def ensemble_average(
    params: ModelParams, rho0, grid, n_trajectories: int, seed: int
) -> EnsembleResult:
    """Average N trajectories drawn by the block sampler on a shared nu grid.

    Deterministic for fixed (seed, N, grid) within one contract version:
    the streams are keyed by (seed, block) and the reduction runs in index
    order.
    """
    n = int(n_trajectories)
    if n < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    grid = _nu_grid(grid)
    acc = _trajectories(params, rho0, grid, n, seed)
    mean = acc.mean(axis=0)
    # acc.std(axis=0, ddof=1) bit for bit, in place of a second (n, m, 3) array
    acc -= mean
    acc *= acc
    stderr = np.sqrt(acc.sum(axis=0) / (n - 1)) / math.sqrt(n)
    return EnsembleResult(
        grid=grid,
        mean_bloch=mean,
        stderr=stderr,
        n_trajectories=n,
        seed=int(seed),
        contract_version=CONTRACT_VERSION,
    )


def signal_samples(tau: float, a: float, times, n_paths: int, seed: int) -> np.ndarray:
    """Matrix of telegraph signal values, one row per sampled path.

    Convenience for statistical checks (zero mean, exponential
    autocorrelation a^2 exp(-|dt|/tau)); draws axis 1 of the ensemble's
    block sampler, so the checks test the oracle's own noise.
    """
    times = np.asarray(times, dtype=float)
    if not (times.size and np.all((times >= 0.0) & (times < math.inf))):
        raise ValueError("times must be non-empty, finite and >= 0")
    t_max = float(np.max(times))
    order = np.argsort(times, kind="stable")
    m = times.size
    out = np.empty((int(n_paths), m))
    for start, amps, owner, flips in _blocks((a, 0.0, 0.0), float(tau), t_max, out.shape[0], seed):
        size = amps.shape[0]
        # flips <= t per path: bin each flip at the first sorted time it
        # does not exceed, then accumulate along the sorted times
        first = np.searchsorted(times[order], flips, side="left")
        hist = np.bincount(owner // 3 * (m + 1) + first, minlength=size * (m + 1))
        parity = np.cumsum(hist.reshape(size, m + 1)[:, :m], axis=1) % 2
        out[start : start + size, order] = np.where(parity == 0, amps[:, :1], -amps[:, :1])
    return out
