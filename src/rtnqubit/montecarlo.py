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

Reproducibility contract: trajectory i draws from a counter-based Philox
stream keyed by (seed, i), and trajectories are reduced in index order,
so a fixed (seed, N, grid) gives bit-identical results regardless of how
the work would be scheduled.
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

    Draw order is fixed (sign coin first, then waiting times), which the
    ensemble reproducibility contract relies on.
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
    return TelegraphPath(
        amplitude=amplitude, flip_times=np.array(flips), tau=tau, t_max=t_max
    )


def _rotate(b, axis, angle: float):
    # Rotation of Bloch vector b about unit axis k by angle.  Axis-aligned
    # fields are special-cased so the component along the field is copied
    # unchanged (it is an exact constant of the motion, and tests rely on
    # bit-exact conservation); the generic case is Rodrigues' formula.
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


def _nu_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if not (
        grid.ndim == 1
        and grid.size
        and grid[0] >= 0.0
        and grid[-1] < math.inf
        and np.all(np.diff(grid) >= 0.0)
    ):
        raise ValueError("grid must be a non-empty 1-d array of finite, nonnegative, ascending nu")
    return grid


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
    trajectory up to roundoff.
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

    amps = [p.amplitude for p in paths]
    g = math.sqrt(sum(a * a for a in amps))
    events: list[tuple[float, int]] = sorted(
        (t, k) for k, p in enumerate(paths) for t in p.flip_times.tolist()
    )

    b = tuple(linalg.density_to_bloch(rho0))
    out = np.empty((grid.size, 3))
    signs = [1.0, 1.0, 1.0]
    t_cur = 0.0
    ev = 0
    n_events = len(events)
    for gi, tg in enumerate(t_grid.tolist()):
        while ev < n_events and events[ev][0] <= tg:
            t_flip, k = events[ev]
            if g > 0.0 and t_flip > t_cur:
                axis = (
                    amps[0] * signs[0] / g,
                    amps[1] * signs[1] / g,
                    amps[2] * signs[2] / g,
                )
                b = _rotate(b, axis, 2.0 * g * (t_flip - t_cur))
            signs[k] = -signs[k]
            t_cur = t_flip
            ev += 1
        if g > 0.0 and tg > t_cur:
            axis = (
                amps[0] * signs[0] / g,
                amps[1] * signs[1] / g,
                amps[2] * signs[2] / g,
            )
            b = _rotate(b, axis, 2.0 * g * (tg - t_cur))
        t_cur = tg
        out[gi] = b
    return out


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble mean of the Bloch vector with per-point standard errors."""

    grid: np.ndarray
    mean_bloch: np.ndarray  # shape (len(grid), 3)
    stderr: np.ndarray  # sample stddev / sqrt(N), same shape
    n_trajectories: int
    seed: int


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for trajectory ``index`` of ensemble ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def ensemble_average(
    params: ModelParams, rho0, grid, n_trajectories: int, seed: int
) -> EnsembleResult:
    """Average N independently seeded trajectories on a shared nu grid.

    Deterministic for fixed (seed, N, grid): stream i is derived from
    (seed, i) and the reduction runs in index order.
    """
    n = int(n_trajectories)
    if n < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    grid = _nu_grid(grid)
    t_max = float(2.0 * params.tau * grid[-1])
    if t_max <= 0.0:
        # all-zero grid: paths still need a positive horizon
        t_max = 2.0 * params.tau
    acc = np.empty((n, grid.size, 3))
    for i in range(n):
        rng = trajectory_rng(seed, i)
        paths = tuple(sample_path(params.tau, params.a[k], t_max, rng) for k in range(3))
        acc[i] = evolve_trajectory(paths, rho0, grid)
    mean = acc.mean(axis=0)
    stderr = acc.std(axis=0, ddof=1) / math.sqrt(n)
    return EnsembleResult(
        grid=grid, mean_bloch=mean, stderr=stderr, n_trajectories=n, seed=int(seed)
    )


def signal_samples(
    tau: float, a: float, times, n_paths: int, seed: int
) -> np.ndarray:
    """Matrix of telegraph signal values, one row per sampled path.

    Convenience for statistical checks (zero mean, exponential
    autocorrelation a^2 exp(-|dt|/tau)); uses the same path sampler and
    per-index streams as the ensemble.
    """
    times = np.asarray(times, dtype=float)
    t_max = float(np.max(times))
    if t_max <= 0.0:
        t_max = tau
    out = np.empty((int(n_paths), times.size))
    for i in range(int(n_paths)):
        path = sample_path(tau, a, t_max, trajectory_rng(seed, i))
        out[i] = path.values(times)
    return out
