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
the field lies along one axis is decided once per ensemble.  The timeline
runs in windows of a fixed number of (step, trajectory) slots: a window's
step angles, their cosines and sines and its axis signs are computed
before its loop, which only rotates and keeps each step's Bloch vector,
and one gather then reads the grid rows the window recorded.
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
        flips = np.array(self.flip_times, dtype=float)  # a copy, frozen below
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


def _nu_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    ok = grid.ndim == 1 and grid.size and grid[0] >= 0.0 and grid[-1] < math.inf
    if not (ok and np.all(np.diff(grid) >= 0.0)):
        raise ValueError("grid must be a non-empty 1-d array of finite, nonnegative, ascending nu")
    return grid


# Timeline slots (steps x trajectories) that _evolve runs per window: its
# per-window buffers (trig, axis signs, history) stay bounded at any horizon.
_WINDOW = 1 << 15
# Axis of each row of the rolled (y, z, x, y, z) layout, in which the cross
# product k x b is two products of contiguous three-row slices.
_ROLLED = np.array([1, 2, 0, 1, 2])


def _time_ranks(time) -> np.ndarray:
    # Rank of each time among the distinct times, as np.unique's inverse,
    # with fewer flip-sized arrays alive at once.
    by_time = np.argsort(time)
    new = np.diff(time[by_time]) != 0.0
    rank = np.zeros_like(by_time)
    rank[by_time[1:]] = np.cumsum(new)
    return rank


def _timeline(owner, time, t_grid, n):
    """Merged flip-and-grid timelines of n trajectories, one row each.

    Row i holds trajectory i's flips up to the last grid time and the grid
    times, a flip first at a tie; shorter rows end with repeats of the last
    grid row.  Returns ``times`` and ``kinds`` (n, steps + 1), whose column
    s + 1 holds the time step s ends at and the axis it then flips (3 for
    none; column 0 is the start), and ``rec`` (n, len(t_grid)), the step
    that records each grid row: the last row is read at the final step, the
    last of its repeated records.
    """
    m, t_end = t_grid.size, t_grid[-1]
    kept = time <= t_end
    time = time[kept]
    # np.lexsort((time, col)) order from integer keys, at a fraction of its
    # cost: equal times share a rank, and the stable sort keeps input order
    key = _time_ranks(time)
    key += owner[kept] // 3 * time.size
    order = np.argsort(key, kind="stable")
    col, kind = np.divmod(owner[kept][order], 3)
    time = time[order]
    del kept, key, order  # the flips' arrays bound the peak memory
    first = np.searchsorted(t_grid, time)  # grid times strictly before the flip
    count = np.bincount(col, minlength=n)
    steps = m + int(count.max())
    rec = np.cumsum(np.bincount(col * m + first, minlength=n * m).reshape(n, m), axis=1)
    rec += np.arange(m)
    rec[:, -1] = steps - 1
    del col
    # flat index of each flip: its row, its rank in the row, the grid rows before it
    at = np.repeat(np.arange(n) * (steps + 1) + 1 - (np.cumsum(count) - count), count)
    at += np.arange(at.size)
    at += first
    del first
    times = np.full((n, steps + 1), t_end)
    times[:, 0] = 0.0
    times.ravel()[rec[:, :-1] + 1 + np.arange(n)[:, None] * (steps + 1)] = t_grid[:-1]
    times.ravel()[at] = time
    kinds = np.full((n, steps + 1), 3, dtype=np.int8)
    kinds.ravel()[at] = kind
    return times, kinds, rec


def _evolve(amps, owner, time, b0, t_grid) -> np.ndarray:
    """Bloch rows at ``t_grid`` of each trajectory: (n, len(t_grid), 3).

    ``amps`` (n, 3) holds each trajectory's signed initial couplings, and
    flip j (in any order) flips axis ``owner[j] % 3`` of trajectory
    ``owner[j] // 3`` at ``time[j]``.  Each step of the merged timeline (see
    ``_timeline``) rotates every trajectory about its field up to the step's
    time (a step of zero length is an identity rotation: only the sign of a
    zero may change), then flips one axis or records a grid row, so each
    trajectory takes the rotations it would take alone.  Every trajectory
    has the same nonzero couplings at every step, so whether the field lies
    along one axis ``i`` (which leaves b[i] untouched) is decided once.

    The steps run in windows of ``_WINDOW`` slots.  A window's angles, their
    cosines and sines and its axis signs are computed before its loop, which
    only rotates and keeps each step's vector; one gather then reads the
    grid rows the window recorded.
    """
    n, m = amps.shape[0], t_grid.size
    g = np.sqrt((amps * amps).sum(axis=1))
    if not np.all(g < math.inf):
        raise ValueError("field magnitude overflows: a1^2 + a2^2 + a3^2 is not finite")
    axis = amps.T / np.where(g > 0.0, g, 1.0)
    aligned = np.flatnonzero(axis.any(axis=1))
    i = int(aligned[0]) if aligned.size == 1 else None
    times, kinds, rec = _timeline(owner, time, t_grid, n)
    steps = times.shape[1] - 1
    times, kinds = times.T.copy(), kinds.T.copy()  # step-major, for the windows
    if i is None:  # Rodrigues' formula, b and k in the rolled layout
        layout, k, k_axes = _ROLLED, axis[_ROLLED], _ROLLED
    else:  # rows (i + 1, i + 2, i) mod 3: the first two turn by s * k_i, b_i stays
        layout = np.array([(i + 1) % 3, (i + 2) % 3, i])
        k, k_axes = axis[i : i + 1].copy(), [i]
    b = np.repeat(b0[layout, None], n, axis=1)
    p, q, dot = np.empty((3, n)), np.empty((3, n)), np.empty(n)
    w = min(steps, max(1, _WINDOW // n))
    hist = np.empty((w, 3, n))  # each step's b[-3:], rows layout[-3:]
    # hist index of each (trajectory, grid row) for a window at step 0, and
    # the offset of each axis's row
    at, offsets = rec * (3 * n) + np.arange(n)[:, None], np.argsort(layout[-3:]) * n
    out = np.empty((n, m, 3))
    for w0 in range(0, steps, w):
        w1 = min(w0 + w, steps)
        angle = times[w0 + 1 : w1 + 1] - times[w0:w1]
        angle *= 2.0 * g
        c, s = np.cos(angle), np.sin(angle)
        sign = np.empty((w1 - w0, k.shape[0], n))  # -1 where a step flips k's axis, else 1
        for r, a in enumerate(k_axes):
            np.equal(kinds[w0 + 1 : w1 + 1], a, out=sign[:, r])
        sign *= -2.0
        sign += 1.0
        if i is None:
            # k x b = k[:3] b[1:4] - k[1:4] b[:3] in rows (x, y, z)
            bx, b1, b2, kx, k1, k2 = b[2:], b[1:4], b[:3], k[2:], k[:3], k[1:4]
            p0, p1, p2, head, tail = p[0], p[1], p[2], b[:2], b[3:]
            for ht, ct, st, ot, ft in zip(hist, c, s, 1.0 - c, sign):
                np.multiply(kx, bx, out=p)
                np.add(p0, p1, out=dot)
                dot += p2
                dot *= ot
                np.multiply(k1, b1, out=p)
                np.multiply(k2, b2, out=q)
                p -= q
                p *= st
                np.multiply(bx, ct, out=q)
                q += p
                np.multiply(kx, dot, out=p)
                np.add(q, p, out=bx)
                head[...] = tail
                ht[...] = bx
                k *= ft
        else:
            bj, bk, bjk, pjk, qjk, sk, ki = b[0], b[1], b[:2], p[:2], q[:2], np.empty(n), k[0]
            p0, p1, q0, q1 = p[0], p[1], q[0], q[1]
            for ht, ct, st, ft in zip(hist, c, s, sign):
                np.multiply(st, ki, out=sk)
                np.multiply(bjk, ct, out=pjk)
                np.multiply(bjk, sk, out=qjk)
                np.subtract(p0, q1, out=bj)
                np.add(p1, q0, out=bk)
                ht[...] = b
                k *= ft
        # the rows this window recorded; a row recorded later reads garbage
        # here until its own window, and rows of earlier windows are kept
        done = rec >= w0 if w0 else True
        for d, offset in enumerate(offsets - w0 * 3 * n):
            np.copyto(out[..., d], np.take(hist, at + offset, mode="clip"), where=done)
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
