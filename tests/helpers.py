"""Independent references the tests compare the package against."""

import numpy as np

from rtnqubit import montecarlo


def bell_projector() -> np.ndarray:
    """Projector onto the maximally entangled state (|00> + |11>) / sqrt(2)."""
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def signal_samples(tau: float, a: float, times, n_paths: int, seed: int) -> np.ndarray:
    """Matrix of telegraph signal values, one row per sampled path.

    Draws axis 1 of the ensemble's block sampler, so that statistical checks
    (zero mean, autocorrelation a^2 exp(-|dt|/tau)) test the oracle's own
    noise.
    """
    times = np.asarray(times, dtype=float)
    t_max = float(np.max(times))
    order = np.argsort(times, kind="stable")
    m = times.size
    out = np.empty((int(n_paths), m))
    blocks = montecarlo._blocks((a, 0.0, 0.0), float(tau), t_max, out.shape[0], seed)
    for start, amps, owner, flips in blocks:
        size = amps.shape[0]
        # flips <= t per path: bin each flip at the first sorted time it
        # does not exceed, then accumulate along the sorted times
        first = np.searchsorted(times[order], flips, side="left")
        hist = np.bincount(owner // 3 * (m + 1) + first, minlength=size * (m + 1))
        parity = np.cumsum(hist.reshape(size, m + 1)[:, :m], axis=1) % 2
        out[start : start + size, order] = np.where(parity == 0, amps[:, :1], -amps[:, :1])
    return out
