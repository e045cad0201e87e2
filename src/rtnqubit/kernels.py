"""Scalar memory-kernel evolution: Laplace poles and a Volterra solver.

After the damping-basis reduction, every Bloch component obeys a scalar
integro-differential equation

    dL/dt (t) = lam * integral_0^t k(t - s) L(s) ds,     L(0) = 1,

where ``lam`` is the (nonpositive) generator eigenvalue and ``k`` the
memory kernel.  This module solves that equation two ways:

* analytically, for the exponential kernel, by locating the poles of the
  Laplace-transformed equation (``exponential_kernel_poles``);
* numerically, for exponential or tabulated kernels, by direct quadrature
  in the time domain (``solve_volterra``).

The quadrature combines the trapezoidal rule for the memory integral with
Heun (predictor-corrector) time stepping and converges at second order in
the step size.  For the exponential kernel the memory integral I(t) and
L(t) form a two-state linear system, so one step is a fixed 2x2 map of
(L, I) and the whole grid follows from its powers in O(log steps) numpy
operations.  The white-noise limit's decay rates are given in closed form
by :func:`rtnqubit.telegraph.markov_rates`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExponentialKernel",
    "SampledKernel",
    "ScalarEvolution",
    "NumericalBlowupError",
    "exponential_kernel_poles",
    "solve_volterra",
]


class NumericalBlowupError(RuntimeError):
    """The quadrature produced a non-finite value.

    Attributes:
        time: the first grid time at which the solution was non-finite.
    """

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__(f"Volterra quadrature became non-finite at t = {time:.6g}")


@dataclass(frozen=True)
class ExponentialKernel:
    """k(dt) = exp(-dt / tau) with memory time tau > 0."""

    tau: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"kernel timescale must be > 0, got {self.tau}")

    def __call__(self, dt):
        dt = np.asarray(dt, dtype=float)
        if not np.all(dt >= 0.0):
            raise ValueError("kernel argument must be >= 0")
        out = np.exp(-dt / self.tau)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SampledKernel:
    """Kernel tabulated on an ascending time grid, linearly interpolated.

    Evaluation outside the sampled range is an error, not extrapolation.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # copies: freezing must not reach the caller's arrays
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("need matching 1-d arrays with at least two samples")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("samples must be finite")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, dt):
        dt = np.asarray(dt, dtype=float)
        if not (np.all(dt >= self.times[0]) and np.all(dt <= self.times[-1])):
            raise ValueError(
                f"kernel sampled only on [{self.times[0]:g}, {self.times[-1]:g}]; "
                "refusing to extrapolate"
            )
        out = np.interp(dt, self.times, self.values)
        return float(out) if out.ndim == 0 else out


Kernel = ExponentialKernel | SampledKernel


@dataclass(frozen=True)
class ScalarEvolution:
    """Numerical solution L(t) on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    eigenvalue: float
    kernel: Kernel = field(repr=False)

    def nu_grid(self, tau: float) -> np.ndarray:
        """The grid in dimensionless units nu = t / (2 tau)."""
        tau = float(tau)
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {tau}")
        return self.grid / (2.0 * tau)


def exponential_kernel_poles(eigenvalue: float, tau: float) -> tuple[complex, complex]:
    """Both roots of s^2 + s/tau - lam = 0 (Laplace poles, exp. kernel).

    For lam = -4 kappa^2 the roots are (-1 +/- i mu) / (2 tau) with
    mu = sqrt((4 kappa tau)^2 - 1): a complex-conjugate pair for
    4 kappa tau > 1, two real roots for 4 kappa tau < 1, and a double
    root -1/(2 tau) at the critical point.
    """
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be > 0, got {tau}")
    lam = _finite_eigenvalue(eigenvalue)
    b = 1.0 / tau
    root = cmath.sqrt(complex(b * b + 4.0 * lam))
    return ((-b + root) / 2.0, (-b - root) / 2.0)


def solve_volterra(
    kernel: Kernel, eigenvalue: float, t_max: float, steps: int
) -> ScalarEvolution:
    """Integrate dL/dt = lam * int_0^t k(t-s) L(s) ds with L(0) = 1.

    Trapezoidal memory integral + Heun stepping; the global error is
    O(h^2).  For the exponential kernel one step is a fixed linear map of
    (L, I), and the grid is filled by doubling its powers: O(log steps)
    numpy operations on O(steps) memory.  Tabulated kernels pay the
    generic O(steps^2).

    Raises:
        ValueError: if the eigenvalue is not finite, t_max is not finite
            and > 0, or steps < 2.
        NumericalBlowupError: if the solution becomes non-finite.
    """
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be > 0, got {t_max}")
    lam = _finite_eigenvalue(eigenvalue)

    grid = np.linspace(0.0, t_max, steps + 1)
    h = t_max / steps
    if isinstance(kernel, ExponentialKernel):
        values = _solve_exponential(lam, kernel.tau, h, steps)
    else:
        values = _solve_generic(lam, kernel(grid), h, steps)

    bad = ~np.isfinite(values)
    if np.any(bad):
        raise NumericalBlowupError(grid[int(np.argmax(bad))])
    return ScalarEvolution(grid=grid, values=values, eigenvalue=lam, kernel=kernel)


def _finite_eigenvalue(eigenvalue: float) -> float:
    lam = float(eigenvalue)
    if not math.isfinite(lam):
        raise ValueError(f"eigenvalue must be finite, got {lam}")
    return lam


def _solve_exponential(lam: float, tau: float, h: float, steps: int) -> np.ndarray:
    # The trapezoid sum I_n ~= int_0^{t_n} e^{-(t_n-s)/tau} L(s) ds obeys
    # I_{n+1} = d*(I_n + h/2 L_n) + h/2 L_{n+1} with d = e^{-h/tau}, so one
    # Heun step is a fixed 2x2 map of (L_n, I_n).  grow = step^n - 1 fills
    # steps n..2n-1 from steps 0..n-1, then n doubles; step^n itself would
    # lose the digits of a near-identity map that step^n - 1 keeps.
    cur, integral = np.eye(2)  # the unit states; grow starts as step - 1
    rate = lam * integral
    shift = math.expm1(-h / tau) * integral + math.exp(-h / tau) * 0.5 * h * cur  # d(I + h/2 L) - I
    d_cur = 0.5 * h * (rate + lam * (integral + shift + 0.5 * h * (cur + h * rate)))
    grow = np.array([d_cur, shift + 0.5 * h * (cur + d_cur)])
    out = np.empty((2, steps + 1))
    out[:, 0] = (1.0, 0.0)
    n = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= steps:
            m = min(n, steps + 1 - n)
            out[:, n : n + m] = out[:, :m] + grow @ out[:, :m]
            grow = 2.0 * grow + grow @ grow
            n *= 2
    return out[0].copy()  # a solution need not keep the I row alive


def _solve_generic(lam: float, kernel_values: np.ndarray, h: float, steps: int) -> np.ndarray:
    # kernel_values[m] = k(m h); trapezoid over j of k(t_n - t_j) L_j.
    out = np.empty(steps + 1)
    out[0] = 1.0
    for n in range(steps):
        window = out[: n + 1]
        rev = kernel_values[n::-1]
        integral = h * (np.dot(rev, window) - 0.5 * (rev[0] * window[0] + rev[-1] * window[-1]))
        rate = lam * integral
        predictor = out[n] + h * rate
        rev1 = kernel_values[n + 1 :: -1]
        trapz_pred = h * (
            np.dot(rev1[:-1], window)
            + rev1[-1] * predictor
            - 0.5 * (rev1[0] * window[0] + rev1[-1] * predictor)
        )
        out[n + 1] = out[n] + 0.5 * h * (rate + lam * trapz_pred)
        if not math.isfinite(out[n + 1]):
            out[n + 1 :] = math.nan
            break
    return out
