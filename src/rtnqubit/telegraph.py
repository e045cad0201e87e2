"""Closed-form qubit dynamics driven by random telegraph noise.

The model couples a single qubit to three independent two-state (telegraph)
fields along the Pauli axes, with coupling strengths ``a = (a1, a2, a3)``
and one shared flip timescale ``tau``.  Averaging over the noise yields a
master equation with an exponential memory kernel whose damping basis is
the Pauli basis itself: each Bloch component relaxes independently,

    b_i(nu) = Lambda(nu; kappa_i * tau) * b_i(0),      nu = t / (2 * tau),

with kappa_i^2 = a_j^2 + a_k^2 (i, j, k distinct) and

    Lambda(nu; kt) = exp(-nu) * (cos(mu nu) + sin(mu nu) / mu),
    mu = sqrt((4 kt)^2 - 1).

For kt < 1/4 the frequency mu is imaginary and the profile is purely
damped (cosh/sinh form); at kt = 1/4 it degenerates to exp(-nu) (1 + nu);
for kt > 1/4 it oscillates inside [-1, 1].  In all regimes |Lambda| <= 1,
so single-qubit positivity is never lost; complete positivity is a
separate question handled in :mod:`rtnqubit.positivity`.

:func:`relaxation_profiles` evaluates the three profiles together, in one
pass per regime present: each component keeps its own regime's formula
(and so the bits of evaluating it alone), while the per-call cost is paid
once per regime rather than once per component.

In the white-noise limit (tau -> 0 with 2 a^2 tau fixed) each component
decays as exp(-gamma_i t) with gamma_i = 4 kappa_i^2 tau.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "ModelParams",
    "Regime",
    "damping_spectrum",
    "classify_regime",
    "relaxation_profile",
    "relaxation_profiles",
    "propagate",
    "propagate_time",
    "markov_propagate",
    "markov_rates",
]

# Width of the critical regime in kappa*tau used by classify_regime.
CRITICAL_ATOL = 1e-12
# |4*kappa*tau - 1| below which relaxation_profile switches to the series
# around the critical point, to avoid the 0/0 in sin(mu nu)/mu.
CRITICAL_SERIES_WINDOW = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Coupling strengths and flip timescale of the telegraph model.

    The three couplings must be nonnegative and finite; a single shared
    flip timescale ``tau > 0`` is the only supported configuration (the
    damping-basis reduction to one scalar kernel needs it).
    """

    a: tuple[float, float, float]
    tau: float

    def __post_init__(self) -> None:
        a = tuple(float(x) for x in self.a)
        if len(a) != 3:
            raise ValueError(f"expected three coupling strengths, got {len(a)}")
        if not all(math.isfinite(x) and x >= 0.0 for x in a):
            raise ValueError(f"coupling strengths must be finite and >= 0, got {a}")
        tau = float(self.tau)
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"flip timescale must be finite and > 0, got {tau}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "tau", tau)

    @property
    def kappas(self) -> np.ndarray:
        """kappa_i = sqrt(a_j^2 + a_k^2) for distinct i, j, k."""
        return np.array(_kappas(self.a))

    @property
    def kappa_taus(self) -> np.ndarray:
        return self.kappas * self.tau

    @property
    def mu_squared(self) -> np.ndarray:
        """(4 kappa_i tau)^2 - 1; negative values mean imaginary frequency."""
        return (4.0 * self.kappa_taus) ** 2 - 1.0


def _kappas(a) -> tuple[float, float, float]:
    # math.sqrt is correctly rounded, as np.sqrt is: the same bits as an
    # array computation, without its per-call cost.
    a1, a2, a3 = a
    return (
        math.sqrt(a2 * a2 + a3 * a3),
        math.sqrt(a3 * a3 + a1 * a1),
        math.sqrt(a1 * a1 + a2 * a2),
    )


class Regime(enum.Enum):
    """Qualitative behaviour of one relaxation profile."""

    OVERDAMPED = "overdamped"
    CRITICAL = "critical"
    UNDERDAMPED = "underdamped"


def damping_spectrum(params: ModelParams) -> np.ndarray:
    """Eigenvalues (lambda_0, ..., lambda_3) of the dissipative generator.

    The eigenoperators are fixed:  {I, sigma_1, sigma_2, sigma_3}, which is
    a self-dual basis.  lambda_0 = 0 and lambda_i = -4 kappa_i^2.
    """
    k = params.kappas
    return np.concatenate([[0.0], -4.0 * k * k])


def classify_regime(params: ModelParams) -> tuple[Regime, Regime, Regime]:
    """Regime of each Bloch component, split at kappa_i * tau = 1/4."""
    out = []
    for kt in params.kappa_taus:
        if abs(kt - 0.25) <= CRITICAL_ATOL:
            out.append(Regime.CRITICAL)
        elif kt < 0.25:
            out.append(Regime.OVERDAMPED)
        else:
            out.append(Regime.UNDERDAMPED)
    return tuple(out)


def _nu_array(nu) -> np.ndarray:
    nu_arr = np.asarray(nu, dtype=float)
    if not ((nu_arr >= 0.0) & (nu_arr < math.inf)).all():
        raise ValueError("nu must be >= 0 and finite")
    return nu_arr


def _kappa_tau(value) -> float:
    kt = float(value)
    if not (math.isfinite(kt) and kt >= 0.0):
        raise ValueError(f"kappa*tau must be finite and >= 0, got {kt}")
    return kt


def _profiles(nu_arr: np.ndarray, kts) -> np.ndarray:
    # The closed form for each validated kappa*tau in kts on validated
    # nu_arr; shape (len(kts),) + nu_arr.shape (0-d nu_arr included).  Each
    # regime present is evaluated once for all of its components, their
    # constants a column against nu, so every component keeps the formula
    # (and the bits) of its own regime.
    out = np.empty((len(kts),) + nu_arr.shape)
    column = (-1,) + (1,) * nu_arr.ndim
    ones, series, ringing, damped = [], [], [], []
    for i, kt in enumerate(kts):
        musq = (4.0 * kt) ** 2 - 1.0
        if kt == 0.0:
            ones.append(i)
        elif abs(4.0 * kt - 1.0) < CRITICAL_SERIES_WINDOW:
            series.append((i, musq))
        elif musq > 0.0:
            ringing.append((i, math.sqrt(musq)))
        else:
            damped.append((i, math.sqrt(-musq)))
    if ones:
        out[ones] = 1.0
    if series or ringing:
        decay = np.exp(-nu_arr)
    if series:
        # Series around the critical point mu = 0:
        #   Lambda = e^-nu [(1 + nu) - mu^2 nu^2/2 (1 + nu/3) + O(mu^4)]
        # valid for mu^2 of either sign; truncation error < 1e-10 inside
        # the window.
        rows, musq = zip(*series)
        musq = np.array(musq).reshape(column)
        out[list(rows)] = decay * (
            (1.0 + nu_arr) - 0.5 * musq * nu_arr**2 * (1.0 + nu_arr / 3.0)
        )
    if ringing:
        rows, mu = zip(*ringing)
        mu = np.array(mu).reshape(column)
        # decay * (cos + sin / mu), in place to hold fewer full-size arrays
        phase = mu * nu_arr
        wave = np.sin(phase)
        wave /= mu
        wave += np.cos(phase, out=phase)
        wave *= decay
        out[list(rows)] = wave
    if damped:
        # Overdamped: e^-nu (cosh + sinh/mt) recast as a sum of two
        # decaying exponentials so large nu cannot overflow cosh.
        # Constants per component in floats: bitwise equal to the same
        # arithmetic on a column, and cheaper.
        rows, mts = zip(*damped)
        slow, fast, slow_rate, fast_rate = np.array(
            [
                (0.5 * (1.0 + 1.0 / mt), 0.5 * (1.0 - 1.0 / mt), -(1.0 - mt), -(1.0 + mt))
                for mt in mts
            ]
        ).T.reshape((4,) + column)
        out[list(rows)] = slow * np.exp(slow_rate * nu_arr) + fast * np.exp(fast_rate * nu_arr)
    np.copyto(out, 1.0, where=nu_arr == 0.0)
    return out


def relaxation_profile(nu, kappa_tau: float):
    """The Bloch relaxation profile Lambda(nu) for one component.

    Args:
        nu: dimensionless time t / (2 tau), scalar or array, >= 0.
        kappa_tau: the dimensionless fluctuation parameter kappa * tau >= 0.

    Returns:
        Lambda(nu), a float for scalar ``nu``, else an array of its shape.
        Lambda(0) = 1 exactly and |Lambda(nu)| <= 1 for all nu >= 0.
    """
    nu_arr = _nu_array(nu)
    out = _profiles(nu_arr, (_kappa_tau(kappa_tau),))[0]
    return float(out) if nu_arr.ndim == 0 else out


def relaxation_profiles(nu, params: ModelParams) -> np.ndarray:
    """The three component profiles in one array; shape (3,) + shape(nu).

    This is the one place the map (Lambda_1, Lambda_2, Lambda_3) is
    evaluated; propagation, xi and the Choi matrix all start from it.  One
    pass per regime covers every component in that regime.
    """
    kts = tuple(_kappa_tau(k * params.tau) for k in _kappas(params.a))
    return _profiles(_nu_array(nu), kts)


def propagate(rho0, nu: float, params: ModelParams) -> np.ndarray:
    """Evolve a density matrix to dimensionless time nu = t / (2 tau).

    Each Bloch component is scaled by its relaxation profile.  Trace and
    Hermiticity are preserved by construction; nu = 0 is the identity map.
    """
    b = linalg.density_to_bloch(rho0)
    return linalg.bloch_to_density(relaxation_profiles(float(nu), params) * b)


def propagate_time(rho0, t: float, params: ModelParams) -> np.ndarray:
    """Same as :func:`propagate` but takes physical time t."""
    return propagate(rho0, float(t) / (2.0 * params.tau), params)


def markov_rates(params: ModelParams) -> np.ndarray:
    """White-noise-limit decay rates gamma_i = 4 kappa_i^2 tau."""
    k = params.kappas
    return 4.0 * k * k * params.tau


def markov_propagate(rho0, t: float, params: ModelParams) -> np.ndarray:
    """Evolve under the white-noise (memoryless) limit of the model.

    Bloch components decay as exp(-gamma_i t) with gamma_i = 4 kappa_i^2
    tau; this is the limit tau -> 0 at fixed 2 a_i^2 tau of the full model.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be >= 0 and finite")
    b = linalg.density_to_bloch(rho0)
    return linalg.bloch_to_density(np.exp(-markov_rates(params) * float(t)) * b)
