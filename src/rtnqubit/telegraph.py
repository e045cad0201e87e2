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

:class:`ModelParams` derives each component's kappa_i, mu_i^2 and regime
once, and keeps their grouping by regime, built on first evaluation.
:func:`relaxation_profiles` evaluates each regime present in one pass for
all of its components, which keep their own formula's bits; a scalar nu
takes the same path as an array.  The same grouping also yields each
branch's envelope bound on |Lambda|, the one derivation the CP scan's
horizon, grid and mu* test read.

In the white-noise limit (tau -> 0 with 2 a^2 tau fixed) each component
decays as exp(-gamma_i t), with the rates gamma_i = 4 kappa_i^2 tau of
:func:`markov_rates`.
"""

from __future__ import annotations

import enum
import functools
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
    "markov_rates",
]

# |4*kappa*tau - 1| below which the closed form is evaluated by its series
# around the critical point, to avoid the 0/0 in sin(mu nu)/mu; such a
# component is in the CRITICAL regime.
CRITICAL_SERIES_WINDOW = 1e-6
# Root of (1 + v) exp(-v) = 1/3 on v > 1: the critical envelope's crossing.
_CRITICAL_CROSSING = 2.289281414562872
# Most Newton steps _envelope_end takes; it returns the least end seen by
# then (inf when none).
_END_STEPS = 12


class Regime(enum.Enum):
    """Qualitative behaviour of one relaxation profile."""

    OVERDAMPED = "overdamped"
    CRITICAL = "critical"
    UNDERDAMPED = "underdamped"


@dataclass(frozen=True)
class ModelParams:
    """Coupling strengths and flip timescale of the telegraph model.

    The couplings must be finite and >= 0 and every kappa_i, 4 kappa_i^2 and
    (4 kappa_i tau)^2 finite (up to about 1e153 at tau = 1); one shared flip
    timescale ``tau > 0`` is the only supported configuration (the
    damping-basis reduction to one scalar kernel needs it).  Each component's
    kappa_i, mu_i^2 and regime (see :func:`classify_regime`) are derived once,
    here, into the private table the profiles and the CP scan read; its
    grouping by regime is built on first evaluation and kept.
    """

    a: tuple[float, float, float]
    tau: float

    def __post_init__(self) -> None:
        a = tuple(map(float, self.a))
        if len(a) != 3:
            raise ValueError(f"expected three coupling strengths, got {len(a)}")
        a1, a2, a3 = a
        if not (0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf and 0.0 <= a3 < math.inf):
            raise ValueError(f"coupling strengths must be finite and >= 0, got {a}")
        tau = float(self.tau)
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"flip timescale must be finite and > 0, got {tau}")
        components = _table(a1, a2, a3, tau)
        if None in components:
            raise ValueError(f"a = {a} at tau = {tau} overflows 4 kappa_i^2 or (4 kappa_i tau)^2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "_components", components)

    @functools.cached_property
    def _plan(self) -> tuple:
        # The table's regime grouping (see _profile_plan), built on first
        # evaluation: construction stays as cheap as the table.
        return _profile_plan(self._components)

    @property
    def kappas(self) -> np.ndarray:
        """kappa_i = sqrt(a_j^2 + a_k^2) for distinct i, j, k."""
        return np.array([c[0] for c in self._components])

    @property
    def kappa_taus(self) -> np.ndarray:
        return self.kappas * self.tau

    @property
    def mu_squared(self) -> np.ndarray:
        """(4 kappa_i tau)^2 - 1; negative values mean imaginary frequency."""
        return np.array([c[1] for c in self._components])


def _table(a1: float, a2: float, a3: float, tau: float) -> tuple:
    # The component table of couplings a at tau, a row None where it
    # overflows.  kappa_i = sqrt(a_j^2 + a_k^2); math.sqrt is correctly
    # rounded, as np.sqrt is: the same bits as an array computation, and
    # cheaper.
    return (
        _component(math.sqrt(a2 * a2 + a3 * a3), tau),
        _component(math.sqrt(a3 * a3 + a1 * a1), tau),
        _component(math.sqrt(a1 * a1 + a2 * a2), tau),
    )


def _component(kappa: float, tau: float) -> tuple[float, float, Regime | None] | None:
    # Table row (kappa, mu^2, branch) of one component, branch None for a
    # constant profile; None where 4 kappa^2 or (4 kappa tau)^2 is not finite.
    # mu^2 is squared by **, not x * x: the profiles' bits need it.
    kt = kappa * tau
    try:
        musq = (4.0 * kt) ** 2 - 1.0
    except OverflowError:
        return None
    if not (musq < math.inf and 4.0 * kappa * kappa < math.inf):
        return None
    if kt == 0.0 or musq == -1.0:
        return kappa, musq, None
    if abs(4.0 * kt - 1.0) < CRITICAL_SERIES_WINDOW:
        return kappa, musq, Regime.CRITICAL
    return kappa, musq, Regime.UNDERDAMPED if musq > 0.0 else Regime.OVERDAMPED


def damping_spectrum(params: ModelParams) -> np.ndarray:
    """Eigenvalues (lambda_0, ..., lambda_3) of the dissipative generator.

    The eigenoperators are fixed:  {I, sigma_1, sigma_2, sigma_3}, which is
    a self-dual basis.  lambda_0 = 0 and lambda_i = -4 kappa_i^2.
    """
    k = params.kappas
    return np.concatenate([[0.0], -4.0 * k * k])


def classify_regime(params: ModelParams) -> tuple[Regime, Regime, Regime]:
    """Regime of each Bloch component: the closed form's branch for it.

    CRITICAL is the critical series (|4 kappa_i tau - 1| < 1e-6), UNDERDAMPED
    the ringing branch, OVERDAMPED the damped one and a constant profile.
    """
    return tuple(c[2] or Regime.OVERDAMPED for c in params._components)


def _nu_array(nu) -> np.ndarray:
    nu_arr = np.asarray(nu, dtype=float)
    if not (
        0.0 <= nu_arr.item() < math.inf
        if nu_arr.ndim == 0
        else ((nu_arr >= 0.0) & (nu_arr < math.inf)).all()
    ):
        raise ValueError("nu must be >= 0 and finite")
    return nu_arr


def _profile_plan(components) -> tuple:
    # The regime grouping of the regime-table rows in components, for
    # _profiles and _envelope: their count, then per branch its rows and its
    # constants as flat arrays, the smallest ringing mu^2 kept too (an empty
    # tuple for an absent branch).  ModelParams keeps its own; a CP scan
    # builds one and evaluates many point sets with it.
    series, ringing, damped = [], [], []  # branch None stays out: its rows are 1
    for i, (_, musq, branch) in enumerate(components):
        if branch is Regime.CRITICAL:
            series.append((i, musq))
        elif branch is Regime.UNDERDAMPED:
            ringing.append((i, math.sqrt(musq), musq))
        elif branch is Regime.OVERDAMPED:
            damped.append((i, math.sqrt(-musq)))
    if series:
        rows, musq = zip(*series)
        series = list(rows), np.array(musq)
    if ringing:
        rows, mu, musq = zip(*ringing)
        ringing = list(rows), np.array(mu), min(musq)
    if damped:
        # Constants per component in floats: bitwise equal to the same
        # arithmetic on a column, and cheaper.  The transpose is copied so
        # that a kept plan does not also keep its base.
        rows, mts = zip(*damped)
        damped = list(rows), np.array(
            [
                (0.5 * (1.0 + 1.0 / mt), 0.5 * (1.0 - 1.0 / mt), -(1.0 - mt), -(1.0 + mt))
                for mt in mts
            ]
        ).T.copy()
    return len(components), series or (), ringing or (), damped or ()


def _envelope(plan: tuple) -> tuple[float, float, float]:
    # (crossing, mu_max, amplitude) of a _profile_plan's rows.  By its
    # branch each profile obeys |Lambda_i(nu)| <= E_i(nu) with
    #     ringing:   E = exp(-nu) sqrt(1 + 1/mu^2)
    #     critical:  E = exp(-nu) (1 + nu), which mu^2 < 0 exceeds by < 1e-6
    #     damped:    E = slow exp(slow_rate nu), the closed form's slow term,
    # and a row of branch None (identically 1) has none.  Past crossing every
    # E_i < 1/3; mu_max is the largest real frequency and amplitude the
    # largest sqrt(1 + 1/mu^2), the smallest mu^2's (both 0 with no ringing).
    _, series, ringing, damped = plan
    crossing = _CRITICAL_CROSSING if series else 0.0
    mu_max = amplitude = 0.0
    if ringing:
        mu_max = max(ringing[1].tolist())
        amplitude = math.sqrt(1.0 + 1.0 / ringing[2])
        crossing = max(crossing, math.log(3.0 * amplitude))
    if damped:
        slow, _, slow_rate, _ = damped[1].tolist()
        crossing = max(crossing, *(math.log(3.0 * a) / -r for a, r in zip(slow, slow_rate)))
    return crossing, mu_max, amplitude


def _mu_max(components) -> float:
    # The largest real frequency of regime-table rows, as _envelope reads it
    # off their plan, without building one (0 with no ringing row).
    ringing = [musq for _, musq, branch in components if branch is Regime.UNDERDAMPED]
    return math.sqrt(max(ringing)) if ringing else 0.0


def _envelope_end(plan: tuple, level: float) -> float:
    # A nu past which sum_i E_i(nu) <= level, the E_i bounding the evaluated
    # profiles |Lambda_i| by branch, or inf where none is derived (a row of
    # branch None, identically 1, or level <= 0).  The E_i are _envelope's,
    # but for the critical series, whose mu^2 term _envelope leaves out:
    #     E = exp(-nu) [(1 + nu) + |mu^2| nu^2 (1 + nu/3) / 2].
    # When every profile is damped (so Lambda_i >= 0) the smallest E_i is
    # left out, since each sign row of xi gives one profile a + sign or all
    # three.  Every E_i, and so the sum, decreases in nu > 0.  The sum is
    # exp(-nu) P(nu), P a cubic, plus the damped terms; the end is
    # ln(P / level) when P is constant (all ringing), else the smallest nu
    # where the sum is seen <= level in Newton steps on ln(sum), from the
    # largest single term's end: a step from below overshoots by 1e-6 nu,
    # and one from above within that ends them.
    size, series, ringing, damped = plan
    rows = sum(len(branch[0]) for branch in (series, ringing, damped) if branch)
    if rows < size or not level > 0.0:
        return math.inf
    c0 = c1 = c2 = c3 = 0.0  # P's coefficients
    if ringing:
        c0 = sum(math.sqrt(1.0 + 1.0 / mu / mu) for mu in ringing[1].tolist())
    for musq in series[1].tolist() if series else ():
        c0, c1, c2, c3 = c0 + 1.0, c1 + 1.0, c2 + 0.5 * abs(musq), c3 + abs(musq) / 6.0
    if not (series or damped):
        return math.log(c0 / level)
    terms = list(zip(*damped[1][::2].tolist())) if damped else []  # (slow, slow_rate)
    spare = rows == len(terms)
    nu = max([math.log(a / level) / -r for a, r in terms] + ([math.log(c0 / level)] if c0 else []))
    end = math.inf
    for _ in range(_END_STEPS):
        decay = math.exp(-nu)
        total = decay * (c0 + nu * (c1 + nu * (c2 + nu * c3)))
        slope = decay * ((c1 - c0) + nu * ((2.0 * c2 - c1) + nu * (3.0 * c3 - c2 - nu * c3)))
        parts = [(a * math.exp(r * nu), r) for a, r in terms]
        if spare:
            parts.remove(min(parts))
        for part, rate in parts:
            total += part
            slope += rate * part
        step = math.log(total / level) * total / -slope if total else 0.0
        if total <= level:  # an end; step back toward the root
            end = nu
            if -step <= 1e-6 * nu:
                return end
            nu += step
        else:  # overshoot, so that a convex ln(sum) is passed
            nu += step + 1e-6 * nu
            if nu >= end:
                return end
    return end


def _profiles(nu_arr: np.ndarray, plan: tuple) -> np.ndarray:
    # The closed form for each row of a _profile_plan on nu_arr, which the
    # caller has validated; shape (rows,) + nu_arr.shape (0-d nu_arr
    # included).  Each branch present is evaluated once for all of its
    # components, their constants a column against nu, so every component
    # keeps the formula (and the bits) of its own branch.
    size, series, ringing, damped = plan
    blocks = []  # (rows, values) of each branch present
    column = (-1,) + (1,) * nu_arr.ndim
    if series or ringing:
        decay = np.exp(-nu_arr)
    if series:
        # Series around the critical point mu = 0:
        #   Lambda = e^-nu [(1 + nu) - mu^2 nu^2/2 (1 + nu/3) + O(mu^4)]
        # valid for mu^2 of either sign; truncation error < 1e-10 inside
        # the window.
        rows, musq = series
        values = decay * (
            (1.0 + nu_arr) - 0.5 * musq.reshape(column) * nu_arr**2 * (1.0 + nu_arr / 3.0)
        )
        blocks.append((rows, values))
    if ringing:
        rows, mu, _ = ringing
        mu = mu.reshape(column)
        # decay * (cos + sin / mu), in place to hold fewer full-size arrays
        phase = mu * nu_arr
        wave = np.sin(phase)
        wave /= mu
        wave += np.cos(phase, out=phase)
        wave *= decay
        blocks.append((rows, wave))
    if damped:
        # Overdamped: e^-nu (cosh + sinh/mt) recast as a sum of two
        # decaying exponentials so large nu cannot overflow cosh.
        rows, constants = damped
        slow, fast, slow_rate, fast_rate = constants.reshape((4,) + column)
        values = slow * np.exp(slow_rate * nu_arr) + fast * np.exp(fast_rate * nu_arr)
        # Lambda(0) = 1 exactly: of the three branches only this closed form
        # misses it (slow + fast rounds); ringing and series give 1 there.
        if nu_arr.ndim or nu_arr.item() == 0.0:  # no mask for a 0-d nu > 0
            np.copyto(values, 1.0, where=nu_arr == 0.0)
        blocks.append((rows, values))
    if len(blocks) == 1 and len(blocks[0][0]) == size:
        return blocks[0][1]  # one branch holds every row, in order
    out = np.ones((size,) + nu_arr.shape)  # rows of branch None stay 1
    for rows, values in blocks:
        out[rows] = values
    return out


def relaxation_profile(nu, kappa_tau: float):
    """The Bloch relaxation profile Lambda(nu) for one component.

    Args:
        nu: dimensionless time t / (2 tau), scalar or array, >= 0.
        kappa_tau: the dimensionless fluctuation parameter kappa * tau >= 0,
            with (4 kappa tau)^2 finite.

    Returns:
        Lambda(nu), a float for scalar ``nu``, else an array of its shape.
        Lambda(0) = 1 exactly and |Lambda(nu)| <= 1 for all nu >= 0.
    """
    nu_arr = _nu_array(nu)
    kt = float(kappa_tau)
    component = _component(kt, 1.0) if kt >= 0.0 else None  # kappa = kt at tau = 1
    if component is None:
        raise ValueError(f"kappa*tau must be >= 0 with (4 kappa*tau)^2 finite, got {kt}")
    out = _profiles(nu_arr, _profile_plan((component,)))[0]
    return float(out) if nu_arr.ndim == 0 else out


def relaxation_profiles(nu, params: ModelParams) -> np.ndarray:
    """The three component profiles in one array; shape (3,) + shape(nu).

    This is the one place the map (Lambda_1, Lambda_2, Lambda_3) is
    evaluated; propagation, xi and the Choi matrix all start from it.  One
    pass per regime covers every component in that regime.
    """
    return _profiles(_nu_array(nu), params._plan)


def propagate(rho0, nu: float, params: ModelParams) -> np.ndarray:
    """Evolve a density matrix to dimensionless time nu = t / (2 tau).

    Each Bloch component is scaled by its relaxation profile.  Trace and
    Hermiticity are preserved by construction; nu = 0 is the identity map.
    """
    b = linalg.density_to_bloch(rho0)
    return linalg.bloch_to_density(relaxation_profiles(float(nu), params) * b)


def markov_rates(params: ModelParams) -> np.ndarray:
    """White-noise-limit decay rates gamma_i = 4 kappa_i^2 tau."""
    k = params.kappas
    return 4.0 * k * k * params.tau
