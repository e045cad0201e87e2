"""Complete-positivity analysis of the telegraph-noise qubit map.

The evolution scales Bloch component i by Lambda_i(nu), so the map is a
Pauli-diagonal channel.  Its action extended to half of a maximally
entangled pair is positive semidefinite exactly when the four linear
combinations

    4 xi_1 = 1 + L1 - L2 - L3        4 xi_2 = 1 - L1 + L2 - L3
    4 xi_3 = 1 - L1 - L2 + L3        4 xi_4 = 1 + L1 + L2 + L3

are all nonnegative; the xi_j are the eigenvalues of the composite-map
matrix built on the Bell projector, and they always sum to 1.  Complete
positivity of the map therefore reduces to

    min over nu >= 0 of min_j xi_j(nu) >= 0,

which this module decides by a finite scan: every profile obeys a
decaying envelope, so past a computable horizon all xi_j stay positive.
Before it, one vectorized pass refines the grid minima.  Since
Lambda' = -16 (kappa tau)^2 int_0^nu exp(-2 (nu - s)) Lambda(s) ds and
|Lambda| <= 1, |xi_j''| <= 8 sum_i (kappa_i tau)^2, so no dip deeper than
sum_i (kappa_i tau)^2 w^2 below a sampled minimum hides in its two cells (w
the wider one).  Brackets are rescanned only while such a dip, still above
machine epsilon, could lower the witness.  The bound does not yet cover a
dip away from a grid minimum, nor the nu = 0 end of the scan.

Empirically the (a, a, 0) family loses complete positivity at
a * tau ~= 0.8; a simple sufficient condition is that the largest real
oscillation frequency not exceed pi / ln 3 ~= 2.8596.  In the white-noise
limit the criterion degenerates to the triangle conditions
gamma_i <= gamma_j + gamma_k on the decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, telegraph
from .telegraph import ModelParams

__all__ = [
    "CP_TOLERANCE",
    "MU_STAR_BOUND",
    "CpWitness",
    "CpVerdict",
    "xi",
    "choi_matrix",
    "scan_horizon",
    "is_cp",
    "critical_flip_parameter",
    "sufficient_condition",
    "markov_cp_check",
]

# A refined minimum below -CP_TOLERANCE counts as a violation; values in
# [-CP_TOLERANCE, 0) are attributed to roundoff.
CP_TOLERANCE = 1e-10
# Largest real frequency for which the map is guaranteed completely
# positive at all times: pi / ln 3.
MU_STAR_BOUND = math.pi / math.log(3.0)

_BASE_GRID_POINTS = 2000
_MAX_GRID_POINTS = 2_000_000
_POINTS_PER_PERIOD = 20
# Refinement: points per bracket rescan, brackets per batch (memory), and the
# hidden dip at or below which a bracket is lost in the rounding of xi.
_REFINE_POINTS = 21
_REFINE_BATCH = 4096
_EPS = float(np.finfo(float).eps)
# Root of (1 + v) exp(-v) = 1/3 on v > 1: the critical envelope's crossing.
_CRITICAL_CROSSING = 2.289281414562872

# With Lambda_0 = 1, the Choi matrix is sum_i Lambda_i T_i where
# T_i = sigma_i (x) conj(sigma_i) / 4 is the Pauli tensor of the Bell projector.
_CHOI_PAULI_TENSOR = np.stack(
    [0.25 * np.kron(linalg.pauli(i), linalg.pauli(i).conj()) for i in range(4)]
)


def xi(nu, params: ModelParams) -> np.ndarray:
    """The four composite-map eigenvalues xi_j(nu); shape (4,) + shape(nu).

    Ordering: (xi_1, xi_2, xi_3, xi_4) as in the combination table above;
    the identity channel (nu = 0) gives (0, 0, 0, 1).  The components sum
    to 1 identically.
    """
    l1, l2, l3 = telegraph.relaxation_profiles(nu, params)
    # Grouped so that degenerate profiles cancel exactly: with a single
    # coupling (dephasing) two profiles are bitwise equal and the third is
    # exactly 1, making xi_1 and xi_2 exact zeros rather than 1e-16 noise.
    return np.stack(
        [
            0.25 * ((1.0 - l3) + (l1 - l2)),
            0.25 * ((1.0 - l3) - (l1 - l2)),
            0.25 * ((1.0 + l3) - (l1 + l2)),
            0.25 * ((1.0 + l3) + (l1 + l2)),
        ]
    )


def choi_matrix(params: ModelParams, nu: float) -> np.ndarray:
    """Apply the map to the first factor of the Bell projector.

    Returns the 4x4 Hermitian unit-trace matrix whose spectrum decides
    complete positivity; its sorted eigenvalues equal the sorted xi_j(nu).
    It is built from the profiles and the Pauli tensor alone, never from
    :func:`xi`, so the two stay independent routes to the same spectrum.
    """
    lams = np.concatenate(([1.0], telegraph.relaxation_profiles(float(nu), params)))
    return np.tensordot(lams, _CHOI_PAULI_TENSOR, axes=1)


@dataclass(frozen=True)
class CpWitness:
    """Location of the most negative xi value found by a scan."""

    nu: float
    index: int  # 1-based component index into (xi_1, ..., xi_4)
    value: float


@dataclass(frozen=True)
class CpVerdict:
    is_cp: bool
    witness: CpWitness | None
    horizon: float


def scan_horizon(params: ModelParams) -> float:
    """Time beyond which all xi_j are provably positive.

    Each decaying profile satisfies |Lambda_i(nu)| <= E_i(nu) with

        underdamped:  E = exp(-nu) sqrt(1 + 1/mu^2)
        critical:     E = exp(-nu) (1 + nu)
        overdamped:   E = (1 + 1/mt)/2 exp(-(1 - mt) nu),

    and components with kappa_i = 0 are identically 1 but then the two
    partner profiles coincide and cancel in the dangerous combinations.
    Once every decaying envelope is below 1/3, all xi_j > 0; the returned
    horizon is that crossing time plus a unit margin.
    """
    horizon = 0.0
    for kt, musq in zip(params.kappa_taus, params.mu_squared):
        if kt == 0.0:
            continue
        if abs(4.0 * kt - 1.0) < telegraph.CRITICAL_SERIES_WINDOW:
            cross = _CRITICAL_CROSSING
        elif musq > 0.0:
            cross = math.log(3.0 * math.sqrt(1.0 + 1.0 / musq))
        else:
            mt = math.sqrt(-musq)
            cross = math.log(3.0 * (1.0 + 1.0 / mt) / 2.0) / (1.0 - mt)
        horizon = max(horizon, cross)
    return horizon + 1.0


def _scan_grid(params: ModelParams, horizon: float) -> np.ndarray:
    # Oscillating profiles need a grid that resolves their period, but only
    # while their envelope exp(-nu) sqrt(1 + 1/mu^2) is large enough to dig
    # a xi minimum below anything resolvable: past
    # nu = log(envelope * 1e12) they sit under 1e-12 and the remaining
    # slow (overdamped) profiles are smooth, so a sparse tail suffices.
    musq = params.mu_squared
    real = musq[musq > 0.0]
    if real.size == 0:
        return np.linspace(0.0, horizon, _BASE_GRID_POINTS)
    mu_max = math.sqrt(float(np.max(real)))
    envelope = float(np.max(np.sqrt(1.0 + 1.0 / real)))
    osc_end = min(horizon, math.log(envelope * 1e12) + 1.0)
    needed = int(math.ceil(_POINTS_PER_PERIOD * osc_end * mu_max / (2.0 * math.pi)))
    n_dense = min(max(_BASE_GRID_POINTS, needed), _MAX_GRID_POINTS)
    dense = np.linspace(0.0, osc_end, n_dense)
    if osc_end >= horizon:
        return dense
    tail = np.linspace(osc_end, horizon, _BASE_GRID_POINTS)[1:]
    return np.concatenate([dense, tail])


def is_cp(params: ModelParams, nu_max: float | None = None) -> CpVerdict:
    """Decide complete positivity of the map with parameters ``params``.

    Scans all four xi_j over nu in [0, horizon], then rescans the two cells
    around each interior grid minimum, and in turn around each rescan's
    lowest point, while the dip bound of the module docstring leaves room
    there for a value below the worst one found.  The verdict is negative
    exactly when the worst value found lies below -CP_TOLERANCE; the
    witness then records that value and the nu it was evaluated at.

    The default horizon comes from :func:`scan_horizon` and certifies the
    infinite-time statement; passing ``nu_max`` restricts the scan.
    """
    horizon = float(nu_max) if nu_max is not None else scan_horizon(params)
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"scan horizon must be finite and > 0, got {horizon}")
    nus = _scan_grid(params, horizon)
    table = xi(nus, params)
    j, i = np.unravel_index(np.argmin(table), table.shape)
    worst_val, worst_j, worst_nu = float(table[j, i]), int(j), float(nus[i])

    # Rescan a bracket while its hidden dip could lower the witness.
    dip = float(np.sum(params.kappa_taus**2))
    cells = np.diff(nus)
    hidden = dip * np.maximum(cells[:-1], cells[1:]) ** 2
    inner = table[:, 1:-1]
    rows, cols = np.nonzero(
        (inner < np.minimum(table[:, :-2], table[:, 2:]))
        & (inner - hidden < worst_val)
        & (hidden > _EPS)
    )
    for start in range(0, rows.size, _REFINE_BATCH):
        r, c = rows[start : start + _REFINE_BATCH], cols[start : start + _REFINE_BATCH]
        lo, hi = nus[c], nus[c + 2]
        while r.size:
            pts, k = np.linspace(lo, hi, _REFINE_POINTS, axis=1), np.arange(r.size)
            vals = xi(pts, params)[r, k]
            m = np.argmin(vals, axis=1)
            low = vals[k, m]
            b = int(np.argmin(low))
            if low[b] < worst_val:
                worst_val, worst_j, worst_nu = float(low[b]), int(r[b]), float(pts[b, m[b]])
            hidden = dip * ((hi - lo) / (_REFINE_POINTS - 1)) ** 2
            keep = np.nonzero((low - hidden < worst_val) & (hidden > _EPS))[0]
            m = np.clip(m[keep], 1, _REFINE_POINTS - 2)
            r, lo, hi = r[keep], pts[keep, m - 1], pts[keep, m + 1]

    if worst_val < -CP_TOLERANCE:
        return CpVerdict(
            is_cp=False,
            witness=CpWitness(nu=worst_nu, index=worst_j + 1, value=worst_val),
            horizon=horizon,
        )
    return CpVerdict(is_cp=True, witness=None, horizon=horizon)


def critical_flip_parameter(shape, tau: float) -> float | None:
    """Locate the CP boundary along a coupling direction, in units of a*tau.

    The direction is rescaled so its largest component is 1; the returned
    value is the boundary coupling times tau for that largest component
    (so shape (1, 1, 0) reproduces the a*tau ~= 0.8 threshold), to within
    1e-3.  Bisection starts from a*tau in [0.01, 10], whose lower end is CP
    (all profiles are damped there: kappa_i tau <= sqrt(2)/100 < 1/4), and
    expands the upper end a decade at a time; a map that stays CP up to
    a*tau = 1e4 (dephasing-type) has no boundary, and None is returned.
    """
    shape = np.asarray(shape, dtype=float)
    if shape.shape != (3,) or not np.all(np.isfinite(shape)) or np.any(shape < 0):
        raise ValueError("direction must be three finite nonnegative numbers")
    peak = float(np.max(shape))
    if peak == 0.0:
        raise ValueError("direction must have at least one nonzero component")
    unit = shape / peak
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"flip timescale must be finite and > 0, got {tau}")

    def cp_at(a_tau: float) -> bool:
        return is_cp(ModelParams(a=tuple(unit * (a_tau / tau)), tau=tau)).is_cp

    lo, hi = 0.01, 10.0
    while cp_at(hi):
        hi *= 10.0
        if hi > 1e4:
            return None
    if hi > 10.0:
        lo = hi / 10.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if cp_at(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sufficient_condition(params: ModelParams) -> bool:
    """True when max real frequency mu_i <= pi / ln 3 (CP guaranteed).

    Components in the damping regime (imaginary frequency) satisfy the
    condition trivially.  This is one-sided: a False return does not by
    itself prove loss of complete positivity.
    """
    musq = params.mu_squared
    real = musq[musq > 0.0]
    if real.size == 0:
        return True
    return math.sqrt(float(np.max(real))) <= MU_STAR_BOUND


def markov_cp_check(gammas) -> bool:
    """Triangle conditions gamma_i <= gamma_j + gamma_k on white-noise rates.

    Rates produced by :func:`rtnqubit.telegraph.markov_rates` satisfy them
    identically (gamma_j + gamma_k - gamma_i = 8 a_i^2 tau >= 0); a small
    relative slack absorbs roundoff in that borderline equality case.
    """
    g = np.asarray(gammas, dtype=float)
    if g.shape != (3,) or not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("expected three finite nonnegative rates")
    slack = 1e-12 * float(np.sum(g))
    return bool(
        g[0] <= g[1] + g[2] + slack
        and g[1] <= g[2] + g[0] + slack
        and g[2] <= g[0] + g[1] + slack
    )
