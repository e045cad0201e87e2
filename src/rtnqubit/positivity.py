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

Along a ray of couplings the deepest interior dip m(a tau) of min_j xi is
positive on the CP side and negative past the boundary (the global minimum
is no use: xi_1..3(0) = 0, so it is flat at 0 on the CP side).  The search
starts at c*/kappa_min, near which every direction with two or more nonzero
couplings has its boundary (one-axis directions have none), and takes
Newton steps, safeguarded by bisection, toward m = -CP_TOLERANCE, where the
verdict flips; two scans delta = 1e-6 max(1, b) apart certify the result.

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
# The boundary search refines a positive dip until the dip bound proves it
# positive to this relative margin, so that its Newton steps see the dip's
# value, not the grid's.
_DIP_MARGIN = 1e-6
# Root c* of min over nu > 0 of [1 + Lambda(nu; c) - 2 exp(-nu)] = 0, touched
# at nu ~= 0.91558: the boundary search starts at c*/kappa_min.
_C_STAR = 0.7058598262632272

# With Lambda_0 = 1, the Choi matrix is sum_i Lambda_i T_i where
# T_i = sigma_i (x) conj(sigma_i) / 4 is the Pauli tensor of the Bell
# projector, stored flattened: row i holds the 16 entries of T_i.
_CHOI_PAULI_ROWS = np.stack(
    [0.25 * np.kron(linalg.pauli(i), linalg.pauli(i).conj()) for i in range(4)]
).reshape(4, 16)


def xi(nu, params: ModelParams) -> np.ndarray:
    """The four composite-map eigenvalues xi_j(nu); shape (4,) + shape(nu).

    Ordering: (xi_1, xi_2, xi_3, xi_4) as in the combination table above;
    the identity channel (nu = 0) gives (0, 0, 0, 1).  The components sum
    to 1 identically.
    """
    l1, l2, l3 = telegraph.relaxation_profiles(nu, params)
    out = np.empty((4,) + l1.shape)
    # Grouped so that degenerate profiles cancel exactly: with a single
    # coupling (dephasing) two profiles are bitwise equal and the third is
    # exactly 1, making xi_1 and xi_2 exact zeros rather than 1e-16 noise.
    edge, pair = 1.0 - l3, l1 - l2
    out[0] = edge + pair
    out[1] = edge - pair
    edge, pair = 1.0 + l3, l1 + l2
    out[2] = edge - pair
    out[3] = edge + pair
    out *= 0.25
    return out


def choi_matrix(params: ModelParams, nu: float) -> np.ndarray:
    """Apply the map to the first factor of the Bell projector.

    Returns the 4x4 Hermitian unit-trace matrix whose spectrum decides
    complete positivity; its sorted eigenvalues equal the sorted xi_j(nu).
    It is built from the profiles and the Pauli tensor alone, never from
    :func:`xi`, so the two stay independent routes to the same spectrum.
    """
    lams = np.concatenate(([1.0], telegraph.relaxation_profiles(float(nu), params)))
    return np.dot(lams, _CHOI_PAULI_ROWS).reshape(4, 4)


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
    So is a component with (4 kappa_i tau)^2 below half an ulp of 1
    (kappa_i tau < ~2e-9): mu^2 rounds to -1, mt to 1, and its profile
    evaluates to exactly 1.  Once every decaying envelope is below 1/3,
    all xi_j > 0; the returned horizon is that crossing time plus a unit
    margin.
    """
    horizon = 0.0
    for kt, musq in zip(params.kappa_taus, params.mu_squared):
        if kt == 0.0 or musq == -1.0:
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


def _dense_points(params: ModelParams, horizon: float) -> tuple[float, float]:
    # Oscillating profiles need a grid that resolves their period, but only
    # while their envelope exp(-nu) sqrt(1 + 1/mu^2) is large enough to dig
    # a xi minimum below anything resolvable: past
    # nu = log(envelope * 1e12) they sit under 1e-12 and the remaining
    # slow (overdamped) profiles are smooth, so a sparse tail suffices.
    # Returns that stretch's end and its uncapped point count, inf when the
    # frequency overflows; (horizon, 0) when nothing oscillates.
    musq = params.mu_squared
    real = musq[musq > 0.0]
    if real.size == 0:
        return horizon, 0.0
    mu_max = math.sqrt(float(np.max(real)))
    envelope = float(np.max(np.sqrt(1.0 + 1.0 / real)))
    osc_end = min(horizon, math.log(envelope * 1e12) + 1.0)
    return osc_end, _POINTS_PER_PERIOD * osc_end * mu_max / (2.0 * math.pi)


def _scan_grid(params: ModelParams, horizon: float) -> np.ndarray:
    osc_end, needed = _dense_points(params, horizon)
    if needed == math.inf:
        raise ValueError(f"cannot scan a = {params.a} at tau = {params.tau}: mu overflows")
    n_dense = min(max(_BASE_GRID_POINTS, math.ceil(needed)), _MAX_GRID_POINTS)
    dense = np.linspace(0.0, osc_end, n_dense)
    if osc_end >= horizon:
        return dense
    tail = np.linspace(osc_end, horizon, _BASE_GRID_POINTS)[1:]
    return np.concatenate([dense, tail])


def _scan(params: ModelParams, horizon: float, margin: float) -> tuple[float, int, float]:
    """The deepest dip of min_j xi on (0, horizon]: (value, j, nu).

    The running minimum starts at the lowest grid value if that is
    negative, the nu = horizon end included; otherwise at the lowest
    interior grid minimum (+inf when there is none), not at the nu = 0 end,
    where xi_1..3 vanish exactly.  A bracket is rescanned while its hidden
    dip is above machine epsilon, could lower the running minimum and
    exceeds ``margin`` times the bracket's lowest value.
    A negative bracket is therefore refined as far as the running minimum
    needs, and a positive one until the dip bound proves it positive to
    the relative ``margin``: :func:`is_cp` passes 1, which proves
    positivity and no more, the boundary search a tight margin, which
    makes the value accurate enough for its Newton steps.
    """
    nus = _scan_grid(params, horizon)
    table = xi(nus, params)
    dip = float(np.sum(params.kappa_taus**2))
    cells = np.diff(nus)
    hidden = dip * np.maximum(cells[:-1], cells[1:]) ** 2
    inner = table[:, 1:-1]
    rows, cols = np.nonzero(inner < np.minimum(table[:, :-2], table[:, 2:]))
    vals, gap = inner[rows, cols], hidden[cols]
    j, i = np.unravel_index(np.argmin(table), table.shape)
    worst_val, worst_j, worst_nu = float(table[j, i]), int(j), float(nus[i])
    if worst_val >= 0.0:
        worst_val, worst_j, worst_nu = math.inf, 0, 0.0
        if vals.size:
            b = int(np.argmin(vals))
            worst_val, worst_j, worst_nu = float(vals[b]), int(rows[b]), float(nus[cols[b] + 1])

    # Rescan a bracket while its hidden dip could lower the running minimum.
    keep = (vals - gap < worst_val) & (gap > margin * vals) & (gap > _EPS)
    rows, cols = rows[keep], cols[keep]
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
            keep = np.nonzero(
                (low - hidden < worst_val) & (hidden > margin * low) & (hidden > _EPS)
            )[0]
            m = np.clip(m[keep], 1, _REFINE_POINTS - 2)
            r, lo, hi = r[keep], pts[keep, m - 1], pts[keep, m + 1]
    return worst_val, worst_j, worst_nu


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
    value, j, nu = _scan(params, horizon, 1.0)
    if value < -CP_TOLERANCE:
        return CpVerdict(
            is_cp=False,
            witness=CpWitness(nu=nu, index=j + 1, value=value),
            horizon=horizon,
        )
    return CpVerdict(is_cp=True, witness=None, horizon=horizon)


def critical_flip_parameter(shape, tau: float) -> float | None:
    """Locate the CP boundary along a coupling direction, in units of a*tau.

    The direction is rescaled so its largest component is 1; the returned
    value b is the coupling times tau of that largest component (so shape
    (1, 1, 0) gives the a*tau ~= 0.8095 threshold).  It is certified by
    two scans: the map is CP at b and not CP at b + delta, with
    delta = 1e-6 max(1, b).

    The search is a safeguarded Newton iteration on m(a*tau), the deepest
    interior dip of min_j xi, which is positive on the CP side and negative
    past the boundary.  It starts at c*/kappa_min (kappa_min the smallest
    kappa_i tau of the rescaled direction at a*tau = 1; measured boundaries
    lie at 0.975 to 1.15 times it) and steps from the largest CP a*tau found
    toward m = -CP_TOLERANCE, with the slope of xi at the dip's witness (a
    central difference along the ray; by the envelope theorem that is the
    slope of m).  A step is capped at twice the CP end while no a*tau is
    known not CP, replaced by bisection when it leaves the [CP, not CP]
    bracket, and by the final scan at b + delta when below delta.

    None means one nonzero component (dephasing-type noise: no boundary, and
    no scan).  A start past the grid cap of _MAX_GRID_POINTS (kappa_min below
    about 1e-5, or 0 by underflow) raises ValueError before any scan.
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

    if np.count_nonzero(unit) == 1:
        # One coupling alone leaves two xi_j at 0 and two at (1 -+ Lambda)/2
        # with |Lambda| <= 1: no dip can cross.
        return None

    # kappa_i tau scales with a*tau, so the start is sized at tau = 1.
    kappa_min = float(np.min(ModelParams(a=tuple(unit), tau=1.0).kappa_taus))
    b = _C_STAR / kappa_min if kappa_min > 0.0 else math.inf
    start = ModelParams(a=tuple(unit * b), tau=1.0) if b < math.inf else None
    if start is None or _dense_points(start, scan_horizon(start))[1] > _MAX_GRID_POINTS:
        raise ValueError(
            f"direction {shape.tolist()}: start c*/kappa_min = {b:.6g} is past the grid cap"
        )

    def at(a_tau: float) -> ModelParams:
        return ModelParams(a=tuple(unit * (a_tau / tau)), tau=tau)

    def dip(a_tau: float) -> tuple[float, int, float]:
        params = at(a_tau)
        return _scan(params, scan_horizon(params), _DIP_MARGIN)

    def newton(a_tau: float, found: tuple[float, int, float]) -> float:
        # Where the tangent of m at a_tau reaches the verdict threshold
        # -CP_TOLERANCE; inf if it never does.
        value, j, nu = found
        if value == math.inf:
            return math.inf
        h = 1e-5 * a_tau
        slope = float(xi(nu, at(a_tau + h))[j] - xi(nu, at(a_tau - h))[j]) / (2.0 * h)
        return a_tau - (value + CP_TOLERANCE) / slope if slope < 0.0 else math.inf

    # a*tau = 0 is the identity map: CP, with no interior dip.
    lo, lo_dip, hi, final = 0.0, (math.inf, 0, 0.0), math.inf, False
    while True:
        found = dip(b)
        if found[0] >= -CP_TOLERANCE:
            lo, lo_dip = b, found
        elif final:
            return lo
        else:
            hi = b
        delta = 1e-6 * max(1.0, lo)
        b = min(newton(lo, lo_dip), 2.0 * lo if hi == math.inf else math.inf)
        if b >= hi:
            b = 0.5 * (lo + hi)
        final = b < lo + delta
        b = max(b, lo + delta)


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
