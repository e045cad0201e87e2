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
Before it, one vectorized pass refines the grid minima.  Every scan has one
entry, and a scan whose CP verdict ends its caller's question (every is_cp
scan, and a boundary-search scan at b once hi <= b + delta, below) samples
the grid only up to the first point past nu_e, where the envelopes of the
evaluated profiles sum below 1 - 4 pad, pad being the largest hidden dip of
a grid cell (below): 4 xi_j >= 1 - sum_i |Lambda_i|, so past nu_e every
xi_j > pad, and no grid minimum there is rescanned or is negative.  Its
verdict, and any negative witness, are therefore the whole grid's, at
about half its points.  The boundary search's other scans sample the whole
grid: the positive dip they track may lie past nu_e.  With one nonzero
coupling is_cp scans nothing: two xi_j are exactly 0 and two are
(1 -+ Lambda)/2 >= 0.  Since
Lambda' = -16 (kappa tau)^2 int_0^nu exp(-2 (nu - s)) Lambda(s) ds and
|Lambda| <= 1, |xi_j''| <= 8 sum_i (kappa_i tau)^2, so no dip deeper than
sum_i (kappa_i tau)^2 w^2 below a sampled minimum hides in its two cells (w
the wider one).  Brackets are rescanned only while such a dip, still above
machine epsilon, could lower the witness.  A rescan samples a lone bracket
at 201 points, so that it shrinks 100-fold per round, and many at 21 each,
and evaluates only each bracket's own xi row.
The bound does not yet cover a dip away from a grid minimum, nor the nu = 0
end of the scan.

Along a ray of couplings the deepest interior dip m(a tau) of min_j xi is
positive on the CP side and negative past the boundary (the global minimum
is no use: xi_1..3(0) = 0, so it is flat at 0 on the CP side).  The search
starts at c*/kappa_min, near which every direction with two or more nonzero
couplings has its boundary (one-axis directions have none).  One scan
there finds a dip; Newton steps on that one dip, each reading xi_j on a
3 x 3 stencil in (nu, a tau), solve xi_j = -CP_TOLERANCE, d xi_j / d nu = 0
for the a tau where it touches the verdict threshold.  The result b, just
below that, is certified to delta = 1e-6 max(1, b): one scan proves the map
CP at b, and a closed-form xi_j value below -CP_TOLERANCE at the dip proves
it not CP at b + delta.  Every scan's witness gets its own solve; where a
solve fails, the next scan bisects the bracket of scanned a*tau instead.

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
# hidden dip at or below which a bracket is lost in the rounding of xi.  A
# round of k brackets rescans each at max(21, 201 // k) points: 201 for one
# bracket, which shrinks it 100-fold where 21 points shrink it 10-fold, and
# 21 from 10 brackets on, so a round never holds more than 4096 x 21 points.
_REFINE_POINTS = 21
_REFINE_POINTS_FEW = 201
_REFINE_BATCH = 4096
_EPS = float(np.finfo(float).eps)
# Root c* of min over nu > 0 of [1 + Lambda(nu; c) - 2 exp(-nu)] = 0, touched
# at nu ~= 0.91558: the boundary search starts at c*/kappa_min.
_C_STAR = 0.7058598262632272
# Most stencil steps a tangency solve takes before the boundary search
# bisects instead.
_TANGENCY_STEPS = 8
# Bound on a grid cell over its nominal step, for the rounding of the grid.
_STEP_SLACK = 1.0 + 1e-6

# (s_j, o_j) of each xi row j, as two columns: the combination table above,
# with 4 xi_j = (1 + s_j L3) + o_j (L1 + s_j L2), for _combine's row form.
_XI_SIGNS = np.array(((-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0))).T

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
    return _combine(telegraph.relaxation_profiles(nu, params))


def _combine(profiles: np.ndarray, rows=None) -> np.ndarray:
    # xi from the stacked profiles (Lambda_1, Lambda_2, Lambda_3): every row,
    # or with rows (an index array, or an int) only xi row rows[k] along the
    # profiles' next axis.  Grouped so that degenerate profiles cancel
    # exactly: with a single coupling (dephasing) two profiles are bitwise
    # equal and the third is exactly 1, making xi_1 and xi_2 exact zeros
    # rather than 1e-16 noise.  The row form adds s L where the table
    # subtracts L (s = -1), which gives each value the same bits.
    l1, l2, l3 = profiles
    if rows is None:
        out = np.empty((4,) + l1.shape)
        edge, pair = 1.0 - l3, l1 - l2
        out[0] = edge + pair
        out[1] = edge - pair
        edge, pair = 1.0 + l3, l1 + l2
        out[2] = edge - pair
        out[3] = edge + pair
        out *= 0.25
        return out
    s, o = _XI_SIGNS[:, rows, None]
    out = s * l3
    out += 1.0
    pair = s * l2
    pair += l1
    pair *= o
    out += pair
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

    Past the crossing of the envelope bounds :mod:`rtnqubit.telegraph`
    derives per branch, every decaying |Lambda_i| is below 1/3 (a critical
    one with mu_i^2 < 0 from 1e-5 past it), so all xi_j > 0; a profile
    evaluated as identically 1 has no envelope, but its two partner profiles
    cancel in the dangerous combinations.  The horizon is that crossing plus
    a unit margin.
    """
    return _bounds(params)[2]


def _bounds(params: ModelParams, nu_max: float | None = None) -> tuple:
    # (plan, mu_max, horizon, osc_end, needed) of a scan of params, read off
    # telegraph._envelope: the profile plan, the largest real frequency, the
    # horizon (nu_max, or scan_horizon's), and the end of the stretch whose
    # grid resolves the fastest period with its uncapped point count.
    # Underdamped profiles need that stretch only while their envelope
    # exp(-nu) amplitude is large enough to dig a xi minimum below anything
    # resolvable: past nu = log(amplitude * 1e12) they sit under 1e-12 and
    # the remaining profiles are smooth, so a sparse tail suffices.  With no
    # underdamped profile the stretch is (horizon, 0).
    plan = params._plan
    crossing, mu_max, amplitude = telegraph._envelope(plan)
    horizon = crossing + 1.0 if nu_max is None else float(nu_max)
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"scan horizon must be finite and > 0, got {horizon}")
    osc_end, needed = horizon, 0.0
    if mu_max:
        osc_end = min(horizon, math.log(amplitude * 1e12) + 1.0)
        needed = _POINTS_PER_PERIOD * osc_end * mu_max / (2.0 * math.pi)
    return plan, mu_max, horizon, osc_end, needed


def _dense_points(needed: float) -> int:
    # The point count of a scan grid's dense stretch.
    return min(max(_BASE_GRID_POINTS, math.ceil(needed)), _MAX_GRID_POINTS)


def _scan_grid(horizon: float, osc_end: float, needed: float, end: float = math.inf) -> np.ndarray:
    # The scan grid, or its prefix through its first point at or past end.
    n_dense = _dense_points(needed)
    dense = _linspace_prefix(0.0, osc_end, n_dense, end)
    if osc_end >= horizon or dense.size < n_dense:
        return dense
    tail = _linspace_prefix(osc_end, horizon, _BASE_GRID_POINTS, end)[1:]
    return np.concatenate([dense, tail])


def _linspace_prefix(start: float, stop: float, num: int, end: float) -> np.ndarray:
    # np.linspace(start, stop, num) through its first point at or past end,
    # by linspace's own arithmetic: point i is i * step + start.
    step = (stop - start) / (num - 1)
    if end >= stop or step == 0.0:
        return np.linspace(start, stop, num)
    i = max(math.ceil((end - start) / step), 0)
    while i > 0 and (i - 1) * step + start >= end:
        i -= 1
    while i * step + start < end:
        i += 1
    if i >= num - 1:
        return np.linspace(start, stop, num)
    points = np.arange(i + 1.0)
    points *= step
    points += start
    return points


def _cp_end(plan: tuple, dip: float, horizon: float, osc_end: float, needed: float) -> float:
    """Where is_cp may stop sampling: a nu past which every xi_j > pad.

    pad = dip h^2 is the largest hidden dip of a grid cell (h the wider of
    the dense and the tail step), so no grid minimum past this nu can pass
    the rescan test gap > value.  Since 4 xi_j >= 1 - sum_i E_i with E_i the
    envelope of |Lambda_i| (telegraph._envelope_end), the end is where that
    sum falls to 1 - 4 pad, less 1e-9 for the rounding of the profiles and
    the steps; inf where no such nu is derived or it lies past the horizon.
    """
    h = max(osc_end / (_dense_points(needed) - 1), (horizon - osc_end) / (_BASE_GRID_POINTS - 1))
    h *= _STEP_SLACK  # squared as a product: a float ** 2 raises past 1e154
    end = telegraph._envelope_end(plan, 1.0 - 4.0 * dip * (h * h) - 1e-9)
    return end if end < horizon else math.inf


def _dip(params: ModelParams) -> float:
    # sum_i (kappa_i tau)^2, the dip bound's constant, read off the table in
    # the order and with the bits of np.sum(params.kappa_taus**2)
    k1, k2, k3 = (c[0] * params.tau for c in params._components)
    return (k1 * k1 + k2 * k2) + k3 * k3


def _scan(params: ModelParams, nu_max: float | None, cut: bool) -> tuple[float, int, float, float]:
    """The deepest dip of min_j xi on (0, horizon]: (value, j, nu, horizon).

    The horizon is nu_max, or :func:`scan_horizon`'s when nu_max is None.
    The running minimum starts at the lowest grid value if that is
    negative, the nu = horizon end included; otherwise at the lowest
    interior grid minimum (+inf when there is none), not at the nu = 0 end,
    where xi_1..3 vanish exactly.  A bracket is rescanned while its hidden
    dip is above machine epsilon, could lower the running minimum and
    exceeds the bracket's lowest value.  A negative bracket is therefore
    refined as far as the running minimum needs, and a positive one until
    the dip bound proves it positive, and no further.

    With cut, for a caller whose question a CP verdict ends, the grid is
    sampled only through its first point at or past _cp_end: the result is
    the same wherever its value is negative, and otherwise only a value
    >= 0.
    """
    plan, _, horizon, osc_end, needed = _bounds(params, nu_max)
    dip = _dip(params)
    end = _cp_end(plan, dip, horizon, osc_end, needed) if cut else math.inf
    nus = _scan_grid(horizon, osc_end, needed, end)
    table = _combine(telegraph._profiles(nus, plan))
    inner = table[:, 1:-1]
    rows, cols = np.nonzero(inner < np.minimum(table[:, :-2], table[:, 2:]))
    # each interior minimum's hidden dip, over the wider of its two cells
    left, mid, right = nus[cols], nus[cols + 1], nus[cols + 2]
    vals, gap = inner[rows, cols], dip * np.maximum(mid - left, right - mid) ** 2
    j, i = np.unravel_index(np.argmin(table), table.shape)
    worst = float(table[j, i]), int(j), float(nus[i])
    if worst[0] >= 0.0:
        worst = math.inf, 0, 0.0
        if vals.size:
            b = int(np.argmin(vals))
            worst = float(vals[b]), int(rows[b]), float(mid[b])

    # Rescan a bracket while its hidden dip could lower the running minimum.
    keep = (vals - gap < worst[0]) & (gap > vals) & (gap > _EPS)
    rows, left, right = rows[keep], left[keep], right[keep]
    for start in range(0, rows.size, _REFINE_BATCH):
        batch = slice(start, start + _REFINE_BATCH)
        worst = _refine(plan, dip, worst, rows[batch], left[batch], right[batch])
    return (*worst, horizon)


def _refine(plan: tuple, dip: float, worst: tuple, r, lo, hi) -> tuple:
    # Rescan each bracket [lo, hi] of xi row r, then the two cells around
    # its lowest point, while its hidden dip could lower the running minimum
    # worst = (value, j, nu); returns the final worst.  A round evaluates
    # only each bracket's own row; a lone bracket goes to _refine_one.
    worst_val = worst[0]
    while r.size > 1:
        n = max(_REFINE_POINTS, _REFINE_POINTS_FEW // r.size)
        pts, step = _rescan_points(lo, hi, n)
        vals = _combine(telegraph._profiles(pts, plan), r)
        m = vals.argmin(axis=1)
        low = vals[np.arange(r.size), m]
        b = low.argmin()
        if low[b] < worst_val:
            worst_val = float(low[b])
            worst = worst_val, int(r[b]), float(pts[b, m[b]])
        hidden = dip * step**2  # each bracket's cell is its step
        keep = ((low - hidden < worst_val) & (hidden > low) & (hidden > _EPS)).nonzero()[0]
        m = np.minimum(np.maximum(m[keep], 1), n - 2)
        r, lo, hi = r[keep], pts[keep, m - 1], pts[keep, m + 1]
    if r.size:
        worst = _refine_one(plan, dip, worst, int(r[0]), float(lo[0]), float(hi[0]))
    return worst


def _refine_one(plan: tuple, dip: float, worst: tuple, j: int, lo: float, hi: float) -> tuple:
    # _refine's rounds for one bracket, on floats: the same points (those of
    # _rescan_points), values and witness, at a third of the array calls of
    # a round of _refine; nearly every round of a scan has one bracket.
    div = _REFINE_POINTS_FEW - 1
    ticks = np.arange(float(_REFINE_POINTS_FEW))
    while True:
        step = (hi - lo) / div
        pts = ticks * step if step else ticks / div * (hi - lo)
        pts += lo
        pts[-1] = hi
        vals = _combine(telegraph._profiles(pts, plan), j)
        m = int(vals.argmin())
        low = float(vals[m])
        if low < worst[0]:
            worst = low, j, float(pts[m])
        hidden = dip * (step * step)  # the bracket's cell is its step
        if not (low - hidden < worst[0] and hidden > low and hidden > _EPS):
            return worst
        m = min(max(m, 1), div - 1)
        lo, hi = float(pts[m - 1]), float(pts[m + 1])


def _rescan_points(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # np.linspace(lo, hi, n, axis=1) and its step (hi - lo) / (n - 1), with
    # linspace's own arithmetic: i * step + lo and the last point hi, or,
    # when any step is 0 (underflow), i / (n - 1) * (hi - lo) + lo for every
    # row alike.
    div = n - 1
    delta = hi - lo
    step = delta / div
    ticks = np.arange(float(n))
    if np.count_nonzero(step) == step.size:
        pts = ticks * step[:, None]
    else:
        ticks /= div
        pts = ticks * delta[:, None]
    pts += lo[:, None]
    pts[:, -1] = hi
    return pts, step


def is_cp(params: ModelParams, nu_max: float | None = None) -> CpVerdict:
    """Decide complete positivity of the map with parameters ``params``.

    Scans all four xi_j over nu in [0, horizon], then rescans the two cells
    around each interior grid minimum, and in turn around each rescan's
    lowest point, while the dip bound of the module docstring leaves room
    there for a value below the worst one found.  A round of k brackets
    rescans each at max(21, 201 // k) points.  The verdict is negative
    exactly when the worst value found lies below -CP_TOLERANCE; the
    witness then records that value and the nu it was evaluated at.  The
    grid is sampled up to the envelope end nu_e of the module docstring,
    past which no xi_j can change either; a map with one nonzero coupling
    is CP with no scan.

    The default horizon comes from :func:`scan_horizon` and certifies the
    infinite-time statement; passing ``nu_max`` restricts the scan.
    """
    if sum(1 for a in params.a if a) == 1:
        # two xi_j are exactly 0 and two are (1 -+ Lambda)/2 >= 0
        return CpVerdict(is_cp=True, witness=None, horizon=_bounds(params, nu_max)[2])
    value, j, nu, horizon = _scan(params, nu_max, True)
    witness = CpWitness(nu=nu, index=j + 1, value=value) if value < -CP_TOLERANCE else None
    return CpVerdict(is_cp=witness is None, witness=witness, horizon=horizon)


def _tangency(unit, s: float, j: int, nu: float) -> tuple[float, float, float] | None:
    """Where the dip of xi_j near nu first reaches -CP_TOLERANCE along the ray.

    Newton steps on (xi_j + CP_TOLERANCE, d xi_j / d nu) = 0 in (nu, a*tau),
    from (nu, s), along the couplings unit * a*tau at tau = 1.  Each step
    reads one profile evaluation on a 3 x 3 stencil, its component rows
    built as ModelParams builds them: nu -+ 1e-3 w, with
    w = min(nu, 1/mu_max) so that it resolves the fastest period, and
    a*tau -+ 1e-5 a*tau w / nu, which moves that period's phase at nu as
    little.  Returns (a*tau, nu, d nu / d a*tau along the dip) once a step
    moves a*tau by at most 1e-5 max(1, a*tau) and nu by at most a stencil
    width; None when a step finds the dip not convex or not deepening along
    the ray, moves a*tau by over half of itself or nu by over w, or
    _TANGENCY_STEPS steps do not converge.
    """

    def table(a_tau: float) -> tuple:
        return telegraph._table(*(u * a_tau for u in unit), 1.0)

    for _ in range(_TANGENCY_STEPS):
        center = table(s)
        mu_max = telegraph._mu_max(center)
        width = min(nu, 1.0 / mu_max) if mu_max else nu
        hn, ha = 1e-3 * width, 1e-5 * s * (width / nu)
        rows = table(s - ha) + center + table(s + ha)
        grid = telegraph._profiles(np.array([nu - hn, nu, nu + hn]), telegraph._profile_plan(rows))
        # rows a*tau - ha, a*tau, a*tau + ha; columns nu - hn, nu, nu + hn
        low, mid, high = _combine(grid.reshape(3, 3, 3).swapaxes(0, 1), j).tolist()
        value = mid[1] + CP_TOLERANCE
        f_n = (mid[2] - mid[0]) / (2.0 * hn)
        f_nn = (mid[2] - 2.0 * mid[1] + mid[0]) / (hn * hn)
        f_s = (high[1] - low[1]) / (2.0 * ha)
        f_ns = (high[2] - high[0] - low[2] + low[0]) / (4.0 * hn * ha)
        det = f_n * f_ns - f_s * f_nn
        if not (f_nn > 0.0 and f_s < 0.0 and det != 0.0):
            return None
        d_nu = (f_s * f_n - value * f_ns) / det
        d_s = (value * f_nn - f_n * f_n) / det
        if not (abs(d_s) <= 0.5 * s and abs(d_nu) <= width):
            return None
        s, nu = s + d_s, nu + d_nu
        if abs(d_s) <= 1e-5 * max(1.0, s) and abs(d_nu) <= hn:
            return s, nu, -f_ns / f_nn
    return None


def critical_flip_parameter(shape, tau: float) -> float | None:
    """Locate the CP boundary along a coupling direction, in units of a*tau.

    The direction is rescaled so its largest component is 1; the returned
    value b is the coupling times tau of that largest component (so shape
    (1, 1, 0) gives the a*tau ~= 0.8095 threshold).  xi depends on a and tau
    only through a*tau, so every scan is at tau = 1 and ``tau`` is only
    validated.  b is certified to delta = 1e-6 max(1, b): the map is CP at b
    and not CP at b + delta.

    The search starts with one scan at c*/kappa_min (kappa_min the smallest
    kappa_i tau of the rescaled direction at a*tau = 1; measured boundaries
    lie at 0.975 to 1.15 times it).  Each scan raises lo, the largest a*tau
    proved CP, or lowers hi, the smallest shown not CP.  Newton steps in
    (nu, a*tau) on its witness's dip alone, without a scan, find the a*tau s
    where that dip touches -CP_TOLERANCE (a local minimum of xi_j in nu with
    that value); the step goes to b = s - delta/2, or stays at lo above it.
    xi_j below -CP_TOLERANCE at b + delta, at the dip's nu carried along the
    ray, shows the map not CP there, the evidence an is_cp verdict rests on,
    and the next scan is at b: CP there ends the search, and otherwise hi
    drops to b.  A solve that fails (see _tangency) or whose xi value shows
    nothing leaves the next scan to bisection, at (lo + hi)/2, or at 2 lo
    while hi is unknown.  The search returns lo once hi <= lo + delta, which
    the start alone reaches on far rays; measured searches take 1 to 3 scans.
    A scan at b once hi <= b + delta(b), where CP ends the search (so the
    scan at a tangency step), samples the grid only up to the envelope end
    nu_e, as is_cp does: its verdict and any negative witness are the whole
    grid's.  The other scans sample the whole grid, since the positive dip
    the next solve tracks may lie past nu_e.

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

    def at(a_tau: float) -> ModelParams:
        return ModelParams(a=tuple(unit * a_tau), tau=1.0)

    kappa_min = float(np.min(at(1.0).kappa_taus))
    b = _C_STAR / kappa_min if kappa_min > 0.0 else math.inf
    try:  # the start as unit couplings at tau = b, which refuses b = inf too
        start = ModelParams(a=tuple(unit), tau=b)
        fits = _bounds(start)[4] <= _MAX_GRID_POINTS
    except ValueError:  # b past the domain of ModelParams
        fits = False
    if not fits:
        raise ValueError(
            f"direction {shape.tolist()}: start c*/kappa_min = {b:.6g} is past the grid cap"
        )

    # lo is the largest a*tau a scan proved CP (a*tau = 0 is the identity
    # map: CP, with no interior dip), hi the smallest shown not CP.
    lo, hi = 0.0, math.inf
    while True:
        # a scan whose CP verdict would end the search may stop at _cp_end
        value, j, nu, _ = _scan(at(b), None, hi <= b + 1e-6 * max(1.0, b))
        if value >= -CP_TOLERANCE:
            lo = b
        else:
            hi = b
        delta = 1e-6 * max(1.0, lo)
        if hi <= lo + delta:
            return lo
        tangent = _tangency(unit.tolist(), b, j, nu) if nu > 0.0 else None
        if tangent is not None:
            # Step to just below the crossing s; certify not CP delta above.
            s, nu, drift = tangent
            step = max(lo, s - 0.5e-6 * max(1.0, s))
            above = step + 1e-6 * max(1.0, step)
            if above < hi and xi(nu + drift * (above - s), at(above))[j] < -CP_TOLERANCE:
                hi = above
            if hi <= lo + delta:  # the step stayed at lo, which a scan proved CP
                return lo
            if step < hi <= above:
                b = step
                continue
        # No certified step: bisect, or double while no a*tau is known not CP.
        b = max(0.5 * (lo + hi) if hi < math.inf else 2.0 * lo, lo + delta)


def sufficient_condition(params: ModelParams) -> bool:
    """True when max real frequency mu_i <= pi / ln 3 (CP guaranteed).

    Only underdamped components have a real frequency; the others satisfy
    the condition trivially.  This is one-sided: a False return does not by
    itself prove loss of complete positivity.
    """
    return _bounds(params)[1] <= MU_STAR_BOUND


def markov_cp_check(gammas) -> bool:
    """Triangle conditions gamma_i <= gamma_j + gamma_k on white-noise rates.

    Rates produced by :func:`rtnqubit.telegraph.markov_rates` satisfy them
    identically (gamma_j + gamma_k - gamma_i = 8 a_i^2 tau >= 0); a slack
    of 1e-12 times the largest rate absorbs roundoff in that borderline
    equality case.  The sums are Python floats, so a sum past the largest
    float is inf, which bounds any finite rate.
    """
    g = np.asarray(gammas, dtype=float)
    if g.shape != (3,) or not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("expected three finite nonnegative rates")
    g1, g2, g3 = g.tolist()
    slack = 1e-12 * max(g1, g2, g3)
    return g1 <= g2 + g3 + slack and g2 <= g3 + g1 + slack and g3 <= g1 + g2 + slack
