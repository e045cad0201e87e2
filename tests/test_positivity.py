import itertools
import math
import time
import warnings

import numpy as np
import pytest

from rtnqubit import (
    CP_TOLERANCE,
    MU_STAR_BOUND,
    ModelParams,
    Regime,
    bloch_to_density,
    choi_matrix,
    classify_regime,
    critical_flip_parameter,
    damping_spectrum,
    hermitian_eigenvalues,
    is_cp,
    markov_cp_check,
    markov_rates,
    pauli,
    propagate,
    relaxation_profile,
    relaxation_profiles,
    scan_horizon,
    sufficient_condition,
    xi,
)
from rtnqubit import positivity, telegraph

from helpers import bell_projector

RNG = np.random.default_rng(99)


def random_params(rng, scale=3.0):
    return ModelParams(a=tuple(rng.uniform(0.0, scale, 3)), tau=rng.uniform(0.05, 2.0))


def equal_coupling_params(mu, tau=1.0):
    """All three frequencies equal to mu: a_i = sqrt((mu^2+1)/32) / tau."""
    a = math.sqrt((mu * mu + 1.0) / 32.0) / tau
    return ModelParams(a=(a, a, a), tau=tau)


def edge_params(rng):
    """Random parameters with kappa*tau at 0, in the critical window,
    damped or ringing."""
    tau = rng.uniform(0.05, 2.0)
    kind = rng.integers(4)
    if kind == 0:
        return ModelParams(a=(0.0, 0.0, 0.0), tau=tau)
    if kind == 1:
        kt = 0.25 + rng.uniform(-2e-7, 2e-7)
        return ModelParams(a=(0.0, 0.0, kt / tau), tau=tau)
    scale = 0.1 if kind == 2 else 3.0
    return ModelParams(a=tuple(rng.uniform(0.0, scale, 3) / tau), tau=tau)


def count_evaluations(monkeypatch):
    """Record the nu array of every profile evaluation; the CP scan makes
    one for its grid and one per refinement round."""
    calls = []

    def counting_profiles(nu, plan):
        calls.append(nu)
        return profiles(nu, plan)

    profiles = telegraph._profiles
    monkeypatch.setattr(telegraph, "_profiles", counting_profiles)
    return calls


def count_scans(monkeypatch):
    """Record the arguments of every CP scan."""
    calls = []

    def counting_scan(*args):
        calls.append(args)
        return scan(*args)

    scan = positivity._scan
    monkeypatch.setattr(positivity, "_scan", counting_scan)
    return calls


def reference_refine(params, dip, worst, r, lo, hi, few=21):
    """The np.linspace refinement of xi rows, frozen as reference: a round
    of k brackets at max(21, few // k) points, 21 each by default."""
    worst_val, worst_j, worst_nu = worst
    while r.size:
        n = max(21, few // r.size)
        pts, k = np.linspace(lo, hi, n, axis=1), np.arange(r.size)
        vals = xi(pts, params)[r, k]
        m = np.argmin(vals, axis=1)
        low = vals[k, m]
        b = int(np.argmin(low))
        if low[b] < worst_val:
            worst_val, worst_j, worst_nu = float(low[b]), int(r[b]), float(pts[b, m[b]])
        hidden = dip * ((hi - lo) / (n - 1)) ** 2
        keep = np.nonzero((low - hidden < worst_val) & (hidden > low) & (hidden > positivity._EPS))[0]
        m = np.clip(m[keep], 1, n - 2)
        r, lo, hi = r[keep], pts[keep, m - 1], pts[keep, m + 1]
    return worst_val, worst_j, worst_nu


def reference_scan(params, horizon, few=21):
    """positivity._scan with the frozen refinement, 4096 brackets a batch."""
    nus = positivity._scan_grid(*positivity._bounds(params, horizon)[2:])
    table = xi(nus, params)
    dip = float(np.sum(params.kappa_taus**2))
    cells = np.diff(nus)
    hidden = dip * np.maximum(cells[:-1], cells[1:]) ** 2
    inner = table[:, 1:-1]
    rows, cols = np.nonzero(inner < np.minimum(table[:, :-2], table[:, 2:]))
    vals, gap = inner[rows, cols], hidden[cols]
    j, i = np.unravel_index(np.argmin(table), table.shape)
    worst = float(table[j, i]), int(j), float(nus[i])
    if worst[0] >= 0.0:
        worst = math.inf, 0, 0.0
        if vals.size:
            b = int(np.argmin(vals))
            worst = float(vals[b]), int(rows[b]), float(nus[cols[b] + 1])
    keep = (vals - gap < worst[0]) & (gap > vals) & (gap > positivity._EPS)
    rows, cols = rows[keep], cols[keep]
    for start in range(0, rows.size, 4096):
        r, c = rows[start : start + 4096], cols[start : start + 4096]
        worst = reference_refine(params, dip, worst, r, nus[c], nus[c + 2], few)
    return worst


def reference_cases():
    """(params, horizon) pairs: cp_map-like rays at the cp_map ladder, cut
    horizons, and kappa tau = 1/4 with and without partners."""
    rng = np.random.default_rng(4242)
    cases = []
    for k in range(25):
        direction = np.concatenate([[1.0], rng.uniform(0.3, 1.0, 2)])
        if k % 2:
            direction[2] = 0.0
        direction = direction[rng.permutation(3)]
        for a_tau in (0.1, 0.3, 1.0, 3.0, 10.0, 50.0):
            cases.append(ModelParams(a=tuple(direction * a_tau), tau=1.0))
    for _ in range(30):
        cases.append((random_params(rng), float(rng.uniform(0.05, 3.0))))
    for k in range(30):
        kt = 0.25 + rng.uniform(-2e-7, 2e-7)
        partner = (0.0, 0.0) if k % 3 == 0 else (0.0, float(rng.uniform(0.0, 2.0)))
        cases.append(ModelParams(a=(*partner, kt), tau=1.0))
    return [
        case if isinstance(case, tuple) else (case, scan_horizon(case)) for case in cases
    ]


def edge_brackets():
    """(params, rows, lo, hi) of brackets a scan rarely or never builds: one
    starting at nu = 0, where the damped closed form misses 1 by rounding,
    and a batch with a zero-width bracket, whose step is 0."""
    damped = ModelParams(a=(0.076, 0.063, 0.081), tau=1.0)  # closed form 1 - 1.1e-16 at 0
    fast = ModelParams(a=(30.0, 30.0, 0.0), tau=1.0)
    ringing = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
    return [
        (damped, np.array([0, 1, 2]), np.zeros(3), np.full(3, 0.01)),
        # from nu = 0 the zero-step arithmetic changes the lowest point's bits
        (fast, np.array([3, 0]), np.array([0.0, 0.5]), np.array([0.0317, 0.5])),
        (ringing, np.array([3, 3, 0]), np.array([0.6901, 0.5, 0.5]), np.array([0.6923, 0.5, 0.51])),
    ]


def envelope_cases():
    """1200 seeded parameter sets for the envelope reference: kappa tau = 0,
    mu^2 rounding to -1, 4 kappa tau - 1 = +-4e-9 and +-2e-6, and damped,
    ringing and mixed tables."""
    rng = np.random.default_rng(8128)
    cases = [ModelParams(a=(0.0, 0.0, 0.0), tau=1.0), ModelParams(a=(1.0, 1e-9, 0.0), tau=1.0)]
    while len(cases) < 1200:
        tau = float(rng.uniform(0.05, 2.0))
        kind = len(cases) % 5
        if kind == 0:  # one component near 1/4, a partner 0 or anywhere
            kt = 0.25 * (1.0 + rng.choice([4e-9, -4e-9, 2e-6, -2e-6]))
            a = (0.0, float(rng.uniform(0.0, 2.0) * rng.integers(2)), kt)
        elif kind == 1:  # mu^2 rounding to -1 next to a coupling
            big = float(rng.uniform(0.1, 3.0))
            a = (big, big * 1e-9, 0.0)
        elif kind == 2:  # damped
            a = rng.uniform(0.0, 0.1, 3)
        elif kind == 3:  # mostly ringing
            a = rng.uniform(0.0, 3.0, 3)
        else:  # mixed: kappa_3 tau damped, the other two ringing
            a = (*rng.uniform(0.0, 0.1, 2), 3.0)
        cases.append(ModelParams(a=tuple(float(x) / tau for x in a), tau=tau))
    return cases


def reference_envelope(params, nu_max=None):
    """The per-branch formulas scan_horizon, the dense stretch and
    sufficient_condition used before telegraph derived the envelope, frozen
    as reference: (horizon, (osc_end, needed), sufficient)."""
    horizon = 0.0
    for _, musq, branch in params._components:
        if branch is Regime.CRITICAL:
            horizon = max(horizon, 2.289281414562872)
        elif branch is Regime.UNDERDAMPED:
            horizon = max(horizon, math.log(3.0 * math.sqrt(1.0 + 1.0 / musq)))
        elif branch is Regime.OVERDAMPED:
            mt = math.sqrt(-musq)
            horizon = max(horizon, math.log(3.0 * (1.0 + 1.0 / mt) / 2.0) / (1.0 - mt))
    horizon = horizon + 1.0 if nu_max is None else nu_max
    real = [musq for _, musq, branch in params._components if branch is Regime.UNDERDAMPED]
    if not real:
        return horizon, (horizon, 0.0), True
    envelope = max(math.sqrt(1.0 + 1.0 / musq) for musq in real)
    osc_end = min(horizon, math.log(envelope * 1e12) + 1.0)
    needed = 20 * osc_end * math.sqrt(max(real)) / (2.0 * math.pi)
    return horizon, (osc_end, needed), math.sqrt(max(real)) <= MU_STAR_BOUND


def choi_reference(params, nu):
    """The Choi matrix from Pauli traces of the map on each matrix unit.

    Phi(M) = 1/2 sum_i Lambda_i Tr(sigma_i M) sigma_i with Lambda_0 = 1,
    applied to the first factor of the Bell projector
    1/2 sum_ij E_ij (x) E_ij.
    """
    lams = (1.0, *relaxation_profiles(float(nu), params))
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            image = np.zeros((2, 2), dtype=complex)
            for k in range(4):
                sig = pauli(k)
                image += 0.5 * lams[k] * np.trace(sig @ basis) * sig
            out += 0.5 * np.kron(image, basis)
    return out


def xi_reference(nu, params):
    """xi as four stacked combinations, frozen from before xi filled one
    preallocated array."""
    l1, l2, l3 = relaxation_profiles(nu, params)
    return np.stack(
        [
            0.25 * ((1.0 - l3) + (l1 - l2)),
            0.25 * ((1.0 - l3) - (l1 - l2)),
            0.25 * ((1.0 + l3) - (l1 + l2)),
            0.25 * ((1.0 + l3) + (l1 + l2)),
        ]
    )


def choi_tensordot_reference(params, nu):
    """The Choi matrix by np.tensordot over the Pauli tensor, frozen from
    before choi_matrix called np.dot on its flattened rows."""
    lams = np.concatenate(([1.0], relaxation_profiles(float(nu), params)))
    tensor = np.stack([0.25 * np.kron(pauli(i), pauli(i).conj()) for i in range(4)])
    return np.tensordot(lams, tensor, axes=1)


def bitwise_cases():
    """kappa*tau at 0, below 2e-9, 4 kappa tau - 1 at +-1e-7 and +-2e-6,
    damped, ringing and mixed couplings, then seeded edge draws."""
    out = [ModelParams(a=(0.0, 0.0, 0.0), tau=1.0), ModelParams(a=(1.5e-9, 0.0, 0.0), tau=1.0)]
    out += [ModelParams(a=(0.0, 0.0, 0.25 * (1.0 + d)), tau=1.0) for d in (1e-7, -1e-7, 2e-6, -2e-6)]
    out += [
        ModelParams(a=(0.05, 0.1, 0.02), tau=1.3),
        ModelParams(a=(2.0, 1.0, 0.5), tau=0.8),
        ModelParams(a=(0.3, 0.05, 1.1), tau=0.9),
        ModelParams(a=(0.2, 0.24, 0.07), tau=1.0),
    ]
    rng = np.random.default_rng(52)
    return out + [edge_params(rng) for _ in range(30)]


class TestXi:
    def test_equals_stacked_reference(self):
        rng = np.random.default_rng(53)
        with_zeros = rng.uniform(0.0, 12.0, 40)
        with_zeros[[0, 9, 10]] = 0.0
        refine = rng.uniform(0.0, 6.0, (5, 21))
        refine[1, 0] = 0.0
        for p in bitwise_cases():
            for nu in (0.0, 0.37, float(rng.uniform(0.0, 12.0)), with_zeros, refine):
                assert np.array_equal(xi(nu, p), xi_reference(nu, p)), (p, nu)

    def test_identity_channel_at_origin(self):
        p = random_params(RNG)
        assert np.array_equal(xi(0.0, p), [0.0, 0.0, 0.0, 1.0])

    def test_components_sum_to_one(self):
        for _ in range(100):
            p = random_params(RNG)
            values = xi(RNG.uniform(0.0, 6.0), p)
            assert abs(values.sum() - 1.0) <= 1e-12

    def test_dephasing_form(self):
        p = ModelParams(a=(0.0, 0.0, 1.2), tau=1.0)
        for nu in (0.3, 1.0, 4.0):
            profile = relaxation_profile(nu, 1.2)
            x = xi(nu, p)
            assert x[0] == 0.0 and x[1] == 0.0
            assert x[2] == pytest.approx((1.0 - profile) / 2.0, abs=1e-15)
            assert x[3] == pytest.approx((1.0 + profile) / 2.0, abs=1e-15)

    def test_equal_frequencies_at_half_period(self):
        # with all mu_i = mu, xi_4(pi/mu) = (1 - 3 exp(-pi/mu)) / 4
        for mu in (1.5, MU_STAR_BOUND, 4.0):
            p = equal_coupling_params(mu)
            value = xi(math.pi / mu, p)[3]
            assert value == pytest.approx((1.0 - 3.0 * math.exp(-math.pi / mu)) / 4.0, abs=1e-12)

    def test_vectorized_shape(self):
        p = random_params(RNG)
        out = xi(np.linspace(0.0, 3.0, 17), p)
        assert out.shape == (4, 17)

    def test_one_row_keeps_the_bits(self):
        # a row per bracket (the refinement) and one row of a stencil (the
        # tangency solve) against the full table, signed zeros included
        rng = np.random.default_rng(54)
        nus = rng.uniform(0.0, 6.0, (6, 21))
        nus[1, 0] = 0.0
        for p in bitwise_cases():
            profiles = relaxation_profiles(nus, p)
            table = positivity._combine(profiles)
            rows = rng.integers(0, 4, 6)
            rows[:4] = range(4)
            got = positivity._combine(profiles, rows)
            assert got.tobytes() == table[rows, np.arange(6)].tobytes(), p
            for j in range(4):
                assert positivity._combine(profiles, j).tobytes() == table[j].tobytes(), (p, j)


class TestChoiMatrix:
    def test_identity_channel_gives_bell_projector(self):
        p = random_params(RNG)
        assert np.max(np.abs(choi_matrix(p, 0.0) - bell_projector())) < 1e-15

    def test_spectrum_equals_xi(self):
        for _ in range(200):
            p = random_params(RNG)
            nu = RNG.uniform(0.0, 6.0)
            evals = hermitian_eigenvalues(choi_matrix(p, nu))
            assert np.max(np.abs(evals - np.sort(xi(nu, p)))) < 1e-10

    def test_unit_trace(self):
        for _ in range(100):
            p = random_params(RNG)
            c = choi_matrix(p, RNG.uniform(0.0, 6.0))
            assert abs(np.trace(c) - 1.0) < 1e-12

    def test_hermitian(self):
        for _ in range(20):
            c = choi_matrix(random_params(RNG), RNG.uniform(0.0, 6.0))
            assert np.max(np.abs(c - c.conj().T)) < 1e-14

    def test_rejects_negative_nu(self):
        p = random_params(RNG)
        for nu in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="nu must be >= 0"):
                choi_matrix(p, nu)
            with pytest.raises(ValueError, match="nu must be >= 0"):
                xi(nu, p)

    def test_equals_tensordot_reference(self):
        rng = np.random.default_rng(54)
        for p in bitwise_cases():
            for nu in (0.0, 0.37, float(rng.uniform(0.0, 12.0))):
                assert np.array_equal(choi_matrix(p, nu), choi_tensordot_reference(p, nu))

    def test_equals_pauli_trace_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(400):
            p = edge_params(rng)
            nu = 0.0 if rng.uniform() < 0.1 else rng.uniform(0.0, 8.0)
            assert np.array_equal(choi_matrix(p, nu), choi_reference(p, nu))


class TestIsCp:
    def test_dephasing_always_cp(self):
        for a_tau in (0.1, 1.0, 10.0, 100.0):
            p = ModelParams(a=(0.0, 0.0, a_tau), tau=1.0)
            assert is_cp(p).is_cp

    def test_two_axis_threshold(self):
        assert is_cp(ModelParams(a=(0.5, 0.5, 0.0), tau=1.0)).is_cp
        verdict = is_cp(ModelParams(a=(1.2, 1.2, 0.0), tau=1.0))
        assert not verdict.is_cp

    def test_identity_map_cp(self):
        assert is_cp(ModelParams(a=(0.0, 0.0, 0.0), tau=1.0)).is_cp

    def test_witness_reproducible_by_direct_evaluation(self):
        verdict = is_cp(ModelParams(a=(1.2, 1.2, 0.0), tau=1.0))
        w = verdict.witness
        assert w is not None
        direct = float(xi(w.nu, ModelParams(a=(1.2, 1.2, 0.0), tau=1.0))[w.index - 1])
        assert direct == pytest.approx(w.value, rel=1e-12)
        assert direct < -CP_TOLERANCE

    def test_deterministic(self):
        p = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
        v1, v2 = is_cp(p), is_cp(p)
        assert v1.is_cp == v2.is_cp
        assert v1.witness.nu == v2.witness.nu
        assert v1.witness.value == v2.witness.value

    def test_verdict_matches_dense_rescan(self):
        # soundness: a brute-force dense scan over twice the horizon finds
        # no violation the certified scan missed (and vice versa)
        for a in ((0.3, 0.7, 0.2), (1.2, 1.2, 0.0), (0.9, 0.4, 0.1), (2.0, 2.0, 2.0)):
            p = ModelParams(a=a, tau=1.0)
            verdict = is_cp(p)
            nus = np.linspace(0.0, 2.0 * verdict.horizon, 40_001)
            brute_min = float(xi(nus, p).min())
            assert verdict.is_cp == (brute_min >= -1e-6), (a, brute_min)

    def test_scan_horizon_positive_and_finite(self):
        for _ in range(20):
            h = scan_horizon(random_params(RNG))
            assert np.isfinite(h) and h >= 1.0

    def test_numerically_constant_profile_leaves_horizon(self):
        # (4 kappa tau)^2 = 1.6e-17 rounds away next to 1: that profile
        # evaluates to exactly 1, like a zero coupling's
        tiny = ModelParams(a=(1.0, 1e-9, 0.0), tau=1.0)
        assert np.all(relaxation_profiles(np.linspace(0.0, 50.0, 11), tiny)[0] == 1.0)
        assert scan_horizon(tiny) == scan_horizon(ModelParams(a=(1.0, 0.0, 0.0), tau=1.0))
        assert is_cp(tiny).is_cp

    def test_fuzz_against_brute_force(self):
        rng = np.random.default_rng(271828)
        for _ in range(30):
            p = random_params(rng)
            verdict = is_cp(p)
            nus = np.linspace(0.0, min(verdict.horizon, 60.0), 100_001)
            brute = float(xi(nus, p).min())
            assert verdict.is_cp == (brute >= -1e-7), (p, verdict, brute)

    def test_dip_between_grid_points_found(self):
        # both grid neighbours of this dip sit above 1e-6; the Choi matrix
        # confirms the violation independently of xi
        p = ModelParams(a=(17.6565, 0.04 * 17.6565, 0.0), tau=1.0)
        verdict = is_cp(p)
        assert not verdict.is_cp
        w = verdict.witness
        assert w.index == 4
        assert w.value == pytest.approx(-8.9166e-6, abs=1e-9)
        assert w.nu == pytest.approx(0.93403, abs=1e-5)
        assert float(hermitian_eigenvalues(choi_matrix(p, w.nu))[0]) == pytest.approx(
            w.value, abs=1e-12
        )

    @pytest.mark.parametrize("a", [(1.2, 1.2, 0.0), (50.0, 50.0, 50.0), (1e5, 1e5, 0.0)])
    def test_witness_matches_choi_spectrum(self, a):
        p = ModelParams(a=a, tau=1.0)
        w = is_cp(p).witness
        assert w is not None
        assert float(hermitian_eigenvalues(choi_matrix(p, w.nu))[0]) == pytest.approx(
            w.value, abs=1e-12
        )

    def test_bound_ends_refinement_of_dephasing(self, monkeypatch):
        # the first minima of xi_1 and xi_4 pass the grid's dip bound, but
        # one rescan shows they cannot reach below the witness value 0: the
        # grid and that rescan are the scan's only evaluations.  The second
        # coupling, whose profile rounds to 1, keeps the map off the one-axis
        # shortcut and its grid whole
        calls = count_evaluations(monkeypatch)
        assert is_cp(ModelParams(a=(100.0, 1e-9, 0.0), tau=1.0)).is_cp
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("nu_max", [None, 0.5])
    def test_one_axis_is_cp_without_a_scan(self, monkeypatch, nu_max):
        # two xi_j are exactly 0 and two are (1 -+ Lambda)/2 >= 0: no profile
        # is evaluated, and the horizon is the scan's
        calls = count_evaluations(monkeypatch)
        for a in ((1e6, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 0.0, 0.25)):
            params = ModelParams(a=a, tau=1.0)
            verdict = is_cp(params, nu_max=nu_max)
            assert verdict == positivity.CpVerdict(
                is_cp=True, witness=None, horizon=scan_horizon(params) if nu_max is None else nu_max
            )
        assert calls == []
        with pytest.raises(ValueError, match="scan horizon must be finite and > 0"):
            is_cp(ModelParams(a=(1e6, 0.0, 0.0), tau=1.0), nu_max=-1.0)

    def test_touching_zero_ends_and_is_cp(self):
        # at mu = pi / ln 3 the first minimum of xi_4 is exactly 0 (at
        # nu = ln 3), so only the machine-epsilon floor ends its refinement
        p = equal_coupling_params(MU_STAR_BOUND)
        assert abs(float(xi(math.log(3.0), p)[3])) <= 1e-15
        assert is_cp(p).is_cp

    @pytest.mark.parametrize("nu_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_horizon(self, nu_max):
        with pytest.raises(ValueError, match="scan horizon must be finite and > 0"):
            is_cp(ModelParams(a=(1.2, 1.2, 0.0), tau=1.0), nu_max=nu_max)

    def test_overflowing_frequency_rejected(self):
        # kappa_i overflows to inf: the parameters are outside the domain
        with pytest.raises(ValueError, match=r"a = \(1e\+200, 1e\+200, 0\.0\) at tau = 1e-190"):
            is_cp(ModelParams(a=(1e200, 1e200, 0.0), tau=1e-190))

    @pytest.mark.parametrize("nu_max", [0.4424, 0.4425])
    def test_cut_horizon_ending_in_a_dip(self, nu_max):
        # xi_4 first crosses -CP_TOLERANCE between nu = 0.4423 and 0.4424, so
        # a scan cut just past it is negative only at its nu = nu_max end;
        # that end still decides the verdict and is the witness
        p = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
        assert is_cp(p, nu_max=0.4423).is_cp
        verdict = is_cp(p, nu_max=nu_max)
        assert not verdict.is_cp
        end = float(xi(nu_max, p)[3])
        assert verdict.witness == positivity.CpWitness(nu=nu_max, index=4, value=end)
        assert end < -CP_TOLERANCE


class TestDipBound:
    """The two facts the scan rests on."""

    @pytest.mark.parametrize(
        "kt", [0.0, 0.01, 0.1, 0.25 - 1e-7, 0.25, 0.25 + 1e-7, 1.0, 50.0, 1000.0]
    )
    def test_profile_curvature_bound(self, kt):
        # Lambda' = -16 kt^2 int_0^nu exp(-2 (nu - s)) Lambda ds with
        # |Lambda| <= 1 gives |Lambda''| <= 32 kt^2; a second difference
        # equals Lambda'' somewhere in its stencil (measured max ratio 0.50)
        h = min(1e-3, 0.05 / (4.0 * kt + 1.0))
        lam = relaxation_profile(np.arange(0.0, 12.0 + h, h), kt)
        second = (lam[2:] - 2.0 * lam[1:-1] + lam[:-2]) / (h * h)
        assert np.all(np.abs(second) <= 32.0 * kt * kt)

    def test_critical_crossing_constant(self):
        v = telegraph._CRITICAL_CROSSING
        assert v > 0.0
        assert abs((1.0 + v) * math.exp(-v) - 1.0 / 3.0) <= 1e-12

    def test_c_star_constant(self):
        # c* is the root of min over nu > 0 of 1 + Lambda(nu; c) - 2 exp(-nu);
        # the dip's depth moves by about 1.2 per unit relative change of c
        def depth(c):
            # the interior minimum, refined from a 1e-4 to a 1e-7 grid
            def f(nu):
                return 1.0 + relaxation_profile(nu, c) - 2.0 * np.exp(-nu)

            nu = np.linspace(0.5, 1.5, 10001)
            nu = nu[np.argmin(f(nu))] + np.linspace(-1e-4, 1e-4, 2001)
            i = int(np.argmin(f(nu)))
            return float(f(nu)[i]), float(nu[i])

        c = positivity._C_STAR
        value, nu = depth(c)
        assert abs(value) <= 1e-12
        assert nu == pytest.approx(0.91558, abs=1e-5)
        assert depth(c * (1.0 - 1e-9))[0] > 0.0 > depth(c * (1.0 + 1e-9))[0]


class TestFrozenEnvelope:
    """The horizon, the dense stretch and the mu* test against the
    per-branch formulas they replaced, bit for bit."""

    def test_bounds_equal_reference(self):
        for params in envelope_cases():
            horizon, stretch, sufficient = reference_envelope(params)
            assert scan_horizon(params) == horizon, params
            assert positivity._bounds(params)[2:] == (horizon, *stretch), params
            assert sufficient_condition(params) == sufficient, params
            cut = 0.3 * horizon  # a cut horizon ends the dense stretch
            assert positivity._bounds(params, cut)[3:] == reference_envelope(params, cut)[1]

    def test_cases_cover_every_branch(self):
        cases = envelope_cases()
        kts = np.concatenate([p.kappa_taus for p in cases])
        assert np.any(kts == 0.0)
        assert np.any((kts > 0.0) & ((4.0 * kts) ** 2 - 1.0 == -1.0))
        for off in (4e-9, -4e-9, 2e-6, -2e-6):
            assert np.any(np.abs(4.0 * kts - 1.0 - off) < 1e-12), off
        tables = [set(classify_regime(p)) for p in cases]
        assert any(Regime.CRITICAL in t for t in tables)
        assert any({Regime.UNDERDAMPED, Regime.OVERDAMPED} <= t for t in tables)


class TestRefinement:
    """The refinement rounds against the frozen 21-point linspace reference."""

    def test_same_verdicts_and_witnesses_as_reference(self):
        non_cp = 0
        for params, horizon in reference_cases():
            value, j, nu, _ = positivity._scan(params, horizon, False)
            ref_value, ref_j, _ = reference_scan(params, horizon)
            assert (value < -CP_TOLERANCE) == (ref_value < -CP_TOLERANCE), (params, horizon)
            if ref_value < -CP_TOLERANCE:
                non_cp += 1
                assert j == ref_j, (params, horizon)
                assert abs(value - ref_value) <= 1e-12, (params, horizon)
                assert float(xi(nu, params)[j]) == value
        assert non_cp >= 60

    def test_edge_brackets_as_reference(self):
        for params, r, lo, hi in edge_brackets():
            dip = float(np.sum(params.kappa_taus**2))
            start = (math.inf, 0, 0.0)
            plan = telegraph._profile_plan(params._components)
            value, j, nu = positivity._refine(plan, dip, start, r, lo, hi)
            ref_value, ref_j, ref_nu = reference_refine(params, dip, start, r, lo, hi)
            assert j == ref_j and abs(value - ref_value) <= 1e-12, (params, r, lo, hi)

    def test_lean_rounds_bit_exact_at_21_points(self, monkeypatch):
        # with every round pinned to 21 points the rounds are the frozen
        # reference's arithmetic, bit for bit
        monkeypatch.setattr(positivity, "_REFINE_POINTS_FEW", positivity._REFINE_POINTS)
        for params, horizon in reference_cases():
            got = positivity._scan(params, horizon, False)
            assert got == (*reference_scan(params, horizon), horizon), (params, horizon)
        for params, r, lo, hi in edge_brackets():
            start = (math.inf, 0, 0.0)
            plan = telegraph._profile_plan(params._components)
            # dip 0 stops after the first round, whose lowest point is then
            # the witness
            for dip in (float(np.sum(params.kappa_taus**2)), 0.0):
                got = positivity._refine(plan, dip, start, r, lo, hi)
                assert got == reference_refine(params, dip, start, r, lo, hi)

    def test_rounds_bit_exact_as_reference(self):
        # at the real point counts, 201 for a lone bracket (the float rounds
        # of _refine_one) and max(21, 201 // k) for k brackets
        for params, horizon in reference_cases():
            got = positivity._scan(params, horizon, False)
            assert got == (*reference_scan(params, horizon, 201), horizon), (params, horizon)
        rng = np.random.default_rng(55)
        for params, r, lo, hi in edge_brackets():
            plan = telegraph._profile_plan(params._components)
            dip = float(np.sum(params.kappa_taus**2))
            brackets = [(r, lo, hi)] + [(r[[k]], lo[[k]], hi[[k]]) for k in range(r.size)]
            for _ in range(20):  # lone brackets of every row, some of zero or subnormal width
                start = np.array([rng.uniform(0.0, 5.0)])
                width = rng.choice([0.0, 5e-324, 1e-3, 0.05])
                brackets.append((rng.integers(0, 4, 1), start, start + width))
            for rows, lows, highs in brackets:
                for start in ((math.inf, 0, 0.0), (-0.01, 0, 0.0)):
                    got = positivity._refine(plan, dip, start, rows, lows, highs)
                    assert got == reference_refine(params, dip, start, rows, lows, highs, 201)

    @pytest.mark.parametrize("n", [2, 21, 40, 201])
    def test_rescan_points_are_linspace(self, n):
        # including a batch with a zero step and one whose step underflows
        lo = np.array([0.0, 0.5, 1e-300, 5e-324, 2.0])
        for hi in (lo + np.array([0.01, 1e-9, 1e-301, 0.0, 3.0]), lo + 1e-322, lo + 0.0):
            hi[-1] = 5.0
            pts, step = positivity._rescan_points(lo, hi, n)
            expected, expected_step = np.linspace(lo, hi, n, axis=1, retstep=True)
            assert np.array_equal(pts, expected) and np.array_equal(step, expected_step)

    def test_rounds_to_machine_epsilon(self, monkeypatch):
        # (10, 7, 0) is not CP; its witness is refined until the hidden dip
        # is below machine epsilon: 4 rounds, where 21-point rounds took 7
        calls = count_evaluations(monkeypatch)
        assert not is_cp(ModelParams(a=(10.0, 7.0, 0.0), tau=1.0)).is_cp
        assert 1 <= len(calls) <= 5

    def test_boundary_search_evaluations(self, monkeypatch):
        # every scan, round, tangency stencil and xi value of the (1, 1, 0)
        # search: 8 (two grids, one round, four stencils, one xi value)
        calls = count_evaluations(monkeypatch)
        critical_flip_parameter((1.0, 1.0, 0.0), tau=1.0)
        assert 1 <= len(calls) <= 8


def cut_cases():
    """(params, nu_max) pairs in every branch the envelope end meets:
    kappa tau = 0 partners, 4 kappa tau - 1 at +-4e-9, +-1e-7 and +-9.99e-7
    (one component, or all three), damped, ringing, mixed, one slow damped
    profile next to two fast ones, and 30 % cut horizons."""
    rng = np.random.default_rng(6174)
    offsets = [4e-9, -4e-9, 1e-7, -1e-7, 9.99e-7, -9.99e-7]
    cases = []
    for k in range(240):
        tau = float(rng.uniform(0.05, 2.0))
        kind = k % 6
        if kind == 0:  # a critical kappa_2 tau, a partner 0 (kappa_3 = 0) or anywhere
            kt = 0.25 * (1.0 + offsets[k // 6 % 6])
            a = (0.0, float(rng.uniform(0.0, 2.0) * (k // 36 % 2)), kt)
        elif kind == 1:  # damped
            a = rng.uniform(0.0, 0.1, 3)
        elif kind == 2:  # ringing
            a = rng.uniform(0.0, 3.0, 3)
        elif kind == 3:  # mixed: kappa_3 tau damped, the other two ringing
            a = (*rng.uniform(0.0, 0.1, 2), 3.0)
        elif kind == 4:  # one slow damped profile next to two fast ones
            a = rng.permutation([rng.uniform(1.0, 5.0), *rng.uniform(0.005, 0.05, 2)])
        else:  # three equal critical components
            a = (0.25 * (1.0 + offsets[k // 6 % 6]) / math.sqrt(2.0),) * 3
        params = ModelParams(a=tuple(float(x) / tau for x in a), tau=tau)
        cut = float(rng.uniform(0.05, 1.5)) * scan_horizon(params) if k % 10 < 3 else None
        cases.append((params, cut))
    return cases


def parity_cases():
    """reference_cases() and seeded random maps with cut horizons."""
    rng = np.random.default_rng(1789)
    cases = reference_cases()
    for k in range(60):
        params = edge_params(rng) if k % 3 == 0 else random_params(rng)
        cases.append((params, float(rng.uniform(0.05, 1.5)) * scan_horizon(params)))
    return cases


class TestCpCut:
    """is_cp samples the grid only up to the envelope end: the proof that
    the rest of the grid cannot change its verdict, and the parity."""

    def test_xi_exceeds_every_hidden_dip_past_the_end(self):
        cut = tail = critical = 0
        for params, nu_max in cut_cases():
            plan, mu_max, horizon, osc_end, needed = positivity._bounds(params, nu_max)
            dip = float(np.sum(params.kappa_taus**2))
            end = positivity._cp_end(plan, dip, horizon, osc_end, needed)
            if any(branch is None for *_, branch in params._components):
                assert end == math.inf, params  # a row identically 1
            if end == math.inf:
                continue
            grid = positivity._scan_grid(horizon, osc_end, needed)
            prefix = positivity._scan_grid(horizon, osc_end, needed, end)
            assert end < horizon and prefix[-1] >= end and prefix[-2] < end, params
            assert np.array_equal(prefix, grid[: prefix.size]), params
            # the largest hidden dip of the whole grid
            pad = dip * float(np.max(np.diff(grid))) ** 2
            n = max(20_001, math.ceil(50.0 * 2.0 * horizon * mu_max / (2.0 * math.pi)))
            nus = np.linspace(end, 2.0 * horizon, n)
            assert float(xi(nus, params).min()) > pad, (params, nu_max)
            cut += 1
            tail += end > osc_end
            critical += Regime.CRITICAL in classify_regime(params)
        assert cut >= 150 and tail >= 5 and critical >= 40, (cut, tail, critical)

    def test_critical_envelope_covers_the_series(self):
        # at 4 kappa tau - 1 = -9.99e-7 the series exceeds exp(-nu) (1 + nu),
        # the critical envelope of the horizon, just past its 1/3 crossing;
        # the end read off the series' own envelope lies past every point
        # where |Lambda| > 1/3
        kt = 0.25 * (1.0 - 9.99e-7)
        plan = telegraph._profile_plan((telegraph._component(kt, 1.0),))
        nus = np.linspace(0.0, 30.0, 300_001)
        lam = np.abs(relaxation_profile(nus, kt))
        assert np.any(lam > np.exp(-nus) * (1.0 + nus))
        past = telegraph._CRITICAL_CROSSING + 1e-6
        assert abs(relaxation_profile(past, kt)) > 1.0 / 3.0
        for level in (1.0 / 3.0, 0.9, 0.5, 1e-3):
            end = telegraph._envelope_end(plan, level)
            assert np.all(lam[nus >= end] <= level), level
            assert end < 1.001 * float(nus[lam > level][-1]) + 1e-3, level

    def test_dip_is_the_sum_of_squares(self):
        # the dip constant read off the table, bit for bit
        for params in bitwise_cases() + envelope_cases():
            assert positivity._dip(params) == float(np.sum(params.kappa_taus**2)), params

    @pytest.mark.parametrize("n", [2, 3, 2000, 20_001])
    def test_linspace_prefix(self, n):
        for start, stop in ((0.0, 3.7), (1.25, 40.0), (0.0, 5e-324)):
            full = np.linspace(start, stop, n)
            for end in (start, 0.5 * (start + stop), stop, math.inf, float(full[-2])):
                prefix = positivity._linspace_prefix(start, stop, n, end)
                assert np.array_equal(prefix, full[: prefix.size])
                assert prefix[-1] >= end or prefix.size == n

    def test_is_cp_equals_the_frozen_full_grid_reference(self, monkeypatch):
        # with every round at 21 points, the frozen reference's rounds
        monkeypatch.setattr(positivity, "_REFINE_POINTS_FEW", positivity._REFINE_POINTS)
        cut = 0
        for params, horizon in parity_cases():
            value, j, nu = reference_scan(params, horizon)
            witness = positivity.CpWitness(nu=nu, index=j + 1, value=value)
            expected = positivity.CpVerdict(value >= -CP_TOLERANCE, None, horizon)
            if value < -CP_TOLERANCE:
                expected = positivity.CpVerdict(False, witness, horizon)
            assert is_cp(params, nu_max=horizon) == expected, (params, horizon)
            bounds = positivity._bounds(params, horizon)
            cut += positivity._cp_end(bounds[0], positivity._dip(params), *bounds[2:]) < math.inf
        assert cut >= 150

    def test_is_cp_equals_the_full_scan(self):
        for params, horizon in parity_cases():
            value, j, nu, _ = positivity._scan(params, horizon, False)
            verdict = is_cp(params, nu_max=horizon)
            assert verdict.is_cp == (value >= -CP_TOLERANCE) and verdict.horizon == horizon
            if not verdict.is_cp:
                assert verdict.witness == positivity.CpWitness(nu=nu, index=j + 1, value=value)


    def test_huge_horizon_squares_the_step_as_a_product(self):
        # the grid step of a horizon of 1e200 squares past the largest
        # float: no end, the whole grid, and no OverflowError
        params = ModelParams(a=(1.0, 0.5, 0.0), tau=1.0)
        plan, _, horizon, osc_end, needed = positivity._bounds(params, 1e200)
        dip = positivity._dip(params)
        assert positivity._cp_end(plan, dip, horizon, osc_end, needed) == math.inf
        assert is_cp(params, nu_max=1e200) == positivity.CpVerdict(True, None, 1e200)


def cut_rays():
    """(1, 1, 0), (1, 0.54, 0) and 20 seeded cp_map-like directions."""
    rng = np.random.default_rng(1618)
    shapes = [np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.54, 0.0])]
    for k in range(20):
        shape = np.concatenate([[1.0], rng.uniform(0.3, 1.0, 2)])
        if k % 2:
            shape[2] = 0.0
        shapes.append(shape[rng.permutation(3)])
    return shapes


class TestSearchCut:
    """A boundary scan whose CP verdict would end the search samples the
    grid only up to the envelope end, and changes nothing by it."""

    def test_certifying_scans_stop_at_the_envelope_end(self, monkeypatch):
        # the first scan, whose positive dip the tangency solve tracks, is
        # whole; every scan once hi <= b + delta is cut where nu_e < horizon
        evaluations = count_evaluations(monkeypatch)
        scans = []

        def recording_scan(params, nu_max, cut):
            first = len(evaluations)
            found = scan(params, nu_max, cut)
            scans.append((params, cut, evaluations[first].size))
            return found

        scan = positivity._scan
        monkeypatch.setattr(positivity, "_scan", recording_scan)
        shorter = 0
        for shape in cut_rays():
            scans.clear()
            critical_flip_parameter(shape, 1.0)
            assert not scans[0][1] and scans[-1][1], shape
            for params, cut, points in scans:
                plan, _, horizon, osc_end, needed = positivity._bounds(params)
                whole = positivity._scan_grid(horizon, osc_end, needed).size
                end = positivity._cp_end(plan, positivity._dip(params), horizon, osc_end, needed)
                if cut and end < horizon:
                    assert points < whole, shape
                    shorter += 1
                else:
                    assert points == whole, shape
        assert shorter >= len(cut_rays())

    def test_cut_keeps_boundaries_and_scan_counts(self, monkeypatch):
        # the same searches with every scan sampled whole
        calls = count_scans(monkeypatch)

        def searches():
            found = []
            for shape in cut_rays():
                calls.clear()
                found.append((critical_flip_parameter(shape, 1.0), len(calls)))
            return found

        cut = searches()
        monkeypatch.setattr(positivity, "_cp_end", lambda *args: math.inf)
        assert searches() == cut


class TestCriticalFlipParameter:
    def test_boundary_with_weak_second_axis(self):
        # the boundary's violating dip falls between grid points
        assert critical_flip_parameter((1.0, 0.04, 0.0), 1.0) == pytest.approx(
            17.65596, abs=1e-3
        )

    def test_two_axis_boundary(self):
        boundary = critical_flip_parameter((1.0, 1.0, 0.0), tau=1.0)
        assert boundary == pytest.approx(0.8, abs=0.05)

    def test_boundary_independent_of_tau(self):
        b1 = critical_flip_parameter((1.0, 1.0, 0.0), tau=0.5)
        b2 = critical_flip_parameter((1.0, 1.0, 0.0), tau=2.0)
        assert b1 == b2

    def test_first_scan_at_c_star_over_kappa_min(self, monkeypatch):
        # the search starts where the smallest kappa_i tau equals c*
        scanned = []

        def recording_scan(params, *args):
            scanned.append(params)
            return scan(params, *args)

        scan = positivity._scan
        monkeypatch.setattr(positivity, "_scan", recording_scan)
        rng = np.random.default_rng(5)
        shapes = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0)] + [rng.uniform(0, 1, 3) for _ in range(20)]
        for shape in shapes:
            scanned.clear()
            critical_flip_parameter(shape, tau=1.0)
            assert float(np.min(scanned[0].kappa_taus)) == pytest.approx(
                positivity._C_STAR, rel=1e-12
            )

    @pytest.mark.parametrize("weak", [1e-2, 1e-3])
    def test_boundary_follows_c_star_law(self, weak):
        # b kappa_min / c* -> 1 as kappa_min -> 0 (measured 2.0e-5 and 0: the
        # start is certified there)
        b = critical_flip_parameter((1.0, weak, 0.0), tau=1.0)
        kappa_min = float(np.min(ModelParams(a=(1.0, weak, 0.0), tau=1.0).kappa_taus))
        assert abs(b * kappa_min / positivity._C_STAR - 1.0) <= 1e-4

    @pytest.mark.parametrize("weak", [1e-6, 1e-100, 1e-160, 1e-200])
    def test_unresolvable_start_refused_before_any_scan(self, monkeypatch, weak):
        # kappa_min below about 1e-5, or underflowing to 0, puts the start
        # past the grid cap; the refusal is decided before any scan
        monkeypatch.setattr(positivity, "_scan", None)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"c\*/kappa_min"):
            critical_flip_parameter((1.0, weak, 0.0), tau=1.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("tau", [1e-300, 1e-160, 0.5, 2.0, 1e300])
    def test_boundary_at_any_tau_is_the_tau_one_value(self, tau):
        # every scan runs at tau = 1 on a*tau, so couplings a*tau/tau that
        # would overflow are never formed
        b1 = critical_flip_parameter((1.0, 1.0, 0.0), tau=1.0)
        assert critical_flip_parameter((1.0, 1.0, 0.0), tau=tau) == b1

    def test_dephasing_has_no_boundary(self):
        assert critical_flip_parameter((0.0, 0.0, 1.0), tau=1.0) is None

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError):
            critical_flip_parameter((0.0, 0.0, 0.0), tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="flip timescale must be finite and > 0"):
            critical_flip_parameter((1.0, 1.0, 0.0), tau=tau)

    def test_equal_coupling_boundary_respects_sufficient_bound(self):
        # for three equal couplings xi_4 = (1 + 3 Lambda)/4, whose first
        # trough -exp(-pi/mu) reaches -1/3 at mu = pi/ln 3: the boundary is
        # exactly b = sqrt(1 + (pi/ln 3)^2)/(4 sqrt 2) = 0.535528860121, and
        # the search returns it from below, within its delta
        exact = math.sqrt(1.0 + MU_STAR_BOUND**2) / (4.0 * math.sqrt(2.0))
        assert exact == pytest.approx(0.535528860121, abs=1e-12)
        boundary = critical_flip_parameter((1.0, 1.0, 1.0), tau=1.0)
        assert exact - 1e-6 <= boundary <= exact + 1e-9
        # so max mu sits at the frequency bound, within dmu/db ~= 6 times
        # that window
        p = ModelParams(a=(boundary, boundary, boundary), tau=1.0)
        mu_max = math.sqrt(float(np.max(p.mu_squared)))
        assert MU_STAR_BOUND - 7e-6 <= mu_max <= MU_STAR_BOUND + 1e-8

    def test_boundary_certified_to_delta(self):
        # CP at b (and at b - delta), not CP at b + delta, delta = 1e-6 max(1, b)
        rng = np.random.default_rng(31)
        for k in range(40):
            shape = rng.uniform(0.05, 1.0, 3)
            if k % 2:
                shape[rng.integers(3)] = 0.0
            tau = rng.uniform(0.5, 2.0)
            b = critical_flip_parameter(shape, tau)
            delta = 1e-6 * max(1.0, b)
            unit = shape / shape.max()

            def cp_at(a_tau):
                return is_cp(ModelParams(a=tuple(unit * (a_tau / tau)), tau=tau)).is_cp

            assert cp_at(b) and cp_at(b - delta) and not cp_at(b + delta), (shape, tau, b)

    @pytest.mark.parametrize(
        "shape, most",
        [
            ((1.0, 1.0, 0.0), 2),
            ((1.0, 0.0, 0.0), 0),
            ((0.0, 0.0, 1.0), 0),
            ((1.0, 1e-3, 0.0), 1),
            ((1.0, 1e-5, 0.0), 1),
        ],
    )
    def test_scan_count(self, monkeypatch, shape, most):
        # one scan finds the dip, one certifies the tangency step; on far
        # rays, where one scan costs up to about 0.25 s, the start is
        # already certified and the first scan does both.  A one-axis
        # direction has no boundary and needs no scan
        calls = count_scans(monkeypatch)
        critical_flip_parameter(shape, tau=1.0)
        assert len(calls) <= most

    def test_scan_count_over_a_sweep(self, monkeypatch):
        # cp_map-like directions and directions with a weak axis down to
        # 1e-3: at most 3 scans a ray, the most measured, so that bisection
        # (about 21 scans when every tangency solve fails) stays a safeguard
        rng = np.random.default_rng(2023)
        shapes = []
        for k in range(200):
            shape = np.concatenate([[1.0], rng.uniform(0.3, 1.0, 2)])
            if k % 2:
                shape[2] = 0.0
            if k % 4 == 3:
                shape[1] = 10.0 ** rng.uniform(-3.0, -1.0)
            shapes.append(shape[rng.permutation(3)])
        calls = count_scans(monkeypatch)
        for shape in shapes:
            calls.clear()
            critical_flip_parameter(shape, tau=1.0)
            assert 1 <= len(calls) <= 3, (shape, len(calls))

    @pytest.mark.parametrize("shape", [(1.0, 1.0, 0.0), (1.0, 0.54, 0.0)])
    @pytest.mark.parametrize("sabotage", [None, "fail", "low", "always"])
    def test_safeguards_keep_the_certificate(self, monkeypatch, shape, sabotage):
        # on (1, 0.54, 0) the first scan's witness is not the deepest dip at
        # the tangency step, so the certifying scan is not CP and its
        # witness is tracked next.  A first tangency solve that fails, or
        # that puts the crossing 10 % low, where xi at b + delta is still
        # positive, leaves the next scan to bisection, and later solves
        # finish (5 scans).  With every solve failing, bisection alone
        # brackets b to delta (21 to 22 scans).
        verdicts, steps = [], []

        def recording_scan(*args):
            found = scan(*args)
            verdicts.append(found[0] >= -CP_TOLERANCE)
            return found

        def sabotaged_tangency(*args):
            steps.append(args)
            if sabotage == "always" or (sabotage == "fail" and len(steps) == 1):
                return None
            found = tangency(*args)
            if sabotage == "low" and len(steps) == 1:
                return (0.9 * found[0],) + found[1:]
            return found

        scan, tangency = positivity._scan, positivity._tangency
        monkeypatch.setattr(positivity, "_scan", recording_scan)
        monkeypatch.setattr(positivity, "_tangency", sabotaged_tangency)
        b = critical_flip_parameter(shape, tau=1.0)
        if sabotage == "always":
            assert len(verdicts) <= 24
        elif sabotage:
            assert len(steps) > 1 and 2 < len(verdicts) <= 6
        else:
            assert verdicts == ([True, False, True] if shape[1] == 0.54 else [True, True])
        delta = 1e-6 * max(1.0, b)
        unit = np.asarray(shape) / max(shape)

        def cp_at(a_tau):
            return is_cp(ModelParams(a=tuple(unit * a_tau), tau=1.0)).is_cp

        assert cp_at(b) and cp_at(b - delta) and not cp_at(b + delta), (shape, b)

    @pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (1.0, 0.04, 0.0)])
    def test_bisection_alone_keeps_the_certificate(self, monkeypatch, shape):
        # every solve fails on two more shapes: 21 and 22 scans
        self.test_safeguards_keep_the_certificate(monkeypatch, shape, "always")

    def test_axis_permutations_agree(self):
        # relabelling the axes permutes the xi_j among themselves, so every
        # permutation of a direction has the same boundary, within the
        # certified delta = 1e-6 max(1, b) (the spread measured is 2.5e-10
        # relative), and the same is_cp verdict on each rung of cp_map's ladder
        rng = np.random.default_rng(2718)
        ladder = (0.1, 0.3, 1.0, 3.0, 10.0, 50.0)
        for k in range(30):
            shape = np.concatenate([[1.0], rng.uniform(0.3, 1.0, 2)])
            if k % 2:
                shape[2] = 0.0
            boundaries, verdicts = [], []
            for perm in itertools.permutations(range(3)):
                unit = shape[list(perm)]
                boundaries.append(critical_flip_parameter(unit, 1.0))
                params = [ModelParams(a=tuple(unit * b), tau=1.0) for b in ladder]
                verdicts.append([is_cp(p).is_cp for p in params])
            b = boundaries[0]
            assert max(abs(x - b) for x in boundaries) <= 1e-6 * max(1.0, b), (shape, boundaries)
            assert all(v == verdicts[0] for v in verdicts), (shape, verdicts)

    def test_returns_builtin_float(self):
        assert type(critical_flip_parameter((1.0, 1.0, 0.0), tau=1.0)) is float
        assert type(critical_flip_parameter((1.0, 0.04, 0.0), tau=1.0)) is float


class TestTangency:
    equal = (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("start", [(0.5, 1.1), (0.55, 1.0)])
    def test_equal_couplings_cross_at_the_closed_form(self, start):
        # xi_4 = (1 + 3 Lambda)/4 has its first trough at mu nu = pi and
        # reaches -CP_TOLERANCE there just past the exact boundary
        exact = math.sqrt(1.0 + MU_STAR_BOUND**2) / (4.0 * math.sqrt(2.0))
        s0, nu0 = start
        s, nu, _ = positivity._tangency(self.equal, s0, 3, nu0)
        assert exact < s <= exact + 1e-9
        assert nu == pytest.approx(math.pi / math.sqrt(32.0 * s * s - 1.0), abs=1e-6)

    def test_crest_is_not_a_dip(self):
        # at the first crest of Lambda (mu nu = 2 pi) xi_4 is concave
        mu = math.sqrt(32.0 * 0.25 - 1.0)
        assert positivity._tangency(self.equal, 0.5, 3, 2.0 * math.pi / mu) is None


class TestVeryLargeCoupling:
    @pytest.mark.parametrize(
        "params",
        [ModelParams(a=(1e150, 1e150, 1e150), tau=1.0), ModelParams(a=(1.0, 1.0, 0.0), tau=1e150)],
    )
    def test_finite_without_warnings(self, params):
        # kappa tau ~ 1e150: far past anything a scan resolves, but inside
        # the domain, where every derived quantity is finite
        rho = bloch_to_density([0.3, -0.4, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = [
                relaxation_profiles(np.array([0.0, 0.37, 9.5]), params),
                propagate(rho, 0.37, params),
                xi(0.37, params),
                choi_matrix(params, 0.37),
                damping_spectrum(params),
                markov_rates(params),
                params.kappa_taus,
                params.mu_squared,
                scan_horizon(params),
            ]
            assert all(np.all(np.isfinite(x)) for x in arrays)
            assert not sufficient_condition(params)
            assert classify_regime(params)[:2] == (Regime.UNDERDAMPED, Regime.UNDERDAMPED)
        assert float(np.max(params.kappa_taus)) >= 1e150


class TestSufficientCondition:
    def test_bound_value(self):
        assert MU_STAR_BOUND == pytest.approx(2.85960, abs=1e-4)

    def test_low_frequencies_guarantee_cp(self):
        p = equal_coupling_params(2.0)
        assert sufficient_condition(p)
        assert is_cp(p).is_cp

    def test_high_frequencies_not_guaranteed(self):
        assert not sufficient_condition(equal_coupling_params(3.5))

    def test_boundary_case(self):
        p = equal_coupling_params(MU_STAR_BOUND)
        assert sufficient_condition(p)
        assert abs(xi(math.pi / MU_STAR_BOUND, p)[3]) < 1e-12

    def test_pure_damping_trivially_satisfies(self):
        p = random_params(RNG, scale=0.05)
        assert np.all(p.mu_squared < 0.0)
        assert sufficient_condition(p)


class TestMarkovCpCheck:
    def test_equilateral(self):
        assert markov_cp_check((1.0, 1.0, 1.0))
        assert markov_cp_check((1.7e308, 1.7e308, 1.7e308))  # sums past the largest float

    def test_violated_triangle(self):
        assert not markov_cp_check((3.0, 1.0, 1.0))
        # near the largest float the slack must not overflow into a pass
        assert not markov_cp_check((1.7e308, 1e308, 0.0))
        assert not markov_cp_check((0.0, 1.7e308, 1e308))

    def test_rates_from_model_always_pass(self):
        # gamma_j + gamma_k - gamma_i = 8 a_i^2 tau >= 0 identically
        for _ in range(200):
            assert markov_cp_check(markov_rates(random_params(RNG)))

    def test_validation(self):
        with pytest.raises(ValueError):
            markov_cp_check((1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            markov_cp_check((1.0, 1.0))
