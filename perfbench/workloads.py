"""The three benchmark workloads: seeded inputs, one op, and its checks.

Each workload drives ``rtnqubit`` only through its public functions.  An
op takes one generated input, makes the program calls through a tracer
(``tracing.Tracer`` or ``tracing.NullTracer``) and returns what the calls
produced; ``check`` then decides whether the op was correct and returns
the tallies behind the count metrics, keyed by metric name as
``(numerator, denominator)``.

Inputs cycle deterministically through the input classes that change the
program's cost (coupling pattern, regime, horizon), so every run of a
workload sees the same mix whatever its length; ``cycle`` is the period.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import rtnqubit
from rtnqubit import cli
from rtnqubit.channels import KRAUS_CLAMP

POOL_SIZE = 4096

# Span (name, label) -> (per-layer metric name, seconds -> unit scale).
LAYER_METRICS = {
    ("montecarlo.ensemble_average", None): ("montecarlo.ensemble_average.us_per_trajectory", 1e6),
    ("montecarlo.ensemble_average", "small"): ("montecarlo.ensemble_average.us_per_trajectory.small", 1e6),
    ("montecarlo.trajectory_rng", None): ("montecarlo.trajectory_rng.us_per_call", 1e6),
    ("montecarlo.sample_path", None): ("montecarlo.sample_path.us_per_path", 1e6),
    ("montecarlo.evolve_trajectory", None): ("montecarlo.evolve_trajectory.us_per_trajectory", 1e6),
    ("positivity.critical_flip_parameter", None): ("positivity.critical_flip_parameter.ms_per_call", 1e3),
    ("positivity.is_cp", "lo"): ("positivity.is_cp.ms_per_call.lo", 1e3),
    ("positivity.is_cp", "mid"): ("positivity.is_cp.ms_per_call.mid", 1e3),
    ("positivity.is_cp", "hi"): ("positivity.is_cp.ms_per_call.hi", 1e3),
    ("telegraph.propagate", None): ("telegraph.propagate.us_per_call", 1e6),
    ("positivity.xi", None): ("positivity.xi.us_per_call", 1e6),
    ("channels.kraus_from_params", None): ("channels.kraus_from_params.us_per_call", 1e6),
    ("channels.apply_channel", None): ("channels.apply_channel.us_per_call", 1e6),
    ("positivity.choi_matrix", None): ("positivity.choi_matrix.us_per_call", 1e6),
    ("linalg.hermitian_eigenvalues", None): ("linalg.hermitian_eigenvalues.us_per_call", 1e6),
    ("kernels.solve_volterra", None): ("kernels.solve_volterra.ms_per_call", 1e3),
    ("cli.evolve", None): ("cli.evolve.ms_per_call", 1e3),
}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _directions(rng: np.random.Generator, n_axes, low: float) -> np.ndarray:
    """Coupling directions with ``n_axes[i]`` nonzero components, max 1.

    The axes are a random permutation; the largest component is 1 and the
    others are uniform in [low, 1].
    """
    n = len(n_axes)
    comps = np.concatenate([np.ones((n, 1)), rng.uniform(low, 1.0, size=(n, 2))], axis=1)
    comps[np.arange(3)[None, :] >= np.asarray(n_axes)[:, None]] = 0.0
    perm = np.argsort(rng.random((n, 3)), axis=1)
    return np.take_along_axis(comps, perm, axis=1)


def _max_kappa(direction) -> float:
    return float(np.max(rtnqubit.ModelParams(a=tuple(direction), tau=1.0).kappas))


def _scaled_params(direction, kappa_tau: float, tau: float) -> rtnqubit.ModelParams:
    """Parameters along ``direction`` whose largest kappa_i * tau is ``kappa_tau``."""
    a = np.asarray(direction) * (kappa_tau / (tau * _max_kappa(direction)))
    return rtnqubit.ModelParams(a=tuple(a), tau=tau)


def _tally(tallies: dict, key: str, num: int, den: int) -> None:
    n0, d0 = tallies.get(key, (0, 0))
    tallies[key] = (n0 + num, d0 + den)


def merge_tallies(into: dict, tallies: dict) -> None:
    for key, (num, den) in tallies.items():
        _tally(into, key, num, den)


def ratios(tallies: dict) -> dict:
    return {key: (num / den if den else 0.0) for key, (num, den) in tallies.items()}


class McOracle:
    """One op: ``ensemble_average`` with N trajectories on a 41-point grid.

    Inputs cycle through coupling pattern (1, 2 or 3 nonzero axes), nu_max
    in {2, 4, 8} (flip events per trajectory scale with it) and regime of
    the largest kappa * tau (damped, critical at 1/4, ringing).
    """

    name = "mc_oracle"
    cycle = 27
    tail_percentile = 95
    min_ops = 200
    count_ops = 48
    probe_ops = 3
    trajectories = 256
    grid_points = 41
    nu_maxes = (2.0, 4.0, 8.0)
    # trajectories and inputs timed call by call in the traced run
    detail_inputs = 3
    detail_trajectories = 64

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def inputs(self) -> list:
        rng = _rng(self.seed, 1)
        i = np.arange(POOL_SIZE)
        n_axes = i % 3 + 1
        nu_max = np.asarray(self.nu_maxes)[(i // 3) % 3]
        regime = (i // 9) % 3
        kt = np.where(
            regime == 0,
            rng.uniform(0.05, 0.2, POOL_SIZE),
            np.where(regime == 1, 0.25, rng.uniform(0.5, 2.0, POOL_SIZE)),
        )
        taus = rng.uniform(0.5, 2.0, POOL_SIZE)
        dirs = _directions(rng, n_axes, 0.5)
        b0 = _unit_vectors(rng, POOL_SIZE)
        grids = {m: np.linspace(0.0, m, self.grid_points) for m in self.nu_maxes}
        pool = []
        for k in range(POOL_SIZE):
            params = _scaled_params(dirs[k], kt[k], taus[k])
            rho0 = rtnqubit.bloch_to_density(b0[k])
            pool.append((params, rho0, grids[nu_max[k]], int(n_axes[k])))
        return pool

    def anchors_ok(self) -> bool:
        return True

    def op(self, inp, i: int, tr):
        params, rho0, grid, _ = inp
        return tr.call(
            "montecarlo.ensemble_average",
            rtnqubit.ensemble_average,
            params, rho0, grid, self.trajectories, ensemble_seed(self.seed, i),
            units=self.trajectories,
        )

    def check(self, inp, res) -> tuple[bool, dict]:
        params, rho0, grid, n_axes = inp
        b_start = rtnqubit.density_to_bloch(rho0)
        ok = bool(np.all(np.linalg.norm(res.mean_bloch, axis=1) <= 1.0 + 1e-12))
        ok &= bool(np.all(np.abs(res.mean_bloch[0] - b_start) <= 1e-12))
        tallies: dict = {}
        if n_axes == 1:
            analytic = rtnqubit.relaxation_profiles(grid, params) * b_start[:, None]
            passed = z_agreement(res, analytic)
            _tally(tallies, "montecarlo.zcheck_pass_ratio", int(passed), 1)
            for retry in range(1, Z_RETRIES + 1):
                if passed:
                    break
                fresh = rtnqubit.ensemble_average(
                    params, rho0, grid, self.trajectories, res.seed + retry * RETRY_SEED_STRIDE
                )
                passed = z_agreement(fresh, analytic)
            ok &= passed
        return ok, tallies

    def detail(self, pool, tr) -> dict:
        """Time the calls ``ensemble_average`` is built from; count flip events."""
        events = 0
        trajectories = 0
        for k in range(self.detail_inputs):
            params, rho0, grid, _ = pool[k]
            t_max = float(2.0 * params.tau * grid[-1])
            for j in range(self.detail_trajectories):
                rng = tr.call("montecarlo.trajectory_rng", rtnqubit.trajectory_rng, ensemble_seed(self.seed, k), j)
                paths = tuple(
                    tr.call("montecarlo.sample_path", rtnqubit.sample_path, params.tau, params.a[ax], t_max, rng)
                    for ax in range(3)
                )
                tr.call("montecarlo.evolve_trajectory", rtnqubit.evolve_trajectory, paths, rho0, grid)
                events += sum(p.flip_times.size for p in paths)
                trajectories += 1
        return {"montecarlo.events_per_trajectory": events / trajectories}


def ensemble_seed(seed: int, op_index: int) -> int:
    """Monte Carlo seed of op ``op_index``; distinct per op, not per input.

    Each benchmark seed owns a block of 10**7 ensemble seeds: ops take the
    first 10**6 and z-rule retries the following ones.
    """
    return int(seed) * 10_000_000 + op_index


# The z rule is a statistical test: on exact single-axis ensembles it misses
# on about 0.5% of ops (2 of 600 and 3 of 600 in two seeded samples at
# N = 256), so a run of a few hundred ops would nearly always report a
# false failure.  A miss is therefore re-tested on up to Z_RETRIES fresh
# ensembles of the same size; an op fails when every one misses.  A real
# bias shifts z at every retry.  First-try passes are reported as
# montecarlo.zcheck_pass_ratio.
Z_RETRIES = 2
RETRY_SEED_STRIDE = 1_000_000


def z_agreement(res, analytic) -> bool:
    """The README's rule: >= 95% of points within 3 standard errors or exact to 1e-12."""
    diff = res.mean_bloch.T - analytic
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(res.stderr.T > 0.0, diff / res.stderr.T, np.where(diff == 0.0, 0.0, math.inf))
    ok = (np.abs(z) <= 3.0) | (np.abs(diff) <= 1e-12)
    return bool(np.mean(ok) >= 0.95)


class CpMap:
    """One op: one ray of the phase diagram.

    ``critical_flip_parameter`` along a direction with two or three nonzero
    components, then ``is_cp`` at a fixed ladder of a * tau from overdamped
    to 50.
    """

    name = "cp_map"
    cycle = 2
    tail_percentile = 85
    min_ops = 67
    count_ops = 16
    probe_ops = 2
    ladder = (0.1, 0.3, 1.0, 3.0, 10.0, 50.0)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def inputs(self) -> list:
        rng = _rng(self.seed, 2)
        n_axes = np.arange(POOL_SIZE) % 2 + 2
        dirs = _directions(rng, n_axes, 0.3)
        taus = rng.uniform(0.5, 2.0, POOL_SIZE)
        return [(dirs[k], float(taus[k])) for k in range(POOL_SIZE)]

    def anchors_ok(self) -> bool:
        """Check the ROADMAP anchors of the phase diagram."""
        one = rtnqubit.critical_flip_parameter((1.0, 1.0, 0.0), 1.0)
        ok = one is not None and abs(one - 0.8097) <= 1e-3
        ok &= rtnqubit.critical_flip_parameter((1.0, 0.0, 0.0), 1.0) is None
        for a in ((1.2, 1.2, 0.0), (50.0, 50.0, 50.0)):
            params = rtnqubit.ModelParams(a=a, tau=1.0)
            verdict = rtnqubit.is_cp(params)
            ok &= not verdict.is_cp and witness_confirmed(params, verdict.witness)
        return bool(ok)

    @staticmethod
    def decade(a_tau: float) -> str:
        return "lo" if a_tau < 1.0 else ("mid" if a_tau < 10.0 else "hi")

    @staticmethod
    def params_at(direction, a_tau: float, tau: float) -> rtnqubit.ModelParams:
        """The point at ``a_tau`` along ``direction`` (largest component 1)."""
        return rtnqubit.ModelParams(a=tuple(direction * (a_tau / tau)), tau=tau)

    def op(self, inp, i: int, tr):
        direction, tau = inp
        boundary = tr.call(
            "positivity.critical_flip_parameter", rtnqubit.critical_flip_parameter, direction, tau
        )
        verdicts = []
        for a_tau in self.ladder:
            params = self.params_at(direction, a_tau, tau)
            verdicts.append(
                (params, tr.call("positivity.is_cp", rtnqubit.is_cp, params, label=self.decade(a_tau)))
            )
        return boundary, verdicts

    def check(self, inp, rec) -> tuple[bool, dict]:
        """The boundary brackets the CP edge and agrees with the ladder verdicts.

        ``critical_flip_parameter`` bisects to ``BOUNDARY_ATOL``, so the map
        must be CP at ``boundary - BOUNDARY_ATOL`` and not CP at
        ``boundary + BOUNDARY_ATOL``; each ladder rung farther than that
        from the boundary must get the verdict of its side (CP on every
        rung when there is no boundary).  Every non-CP verdict must be
        confirmed by the Choi route and must not satisfy the sufficient
        condition.
        """
        direction, tau = inp
        boundary, verdicts = rec
        ok = True
        if boundary is not None:
            ok &= rtnqubit.is_cp(self.params_at(direction, boundary - BOUNDARY_ATOL, tau)).is_cp
            ok &= not rtnqubit.is_cp(self.params_at(direction, boundary + BOUNDARY_ATOL, tau)).is_cp
        tallies: dict = {}
        for a_tau, (params, verdict) in zip(self.ladder, verdicts):
            if boundary is None or a_tau <= boundary - BOUNDARY_ATOL:
                ok &= verdict.is_cp
            elif a_tau >= boundary + BOUNDARY_ATOL:
                ok &= not verdict.is_cp
            if verdict.is_cp:
                _tally(tallies, "positivity.is_cp.not_cp_ratio", 0, 1)
                continue
            confirmed = witness_confirmed(params, verdict.witness)
            _tally(tallies, "positivity.is_cp.not_cp_ratio", 1, 1)
            _tally(tallies, "positivity.witness_confirmed_ratio", int(confirmed), 1)
            ok &= confirmed and not rtnqubit.sufficient_condition(params)
        return bool(ok), tallies


# Bisection tolerance of critical_flip_parameter (its default atol).
BOUNDARY_ATOL = 1e-3


def witness_confirmed(params, witness) -> bool:
    """The Choi route agrees: negative smallest eigenvalue equal to the witness."""
    low = float(rtnqubit.hermitian_eigenvalues(rtnqubit.choi_matrix(params, witness.nu))[0])
    return low < 0.0 and abs(low - witness.value) <= 1e-9


# Volterra tolerance at 1e4 steps over nu in [0, 10], as the existing tests
# set it: 1e-6 up to kappa * tau = 1/4 (criterion 06 and the kernel tests),
# 1e-5 up to kappa * tau = sqrt(2) (the volterra-check CLI test).  Points are
# drawn inside that range.
VOLTERRA_STEPS = 10_000
VOLTERRA_NU_MAX = 10.0
VOLTERRA_KT_MAX = math.sqrt(2.0)


def volterra_tolerance(kappa_tau: float) -> float:
    return 1e-6 if kappa_tau <= 0.25 else 1e-5


class PointAudit:
    """One op: one parameter point probed the way a user does it by hand.

    Per point: ``propagate`` vs ``apply_channel(kraus_from_params)`` and
    ``xi`` vs the Choi spectrum at each of 24 scalar nu; three
    ``solve_volterra`` calls; one in-process ``rtnqubit evolve`` to a file;
    one 32-trajectory ``ensemble_average``.
    """

    name = "point_audit"
    cycle = 3
    tail_percentile = 95
    min_ops = 200
    count_ops = 48
    probe_ops = 2
    nus_per_point = 24
    nu_range = 4.0
    trajectories = 32
    cli_steps = 100

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.cli_out = Path(work_dir) / "point_audit_evolve.csv"
        self.mc_grid = np.linspace(0.0, self.nu_range, 11)

    def inputs(self) -> list:
        rng = _rng(self.seed, 3)
        n_axes = np.arange(POOL_SIZE) % 3 + 1
        dirs = _directions(rng, n_axes, 0.3)
        kt = rng.uniform(0.1, VOLTERRA_KT_MAX, POOL_SIZE)
        taus = rng.uniform(0.5, 2.0, POOL_SIZE)
        b0 = _unit_vectors(rng, POOL_SIZE)
        nus = rng.uniform(0.0, self.nu_range, (POOL_SIZE, self.nus_per_point))
        pool = []
        for k in range(POOL_SIZE):
            params = _scaled_params(dirs[k], kt[k], taus[k])
            pool.append((params, rtnqubit.bloch_to_density(b0[k]), b0[k], nus[k].tolist()))
        return pool

    def anchors_ok(self) -> bool:
        return True

    def _cli_argv(self, params, b0) -> list:
        a1, a2, a3 = params.a
        return [
            "evolve", "--a1", repr(a1), "--a2", repr(a2), "--a3", repr(a3),
            "--tau", repr(params.tau), "--bloch=" + ",".join(repr(float(x)) for x in b0),
            "--nu-max", repr(self.nu_range), "--steps", str(self.cli_steps),
            "--out", str(self.cli_out),
        ]

    def op(self, inp, i: int, tr):
        params, rho0, b0, nus = inp
        per_nu = []
        for nu in nus:
            rho_p = tr.call("telegraph.propagate", rtnqubit.propagate, rho0, nu, params)
            try:
                kraus = tr.call("channels.kraus_from_params", rtnqubit.kraus_from_params, params, nu)
                rho_k = tr.call("channels.apply_channel", rtnqubit.apply_channel, kraus, rho0)
            except rtnqubit.NotCompletelyPositiveError as exc:
                rho_k = exc
            x = tr.call("positivity.xi", rtnqubit.xi, nu, params)
            choi = tr.call("positivity.choi_matrix", rtnqubit.choi_matrix, params, nu)
            spectrum = tr.call("linalg.hermitian_eigenvalues", rtnqubit.hermitian_eigenvalues, choi)
            per_nu.append((rho_p, rho_k, x, spectrum))
        kernel = rtnqubit.ExponentialKernel(tau=params.tau)
        t_max = 2.0 * params.tau * VOLTERRA_NU_MAX
        solutions = [
            tr.call("kernels.solve_volterra", rtnqubit.solve_volterra, kernel, lam, t_max, VOLTERRA_STEPS)
            for lam in rtnqubit.damping_spectrum(params)[1:]
        ]
        code = tr.call("cli.evolve", cli.main, self._cli_argv(params, b0))
        table = self.cli_out.read_text()
        ens = tr.call(
            "montecarlo.ensemble_average", rtnqubit.ensemble_average,
            params, rho0, self.mc_grid, self.trajectories, ensemble_seed(self.seed, i),
            label="small", units=self.trajectories,
        )
        return per_nu, solutions, (code, table), ens

    def check(self, inp, rec) -> tuple[bool, dict]:
        params, rho0, _, _ = inp
        per_nu, solutions, (code, table), ens = rec
        ok = True
        refused = 0
        for rho_p, rho_k, x, spectrum in per_nu:
            if isinstance(rho_k, rtnqubit.NotCompletelyPositiveError):
                refused += 1
                ok &= float(np.min(x)) < -KRAUS_CLAMP
            else:
                ok &= bool(np.max(np.abs(rho_p - rho_k)) <= 1e-12)
            ok &= bool(np.max(np.abs(np.sort(x) - spectrum)) <= 1e-12)
        tallies = {"channels.kraus_refusal_ratio": (refused, len(per_nu))}

        for sol, kt in zip(solutions, params.kappa_taus):
            exact = rtnqubit.relaxation_profile(sol.nu_grid(params.tau), kt)
            ok &= bool(np.max(np.abs(sol.values - exact)) <= volterra_tolerance(kt))

        lines = table.splitlines()
        ok &= code == 0 and lines[0].split(",")[4:] == ["lambda1", "lambda2", "lambda3"]
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        ok &= rows.shape == (self.cli_steps + 1, 7)
        ok &= bool(np.array_equal(rows[:, 4:].T, rtnqubit.relaxation_profiles(rows[:, 0], params)))

        b_start = rtnqubit.density_to_bloch(rho0)
        ok &= bool(np.all(np.linalg.norm(ens.mean_bloch, axis=1) <= 1.0 + 1e-12))
        ok &= bool(np.all(np.abs(ens.mean_bloch[0] - b_start) <= 1e-12))
        return bool(ok), tallies


WORKLOADS = {cls.name: cls for cls in (McOracle, CpMap, PointAudit)}


def make(name: str, seed: int, work_dir: Path):
    """The workload called ``name``, generating its inputs from ``seed``."""
    return WORKLOADS[name](seed, work_dir)
