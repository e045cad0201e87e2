"""Batch command-line front end.

Emits plot-ready tables (CSV or JSON) for the library's analyses: Bloch
evolution curves, CP eigenvalue scans, phase-boundary bisection, Monte
Carlo validation, the white-noise limit and the Volterra cross-check.
No plotting dependencies; every command is deterministic given its
configuration (including the seed).

Exit codes: 0 success, 1 computational verdict failure (where a command
defines one), 2 usage or configuration error.

Options may come from a flat ``key=value`` config file (``--config``);
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, kernels, linalg, montecarlo, positivity, telegraph
from .telegraph import ModelParams

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"could not parse {text!r} as numbers") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p.strip()) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"could not parse {text!r} as a number list") from exc


def _parse_format(text: str) -> str:
    text = str(text).strip().lower()
    if text not in ("csv", "json"):
        raise UsageError(f"format must be 'csv' or 'json', got {text!r}")
    return text


_KEY_PARSERS = {
    "a1": float,
    "a2": float,
    "a3": float,
    "tau": float,
    "nu_max": float,
    "steps": int,
    "trajectories": int,
    "seed": int,
    "direction": _parse_triple,
    "bloch": _parse_triple,
    "t_max": float,
    "tau_ladder": _parse_float_list,
    "tol": float,
    "format": _parse_format,
    "out": str,
}

_COMMON_DEFAULTS = {
    "a1": 1.0,
    "a2": 1.0,
    "a3": 0.0,
    "tau": 1.0,
    "seed": 20260809,
    "format": "csv",
    "out": None,
}

_COMMAND_DEFAULTS = {
    "evolve": {"nu_max": 5.0, "steps": 200, "bloch": (1.0, 0.0, 0.0)},
    "cp-scan": {"nu_max": None, "steps": 400},
    "critical": {"direction": None},
    "mc-validate": {
        "nu_max": 3.0,
        "steps": 50,
        "trajectories": 2000,
        "bloch": (1.0 / math.sqrt(3.0),) * 3,
    },
    "markov-compare": {"t_max": 5.0, "steps": 100, "tau_ladder": None},
    "volterra-check": {"nu_max": 10.0, "steps": 10000, "tol": 1e-5},
}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEY_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _KEY_PARSERS[key](value.strip())
        except (ValueError, UsageError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_COMMAND_DEFAULTS[command])
    if args.config:
        file_cfg = _load_config(args.config)
        cfg.update({k: v for k, v in file_cfg.items() if k in cfg or k in _KEY_PARSERS})
    for key in _KEY_PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = _KEY_PARSERS[key](flag) if isinstance(flag, str) else flag
    if cfg.get("seed") is not None and cfg["seed"] < 0:
        raise UsageError("seed must be >= 0")
    if cfg.get("steps") is not None and cfg["steps"] < 1:
        raise UsageError("steps must be >= 1")
    if cfg.get("trajectories") is not None and cfg["trajectories"] < 1:
        raise UsageError("trajectories must be >= 1")
    if cfg.get("nu_max") is not None and cfg["nu_max"] < 0.0:
        raise UsageError("nu-max must be >= 0")
    for key in ("t_max", "tol"):
        if cfg.get(key) is not None and cfg[key] <= 0.0:
            raise UsageError(f"{key.replace('_', '-')} must be > 0")
    return cfg


def _model_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(a=(cfg["a1"], cfg["a2"], cfg["a3"]), tau=cfg["tau"])
    except ValueError as exc:
        raise UsageError(f"invalid model parameters: {exc}") from exc


def _bloch_vector(cfg: dict) -> np.ndarray:
    b = np.asarray(cfg["bloch"], dtype=float)
    if np.linalg.norm(b) > 1.0 + linalg.BLOCH_NORM_TOL:
        raise UsageError(f"initial Bloch vector {tuple(b)} lies outside the sphere")
    return b


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value + 0.0, ".17g")  # folds -0.0 into 0
    return str(value)


def _json_safe(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return value + 0.0
    return value


def _emit(cfg: dict, meta: dict, columns: list, rows: list, verdict: str | None = None) -> None:
    if cfg["format"] == "json":
        payload = {
            "meta": {**meta, "columns": list(columns)},
            "rows": [[_json_safe(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"

    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        if verdict:
            print(verdict)
    else:
        sys.stdout.write(text)
        if verdict and cfg["format"] == "csv":
            print(f"# {verdict}")


def _meta(command: str, cfg: dict, **extra) -> dict:
    echo = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in sorted(cfg.items())
        if v is not None
    }
    return {"command": command, "version": __version__, "config": echo, **extra}


def _cmd_evolve(cfg: dict) -> int:
    params = _model_params(cfg)
    b0 = _bloch_vector(cfg)
    grid = np.linspace(0.0, cfg["nu_max"], cfg["steps"] + 1)
    profiles = telegraph.relaxation_profiles(grid, params)
    rows = [
        [
            float(nu),
            float(profiles[0, i] * b0[0]),
            float(profiles[1, i] * b0[1]),
            float(profiles[2, i] * b0[2]),
            float(profiles[0, i]),
            float(profiles[1, i]),
            float(profiles[2, i]),
        ]
        for i, nu in enumerate(grid)
    ]
    columns = ["nu", "b1", "b2", "b3", "lambda1", "lambda2", "lambda3"]
    _emit(cfg, _meta("evolve", cfg), columns, rows)
    return 0


def _cmd_cp_scan(cfg: dict) -> int:
    params = _model_params(cfg)
    if cfg["nu_max"] is not None and cfg["nu_max"] <= 0.0:
        raise UsageError("cp-scan needs a positive nu-max")
    verdict = positivity.is_cp(params, nu_max=cfg["nu_max"])
    grid = np.linspace(0.0, verdict.horizon, cfg["steps"] + 1)
    table = positivity.xi(grid, params)
    rows = [
        [float(nu)] + [float(table[j, i]) for j in range(4)]
        for i, nu in enumerate(grid)
    ]
    if verdict.is_cp:
        line = f"verdict: completely positive (scan horizon nu = {verdict.horizon:.6g})"
        witness = None
    else:
        w = verdict.witness
        line = (
            f"verdict: not completely positive; "
            f"xi_{w.index}(nu = {w.nu:.9g}) = {w.value:.9e}"
        )
        witness = {"nu": w.nu, "index": w.index, "value": w.value}
    meta = _meta(
        "cp-scan",
        cfg,
        verdict={"is_cp": verdict.is_cp, "horizon": verdict.horizon, "witness": witness},
    )
    _emit(cfg, meta, ["nu", "xi1", "xi2", "xi3", "xi4"], rows, verdict=line)
    return 0


def _cmd_critical(cfg: dict) -> int:
    if cfg["direction"] is None:
        raise UsageError("critical requires --direction d1,d2,d3")
    direction = cfg["direction"]
    try:
        boundary = positivity.critical_flip_parameter(direction, cfg["tau"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if boundary is None:
        line = "completely positive for all tested scales (a*tau up to 1e4)"
        value = math.inf
    else:
        line = f"critical coupling: a*tau = {boundary:.6g}"
        value = boundary
    rows = [[direction[0], direction[1], direction[2], value]]
    meta = _meta("critical", cfg, verdict={"a_tau_critical": _json_safe(value)})
    _emit(cfg, meta, ["dir1", "dir2", "dir3", "a_tau_critical"], rows, verdict=line)
    return 0


def _cmd_mc_validate(cfg: dict) -> int:
    params = _model_params(cfg)
    b0 = _bloch_vector(cfg)
    rho0 = linalg.bloch_to_density(b0)
    grid = np.linspace(0.0, cfg["nu_max"], cfg["steps"] + 1)
    n = cfg["trajectories"]
    if n == 1:
        t_max = float(2.0 * params.tau * grid[-1]) or 2.0 * params.tau
        rng = montecarlo.trajectory_rng(cfg["seed"], 0)
        paths = tuple(
            montecarlo.sample_path(params.tau, params.a[k], t_max, rng) for k in range(3)
        )
        mean = montecarlo.evolve_trajectory(paths, rho0, grid)
        stderr = np.zeros_like(mean)
    else:
        result = montecarlo.ensemble_average(params, rho0, grid, n, cfg["seed"])
        mean, stderr = result.mean_bloch, result.stderr

    profiles = telegraph.relaxation_profiles(grid, params)  # (3, npts)
    # compare against the Bloch vector the trajectories actually started
    # from (the density-matrix round trip of b0), so conserved components
    # agree exactly instead of at 1e-15
    b_start = linalg.density_to_bloch(rho0)
    analytic = profiles * b_start[:, None]
    diff = mean.T - analytic  # (3, npts)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            stderr.T > 0.0, diff / stderr.T, np.where(diff == 0.0, 0.0, math.inf)
        )
    # a point passes on the statistical contract or on numerical exactness
    # (zero-variance components have no meaningful z)
    ok = (np.abs(z) <= 3.0) | (np.abs(diff) <= 1e-12)
    fraction = float(np.mean(ok))
    passed = fraction >= 0.95

    rows = []
    for i, nu in enumerate(grid):
        row = [float(nu)]
        row += [float(analytic[k, i]) for k in range(3)]
        row += [float(mean[i, k]) for k in range(3)]
        row += [float(stderr[i, k]) for k in range(3)]
        row += [float(z[k, i]) for k in range(3)]
        rows.append(row)
    columns = (
        ["nu"]
        + [f"analytic_b{k}" for k in (1, 2, 3)]
        + [f"mc_mean{k}" for k in (1, 2, 3)]
        + [f"mc_se{k}" for k in (1, 2, 3)]
        + [f"z{k}" for k in (1, 2, 3)]
    )
    line = (
        f"z-check: {fraction:.4f} of points within |z| <= 3 "
        f"({'pass' if passed else 'FAIL'}, N = {n})"
    )
    meta = _meta(
        "mc-validate", cfg, verdict={"fraction_within_3se": fraction, "passed": passed}
    )
    _emit(cfg, meta, columns, rows, verdict=line)
    return 0 if passed else 1


def _cmd_markov_compare(cfg: dict) -> int:
    a = cfg["a1"]
    if not (a > 0.0 and math.isfinite(a)):
        raise UsageError("markov-compare needs a positive coupling --a1")
    tau0 = cfg["tau"]
    if tau0 <= 0.0:
        raise UsageError("tau must be > 0")
    ladder = cfg["tau_ladder"] or (tau0, tau0 / 10.0, tau0 / 100.0)
    if any(t <= 0.0 for t in ladder):
        raise UsageError("tau ladder values must be > 0")
    diffusion = 2.0 * a * a * tau0
    gamma = 2.0 * diffusion  # = 4 kappa^2 tau at every rung
    t = np.linspace(0.0, cfg["t_max"], cfg["steps"] + 1)
    markov = np.exp(-gamma * t)
    rows = []
    for tau_k in ladder:
        a_k = math.sqrt(diffusion / (2.0 * tau_k))
        colored = telegraph.relaxation_profile(t / (2.0 * tau_k), a_k * tau_k)
        for i, t_i in enumerate(t):
            rows.append(
                [
                    float(tau_k),
                    float(t_i),
                    float(colored[i]),
                    float(markov[i]),
                    float(abs(colored[i] - markov[i])),
                    float(gamma),
                ]
            )
    columns = ["tau", "t", "lambda_colored", "lambda_markov", "abs_diff", "gamma"]
    _emit(cfg, _meta("markov-compare", cfg), columns, rows)
    return 0


def _cmd_volterra_check(cfg: dict) -> int:
    params = _model_params(cfg)
    if cfg["steps"] < 2:
        raise UsageError("volterra-check needs at least 2 quadrature steps")
    kernel = kernels.ExponentialKernel(tau=params.tau)
    spectrum = telegraph.damping_spectrum(params)[1:]
    t_max = 2.0 * params.tau * cfg["nu_max"]
    rows = []
    worst = 0.0
    for i, (lam_i, kt) in enumerate(zip(spectrum, params.kappa_taus), start=1):
        solution = kernels.solve_volterra(kernel, lam_i, t_max, cfg["steps"])
        exact = telegraph.relaxation_profile(solution.nu_grid(params.tau), kt)
        dev = float(np.max(np.abs(solution.values - exact)))
        worst = max(worst, dev)
        rows.append([i, float(kt), dev])
    passed = worst <= cfg["tol"]
    line = (
        f"max deviation {worst:.6e} vs tolerance {cfg['tol']:g} "
        f"({'pass' if passed else 'FAIL'}, {cfg['steps']} steps)"
    )
    meta = _meta(
        "volterra-check", cfg, verdict={"max_abs_deviation": worst, "passed": passed}
    )
    _emit(cfg, meta, ["component", "kappa_tau", "max_abs_deviation"], rows, verdict=line)
    return 0 if passed else 1


_DISPATCH = {
    "evolve": _cmd_evolve,
    "cp-scan": _cmd_cp_scan,
    "critical": _cmd_critical,
    "mc-validate": _cmd_mc_validate,
    "markov-compare": _cmd_markov_compare,
    "volterra-check": _cmd_volterra_check,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a1", type=float, help="coupling along sigma_1")
    common.add_argument("--a2", type=float, help="coupling along sigma_2")
    common.add_argument("--a3", type=float, help="coupling along sigma_3")
    common.add_argument("--tau", type=float, help="flip timescale (> 0)")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--out", help="write the table to this path instead of stdout")
    common.add_argument("--config", help="flat key=value config file; flags override")

    parser = argparse.ArgumentParser(
        prog="rtnqubit",
        description="Qubit evolution and complete-positivity analysis "
        "under random telegraph noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[common], help="Bloch components and profiles over nu")
    p.add_argument("--nu-max", dest="nu_max", type=float, help="grid endpoint")
    p.add_argument("--steps", type=int, help="number of grid intervals")
    p.add_argument("--bloch", help="initial Bloch vector bx,by,bz")

    p = sub.add_parser("cp-scan", parents=[common], help="xi curves plus a CP verdict")
    p.add_argument("--nu-max", dest="nu_max", type=float, help="override the scan horizon")
    p.add_argument("--steps", type=int, help="number of output grid intervals")

    p = sub.add_parser("critical", parents=[common], help="CP boundary along a coupling direction")
    p.add_argument("--direction", help="coupling direction d1,d2,d3")

    p = sub.add_parser("mc-validate", parents=[common], help="Monte Carlo vs analytic profiles")
    p.add_argument("--nu-max", dest="nu_max", type=float, help="grid endpoint")
    p.add_argument("--steps", type=int, help="number of grid intervals")
    p.add_argument("--trajectories", type=int, help="ensemble size N")
    p.add_argument("--bloch", help="initial Bloch vector bx,by,bz")

    p = sub.add_parser(
        "markov-compare", parents=[common],
        help="colored-noise profile vs white-noise limit down a tau ladder",
    )
    p.add_argument("--t-max", dest="t_max", type=float, help="physical-time grid endpoint")
    p.add_argument("--steps", type=int, help="number of grid intervals")
    p.add_argument("--tau-ladder", dest="tau_ladder", help="comma-separated tau values")

    p = sub.add_parser(
        "volterra-check", parents=[common],
        help="quadrature solution vs closed-form profiles",
    )
    p.add_argument("--nu-max", dest="nu_max", type=float, help="comparison horizon in nu")
    p.add_argument("--steps", type=int, help="quadrature steps")
    p.add_argument("--tol", type=float, help="max deviation tolerated for exit code 0")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _effective_config(args.command, args)
        return _DISPATCH[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
