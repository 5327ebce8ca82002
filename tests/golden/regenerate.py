"""Golden fingerprints of obsmhe's CLI artifacts and library results.

    PYTHONPATH=src python3 tests/golden/regenerate.py

writes tests/golden/fingerprints.json from the code in the checkout.
`tests/test_golden.py` recomputes every case and compares it with that
file. A change that moves results on purpose regenerates the file, so
the diff of the file shows each moved value.

Each case is a record of
- "numbers": every float the case produces, as float64 hex, keyed by
  where it comes from ("windows.csv:r2:error", "xi_star[0]");
- "other": every other value (exit codes, verdicts, strings, flags);
- "sha256": for CLI cases, the digest of each artifact file.

Only a sample of the rows of `trajectory.csv` enters "numbers" (every
`TRAJECTORY_STRIDE`-th row and the last); its digest covers all of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
TRAJECTORY_STRIDE = 60

# cst-default runs into its landmark at t = 1, so it gets the short grid.
PRESET_CONFIGS = {
    "circ-default": {"system": "circ-default"},
    "spi-default": {"system": "spi-default"},
    "cst-default": {"system": "cst-default", "T": 0.5,
                    "t_grid": {"start": 0.5, "stop": 0.9, "count": 3}},
}
MHE_VARIANTS = {
    "default": {},
    "seeded-uniform-both": {"noise": {"family": "seeded-uniform",
                                      "amplitude": 1e-3, "seed": 0,
                                      "apply_to": "both"}},
    "full_fd": {"solver": {"hessian_mode": "full_fd"}},
}
# An mhe-run whose last three windows end at or past cst's landmark: their
# rows record the failed reference, and the run still writes both artifacts.
PAST_LANDMARK = {**PRESET_CONFIGS["cst-default"],
                 "t_grid": {"start": 0.5, "stop": 1.5, "count": 5}}

# Library cases: one window of the [0, 6] run grid at a coarse step. At
# t = 3.3, T = 1 a [0, t - T] grid cut with its own step (t - T) / n would
# differ from the run grid's step in the last bit.
GRID_END, STEP, T_END, HORIZON = 6.0, 0.005, 3.3, 1.0
SYSTEMS = ("circ", "spi", "nonlinear")


def platform_record() -> dict:
    """What the bytes of a result depend on besides the code."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def nonlinear_scenario():
    """(system, input) whose state-transition matrix is not the identity:
    x' = (-x1^3 + u1, x1 - 0.5 x2 + u2), y = (x1 + 0.1 x2^2, x2)."""
    from obsmhe import ControlSystem, InputSignal

    sys_ = ControlSystem(
        n_x=2, n_u=2, n_y=2,
        f=lambda x, u: np.array([-x[0] ** 3 + u[0], x[0] - 0.5 * x[1] + u[1]]),
        h=lambda x, u: np.array([x[0] + 0.1 * x[1] ** 2, x[1]]),
        df_dx=lambda x, u: np.array([[-3.0 * x[0] ** 2, 0.0], [1.0, -0.5]]),
        dh_dx=lambda x, u: np.array([[1.0, 0.2 * x[1]], [0.0, 1.0]]),
    )
    u = InputSignal.from_callable(lambda s: np.hstack([np.sin(s), np.cos(2.0 * s)]))
    return sys_, u


def unicycle_scenario():
    """(system, input, x0) of a unicycle with a bearing sensor, whose
    state-transition matrix is not the identity: x' = (v cos th,
    v sin th, w), y = (l - p) / |l - p| the unit bearing from the position
    p = (x1, x2) to the landmark l = (0, 0), input (v, w) = (1, 1). From
    (1, 0, pi/2) it circles the landmark at radius 1.

    Its row callbacks are elementwise in the rows, and each per-row
    callback is its row form on one row, so the two agree bit for bit.
    """
    from obsmhe import ControlSystem, InputSignal

    def f_rows(xs, u):  # u is one shared row (n_u,) or one row per state
        out = np.empty(xs.shape)
        out[:, 0] = u[..., 0] * np.cos(xs[:, 2])
        out[:, 1] = u[..., 0] * np.sin(xs[:, 2])
        out[:, 2] = u[..., 1]
        return out

    def df_dx_rows(xs, u):
        out = np.zeros((xs.shape[0], 3, 3))
        out[:, 0, 2] = -u[..., 0] * np.sin(xs[:, 2])
        out[:, 1, 2] = u[..., 0] * np.cos(xs[:, 2])
        return out

    def squared_ranges(xs):
        return xs[:, 0] * xs[:, 0] + xs[:, 1] * xs[:, 1]

    def h_rows(xs, u):
        return -xs[:, :2] / np.sqrt(squared_ranges(xs))[:, None]

    def dh_dx_rows(xs, u):
        r2 = squared_ranges(xs)
        r3 = r2 * np.sqrt(r2)
        out = np.zeros((xs.shape[0], 2, 3))
        out[:, 0, 0] = -xs[:, 1] * xs[:, 1] / r3
        out[:, 0, 1] = out[:, 1, 0] = xs[:, 0] * xs[:, 1] / r3
        out[:, 1, 1] = -xs[:, 0] * xs[:, 0] / r3
        return out

    def guard_rows(xs):
        return squared_ranges(xs) >= 1e-18

    def one_row(rows):
        return lambda x, u: rows(x[None], u)[0]

    sys_ = ControlSystem(
        n_x=3, n_u=2, n_y=2, f=one_row(f_rows), h=one_row(h_rows),
        df_dx=one_row(df_dx_rows), dh_dx=one_row(dh_dx_rows),
        domain_guard=lambda x: bool(guard_rows(x[None])[0]), f_rows=f_rows,
        domain_guard_rows=guard_rows, df_dx_rows=df_dx_rows, h_rows=h_rows,
        dh_dx_rows=dh_dx_rows)
    return sys_, InputSignal.constant([1.0, 1.0]), np.array([1.0, 0.0, np.pi / 2])


# -- flattening --------------------------------------------------------------

def _record() -> dict:
    return {"numbers": {}, "other": {}}


def _put(rec: dict, key: str, value) -> None:
    """File a leaf value under "numbers" (floats, as hex) or "other"."""
    if isinstance(value, (bool, np.bool_)):
        rec["other"][key] = bool(value)
    elif value is None or isinstance(value, str):
        rec["other"][key] = value
    elif isinstance(value, (int, np.integer)):
        rec["other"][key] = int(value)
    else:
        rec["numbers"][key] = float(value).hex()


def _put_tree(rec: dict, key: str, value) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _put_tree(rec, f"{key}.{k}" if key else k, value[k])
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, v in enumerate(value):
            _put_tree(rec, f"{key}[{i}]", v)
    else:
        _put(rec, key, value)


def _cell(text: str):
    """A CSV cell as the float it spells, or the text itself."""
    if text in ("true", "false"):
        return text
    try:
        return float(text)
    except ValueError:
        return text


# -- CLI cases -----------------------------------------------------------------

# `nonlinear` as a registered CLI system, started at (1, 0). It has no row
# callbacks, so its CLI runs take the per-row fallbacks.
NONLINEAR_CONFIG = {"system": {"name": "nonlinear"}}


def _nonlinear_factory(system: dict):
    sys_, u = nonlinear_scenario()
    return sys_, np.array([1.0, 0.0]), u


# The unicycle as a registered CLI system. It has every row callback, so
# its runs take the row forms, tangents through df_dx_rows included.
UNICYCLE_CONFIG = {"system": {"name": "unicycle"}}


def _unicycle_factory(system: dict):
    sys_, u, x0 = unicycle_scenario()
    return sys_, x0, u


@contextlib.contextmanager
def _registered(systems: dict):
    """`cli.register_system` for each of systems, undone on exit."""
    from obsmhe import cli

    saved = dict(cli.SYSTEM_FACTORIES)
    for name, factory in systems.items():
        cli.register_system(name, factory)
    try:
        yield
    finally:
        cli.SYSTEM_FACTORIES.clear()
        cli.SYSTEM_FACTORIES.update(saved)


def _cli_case(command: str, config: dict, systems: Optional[dict] = None):
    def run() -> dict:
        from obsmhe import cli

        rec = _record()
        rec["sha256"] = {}
        with tempfile.TemporaryDirectory() as tmp, _registered(systems or {}):
            cfg_path = Path(tmp) / "config.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            out = Path(tmp) / "out"
            rec["other"]["exit"] = cli.main([command, "--config", str(cfg_path),
                                             "--out", str(out)])
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                rec["sha256"][path.name] = hashlib.sha256(data).hexdigest()
                text = data.decode("utf-8")
                if path.suffix == ".json":
                    _put_tree(rec, f"{path.name}:", json.loads(text))
                    continue
                lines = text.splitlines()
                header = lines[0].split(",")
                rows = list(enumerate(lines[1:]))
                if path.name == "trajectory.csv":
                    rows = rows[::TRAJECTORY_STRIDE] + rows[-1:]
                for r, line in rows:
                    for name, cell in zip(header, line.split(",", len(header) - 1)):
                        _put(rec, f"{path.name}:r{r}:{name}", _cell(cell))
        return rec
    return run


def _cli_cases() -> dict:
    cases = {}
    for preset, base in PRESET_CONFIGS.items():
        for command in ("simulate", "grammian-scan", "stability-audit"):
            cases[f"cli/{command}/{preset}"] = _cli_case(command, base)
        for variant, extra in MHE_VARIANTS.items():
            cases[f"cli/mhe-run/{preset}/{variant}"] = _cli_case("mhe-run",
                                                                 {**base, **extra})
    cases["cli/mhe-run/cst-default/past-landmark"] = _cli_case("mhe-run", PAST_LANDMARK)
    nonlinear = {"nonlinear": _nonlinear_factory}
    for command in ("simulate", "grammian-scan", "stability-audit"):
        cases[f"cli/{command}/nonlinear"] = _cli_case(command, NONLINEAR_CONFIG,
                                                      nonlinear)
    for variant in ("default", "seeded-uniform-both"):
        cases[f"cli/mhe-run/nonlinear/{variant}"] = _cli_case(
            "mhe-run", {**NONLINEAR_CONFIG, **MHE_VARIANTS[variant]}, nonlinear)
    unicycle = {"unicycle": _unicycle_factory}
    for command in ("simulate", "grammian-scan", "stability-audit"):
        cases[f"cli/{command}/unicycle"] = _cli_case(command, UNICYCLE_CONFIG, unicycle)
    for variant in ("default", "seeded-uniform-both"):
        cases[f"cli/mhe-run/unicycle/{variant}"] = _cli_case(
            "mhe-run", {**UNICYCLE_CONFIG, **MHE_VARIANTS[variant]}, unicycle)
    return cases


# -- library cases -------------------------------------------------------------

def _scenario(name: str):
    from obsmhe import bearing

    if name == "nonlinear":
        return nonlinear_scenario()
    sys_, _, u, _ = bearing.preset_scenario(f"{name}-default")
    return sys_, u


def _setting(name: str):
    from obsmhe import TimeGrid

    sys_, u = _scenario(name)
    return sys_, u, np.array([1.0, 0.0]), TimeGrid.with_step(0.0, GRID_END, STEP)


def _noises(sys_, grid) -> dict:
    from obsmhe import ZERO_NOISE, NoiseSignals, SampledSignal

    n = grid.n_steps + 1
    rng = np.random.default_rng(5)
    return {
        "zero": ZERO_NOISE,
        "constant-v": NoiseSignals(v=SampledSignal.constant(
            [1e-3, -2e-3], T_END - HORIZON, T_END, grid.h)),
        "uniform-vw": NoiseSignals(
            v=SampledSignal(0.0, grid.h, 1e-3 * rng.uniform(-1.0, 1.0, (n, sys_.n_y))),
            w=SampledSignal(0.0, grid.h, 1e-3 * rng.uniform(-1.0, 1.0, (n, sys_.n_x)))),
    }


_SOLVER = {"ball_radius": 0.1, "grad_tol": 1e-9}


def _solution(rec: dict, key: str, sol) -> None:
    for field in ("xi_star", "cost", "grad_norm", "hess_min_eig", "iterations",
                  "converged", "projected", "error_to_reference"):
        _put_tree(rec, f"{key}{field}", getattr(sol, field))


def _solve_case(system: str, noise: str):
    def run() -> dict:
        from obsmhe import SolverOptions, solve_pmhe

        sys_, u, x0, grid = _setting(system)
        rec = _record()
        _solution(rec, "", solve_pmhe(sys_, x0, u, T_END, HORIZON,
                                      _noises(sys_, grid)[noise],
                                      SolverOptions(**_SOLVER), grid))
        return rec
    return run


def _uniform_audit_case(system: str):
    def run() -> dict:
        from obsmhe import audit_uniform_stability

        sys_, u, x0, _ = _setting(system)
        audit = audit_uniform_stability(
            sys_, x0, u, HORIZON, [2.0, T_END], R=0.02, nu=1e-4, alpha=0.6,
            grid_step=STEP, seed=0, n_xi_samples=2, n_eta_samples=2,
            t_subsample=2, raise_on_failure=False)
        rec = _record()
        for field in ("mu_hat", "a1_hat", "a2_hat", "g3_hat", "g1", "g2",
                      "conditions_ok", "bound_factor"):
            _put_tree(rec, field, getattr(audit, field))
        return rec
    return run


def _nonuniform_audit_case(system: str):
    def run() -> dict:
        from obsmhe import audit_nonuniform_stability

        sys_, u, x0, grid = _setting(system)
        audit = audit_nonuniform_stability(sys_, x0, u, T_END, HORIZON, 1e-3, grid,
                                           seed=9, n_noise_samples=3)
        rec = _record()
        for field in ("mu_t", "C1_t", "C2_t", "K_t"):
            _put(rec, field, getattr(audit, field))
        return rec
    return run


def _hessian_case(system: str):
    def run() -> dict:
        from obsmhe import flow, hess_cum_error

        sys_, u, x0, grid = _setting(system)
        t1 = T_END - HORIZON
        xi1 = flow(sys_, 0.0, t1, x0, u, grid)[-1]
        rec = _record()
        _put_tree(rec, "hessian", hess_cum_error(
            sys_, t1, T_END, xi1, xi1 + np.array([0.01, -0.02]), u, grid,
            mode="full_fd"))
        return rec
    return run


def _window_cost_case(system: str):
    def run() -> dict:
        from obsmhe import (cum_output_error, flow, grad_cum_error,
                            grad_perturbed_cost, hess_cum_error, perturbed_cost)

        sys_, u, x0, grid = _setting(system)
        t1 = T_END - HORIZON
        xi1 = flow(sys_, 0.0, t1, x0, u, grid)[-1]
        xi2 = xi1 + np.array([0.01, -0.02])
        eta = _noises(sys_, grid)["uniform-vw"]
        rec = _record()
        _put(rec, "cum_output_error",
             cum_output_error(sys_, t1, T_END, xi1, xi2, u, grid).value)
        _put_tree(rec, "grad_cum_error", grad_cum_error(sys_, t1, T_END, xi1, xi2, u, grid))
        _put_tree(rec, "hess_cum_error", hess_cum_error(
            sys_, t1, T_END, xi1, xi2, u, grid, mode="gauss_newton"))
        _put(rec, "perturbed_cost",
             perturbed_cost(sys_, T_END, HORIZON, x0, xi2, u, eta, grid).value)
        _put_tree(rec, "grad_perturbed_cost",
                  grad_perturbed_cost(sys_, T_END, HORIZON, x0, xi2, u, eta, grid))
        return rec
    return run


def _multistart_case(system: str):
    def run() -> dict:
        from obsmhe import SolverOptions, multistart_uniqueness

        sys_, u, x0, grid = _setting(system)
        rep = multistart_uniqueness(sys_, x0, u, T_END, HORIZON, R=0.05,
                                    n_starts=3, seed=1,
                                    opts=SolverOptions(**_SOLVER), grid=grid)
        rec = _record()
        for field in ("unique", "failures", "max_pairwise_distance",
                      "cluster_radius"):
            _put_tree(rec, field, getattr(rep, field))
        for i, sol in enumerate(rep.solutions):
            _solution(rec, f"solutions[{i}].", sol)
        return rec
    return run


def _library_cases() -> dict:
    cases = {}
    for system in SYSTEMS:
        for noise in ("zero", "constant-v", "uniform-vw"):
            cases[f"lib/solve_pmhe/{system}/{noise}"] = _solve_case(system, noise)
        cases[f"lib/audit_uniform_stability/{system}"] = _uniform_audit_case(system)
        cases[f"lib/audit_nonuniform_stability/{system}"] = _nonuniform_audit_case(system)
        cases[f"lib/hess_cum_error_full_fd/{system}"] = _hessian_case(system)
        cases[f"lib/window_costs/{system}"] = _window_cost_case(system)
        cases[f"lib/multistart_uniqueness/{system}"] = _multistart_case(system)
    return cases


CASES = {**_cli_cases(), **_library_cases()}


def main() -> None:
    payload = {"recorded_on": platform_record(),
               "cases": {name: run() for name, run in CASES.items()}}
    FINGERPRINTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(payload['cases'])} cases to {FINGERPRINTS}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
