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

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

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
    u = InputSignal.from_callable(lambda s: np.array([np.sin(s), np.cos(2.0 * s)]))
    return sys_, u


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

def _cli_case(command: str, config: dict):
    def run() -> dict:
        from obsmhe import cli

        rec = _record()
        rec["sha256"] = {}
        with tempfile.TemporaryDirectory() as tmp:
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
