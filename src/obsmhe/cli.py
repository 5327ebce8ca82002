"""Command-line interface: scenario configs in, CSV/JSON reports out.

Verbs:

* ``simulate``        -- integrate the scenario and dump t, x, u, y rows.
* ``grammian-scan``   -- eigenvalue scan over windows plus a persistence
                         certificate.
* ``mhe-run``         -- rolling (perturbed) moving-horizon estimation.
* ``stability-audit`` -- uniform stability margin audit.

All commands read a single JSON config (``--config``), write artifacts
into ``--out``, and are deterministic given the config: seeds are part of
the config, CSV floats are printed with shortest round-trip precision,
and JSON keys are sorted. Presets expand into a fully explicit config
before execution; the expanded config is logged and embedded in every
JSON report so a run can be replayed exactly.

Exit codes: 0 success, 2 malformed config, 3 stability/hypothesis
conditions failed, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys as _sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import bearing
from .cost import _window_grid
from .errors import (CertificationInconclusive, ConditionsFailed, ConfigError,
                     GridMismatch, ObsMheError, SingularWindow)
from .grammian import certify_weak_regular_persistence
from .mhe_solver import (HESSIAN_MODES, SolverOptions, audit_uniform_stability,
                         rolling_estimate)
from .ode_core import (Array, ControlSystem, InputSignal, NoiseSignals,
                       SampledSignal, TimeGrid, ZERO_NOISE, flow, is_number,
                       outputs_rows, require)

# Registry for systems beyond the stock presets: factories return
# (ControlSystem, x0, InputSignal).
SYSTEM_FACTORIES: dict[str, Callable[[dict], tuple[ControlSystem, Array, InputSignal]]] = {}


def register_system(name: str,
                    factory: Callable[[dict], tuple[ControlSystem, Array, InputSignal]]) -> None:
    SYSTEM_FACTORIES[name] = factory


# Every config field by its path, with its default and its rule: a
# `RULES` name or the tuple of the values allowed. A field whose default
# is _ABSENT stays out of the expanded config unless the config gives it;
# a field whose default is None may also be null.
_ABSENT = object()
_SCHEMA = {
    "T": (1.0, "positive"), "grid_step": (0.0025, "positive"),
    "t_grid.start": (1.0, "number"), "t_grid.stop": (6.0, "number"),
    "t_grid.count": (6, "count"),
    "noise.family": ("zero", ("zero", "constant", "sinusoid", "seeded-uniform")),
    "noise.amplitude": (0.0, "nonnegative"), "noise.seed": (0, "whole"),
    "noise.apply_to": ("v", ("v", "w", "both")),
    "noise.frequency": (_ABSENT, "number"), "noise.phase": (_ABSENT, "number"),
    "solver.ball_radius": (0.1, "positive"), "solver.max_iters": (50, "whole"),
    "solver.grad_tol": (1e-9, "nonnegative"),
    "solver.hessian_mode": ("gauss_newton", HESSIAN_MODES),
    "audit.R": (0.02, "positive"), "audit.alpha": (0.6, "fraction"),
    "audit.nu": (1e-4, "nonnegative"), "audit.mu_threshold": (1e-3, "nonnegative"),
    "audit.seed": (0, "whole"), "audit.n_ball_samples": (16, "count"),
    "audit.n_xi_samples": (2, "count"), "audit.n_eta_samples": (2, "count"),
    "audit.t_subsample": (3, "count"), "audit.singular_tol": (None, "nonnegative"),
    "audit.witness_step": (0.01, "positive"),
}


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise ConfigError(msg, field=field)


def _field(field: str, fn: Callable, /, *args, **kwargs):
    """fn(*args, **kwargs); a ConfigError naming the field for the
    ValueError or GridMismatch it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, GridMismatch) as exc:
        raise ConfigError(str(exc), field=field) from None


def _check_preset_params(system: dict) -> None:
    """ConfigError naming the field unless landmark and x0 are two numbers
    each and the parameters of the input law, those given and those it
    has no default for, are numbers (spi divides by a nonzero omega)."""
    for key in ("landmark", "x0"):
        v = system.get(key)
        _require(isinstance(v, (list, tuple)) and len(v) == 2
                 and all(is_number(c) for c in v),
                 f"system.{key}", f"{key} must be a list of two numbers")
    law, names = bearing.INPUT_LAWS[system["input"]]
    params = inspect.signature(law).parameters
    for key in names:
        if key in system or params[key].default is inspect.Parameter.empty:
            _field(f"system.{key}", require, "number", **{key: system.get(key)})
    if system["input"] == "spi":
        _require(system["omega"] != 0, "system.omega", "omega must be nonzero for spi")


def normalize_config(raw: dict) -> dict:
    """Expand presets and `_SCHEMA` defaults into a fully explicit,
    validated config."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    system = cfg.get("system")
    if isinstance(system, str):
        system = {"preset": system}
    _require(isinstance(system, dict), "system", "system section is required")
    if "preset" in system:
        name = system["preset"]
        _require(name in bearing.PRESETS, "system.preset",
                 f"unknown preset {name!r}; choose from {sorted(bearing.PRESETS)}")
        expanded = dict(bearing.PRESETS[name])
        expanded.update({k: v for k, v in system.items() if k != "preset"})
        expanded["preset"] = name
        system = expanded
        _require(system.get("input") in bearing.INPUT_LAWS, "system.input",
                 f"unknown input kind {system.get('input')!r}")
        _check_preset_params(system)
    elif system.get("name") not in SYSTEM_FACTORIES:
        raise ConfigError("system must name a preset or a registered factory",
                          field="system")
    cfg["system"] = system

    for path, (default, rule) in _SCHEMA.items():
        section, _, name = path.rpartition(".")
        node = cfg.setdefault(section, {}) if section else cfg
        _require(isinstance(node, dict), section, f"{section} must be an object")
        if name in node or default is not _ABSENT:
            value = node.setdefault(name, default)
            if value is not None or default is not None:
                _field(path, require, rule, **{name: value})

    tg = cfg["t_grid"]
    _require(tg["stop"] >= tg["start"], "t_grid", "stop must be >= start")
    d = cfg["noise"].get("direction")
    if d is not None:
        _require(isinstance(d, list) and all(is_number(c) for c in d),
                 "noise.direction", "direction must be a list of numbers")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(np.array(d, dtype=float))
        _require(0.0 < norm < math.inf, "noise.direction",
                 "direction must have a nonzero finite norm")
    # Canonicalize (tuples from preset tables -> lists) so the expanded
    # config is a JSON fixed point: normalize(normalize(x)) == normalize(x).
    return json.loads(json.dumps(cfg))


def load_config(path: str, seed_override: Optional[int] = None) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = normalize_config(raw)
    if seed_override is not None:
        _field("--seed", require, "whole", seed=seed_override)
        cfg["noise"]["seed"] = seed_override
        cfg["audit"]["seed"] = seed_override
    return cfg


def build_scenario(cfg: dict) -> tuple[ControlSystem, Array, InputSignal]:
    system = cfg["system"]
    if "preset" in system:
        return bearing.scenario_from_params(system)
    return SYSTEM_FACTORIES[system["name"]](system)


def _windows(cfg: dict) -> tuple[float, list[float], TimeGrid]:
    """T, the window ends t and their run grid; ConfigError naming the
    field unless t >= T, grid_step divides [0, max t], every end t and
    start t - T is a grid node and every window [t - T, t] has an even
    number of steps (`cost._window_grid`)."""
    T, tg = float(cfg["T"]), cfg["t_grid"]
    ts = [float(t) for t in np.linspace(tg["start"], tg["stop"], int(tg["count"]))]
    _require(ts[0] >= T, "t_grid.start", "every window end must satisfy t >= T")
    grid = _field("grid_step", TimeGrid.with_step, 0.0, ts[-1], cfg["grid_step"])
    for t in ts:
        _field("t_grid", grid.index_of, t)
        _field("T", _window_grid, t, T, grid)
    return T, ts, grid


def build_noise(cfg: dict, sys: ControlSystem, t_max: float, h: float) -> NoiseSignals:
    """Sample-and-hold noise signals per the config's noise section.

    v covers [0, t_max] (any window slice reads the right samples), w
    covers [0, t_max]. Per-sample norms never exceed the amplitude, so
    the config amplitude is exactly the sup-norm bound.
    """
    nz = cfg["noise"]
    fam = nz["family"]
    amp = float(nz["amplitude"])
    apply_to = nz["apply_to"]
    direction = nz.get("direction")
    for channel, dim in (("v", sys.n_y), ("w", sys.n_x)):
        _require(direction is None or apply_to not in (channel, "both")
                 or len(direction) == dim, "noise.direction",
                 f"direction must have {dim} entries, the width of {channel}")
    if fam == "zero" or amp == 0.0:
        return ZERO_NOISE
    n = int(round(t_max / h))
    nodes = np.arange(n + 1) * h

    def make(dim: int) -> SampledSignal:
        if fam == "seeded-uniform":
            return SampledSignal.seeded_uniform(rng, 0.0, h, n, dim, amp)
        d = np.ones(dim) if direction is None else np.asarray(direction, dtype=float)
        unit = d / np.linalg.norm(d)
        if fam == "constant":
            vals = np.tile(amp * unit, (n + 1, 1))
        else:  # sinusoid
            freq = float(nz.get("frequency", 1.0))
            phase = float(nz.get("phase", 0.0))
            osc = np.sin(2.0 * math.pi * freq * nodes + phase)
            vals = amp * osc[:, None] * unit[None, :]
        return SampledSignal(0.0, h, vals)

    rng = np.random.default_rng(int(nz["seed"]))
    v = make(sys.n_y) if apply_to in ("v", "both") else None
    w = make(sys.n_x) if apply_to in ("w", "both") else None
    return NoiseSignals(v=v, w=w)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest round-trip decimal representation of a scalar."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """CSV with `_fmt` numbers; a cell holding a comma, quote or newline
    (such as a failure message) is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row]
                         for row in rows)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2)
                    + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, out: Path) -> int:
    sys_, x0, u = build_scenario(cfg)
    tg = cfg["t_grid"]
    t_end = float(tg["stop"])
    _require(t_end > 0, "t_grid.stop", "simulation horizon must be positive")
    grid = _field("grid_step", TimeGrid.with_step, 0.0, t_end, cfg["grid_step"])
    xs = flow(sys_, 0.0, t_end, x0, u, grid)
    us = u.at_nodes(grid)
    ys = outputs_rows(sys_, xs[:, None], us)[0]
    header = (["t"]
              + [f"x{i + 1}" for i in range(sys_.n_x)]
              + [f"u{i + 1}" for i in range(sys_.n_u)]
              + [f"y{i + 1}" for i in range(sys_.n_y)])
    rows = [[t, *x, *uu, *y] for t, x, uu, y in zip(grid.nodes, xs, us, ys)]
    write_csv(out / "trajectory.csv", header, rows)
    return 0


def _write_scan(out: Path, windows) -> None:
    """scan.csv: one (t, min_eig, max_eig) row per scanned window."""
    write_csv(out / "scan.csv", ["t", "min_eig", "max_eig"], windows)


def cmd_grammian_scan(cfg: dict, out: Path) -> int:
    sys_, x0, u = build_scenario(cfg)
    T, ts, _ = _windows(cfg)
    au = cfg["audit"]
    try:
        cert = certify_weak_regular_persistence(
            sys_, x0, u, T, ts, cfg["grid_step"],
            mu_threshold=au["mu_threshold"], boundedness_radius=au["R"],
            n_ball_samples=int(au["n_ball_samples"]), seed=int(au["seed"]),
            singular_tol=au["singular_tol"], witness_step=au["witness_step"])
    except CertificationInconclusive as exc:
        _write_scan(out, ((r.t, r.min_eig, r.max_eig) for r in exc.windows))
        raise
    windows = list(zip(cert.t_grid, cert.min_eigs, cert.max_eigs))
    _write_scan(out, windows)
    payload = {
        "config": cfg,
        "verdict": cert.verdict.value,
        "mu_hat": cert.mu_hat,
        "threshold": cert.threshold,
        "note": cert.note,
        "evidence": {
            "t": cert.evidence.t,
            "min_eig": cert.evidence.min_eig,
            "max_eig": cert.evidence.max_eig,
            "witness_direction": cert.evidence.witness_direction,
            "witness_cost": cert.evidence.witness_cost,
        },
        "windows": [{"t": t, "min_eig": lo, "max_eig": hi}
                    for t, lo, hi in windows],
    }
    write_json(out / "certificate.json", payload)
    return 0


def cmd_mhe_run(cfg: dict, out: Path) -> int:
    sys_, x0, u = build_scenario(cfg)
    T, ts, grid = _windows(cfg)
    eta = build_noise(cfg, sys_, ts[-1], grid.h)
    sv = cfg["solver"]
    opts = SolverOptions(ball_radius=float(sv["ball_radius"]),
                         max_iters=int(sv["max_iters"]),
                         grad_tol=float(sv["grad_tol"]),
                         hessian_mode=sv["hessian_mode"])
    results = rolling_estimate(sys_, x0, u, ts, T, eta, opts, grid)
    rows = []
    any_failed = False
    for r in results:
        if r.solution is None:
            any_failed = True
            rows.append([r.t, "nan", "nan", 0, False, r.failure])
        else:
            s = r.solution
            rows.append([r.t, s.error_to_reference, s.grad_norm, s.iterations,
                         s.converged, "ok"])
    write_csv(out / "windows.csv",
              ["t", "error", "grad_norm", "iters", "converged", "status"], rows)
    write_json(out / "mhe_report.json", {
        "config": cfg,
        "n_windows": len(results),
        "n_failed": sum(1 for r in results if r.solution is None),
        "max_error": max((r.solution.error_to_reference for r in results
                          if r.solution is not None), default=float("nan")),
    })
    return 1 if any_failed else 0


def cmd_stability_audit(cfg: dict, out: Path) -> int:
    sys_, x0, u = build_scenario(cfg)
    T, ts, _ = _windows(cfg)
    au = cfg["audit"]
    try:
        audit = audit_uniform_stability(
            sys_, x0, u, T, ts, R=float(au["R"]), nu=float(au["nu"]),
            alpha=float(au["alpha"]), grid_step=cfg["grid_step"],
            seed=int(au["seed"]), n_xi_samples=int(au["n_xi_samples"]),
            n_eta_samples=int(au["n_eta_samples"]),
            t_subsample=int(au["t_subsample"]), raise_on_failure=False)
    except SingularWindow as exc:
        write_json(out / "audit.json", {
            "config": cfg, "error": "SingularWindow", "message": str(exc),
            "conditions_ok": [False, False],
        })
        return 3
    ok = audit.conditions_ok
    write_json(out / "audit.json", {
        "config": cfg,
        "mu_hat": audit.mu_hat,
        "a1_hat": audit.a1_hat,
        "a2_hat": audit.a2_hat,
        "g3_hat": audit.g3_hat,
        "g1": audit.g1,
        "g2": audit.g2,
        "conditions_ok": list(ok),
        "bound_factor": audit.bound_factor,
        "predicted_bound": (audit.bound_factor * audit.nu
                            if math.isfinite(audit.bound_factor) else "inf"),
        "note": "sampled evidence, not a proof",
    })
    return 0 if all(ok) else 3


_COMMANDS = {
    "simulate": cmd_simulate,
    "grammian-scan": cmd_grammian_scan,
    "mhe-run": cmd_mhe_run,
    "stability-audit": cmd_stability_audit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="obsmhe",
        description="Observability Grammian scans and moving-horizon "
                    "estimation for nonlinear controlled ODE systems.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for older command lines; has no effect")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the noise and audit seeds")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        print(f"[obsmhe] {args.command}: expanded config = "
              f"{json.dumps(_jsonable(cfg), sort_keys=True)}", file=_sys.stderr)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        loc = f" (field: {exc.field})" if getattr(exc, "field", "") else ""
        print(f"[obsmhe] config error: {exc}{loc}", file=_sys.stderr)
        return 2
    except ConditionsFailed as exc:
        print(f"[obsmhe] conditions failed: {exc}", file=_sys.stderr)
        return 3
    except ObsMheError as exc:
        print(f"[obsmhe] error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"[obsmhe] internal error: {type(exc).__name__}: {exc}",
              file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
