"""The benchmark's workloads, built one round at a time from a seed.

A round is a fixed list of operations with a check of their outputs.
Every round of a workload has the same operations; round r draws its
inputs (start points, noise, audit seeds) from the generator seeded with
(seed, workload, r), so a seed fixes every input of a run and no two
rounds repeat one another's inputs.

The start point x0 = r0 (cos psi, sin psi) is drawn per scenario with
r0 in R0_RANGE and psi in [0, 2 pi); the input laws are those of the
presets (omega = 1, alpha = 0.3, sigma = 1, landmark at the origin).
Over R0_RANGE every certificate keeps its verdict and the circle audit
keeps its margins, so no operation fails on any seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

H = 0.0025            # integration step of every operation
OMEGA, ALPHA, SIGMA = 1.0, 0.3, 1.0
LANDMARK = (0.0, 0.0)
R0_RANGE = (0.9, 1.1)
MU_THRESHOLD = 1e-3   # the CLI's default audit.mu_threshold

SCAN_T, SCAN_TIMES = 1.0, {"start": 1.0, "stop": 6.0, "count": 6}
CST_T, CST_TIMES = 0.5, {"start": 0.5, "stop": 0.9, "count": 3}

PMHE_T, PMHE_TIMES, PMHE_NUS = 1.0, (2.0, 4.0, 6.0), (1e-4, 1e-3, 1e-2)
PMHE_BALL = 0.1

# One CLI audit plus six non-uniform audits of neighbouring windows: an odd
# number of ops per round keeps the median latency on the same op whatever
# the number of rounds, and the neighbours' latencies lie close to it.
AUDIT = {"R": 0.02, "nu": 1e-4, "alpha": 0.6, "t_subsample": 1}
NONUNIFORM_T, NONUNIFORM_NU = 2.0, 1e-3
NONUNIFORM_TIMES = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


class OpFailed(Exception):
    """An operation ended without a result, e.g. a CLI call's nonzero exit."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    meta: dict


@dataclass
class Round:
    ops: list[Op]
    # Takes the results in op order, None for a failed op; returns problems.
    check: Callable[[list], list[str]]


@dataclass(frozen=True)
class CliRun:
    out: Path

    def artifact(self, name: str) -> str:
        return (self.out / name).read_text(encoding="utf-8")


def _rng(seed: int, workload: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, r])


def _polar(rng: np.random.Generator) -> tuple[float, float, list[float]]:
    """A drawn start point as (r0, psi, x0)."""
    r0 = float(rng.uniform(*R0_RANGE))
    psi = float(rng.uniform(0.0, 2.0 * math.pi))
    return r0, psi, [r0 * math.cos(psi), r0 * math.sin(psi)]


def _start(rng: np.random.Generator) -> tuple[float, list[float]]:
    r0, _, x0 = _polar(rng)
    return r0, x0


def _cli(command: str, config: dict, workdir: Path, meta: dict) -> Op:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = workdir / "out"

    def call() -> CliRun:
        from obsmhe import cli
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main([command, "--config", str(path), "--out", str(out),
                             "--threads", "1"])
        if code != 0:
            raise OpFailed(f"{command} exited {code}: {log.getvalue().strip()}")
        return CliRun(out)

    return Op(f"{command} {config['system']['preset']}", call, meta)


def _library(name: str, *args, **kwargs):
    # Looked up on each call, so the traced run sees its wrappers.
    import obsmhe
    return getattr(obsmhe, name)(*args, **kwargs)


def _bearing(kind: str, x0: list[float]):
    from obsmhe import bearing
    landmark = np.asarray(LANDMARK)
    x = np.asarray(x0)
    system = bearing.bearing_system(landmark)
    if kind == "circ":
        return system, bearing.u_circ(landmark, x, OMEGA)
    return system, bearing.u_spi(landmark, x, OMEGA, ALPHA)


def _scan_eigs(run: CliRun) -> list[tuple[float, float]]:
    rows = run.artifact("scan.csv").splitlines()[1:]
    return [(float(lo), float(hi)) for _, lo, hi in (r.split(",") for r in rows)]


def _times(spec: dict) -> list[float]:
    return [float(t) for t in np.linspace(spec["start"], spec["stop"], spec["count"])]


# -- certify -----------------------------------------------------------------

def certify_round(seed: int, r: int, workdir: Path) -> Round:
    """grammian-scan on circ and spi (positive) and cst (negative)."""
    rng = _rng(seed, 0, r)
    ops = []
    for preset, kind in (("circ-default", "circ"), ("spi-default", "spi")):
        r0, x0 = _start(rng)
        system = {"preset": preset, "x0": x0, "omega": OMEGA}
        if kind == "spi":
            system["alpha"] = ALPHA
        cfg = {"system": system, "T": SCAN_T, "grid_step": H, "t_grid": SCAN_TIMES,
               "audit": {"seed": int(rng.integers(2 ** 31)),
                         "mu_threshold": MU_THRESHOLD}}
        ops.append(_cli("grammian-scan", cfg, workdir / f"r{r}" / kind,
                        {"kind": kind, "r0": r0}))
    r0, x0 = _start(rng)
    cfg = {"system": {"preset": "cst-default", "x0": x0, "sigma": SIGMA},
           "T": CST_T, "grid_step": H, "t_grid": CST_TIMES}
    ops.append(_cli("grammian-scan", cfg, workdir / f"r{r}" / "cst",
                    {"kind": "cst", "x0": x0}))
    return Round(ops, partial(_check_certify, ops))


def _check_certify(ops: list[Op], results: list) -> list[str]:
    problems = []
    for op, run in zip(ops, results):
        if run is None:
            continue
        cert = json.loads(run.artifact("certificate.json"))
        kind, label = op.meta["kind"], f"certify {op.meta['kind']}"
        if kind == "cst":
            if cert["verdict"] != "NotWeaklyPersistent":
                problems.append(f"{label}: verdict {cert['verdict']}")
            else:
                motion = np.asarray(LANDMARK) - np.asarray(op.meta["x0"])
                problems += checks.check_witness(
                    label, cert["evidence"]["witness_direction"], motion)
            continue
        r0 = op.meta["r0"]
        if kind == "circ":
            want = [checks.circ_eigs(r0, OMEGA, SCAN_T)] * SCAN_TIMES["count"]
            rel = checks.CIRC_REL
        else:
            want = [checks.spi_eigs(r0, OMEGA, ALPHA, SCAN_T, t)
                    for t in _times(SCAN_TIMES)]
            rel = checks.SPI_REL
        windows = [(w["min_eig"], w["max_eig"]) for w in cert["windows"]]
        problems += checks.check_eigs(f"{label} scan.csv", _scan_eigs(run), want, rel)
        problems += checks.check_eigs(f"{label} certificate", windows, want, rel)
        mu = 2.0 * min(lo for lo, _ in want)
        problems += checks.check_close(f"{label} mu_hat", cert["mu_hat"], mu, rel)
        verdict = ("WeaklyRegularlyPersistentSampled" if mu >= MU_THRESHOLD
                   else "WeaklyPersistentSampled")
        if cert["verdict"] != verdict:
            problems.append(f"{label}: verdict {cert['verdict']}, expected {verdict}")
    return problems


# -- pmhe --------------------------------------------------------------------

def pmhe_round(seed: int, r: int, workdir: Path) -> Round:
    """solve_pmhe windows on circ and spi, each noise shape at every amplitude.

    The measurement noise is sample-and-hold with n_y = 2 columns and
    per-sample norm at most nu: one seeded shape of norm <= 1 per system
    and window, scaled by each nu, so the error's slope in nu is visible.
    """
    from obsmhe import NoiseSignals, SampledSignal, SolverOptions, TimeGrid
    rng = _rng(seed, 1, r)
    grid = TimeGrid.with_step(0.0, max(PMHE_TIMES), H)
    opts = SolverOptions(ball_radius=PMHE_BALL)
    ops = []
    for kind in ("circ", "spi"):
        r0, psi, x0 = _polar(rng)
        system, u = _bearing(kind, x0)
        for t in PMHE_TIMES:
            n = round(t / H)
            d = rng.standard_normal((n + 1, 2))
            d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
            shape = rng.uniform(size=(n + 1, 1)) * d
            for nu in PMHE_NUS:
                eta = NoiseSignals(v=SampledSignal(0.0, H, nu * shape))
                ops.append(Op(f"solve_pmhe {kind} t={t} nu={nu}",
                              partial(_library, "solve_pmhe", system, np.asarray(x0),
                                      u, t, PMHE_T, eta, opts, grid),
                              {"kind": kind, "r0": r0, "psi": psi, "t": t, "nu": nu,
                               "shape": shape}))
    return Round(ops, partial(_check_pmhe, ops))


def _pmhe_checks(label: str, meta: dict, sol) -> list[str]:
    r0, t, nu = meta["r0"], meta["t"], meta["nu"]
    if meta["kind"] == "circ":
        alpha, lam, sup_h = 0.0, checks.circ_eigs(r0, OMEGA, PMHE_T)[0], 1.0 / r0
    else:
        # |H(x)| = 1/range, largest at the window start on the growing spiral
        alpha = ALPHA
        lam = checks.spi_eigs(r0, OMEGA, ALPHA, PMHE_T, t)[0]
        sup_h = 1.0 / (r0 * math.exp(ALPHA * (t - PMHE_T)))
    i0, n = round((t - PMHE_T) / H), round(PMHE_T / H)
    xs = checks.bearing_path(r0, meta["psi"], OMEGA, alpha, (i0 + np.arange(n + 1)) * H)
    predicted = checks.pmhe_first_order_error(xs, nu * meta["shape"][i0:i0 + n + 1], H)
    return (checks.check_pmhe_error(label, sol.error_to_reference,
                                    checks.pmhe_first_order_bound(PMHE_T, nu, sup_h, lam))
            + checks.check_first_order(label, sol.xi_star - xs[0], predicted,
                                       sol.grad_norm / (2.0 * lam)))


def _check_pmhe(ops: list[Op], results: list) -> list[str]:
    problems = []
    groups: dict[tuple, list] = {}
    for op, sol in zip(ops, results):
        key = (op.meta["kind"], op.meta["t"])
        groups.setdefault(key, []).append(None if sol is None else
                                          (op.meta["nu"], sol.error_to_reference))
        if sol is not None:
            problems += _pmhe_checks(op.label, op.meta, sol)
    for (kind, t), pts in groups.items():
        if None not in pts:
            problems += checks.check_slope(f"solve_pmhe {kind} t={t}",
                                           [p[0] for p in pts], [p[1] for p in pts])
    return problems


# -- audit -------------------------------------------------------------------

def audit_round(seed: int, r: int, workdir: Path) -> Round:
    """A stability-audit CLI call on the circle and non-uniform audits of
    the spiral windows ending at NONUNIFORM_TIMES."""
    from obsmhe import TimeGrid
    rng = _rng(seed, 2, r)
    r0, x0 = _start(rng)
    cfg = {"system": {"preset": "circ-default", "x0": x0, "omega": OMEGA},
           "T": SCAN_T, "grid_step": H, "t_grid": SCAN_TIMES,
           "audit": {**AUDIT, "seed": int(rng.integers(2 ** 31))}}
    audit = _cli("stability-audit", cfg, workdir / f"r{r}" / "circ", {"r0": r0})
    r0, x0 = _start(rng)
    system, u = _bearing("spi", x0)
    grid = TimeGrid.with_step(0.0, max(NONUNIFORM_TIMES), H)
    audit_seed = int(rng.integers(2 ** 31))
    ops = [audit] + [
        Op(f"audit_nonuniform_stability spi t={t}",
           partial(_library, "audit_nonuniform_stability", system, np.asarray(x0),
                   u, t, NONUNIFORM_T, NONUNIFORM_NU, grid, seed=audit_seed),
           {"r0": r0, "t": t})
        for t in NONUNIFORM_TIMES]
    return Round(ops, partial(_check_audit, ops))


def _check_audit(ops: list[Op], results: list) -> list[str]:
    problems = []
    if results[0] is not None:
        rep = json.loads(results[0].artifact("audit.json"))
        mu = 2.0 * checks.circ_eigs(ops[0].meta["r0"], OMEGA, SCAN_T)[0]
        problems += checks.check_close("stability-audit mu_hat", rep["mu_hat"], mu,
                                       checks.CIRC_REL)
        if rep["conditions_ok"] != [True, True]:
            problems.append(f"stability-audit: margins {rep['conditions_ok']}")
        if not rep["a2_hat"] <= rep["g3_hat"]:
            problems.append(f"stability-audit: a2_hat {rep['a2_hat']!r} > "
                            f"g3_hat {rep['g3_hat']!r}")
    kts = []
    for op, rep in zip(ops[1:], results[1:]):
        if rep is None:
            continue
        mu = 2.0 * checks.spi_eigs(op.meta["r0"], OMEGA, ALPHA, NONUNIFORM_T,
                                   op.meta["t"])[0]
        problems += checks.check_close(f"{op.label} mu_t", rep.mu_t, mu, checks.SPI_REL)
        kts.append(rep.K_t)
    if len(kts) == len(ops) - 1:
        problems += checks.check_increasing("non-uniform audit K_t", kts)
    return problems


WORKLOADS = {"certify": certify_round, "pmhe": pmhe_round, "audit": audit_round}
