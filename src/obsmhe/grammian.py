"""Rolling-window Observability Grammian and persistence certificates.

The Grammian of a window [t-T, t] is the integral of Phi^T H^T H Phi along
the reference trajectory; it equals half the Hessian of the window cost at
the reference state. Certificates scan a finite set of window end times
and are therefore *sampled evidence, not a proof*: the underlying
conditions quantify over all t >= T.

A scan (`reference_scan`) checks every window end against the horizon
and builds its windows with `cost._window_grid`, so an end t < T or a
horizon T <= 0 raises GridMismatch before the run grid or any flow, and
then flows the reference once. Each window is centered at the reference
state at its first node, and all windows' Grammians are one
`cost.window_grammians` block, the body `cost.gauss_newton_term` shares.
The boundedness check flows the ball samples of all windows as one block
too; the flat-cost witness reads the scan's reference states. A block's
windows have one length, each row gets its own window's inputs, and each
window's results equal those of the window flowed alone, bit for bit.
Certificates (and CertificationInconclusive) carry the windows they
scanned, and the uniform stability audit takes its mu_hat and centers
from the scan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cost import (_require_window, _window_grid, perturbed_cost_from_reference,
                   window_grammians)
from .errors import CertificationInconclusive, DomainViolation, EigFailure, Unbounded
from .ode_core import (Array, ControlSystem, InputSignal, TimeGrid, flow, flow_windows,
                       outputs_rows, require, require_state)

SAMPLED_DISCLAIMER = "sampled evidence, not a proof"

_OVERFLOW_GUARD = 1e12
_FLAT_COST_TOL = 1e-10
_MAX_SWEEPS = 100


def jacobi_eigh(a: Array) -> tuple[Array, Array]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns). Intended for
    the small dense matrices this library produces (n <= 10 or so).
    Raises EigFailure for input that is not square, not finite or not
    exactly symmetric, and if the off-diagonal mass does not vanish within
    100 sweeps.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.isfinite(a).all() \
            or not np.array_equal(a, a.T):
        raise EigFailure(f"need a finite symmetric matrix, got {a!r}")
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    else:
        raise EigFailure(f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps")
    d = np.diag(a)
    order = np.argsort(d)
    return d[order], v[:, order]


class Verdict(enum.Enum):
    NOT_WEAKLY_PERSISTENT = "NotWeaklyPersistent"
    WEAKLY_PERSISTENT_SAMPLED = "WeaklyPersistentSampled"
    WEAKLY_REGULARLY_PERSISTENT_SAMPLED = "WeaklyRegularlyPersistentSampled"


@dataclass(frozen=True)
class GrammianReport:
    """Grammian matrix of one window with its spectrum."""

    t: float
    T: float
    center: Array
    matrix: Array
    eigenvalues: Array  # ascending
    eigenvectors: Array  # columns, matching eigenvalues

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eig(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class WindowEvidence:
    t: float
    min_eig: float
    max_eig: float
    witness_direction: Optional[Array] = None
    witness_cost: Optional[float] = None


@dataclass(frozen=True)
class PersistenceCertificate:
    verdict: Verdict
    t_grid: tuple[float, ...]
    min_eigs: tuple[float, ...]
    max_eigs: tuple[float, ...]
    mu_hat: float  # sampled inf of 2 * min_eig
    threshold: float
    evidence: WindowEvidence
    note: str = SAMPLED_DISCLAIMER


@dataclass(frozen=True)
class BoundednessReport:
    horizon: float
    radius: float
    L_hat: float
    per_window_sup: tuple[float, ...]
    n_ball_samples: int
    seed: int

    @property
    def growing(self) -> bool:
        """Flags a strict per-window growth trend in the sampled suprema."""
        s = self.per_window_sup
        if len(s) < 3:
            return False
        increasing = all(b > a for a, b in zip(s, s[1:]))
        return increasing and s[-1] > 1.5 * s[0]


def observability_grammian(sys: ControlSystem, t: float, T: float, center: Array,
                           u: InputSignal, grid: TimeGrid) -> GrammianReport:
    """Grammian of the window [t-T, t] along the trajectory from (t-T,
    center): `window_grammians` of that one window."""
    center = require_state(sys, center, "center")
    c = window_grammians(sys, [_window_grid(t, T, grid)], center[None], u)[0]
    return grammian_report(t, T, center, c)


def grammian_report(t: float, T: float, center: Array, c: Array) -> GrammianReport:
    """The report of the window [t-T, t] whose Grammian along the
    trajectory from (t-T, center) is c."""
    eigvals, eigvecs = jacobi_eigh(c)
    return GrammianReport(t=t, T=T, center=np.asarray(center, dtype=float),
                          matrix=c, eigenvalues=eigvals, eigenvectors=eigvecs)


def reference_flow(sys: ControlSystem, x0: Array, u: InputSignal, T: float,
                   t_grid, grid_step: float
                   ) -> tuple[list[float], list[TimeGrid], Array]:
    """Sorted window ends, their windows [t-T, t] on the [0, max t] root
    grid, built before the flow, and the reference states on that grid;
    ValueError if there are no ends, and GridMismatch naming t and T,
    before the root grid is built, unless 0 < T <= t for every end t."""
    t_list = sorted(float(t) for t in t_grid)
    if not t_list:
        raise ValueError("t_grid must be nonempty")
    for t in t_list:
        _require_window(t, T)
    full = TimeGrid.with_step(0.0, t_list[-1], grid_step)
    wins = [_window_grid(t, T, full) for t in t_list]
    return t_list, wins, flow(sys, 0.0, full.t_end, require_state(sys, x0, "x0"), u, full)


def reference_scan(sys: ControlSystem, x0: Array, u: InputSignal, T: float,
                   t_grid, grid_step: float
                   ) -> tuple[list[TimeGrid], Array, list[GrammianReport]]:
    """The windows [t-T, t], t ascending, the reference states on their
    root grid, and the Grammian of each window along the reference, from
    one `window_grammians` block."""
    t_list, wins, xs = reference_flow(sys, x0, u, T, t_grid, grid_step)
    centers = xs[[win.offset for win in wins]]
    reports = [grammian_report(t, T, center, c) for t, center, c in
               zip(t_list, centers, window_grammians(sys, wins, centers, u))]
    return wins, xs, reports


def _witness_cost(sys: ControlSystem, u: InputSignal, win: TimeGrid, xs: Array,
                  report: GrammianReport, step: float) -> tuple[Array, float]:
    """Cost along the near-null eigenvector against the outputs of the
    reference states xs on win's root grid; tries both displacement signs."""
    d = report.eigenvectors[:, 0]
    ref = xs[win.offset:win.offset + win.n_steps + 1, None]
    ref_out = outputs_rows(sys, ref, u.at_nodes(win))[0]
    best = None
    for sign in (1.0, -1.0):
        try:
            c = perturbed_cost_from_reference(sys, win, report.center + sign * step * d,
                                              u, ref_out)
        except DomainViolation:
            continue
        best = c if best is None else min(best, c)
    if best is None:
        raise DomainViolation("witness displacement left the system domain on both sides")
    return d, best


def certify_weak_persistence(sys: ControlSystem, x0: Array, u: InputSignal,
                             T: float, t_grid, grid_step: float,
                             singular_tol: Optional[float] = None,
                             witness_step: float = 0.01) -> PersistenceCertificate:
    """Scan window Grammians for positive-definiteness along the reference.

    Every sampled window positive definite (min eigenvalue above the
    singularity tolerance) yields WeaklyPersistentSampled. A singular
    window yields NotWeaklyPersistent only when the near-null eigenvector
    is corroborated by a flat cost at a small displacement; otherwise the
    scan raises CertificationInconclusive, since a singular Grammian alone
    does not settle the question.
    """
    return _weak_scan(sys, x0, u, T, t_grid, grid_step, singular_tol, witness_step)[2]


def _weak_scan(sys: ControlSystem, x0: Array, u: InputSignal, T: float, t_grid,
               grid_step: float, singular_tol: Optional[float], witness_step: float
               ) -> tuple[list[TimeGrid], Array, PersistenceCertificate]:
    """The windows and reference states of a `reference_scan` and the
    weak-persistence verdict from them; ValueError before the scan unless
    singular_tol is None or nonnegative and witness_step is positive."""
    if singular_tol is not None:
        require("nonnegative", singular_tol=singular_tol)
    require("positive", witness_step=witness_step)
    wins, xs, reports = reference_scan(sys, x0, u, T, t_grid, grid_step)
    tols = [singular_tol if singular_tol is not None else 1e-8 * r.max_eig
            for r in reports]
    worst_i = int(np.argmin([r.min_eig for r in reports]))
    worst = reports[worst_i]
    mu_hat = 2.0 * worst.min_eig
    min_eigs = tuple(r.min_eig for r in reports)
    max_eigs = tuple(r.max_eig for r in reports)
    t_list = tuple(r.t for r in reports)

    if all(r.min_eig > tol for r, tol in zip(reports, tols)):
        return wins, xs, PersistenceCertificate(
            verdict=Verdict.WEAKLY_PERSISTENT_SAMPLED, t_grid=t_list,
            min_eigs=min_eigs, max_eigs=max_eigs, mu_hat=mu_hat,
            threshold=tols[worst_i],
            evidence=WindowEvidence(worst.t, worst.min_eig, worst.max_eig))

    direction, wcost = _witness_cost(sys, u, wins[worst_i], xs, worst, witness_step)
    if wcost >= _FLAT_COST_TOL:
        raise CertificationInconclusive(
            f"window t={worst.t} has a near-singular Grammian (min_eig="
            f"{worst.min_eig:.3e}) but the flat-cost witness check found cost "
            f"{wcost:.3e} >= {_FLAT_COST_TOL:.1e}", windows=tuple(reports))
    return wins, xs, PersistenceCertificate(
        verdict=Verdict.NOT_WEAKLY_PERSISTENT, t_grid=t_list,
        min_eigs=min_eigs, max_eigs=max_eigs, mu_hat=mu_hat,
        threshold=tols[worst_i],
        evidence=WindowEvidence(worst.t, worst.min_eig, worst.max_eig,
                                witness_direction=direction, witness_cost=wcost))


def certify_weak_regular_persistence(sys: ControlSystem, x0: Array, u: InputSignal,
                                     T: float, t_grid, grid_step: float,
                                     mu_threshold: float = 1e-6,
                                     boundedness_radius: float = 0.1,
                                     n_ball_samples: int = 16,
                                     seed: int = 0,
                                     singular_tol: Optional[float] = None,
                                     witness_step: float = 0.01) -> PersistenceCertificate:
    """Scan for a uniform Grammian lower bound plus regular boundedness.

    Positive verdict requires the sampled inf of 2*min_eig to reach
    `mu_threshold` and the ball-sampled boundedness check to pass;
    otherwise the verdict falls back to the weak-persistence scan result.
    The scan's reference flow also centres the ball samples.
    """
    require("positive", boundedness_radius=boundedness_radius)
    require("nonnegative", mu_threshold=mu_threshold)
    require("count", n_ball_samples=n_ball_samples)
    require("whole", seed=seed)
    wins, xs, weak = _weak_scan(sys, x0, u, T, t_grid, grid_step, singular_tol,
                                witness_step)
    if weak.verdict is Verdict.NOT_WEAKLY_PERSISTENT:
        return weak
    if weak.mu_hat < mu_threshold:
        return weak
    try:
        _ball_boundedness(sys, u, T, boundedness_radius, wins, xs, n_ball_samples,
                          seed, _OVERFLOW_GUARD)
    except (Unbounded, DomainViolation):
        return weak
    return PersistenceCertificate(
        verdict=Verdict.WEAKLY_REGULARLY_PERSISTENT_SAMPLED,
        t_grid=weak.t_grid, min_eigs=weak.min_eigs, max_eigs=weak.max_eigs,
        mu_hat=weak.mu_hat, threshold=mu_threshold, evidence=weak.evidence)


def ball_samples(rng: np.random.Generator, center: Array, radius: float,
                 n: int) -> Array:
    """n seeded points in the closed ball plus the 2*dim axis boundary points."""
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    pts = []
    for _ in range(n):
        d = rng.standard_normal(dim)
        nrm = np.linalg.norm(d)
        if nrm < 1e-12:
            d = np.zeros(dim)
            d[0] = 1.0
            nrm = 1.0
        r = radius * rng.uniform() ** (1.0 / dim)
        pts.append(center + (r / nrm) * d)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = radius
        pts.append(center + e)
        pts.append(center - e)
    return np.stack(pts)


def _sup_norm(trajs: Array) -> float:
    """Largest state norm in (n+1, B, n_x) trajectories, taken one row at a
    time so no temporary is the size of the whole batch."""
    return max(float(np.max(np.linalg.norm(trajs[:, b], axis=1)))
               for b in range(trajs.shape[1]))


def check_regular_boundedness(sys: ControlSystem, x0: Array, u: InputSignal,
                              T: float, R: float, t_grid, n_ball_samples: int,
                              seed: int, grid_step: float,
                              overflow_guard: float = _OVERFLOW_GUARD) -> BoundednessReport:
    """Sampled check of the uniform trajectory bound over ball-perturbed starts.

    Draws the seeded points in the ball around x(t-T) for every sampled
    window, in window order from one rng stream, flows the points of all
    windows as one block of rows, and records each window's largest
    trajectory norm from its own rows. Raises DomainViolation when a flow
    leaves the system domain, and otherwise Unbounded for the first
    window, in window order, whose norm exceeds `overflow_guard`.
    """
    require("positive", R=R)
    require("count", n_ball_samples=n_ball_samples)
    require("whole", seed=seed)
    _, wins, xs = reference_flow(sys, x0, u, T, t_grid, grid_step)
    return _ball_boundedness(sys, u, T, R, wins, xs, n_ball_samples, seed,
                             overflow_guard)


def _ball_boundedness(sys: ControlSystem, u: InputSignal, T: float, R: float,
                      wins: Sequence[TimeGrid], xs: Array, n_ball_samples: int,
                      seed: int, overflow_guard: float) -> BoundednessReport:
    """`check_regular_boundedness` of the windows wins, ascending, around
    the reference states xs on their root grid; the count and the seed,
    whole numbers, run as integers."""
    n_ball_samples, seed = int(n_ball_samples), int(seed)
    rng = np.random.default_rng(seed)
    points = np.stack([ball_samples(rng, xs[win.offset], R, n_ball_samples)
                       for win in wins])
    m = points.shape[1]
    trajs = flow_windows(sys, wins, points, u)
    per_window = [_sup_norm(trajs[:, b * m:(b + 1) * m]) for b in range(len(wins))]
    for sup in per_window:
        if sup > overflow_guard:
            raise Unbounded(f"trajectory norm {sup:.3e} exceeds the overflow guard")
    return BoundednessReport(horizon=T, radius=R, L_hat=max(per_window),
                             per_window_sup=tuple(per_window),
                             n_ball_samples=n_ball_samples, seed=seed)
