"""Window estimators (FIE / MHE / perturbed MHE) and stability audits.

The estimators minimize the cumulative output error of a window over a
trust ball around a predicted center, using a Levenberg-damped Newton
iteration with radial projection back onto the ball. The audits compute
sampled surrogates for the constants appearing in the contraction-style
error bounds: per-window (non-uniform) sensitivities and the uniform
margin conditions that make a rolling estimate provably stable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cost import (candidate_terms_rows, fd_hessian, fd_points,
                   grad_perturbed_cost_from_reference, grads_from_terms,
                   gauss_newton_term, output_jacobians,
                   perturbed_cost_from_reference, perturbed_reference,
                   reference_and_noise_directions_rows,
                   sensitivities_from_terms, window_grammian)
from .errors import (BoundaryStuck, ConditionsFailed, MaxItersExceeded,
                     ObsMheError, SingularWindow)
from .grammian import (GrammianReport, ball_samples, grammian_report,
                       jacobi_eigh, reference_scan)
from .ode_core import (Array, ControlSystem, InputSignal, NoiseSignals,
                       SampledSignal, TimeGrid, ZERO_NOISE, flow,
                       flow_and_stm, output_jacobians_rows,
                       perturbed_flow_and_sensitivities_rows)

HESSIAN_MODES = ("gauss_newton", "full_fd")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the damped-Newton window minimizer."""

    ball_center: Optional[Array] = None
    ball_radius: float = 1.0
    max_iters: int = 50
    grad_tol: float = 1e-9
    damping0: float = 1e-3
    damping_growth: float = 10.0
    damping_shrink: float = 0.1
    hessian_mode: str = "gauss_newton"

    def __post_init__(self):
        if self.hessian_mode not in HESSIAN_MODES:
            raise ValueError(f"unknown hessian mode {self.hessian_mode!r}; "
                             f"choose from {HESSIAN_MODES}")

    def replace(self, **kw) -> "SolverOptions":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class MheSolution:
    xi_star: Array
    cost: float
    grad_norm: float
    hess_min_eig: float
    iterations: int
    converged: bool
    projected: bool
    error_to_reference: float
    trace: tuple[tuple[float, float], ...]  # (cost, grad_norm) per iterate


@dataclass(frozen=True)
class WindowResult:
    t: float
    solution: Optional[MheSolution]
    failure: Optional[str] = None


@dataclass(frozen=True)
class NonuniformStabilityAudit:
    t: float
    T: float
    nu: float
    mu_t: float
    C1_t: float
    C2_t: float

    @property
    def K_t(self) -> float:
        return (self.C1_t + self.C2_t) / (2.0 * self.mu_t)


@dataclass(frozen=True)
class StabilityAudit:
    T: float
    R: float
    nu: float
    alpha: float
    t_grid: tuple[float, ...]
    mu_hat: float
    a1_hat: float
    a2_hat: float
    g3_hat: float
    seed: int

    @property
    def g1(self) -> float:
        return self.a1_hat * (self.nu + self.R)

    @property
    def g2(self) -> float:
        return self.a2_hat * self.nu

    @property
    def conditions_ok(self) -> tuple[bool, bool]:
        return (self.g1 <= self.alpha * self.mu_hat,
                self.g2 <= self.R * (1.0 - self.alpha) * self.mu_hat)

    @property
    def bound_factor(self) -> float:
        """Gain from noise size to asymptotic estimation error."""
        denom = self.mu_hat - self.g1
        return self.g3_hat / denom if denom > 0 else float("inf")


@dataclass(frozen=True)
class MultistartReport:
    unique: bool
    solutions: tuple[MheSolution, ...]
    failures: tuple[str, ...]
    max_pairwise_distance: float
    cluster_radius: float


class _WindowProblem:
    """Window cost with a frozen (possibly noisy) output reference."""

    def __init__(self, sys: ControlSystem, u: InputSignal, win: TimeGrid,
                 ref_out: Array):
        self.sys = sys
        self.u = u
        self.win = win
        self.ref_out = ref_out

    def cost(self, xi: Array) -> float:
        return perturbed_cost_from_reference(self.sys, self.win, xi, self.u,
                                             self.ref_out)

    def grad(self, xi: Array) -> Array:
        return grad_perturbed_cost_from_reference(self.sys, self.win, xi,
                                                  self.u, self.ref_out)

    def hess(self, xi: Array, mode: str) -> Array:
        if mode == "gauss_newton":
            return 2.0 * gauss_newton_term(self.sys, self.win.t_start,
                                           self.win.t_end, xi, self.u, self.win)
        if mode == "full_fd":
            return self.hess_fd(xi)
        raise ValueError(f"unknown hessian mode {mode!r}")

    def hess_fd(self, xi: Array) -> Array:
        """fd_hessian of the cost at xi; its difference points flow as one
        block of rows."""
        return fd_hessian(lambda pts: grads_from_terms(
            self.win, candidate_terms_rows(self.sys, self.win, pts, self.u),
            self.ref_out), xi)


def _project(xi: Array, center: Array, radius: float) -> tuple[Array, bool]:
    d = xi - center
    nrm = float(np.linalg.norm(d))
    if nrm <= radius:
        return xi, False
    return center + (radius / nrm) * d, True


def _minimize(problem: _WindowProblem, x_init: Array, opts: SolverOptions):
    center = np.asarray(opts.ball_center, dtype=float)
    radius = float(opts.ball_radius)
    xi, _ = _project(np.asarray(x_init, dtype=float), center, radius)
    f = problem.cost(xi)
    g = problem.grad(xi)
    tol = opts.grad_tol * max(1.0, f)
    lam = opts.damping0
    trace = [(f, float(np.linalg.norm(g)))]
    iterations = 0
    consecutive_projected = 0
    projected_last = False
    n = xi.shape[0]
    while float(np.linalg.norm(g)) > tol:
        if iterations >= opts.max_iters:
            raise MaxItersExceeded(
                f"no convergence in {opts.max_iters} iterations "
                f"(grad_norm={np.linalg.norm(g):.3e}, tol={tol:.3e})")
        hess = problem.hess(xi, opts.hessian_mode)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(hess + lam * np.eye(n), -g)
            except np.linalg.LinAlgError:
                lam = max(lam, 1e-12) * opts.damping_growth
                continue
            cand, proj = _project(xi + step, center, radius)
            fc = problem.cost(cand)
            if fc < f:
                xi, f = cand, fc
                accepted = True
                break
            lam = max(lam, 1e-12) * opts.damping_growth
        if not accepted:
            raise MaxItersExceeded(
                "damped Newton could not find a descent step "
                f"(grad_norm={np.linalg.norm(g):.3e}, damping={lam:.3e})")
        lam = max(lam * opts.damping_shrink, 1e-15)
        g = problem.grad(xi)
        iterations += 1
        trace.append((f, float(np.linalg.norm(g))))
        projected_last = proj
        consecutive_projected = consecutive_projected + 1 if proj else 0
        if consecutive_projected >= 2:
            raise BoundaryStuck(
                "two consecutive iterates required projection onto the trust "
                "ball boundary; the minimizer likely lies outside the ball")
    grad_norm = float(np.linalg.norm(g))
    converged = grad_norm <= tol and not projected_last
    return xi, f, grad_norm, iterations, converged, projected_last, tuple(trace)


def _reference_state(sys: ControlSystem, x0: Array, u: InputSignal, t: float,
                     T: float, grid: TimeGrid) -> Array:
    """The reference state x(t-T), integrated on the run grid from 0."""
    if t <= T:
        return np.asarray(x0, dtype=float)
    return flow(sys, 0.0, t - T, x0, u, grid)[-1]


def _window_mu(report: GrammianReport, note: str = "") -> float:
    """2 * min_eig of a window Grammian; SingularWindow if numerically singular."""
    if report.min_eig <= 1e-8 * max(report.max_eig, 1e-300):
        raise SingularWindow(
            f"window [{report.t - report.T}, {report.t}] Grammian is numerically "
            f"singular (min_eig={report.min_eig:.3e}){note}")
    return 2.0 * report.min_eig


def _solve_window(problem: _WindowProblem, x_ref: Array, opts: SolverOptions,
                  x_init: Optional[Array]) -> MheSolution:
    if opts.ball_center is None:
        opts = opts.replace(ball_center=x_ref)
    init = opts.ball_center if x_init is None else x_init
    xi, f, grad_norm, iters, converged, projected, trace = _minimize(
        problem, init, opts)
    hess_min_eig = float(jacobi_eigh(problem.hess_fd(xi))[0][0])
    return MheSolution(
        xi_star=xi, cost=f, grad_norm=grad_norm, hess_min_eig=hess_min_eig,
        iterations=iters, converged=converged, projected=projected,
        error_to_reference=float(np.linalg.norm(xi - np.asarray(x_ref))),
        trace=trace)


def solve_pmhe(sys: ControlSystem, x0: Array, u: InputSignal, t: float,
               T: float, eta: NoiseSignals, opts: SolverOptions,
               grid: TimeGrid, x_init: Optional[Array] = None) -> MheSolution:
    """Moving-horizon estimate of x(t-T) from noise-perturbed window outputs.

    The reported error is measured against the *unperturbed* reference
    state x(t-T), which is the quantity the stability bounds control.
    With zero noise this reduces exactly to the noise-free estimator.
    """
    win = grid.subgrid(t - T, t)
    _, ref_out = perturbed_reference(sys, t, T, x0, u, eta, grid)
    x_ref = _reference_state(sys, x0, u, t, T, grid)
    problem = _WindowProblem(sys, u, win, ref_out)
    return _solve_window(problem, x_ref, opts, x_init)


def solve_mhe(sys: ControlSystem, x0: Array, u: InputSignal, t: float,
              T: float, opts: SolverOptions, grid: TimeGrid,
              x_init: Optional[Array] = None) -> MheSolution:
    """Noise-free moving-horizon estimate of x(t-T) over the window [t-T, t]."""
    return solve_pmhe(sys, x0, u, t, T, ZERO_NOISE, opts, grid, x_init=x_init)


def solve_fie(sys: ControlSystem, x0: Array, u: InputSignal, t: float,
              opts: SolverOptions, grid: TimeGrid,
              x_init: Optional[Array] = None) -> MheSolution:
    """Full-information estimate: the window is the whole history [0, t]."""
    return solve_mhe(sys, x0, u, t, t, opts, grid, x_init=x_init)


def rolling_estimate(sys: ControlSystem, x0: Array, u: InputSignal,
                     t_grid, T: float, eta: NoiseSignals,
                     opts: SolverOptions, grid: TimeGrid) -> list[WindowResult]:
    """Sequential window estimates with flow-propagated warm starts.

    The first window is centered at the true x(t-T); later windows are
    centered at the previous solution propagated forward by the noise-free
    flow. Per-window solver failures are recorded, not raised, and the
    warm start keeps propagating from the last success.
    """
    t_list = sorted(float(t) for t in t_grid)
    results: list[WindowResult] = []
    prev_t: Optional[float] = None
    prev_xi: Optional[Array] = None
    for t in t_list:
        if prev_xi is None:
            warm = _reference_state(sys, x0, u, t, T, grid)
        else:
            warm = flow(sys, prev_t - T, t - T, prev_xi, u, grid)[-1]
        try:
            sol = solve_pmhe(sys, x0, u, t, T, eta,
                             opts.replace(ball_center=warm), grid)
        except ObsMheError as exc:
            results.append(WindowResult(t=t, solution=None,
                                        failure=f"{type(exc).__name__}: {exc}"))
            continue
        results.append(WindowResult(t=t, solution=sol))
        prev_t, prev_xi = t, sol.xi_star
    return results


def _uniform_noise(rng: np.random.Generator, t0: float, h: float, n: int,
                   dim: int, amplitude: float) -> SampledSignal:
    """Seeded sample-and-hold noise with per-sample norm at most `amplitude`."""
    d = rng.standard_normal((n + 1, dim))
    nrm = np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    mag = amplitude * rng.uniform(size=(n + 1, 1))
    return SampledSignal(t0, h, (mag / nrm) * d)


def _require_samples(**counts: int) -> None:
    """ValueError unless every named sample count is at least 1."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")


def _spectral_norms(ms: Array) -> Array:
    """The 2-norm of each matrix in a stack."""
    return np.linalg.norm(ms, 2, axis=(1, 2))


def audit_nonuniform_stability(sys: ControlSystem, x0: Array, u: InputSignal,
                               t: float, T: float, nu: float, grid: TimeGrid,
                               seed: int = 0,
                               n_noise_samples: int = 3) -> NonuniformStabilityAudit:
    """Per-window sensitivity constants and the gain K_t = (C1+C2)/(2 mu).

    C1 bounds the output-noise channel via sup ||H Phi||; C2 additionally
    bounds the process-noise channel through sampled perturbed flows and
    their noise sensitivities. Raises SingularWindow when the window
    Grammian is numerically singular (K_t would be meaningless).

    The noise draws and a zero-noise row 0 flow from (0, x0) as one block
    on the [0, t] span of the run grid; row 0's state at t - T is the
    window center.
    """
    _require_samples(n_noise_samples=n_noise_samples)
    win = grid.subgrid(t - T, t)
    full = grid.subgrid(0.0, t)
    rng = np.random.default_rng(seed)
    n_x = sys.n_x
    dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(n_x)]
    ws = [_uniform_noise(rng, 0.0, full.h, full.n_steps, n_x, nu)
          for _ in range(n_noise_samples)]
    xt, zs = perturbed_flow_and_sensitivities_rows(sys, t, x0, u, [None] + ws,
                                                   dws, full)
    i0 = full.index_of(t - T)
    center = xt[i0, 0]
    # One window STM serves the Grammian and the output-noise channel.
    xs, ps = flow_and_stm(sys, t - T, t, center, u, win)
    us = u.at_nodes(win)
    hs = output_jacobians(sys, xs, us)
    mu_t = _window_mu(grammian_report(t, T, center, window_grammian(win, hs, ps)))
    hphi = float(np.max(_spectral_norms(hs @ ps)))
    c1 = 2.0 * T * hphi

    noise_hs = output_jacobians_rows(sys, xt[i0:, 1:], us)
    c2 = 0.0
    for b in range(n_noise_samples):
        sup = float(np.max(_spectral_norms(noise_hs[b])
                           * _spectral_norms(zs[i0:, b + 1])))
        c2 = max(c2, 2.0 * T * hphi * sup)
    return NonuniformStabilityAudit(t=t, T=T, nu=nu, mu_t=mu_t, C1_t=c1, C2_t=c2)


def _spread_indices(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    if k <= 1:
        return [n // 2]
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def _candidate_block(sys: ControlSystem, u: InputSignal, win: TimeGrid,
                     xi: Array, delta: float):
    """The candidate terms the uniform audit needs at xi, from one block
    of 4 n_x^2 + 2 n_x + 1 rows.

    Returns (center, terms at its `fd_points`) for the Hessian centers
    xi + delta e_0, xi - delta e_0, ..., xi, and the terms at xi.
    """
    n_x = xi.shape[0]
    centers = []
    for j in range(n_x):
        e = np.zeros(n_x)
        e[j] = delta
        centers += [xi + e, xi - e]
    centers.append(xi)
    terms = candidate_terms_rows(
        sys, win, np.concatenate([fd_points(c) for c in centers] + [xi[None]]), u)
    m = 2 * n_x
    return [(c, terms[k * m:(k + 1) * m]) for k, c in enumerate(centers)], terms[-1]


def _hess_from_terms(win: TimeGrid, center: Array, terms, ref_out: Array) -> Array:
    """fd_hessian at center of the window cost against ref_out, from the
    candidate terms already flowed at fd_points(center)."""
    return fd_hessian(lambda _: grads_from_terms(win, terms, ref_out), center)


def _xi_constants(sys: ControlSystem, u: InputSignal, win: TimeGrid, xi: Array,
                  delta: float, refs) -> tuple[float, list[float]]:
    """The a1 estimate at xi and the noise-gradient gain at xi against each
    (ref_out, dys) in refs, from one `_candidate_block`, which lives only
    for this call."""
    n_y = sys.n_y
    (*shifted, (_, xi_fd_terms)), xi_terms = _candidate_block(sys, u, win, xi, delta)
    a1, gains = 0.0, []
    for ref_out, dys in refs:
        # a1: directional Lipschitz estimate of the Hessian in xi and in
        # the output-noise channel. (A constant v shift only translates the
        # reference outputs, so the perturbed references can be formed by
        # shifting ref_out directly.)
        hs = [_hess_from_terms(win, p, p_terms, ref_out) for p, p_terms in shifted]
        pairs = list(zip(hs[::2], hs[1::2]))
        pairs += [tuple(_hess_from_terms(win, xi, xi_fd_terms, ref_out + sign * dv)
                        for sign in (1.0, -1.0))
                  for dv in delta * np.eye(n_y)]
        for hp, hm in pairs:
            a1 = max(a1, float(np.linalg.norm(hp - hm, 2)) / (2 * delta))

        # a2 / g3: operator norms of the noise-to-gradient maps.
        g = sensitivities_from_terms(win, xi_terms, dys)
        gains.append(float(np.linalg.norm(g[:, :n_y], 2))
                     + float(np.linalg.norm(g[:, n_y:], 2)))
    return a1, gains


def audit_uniform_stability(sys: ControlSystem, x0: Array, u: InputSignal,
                            T: float, t_grid, R: float, nu: float,
                            alpha: float, grid_step: float, seed: int = 0,
                            n_xi_samples: int = 2, n_eta_samples: int = 2,
                            t_subsample: int = 3,
                            raise_on_failure: bool = True) -> StabilityAudit:
    """Sampled audit of the uniform stability margin conditions.

    Estimates mu_hat (uniform Grammian lower bound over all windows), the
    Hessian Lipschitz surrogate a1_hat, the noise-gradient gain a2_hat at
    the reference, and its ball-wide counterpart g3_hat. The two margin
    conditions g1 <= alpha*mu and g2 <= R*(1-alpha)*mu guarantee that each
    window minimizer stays interior and unique; when they fail the audit
    raises ConditionsFailed carrying the full report (set
    raise_on_failure=False to inspect instead).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _require_samples(n_xi_samples=n_xi_samples, n_eta_samples=n_eta_samples,
                     t_subsample=t_subsample)
    full, xs, scan = reference_scan(sys, x0, u, T, t_grid, grid_step)
    t_list = [r.t for r in scan]
    mu_hat = min(_window_mu(r, "; no uniform margin exists") for r in scan)
    rng = np.random.default_rng(seed)
    n_x, n_y = sys.n_x, sys.n_y

    a1_hat = 0.0
    a2_hat = 0.0
    g3_hat = 0.0
    delta = 1e-3
    for i in _spread_indices(len(t_list), t_subsample):
        t = t_list[i]
        win = full.subgrid(t - T, t)
        center = xs[full.index_of(t - T)]
        n_steps_full = full.index_of(t)
        etas = [ZERO_NOISE]
        for _ in range(n_eta_samples - 1):
            etas.append(NoiseSignals(
                v=_uniform_noise(rng, t - T, win.h, win.n_steps, n_y, nu),
                w=_uniform_noise(rng, 0.0, full.h, n_steps_full, n_x, nu)))
        xi_pts = [center] + list(
            ball_samples(rng, center, R, n_xi_samples - 1)[:n_xi_samples - 1])
        # The measured references and the output shifts along the unit v
        # then w directions: one augmented integration of every eta's
        # reference and its sensitivities.
        refs = reference_and_noise_directions_rows(sys, t, T, x0, u, etas, full)
        # The candidate flows do not depend on the noise draw: one block of
        # rows per xi, flowed once for every eta. Every constant is a max,
        # so taking xi outside eta changes no bit and holds one block at a
        # time.
        for k, xi in enumerate(xi_pts):
            a1, gains = _xi_constants(sys, u, win, xi, delta, refs)
            a1_hat = max(a1_hat, a1)
            g3_hat = max(g3_hat, *gains)
            if k == 0:  # xi_pts[0], the reference point
                a2_hat = max(a2_hat, *gains)

    audit = StabilityAudit(T=T, R=R, nu=nu, alpha=alpha, t_grid=tuple(t_list),
                           mu_hat=mu_hat, a1_hat=a1_hat, a2_hat=a2_hat,
                           g3_hat=g3_hat, seed=seed)
    if raise_on_failure and not all(audit.conditions_ok):
        raise ConditionsFailed(
            f"stability margin conditions failed: g1={audit.g1:.4e} vs "
            f"alpha*mu={alpha * mu_hat:.4e}, g2={audit.g2:.4e} vs "
            f"R*(1-alpha)*mu={R * (1 - alpha) * mu_hat:.4e}", audit=audit)
    return audit


def multistart_uniqueness(sys: ControlSystem, x0: Array, u: InputSignal,
                          t: float, T: float, R: float, n_starts: int,
                          seed: int, opts: SolverOptions,
                          grid: TimeGrid) -> MultistartReport:
    """Solve the same window from seeded starts and cluster the minimizers.

    The cluster radius converts the gradient tolerance into a position
    tolerance through the smallest observed Hessian curvature (capped at
    R/10 so a flat valley cannot trivially pass).
    """
    _require_samples(n_starts=n_starts)
    grid.subgrid(t - T, t)  # GridMismatch up front for a window off the grid
    center = _reference_state(sys, x0, u, t, T, grid)
    rng = np.random.default_rng(seed)
    starts = [center]
    if n_starts > 1:
        starts += list(ball_samples(rng, center, R, n_starts - 1)[:n_starts - 1])
    opts = opts.replace(ball_center=center, ball_radius=R)

    sols: list[MheSolution] = []
    fails: list[str] = []
    for s in starts:
        try:
            sols.append(solve_mhe(sys, x0, u, t, T, opts, grid, x_init=s))
        except ObsMheError as exc:
            fails.append(f"{type(exc).__name__}: {exc}")
    if not sols:
        return MultistartReport(unique=False, solutions=(), failures=tuple(fails),
                                max_pairwise_distance=float("inf"),
                                cluster_radius=0.0)
    curv = max(min(s.hess_min_eig for s in sols), 1e-12)
    cluster_radius = min(10.0 * opts.grad_tol / curv, R / 10.0)
    pts = np.stack([s.xi_star for s in sols])
    dmax = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dmax = max(dmax, float(np.linalg.norm(pts[i] - pts[j])))
    return MultistartReport(unique=dmax <= cluster_radius and not fails,
                            solutions=tuple(sols), failures=tuple(fails),
                            max_pairwise_distance=dmax,
                            cluster_radius=cluster_radius)
