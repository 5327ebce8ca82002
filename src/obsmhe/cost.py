"""Cumulative output error, its perturbed variant, and analytic derivatives.

The cost of comparing two state hypotheses over a window is the integral
of the squared output mismatch of their flows. Quadrature is composite
Simpson on the RK4 grid, so the window grid must have an even number of
steps. All functions are pure; trajectories are integrated per call.

A finite-difference Hessian needs the gradients at its 2 n_x difference
points. `fd_hessian` asks for them all at once, so the window costs
flow the points as one block of rows (`candidate_terms_rows`). Several
noise draws of one reference flow as one block as well
(`reference_and_noise_directions_rows`). The outputs and output
Jacobians of a block are taken with one row-callback call per node
(`ode_core.outputs_rows`, `ode_core.output_jacobians_rows`); those of a
single trajectory, one per-row call per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridMismatch
from .ode_core import (
    Array,
    ControlSystem,
    InputSignal,
    NoiseSignals,
    SampledSignal,
    TimeGrid,
    flow,
    flow_and_stm,
    flow_and_stm_rows,
    output_jacobians_rows,
    outputs_rows,
    perturbed_flow,
    perturbed_flow_and_sensitivities,
    perturbed_flow_and_sensitivities_rows,
    require_width,
    stack_rows,
)


@dataclass(frozen=True)
class WindowCost:
    """Nonnegative cost of an output-mismatch integral over one window."""

    t_start: float
    t_end: float
    value: float
    grid: TimeGrid


def simpson_weights(grid: TimeGrid) -> Array:
    """Composite Simpson weights for the grid nodes (n_steps must be even)."""
    n = grid.n_steps
    if n % 2:
        raise GridMismatch("composite Simpson needs an even number of steps")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (grid.h / 3.0)


def _outputs(sys: ControlSystem, xs: Array, us: Array) -> Array:
    return stack_rows((sys.h(x, u) for x, u in zip(xs, us)), len(xs))


def output_jacobians(sys: ControlSystem, xs: Array, us: Array) -> Array:
    return stack_rows((sys.dh_dx(x, u) for x, u in zip(xs, us)), len(xs))


def fd_step(point: Array, eps: float = 1e-5) -> float:
    """Central-difference step scaled to the magnitude of the point."""
    return eps * max(1.0, float(np.linalg.norm(point)))


def fd_gradient(fn: Callable[[Array], Array], x: Array, eps: Optional[float] = None) -> Array:
    """Central finite differences of fn at x, one column per coordinate of x:
    the gradient of a scalar fn, the Jacobian of a vector fn."""
    x = np.asarray(x, dtype=float)
    step = fd_step(x) if eps is None else eps
    return np.stack([(fn(x + e) - fn(x - e)) / (2.0 * step)
                     for e in step * np.eye(x.shape[0])], axis=-1)


def fd_points(x: Array) -> Array:
    """The central-difference points of `fd_hessian` at x, stacked as
    [x + e_0, x - e_0, x + e_1, ...] with e_j = fd_step(x) times the unit
    vector j: (2 n_x, n_x)."""
    x = np.asarray(x, dtype=float)
    es = fd_step(x) * np.eye(x.shape[0])
    pts = np.empty((2 * x.shape[0], x.shape[0]))
    pts[0::2] = x + es
    pts[1::2] = x - es
    return pts


def fd_hessian(grads_at: Callable[[Array], Array], x: Array) -> Array:
    """Symmetrized central finite differences of an analytic gradient.

    `grads_at` maps the stacked `fd_points(x)` to their gradients,
    (2 n_x, n_x). The result equals 0.5 (H + H^T), H = `fd_gradient` of
    the gradient at x, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    g = grads_at(fd_points(x))
    h = ((g[0::2] - g[1::2]) / (2.0 * fd_step(x))).T
    return 0.5 * (h + h.T)


def cum_output_error(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                     xi2: Array, u: InputSignal, grid: TimeGrid) -> WindowCost:
    """Integral over [t1, t2] of the squared output mismatch of the flows
    started at (t1, xi1) and (t1, xi2)."""
    sub = grid.subgrid(t1, t2)
    us = u.at_nodes(sub)
    y1 = _outputs(sys, flow(sys, t1, t2, xi1, u, sub), us)
    y2 = _outputs(sys, flow(sys, t1, t2, xi2, u, sub), us)
    mismatch = np.sum((y2 - y1) ** 2, axis=1)
    value = float(simpson_weights(sub) @ mismatch)
    return WindowCost(t1, t2, value, sub)


def grad_cum_error(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                   xi2: Array, u: InputSignal, grid: TimeGrid) -> Array:
    """Analytic gradient of cum_output_error in xi2.

    Assembles 2 * integral of (y2 - y1)^T H(x2) Phi along the co-integrated
    xi2-trajectory.
    """
    sub = grid.subgrid(t1, t2)
    us = u.at_nodes(sub)
    y1 = _outputs(sys, flow(sys, t1, t2, xi1, u, sub), us)
    x2, phis = flow_and_stm(sys, t1, t2, xi2, u, sub)
    y2 = _outputs(sys, x2, us)
    hs = output_jacobians(sys, x2, us)
    # (y2 - y1)^T H Phi at each node
    rows = np.einsum("ni,nij,njk->nk", y2 - y1, hs, phis)
    return 2.0 * (simpson_weights(sub) @ rows)


def gauss_newton_term(sys: ControlSystem, t1: float, t2: float, xi2: Array,
                      u: InputSignal, grid: TimeGrid) -> Array:
    """The windowed integral of Phi^T H^T H Phi along the xi2-trajectory.

    This is the Grammian-style curvature term C(t, T, xi2, u); the
    Gauss-Newton Hessian of the window cost is 2*C.
    """
    sub = grid.subgrid(t1, t2)
    x2, phis = flow_and_stm(sys, t1, t2, xi2, u, sub)
    return window_grammian(sub, output_jacobians(sys, x2, u.at_nodes(sub)), phis)


def window_grammian(win: TimeGrid, hs: Array, phis: Array) -> Array:
    """Simpson integral over win of Phi^T H^T H Phi, symmetrized, from
    the output Jacobians and STMs at the window nodes."""
    hphi = np.einsum("nij,njk->nik", hs, phis)
    integrand = np.einsum("nij,nik->njk", hphi, hphi)
    c = np.einsum("n,njk->jk", simpson_weights(win), integrand)
    return 0.5 * (c + c.T)


def hess_cum_error(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                   xi2: Array, u: InputSignal, grid: TimeGrid,
                   mode: str = "gauss_newton") -> Array:
    """Hessian of cum_output_error in xi2.

    gauss_newton: 2*C(t, T, xi2, u); exact at xi2 = xi1 where the residual
    term vanishes. full_fd: symmetrized central finite differences of the
    analytic gradient, which captures the residual term as well; its
    difference points flow as one block against one flow from xi1.
    """
    if mode == "gauss_newton":
        return 2.0 * gauss_newton_term(sys, t1, t2, xi2, u, grid)
    if mode != "full_fd":
        raise ValueError(f"unknown hessian mode {mode!r}")
    sub = grid.subgrid(t1, t2)
    y1 = _outputs(sys, flow(sys, t1, t2, xi1, u, sub), u.at_nodes(sub))
    return fd_hessian(
        lambda pts: grads_from_terms(sub, candidate_terms_rows(sys, sub, pts, u), y1),
        xi2)


# ---------------------------------------------------------------------------
# Perturbed cost: the reference trajectory is driven by process noise w from
# time 0 and the measured output carries additive noise v on the window.
# ---------------------------------------------------------------------------

def _window_grid(t: float, T: float, grid: TimeGrid) -> TimeGrid:
    if t < T:
        raise GridMismatch("window end t must be at least the horizon T")
    return grid.subgrid(t - T, t)


def perturbed_reference(sys: ControlSystem, t: float, T: float, x0: Array,
                        u: InputSignal, eta: NoiseSignals,
                        grid: TimeGrid) -> tuple[Array, Array]:
    """Perturbed reference on the window: states x~(s, w) and measured
    outputs h(x~) + v at the window nodes.

    The reference is integrated from (0, x0) on the [0, t] span of the
    run grid, so process noise accumulated before the window is
    accounted for.
    """
    require_width(eta.v, sys.n_y, "measurement noise v")
    win = _window_grid(t, T, grid)
    full = grid.subgrid(0.0, t)
    xs = perturbed_flow(sys, 0.0, t, x0, u, eta.w, full)[full.index_of(t - T):]
    ys = _outputs(sys, xs, u.at_nodes(win))
    return xs, ys if eta.v is None else ys + eta.v.at_nodes(win)


def candidate_terms(sys: ControlSystem, win: TimeGrid, xi: Array,
                    u: InputSignal) -> tuple[Array, Array, Array]:
    """Outputs, output Jacobians and STMs at the window nodes of the
    candidate flow from (win.t_start, xi): all a window gradient needs."""
    us = u.at_nodes(win)
    xs, phis = flow_and_stm(sys, win.t_start, win.t_end, xi, u, win)
    return _outputs(sys, xs, us), output_jacobians(sys, xs, us), phis


def candidate_terms_rows(sys: ControlSystem, win: TimeGrid, xis: Array,
                         u: InputSignal) -> list[tuple[Array, Array, Array]]:
    """`candidate_terms` from each row of xis, (B, n_x), from one batched
    flow and one output and one Jacobian call per node; item b equals
    `candidate_terms` from xis[b] bit for bit."""
    us = u.at_nodes(win)
    xs, phis = flow_and_stm_rows(sys, win.t_start, win.t_end, xis, u, win)
    ys, hs = outputs_rows(sys, xs, us), output_jacobians_rows(sys, xs, us)
    return [(ys[b], hs[b], phis[:, b]) for b in range(xs.shape[1])]


def grads_from_terms(win: TimeGrid, terms: Sequence[tuple[Array, Array, Array]],
                     ref_out: Array) -> Array:
    """`grad_from_terms` of each candidate in `terms`, stacked: (B, n_x)."""
    return np.stack([grad_from_terms(win, t, ref_out) for t in terms])


def grad_from_terms(win: TimeGrid, terms: tuple[Array, Array, Array],
                    ref_out: Array) -> Array:
    """Window gradient from `candidate_terms` against a measured-output
    trajectory: 2 * integral of (y - ref_out)^T H Phi."""
    ys, hs, phis = terms
    rows = np.einsum("ni,nij,njk->nk", ys - ref_out, hs, phis)
    return 2.0 * (simpson_weights(win) @ rows)


def perturbed_cost_from_reference(sys: ControlSystem, win: TimeGrid, xi: Array,
                                  u: InputSignal, ref_out: Array) -> float:
    """Window cost against a precomputed measured-output trajectory."""
    xs = flow(sys, win.t_start, win.t_end, xi, u, win)
    resid = _outputs(sys, xs, u.at_nodes(win)) - ref_out
    return float(simpson_weights(win) @ np.sum(resid ** 2, axis=1))


def grad_perturbed_cost_from_reference(sys: ControlSystem, win: TimeGrid, xi: Array,
                                       u: InputSignal, ref_out: Array) -> Array:
    """Analytic gradient in xi against a precomputed measured-output trajectory."""
    return grad_from_terms(win, candidate_terms(sys, win, xi, u), ref_out)


def perturbed_cost(sys: ControlSystem, t: float, T: float, x0: Array, xi: Array,
                   u: InputSignal, eta: NoiseSignals, grid: TimeGrid) -> WindowCost:
    """Cost of the hypothesis (t-T, xi) against the noisy reference record."""
    win = _window_grid(t, T, grid)
    _, ref_out = perturbed_reference(sys, t, T, x0, u, eta, grid)
    value = perturbed_cost_from_reference(sys, win, xi, u, ref_out)
    return WindowCost(t - T, t, value, win)


def grad_perturbed_cost(sys: ControlSystem, t: float, T: float, x0: Array,
                        xi: Array, u: InputSignal, eta: NoiseSignals,
                        grid: TimeGrid) -> Array:
    """Gradient of perturbed_cost in xi."""
    win = _window_grid(t, T, grid)
    _, ref_out = perturbed_reference(sys, t, T, x0, u, eta, grid)
    return grad_perturbed_cost_from_reference(sys, win, xi, u, ref_out)


def grad_sensitivities(sys: ControlSystem, win: TimeGrid, xi: Array,
                       u: InputSignal, dys: Sequence[Array]) -> Array:
    """Derivatives of the perturbed-cost gradient at xi along k output
    perturbations, one column each: -2 * integral of (H Phi)^T dy(s).

    Each dy holds the measured-output shift at the window nodes,
    (n_nodes, n_y). All k columns share one window STM at xi.
    """
    return sensitivities_from_terms(win, candidate_terms(sys, win, xi, u), dys)


def sensitivities_from_terms(win: TimeGrid, terms: tuple[Array, Array, Array],
                             dys: Sequence[Array]) -> Array:
    """`grad_sensitivities` from the `candidate_terms` at xi."""
    _, hs, phis = terms
    w = simpson_weights(win)
    return np.stack([-2.0 * (w @ np.einsum("ni,nij,njk->nk", dy, hs, phis))
                     for dy in dys], axis=-1)


def reference_and_noise_directions_rows(sys: ControlSystem, t: float, T: float,
                                        x0: Array, u: InputSignal,
                                        etas: Sequence[NoiseSignals],
                                        grid: TimeGrid
                                        ) -> list[tuple[Array, list[Array]]]:
    """For each noise draw in etas, the measured outputs of
    `perturbed_reference` and the `noise_output_directions` at its w.

    The w-perturbed references and their noise sensitivities flow as one
    augmented block of rows, and their outputs and output Jacobians are
    taken per node across the draws. Item b equals the single-draw
    results at etas[b] bit for bit."""
    for eta in etas:
        require_width(eta.v, sys.n_y, "measurement noise v")
    win = _window_grid(t, T, grid)
    full = grid.subgrid(0.0, t)
    dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(sys.n_x)]
    xs, zs = perturbed_flow_and_sensitivities_rows(
        sys, t, x0, u, [eta.w for eta in etas], dws, full)
    i0 = full.index_of(t - T)
    xs, zs = xs[i0:], zs[i0:]
    us = u.at_nodes(win)
    ys, h_ref = outputs_rows(sys, xs, us), output_jacobians_rows(sys, xs, us)
    n_nodes = win.n_steps + 1
    v_dirs = [np.tile(e, (n_nodes, 1)) for e in np.eye(sys.n_y)]
    out = []
    for b, eta in enumerate(etas):
        dys = v_dirs + [np.einsum("nij,nj->ni", h_ref[b], zs[:, b, :, j])
                        for j in range(sys.n_x)]
        out.append((ys[b] if eta.v is None else ys[b] + eta.v.at_nodes(win), dys))
    return out


def noise_output_directions(sys: ControlSystem, t: float, T: float, x0: Array,
                            u: InputSignal, w: Optional[SampledSignal],
                            grid: TimeGrid) -> list[Array]:
    """The window output shifts along every constant unit noise direction:
    e_j for the n_y measurement-noise directions, then H(x~) z_j for the
    n_x process-noise directions.

    x~ is the reference perturbed by w from (0, x0) and z_j its noise
    sensitivities, integrated together in one augmented RK4 flow.
    `grad_sensitivities` along them gives the columns of
    `grad_sensitivity_v` and `grad_sensitivity_w` for those directions.
    """
    return reference_and_noise_directions_rows(sys, t, T, x0, u,
                                               [NoiseSignals(w=w)], grid)[0][1]


def grad_sensitivity_v(sys: ControlSystem, t: float, T: float, xi: Array,
                       u: InputSignal, grid: TimeGrid,
                       dv: SampledSignal) -> Array:
    """Directional derivative of the perturbed-cost gradient in the
    measurement-noise direction dv: -2 * integral of (H Phi)^T dv(s).

    Affine structure: independent of the noise the gradient is taken at.
    """
    require_width(dv, sys.n_y, "noise direction dv")
    win = _window_grid(t, T, grid)
    return grad_sensitivities(sys, win, xi, u, [dv.at_nodes(win)])[:, 0]


def grad_sensitivity_w(sys: ControlSystem, t: float, T: float, x0: Array,
                       xi: Array, u: InputSignal, eta: NoiseSignals,
                       grid: TimeGrid, dw: SampledSignal) -> Array:
    """Directional derivative of the perturbed-cost gradient in the
    process-noise direction dw.

    Uses the noise sensitivity z(s) = d_w x~(s, w) . dw of the perturbed
    reference: -2 * integral of (H(x^) Phi)^T H(x~) z(s).
    """
    win = _window_grid(t, T, grid)
    full = grid.subgrid(0.0, t)
    xs_ref, zs_full = perturbed_flow_and_sensitivities(sys, t, x0, u, eta.w,
                                                       [dw], full)
    i0 = full.index_of(t - T)
    h_ref = output_jacobians(sys, xs_ref[i0:], u.at_nodes(win))
    dy = np.einsum("nij,nj->ni", h_ref, zs_full[i0:, :, 0])
    return grad_sensitivities(sys, win, xi, u, [dy])[:, 0]
