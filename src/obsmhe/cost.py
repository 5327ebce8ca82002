"""Cumulative output error, its perturbed variant, and analytic derivatives.

FIE, MHE and perturbed MHE minimize one window cost: the integral over a
window of the squared mismatch between the outputs of the flow from a
candidate start and a reference output. `WindowProblem` is its one
implementation, with the gradient and the Hessian in the start. The
cumulative output error compares two state hypotheses, so its reference
is the outputs of the flow from the first (`cum_output_error`,
`grad_cum_error`, `hess_cum_error`); the perturbed cost's reference is
the noisy record (`perturbed_cost`, `grad_perturbed_cost`), and so is
the window solvers'. Quadrature is composite Simpson on the RK4 grid, so
the window grid must have an even number of steps. All functions are
pure; trajectories are integrated per call, except that the windows of
one estimator run share its reference flows (`_RunReference`).

One body serves everything along a window. A window [t-T, t] is
`_window_grid`, GridMismatch naming t and T unless 0 < T <= t and the
window has an even number of steps. The states,
output Jacobians and STMs of starts on windows of one length are
`window_tangents`: one `ode_core.flow_and_stm_windows` block and one
`dh_dx_rows` call. A Grammian is `window_grammian` of one of its rows
(`window_grammians`; `gauss_newton_term`, half the Gauss-Newton
Hessian, is one window), and the candidate terms behind every gradient
and finite-difference Hessian add one output call
(`candidate_terms_rows`). A candidate's cost flows as a one-row
`ode_core.flow_windows` block, several noise draws of one reference as
one `_noise_reference_block`. The non-uniform audit's noise block,
`_center_and_noise_block`, splits that flow at the window start and
restarts the zero-noise row at Z = I there, so its row 0 carries the
center's window STM and no step of [0, t] is integrated twice. Its
window leg hands each row's noise steps and noise directions to
`ode_core._tangents_on`; only `ode_core` lays out the forcing. Only
references flow as single trajectories, and every output and output
Jacobian takes one row-callback call (`ode_core.outputs_rows`,
`output_jacobians_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .ode_core import (Array, ControlSystem, InputSignal, NoiseSignals, SampledSignal,
                       TimeGrid, _noise_steps, _tangents_on, _window_inputs, flow,
                       flow_and_stm_windows, flow_windows, output_jacobians_rows,
                       outputs_rows, perturbed_flow,
                       perturbed_flow_and_sensitivities_rows, require_state,
                       require_width)


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


def fd_step(point: Array) -> float:
    """Central-difference step: 1e-5 scaled to the magnitude of the point."""
    return 1e-5 * max(1.0, float(np.linalg.norm(point)))


def fd_gradient(fn: Callable[[Array], Array], x: Array) -> Array:
    """Central finite differences of fn at x, one column per coordinate of x:
    the gradient of a scalar fn, the Jacobian of a vector fn."""
    x = np.asarray(x, dtype=float)
    step = fd_step(x)
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


def fd_hessian(grads: Array, x: Array) -> Array:
    """Symmetrized central finite differences of an analytic gradient.

    `grads` holds the gradients at the stacked `fd_points(x)`, (2 n_x,
    n_x). The result equals 0.5 (H + H^T), H = `fd_gradient` of the
    gradient at x, bit for bit.
    """
    h = ((grads[0::2] - grads[1::2]) / (2.0 * fd_step(x))).T
    return 0.5 * (h + h.T)


class WindowProblem:
    """The window cost of a candidate start xi against a reference output
    ref_out at the nodes of win, with its gradient and Hessian in xi: the
    Simpson integral over win of |y(s) - ref_out(s)|^2, y the outputs of
    the flow from (win.t_start, xi)."""

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
        """gauss_newton: 2*C(t, T, xi, u), exact where the residual
        vanishes. full_fd: `hess_fd`, which captures the residual term as
        well."""
        if mode == "gauss_newton":
            return 2.0 * gauss_newton_term(self.sys, self.win.t_start,
                                           self.win.t_end, xi, self.u, self.win)
        if mode == "full_fd":
            return self.hess_fd(xi)
        raise ValueError(f"unknown hessian mode {mode!r}")

    def hess_fd(self, xi: Array) -> Array:
        """fd_hessian of the cost at xi; its difference points flow as one
        block of rows."""
        terms = candidate_terms_rows(self.sys, self.win, fd_points(xi), self.u)
        return fd_hessian(grads_from_terms(self.win, terms, self.ref_out), xi)


def _flow_problem(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                  u: InputSignal, grid: TimeGrid) -> WindowProblem:
    """The window [t1, t2] against the outputs of the flow from (t1, xi1)."""
    win = grid.subgrid(t1, t2)
    xs = flow(sys, t1, t2, require_state(sys, xi1, "xi1"), u, win)
    return WindowProblem(sys, u, win, outputs_rows(sys, xs[:, None], u.at_nodes(win))[0])


def cum_output_error(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                     xi2: Array, u: InputSignal, grid: TimeGrid) -> WindowCost:
    """Integral over [t1, t2] of the squared output mismatch of the flows
    started at (t1, xi1) and (t1, xi2)."""
    problem = _flow_problem(sys, t1, t2, xi1, u, grid)
    return WindowCost(t1, t2, problem.cost(require_state(sys, xi2, "xi2")), problem.win)


def grad_cum_error(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                   xi2: Array, u: InputSignal, grid: TimeGrid) -> Array:
    """Analytic gradient of cum_output_error in xi2: 2 * integral of
    (y2 - y1)^T H(x2) Phi along the co-integrated xi2-trajectory."""
    return _flow_problem(sys, t1, t2, xi1, u, grid).grad(require_state(sys, xi2, "xi2"))


def gauss_newton_term(sys: ControlSystem, t1: float, t2: float, xi2: Array,
                      u: InputSignal, grid: TimeGrid) -> Array:
    """The windowed integral C(t, T, xi2, u) of Phi^T H^T H Phi along the
    xi2-trajectory, half the Gauss-Newton Hessian of the window cost: the
    one-window case of `window_grammians`."""
    xi2 = require_state(sys, xi2, "xi2")
    return window_grammians(sys, [grid.subgrid(t1, t2)], xi2[None], u)[0]


def window_grammian(win: TimeGrid, hs: Array, phis: Array) -> Array:
    """Simpson integral over win of Phi^T H^T H Phi, symmetrized, from
    the output Jacobians and STMs at the window nodes."""
    hphi = np.einsum("nij,njk->nik", hs, phis)
    integrand = np.einsum("nij,nik->njk", hphi, hphi)
    c = np.einsum("n,njk->jk", simpson_weights(win), integrand)
    return 0.5 * (c + c.T)


def window_grammians(sys: ControlSystem, wins: Sequence[TimeGrid], centers: Array,
                     u: InputSignal) -> list[Array]:
    """The Grammian of each window wins[w] along the trajectory from its
    start at centers[w], (W, n_x): `window_grammian` of each row of one
    `window_tangents` block."""
    _, hs, phis = window_tangents(sys, wins, np.asarray(centers)[:, None], u)
    return [window_grammian(win, hs[b], np.ascontiguousarray(phis[:, b]))
            for b, win in enumerate(wins)]


def window_tangents(sys: ControlSystem, wins: Sequence[TimeGrid], xis: Array,
                    u: InputSignal) -> tuple[Array, Array, Array]:
    """States (n+1, W*m, n_x), output Jacobians (W*m, n+1, n_y, n_x) and
    STMs (n+1, W*m, n_x, n_x) of the `flow_and_stm_windows` block of the
    starts xis, (W, m, n_x), with one `dh_dx_rows` call, every row at its
    own window's node inputs; row w*m + j equals xis[w, j] alone."""
    xs, phis = flow_and_stm_windows(sys, wins, xis, u)
    (us,) = _window_inputs(u, wins, 1, 0)  # one input row per window
    return xs, output_jacobians_rows(sys, xs, us), phis


def hess_cum_error(sys: ControlSystem, t1: float, t2: float, xi1: Array,
                   xi2: Array, u: InputSignal, grid: TimeGrid,
                   mode: str = "gauss_newton") -> Array:
    """Hessian of cum_output_error in xi2, `WindowProblem.hess` against the
    flow from xi1 (which gauss_newton does not use)."""
    return _flow_problem(sys, t1, t2, xi1, u, grid).hess(require_state(sys, xi2, "xi2"),
                                                          mode)


# ---------------------------------------------------------------------------
# Perturbed cost: the reference trajectory is driven by process noise w from
# time 0 and the measured output carries additive noise v on the window.
# ---------------------------------------------------------------------------

def _require_window(t: float, T: float) -> None:
    """GridMismatch naming t and T unless 0 < T <= t."""
    if not 0.0 < T <= t:
        raise GridMismatch(f"window [t-T, t] needs T > 0 and t >= T, got t={t}, T={T}")


def _window_grid(t: float, T: float, grid: TimeGrid) -> TimeGrid:
    """The window [t-T, t] of grid; `_require_window` first, then
    GridMismatch naming t, T and the step count unless the window has an
    even number of steps: every window cost and Grammian is a composite
    Simpson integral over it."""
    _require_window(t, T)
    win = grid.subgrid(t - T, t)
    if win.n_steps % 2:
        raise GridMismatch(f"window [t-T, t] needs an even number of steps for "
                           f"composite Simpson, got {win.n_steps} at t={t}, T={T}")
    return win


class _RunReference:
    """The reference of one run from (0, x0) on the run grid, served to the
    windows [t-T, t] of the run with their ends t in ascending order.

    `measured(t)` gives the states x~(s, w) of the w-perturbed flow and the
    measured outputs h(x~) + v at the window nodes; `window(t)` adds the
    state x(t-T) of the unperturbed flow. Each call extends the perturbed
    flow to t and the unperturbed flow to t-T from where the previous
    window left them, and keeps the perturbed states from the window's
    start on. A flow split at a node equals the whole flow bit for bit, so
    every window gets the results of its own flows from (0, x0), and a
    window whose flow raises leaves that flow where it was.
    """

    def __init__(self, sys: ControlSystem, x0: Array, u: InputSignal, T: float,
                 eta: NoiseSignals, grid: TimeGrid):
        require_width(eta.v, sys.n_y, "measurement noise v")
        self.sys, self.u, self.T, self.eta, self.grid = sys, u, T, eta, grid
        x0 = require_state(sys, x0, "x0")
        self._noisy = (0.0, x0[None])  # last time, perturbed states up to it
        self._plain = (0.0, x0)  # last time, unperturbed state there

    def measured(self, t: float) -> tuple[TimeGrid, Array, Array]:
        """(win, x~ on win, h(x~) + v on win) of the window [t-T, t]."""
        sys, u, grid = self.sys, self.u, self.grid
        win = _window_grid(t, self.T, grid)
        s, xs = self._noisy
        k, k_last = grid.index_of(t), grid.index_of(s)
        if k < k_last:
            raise ValueError("window ends must be taken in ascending order")
        if k > k_last:
            seg = perturbed_flow(sys, s, t, xs[-1], u, self.eta.w, grid)
            xs = np.concatenate([xs[:-1], seg])
        xs = xs[len(xs) - 1 - win.n_steps:]
        self._noisy = (t, xs)
        ys = outputs_rows(sys, xs[:, None], u.at_nodes(win))[0]
        return win, xs, ys if self.eta.v is None else ys + self.eta.v.at_nodes(win)

    def window(self, t: float) -> tuple[TimeGrid, Array, Array]:
        """(win, x(t-T), h(x~) + v on win) of the window [t-T, t]."""
        win, _, ref_out = self.measured(t)
        s, x = self._plain
        if self.grid.index_of(t - self.T) > self.grid.index_of(s):
            x = flow(self.sys, s, t - self.T, x, self.u, self.grid)[-1]
            self._plain = (t - self.T, x)
        return win, x, ref_out


def perturbed_reference(sys: ControlSystem, t: float, T: float, x0: Array,
                        u: InputSignal, eta: NoiseSignals,
                        grid: TimeGrid) -> tuple[Array, Array]:
    """States x~(s, w) and measured outputs h(x~) + v at the nodes of the
    window [t-T, t], flowed from (0, x0) so that the process noise before
    the window counts: `_RunReference.measured` of one window."""
    return _RunReference(sys, x0, u, T, eta, grid).measured(t)[1:]


def candidate_terms_rows(sys: ControlSystem, win: TimeGrid, xis: Array,
                         u: InputSignal) -> list[tuple[Array, Array, Array]]:
    """The outputs, output Jacobians and STMs at the window nodes of the
    flow from each row of xis, (B, n_x): all a window gradient needs, the
    `window_tangents` of one window and one output call. Item b equals the
    terms of row b flowed alone, bit for bit."""
    xs, hs, phis = window_tangents(sys, [win], np.asarray(xis)[None], u)
    ys = outputs_rows(sys, xs, u.at_nodes(win))
    return [(ys[b], hs[b], phis[:, b]) for b in range(xs.shape[1])]


def grads_from_terms(win: TimeGrid, terms: Sequence[tuple[Array, Array, Array]],
                     ref_out: Array) -> Array:
    """`grad_from_terms` of each candidate in `terms`, stacked: (B, n_x)."""
    return np.stack([grad_from_terms(win, t, ref_out) for t in terms])


def grad_from_terms(win: TimeGrid, terms: tuple[Array, Array, Array],
                    ref_out: Array) -> Array:
    """Window gradient from one item of `candidate_terms_rows` against a
    measured-output trajectory: 2 * integral of (y - ref_out)^T H Phi."""
    ys, hs, phis = terms
    rows = np.einsum("ni,nij,njk->nk", ys - ref_out, hs, phis)
    return 2.0 * (simpson_weights(win) @ rows)


def perturbed_cost_from_reference(sys: ControlSystem, win: TimeGrid, xi: Array,
                                  u: InputSignal, ref_out: Array) -> float:
    """Window cost against a precomputed measured-output trajectory; the
    candidate flows as a one-row `flow_windows` block."""
    xs = flow_windows(sys, [win], require_state(sys, xi, "xi")[None, None], u)
    resid = outputs_rows(sys, xs, u.at_nodes(win))[0] - ref_out
    return float(simpson_weights(win) @ np.sum(resid ** 2, axis=1))


def grad_perturbed_cost_from_reference(sys: ControlSystem, win: TimeGrid, xi: Array,
                                       u: InputSignal, ref_out: Array) -> Array:
    """Analytic gradient in xi against a precomputed measured-output trajectory."""
    terms = candidate_terms_rows(sys, win, require_state(sys, xi, "xi")[None], u)[0]
    return grad_from_terms(win, terms, ref_out)


def _perturbed_problem(sys: ControlSystem, t: float, T: float, x0: Array,
                       u: InputSignal, eta: NoiseSignals,
                       grid: TimeGrid) -> WindowProblem:
    """The window [t-T, t] against the noisy reference record."""
    win, _, ref_out = _RunReference(sys, x0, u, T, eta, grid).measured(t)
    return WindowProblem(sys, u, win, ref_out)


def perturbed_cost(sys: ControlSystem, t: float, T: float, x0: Array, xi: Array,
                   u: InputSignal, eta: NoiseSignals, grid: TimeGrid) -> WindowCost:
    """Cost of the hypothesis (t-T, xi) against the noisy reference record."""
    problem = _perturbed_problem(sys, t, T, x0, u, eta, grid)
    return WindowCost(t - T, t, problem.cost(xi), problem.win)


def grad_perturbed_cost(sys: ControlSystem, t: float, T: float, x0: Array,
                        xi: Array, u: InputSignal, eta: NoiseSignals,
                        grid: TimeGrid) -> Array:
    """Gradient of perturbed_cost in xi."""
    return _perturbed_problem(sys, t, T, x0, u, eta, grid).grad(xi)


def grad_sensitivities(sys: ControlSystem, win: TimeGrid, xi: Array,
                       u: InputSignal, dys: Sequence[Array]) -> Array:
    """Derivatives of the perturbed-cost gradient at xi along k output
    perturbations, one column each: -2 * integral of (H Phi)^T dy(s).

    Each dy holds the measured-output shift at the window nodes,
    (n_nodes, n_y); DimensionMismatch naming the first that does not, and
    ValueError for no shifts, before any flow. All k columns share the
    `window_tangents` at xi.
    """
    xi = require_state(sys, xi, "xi")
    if not len(dys):
        raise ValueError("need at least one output shift")
    shape = (win.n_steps + 1, sys.n_y)
    for j, dy in enumerate(dys):
        if np.shape(dy) != shape:
            raise DimensionMismatch(f"output shift {j} has shape {np.shape(dy)}, "
                                    f"expected (n_nodes, n_y) = {shape}")
    _, hs, phis = window_tangents(sys, [win], xi[None, None], u)
    return sensitivities_from_tangents(win, hs[0], phis[:, 0], dys)


def sensitivities_from_tangents(win: TimeGrid, hs: Array, phis: Array,
                                dys: Sequence[Array]) -> Array:
    """`grad_sensitivities` from the output Jacobians and STMs at xi."""
    w = simpson_weights(win)
    return np.stack([-2.0 * (w @ np.einsum("ni,nij,njk->nk", dy, hs, phis))
                     for dy in dys], axis=-1)


def _noise_reference_block(sys: ControlSystem, t: float, T: float, x0: Array,
                           u: InputSignal, ws: Sequence[Optional[SampledSignal]],
                           grid: TimeGrid, dws: Optional[Sequence[SampledSignal]] = None
                           ) -> tuple[TimeGrid, Array, Array]:
    """(win, states (n+1, B, n_x), sensitivities (n+1, B, n_x, k)) on the
    window [t-T, t] of the w-perturbed references of the draws ws (None
    meaning zero noise), flowed from (0, x0) on the [0, t] span of the run
    grid as one block, with their sensitivities along dws (default: the
    n_x constant unit directions). [:, b] equals the window slice of
    `perturbed_flow_and_sensitivities` under ws[b] bit for bit. The uniform
    audit and `grad_sensitivity_w` take their references from it; the
    non-uniform audit, which also needs the window STM of its center,
    takes the same rows split at t-T (`_center_and_noise_block`)."""
    x0 = require_state(sys, x0, "x0")
    win = _window_grid(t, T, grid)
    full = grid.subgrid(0.0, t)
    if dws is None:
        dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(sys.n_x)]
    xs, zs = perturbed_flow_and_sensitivities_rows(sys, t, x0, u, ws, dws, full)
    i0 = win.offset - full.offset
    return win, xs[i0:], zs[i0:]


def _center_and_noise_block(sys: ControlSystem, t: float, T: float, x0: Array,
                            u: InputSignal, ws: Sequence[SampledSignal],
                            grid: TimeGrid) -> tuple[TimeGrid, Array, Array]:
    """(win, states (n+1, 1+B, n_x), tangents (n+1, 1+B, n_x, n_x)) on the
    window [t-T, t] of the zero-noise reference (row 0) and of the
    w-perturbed references of the B draws ws (rows 1..B), flowed from
    (0, x0) on the run grid so that each step of [0, t] is integrated once.

    [0, t-T] flows as one `perturbed_flow_and_sensitivities_rows` block of
    [None] + ws along the n_x constant unit directions; it is empty when
    t = T. The window then flows as one `ode_core._tangents_on` block from
    the states and tangents at t-T: row 0 restarts at Z = I with no noise
    and no directions, so its tangents are the STMs Phi(s, t-T) of the
    window center, and the draw rows continue their sensitivities. A flow
    split at a node equals the whole flow bit for bit, so row 0 equals the
    `window_tangents` of the center and rows 1..B the
    `_noise_reference_block` rows of ws.
    """
    x0 = require_state(sys, x0, "x0")
    win = _window_grid(t, T, grid)
    n_x, rows, eye = sys.n_x, [None] + list(ws), np.eye(sys.n_x)
    full = grid.subgrid(0.0, t)
    if win.offset > full.offset:
        dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in eye]
        xs, zs = perturbed_flow_and_sensitivities_rows(sys, win.t_start, x0, u, rows,
                                                       dws, full)
        xs, zs = xs[-1], zs[-1]
    else:
        xs, zs = np.broadcast_to(x0, (len(rows), n_x)), np.zeros((len(rows), n_x, n_x))
    zs[0] = eye
    dw = np.zeros((len(rows), n_x, n_x))
    dw[1:] = eye
    return (win,) + _tangents_on(sys, [win], xs, zs, u, _noise_steps(rows, win, n_x),
                                 np.broadcast_to(dw, (win.n_steps,) + dw.shape))


def reference_and_noise_directions_rows(sys: ControlSystem, t: float, T: float,
                                        x0: Array, u: InputSignal,
                                        etas: Sequence[NoiseSignals],
                                        grid: TimeGrid
                                        ) -> list[tuple[Array, list[Array]]]:
    """For each noise draw in etas, the measured outputs of
    `perturbed_reference` and the `noise_output_directions` at its w.

    The w-perturbed references and their noise sensitivities flow as one
    `_noise_reference_block`, and their outputs and output Jacobians are
    taken in one call each across the draws. Item b equals the single-draw
    results at etas[b] bit for bit."""
    for eta in etas:
        require_width(eta.v, sys.n_y, "measurement noise v")
    win, xs, zs = _noise_reference_block(sys, t, T, x0, u,
                                         [eta.w for eta in etas], grid)
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
    win, xs, zs = _noise_reference_block(sys, t, T, x0, u, [eta.w], grid, [dw])
    h_ref = output_jacobians_rows(sys, xs, u.at_nodes(win))[0]
    dy = np.einsum("nij,nj->ni", h_ref, zs[:, 0, :, 0])
    return grad_sensitivities(sys, win, xi, u, [dy])[:, 0]
