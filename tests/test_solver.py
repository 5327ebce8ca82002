"""Window solver, rolling estimation, and stability-audit tests.

The bearing scenarios give windows with known curvature (the Hessian at the
reference equals twice the closed-form Grammian), so convergence, error
magnitudes, and audit constants can all be checked against oracles.
"""

import dataclasses

import numpy as np
import pytest

from obsmhe import (
    BoundaryStuck, ConditionsFailed, GridMismatch, NoiseSignals,
    SampledSignal, SolverOptions, TimeGrid, ZERO_NOISE, bearing, flow,
    audit_nonuniform_stability, audit_uniform_stability, mhe_solver,
    multistart_uniqueness, ode_core, rolling_estimate, solve_fie, solve_mhe,
    solve_pmhe)
from obsmhe.cost import (fd_gradient, fd_hessian, grad_sensitivities,
                         output_jacobians, perturbed_reference)
from obsmhe.grammian import ball_samples
from conftest import assert_bits_equal, count_calls

OPTS = SolverOptions(ball_radius=0.1)


def _truth(sys_, x0, u, t, h=0.0025):
    g = TimeGrid.with_step(0.0, t, h)
    return flow(sys_, 0.0, t, x0, u, g)[-1]


def test_mhe_recovers_reference_from_offset_start(circ, x0, grid6):
    sys_, u = circ
    x_ref = _truth(sys_, x0, u, 1.0)
    sol = solve_mhe(sys_, x0, u, 2.0, 1.0, OPTS, grid6,
                    x_init=x_ref + np.array([0.03, -0.04]))
    assert sol.converged and not sol.projected
    assert sol.error_to_reference < 1e-8
    assert sol.grad_norm <= OPTS.grad_tol * max(1.0, sol.trace[0][0])


def test_mhe_curvature_matches_grammian_oracle(circ, x0, grid6):
    sys_, u = circ
    sol = solve_mhe(sys_, x0, u, 2.0, 1.0, OPTS, grid6)
    lo, _ = bearing.circ_eigs(1.0, 1.0, 1.0)
    assert sol.hess_min_eig == pytest.approx(2.0 * lo, rel=1e-4)


def test_zero_noise_pmhe_is_bitwise_mhe(circ, x0, grid6):
    sys_, u = circ
    a = solve_mhe(sys_, x0, u, 3.0, 1.0, OPTS, grid6)
    b = solve_pmhe(sys_, x0, u, 3.0, 1.0, ZERO_NOISE, OPTS, grid6)
    assert np.array_equal(a.xi_star, b.xi_star)
    assert a.cost == b.cost and a.trace == b.trace


def test_fie_estimates_initial_state(circ, x0, grid6):
    sys_, u = circ
    sol = solve_fie(sys_, x0, u, 2.0, OPTS, grid6,
                    x_init=np.asarray(x0) + np.array([0.02, 0.02]))
    assert sol.converged
    assert np.linalg.norm(sol.xi_star - x0) < 1e-8


def test_fie_rejects_subgrid_shorter_than_one_step(circ, x0, grid6):
    sys_, u = circ
    with pytest.raises(GridMismatch):
        solve_fie(sys_, x0, u, 0.001, OPTS, grid6)


def test_flat_valley_converges_in_place(cst, x0):
    # Straight-line motion toward the landmark freezes the bearing, so the
    # cost is flat along the motion direction: the solver accepts a nearby
    # zero-cost start immediately instead of drifting.
    sys_, u = cst
    grid = TimeGrid.with_step(0.0, 0.9, 0.0025)
    x_ref = _truth(sys_, x0, u, 0.4)
    shifted = x_ref + 0.01 * np.array([-1.0, 0.0])  # along the ray to (0, 0)
    sol = solve_mhe(sys_, x0, u, 0.9, 0.5,
                    OPTS.replace(ball_center=x_ref), grid, x_init=shifted)
    assert sol.converged and sol.iterations == 0
    assert sol.error_to_reference == pytest.approx(0.01, rel=1e-10)


def test_boundary_stuck_when_minimizer_outside_ball(circ, x0, grid6):
    sys_, u = circ
    x_ref = _truth(sys_, x0, u, 1.0)
    far = x_ref + np.array([0.5, 0.5])
    with pytest.raises(BoundaryStuck):
        solve_mhe(sys_, x0, u, 2.0, 1.0,
                  OPTS.replace(ball_center=far, ball_radius=0.05), grid6)


def test_pmhe_error_scales_with_noise(circ, x0, grid6):
    sys_, u = circ
    v = SampledSignal.constant(np.repeat([1e-3], 2, axis=-1), 1.0, 2.0, grid6.h)
    sol = solve_pmhe(sys_, x0, u, 2.0, 1.0, NoiseSignals(v=v), OPTS, grid6)
    assert sol.converged
    assert 0.0 < sol.error_to_reference < 0.05


def test_rolling_estimate_tracks_noise_free_truth(circ, x0, grid6):
    sys_, u = circ
    results = rolling_estimate(sys_, x0, u, [1.0, 2.0, 3.0, 4.0], 1.0,
                               ZERO_NOISE, OPTS, grid6)
    assert [r.t for r in results] == [1.0, 2.0, 3.0, 4.0]
    for r in results:
        assert r.failure is None
        assert r.solution.error_to_reference < 1e-8


def test_rolling_estimate_records_failures(circ, x0, grid6):
    sys_, u = circ
    v = SampledSignal.constant(np.repeat([1e-2], 2, axis=-1), 0.0, 6.0, grid6.h)
    results = rolling_estimate(sys_, x0, u, [2.0, 3.0], 1.0,
                               NoiseSignals(v=v),
                               OPTS.replace(max_iters=0), grid6)
    assert all(r.solution is None for r in results)
    assert all(r.failure.startswith("MaxItersExceeded") for r in results)


def test_solve_computes_each_gradient_once(circ, x0, grid6, monkeypatch):
    # One gradient per iterate; the final gradient norm reuses the last.
    sys_, u = circ
    calls = count_calls(monkeypatch, mhe_solver.grad_perturbed_cost_from_reference)
    blocks = count_calls(monkeypatch, ode_core.flow_and_stm_rows)
    x_ref = _truth(sys_, x0, u, 1.0)
    v = SampledSignal.constant([1e-3, -2e-3], 1.0, 2.0, grid6.h)
    sol = solve_pmhe(sys_, x0, u, 2.0, 1.0, NoiseSignals(v=v),
                     OPTS.replace(ball_center=x_ref + [0.03, -0.02]), grid6)
    assert sol.iterations >= 2
    assert len(calls) == 1 + sol.iterations
    # plus one block of the 2 n_x difference points of the Hessian behind
    # hess_min_eig
    assert [args[3].shape for args in blocks] == [(2 * sys_.n_x, sys_.n_x)]


def test_hess_fd_equals_per_point_gradients(nonlinear, x0, grid6):
    # The block of difference points gives the Hessian of one gradient
    # per point, bit for bit (nonlinear: the per-row fallbacks).
    sys_, u = nonlinear
    t, T = 2.0, 1.0
    rng = np.random.default_rng(41)
    eta = NoiseSignals(v=SampledSignal(0.0, grid6.h, 1e-3 * rng.standard_normal(
        (grid6.n_steps + 1, 2))))
    _, ref_out = perturbed_reference(sys_, t, T, x0, u, eta, grid6)
    problem = mhe_solver._WindowProblem(sys_, u, grid6.subgrid(t - T, t), ref_out)
    xi = x0 + [0.02, -0.01]
    h = fd_gradient(problem.grad, xi)
    assert_bits_equal(problem.hess_fd(xi), 0.5 * (h + h.T))


@pytest.mark.parametrize("mode", ["newton", "", None])
def test_solver_options_reject_unknown_hessian_mode(mode):
    with pytest.raises(ValueError, match="hessian mode"):
        SolverOptions(hessian_mode=mode)
    with pytest.raises(ValueError, match="hessian mode"):
        OPTS.replace(hessian_mode=mode)


@pytest.mark.parametrize("field", ["n_xi_samples", "n_eta_samples", "t_subsample"])
def test_uniform_audit_rejects_sample_counts_below_one(circ, x0, field):
    sys_, u = circ
    with pytest.raises(ValueError, match=field):
        audit_uniform_stability(sys_, x0, u, 1.0, [2, 4], R=0.02, nu=1e-4,
                                alpha=0.6, grid_step=0.005, **{field: 0})


def test_nonuniform_audit_rejects_no_noise_draws(circ, x0, grid6):
    sys_, u = circ
    with pytest.raises(ValueError, match="n_noise_samples"):
        audit_nonuniform_stability(sys_, x0, u, 2.0, 1.0, 1e-3, grid6,
                                   n_noise_samples=0)


def test_nonuniform_audit_integrates_each_noise_draw_once(spi, x0, monkeypatch):
    # The perturbed states and the n_x sensitivities of every draw come
    # from one augmented integration of a block with one row per draw,
    # plus a zero-noise row whose state at t - T is the window center; no
    # separate perturbed flow and no reference flow. One window STM serves
    # the Grammian and the output-noise channel.
    sys_, u = spi
    flows = count_calls(monkeypatch, ode_core.perturbed_flow)
    plain = count_calls(monkeypatch, ode_core.flow)
    sens = count_calls(monkeypatch, ode_core.rk4_flow_sens)
    stms = count_calls(monkeypatch, ode_core.flow_and_stm)
    grid = TimeGrid.with_step(0.0, 3.0, 0.01)
    audit_nonuniform_stability(sys_, x0, u, 3.0, 2.0, 1e-3, grid, n_noise_samples=3)
    assert (len(flows), len(plain), len(stms)) == (0, 0, 1)
    # rk4_flow_sens(f, dfdx, x0, h, u0, um, u1, w, dw): w is (n, 1 + 3, n_x)
    assert [args[7].shape for args in sens] == [(grid.n_steps, 4, sys_.n_x)]


def _nonuniform_reference(sys_, x0, u, t, T, nu, grid, seed, n_noise_samples):
    """audit_nonuniform_stability from `_reference_state` and one flow and
    one per-row output Jacobian per node for each noise draw."""
    win = grid.subgrid(t - T, t)
    full = grid.subgrid(0.0, t)
    center = mhe_solver._reference_state(sys_, x0, u, t, T, grid)
    xs, ps = ode_core.flow_and_stm(sys_, t - T, t, center, u, win)
    us = u.at_nodes(win)
    hs = output_jacobians(sys_, xs, us)
    mu_t = 2.0 * mhe_solver.grammian_report(
        t, T, center, mhe_solver.window_grammian(win, hs, ps)).min_eig
    norms = mhe_solver._spectral_norms
    hphi = float(np.max(norms(hs @ ps)))
    rng = np.random.default_rng(seed)
    dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(2)]
    c2 = 0.0
    for _ in range(n_noise_samples):
        w = mhe_solver._uniform_noise(rng, 0.0, full.h, full.n_steps, 2, nu)
        xt, zs = ode_core.perturbed_flow_and_sensitivities(sys_, t, x0, u, w, dws, full)
        i0 = full.index_of(t - T)
        sup = float(np.max(norms(output_jacobians(sys_, xt[i0:], us)) * norms(zs[i0:])))
        c2 = max(c2, 2.0 * T * hphi * sup)
    return mhe_solver.NonuniformStabilityAudit(t=t, T=T, nu=nu, mu_t=mu_t,
                                               C1_t=2.0 * T * hphi, C2_t=c2)


@pytest.mark.parametrize("system", ["spi", "nonlinear"])
@pytest.mark.parametrize("t, T, h", [(3.0, 2.0, 0.01), (2.0, 2.0, 0.01),
                                     (5.0, 1.5, 0.005), (3.3, 1.0, 0.01)])
def test_nonuniform_audit_equals_per_draw_reference(system, request, x0, t, T, h):
    # The zero-noise row's state at t - T is the window center, and the
    # noise rows' output Jacobians come per node across the rows (on
    # `nonlinear`, Phi != I and the per-row fallbacks).
    sys_, u = request.getfixturevalue(system)
    grid = TimeGrid.with_step(0.0, 6.0, h)
    got = audit_nonuniform_stability(sys_, x0, u, t, T, 1e-3, grid, seed=9)
    want = _nonuniform_reference(sys_, x0, u, t, T, 1e-3, grid, 9, 3)
    # `_reference_state` flows on the [0, t - T] span of the run grid,
    # which has the [0, t] span's step and nodes: the centers agree bit
    # for bit on every window.
    assert got == want


def test_nonuniform_audit_circ_constant_over_time(circ, x0, grid6):
    sys_, u = circ
    audits = [audit_nonuniform_stability(sys_, x0, u, t, 1.0, 1e-3, grid6)
              for t in (2.0, 4.0)]
    lo, _ = bearing.circ_eigs(1.0, 1.0, 1.0)
    for a in audits:
        assert a.mu_t == pytest.approx(2.0 * lo, rel=1e-6)
        assert a.K_t > 0
    # the circle is stationary in the rotating frame: same constants each t
    assert audits[0].mu_t == pytest.approx(audits[1].mu_t, rel=1e-9)
    assert audits[0].C1_t == pytest.approx(audits[1].C1_t, rel=1e-9)


def test_nonuniform_audit_bounds_actual_error(circ, x0, grid6):
    sys_, u = circ
    nu = 1e-3
    a = audit_nonuniform_stability(sys_, x0, u, 2.0, 1.0, nu, grid6)
    v = SampledSignal.constant(np.repeat([nu], 2, axis=-1), 1.0, 2.0, grid6.h)
    sol = solve_pmhe(sys_, x0, u, 2.0, 1.0, NoiseSignals(v=v), OPTS, grid6)
    assert sol.error_to_reference <= a.K_t * nu


def _strict_outputs(sys_):
    """sys_ with output callbacks, per-row and on rows, that require an
    input row u, as the ControlSystem contract allows."""
    def requiring_u(fn):
        def call(x, u):
            if np.shape(u) != (sys_.n_u,):
                raise TypeError(f"output callback got input {u!r}")
            return fn(x, u)
        return call

    assert None not in (sys_.h_rows, sys_.dh_dx_rows)
    return dataclasses.replace(sys_, **{name: requiring_u(getattr(sys_, name))
                                        for name in ("h", "dh_dx", "h_rows", "dh_dx_rows")})


def test_nonuniform_audit_passes_inputs_to_dh_dx(spi, x0):
    sys_, u = spi
    grid = TimeGrid.with_step(0.0, 3.0, 0.01)
    a = audit_nonuniform_stability(sys_, x0, u, 3.0, 2.0, 1e-3, grid)
    b = audit_nonuniform_stability(_strict_outputs(sys_), x0, u, 3.0, 2.0, 1e-3, grid)
    assert a == b


def test_uniform_audit_passes_inputs_to_outputs(circ, x0):
    sys_, u = circ
    kw = dict(T=1.0, t_grid=[2.0], R=0.02, nu=1e-4, alpha=0.6, grid_step=0.01,
              t_subsample=1, raise_on_failure=False)
    a = audit_uniform_stability(sys_, x0, u, **kw)
    b = audit_uniform_stability(_strict_outputs(sys_), x0, u, **kw)
    assert a == b


def test_nonuniform_audit_rejects_singular_window(cst, x0):
    from obsmhe import SingularWindow
    sys_, u = cst
    grid = TimeGrid.with_step(0.0, 0.9, 0.0025)
    with pytest.raises(SingularWindow):
        audit_nonuniform_stability(sys_, x0, u, 0.9, 0.5, 1e-3, grid)


def test_uniform_audit_margins_hold_on_circle(circ, x0):
    sys_, u = circ
    audit = audit_uniform_stability(sys_, x0, u, 1.0, [1, 2, 3, 4, 5, 6],
                                    R=0.02, nu=1e-4, alpha=0.6,
                                    grid_step=0.0025)
    lo, _ = bearing.circ_eigs(1.0, 1.0, 1.0)
    assert audit.mu_hat == pytest.approx(2.0 * lo, rel=1e-6)
    assert all(audit.conditions_ok)
    assert audit.g1 == pytest.approx(audit.a1_hat * (1e-4 + 0.02))
    assert audit.g2 == pytest.approx(audit.a2_hat * 1e-4)
    assert np.isfinite(audit.bound_factor) and audit.bound_factor > 0


def _per_point_hess(problem, x):
    """fd_hessian of a window cost from one gradient flow per point."""
    return fd_hessian(lambda pts: np.stack([problem.grad(p) for p in pts]), x)


def _reference_and_directions(sys_, t, T, x0, u, eta, full):
    """The measured reference and the output shifts along the unit v then
    w directions, from per-row output callbacks on one trajectory."""
    win = full.subgrid(t - T, t)
    _, ref_out = perturbed_reference(sys_, t, T, x0, u, eta, full)
    dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(2)]
    xs, zs = ode_core.perturbed_flow_and_sensitivities(sys_, t, x0, u, eta.w, dws, full)
    i0 = full.index_of(t - T)
    hs = output_jacobians(sys_, xs[i0:], u.at_nodes(win))
    dys = ([np.tile(e, (win.n_steps + 1, 1)) for e in np.eye(2)]
           + [np.einsum("nij,nj->ni", hs, zs[i0:, :, j]) for j in range(2)])
    return ref_out, dys


def test_uniform_audit_equals_per_point_reference(nonlinear, x0):
    # The row blocks give the constants that per-point FD Hessians and
    # gradient maps give, bit for bit, on a system with Phi != I and no
    # row callbacks (the per-row fallbacks). The reference replays the
    # audit's seeded draws: one window, the zero draw and two noise draws,
    # the center and one ball point.
    sys_, u = nonlinear
    T, t, R, nu, h, delta = 1.0, 2.0, 0.05, 1e-3, 0.01, 1e-3
    audit = audit_uniform_stability(sys_, x0, u, T, [t], R=R, nu=nu, alpha=0.6,
                                    grid_step=h, seed=3, n_eta_samples=3,
                                    t_subsample=1, raise_on_failure=False)
    full = TimeGrid.with_step(0.0, t, h)
    win = full.subgrid(t - T, t)
    center = flow(sys_, 0.0, t, x0, u, full)[full.index_of(t - T)]
    rng = np.random.default_rng(3)
    etas = [ZERO_NOISE] + [NoiseSignals(
        v=mhe_solver._uniform_noise(rng, t - T, win.h, win.n_steps, 2, nu),
        w=mhe_solver._uniform_noise(rng, 0.0, full.h, full.n_steps, 2, nu))
        for _ in range(2)]
    xi_pts = [center, ball_samples(rng, center, R, 1)[0]]
    a1 = a2 = g3 = 0.0
    for e in etas:
        ref_out, dys = _reference_and_directions(sys_, t, T, x0, u, e, full)
        problem = mhe_solver._WindowProblem(sys_, u, win, ref_out)
        for xi in xi_pts:
            pairs = [(_per_point_hess(problem, xi + s), _per_point_hess(problem, xi - s))
                     for s in delta * np.eye(2)]
            pairs += [tuple(_per_point_hess(mhe_solver._WindowProblem(
                sys_, u, win, ref_out + sign * dv), xi) for sign in (1.0, -1.0))
                      for dv in delta * np.eye(2)]
            for hp, hm in pairs:
                a1 = max(a1, float(np.linalg.norm(hp - hm, 2)) / (2 * delta))
            g = grad_sensitivities(sys_, win, xi, u, dys)
            gain = float(np.linalg.norm(g[:, :2], 2)) + float(np.linalg.norm(g[:, 2:], 2))
            g3 = max(g3, gain)
            if xi is center:
                a2 = max(a2, gain)
    assert (audit.a1_hat, audit.a2_hat, audit.g3_hat) == (a1, a2, g3)
    # On this seed the ball point, not the center, sets g3.
    assert a1 > 0 and g3 > a2 > 0


def test_uniform_audit_a2_is_translation_invariant():
    # a2_hat is taken at the reference point, the first xi, by position. Far
    # from the origin np.allclose(xi, center) also matched the ball points
    # (rtol * |center| exceeds R), so a2_hat read g3_hat.
    audits = []
    for shift in (0.0, 1e4):
        landmark = np.array([shift, shift])
        start = landmark + [1.0, 0.0]
        audits.append(audit_uniform_stability(
            bearing.bearing_system(landmark), start,
            bearing.u_circ(landmark, start, 1.0), 1.0, [2.0], R=0.02, nu=1e-4,
            alpha=0.6, grid_step=0.0025, seed=3, n_xi_samples=3, t_subsample=1,
            raise_on_failure=False))
    plain, moved = audits
    assert moved.a2_hat == pytest.approx(plain.a2_hat, rel=1e-6)
    assert moved.a2_hat < moved.g3_hat


def test_uniform_audit_is_seed_deterministic(circ, x0):
    sys_, u = circ
    kw = dict(T=1.0, t_grid=[2, 4], R=0.02, nu=1e-4, alpha=0.6,
              grid_step=0.005, seed=7, t_subsample=1)
    a = audit_uniform_stability(sys_, x0, u, **kw)
    b = audit_uniform_stability(sys_, x0, u, **kw)
    assert (a.mu_hat, a.a1_hat, a.a2_hat, a.g3_hat) == \
        (b.mu_hat, b.a1_hat, b.a2_hat, b.g3_hat)


def test_uniform_audit_failure_carries_report(circ, x0):
    sys_, u = circ
    with pytest.raises(ConditionsFailed) as info:
        audit_uniform_stability(sys_, x0, u, 1.0, [2, 4], R=0.02, nu=1e-4,
                                alpha=0.001, grid_step=0.005, t_subsample=1)
    audit = info.value.audit
    assert not all(audit.conditions_ok)
    assert audit.g1 > audit.alpha * audit.mu_hat


def test_multistart_unique_on_circle(circ, x0, grid6):
    sys_, u = circ
    rep = multistart_uniqueness(sys_, x0, u, 2.0, 1.0, R=0.02, n_starts=6,
                                seed=3, opts=OPTS, grid=grid6)
    assert rep.unique and not rep.failures
    assert rep.max_pairwise_distance <= rep.cluster_radius
    assert len(rep.solutions) == 6


@pytest.mark.parametrize("n_starts", [0, -3])
def test_multistart_rejects_starts_below_one(circ, x0, grid6, n_starts):
    sys_, u = circ
    with pytest.raises(ValueError, match="n_starts"):
        multistart_uniqueness(sys_, x0, u, 2.0, 1.0, 0.05, n_starts, 0, OPTS, grid6)


def test_multistart_not_unique_on_flat_valley(cst, x0):
    # Along the straight run every point of the motion ray inside the ball
    # has zero cost, so distinct starts converge in place and the spread
    # exceeds the cluster radius.
    sys_, u = cst
    grid = TimeGrid.with_step(0.0, 0.9, 0.0025)
    rep = multistart_uniqueness(sys_, x0, u, 0.9, 0.5, R=0.02, n_starts=8,
                                seed=1, opts=OPTS, grid=grid)
    assert not rep.unique
    assert rep.max_pairwise_distance > rep.cluster_radius
