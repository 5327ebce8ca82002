"""Window solver, rolling estimation, and stability-audit tests.

The bearing scenarios give windows with known curvature (the Hessian at the
reference equals twice the closed-form Grammian), so convergence, error
magnitudes, and audit constants can all be checked against oracles.
"""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from obsmhe import (
    BoundaryStuck, ConditionsFailed, DimensionMismatch, GridMismatch, NoiseSignals,
    cost, grammian,
    SampledSignal, SolverOptions, TimeGrid, ZERO_NOISE, bearing, flow,
    audit_nonuniform_stability, audit_uniform_stability, mhe_solver,
    multistart_uniqueness, ode_core, rolling_estimate, solve_fie, solve_mhe,
    solve_pmhe)
from obsmhe.cost import (fd_gradient, fd_hessian, fd_points, grad_sensitivities,
                         perturbed_reference)
from obsmhe.grammian import ball_samples
from conftest import (ORACLE_C, assert_bits_equal, count_calls, oracle_grammian,
                      oracle_inputs_flow, oracle_simpson, oracle_stms,
                      output_jacobians_per_node, single_flow_and_stm)

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


def _oracle_minimizer(ys, h, t0, n):
    """The closed-form minimizer of the oracle's window of n steps h from t0
    against the outputs ys at its nodes: the solve of M xi = b.

    On x' = Ax + Bu, y = Cx the window cost is exactly quadratic in the
    start: x_n(xi) = Phi_n xi + d_n, d_n the RK4 flow from zero. Its
    minimizer solves M xi = b, b = sum w_n Phi_n^T C^T (y_n - C d_n), and
    its Hessian is 2 M everywhere."""
    resid = ys - oracle_inputs_flow(h, t0, n, np.zeros(2)) @ ORACLE_C.T
    b = np.einsum("n,nji,nj->i", oracle_simpson(h, n), ORACLE_C @ oracle_stms(h, n),
                  resid)
    return np.linalg.solve(oracle_grammian(h, n), b)


def _assert_near(got, want, rel):
    """got within rel of want, relative to the norm of want."""
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


# grad_tol 1e-9 would stop the damped Newton iteration about 1e-8 from the
# oracle's minimizer; 1e-12 takes one more iteration to reach it.
ORACLE_OPTS = SolverOptions(grad_tol=1e-12)


def _oracle_noise(grid, scale=1.0, with_w=True):
    """The oracle tests' seeded v, then w, at 1e-2 on the grid, times scale."""
    rng = np.random.default_rng(21)
    v, w = (SampledSignal.seeded_uniform(rng, 0.0, grid.h, grid.n_steps, dim, 1e-2)
            .scaled(scale) for dim in (1, 2))
    return NoiseSignals(v=v, w=w if with_w else None)


def test_pmhe_and_audit_equal_the_closed_form_oracle(linear_oracle, x0):
    sys_, u = linear_oracle
    grid = TimeGrid.with_step(0.0, 4.0, 0.0025)
    eta = _oracle_noise(grid)
    m = oracle_grammian(grid.h, 400)
    _, ys = perturbed_reference(sys_, 4.0, 1.0, x0, u, eta, grid)
    sol = solve_pmhe(sys_, x0, u, 4.0, 1.0, eta, ORACLE_OPTS, grid)
    assert sol.converged
    np.testing.assert_allclose(sol.xi_star, _oracle_minimizer(ys, grid.h, 3.0, 400),
                               rtol=1e-11, atol=0.0)
    mu = 2.0 * np.linalg.eigvalsh(m)[0]
    assert sol.hess_min_eig == pytest.approx(mu, rel=1e-9)
    # The noise-to-gradient map is the same affine map at every start, so
    # the gain at the reference is the ball-wide gain, bit for bit.
    audit = audit_uniform_stability(sys_, x0, u, 1.0, [2.0, 3.0, 4.0], R=0.5, nu=1e-3,
                                    alpha=0.6, grid_step=grid.h,
                                    raise_on_failure=False)
    assert audit.a2_hat == audit.g3_hat > 0.0
    assert audit.mu_hat == pytest.approx(mu, rel=1e-12)
    # d2f = d2h = 0: the Hessian is 2M at every start and every noise, so
    # the exact a1_hat is 0 and the audit reads only the nested-FD
    # roundoff. Each gradient is a Simpson sum of the same unit-size terms
    # as H, with a roundoff of a few eps |H| (allowed: 2). An FD Hessian
    # entry divides a difference of two gradients by 2 fd_step, a1 divides
    # a difference of two FD Hessians by 2 delta, and the 2-norm of an n_x
    # by n_x error is at most n_x times its largest entry: a1_hat <= n_x
    # 2 eps |H| / (fd_step delta), with fd_step at its smallest (1e-5) and
    # the audit's delta = 1e-3. Floor 1.2e-7; measured 5.1e-8 (numpy
    # 2.4.6, x86_64).
    floor = sys_.n_x * 2.0 * np.finfo(float).eps * np.linalg.norm(2.0 * m, 2) / (
        cost.fd_step(np.zeros(sys_.n_x)) * 1e-3)
    assert 0.0 <= audit.a1_hat <= floor
    # The window Grammian does not depend on the window or the noise.
    nonuniform = audit_nonuniform_stability(sys_, x0, u, 4.0, 1.0, 1e-2, grid)
    assert nonuniform.mu_t == pytest.approx(mu, rel=1e-12)


def test_fie_rolling_and_multistart_equal_the_closed_form_oracle(linear_oracle, x0):
    sys_, u = linear_oracle
    grid = TimeGrid.with_step(0.0, 4.0, 0.0025)
    fie = solve_fie(sys_, x0, u, 2.0, ORACLE_OPTS, grid, x_init=x0 + np.array([0.02, 0.02]))
    _, ys = perturbed_reference(sys_, 2.0, 2.0, x0, u, ZERO_NOISE, grid)
    assert fie.converged and fie.iterations > 0
    _assert_near(fie.xi_star, _oracle_minimizer(ys, grid.h, 0.0, 800), 1e-11)

    eta = _oracle_noise(grid, with_w=False)
    results = rolling_estimate(sys_, x0, u, [2.0, 3.0, 4.0], 1.0, eta, ORACLE_OPTS, grid)
    for r in results:
        _, ys = perturbed_reference(sys_, r.t, 1.0, x0, u, eta, grid)
        assert r.solution.converged
        _assert_near(r.solution.xi_star, _oracle_minimizer(ys, grid.h, r.t - 1.0, 400),
                     1e-11)

    # Every start of the quadratic window reaches its one minimizer.
    report = multistart_uniqueness(sys_, x0, u, 2.0, 1.0, R=0.5, n_starts=6, seed=3,
                                   opts=ORACLE_OPTS, grid=grid)
    _, ys = perturbed_reference(sys_, 2.0, 1.0, x0, u, ZERO_NOISE, grid)
    want = _oracle_minimizer(ys, grid.h, 1.0, 400)
    assert report.unique and len(report.solutions) == 6
    for sol in report.solutions:
        _assert_near(sol.xi_star, want, 1e-11)


def test_pmhe_error_is_linear_in_the_noise(linear_oracle, x0):
    # The minimizer is affine in the measured outputs and they are affine in
    # (v, w), so doubling the noise doubles the estimate's displacement.
    sys_, u = linear_oracle
    grid = TimeGrid.with_step(0.0, 4.0, 0.0025)

    def solve(eta):
        return solve_pmhe(sys_, x0, u, 4.0, 1.0, eta, ORACLE_OPTS, grid)

    clean = solve(ZERO_NOISE).xi_star
    once, twice = (solve(_oracle_noise(grid, scale)).xi_star for scale in (1.0, 2.0))
    np.testing.assert_allclose(twice - clean, 2.0 * (once - clean), rtol=1e-9, atol=0.0)
    once, twice = (solve(_oracle_noise(grid, scale, with_w=False)) for scale in (1.0, 2.0))
    assert twice.error_to_reference / once.error_to_reference == pytest.approx(2.0, rel=1e-9)


def test_window_end_before_the_horizon_raises_before_any_flow(circ, x0, grid2,
                                                             monkeypatch):
    # Every window [t-T, t] is checked where it is built, and the scans
    # check every end before they build the run grid, so an end that is not
    # after 0 (or not a number) and a horizon that is not positive name t
    # and T before the reference or any tangent flows.
    sys_, u = circ
    flows = count_calls(monkeypatch, ode_core.rk4_flow)
    calls = [
        lambda t, T: grammian.observability_grammian(sys_, t, T, x0, u, grid2),
        lambda t, T: grammian.certify_weak_persistence(sys_, x0, u, T, [t], grid2.h),
        lambda t, T: grammian.check_regular_boundedness(sys_, x0, u, T, 0.1, [t], 4, 0,
                                                        grid2.h),
        lambda t, T: audit_uniform_stability(sys_, x0, u, T, [t], R=0.02, nu=1e-4,
                                             alpha=0.6, grid_step=grid2.h),
        lambda t, T: audit_nonuniform_stability(sys_, x0, u, t, T, 1e-3, grid2),
        lambda t, T: solve_pmhe(sys_, x0, u, t, T, ZERO_NOISE, OPTS, grid2),
    ]
    for t, T in [(0.5, 1.0), (-0.5, 1.0), (0.0, 1.0), (float("nan"), 1.0),
                 (1.5, 0.0), (1.5, -1.0)]:
        for call in calls:
            with pytest.raises(GridMismatch,
                               match=re.escape(f"needs T > 0 and t >= T, got t={t}, T={T}")):
                call(t, T)
    # The scans check an early end among later ones too.
    with pytest.raises(GridMismatch, match=r"t >= T, got t=0\.5, T=1\.0"):
        grammian.certify_weak_persistence(sys_, x0, u, 1.0, [1.5, 0.5], grid2.h)
    assert flows == []


@pytest.mark.parametrize("t, T, n", [(1.5, 0.015, 3), (2.0, 1.005, 201)])
def test_odd_step_window_raises_before_any_flow(circ, x0, grid2, monkeypatch, t, T, n):
    # Every window cost and Grammian is a composite Simpson integral, so a
    # window of an odd number of steps names t, T and its step count where
    # it is built, before the reference or any tangent flows.
    sys_, u = circ
    flows = count_calls(monkeypatch, ode_core.rk4_flow)
    calls = [
        lambda: grammian.observability_grammian(sys_, t, T, x0, u, grid2),
        lambda: grammian.certify_weak_persistence(sys_, x0, u, T, [t], grid2.h),
        lambda: grammian.check_regular_boundedness(sys_, x0, u, T, 0.1, [t], 4, 0,
                                                   grid2.h),
        lambda: audit_uniform_stability(sys_, x0, u, T, [t], R=0.02, nu=1e-4,
                                        alpha=0.6, grid_step=grid2.h),
        lambda: audit_nonuniform_stability(sys_, x0, u, t, T, 1e-3, grid2),
        lambda: solve_pmhe(sys_, x0, u, t, T, ZERO_NOISE, OPTS, grid2),
        lambda: cost.grad_sensitivity_w(sys_, t, T, x0, x0, u, ZERO_NOISE, grid2,
                                        SampledSignal.zero(2, 0.0, 2.0, grid2.h)),
    ]
    for call in calls:
        with pytest.raises(GridMismatch, match=re.escape(
                f"even number of steps for composite Simpson, got {n} at t={t}, T={T}")):
            call()
    assert flows == []


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


def test_rolling_estimate_records_failed_references(circ, cst, x0, grid6):
    # A window whose reference cannot be formed is a failed window, not
    # the end of the run: off the grid (t = 2.0001), or past the landmark
    # that cst runs into at t = 1. The windows after it still solve from
    # the last success, or fail on their own.
    sys_, u = circ
    results = rolling_estimate(sys_, x0, u, [1.0, 2.0001, 3.0], 1.0,
                               ZERO_NOISE, OPTS, grid6)
    assert [r.failure is None for r in results] == [True, False, True]
    assert results[1].failure.startswith("GridMismatch: time 1.0001")
    assert results[2].solution.error_to_reference < 1e-8
    sys_, u = cst
    ts = [0.5, 0.75, 1.0, 1.25, 1.5]
    results = rolling_estimate(sys_, x0, u, ts, 0.5, ZERO_NOISE, OPTS,
                               TimeGrid.with_step(0.0, 1.5, 0.0025))
    assert [r.t for r in results] == ts
    assert [r.solution.converged for r in results[:2]] == [True, True]
    assert [r.failure for r in results[2:]] == \
        ["DomainViolation: domain guard failed during perturbed_flow"] * 3


def test_rolling_estimate_repeats_a_window_end(circ, x0, grid6):
    # A repeated end is the last solved window again: its warm start is
    # that solution, not a flow over the empty span [t - T, t - T].
    sys_, u = circ
    results = rolling_estimate(sys_, x0, u, [2.0, 2.0, 3.0], 1.0, ZERO_NOISE,
                               OPTS, grid6)
    assert [r.failure for r in results] == [None] * 3
    a, b = (r.solution for r in results[:2])
    for field in dataclasses.fields(a):
        assert_bits_equal(getattr(a, field.name), getattr(b, field.name))
    assert results[2].solution.error_to_reference < 1e-8


def test_solve_pmhe_rejects_noise_that_misses_the_window(circ, x0, grid6):
    # Noise sampled on [0, 1) does not cover the window [2, 3]: v and w
    # each raise, neither is held at its last sample.
    sys_, u = circ
    noise = SampledSignal(0.0, 0.01, np.full((100, 2), 1e-3))
    grid = TimeGrid.with_step(0.0, 3.0, 0.01)
    for eta in (NoiseSignals(v=noise), NoiseSignals(w=noise)):
        with pytest.raises(GridMismatch, match="does not cover"):
            solve_pmhe(sys_, x0, u, 3.0, 1.0, eta, OPTS, grid)


def _spans(monkeypatch, module, name, caller):
    """The (s1, s2) spans of the calls to module.name(sys, s1, s2, ...)
    that functions named caller make through that module."""
    spans = []
    original = getattr(module, name)

    def counted(sys_, s1, s2, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == caller:
            spans.append((s1, s2))
        return original(sys_, s1, s2, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return spans


@pytest.mark.parametrize("noisy", [False, True])
def test_rolling_estimate_integrates_one_run_reference(circ, x0, grid6,
                                                       monkeypatch, noisy):
    # Each window extends the perturbed reference to t and the plain one
    # to t - T from where the previous window left them: spans that total
    # N(t_max) + N(t_max - T) steps, not one [0, t] and one [0, t - T]
    # flow per window.
    sys_, u = circ
    perturbed = _spans(monkeypatch, cost, "perturbed_flow", "measured")
    plain = _spans(monkeypatch, cost, "flow", "window")
    eta = ZERO_NOISE
    if noisy:
        rng = np.random.default_rng(8)
        eta = NoiseSignals(*(SampledSignal(0.0, grid6.h, 1e-4 * rng.standard_normal(
            (grid6.n_steps + 1, 2))) for _ in range(2)))
    results = rolling_estimate(sys_, x0, u, [4.0, 1.0, 2.5, 2.0], 1.0, eta,
                               OPTS, grid6)
    assert all(r.failure is None for r in results)
    assert perturbed == [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5), (2.5, 4.0)]
    assert plain == [(0.0, 1.0), (1.0, 1.5), (1.5, 3.0)]
    steps = sum(grid6.index_of(b) - grid6.index_of(a) for a, b in perturbed + plain)
    assert steps == grid6.index_of(4.0) + grid6.index_of(3.0)


@pytest.mark.parametrize("noisy", [False, True])
def test_solve_pmhe_flows_one_perturbed_and_one_plain_reference(
        circ, x0, grid6, monkeypatch, noisy):
    # One perturbed [0, t] flow and one plain [0, t - T] flow, also when
    # the process noise is None: x(t - T) is never taken from the
    # perturbed states.
    sys_, u = circ
    perturbed = count_calls(monkeypatch, ode_core.perturbed_flow)
    plain = count_calls(monkeypatch, ode_core.flow)
    v = SampledSignal.constant([1e-3, -2e-3], 2.0, 3.0, grid6.h)
    w = SampledSignal.constant([1e-4, 1e-4], 0.0, 3.0, grid6.h) if noisy else None
    solve_pmhe(sys_, x0, u, 3.0, 1.0, NoiseSignals(v=v, w=w), OPTS, grid6)
    assert [c[1:3] for c in perturbed] == [(0.0, 3.0)]
    assert [c[1:3] for c in plain if c[1] == 0.0] == [(0.0, 2.0)]


def test_multistart_integrates_its_references_once(circ, x0, grid6, monkeypatch):
    # The starts share one window reference: one perturbed [0, t] flow and
    # one plain [0, t - T] flow for all of them.
    sys_, u = circ
    perturbed = count_calls(monkeypatch, ode_core.perturbed_flow)
    plain = count_calls(monkeypatch, ode_core.flow)
    rep = multistart_uniqueness(sys_, x0, u, 3.0, 1.0, R=0.02, n_starts=4,
                                seed=3, opts=OPTS, grid=grid6)
    assert len(rep.solutions) == 4
    assert [c[1:3] for c in perturbed] == [(0.0, 3.0)]
    assert [c[1:3] for c in plain if c[1] == 0.0] == [(0.0, 2.0)]


def test_solve_computes_each_gradient_once(circ, x0, grid6, monkeypatch):
    # Every candidate flows as a one-row block of the window [1, 2]: one
    # STM row for the first gradient, then per iterate one STM row for the
    # Gauss-Newton Hessian and one for the gradient at the accepted point
    # (the final gradient norm reuses the last), and one plain row per
    # trial cost. Last comes one block of the 2 n_x difference points of
    # the Hessian behind hess_min_eig.
    sys_, u = circ
    calls = count_calls(monkeypatch, cost.grad_perturbed_cost_from_reference)
    costs = count_calls(monkeypatch, cost.perturbed_cost_from_reference)
    stm_blocks = count_calls(monkeypatch, ode_core.flow_and_stm_windows)
    plain_blocks = count_calls(monkeypatch, ode_core.flow_windows)
    x_ref = _truth(sys_, x0, u, 1.0)
    v = SampledSignal.constant([1e-3, -2e-3], 1.0, 2.0, grid6.h)
    sol = solve_pmhe(sys_, x0, u, 2.0, 1.0, NoiseSignals(v=v),
                     OPTS.replace(ball_center=x_ref + [0.03, -0.02]), grid6)
    assert sol.iterations >= 2
    assert len(calls) == 1 + sol.iterations

    def spans_and_shapes(blocks):  # flow_windows(sys, wins, xis, u) and the STM form
        return [([(w.t_start, w.t_end) for w in args[1]], args[2].shape)
                for args in blocks]

    one_row = ([(1.0, 2.0)], (1, 1, sys_.n_x))
    assert spans_and_shapes(stm_blocks) == [one_row] * (1 + 2 * sol.iterations) \
        + [([(1.0, 2.0)], (1, 2 * sys_.n_x, sys_.n_x))]
    assert len(costs) >= 1 + sol.iterations
    assert spans_and_shapes(plain_blocks) == [one_row] * len(costs)


@pytest.mark.parametrize("bad", [np.array([1.0]), np.zeros(3)])
def test_starts_of_another_shape_are_named(circ, x0, grid6, bad):
    # Every start an entry point takes is checked where it is given and
    # named; before, some were broadcast (a 1-vector x0 audited (1, 1)).
    sys_, u = circ
    dw = SampledSignal.constant([1.0, 0.0], 0.0, 2.0, grid6.h)
    calls = {
        "x0": [
            lambda: audit_nonuniform_stability(sys_, bad, u, 2.0, 1.0, 1e-3, grid6),
            lambda: cost.grad_sensitivity_w(sys_, 2.0, 1.0, bad, x0, u, ZERO_NOISE,
                                            grid6, dw),
            lambda: solve_pmhe(sys_, bad, u, 2.0, 1.0, ZERO_NOISE, OPTS, grid6),
            lambda: multistart_uniqueness(sys_, bad, u, 2.0, 1.0, R=0.02, n_starts=2,
                                          seed=0, opts=OPTS, grid=grid6),
            lambda: audit_uniform_stability(sys_, bad, u, 1.0, [2.0], R=0.02, nu=1e-4,
                                            alpha=0.6, grid_step=0.01),
            lambda: grammian.certify_weak_persistence(sys_, bad, u, 1.0, [2.0], 0.01),
        ],
        "xi": [lambda: cost.grad_sensitivity_w(sys_, 2.0, 1.0, x0, bad, u, ZERO_NOISE,
                                               grid6, dw)],
        "xi1": [lambda: cost.cum_output_error(sys_, 1.0, 2.0, bad, x0, u, grid6)],
        "xi2": [lambda: cost.cum_output_error(sys_, 1.0, 2.0, x0, bad, u, grid6),
                lambda: cost.grad_cum_error(sys_, 1.0, 2.0, x0, bad, u, grid6),
                lambda: cost.hess_cum_error(sys_, 1.0, 2.0, x0, bad, u, grid6)],
        "x_init": [lambda: solve_pmhe(sys_, x0, u, 2.0, 1.0, ZERO_NOISE, OPTS, grid6,
                                      x_init=bad)],
        "ball_center": [lambda: solve_pmhe(sys_, x0, u, 2.0, 1.0, ZERO_NOISE,
                                           OPTS.replace(ball_center=bad), grid6)],
        "center": [lambda: grammian.observability_grammian(sys_, 2.0, 1.0, bad, u,
                                                           grid6)],
    }
    for name, entries in calls.items():
        for call in entries:
            with pytest.raises(DimensionMismatch) as info:
                call()
            assert str(info.value) == f"{name} has shape {bad.shape}, expected (2,)"


@pytest.mark.parametrize("field, value, match", [
    ("ball_radius", 0.0, "ball_radius must be positive"),
    ("ball_radius", -1.0, "ball_radius must be positive"),
    ("ball_radius", float("nan"), "ball_radius must be positive"),
    ("max_iters", -1, "max_iters must be nonnegative"),
    ("grad_tol", -1.0, "grad_tol must be nonnegative"),
])
def test_solver_options_reject_bad_values(field, value, match):
    with pytest.raises(ValueError, match=match):
        SolverOptions(**{field: value})
    with pytest.raises(ValueError, match=match):
        OPTS.replace(**{field: value})


def test_solver_options_take_zero_iterations_and_tolerance():
    opts = SolverOptions(max_iters=0, grad_tol=0.0)
    assert (opts.max_iters, opts.grad_tol) == (0, 0.0)


@pytest.mark.parametrize("R", [0.0, -1.0])
def test_multistart_rejects_nonpositive_radius(circ, x0, grid6, R):
    sys_, u = circ
    with pytest.raises(ValueError, match="R must be positive"):
        multistart_uniqueness(sys_, x0, u, 2.0, 1.0, R=R, n_starts=2, seed=0,
                              opts=OPTS, grid=grid6)


def test_nonuniform_audit_rejects_negative_noise_bound(circ, x0, grid6):
    sys_, u = circ
    with pytest.raises(ValueError, match="nu must be nonnegative"):
        audit_nonuniform_stability(sys_, x0, u, 2.0, 1.0, -1.0, grid6)


def _entry_points(sys_, x0, u, grid):
    """The library entry points whose arguments have config counterparts,
    each called on a valid window with keyword overrides."""
    return {
        "audit_nonuniform_stability": lambda **kw: audit_nonuniform_stability(
            sys_, x0, u, 2.0, 1.0, 1e-3, grid, **kw),
        "audit_uniform_stability": lambda **kw: audit_uniform_stability(
            sys_, x0, u, 1.0, [2.0], grid_step=grid.h,
            **{"R": 0.02, "nu": 1e-4, "alpha": 0.6, **kw}),
        "multistart_uniqueness": lambda **kw: multistart_uniqueness(
            sys_, x0, u, 2.0, 1.0, opts=OPTS, grid=grid,
            **{"R": 0.1, "n_starts": 2, "seed": 0, **kw}),
        "certify_weak_persistence": lambda **kw: grammian.certify_weak_persistence(
            sys_, x0, u, 1.0, [2.0], grid.h, **kw),
        "certify_weak_regular_persistence":
            lambda **kw: grammian.certify_weak_regular_persistence(
                sys_, x0, u, 1.0, [2.0], grid.h, **kw),
        "check_regular_boundedness": lambda **kw: grammian.check_regular_boundedness(
            sys_, x0, u, 1.0, t_grid=[2.0], grid_step=grid.h,
            **{"R": 0.1, "n_ball_samples": 4, "seed": 0, **kw}),
        "SolverOptions": lambda **kw: SolverOptions(**kw),
    }


_COUNTS = [("audit_nonuniform_stability", "n_noise_samples"),
           ("audit_uniform_stability", "n_xi_samples"),
           ("audit_uniform_stability", "n_eta_samples"),
           ("audit_uniform_stability", "t_subsample"),
           ("multistart_uniqueness", "n_starts"),
           ("certify_weak_regular_persistence", "n_ball_samples"),
           ("check_regular_boundedness", "n_ball_samples")]
_SEEDED = ["audit_nonuniform_stability", "audit_uniform_stability",
           "multistart_uniqueness", "certify_weak_regular_persistence",
           "check_regular_boundedness"]
_CERTIFICATES = ["certify_weak_persistence", "certify_weak_regular_persistence"]
_BAD_ARGUMENTS = (
    [(entry, arg, v) for entry, arg in _COUNTS for v in (2.5, True, math.nan, math.inf)]
    + [(entry, "seed", v) for entry in _SEEDED for v in (-1, 1.5)]
    + [("SolverOptions", "max_iters", 2.5)]
    + [(entry, "witness_step", math.nan) for entry in _CERTIFICATES]
    + [("certify_weak_regular_persistence", "mu_threshold", math.nan)]
    + [(entry, "singular_tol", -1) for entry in _CERTIFICATES]
    + [("audit_uniform_stability", "alpha", v) for v in (0.0, 1.0, math.nan)])


@pytest.mark.parametrize("entry, arg, value", _BAD_ARGUMENTS)
def test_bad_arguments_raise_value_errors_naming_them_before_any_flow(
        circ, x0, grid2, monkeypatch, entry, arg, value):
    # Counts and seeds must be whole numbers, and every argument with a
    # config counterpart meets the rule of its config field
    # (`ode_core.RULES`): a named ValueError, never a bare TypeError from
    # numpy or a silent run.
    sys_, u = circ
    flows = count_calls(monkeypatch, ode_core.rk4_flow)
    call = _entry_points(sys_, x0, u, grid2)[entry]
    with pytest.raises(ValueError, match=rf"^{arg} must "):
        call(**{arg: value})
    assert flows == []


def _assert_same_result(a, b):
    """Equal results, field by field: equal bits for arrays, equal values
    of one type otherwise, so a count or seed kept as 2.0 shows."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same_result(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_result(x, y)
    elif isinstance(a, np.ndarray):
        assert_bits_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("entry, arg", _COUNTS + [(entry, "seed") for entry in _SEEDED])
def test_whole_float_counts_and_seeds_run_as_integers(circ, x0, grid2, entry, arg):
    # The rules `count` and `whole` accept 2.0; the entry point then runs
    # it as the integer 2.
    sys_, u = circ
    call = _entry_points(sys_, x0, u, grid2)[entry]
    _assert_same_result(call(**{arg: 2.0}), call(**{arg: 2}))


def test_hess_fd_equals_per_point_gradients(nonlinear, x0, grid6):
    # The block of difference points gives the Hessian of one gradient
    # per point, bit for bit (nonlinear: the per-row fallbacks).
    sys_, u = nonlinear
    t, T = 2.0, 1.0
    rng = np.random.default_rng(41)
    eta = NoiseSignals(v=SampledSignal(0.0, grid6.h, 1e-3 * rng.standard_normal(
        (grid6.n_steps + 1, 2))))
    _, ref_out = perturbed_reference(sys_, t, T, x0, u, eta, grid6)
    problem = cost.WindowProblem(sys_, u, grid6.subgrid(t - T, t), ref_out)
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


@pytest.mark.parametrize("R, nu, match", [(0.0, 1e-4, "R"), (-1.0, 1e-4, "R"),
                                          (0.02, -1e-4, "nu")])
def test_uniform_audit_rejects_bad_radius_and_noise_bound(circ, x0, R, nu, match):
    sys_, u = circ
    with pytest.raises(ValueError, match=match):
        audit_uniform_stability(sys_, x0, u, 1.0, [2, 4], R=R, nu=nu,
                                alpha=0.6, grid_step=0.005)


def test_nonuniform_audit_rejects_no_noise_draws(circ, x0, grid6):
    sys_, u = circ
    with pytest.raises(ValueError, match="n_noise_samples"):
        audit_nonuniform_stability(sys_, x0, u, 2.0, 1.0, 1e-3, grid6,
                                   n_noise_samples=0)


@pytest.mark.parametrize("t", [3.0, 2.0])
def test_nonuniform_audit_integrates_each_noise_draw_once(spi, x0, monkeypatch, t):
    # The center, the perturbed states of every draw and their tangents
    # come from tangent blocks of one row for the zero-noise center and
    # one per draw, whose steps cover [0, t] once: no perturbed flow, no
    # reference flow and no separate window STM block. At t = T the
    # window is the whole span and one block suffices.
    sys_, u = spi
    flows = count_calls(monkeypatch, ode_core.perturbed_flow)
    plain = count_calls(monkeypatch, ode_core.flow)
    stm_blocks = count_calls(monkeypatch, ode_core.flow_and_stm_windows)
    bodies = count_calls(monkeypatch, cost.window_tangents)
    tangents = count_calls(monkeypatch, ode_core._rk4_tangents)
    grid = TimeGrid.with_step(0.0, 3.0, 0.01)
    audit_nonuniform_stability(sys_, x0, u, t, 2.0, 1e-3, grid, n_noise_samples=3)
    assert (len(flows), len(plain), len(stm_blocks), len(bodies)) == (0, 0, 0, 0)
    # _rk4_tangents(f, dfdx, x0, z0, h, u0, um, u1, forcing): x0 is (1 + 3, n_x)
    assert [args[2].shape for args in tangents] == [(4, sys_.n_x)] * (1 + (t > 2.0))
    assert sum(len(args[5]) for args in tangents) == round(t / grid.h)


def test_noise_sensitivity_users_flow_one_reference_block(spi, x0, monkeypatch):
    # The non-uniform audit flows the references and sensitivities of its
    # draws up to the window start as one augmented block, and the window
    # on from there; the process-noise gradient sensitivity takes its
    # reference and sensitivity from one augmented block on [0, t].
    sys_, u = spi
    blocks = count_calls(monkeypatch, ode_core.perturbed_flow_and_sensitivities_rows)
    grid = TimeGrid.with_step(0.0, 3.0, 0.01)
    audit_nonuniform_stability(sys_, x0, u, 3.0, 2.0, 1e-3, grid, n_noise_samples=3)
    # perturbed_flow_and_sensitivities_rows(sys, t_end, xi, u, ws, dws, grid)
    assert [(args[1], len(args[4]), len(args[5])) for args in blocks] \
        == [(1.0, 4, sys_.n_x)]
    dw = SampledSignal.constant([1.0, 0.0], 0.0, 3.0, grid.h)
    cost.grad_sensitivity_w(sys_, 3.0, 2.0, x0, x0, u, ZERO_NOISE, grid, dw)
    assert [(args[1], len(args[4]), len(args[5])) for args in blocks[1:]] \
        == [(3.0, 1, 1)]
    audit_nonuniform_stability(sys_, x0, u, 2.0, 2.0, 1e-3, grid, n_noise_samples=3)
    assert len(blocks) == 2


def _nonuniform_reference(sys_, x0, u, t, T, nu, grid, seed, n_noise_samples):
    """audit_nonuniform_stability from a [0, t - T] reference flow and one
    flow and one per-row output Jacobian per node for each noise draw."""
    win = grid.subgrid(t - T, t)
    full = grid.subgrid(0.0, t)
    center = x0 if t == T else flow(sys_, 0.0, t - T, x0, u, grid)[-1]
    xs, ps = single_flow_and_stm(sys_, win, center, u)
    us = u.at_nodes(win)
    hs = output_jacobians_per_node(sys_, xs, us)
    mu_t = 2.0 * mhe_solver.grammian_report(
        t, T, center, mhe_solver.window_grammian(win, hs, ps)).min_eig
    norms = mhe_solver._spectral_norms
    hphi = float(np.max(norms(hs @ ps)))
    rng = np.random.default_rng(seed)
    n_x = sys_.n_x
    dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(n_x)]
    c2 = 0.0
    for _ in range(n_noise_samples):
        w = SampledSignal.seeded_uniform(rng, 0.0, full.h, full.n_steps, n_x, nu)
        xt, zs = ode_core.perturbed_flow_and_sensitivities(sys_, t, x0, u, w, dws, full)
        i0 = full.index_of(t - T)
        sup = float(np.max(norms(output_jacobians_per_node(sys_, xt[i0:], us))
                           * norms(zs[i0:])))
        c2 = max(c2, 2.0 * T * hphi * sup)
    return mhe_solver.NonuniformStabilityAudit(t=t, T=T, nu=nu, mu_t=mu_t,
                                               C1_t=2.0 * T * hphi, C2_t=c2)


@pytest.mark.parametrize("system", ["spi", "nonlinear", "unicycle"])
@pytest.mark.parametrize("t, T, h", [(3.0, 2.0, 0.01), (2.0, 2.0, 0.01),
                                     (5.0, 1.5, 0.005), (3.3, 1.0, 0.01)])
def test_nonuniform_audit_equals_per_draw_reference(system, request, x0, t, T, h):
    # The zero-noise row's state at t - T is the window center, its window
    # tangents are the center's STMs, and every row's output Jacobians
    # come from one call across the rows (on `nonlinear` and the unicycle,
    # Phi != I; on `nonlinear`, the per-row fallbacks). t = T flows the
    # window alone.
    sys_, u, *start = request.getfixturevalue(system)
    x0 = start[0] if start else x0
    grid = TimeGrid.with_step(0.0, 6.0, h)
    got = audit_nonuniform_stability(sys_, x0, u, t, T, 1e-3, grid, seed=9)
    want = _nonuniform_reference(sys_, x0, u, t, T, 1e-3, grid, 9, 3)
    # The reference flows on the [0, t - T] span of the run grid, which
    # has the [0, t] span's step and nodes: the centers agree bit for bit
    # on every window.
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
    """sys_ with output callbacks, per-row and on rows, that require the
    inputs the ControlSystem contract gives them: one input row (n_u,),
    or for the row callbacks also one row per state, (B, n_u) with B the
    number of states."""
    def requiring_u(fn, rows):
        def call(x, u):
            shapes = [(sys_.n_u,)] + ([(np.shape(x)[0], sys_.n_u)] if rows else [])
            if np.shape(u) not in shapes:
                raise TypeError(f"output callback got input {u!r}")
            return fn(x, u)
        return call

    assert None not in (sys_.h_rows, sys_.dh_dx_rows)
    return dataclasses.replace(sys_, **{name: requiring_u(getattr(sys_, name),
                                                          name.endswith("_rows"))
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
    return fd_hessian(np.stack([problem.grad(p) for p in fd_points(x)]), x)


def _reference_and_directions(sys_, t, T, x0, u, eta, full):
    """The measured reference and the output shifts along the unit v then
    w directions, from per-row output callbacks on one trajectory."""
    win = full.subgrid(t - T, t)
    _, ref_out = perturbed_reference(sys_, t, T, x0, u, eta, full)
    dws = [SampledSignal.constant(e, 0.0, t, full.h) for e in np.eye(2)]
    xs, zs = ode_core.perturbed_flow_and_sensitivities(sys_, t, x0, u, eta.w, dws, full)
    i0 = full.index_of(t - T)
    hs = output_jacobians_per_node(sys_, xs[i0:], u.at_nodes(win))
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
        v=SampledSignal.seeded_uniform(rng, t - T, win.h, win.n_steps, 2, nu),
        w=SampledSignal.seeded_uniform(rng, 0.0, full.h, full.n_steps, 2, nu))
        for _ in range(2)]
    xi_pts = [center, ball_samples(rng, center, R, 1)[0]]
    a1 = a2 = g3 = 0.0
    for e in etas:
        ref_out, dys = _reference_and_directions(sys_, t, T, x0, u, e, full)
        problem = cost.WindowProblem(sys_, u, win, ref_out)
        for xi in xi_pts:
            pairs = [(_per_point_hess(problem, xi + s), _per_point_hess(problem, xi - s))
                     for s in delta * np.eye(2)]
            pairs += [tuple(_per_point_hess(cost.WindowProblem(
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
