"""Window cost, analytic derivatives, and noise sensitivities."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obsmhe import (DimensionMismatch, GridMismatch, NoiseSignals,
                    SampledSignal, TimeGrid, ZERO_NOISE, cost, flow,
                    noise_sensitivity, perturbed_flow,
                    perturbed_flow_and_sensitivities)
from obsmhe.cost import (cum_output_error, fd_gradient, fd_hessian, fd_points,
                         fd_step, gauss_newton_term,
                         grad_cum_error, grad_perturbed_cost,
                         grad_sensitivities, grad_sensitivity_v,
                         grad_sensitivity_w, hess_cum_error,
                         noise_output_directions, perturbed_cost, perturbed_reference,
                         reference_and_noise_directions_rows, simpson_weights)
from conftest import assert_bits_equal, output_jacobians_per_node, outputs_per_node


def test_simpson_weights_integrate_cubics_exactly():
    g = TimeGrid.with_step(0.0, 2.0, 0.5)
    w = simpson_weights(g)
    for k in range(4):
        exact = 2.0 ** (k + 1) / (k + 1)
        assert w @ (g.nodes ** k) == pytest.approx(exact, rel=1e-14)


def test_simpson_rejects_odd_step_count():
    with pytest.raises(GridMismatch):
        simpson_weights(TimeGrid(0.0, 1.0, 3))


def test_cost_zero_at_same_point_and_symmetric(circ, grid2, x0):
    sys_, u = circ
    xi2 = np.array([0.9, 0.15])
    assert cum_output_error(sys_, 0.0, 2.0, x0, x0, u, grid2).value == 0.0
    l12 = cum_output_error(sys_, 0.0, 2.0, x0, xi2, u, grid2).value
    l21 = cum_output_error(sys_, 0.0, 2.0, xi2, x0, u, grid2).value
    assert l12 == pytest.approx(l21, rel=1e-12)
    assert l12 > 0


def test_cost_grows_from_minimum(circ, grid2, x0):
    sys_, u = circ
    vals = [cum_output_error(sys_, 0.0, 2.0, x0, x0 + np.array([d, 0.0]),
                             u, grid2).value for d in (0.0, 0.01, 0.02, 0.04)]
    assert vals == sorted(vals)


def test_grad_matches_fd_at_seeded_points(circ, grid2, x0):
    sys_, u = circ
    rng = np.random.default_rng(11)
    for _ in range(6):
        xi2 = x0 + 0.1 * rng.standard_normal(2)
        g = grad_cum_error(sys_, 0.0, 2.0, x0, xi2, u, grid2)
        gfd = fd_gradient(
            lambda z: cum_output_error(sys_, 0.0, 2.0, x0, z, u, grid2).value,
            xi2)
        np.testing.assert_allclose(g, gfd, atol=1e-7)


def test_grad_vanishes_at_reference(circ, grid2, x0):
    sys_, u = circ
    g = grad_cum_error(sys_, 0.0, 2.0, x0, x0, u, grid2)
    assert np.linalg.norm(g) < 1e-14


def test_hessian_gauss_newton_equals_full_at_reference(circ, grid2, x0):
    sys_, u = circ
    hgn = hess_cum_error(sys_, 0.0, 2.0, x0, x0, u, grid2, mode="gauss_newton")
    hfd = hess_cum_error(sys_, 0.0, 2.0, x0, x0, u, grid2, mode="full_fd")
    np.testing.assert_allclose(hgn, hfd, atol=1e-6)
    c = gauss_newton_term(sys_, 0.0, 2.0, x0, u, grid2)
    np.testing.assert_allclose(hgn, 2.0 * c, atol=1e-14)


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_fd_hessian_equals_symmetrized_fd_gradient(system, request, grid2, x0):
    # fd_hessian takes the gradients at every difference point at once
    # and keeps the step and the arithmetic of fd_gradient; hess_cum_error
    # flows the points as one block and the reference from xi1 once.
    sys_, u = request.getfixturevalue(system)
    xi2 = x0 + [0.03, -0.02]

    def grad(z):
        return grad_cum_error(sys_, 0.0, 2.0, x0, z, u, grid2)

    points = fd_points(xi2)
    step = fd_step(xi2)
    assert_bits_equal(points, [xi2 + step * e * sign for e in np.eye(2)
                               for sign in (1.0, -1.0)])
    h = fd_gradient(grad, xi2)
    sym = 0.5 * (h + h.T)
    assert_bits_equal(fd_hessian(np.stack([grad(p) for p in points]), xi2), sym)
    assert_bits_equal(hess_cum_error(sys_, 0.0, 2.0, x0, xi2, u, grid2, mode="full_fd"),
                      sym)


def test_perturbed_cost_zero_noise_reduces_to_cum_error(circ, grid6, x0):
    sys_, u = circ
    t, T = 3.0, 1.0
    xref = flow(sys_, 0.0, t - T, x0, u, grid6)[-1]
    xi = xref + np.array([0.02, -0.01])
    lp = perturbed_cost(sys_, t, T, x0, xi, u, ZERO_NOISE, grid6)
    l0 = cum_output_error(sys_, t - T, t, xref, xi, u, grid6)
    assert lp.value == pytest.approx(l0.value, rel=1e-12)


def test_perturbed_reference_adds_v_exactly(circ, grid6, x0):
    sys_, u = circ
    t, T = 2.0, 1.0
    win = grid6.subgrid(t - T, t)
    v = SampledSignal.constant(np.array([0.1, -0.2]), t - T, t, win.h)
    _, clean = perturbed_reference(sys_, t, T, x0, u, ZERO_NOISE, grid6)
    _, noisy = perturbed_reference(sys_, t, T, x0, u, NoiseSignals(v=v), grid6)
    np.testing.assert_allclose(
        noisy - clean, np.tile([0.1, -0.2], (win.n_steps + 1, 1)), atol=0)


def _own_flows(sys_, x0, u, t, T, eta, grid):
    """A window's reference from its own flows from (0, x0): the states of
    the perturbed [0, t] flow on the window and their outputs plus v, and
    the last state of the plain [0, t - T] flow (x0 when t = T)."""
    win = grid.subgrid(t - T, t)
    xs = perturbed_flow(sys_, 0.0, t, x0, u, eta.w, grid)[grid.index_of(t - T):]
    ys = outputs_per_node(sys_, xs, u.at_nodes(win))
    if eta.v is not None:
        ys = ys + eta.v.at_nodes(win)
    x_ref = np.asarray(x0, dtype=float) if grid.index_of(t - T) == 0 else \
        flow(sys_, 0.0, t - T, x0, u, grid)[-1]
    return win, xs, ys, x_ref


@st.composite
def horizon_and_ends(draw, n=240):
    """A horizon of an even number k_T of steps (every window is a Simpson
    window) and up to 5 ascending window ends, in steps, each at least k_T;
    ends may repeat."""
    k_T = 2 * draw(st.integers(1, n // 2))
    return k_T, sorted(draw(st.lists(st.integers(k_T, n), min_size=1, max_size=5)))


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("noisy", [False, True])
@settings(max_examples=25, deadline=None)
@given(case=horizon_and_ends())
@example(case=(60, [60, 60, 150, 240]))
def test_run_reference_equals_each_windows_own_flows(circ, nonlinear, x0, system,
                                                     noisy, case):
    # The windows of one run slice one perturbed and one plain reference,
    # each extended from where the previous window left it; every window
    # gets what its own flows from (0, x0) give, bit for bit, also at
    # t = T, at repeated ends and on `nonlinear` (Phi != I).
    sys_, u = circ if system == "circ" else nonlinear
    grid = TimeGrid.with_step(0.0, 2.4, 0.01)
    eta = ZERO_NOISE
    if noisy:
        rng = np.random.default_rng(23)
        eta = NoiseSignals(*(SampledSignal(0.0, grid.h, 1e-2 * rng.standard_normal(
            (grid.n_steps + 1, dim))) for dim in (sys_.n_y, sys_.n_x)))
    k_T, ends = case
    nodes = grid.nodes.tolist()
    T = nodes[k_T]
    run = cost._RunReference(sys_, x0, u, T, eta, grid)
    for k in ends:
        t = nodes[k]
        win, x_ref, ref_out = run.window(t)
        want_win, want_xs, want_out, want_ref = _own_flows(sys_, x0, u, t, T, eta, grid)
        assert win == want_win
        assert_bits_equal(x_ref, want_ref)
        assert_bits_equal(ref_out, want_out)
        xs, out = perturbed_reference(sys_, t, T, x0, u, eta, grid)
        assert_bits_equal(xs, want_xs)
        assert_bits_equal(out, want_out)
    if ends[-1] > k_T:
        with pytest.raises(ValueError, match="ascending"):
            run.window(nodes[ends[-1] - 1])


def test_grad_perturbed_matches_fd_under_noise(circ, grid6, x0):
    sys_, u = circ
    t, T = 2.0, 1.0
    rng = np.random.default_rng(5)
    win = grid6.subgrid(t - T, t)
    eta = NoiseSignals(
        v=SampledSignal(t - T, win.h,
                        1e-3 * rng.standard_normal((win.n_steps + 1, 2))),
        w=SampledSignal(0.0, grid6.h,
                        1e-3 * rng.standard_normal((grid6.n_steps + 1, 2))))
    xi = np.array([0.56, 0.82])
    g = grad_perturbed_cost(sys_, t, T, x0, xi, u, eta, grid6)
    gfd = fd_gradient(
        lambda z: perturbed_cost(sys_, t, T, x0, z, u, eta, grid6).value, xi)
    np.testing.assert_allclose(g, gfd, atol=1e-7)


def test_sensitivity_v_matches_two_point_oracle(circ, grid6, x0):
    sys_, u = circ
    t, T = 2.0, 1.0
    win = grid6.subgrid(t - T, t)
    rng = np.random.default_rng(17)
    dv = SampledSignal(t - T, win.h,
                       rng.standard_normal((win.n_steps + 1, 2)))
    xi = np.array([0.55, 0.83])
    an = grad_sensitivity_v(sys_, t, T, xi, u, grid6, dv)
    eps = 1e-5
    gp = grad_perturbed_cost(sys_, t, T, x0, xi, u,
                             NoiseSignals(v=dv.scaled(eps)), grid6)
    gm = grad_perturbed_cost(sys_, t, T, x0, xi, u,
                             NoiseSignals(v=dv.scaled(-eps)), grid6)
    np.testing.assert_allclose(an, (gp - gm) / (2 * eps), atol=1e-9)


def test_sensitivity_w_matches_two_point_oracle(circ, grid6, x0):
    sys_, u = circ
    t, T = 2.0, 1.0
    rng = np.random.default_rng(19)
    dw = SampledSignal(0.0, grid6.h,
                       rng.standard_normal((grid6.n_steps + 1, 2)))
    xi = np.array([0.55, 0.83])
    an = grad_sensitivity_w(sys_, t, T, x0, xi, u, ZERO_NOISE, grid6, dw)
    eps = 1e-5
    gp = grad_perturbed_cost(sys_, t, T, x0, xi, u,
                             NoiseSignals(w=dw.scaled(eps)), grid6)
    gm = grad_perturbed_cost(sys_, t, T, x0, xi, u,
                             NoiseSignals(w=dw.scaled(-eps)), grid6)
    np.testing.assert_allclose(an, (gp - gm) / (2 * eps), atol=1e-8)


def test_sensitivity_v_is_noise_independent(circ, grid6, x0):
    # the perturbed cost is quadratic in v, so d_v d_xi is constant in eta
    sys_, u = circ
    t, T = 2.0, 1.0
    win = grid6.subgrid(t - T, t)
    dv = SampledSignal.constant(np.array([1.0, 0.0]), t - T, t, win.h)
    xi = np.array([0.5, 0.87])
    a = grad_sensitivity_v(sys_, t, T, xi, u, grid6, dv)
    eps = 1e-4
    big = NoiseSignals(v=dv.scaled(0.3))
    gp = grad_perturbed_cost(sys_, t, T, x0, xi, u,
                             NoiseSignals(v=dv.scaled(0.3 + eps)), grid6)
    gm = grad_perturbed_cost(sys_, t, T, x0, xi, u,
                             NoiseSignals(v=dv.scaled(0.3 - eps)), grid6)
    np.testing.assert_allclose(a, (gp - gm) / (2 * eps), atol=1e-9)
    assert big.norm == pytest.approx(0.3)


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_one_pass_gradient_maps_match_per_direction_calls(system, request, grid6, x0):
    # One window STM and one augmented reference integration give every
    # column of gv and gw that the per-direction calls give.
    sys_, u = request.getfixturevalue(system)
    t, T = 2.0, 1.0
    win = grid6.subgrid(t - T, t)
    rng = np.random.default_rng(31)
    eta = NoiseSignals(w=SampledSignal(0.0, grid6.h, 1e-2 * rng.standard_normal(
        (grid6.n_steps + 1, 2))))
    xi = np.array([0.55, 0.83])
    g = grad_sensitivities(sys_, win, xi, u,
                           noise_output_directions(sys_, t, T, x0, u, eta.w, grid6))
    assert g.shape == (2, 4)
    for j, e in enumerate(np.eye(2)):
        dv = SampledSignal.constant(e, t - T, t, win.h)
        assert_bits_equal(g[:, j], grad_sensitivity_v(sys_, t, T, xi, u, grid6, dv))
        dw = SampledSignal.constant(e, 0.0, t, grid6.h)
        assert_bits_equal(g[:, 2 + j], grad_sensitivity_w(sys_, t, T, x0, xi, u, eta,
                                                          grid6, dw))


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_reference_rows_equal_per_draw_references(system, request, grid6, x0):
    # Row b of the reference block gives draw b's measured reference and
    # its output shifts along the unit v then w directions, bit for bit
    # as one flow, one sensitivity per direction and per-row output
    # Jacobians of that draw alone give them.
    sys_, u = request.getfixturevalue(system)
    t, T = 2.0, 1.0
    win = grid6.subgrid(t - T, t)
    full = TimeGrid.with_step(0.0, t, win.h)
    rng = np.random.default_rng(37)
    etas = [ZERO_NOISE] + [NoiseSignals(
        v=SampledSignal(t - T, win.h, 1e-2 * rng.standard_normal((win.n_steps + 1, 2))),
        w=SampledSignal(0.0, full.h, 1e-2 * rng.standard_normal((full.n_steps + 1, 2))))
        for _ in range(2)]
    rows = reference_and_noise_directions_rows(sys_, t, T, x0, u, etas, grid6)
    i0 = full.index_of(t - T)
    for eta, (ref_out, dys) in zip(etas, rows):
        xs, want_out = perturbed_reference(sys_, t, T, x0, u, eta, grid6)
        assert_bits_equal(ref_out, want_out)
        hs = output_jacobians_per_node(sys_, xs, u.at_nodes(win))
        want = [np.tile(e, (win.n_steps + 1, 1)) for e in np.eye(2)]
        for e in np.eye(2):
            z = noise_sensitivity(sys_, t, x0, u, eta.w,
                                  SampledSignal.constant(e, 0.0, t, full.h), full)
            want.append(np.einsum("nij,nj->ni", hs, z[i0:]))
        assert len(dys) == len(want)
        for got, w in zip(dys, want):
            assert_bits_equal(got, w)


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("t, T", [(2.5, 1.0), (1.0, 1.0)])
def test_noise_reference_block_rows_equal_single_draw_flows(system, request, grid6,
                                                            x0, t, T):
    # Row b of the block is draw b's own perturbed flow and sensitivities
    # from (0, x0) on [0, t], sliced to the window, bit for bit: along the
    # constant unit directions by default, or along the given ones.
    sys_, u = request.getfixturevalue(system)
    full = grid6.subgrid(0.0, t)
    i0 = full.index_of(t - T)
    n = full.n_steps + 1
    rng = np.random.default_rng(41)
    ws = [None] + [SampledSignal(0.0, grid6.h, 1e-2 * rng.standard_normal((n, 2)))
                   for _ in range(2)]
    units = [SampledSignal.constant(e, 0.0, t, grid6.h) for e in np.eye(2)]
    given = [SampledSignal(0.0, grid6.h, rng.standard_normal((n, 2)))]
    for dws, want_dws in ((None, units), (given, given)):
        win, xs, zs = cost._noise_reference_block(sys_, t, T, x0, u, ws, grid6, dws)
        assert win == grid6.subgrid(t - T, t)
        for b, w in enumerate(ws):
            xb, zb = perturbed_flow_and_sensitivities(sys_, t, x0, u, w, want_dws, full)
            assert_bits_equal(xs[:, b], xb[i0:])
            assert_bits_equal(zs[:, b], zb[i0:])


def _grad_sensitivity_w_per_draw(sys_, t, T, x0, xi, u, eta, grid, dw):
    """grad_sensitivity_w from its own [0, t] subgrid, one single-draw
    flow and per-row output Jacobians on the window."""
    win = grid.subgrid(t - T, t)
    full = grid.subgrid(0.0, t)
    xs, zs = perturbed_flow_and_sensitivities(sys_, t, x0, u, eta.w, [dw], full)
    i0 = full.index_of(t - T)
    hs = output_jacobians_per_node(sys_, xs[i0:], u.at_nodes(win))
    dy = np.einsum("nij,nj->ni", hs, zs[i0:, :, 0])
    return grad_sensitivities(sys_, win, xi, u, [dy])[:, 0]


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_sensitivity_w_equals_per_draw_formula(system, request, grid6, x0):
    sys_, u = request.getfixturevalue(system)
    t, T = 2.5, 1.0
    rng = np.random.default_rng(43)
    n = grid6.n_steps + 1
    dw = SampledSignal(0.0, grid6.h, rng.standard_normal((n, 2)))
    xi = np.array([0.55, 0.83])
    for eta in (ZERO_NOISE, NoiseSignals(w=SampledSignal(
            0.0, grid6.h, 1e-2 * rng.standard_normal((n, 2))))):
        assert_bits_equal(
            grad_sensitivity_w(sys_, t, T, x0, xi, u, eta, grid6, dw),
            _grad_sensitivity_w_per_draw(sys_, t, T, x0, xi, u, eta, grid6, dw))


@pytest.mark.parametrize("channel", ["v", "dv", "w", "dw"])
def test_noise_of_the_wrong_width_is_rejected(circ, grid6, x0, channel):
    # One column against the bearing system's two outputs and two states:
    # rejected, never broadcast onto both components.
    sys_, u = circ
    t, T = 2.0, 1.0
    one = SampledSignal.constant(np.array([1e-3]), 0.0, t, grid6.h)
    calls = {
        "v": lambda: perturbed_reference(sys_, t, T, x0, u, NoiseSignals(v=one), grid6),
        "dv": lambda: grad_sensitivity_v(sys_, t, T, x0, u, grid6, one),
        "w": lambda: perturbed_flow(sys_, 0.0, t, x0, u, one, grid6),
        "dw": lambda: noise_sensitivity(sys_, t, x0, u, None, one, grid6),
    }
    with pytest.raises(DimensionMismatch, match="1 columns, expected 2"):
        calls[channel]()
