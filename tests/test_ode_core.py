"""Grids, signals, and the RK4 integration layer."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obsmhe
from obsmhe import (ControlSystem, DimensionMismatch, DomainViolation, GridMismatch,
                    InputSignal, NoiseSignals, SampledSignal, TimeGrid, ZERO_NOISE,
                    check_jacobians, cum_output_error, flow, flow_and_stm,
                    flow_and_stm_rows, flow_rows, gauss_newton_term,
                    noise_sensitivity, ode_core, perturbed_flow,
                    perturbed_flow_and_sensitivities,
                    perturbed_flow_and_sensitivities_rows, stm)
from conftest import assert_bits_equal


def linear_system(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return ControlSystem(
        n_x=n, n_u=1, n_y=n,
        f=lambda x, u: a @ x,
        h=lambda x, u=None: x,
        df_dx=lambda x, u=None: a,
        dh_dx=lambda x, u=None: np.eye(n),
    )


# -- TimeGrid ---------------------------------------------------------------

def test_grid_nodes_and_step():
    g = TimeGrid.with_step(0.0, 1.0, 0.25)
    assert g.n_steps == 4
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.index_of(0.75) == 3


def test_grid_rejects_nondividing_step():
    with pytest.raises(GridMismatch):
        TimeGrid.with_step(0.0, 1.0, 0.3)


def test_grid_subgrid_and_index_of():
    g = TimeGrid.with_step(0.0, 2.0, 0.1)
    sub = g.subgrid(0.5, 1.5)
    assert sub.t_start == pytest.approx(0.5)
    assert sub.n_steps == 10
    with pytest.raises(GridMismatch):
        g.subgrid(0.5, 0.5)
    with pytest.raises(GridMismatch):
        g.index_of(0.123)


# A root grid [t0, t0 + length] of n steps and two node indices i0 < i1.
roots = st.builds(
    lambda t0, length, n: TimeGrid(t0, t0 + length, n),
    st.floats(-10.0, 10.0), st.floats(0.01, 50.0), st.integers(2, 400))


@st.composite
def root_and_span(draw):
    g = draw(roots)
    i0 = draw(st.integers(0, g.n_steps - 1))
    return g, i0, draw(st.integers(i0 + 1, g.n_steps))


@settings(max_examples=200, deadline=None)
@given(root_and_span(), st.data())
def test_subgrids_are_index_ranges_of_their_root(case, data):
    g, i0, i1 = case
    nodes = g.nodes
    sub = g.subgrid(nodes[i0], nodes[i1])
    assert (sub.base, sub.offset, sub.n_steps) == (g, i0, i1 - i0)
    assert sub.h == g.h  # the same step, bit for bit
    assert_bits_equal(sub.nodes, nodes[i0:i1 + 1])
    assert (sub.t_start, sub.t_end) == (nodes[i0], nodes[i1])
    for k in (i0, (i0 + i1) // 2, i1):
        assert g.index_of(nodes[k]) == k and sub.index_of(nodes[k]) == k - i0
    assert sub.subgrid(sub.t_start, sub.t_end) == sub
    # A prefix of the root, and a subgrid of a subgrid, are the root's own
    # index ranges.
    assert g.subgrid(g.t_start, nodes[i1]) == TimeGrid(
        nodes[0], nodes[i1], i1, g, 0)
    j0 = data.draw(st.integers(i0, i1 - 1))
    j1 = data.draw(st.integers(j0 + 1, i1))
    assert sub.subgrid(nodes[j0], nodes[j1]) == g.subgrid(nodes[j0], nodes[j1])


# -- InputSignal / SampledSignal -------------------------------------------

def test_input_constant_and_bound():
    u = InputSignal.constant([1.0, 2.0])
    np.testing.assert_array_equal(u.at(0.3), [1.0, 2.0])
    bounded = InputSignal.from_callable(lambda s: np.array([2.0 * s]), bound=1.0)
    with pytest.raises(DomainViolation):
        bounded.at(1.0)
    g = TimeGrid.with_step(0.0, 1.0, 0.25)
    for _ in range(2):  # a violation is never memoized
        with pytest.raises(DomainViolation):
            bounded.stage_values(g.t_start, g.h, g.n_steps)
        with pytest.raises(DomainViolation):
            bounded.at_nodes(g)


def _counted(fn, calls):
    def counted(s):
        calls.append(s)
        return fn(s)
    return counted


def test_input_stage_values_respect_breakpoints():
    calls = []
    pieces = ((0.0, _counted(lambda s: np.array([1.0]), calls)),
              (0.5, _counted(lambda s: np.array([3.0]), calls)))
    u = InputSignal(pieces=pieces)
    g = TimeGrid.with_step(0.0, 1.0, 0.25)
    u0, um, u1 = u.stage_values(g.t_start, g.h, g.n_steps)
    # steps [0, .25) and [.25, .5) read the first piece, later steps the
    # second; u1 of the step ending at the breakpoint is the left limit
    np.testing.assert_array_equal(u0[:, 0], [1.0, 1.0, 3.0, 3.0])
    np.testing.assert_array_equal(u1[:, 0], [1.0, 1.0, 3.0, 3.0])
    # One staging: 2N + 1 samples plus the left limit at the breakpoint.
    assert len(calls) == 2 * g.n_steps + 1 + 1
    assert u.at(0.5)[0] == 3.0  # right-continuous
    # The second call is served by the memo: slices of the same read-only
    # staging, equal bit for bit to a fresh staging outside the memo.
    staged = len(calls)
    again = u.stage_values(g.t_start, g.h, g.n_steps)
    assert len(calls) == staged
    fresh = [a[:g.n_steps] for a in ode_core._stage(u, g.t_start, g.h, g.n_steps)[:3]]
    for memo, first, new in zip(again, (u0, um, u1), fresh):
        assert np.shares_memory(memo, first) and not memo.flags.writeable
        assert memo.tobytes() == first.tobytes() == new.tobytes()
    with pytest.raises(ValueError):
        u0[0, 0] = 0.0
    nodes = u.at_nodes(g)
    assert np.shares_memory(nodes, u.at_nodes(g)) and not nodes.flags.writeable
    assert nodes.tobytes() == np.stack([u.at(s) for s in g.nodes]).tobytes()
    np.testing.assert_array_equal(nodes[:, 0], [1.0, 1.0, 3.0, 3.0, 3.0])
    # A span from the breakpoint starts on the second piece; one that ends
    # there takes the left limit, and both are slices of the root staging.
    staged = len(calls)
    late, early = g.subgrid(0.5, 1.0), g.subgrid(0.0, 0.5)
    assert u.stage_values(late.t_start, late.h, late.n_steps, late)[0][0, 0] == 3.0
    assert u.stage_values(early.t_start, early.h, early.n_steps, early)[2][-1, 0] == 1.0
    assert len(calls) == staged


def test_input_memo_holds_at_most_its_capacity():
    u = InputSignal.from_callable(lambda s: np.array([s]))
    cap = ode_core._MEMO_ENTRIES
    for n in range(1, cap + 4):
        u.stage_values(0.0, 0.1, n)
        u.at_nodes(TimeGrid(0.0, 1.0, n))
    assert len(ode_core._STAGINGS) <= cap
    # The staging used last is kept; the oldest are evicted.
    assert (u, 0.0, 1.0 / (cap + 3), cap + 3) in ode_core._STAGINGS
    assert (u, 0.0, 0.1, 1) not in ode_core._STAGINGS


def test_input_memo_is_consistent_under_threads():
    # More threads than cores and more roots than entries, so lookups,
    # insertions and evictions interleave; every span, root or slice of a
    # root, must still equal a fresh staging outside the memo.
    u = InputSignal.from_callable(lambda s: np.array([np.sin(s), s]))
    roots = [TimeGrid(0.1 * k, 0.1 * k + 0.01 * (20 + k), 20 + k) for k in range(12)]
    spans = roots + [g.subgrid(g.nodes[3], g.nodes[15]) for g in roots]
    expected = {}
    for g in spans:
        base, i, n = g.base, g.offset, g.n_steps
        staged = ode_core._stage(u, base.t_start, base.h, base.n_steps)[:3]
        expected[g] = [a[i:i + n] for a in staged]
    errors = []

    def work(offset):
        for i in range(60):
            g = spans[(i + offset) % len(spans)]
            got = u.stage_values(g.t_start, g.h, g.n_steps, g)
            if any(a.tobytes() != b.tobytes() for a, b in zip(got, expected[g])):
                errors.append(g)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_input_bound_violation_raises_only_on_spans_that_use_it():
    # One node sample (s = 0.5) exceeds the bound. Every span whose stages
    # or nodes use it raises, on every call; the others are served. With
    # a breakpoint at 0.5, a span ending there takes the left limit from
    # the first piece instead, so only its nodes use the sample.
    spike = lambda s: np.array([5.0 if s == 0.5 else 0.0])
    zero = lambda s: np.array([0.0])
    g = TimeGrid.with_step(0.0, 1.0, 0.125)
    for u, ends_on_left_limit in ((InputSignal(((0.0, spike),), bound=1.0), False),
                                  (InputSignal(((0.0, zero), (0.5, spike)), bound=1.0),
                                   True)):
        for _ in range(2):
            for t0, t1, stages_raise, nodes_raise in (
                    (0.0, 0.375, False, False), (0.25, 0.5, not ends_on_left_limit, True),
                    (0.5, 0.75, True, True), (0.625, 1.0, False, False),
                    (0.0, 1.0, True, True)):
                sub = g.subgrid(t0, t1)
                for call, raises in (
                        (lambda: u.stage_values(sub.t_start, sub.h, sub.n_steps, sub),
                         stages_raise),
                        (lambda: u.at_nodes(sub), nodes_raise)):
                    if raises:
                        with pytest.raises(DomainViolation, match="s=0.5"):
                            call()
                    else:
                        call()


def test_stage_values_rejects_a_span_that_is_not_the_grid():
    u = InputSignal.constant([1.0])
    g = TimeGrid.with_step(0.0, 1.0, 0.25)
    with pytest.raises(GridMismatch):
        u.stage_values(0.25, g.h, g.n_steps, g)


@pytest.mark.parametrize("callback", ["h", "dh_dx"])
def test_wrong_shaped_output_rejected_not_broadcast(callback):
    # x' = -x from x = 1 leaves x > 0.9 after the first few nodes; from
    # then on the callback returns a scalar, which must not fill a row.
    bad = {"h": lambda x, u=None: x if x[0] > 0.9 else float(x[0]),
           "dh_dx": lambda x, u=None: np.eye(1) if x[0] > 0.9 else 1.0}
    sys_ = dataclasses.replace(linear_system([[-1.0]]), **{callback: bad[callback]})
    u = InputSignal.constant([0.0])
    g = TimeGrid.with_step(0.0, 1.0, 0.01)
    xi = np.array([1.0])
    with pytest.raises(ValueError, match="shape"):
        if callback == "h":
            cum_output_error(sys_, 0.0, 1.0, xi, xi, u, g)
        else:
            gauss_newton_term(sys_, 0.0, 1.0, xi, u, g)


@pytest.mark.parametrize("callback", ["h_rows", "dh_dx_rows"])
def test_wrong_shaped_row_output_rejected_not_broadcast(callback):
    # A row callback that returns one row's value for the whole block
    # must not be broadcast over the block's rows.
    base = linear_system([[-1.0]])
    per_row = {"h_rows": base.h, "dh_dx_rows": base.dh_dx}[callback]
    sys_ = dataclasses.replace(base, **{callback: lambda xs, u: per_row(xs[0], u)})
    outputs = {"h_rows": ode_core.outputs_rows,
               "dh_dx_rows": ode_core.output_jacobians_rows}[callback]
    with pytest.raises(DimensionMismatch, match=callback):
        outputs(sys_, np.ones((3, 2, 1)), np.zeros((3, 1)))


def test_input_breakpoint_off_grid_rejected():
    pieces = ((0.0, lambda s: np.array([1.0])), (0.33, lambda s: np.array([2.0])))
    u = InputSignal(pieces=pieces)
    with pytest.raises(GridMismatch):
        u.check_breakpoints_on(TimeGrid.with_step(0.0, 1.0, 0.25))


def _stage_span_alone(u, sub):
    """The stages of the span sub evaluated sample by sample at its own
    nodes, with every stage of a step on the piece active on the open step."""
    nodes, h = sub.nodes.tolist(), sub.h
    u0, um, u1 = [], [], []
    for a, b in zip(nodes, nodes[1:]):
        mid = a + 0.5 * h
        ev = u.pieces[0][1]
        for start, e in u.pieces:
            if start <= mid + 1e-9:
                ev = e
        u0.append(ev(a))
        um.append(ev(mid))
        u1.append(ev(b))
    return np.array(u0), np.array(um), np.array(u1)


@settings(max_examples=150, deadline=None)
@given(root_and_span(), st.lists(st.integers(1, 399), max_size=3, unique=True))
def test_slice_of_root_staging_equals_the_span_staged_alone(case, breaks):
    # With breakpoints on root nodes, the span sliced from the root's
    # staging equals the span's own samples bit for bit.
    g, i0, i1 = case
    nodes = g.nodes.tolist()
    starts = sorted(nodes[k] for k in breaks if k < g.n_steps)
    laws = [lambda s: np.array([np.sin(s), s * s]),
            lambda s: np.array([np.cos(3.0 * s), -s]),
            lambda s: np.array([s ** 3, 1.0]),
            lambda s: np.array([np.exp(-s * s), 2.0 * s])]
    u = InputSignal(pieces=((min(0.0, nodes[0]), laws[0]),)
                    + tuple((b, laws[k + 1]) for k, b in enumerate(starts)))
    sub = g.subgrid(nodes[i0], nodes[i1])
    u.check_breakpoints_on(sub)
    got = u.stage_values(sub.t_start, sub.h, sub.n_steps, sub)
    for a, b in zip(got, _stage_span_alone(u, sub)):
        assert_bits_equal(a, b)
    assert_bits_equal(u.at_nodes(sub), np.stack([u.at(s) for s in sub.nodes.tolist()]))


@settings(max_examples=150, deadline=None)
@given(root_and_span())
def test_sampled_signal_step_values_align_on_subgrids(case):
    # A sample-and-hold signal on the root, or on a subgrid, serves any
    # subgrid inside it the samples of the subgrid's own steps.
    g, i0, i1 = case
    values = np.arange(2.0 * (g.n_steps + 1)).reshape(-1, 2)
    on_root = SampledSignal(g.t_start, g.h, values)
    sub = g.subgrid(g.nodes[i0], g.nodes[i1])
    assert_bits_equal(on_root.step_values(sub.t_start, sub.h, sub.n_steps),
                      values[i0:i1])
    on_sub = SampledSignal(sub.t_start, sub.h, values[i0:i1 + 1])
    inner = sub.subgrid(sub.t_start, sub.t_end)
    assert_bits_equal(on_sub.step_values(inner.t_start, inner.h, inner.n_steps),
                      values[i0:i1])
    assert_bits_equal(on_root.at_nodes(sub), values[i0:i1 + 1])


def test_sampled_signal_basics():
    vals = np.array([[0.0], [1.0], [2.0]])
    s = SampledSignal(0.0, 0.5, vals)  # three held steps -> covers [0, 1.5]
    assert s.t_end == pytest.approx(1.5)
    assert s.sup_norm == pytest.approx(2.0)
    assert s.at(0.5)[0] == 1.0
    np.testing.assert_array_equal((s + s.scaled(-1.0)).values, 0.0 * vals)
    with pytest.raises(GridMismatch):
        s.step_values(0.1, 0.5, 2)  # misaligned start


def test_noise_signals_norm_is_max_of_channels():
    v = SampledSignal.constant(np.array([3.0, 4.0]), 0.0, 1.0, 0.5)
    eta = NoiseSignals(v=v)
    assert eta.norm == pytest.approx(5.0)
    assert ZERO_NOISE.is_zero and not eta.is_zero


# -- Integration ------------------------------------------------------------

def test_flow_matches_matrix_exponential():
    a = np.array([[0.0, 1.0], [-2.0, -0.4]])
    sys_ = linear_system(a)
    u = InputSignal.constant([0.0])
    g = TimeGrid.with_step(0.0, 1.0, 0.001)
    xi = np.array([1.0, -0.5])
    xs = flow(sys_, 0.0, 1.0, xi, u, g)
    # exact solution via eigen-decomposition
    w, v = np.linalg.eig(a)
    exact = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v) @ xi).real
    np.testing.assert_allclose(xs[-1], exact, atol=1e-10)
    np.testing.assert_array_equal(xs[0], xi)
    assert obsmhe.BACKEND == "python"


@pytest.mark.parametrize("h", [0.01, 0.005, 0.02])
def test_flow_on_a_prefix_equals_the_longer_flow(spi, x0, h):
    # The [0, t - T] subgrid has the [0, t] grid's step and nodes, so the
    # flow over it is the longer flow's first rows, bit for bit.
    sys_, u = spi
    t, T = 3.3, 1.0
    full = TimeGrid.with_step(0.0, t, h)
    prefix = full.subgrid(0.0, t - T)
    assert prefix.h == full.h
    i = full.index_of(t - T)
    assert_bits_equal(flow(sys_, 0.0, t - T, x0, u, prefix),
                      flow(sys_, 0.0, t, x0, u, full)[:i + 1])


def test_flow_fourth_order_convergence():
    a = np.array([[0.0, 1.0], [-2.0, -0.4]])
    sys_ = linear_system(a)
    u = InputSignal.constant([0.0])
    xi = np.array([1.0, -0.5])
    w, v = np.linalg.eig(a)
    exact = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v) @ xi).real
    errs = []
    for h in (0.1, 0.05, 0.025):
        g = TimeGrid.with_step(0.0, 1.0, h)
        errs.append(np.linalg.norm(flow(sys_, 0.0, 1.0, xi, u, g)[-1] - exact))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) > 3.7


def test_stm_matches_exponential_and_fd():
    a = np.array([[0.1, 0.9], [-1.5, -0.2]])
    sys_ = linear_system(a)
    u = InputSignal.constant([0.0])
    g = TimeGrid.with_step(0.0, 1.0, 0.001)
    phis = stm(sys_, 0.0, 1.0, np.array([0.3, 0.7]), u, g)
    w, v = np.linalg.eig(a)
    exact = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
    np.testing.assert_allclose(phis[-1], exact, atol=1e-10)
    np.testing.assert_array_equal(phis[0], np.eye(2))


def test_stm_fd_check_on_bearing(circ, grid2, x0):
    sys_, u = circ
    xs, phis = flow_and_stm(sys_, 0.0, 1.0, x0, u, grid2)
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        xp = flow(sys_, 0.0, 1.0, x0 + e, u, grid2)[-1]
        xm = flow(sys_, 0.0, 1.0, x0 - e, u, grid2)[-1]
        np.testing.assert_allclose(phis[-1][:, j], (xp - xm) / (2 * eps),
                                   atol=1e-8)


def test_perturbed_flow_zero_noise_bit_identical(circ, grid2, x0):
    sys_, u = circ
    ref = flow(sys_, 0.0, 2.0, x0, u, grid2)
    same = perturbed_flow(sys_, 0.0, 2.0, x0, u, None, grid2)
    np.testing.assert_array_equal(ref, same)
    zeros = SampledSignal.zero(2, 0.0, 2.0, grid2.h)
    np.testing.assert_array_equal(
        ref, perturbed_flow(sys_, 0.0, 2.0, x0, u, zeros, grid2))


def test_perturbed_flow_constant_w_shifts_single_integrator(circ, grid2, x0):
    sys_, u = circ  # f = u, so constant w integrates to w * t exactly
    w = SampledSignal.constant(np.array([0.01, -0.02]), 0.0, 2.0, grid2.h)
    ref = flow(sys_, 0.0, 2.0, x0, u, grid2)
    pert = perturbed_flow(sys_, 0.0, 2.0, x0, u, w, grid2)
    drift = pert - ref
    np.testing.assert_allclose(drift[-1], [0.02, -0.04], atol=1e-12)


def test_noise_sensitivity_linearity(circ, grid2, x0):
    sys_, u = circ
    rng = np.random.default_rng(3)
    d1 = SampledSignal(0.0, grid2.h, rng.standard_normal((grid2.n_steps + 1, 2)))
    d2 = SampledSignal(0.0, grid2.h, rng.standard_normal((grid2.n_steps + 1, 2)))
    z1 = noise_sensitivity(sys_, 2.0, x0, u, None, d1, grid2)
    z2 = noise_sensitivity(sys_, 2.0, x0, u, None, d2, grid2)
    z12 = noise_sensitivity(sys_, 2.0, x0, u, None,
                            d1.scaled(2.0) + d2.scaled(-3.0), grid2)
    np.testing.assert_allclose(z12, 2.0 * z1 - 3.0 * z2, atol=1e-12)
    np.testing.assert_array_equal(z1[0], np.zeros(2))


def test_noise_sensitivity_matches_fd(grid2):
    # nonlinear drift so the variational term actually matters
    sys_ = ControlSystem(
        n_x=1, n_u=1, n_y=1,
        f=lambda x, u: -x ** 3 + u,
        h=lambda x, u=None: x,
        df_dx=lambda x, u=None: np.array([[-3.0 * x[0] ** 2]]),
        dh_dx=lambda x, u=None: np.eye(1),
    )
    u = InputSignal.constant([0.2])
    x1 = np.array([0.8])
    dw = SampledSignal.constant(np.array([1.0]), 0.0, 2.0, grid2.h)
    z = noise_sensitivity(sys_, 2.0, x1, u, None, dw, grid2)
    eps = 1e-6
    xp = perturbed_flow(sys_, 0.0, 2.0, x1, u, dw.scaled(eps), grid2)
    xm = perturbed_flow(sys_, 0.0, 2.0, x1, u, dw.scaled(-eps), grid2)
    np.testing.assert_allclose(z, (xp - xm) / (2 * eps), atol=1e-8)


def _tangent_loop(f, dfdx, x0, z0, h, u0, um, u1, w=None, dw=None):
    """Reference: RK4 stepping of x' = f + w, Z' = dfdx Z + dw from
    (x0, z0), Z of shape (n_x, k), written out stage by stage. w, (n, n_x),
    and dw, (n, n_x, k), are per-step forcings; None adds nothing."""
    def forced(k, forcing, i):
        return k if forcing is None else k + forcing[i]

    x, z = np.array(x0, dtype=float), np.array(z0, dtype=float)
    xs, zs = [x], [z]
    for i in range(u0.shape[0]):
        k1 = forced(f(x, u0[i]), w, i)
        m1 = forced(dfdx(x, u0[i]) @ z, dw, i)
        x2, z2 = x + (0.5 * h) * k1, z + (0.5 * h) * m1
        k2 = forced(f(x2, um[i]), w, i)
        m2 = forced(dfdx(x2, um[i]) @ z2, dw, i)
        x3, z3 = x + (0.5 * h) * k2, z + (0.5 * h) * m2
        k3 = forced(f(x3, um[i]), w, i)
        m3 = forced(dfdx(x3, um[i]) @ z3, dw, i)
        x4, z4 = x + h * k3, z + h * m3
        k4 = forced(f(x4, u1[i]), w, i)
        m4 = forced(dfdx(x4, u1[i]) @ z4, dw, i)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        z = z + (h / 6.0) * (m1 + 2.0 * (m2 + m3) + m4)
        xs.append(x)
        zs.append(z)
    return np.array(xs), np.array(zs)


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_flow_and_stm_matches_the_tangent_loop(system, request, grid2, x0):
    # The STM is the tangent with Z(0) = I and no forcing.
    sys_, u = request.getfixturevalue(system)
    xs, phis = flow_and_stm(sys_, 0.0, 2.0, x0, u, grid2)
    stages = u.stage_values(0.0, grid2.h, grid2.n_steps)
    xr, zr = _tangent_loop(sys_.f, sys_.df_dx, x0, np.eye(2), grid2.h, *stages)
    assert_bits_equal(xs, xr)
    assert_bits_equal(phis, zr)
    assert_bits_equal(phis[0], np.eye(2))


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_k_direction_sensitivities_match_one_direction_calls(system, request, grid2, x0):
    # One augmented integration for three directions gives the states of
    # perturbed_flow and, column by column, the one-direction sensitivities
    # and the stage-by-stage reference.
    sys_, u = request.getfixturevalue(system)
    n = grid2.n_steps
    rng = np.random.default_rng(29)
    w = SampledSignal(0.0, grid2.h, 0.05 * rng.standard_normal((n, 2)))
    dws = [SampledSignal(0.0, grid2.h, rng.standard_normal((n, 2)))] + [
        SampledSignal.constant(e, 0.0, 2.0, grid2.h) for e in np.eye(2)]
    xs, zs = perturbed_flow_and_sensitivities(sys_, 2.0, x0, u, w, dws, grid2)
    assert zs.shape == (n + 1, 2, 3)
    assert_bits_equal(xs, perturbed_flow(sys_, 0.0, 2.0, x0, u, w, grid2))
    stages = u.stage_values(0.0, grid2.h, n)
    for j, dw in enumerate(dws):
        assert_bits_equal(zs[:, :, j], noise_sensitivity(sys_, 2.0, x0, u, w, dw, grid2))
        xr, zr = _tangent_loop(sys_.f, sys_.df_dx, x0, np.zeros((2, 1)), grid2.h,
                               *stages, w.values, dw.values[:, :, None])
        assert_bits_equal(xs, xr)
        assert_bits_equal(zs[:, :, j], zr[:, :, 0])
    np.testing.assert_array_equal(zs[0], np.zeros((2, 3)))
    eps = 1e-6
    xp = perturbed_flow(sys_, 0.0, 2.0, x0, u, w + dws[0].scaled(eps), grid2)
    xm = perturbed_flow(sys_, 0.0, 2.0, x0, u, w + dws[0].scaled(-eps), grid2)
    np.testing.assert_allclose(zs[:, :, 0], (xp - xm) / (2 * eps), atol=1e-8)


def test_domain_guard_raises(cst, x0):
    sys_, u = cst  # straight run hits the landmark at s = 1
    g = TimeGrid.with_step(0.0, 1.2, 0.005)
    with pytest.raises(DomainViolation):
        flow(sys_, 0.0, 1.2, x0, u, g)


# -- batched flows ------------------------------------------------------------

@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("n_rows", [1, 5])
def test_flow_rows_equals_stacked_flows(system, n_rows, request, grid2, x0):
    # circ has f_rows; nonlinear goes through the per-row fallback.
    sys_, u = request.getfixturevalue(system)
    xis = x0 + 0.1 * np.random.default_rng(n_rows).standard_normal((n_rows, 2))
    xs = flow_rows(sys_, 0.5, 1.5, xis, u, grid2)
    assert_bits_equal(xs, np.stack([flow(sys_, 0.5, 1.5, xi, u, grid2) for xi in xis],
                                   axis=1))


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("n_rows", [1, 5])
def test_flow_and_stm_rows_equals_stacked_calls(system, n_rows, request, grid2, x0):
    # circ has f_rows and df_dx_rows; nonlinear goes through the per-row
    # fallbacks.
    sys_, u = request.getfixturevalue(system)
    xis = x0 + 0.1 * np.random.default_rng(n_rows).standard_normal((n_rows, 2))
    xs, phis = flow_and_stm_rows(sys_, 0.5, 1.5, xis, u, grid2)
    singles = [flow_and_stm(sys_, 0.5, 1.5, xi, u, grid2) for xi in xis]
    assert_bits_equal(xs, np.stack([x for x, _ in singles], axis=1))
    assert_bits_equal(phis, np.stack([p for _, p in singles], axis=1))


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_row_forced_sensitivities_match_per_draw_calls(system, request, grid2, x0):
    # Draws with their own forcing, one of them None, sharing the
    # directions: each row equals its own call.
    sys_, u = request.getfixturevalue(system)
    n = grid2.n_steps
    rng = np.random.default_rng(43)
    ws = [SampledSignal(0.0, grid2.h, 0.05 * rng.standard_normal((n, 2))), None,
          SampledSignal(0.0, grid2.h, 0.05 * rng.standard_normal((n, 2)))]
    dws = [SampledSignal(0.0, grid2.h, rng.standard_normal((n, 2))),
           SampledSignal.constant([1.0, 0.0], 0.0, 2.0, grid2.h)]
    xs, zs = perturbed_flow_and_sensitivities_rows(sys_, 2.0, x0, u, ws, dws, grid2)
    assert zs.shape == (n + 1, 3, 2, 2)
    for b, w in enumerate(ws):
        xb, zb = perturbed_flow_and_sensitivities(sys_, 2.0, x0, u, w, dws, grid2)
        assert_bits_equal(xs[:, b], xb)
        assert_bits_equal(zs[:, b], zb)
    with pytest.raises(ValueError, match="noise draw"):
        perturbed_flow_and_sensitivities_rows(sys_, 2.0, x0, u, [], dws, grid2)


def test_rk4_flow_per_row_noise_equals_per_row_flows(circ, grid2, x0):
    # Noise of shape (n, B, n_x) forces each row of a block with its own
    # column; (n, n_x) is shared by every row.
    sys_, u = circ
    n = grid2.n_steps
    stages = u.stage_values(0.0, grid2.h, n)
    rng = np.random.default_rng(47)
    xis = x0 + 0.1 * rng.standard_normal((3, 2))
    w = 0.05 * rng.standard_normal((n, 3, 2))
    xs = ode_core.rk4_flow(sys_.f_rows, xis, grid2.h, *stages, w)
    shared = ode_core.rk4_flow(sys_.f_rows, xis, grid2.h, *stages, w[:, 0])
    for b in range(3):
        assert_bits_equal(xs[:, b], ode_core.rk4_flow(sys_.f, xis[b], grid2.h,
                                                      *stages, w[:, b]))
        assert_bits_equal(shared[:, b], ode_core.rk4_flow(sys_.f, xis[b], grid2.h,
                                                          *stages, w[:, 0]))


def test_flow_rows_rejects_misshaped_starts(circ, grid2, x0):
    sys_, u = circ
    for rows in (flow_rows, flow_and_stm_rows):
        for xis in (x0, np.zeros((0, 2)), np.zeros((3, 3))):
            with pytest.raises(DimensionMismatch):
                rows(sys_, 0.0, 1.0, xis, u, grid2)


def _first_violation(call):
    with pytest.raises(DomainViolation) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("row_callbacks", [True, False])
def test_flow_rows_guard_failure_matches_flow(cst, x0, row_callbacks):
    sys_, u = cst  # straight run hits the landmark at s = 1
    if not row_callbacks:  # the per-row fallbacks of f_rows and the guard
        sys_ = dataclasses.replace(sys_, f_rows=None, domain_guard_rows=None)
    g = TimeGrid.with_step(0.0, 1.2, 0.005)
    xis = np.array([[0.0, 2.0], x0, [3.0, -1.0]])
    message = _first_violation(lambda: flow(sys_, 0.0, 1.2, x0, u, g))
    assert message == "domain guard failed during flow"
    assert _first_violation(lambda: flow_rows(sys_, 0.0, 1.2, xis, u, g)) == message


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_flow_rows_non_finite_row_matches_flow(system, request, grid2, x0):
    sys_, u = request.getfixturevalue(system)
    bad = np.array([np.inf, 0.0])
    xis = np.stack([x0, bad, x0 + 0.1])
    with np.errstate(invalid="ignore", over="ignore"):
        message = _first_violation(lambda: flow(sys_, 0.0, 1.0, bad, u, grid2))
        assert message == "non-finite state during flow"
        assert _first_violation(lambda: flow_rows(sys_, 0.0, 1.0, xis, u, grid2)) == message


def test_domain_guard_rows_agrees_with_domain_guard(circ):
    sys_, _ = circ  # landmark at the origin, minimum range 1e-9
    rng = np.random.default_rng(17)
    dirs = rng.standard_normal((400, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ranges = np.concatenate([rng.uniform(0.0, 3.0, 100),
                             1e-9 * rng.uniform(0.0, 2.0, 200),
                             1e-9 * (1.0 + rng.uniform(-1e-15, 1e-15, 100))])
    pts = np.concatenate([ranges[:, None] * dirs, np.zeros((1, 2))])
    rows = sys_.domain_guard_rows(pts)
    assert rows.dtype == bool and rows.shape == (len(pts),)
    assert rows.tolist() == [sys_.domain_guard(p) for p in pts]
    # Away from the boundary the verdict is the range test itself.
    np.testing.assert_array_equal(rows[:300], ranges[:300] >= 1e-9)
    assert not rows[-1]


def test_check_jacobians_accepts_bearing(circ):
    sys_, u = circ
    pts = [(np.array([1.0, 0.2]), u.at(0.0)),
           (np.array([-0.4, 0.9]), u.at(1.0))]
    check_jacobians(sys_, pts)
