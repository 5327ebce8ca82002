"""Grids, signals, and the RK4 integration layer."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obsmhe
from golden.regenerate import nonlinear_scenario
from obsmhe import (ControlSystem, DimensionMismatch, DomainViolation, GridMismatch,
                    InputSignal, NoiseSignals, SampledSignal, TimeGrid, ZERO_NOISE,
                    check_jacobians, cum_output_error, flow, flow_and_stm,
                    flow_and_stm_windows, flow_windows, gauss_newton_term,
                    bearing, cost, grammian, mhe_solver, noise_sensitivity, ode_core,
                    perturbed_flow,
                    perturbed_flow_and_sensitivities,
                    perturbed_flow_and_sensitivities_rows, stm)
from conftest import (assert_bits_equal, candidate_terms_per_node,
                      output_jacobians_per_node, single_flow_and_stm)


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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: TimeGrid.with_step(0.0, 1.0, 0.0),
    lambda: TimeGrid.with_step(0.0, 1.0, -0.25),
    lambda: TimeGrid.with_step(0.0, 1.0, _INF),
    lambda: TimeGrid.with_step(0.0, 1.0, _NAN),
    lambda: TimeGrid.with_step(0.0, _INF, 0.25),
    lambda: TimeGrid.with_step(_NAN, 1.0, 0.25),
    lambda: TimeGrid(0.0, 1.0, 2.5),
    lambda: TimeGrid(0.0, 1.0, 0),
    lambda: TimeGrid(0.0, _INF, 4),
    lambda: TimeGrid(_NAN, 1.0, 4),
    lambda: TimeGrid.with_step(0.0, 1.0, 0.25).index_of(_NAN),
    lambda: TimeGrid.with_step(0.0, 1.0, 0.25).index_of(_INF),
    lambda: SampledSignal(0.0, 0.0, np.zeros((3, 2))),
    lambda: SampledSignal(0.0, -0.1, np.zeros((3, 2))),
    lambda: SampledSignal(0.0, _NAN, np.zeros((3, 2))),
    lambda: SampledSignal.constant([1.0, 0.0], 0.0, 1.0, 0.0),
    lambda: SampledSignal.zero(2, 0.0, 1.0, 0.0),
    # A start that is not finite, or a step that does not divide [t0, t1],
    # is named where the signal is built, not at its first `at` or as a
    # shorter signal.
    lambda: SampledSignal(_NAN, 0.1, np.zeros((3, 2))),
    lambda: SampledSignal(-_INF, 0.1, np.zeros((3, 2))),
    lambda: SampledSignal.constant([1.0], 0.0, 1.0, 0.3),
    lambda: SampledSignal.constant([1.0], 0.0, 0.0, 0.1),
    lambda: SampledSignal.zero(1, 0.0, _INF, 0.1),
])
def test_bad_steps_and_grids_raise_grid_mismatch(make):
    # Named errors, not ZeroDivisionError, OverflowError or a bare
    # ValueError; a fractional step count is not rounded into a grid.
    with pytest.raises(GridMismatch):
        make()


def test_grid_takes_numpy_integer_step_counts():
    assert TimeGrid(0.0, 1.0, np.int64(4)).nodes[-1] == 1.0


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
    bounded = InputSignal.from_callable(lambda s: 2.0 * s, bound=1.0)
    with pytest.raises(DomainViolation):
        bounded.at(1.0)
    g = TimeGrid.with_step(0.0, 1.0, 0.25)
    for _ in range(2):  # a violation is never memoized
        with pytest.raises(DomainViolation):
            bounded.stage_values(g.t_start, g.h, g.n_steps)
        with pytest.raises(DomainViolation):
            bounded.at_nodes(g)


def _counted(fn, calls, piece):
    """fn, recording each call as (piece, the times it was given)."""
    def counted(s):
        calls.append((piece, s.ravel().tolist()))
        return fn(s)
    return counted


def test_input_stage_values_respect_breakpoints():
    calls = []
    pieces = ((0.0, _counted(lambda s: np.full_like(s, 1.0), calls, 0)),
              (0.5, _counted(lambda s: np.full_like(s, 3.0), calls, 1)))
    u = InputSignal(pieces=pieces)
    g = TimeGrid.with_step(0.0, 1.0, 0.25)
    u0, um, u1 = u.stage_values(g.t_start, g.h, g.n_steps)
    # steps [0, .25) and [.25, .5) read the first piece, later steps the
    # second; u1 of the step ending at the breakpoint is the left limit
    np.testing.assert_array_equal(u0[:, 0], [1.0, 1.0, 3.0, 3.0])
    np.testing.assert_array_equal(u1[:, 0], [1.0, 1.0, 3.0, 3.0])
    # One staging: 2N + 1 samples plus the left limit at the breakpoint,
    # from one evaluator call per piece for each sample set: the nodes,
    # the midpoints and the left limit.
    assert sum(len(times) for _, times in calls) == 2 * g.n_steps + 1 + 1
    assert calls == [(0, [0.0, 0.25]), (1, [0.5, 0.75, 1.0]),
                     (0, [0.125, 0.375]), (1, [0.625, 0.875]),
                     (0, [0.5])]
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
    u = InputSignal.from_callable(lambda s: 1.0 * s)
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
    u = InputSignal.from_callable(lambda s: np.hstack([np.sin(s), s]))
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
    spike = lambda s: np.where(s == 0.5, 5.0, 0.0)
    zero = lambda s: np.zeros_like(s)
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


def _recording(sys_, calls):
    """sys_ whose h_rows and dh_dx_rows record (name, states, inputs) of
    every call."""
    def recorded(name):
        fn = getattr(sys_, name)

        def call(xs, us):
            calls.append((name, np.array(xs), np.array(us)))
            return fn(xs, us)
        return call

    return dataclasses.replace(sys_, h_rows=recorded("h_rows"),
                               dh_dx_rows=recorded("dh_dx_rows"))


def test_block_outputs_take_one_row_callback_call(circ, grid2, x0):
    # The outputs of a block come from one h_rows and one dh_dx_rows call
    # on all its rows at all its nodes, each row with its own node input.
    # The Jacobians come with the tangents, the outputs after them.
    sys_, u = circ
    calls = []
    counted = _recording(sys_, calls)
    win = grid2.subgrid(0.5, 1.5)
    n, xis = win.n_steps + 1, x0 + 0.01 * np.arange(10.0).reshape(5, 2)
    terms = cost.candidate_terms_rows(counted, win, xis, u)
    assert [(name, xs.shape) for name, xs, _ in calls] == \
        [("dh_dx_rows", (n * 5, 2)), ("h_rows", (n * 5, 2))]
    for _, _, us in calls:
        assert_bits_equal(us, np.repeat(u.at_nodes(win), 5, axis=0))
    for b, xi in enumerate(xis):
        for got, want in zip(terms[b], candidate_terms_per_node(sys_, win, xi, u)):
            assert_bits_equal(got, want)
    # A scan's STM block: one dh_dx_rows call for all windows, every row
    # at its own window's node inputs.
    calls.clear()
    ends = [0.5, 1.0, 1.5, 2.0]
    _, _, reports = grammian.reference_scan(counted, x0, u, 0.5, ends, grid2.h)
    _, _, plain = grammian.reference_scan(sys_, x0, u, 0.5, ends, grid2.h)
    n = grid2.subgrid(0.0, 0.5).n_steps + 1
    assert [(name, xs.shape) for name, xs, _ in calls] == \
        [("dh_dx_rows", (n * len(ends), 2))]
    wins = [grid2.subgrid(t - 0.5, t) for t in ends]
    assert_bits_equal(calls[0][2], np.stack([u.at_nodes(w) for w in wins], axis=1)
                      .reshape(-1, 2))
    for got, want in zip(reports, plain):
        assert_bits_equal(got.matrix, want.matrix)
    # Node inputs that do not match the block's nodes or groups of rows.
    xs = np.ones((n, 4, 2))
    for us in (np.zeros((n + 1, 2)), np.zeros((n, 3, 2)), np.zeros((n, 2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="node inputs"):
            ode_core.outputs_rows(sys_, xs, us)


def _scalar_style(s):
    """The evaluator form of a scalar law: (2, m, 1) for m times."""
    return np.array([np.sin(s), np.cos(s)])


def _transposed(s):
    """(2, m) for m times, the transpose of the contract's (m, 2)."""
    return np.vstack([np.sin(s).T, np.cos(s).T])


@pytest.mark.parametrize("law", [_scalar_style, _transposed])
@pytest.mark.parametrize("piece", [0, 1])
def test_misshaped_evaluator_rejected(law, piece, circ, x0):
    # An evaluator that does not return one row per time raises
    # DimensionMismatch naming its piece, for staging and for `at`. On a
    # 1-step grid the transposed (2, 2) node samples have the contract's
    # shape; the midpoint sample, (2, 1), gives it away.
    sys_, _ = circ
    good = lambda s: np.hstack([np.cos(s), np.sin(s)])
    start = (0.0, 0.5)[piece]
    u = InputSignal(((0.0, law if piece == 0 else good),)
                    + (((0.5, law),) if piece == 1 else ()))
    g = TimeGrid(0.0, 1.0, piece + 1)
    for call in (lambda: u.stage_values(g.t_start, g.h, g.n_steps),
                 lambda: u.at_nodes(g), lambda: u.at(0.75),
                 lambda: flow(sys_, 0.0, 1.0, x0, u, g)):
        with pytest.raises(DimensionMismatch, match=f"piece from s={start} "):
            call()


def test_input_breakpoint_off_grid_rejected():
    pieces = ((0.0, lambda s: np.full_like(s, 1.0)), (0.33, lambda s: np.full_like(s, 2.0)))
    u = InputSignal(pieces=pieces)
    with pytest.raises(GridMismatch):
        u.check_breakpoints_on(TimeGrid.with_step(0.0, 1.0, 0.25))


def _stage_span_alone(u, sub):
    """The stages of the span sub evaluated one time per call at its own
    nodes, with every stage of a step on the piece active on the open step."""
    nodes, h = sub.nodes.tolist(), sub.h
    u0, um, u1 = [], [], []
    for a, b in zip(nodes, nodes[1:]):
        mid = a + 0.5 * h
        ev = u.pieces[0][1]
        for start, e in u.pieces:
            if start <= mid + 1e-9:
                ev = e
        u0.append(ev(np.array([[a]]))[0])
        um.append(ev(np.array([[mid]]))[0])
        u1.append(ev(np.array([[b]]))[0])
    return np.array(u0), np.array(um), np.array(u1)


@settings(max_examples=150, deadline=None)
@given(root_and_span(), st.lists(st.integers(1, 399), max_size=3, unique=True))
def test_slice_of_root_staging_equals_the_span_staged_alone(case, breaks):
    # With breakpoints on root nodes, the span sliced from the root's
    # staging equals the span's own samples bit for bit.
    g, i0, i1 = case
    nodes = g.nodes.tolist()
    starts = sorted(nodes[k] for k in breaks if k < g.n_steps)
    laws = [lambda s: np.hstack([np.sin(s), s * s]),
            lambda s: np.hstack([np.cos(3.0 * s), -s]),
            lambda s: np.hstack([s ** 3, np.ones_like(s)]),
            lambda s: np.hstack([np.exp(-s * s), 2.0 * s])]
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


def test_sampled_signal_at_nodes_needs_aligned_covered_nodes():
    # v sampled on [0, 1): each node reads its own sample and the final
    # time 1.0 the last one; a grid off the samples, or past them, raises
    # as step_values does instead of holding the last sample.
    g = TimeGrid.with_step(0.0, 4.0, 0.01)
    values = np.arange(200.0).reshape(-1, 2)
    v = SampledSignal(0.0, g.h, values)
    sub = g.subgrid(0.5, 1.0)
    assert_bits_equal(v.at_nodes(sub), np.stack([v.at(s) for s in sub.nodes]))
    assert_bits_equal(v.at_nodes(sub), np.concatenate([values[50:], values[-1:]]))
    with pytest.raises(GridMismatch, match="not aligned"):
        v.at_nodes(TimeGrid.with_step(0.005, 0.505, 0.01))
    with pytest.raises(GridMismatch, match="step differs"):
        v.at_nodes(TimeGrid.with_step(0.0, 1.0, 0.02))
    for t0, t1 in ((2.0, 3.0), (0.5, 1.01)):
        with pytest.raises(GridMismatch, match="does not cover"):
            v.at_nodes(g.subgrid(t0, t1))
    with pytest.raises(GridMismatch, match="does not cover"):
        SampledSignal(0.5, g.h, values).at_nodes(g.subgrid(0.0, 1.0))


def _seeded_uniform_values(rng, n, dim, amplitude):
    """The seeded-uniform samples: standard_normal((n+1, dim)) directions,
    then uniform((n+1, 1)) magnitudes, drawn from rng in that order."""
    d = rng.standard_normal((n + 1, dim))
    mag = amplitude * rng.uniform(size=(n + 1, 1))
    return (mag / np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)) * d


def test_seeded_uniform_noise_is_bounded_seeded_and_drawn_in_order():
    n, amp = 400, 1e-3
    a = SampledSignal.seeded_uniform(np.random.default_rng(7), 0.5, 0.01, n, 3, amp)
    assert (a.t0, a.h, a.values.shape) == (0.5, 0.01, (n + 1, 3))
    assert np.all(np.linalg.norm(a.values, axis=1) <= amp)
    assert a.sup_norm > 0.9 * amp
    b = SampledSignal.seeded_uniform(np.random.default_rng(7), 0.5, 0.01, n, 3, amp)
    assert_bits_equal(a.values, b.values)
    # Two signals from one generator take its stream in turn, as the CLI's
    # v, then w, do.
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    for dim in (2, 3):
        got = SampledSignal.seeded_uniform(rng, 0.0, 0.01, n, dim, amp)
        assert_bits_equal(got.values, _seeded_uniform_values(ref, n, dim, amp))


def test_constant_signal_takes_steps_that_divide_its_span_to_grid_tolerance():
    # The tolerance of TimeGrid.with_step: 0.1 does not divide 0.3 exactly
    # in floating point.
    for t1 in (0.3, 0.3 + 1e-12, 0.3 - 1e-12):
        assert SampledSignal.constant([1.0], 0.0, t1, 0.1).values.shape == (3, 1)
        TimeGrid.with_step(0.0, t1, 0.1)


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


@pytest.mark.parametrize("bad", [np.array([1.0]), np.zeros(3), np.zeros((1, 2))])
def test_single_starts_of_another_shape_are_named(circ, grid2, bad):
    # Never broadcast: a start that is not (n_x,) raises DimensionMismatch
    # naming the start and its own shape.
    sys_, u = circ
    dw = SampledSignal.constant([1.0, 0.0], 0.0, 1.0, grid2.h)
    calls = (lambda: flow(sys_, 0.0, 1.0, bad, u, grid2),
             lambda: flow_and_stm(sys_, 0.0, 1.0, bad, u, grid2),
             lambda: stm(sys_, 0.0, 1.0, bad, u, grid2),
             lambda: perturbed_flow(sys_, 0.0, 1.0, bad, u, None, grid2),
             lambda: noise_sensitivity(sys_, 1.0, bad, u, None, dw, grid2),
             lambda: perturbed_flow_and_sensitivities_rows(sys_, 1.0, bad, u, [None],
                                                           [dw], grid2))
    for call in calls:
        with pytest.raises(DimensionMismatch) as info:
            call()
        assert str(info.value) == f"xi has shape {bad.shape}, expected (2,)"


def test_gauss_newton_hessian_and_nonuniform_audit_take_no_outputs(circ, grid2, x0):
    # Both read the window's tangents alone: one dh_dx_rows call on the
    # Gauss-Newton block, and no h_rows call; the audit takes one on its
    # center and its 3 noise draws together. Results equal those of the
    # system unrecorded.
    sys_, u = circ
    calls = []
    counted = _recording(sys_, calls)
    win = grid2.subgrid(0.5, 1.5)
    c = cost.gauss_newton_term(counted, 0.5, 1.5, x0, u, grid2)
    assert [(name, xs.shape) for name, xs, _ in calls] == \
        [("dh_dx_rows", ((win.n_steps + 1), 2))]
    assert_bits_equal(c, cost.gauss_newton_term(sys_, 0.5, 1.5, x0, u, grid2))
    calls.clear()
    audit = mhe_solver.audit_nonuniform_stability(counted, x0, u, 1.5, 1.0, 1e-3, grid2)
    assert [(name, xs.shape) for name, xs, _ in calls] == \
        [("dh_dx_rows", (4 * (win.n_steps + 1), 2))]
    assert audit == mhe_solver.audit_nonuniform_stability(sys_, x0, u, 1.5, 1.0, 1e-3,
                                                          grid2)


def test_unicycle_row_blocks_equal_single_trajectories(unicycle, grid2):
    # The one Phi != I system whose blocks step df_dx_rows: every row of a
    # block, its STMs and its candidate terms equal the single-trajectory
    # oracles bit for bit.
    sys_, u, x0 = unicycle
    rng = np.random.default_rng(47)
    xis = x0 + 0.05 * rng.standard_normal((4, 3))
    assert check_jacobians(sys_, [(xi, u.at(0.0)) for xi in xis]) < 1e-6
    win = grid2.subgrid(0.5, 1.5)
    xs, phis = flow_and_stm_windows(sys_, [win], xis[None], u)
    terms = cost.candidate_terms_rows(sys_, win, xis, u)
    for b, xi in enumerate(xis):
        x1, p1 = single_flow_and_stm(sys_, win, xi, u)
        assert_bits_equal(xs[:, b], x1)
        assert_bits_equal(phis[:, b], p1)
        for got, want in zip(terms[b], candidate_terms_per_node(sys_, win, xi, u)):
            assert_bits_equal(got, want)
    assert not np.allclose(phis[-1, 0], np.eye(3))


# -- batched flows ------------------------------------------------------------

# A block of rows on one span is a one-window block: [win] and starts
# (1, B, n_x).

@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("n_rows", [1, 5])
def test_flow_rows_equals_stacked_flows(system, n_rows, request, grid2, x0):
    # circ has f_rows; nonlinear goes through the per-row fallback.
    sys_, u = request.getfixturevalue(system)
    xis = x0 + 0.1 * np.random.default_rng(n_rows).standard_normal((n_rows, 2))
    xs = flow_windows(sys_, [grid2.subgrid(0.5, 1.5)], xis[None], u)
    assert_bits_equal(xs, np.stack([flow(sys_, 0.5, 1.5, xi, u, grid2) for xi in xis],
                                   axis=1))


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("n_rows", [1, 5])
def test_flow_and_stm_rows_equals_stacked_calls(system, n_rows, request, grid2, x0):
    # circ has f_rows and df_dx_rows; nonlinear goes through the per-row
    # fallbacks.
    sys_, u = request.getfixturevalue(system)
    xis = x0 + 0.1 * np.random.default_rng(n_rows).standard_normal((n_rows, 2))
    win = grid2.subgrid(0.5, 1.5)
    xs, phis = flow_and_stm_windows(sys_, [win], xis[None], u)
    singles = [single_flow_and_stm(sys_, win, xi, u) for xi in xis]
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
    win = [grid2.subgrid(0.0, 1.0)]
    for rows in (flow_windows, flow_and_stm_windows):
        for xis in (x0[None], np.zeros((1, 0, 2)), np.zeros((1, 3, 3))):
            with pytest.raises(DimensionMismatch):
                rows(sys_, win, xis, u)


@pytest.mark.parametrize("m", [1, 5])
def test_one_window_inputs_are_views_of_the_staging(circ, grid2, m):
    # A one-window block reads the very slices of the run grid's staging
    # that `flow` and `at_nodes` read, one input row per step shared by
    # every row: nothing is gathered or built per step.
    _, u = circ
    win = grid2.subgrid(0.5, 1.5)
    got = ode_core._window_inputs(u, [win], m, 1) + ode_core._window_inputs(u, [win], m, 0)
    want = list(u.stage_values(win.t_start, win.h, win.n_steps, win)) + [u.at_nodes(win)]
    for g, w in zip(got, want):
        assert not isinstance(g, ode_core._StepRows)
        assert g.shape == w.shape == (len(w), u.at(0.0).shape[0])
        assert np.shares_memory(g, w)
        assert_bits_equal(g, w)


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
    assert _first_violation(lambda: flow_windows(sys_, [g], xis[None], u)) == message


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_flow_rows_non_finite_row_matches_flow(system, request, grid2, x0):
    sys_, u = request.getfixturevalue(system)
    bad = np.array([np.inf, 0.0])
    xis = np.stack([x0, bad, x0 + 0.1])
    with np.errstate(invalid="ignore", over="ignore"):
        message = _first_violation(lambda: flow(sys_, 0.0, 1.0, bad, u, grid2))
        assert message == "non-finite state during flow"
        block = lambda: flow_windows(sys_, [grid2.subgrid(0.0, 1.0)], xis[None], u)
        assert _first_violation(block) == message


# -- window blocks ------------------------------------------------------------

# The bearing system has row callbacks; the nonlinear fixture goes through
# the per-row fallbacks, has Phi != I and an input that enters f.
_BLOCK_SYSTEMS = {"bearing": bearing.bearing_system([0.0, 0.0]),
                  "nonlinear": nonlinear_scenario()[0]}
_LAWS = (lambda s: np.hstack([-np.sin(s), np.cos(s)]),
         lambda s: np.hstack([0.5 * np.cos(3.0 * s), 0.3 - s]))


@st.composite
def window_block(draw):
    """A root grid, 1-6 windows of one length at random offsets of it,
    1-5 rows a window, an optional breakpoint on a root node, and a seed."""
    n = draw(st.integers(4, 48))
    length = draw(st.integers(1, n))
    offsets = draw(st.lists(st.integers(0, n - length), min_size=1, max_size=6))
    m = draw(st.integers(1, 5))
    k = draw(st.none() | st.integers(1, n - 1))
    return TimeGrid(0.0, 2.0, n), length, offsets, m, k, draw(st.integers(0, 2 ** 16))


def _block_case(case, second_law):
    root, length, offsets, m, k, seed = case
    nodes = root.nodes
    pieces = ((0.0, _LAWS[0]),)
    if k is not None:
        pieces += ((float(nodes[k]), second_law),)
    wins = [root.subgrid(nodes[o], nodes[o + length]) for o in offsets]
    xis = np.array([1.0, 0.5]) + 0.2 * np.random.default_rng(seed).standard_normal(
        (len(wins), m, 2))
    return root, pieces, wins, xis


@pytest.mark.parametrize("system", sorted(_BLOCK_SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(case=window_block())
def test_window_block_rows_equal_each_window_alone(system, case):
    sys_ = _BLOCK_SYSTEMS[system]
    root, pieces, wins, xis = _block_case(case, _LAWS[1])
    u = InputSignal(pieces)
    m = xis.shape[1]
    xs = ode_core.flow_windows(sys_, wins, xis, u)
    xs_stm, hs, phis = cost.window_tangents(sys_, wins, xis, u)
    for w, win in enumerate(wins):
        for j in range(m):
            b = w * m + j
            x1, p1 = single_flow_and_stm(sys_, win, xis[w, j], u)
            assert_bits_equal(xs[:, b], flow(sys_, win.t_start, win.t_end, xis[w, j], u,
                                             root))
            assert_bits_equal(xs_stm[:, b], x1)
            assert_bits_equal(phis[:, b], p1)
            assert_bits_equal(hs[b], output_jacobians_per_node(sys_, x1, u.at_nodes(win)))


def _violation(call):
    """The DomainViolation message of call(), or None if it returns."""
    try:
        call()
    except DomainViolation as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(case=window_block(), spike=st.integers(0, 48))
def test_window_block_raises_exactly_when_a_window_uses_a_bad_sample(case, spike):
    # One node sample, on the second piece when there is a breakpoint,
    # exceeds the bound. A block raises exactly when some window alone
    # does: its stages for the flows, its stages or nodes for the STMs and
    # output Jacobians (a window ending on the breakpoint takes the left
    # limit at its end, so only its nodes use a sample there).
    sys_ = _BLOCK_SYSTEMS["bearing"]
    root = case[0]
    spike_t = float(root.nodes[min(spike, root.n_steps)])
    law = lambda s: np.hstack([np.where(s == spike_t, 5.0, 0.5), np.zeros_like(s)])
    _, pieces, wins, xis = _block_case(case, law)
    if len(pieces) == 1:
        pieces = ((0.0, law),)
    u = InputSignal(pieces, bound=1.0)

    def alone(win, x):
        flow_and_stm(sys_, win.t_start, win.t_end, x, u, root)
        u.at_nodes(win)

    for block, single in (
            (lambda: ode_core.flow_windows(sys_, wins, xis, u),
             lambda win, x: flow(sys_, win.t_start, win.t_end, x, u, root)),
            (lambda: cost.window_tangents(sys_, wins, xis, u), alone)):
        singles = [_violation(lambda: single(win, x[0])) for win, x in zip(wins, xis)]
        message = _violation(block)
        assert (message is not None) == any(singles)
        if message is not None:
            assert message == next(s for s in singles if s is not None)
            assert f"s={spike_t}" in message


def test_window_block_rejects_misshaped_starts_and_mixed_windows(circ, grid2, x0):
    sys_, u = circ
    wins = [grid2.subgrid(0.0, 0.5), grid2.subgrid(1.0, 1.5)]
    for xis in (np.zeros((2, 2)), np.zeros((1, 1, 2)), np.zeros((2, 0, 2)),
                np.zeros((2, 1, 3))):
        with pytest.raises(DimensionMismatch):
            ode_core.flow_windows(sys_, wins, xis, u)
    starts = np.tile(x0, (2, 1, 1))
    other = TimeGrid.with_step(0.0, 2.0, 0.01)
    for mixed in ([wins[0], grid2.subgrid(1.0, 2.0)], [wins[0], other.subgrid(1.0, 1.5)]):
        with pytest.raises(GridMismatch):
            ode_core.flow_and_stm_windows(sys_, mixed, starts, u)
    # A breakpoint off the grid inside the second window only.
    off_grid = InputSignal(((0.0, _LAWS[0]), (1.2345, _LAWS[1])))
    ode_core.flow_windows(sys_, wins[:1], starts[:1], off_grid)
    with pytest.raises(GridMismatch):
        ode_core.flow_windows(sys_, wins, starts, off_grid)


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
