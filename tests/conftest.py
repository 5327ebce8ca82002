"""Shared fixtures: stock bearing scenarios on moderate grids."""

import numpy as np
import pytest

from golden.regenerate import nonlinear_scenario, unicycle_scenario
from obsmhe import TimeGrid, bearing, cost, grammian, mhe_solver, ode_core


@pytest.fixture(scope="session")
def x0():
    return np.array([1.0, 0.0])


@pytest.fixture(scope="session")
def circ():
    """(system, input) for the unit-circle scenario around the origin."""
    sys_, _, u, _ = bearing.preset_scenario("circ-default")
    return sys_, u


@pytest.fixture(scope="session")
def cst():
    sys_, _, u, _ = bearing.preset_scenario("cst-default")
    return sys_, u


@pytest.fixture(scope="session")
def spi():
    sys_, _, u, _ = bearing.preset_scenario("spi-default")
    return sys_, u


@pytest.fixture(scope="session")
def nonlinear():
    """(system, input) whose state-transition matrix is not the identity."""
    return nonlinear_scenario()


@pytest.fixture(scope="session")
def unicycle():
    """(system, input, x0) with every row callback and Phi != I, so its
    blocks run tangents through df_dx_rows."""
    return unicycle_scenario()


def assert_bits_equal(a, b):
    """Equal shapes and equal bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# -- single-trajectory oracles ---------------------------------------------
#
# The library takes every output, output Jacobian and candidate STM from a
# row block (`ode_core.outputs_rows`, `ode_core.output_jacobians_rows`,
# `ode_core.flow_and_stm_windows`). These are the per-node, per-row forms
# of the same quantities, written here so that the blocks are compared
# with an independent computation, not with themselves.

def outputs_per_node(sys_, xs, us):
    """h of one trajectory xs, (n, n_x), one per-row call per node."""
    return np.stack([sys_.h(x, u) for x, u in zip(xs, us)])


def output_jacobians_per_node(sys_, xs, us):
    """dh_dx of one trajectory xs, (n, n_x), one per-row call per node."""
    return np.stack([sys_.dh_dx(x, u) for x, u in zip(xs, us)])


def single_flow_and_stm(sys_, win, xi, u):
    """States and STMs of one trajectory from (win.t_start, xi): the RK4
    tangent kernel on one state (n_x,) with the per-row f and df_dx."""
    u0, um, u1 = u.stage_values(win.t_start, win.h, win.n_steps, win)
    return ode_core.rk4_flow_stm(sys_.f, sys_.df_dx, np.asarray(xi, dtype=float),
                                 win.h, u0, um, u1)


def candidate_terms_per_node(sys_, win, xi, u):
    """Outputs, output Jacobians and STMs at the window nodes of the flow
    from (win.t_start, xi), from the single-trajectory oracles."""
    xs, phis = single_flow_and_stm(sys_, win, xi, u)
    us = u.at_nodes(win)
    return outputs_per_node(sys_, xs, us), output_jacobians_per_node(sys_, xs, us), phis


def count_calls(monkeypatch, original):
    """Count the calls to `original` made through any obsmhe module that
    holds it; returns the (growing) list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (ode_core, cost, grammian, mhe_solver):
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture()
def grid6():
    """[0, 6] at the default production step."""
    return TimeGrid.with_step(0.0, 6.0, 0.0025)


@pytest.fixture()
def grid2():
    """[0, 2] with a coarser step for cheap unit tests."""
    return TimeGrid.with_step(0.0, 2.0, 0.005)
