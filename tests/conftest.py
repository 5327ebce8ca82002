"""Shared fixtures: stock bearing scenarios on moderate grids."""

import numpy as np
import pytest

from obsmhe import (ControlSystem, InputSignal, TimeGrid, bearing, cost, grammian,
                    mhe_solver, ode_core)


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
    """(system, input) whose state-transition matrix is not the identity:
    x' = (-x1^3 + u1, x1 - 0.5 x2 + u2), y = (x1 + 0.1 x2^2, x2)."""
    sys_ = ControlSystem(
        n_x=2, n_u=2, n_y=2,
        f=lambda x, u: np.array([-x[0] ** 3 + u[0], x[0] - 0.5 * x[1] + u[1]]),
        h=lambda x, u: np.array([x[0] + 0.1 * x[1] ** 2, x[1]]),
        df_dx=lambda x, u: np.array([[-3.0 * x[0] ** 2, 0.0], [1.0, -0.5]]),
        dh_dx=lambda x, u: np.array([[1.0, 0.2 * x[1]], [0.0, 1.0]]),
    )
    u = InputSignal.from_callable(lambda s: np.array([np.sin(s), np.cos(2.0 * s)]))
    return sys_, u


def assert_bits_equal(a, b):
    """Equal shapes and equal bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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
