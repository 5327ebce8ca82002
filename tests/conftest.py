"""Shared fixtures: stock bearing scenarios on moderate grids."""

import numpy as np
import pytest

from golden.regenerate import nonlinear_scenario, unicycle_scenario
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


# -- a closed-form oracle with Phi != I ---------------------------------------
#
# x' = A x + B u, y = C x with u = sin 2s. On it RK4 is the affine
# recurrence x_{i+1} = R(hA) x_i + (input terms), R(z) = 1 + z + z^2/2
# + z^3/6 + z^4/24, so the discrete STM is Phi_n = R(hA)^n whatever the
# start, and the Simpson window cost is exactly quadratic in the start,
# with Hessian 2 M, M = sum_n w_n Phi_n^T C^T C Phi_n.

ORACLE_A = np.array([[0.0, 1.0], [-2.0, -0.3]])
ORACLE_B = np.array([0.0, 1.0])
ORACLE_C = np.array([[1.0, 0.0]])


def _oracle_f(xs, u):
    """A x + B u, elementwise, so one row and a block of rows agree bit
    for bit; u is one input row (n_u,) or one per state (B, n_u)."""
    u = np.asarray(u)[..., 0]
    return np.stack([xs[..., 1], -2.0 * xs[..., 0] - 0.3 * xs[..., 1] + u], axis=-1)


@pytest.fixture(scope="session")
def linear_oracle():
    """(system, input) of the closed-form oracle, with every row callback."""
    sys_ = ControlSystem(
        n_x=2, n_u=1, n_y=1, f=_oracle_f, h=lambda x, u: x[:1],
        df_dx=lambda x, u: ORACLE_A.copy(), dh_dx=lambda x, u: ORACLE_C.copy(),
        f_rows=_oracle_f, h_rows=lambda xs, u: xs[:, :1],
        df_dx_rows=lambda xs, u: np.broadcast_to(ORACLE_A, (len(xs), 2, 2)),
        dh_dx_rows=lambda xs, u: np.broadcast_to(ORACLE_C, (len(xs), 1, 2)))
    return sys_, InputSignal.from_callable(lambda s: np.sin(2.0 * s))


def oracle_stms(h, n):
    """Phi_k = R(hA)^k for k = 0 .. n, (n+1, 2, 2)."""
    z = h * ORACLE_A
    z2 = z @ z
    r = np.eye(2) + z + z2 / 2.0 + z2 @ z / 6.0 + z2 @ z2 / 24.0
    phis = [np.eye(2)]
    for _ in range(n):
        phis.append(r @ phis[-1])
    return np.stack(phis)


def oracle_simpson(h, n):
    """Composite Simpson weights h/3 (1, 4, 2, ..., 4, 1) of n + 1 nodes."""
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def oracle_grammian(h, n):
    """M of a window of n steps h: the same for every window of that length."""
    phis = oracle_stms(h, n)
    hphi = ORACLE_C @ phis
    return np.einsum("n,nij,nik->jk", oracle_simpson(h, n), hphi, hphi)


def oracle_inputs_flow(h, t0, n, x0):
    """The RK4 states of x' = A x + B sin 2s from (t0, x0), stepped in
    numpy: k1 at s, k2 and k3 at s + h/2, k4 at s + h."""
    a, b = ORACLE_A, ORACLE_B
    xs = [np.asarray(x0, dtype=float)]
    for i in range(n):
        s, x = t0 + i * h, xs[-1]
        k1 = a @ x + b * np.sin(2.0 * s)
        k2 = a @ (x + 0.5 * h * k1) + b * np.sin(2.0 * (s + 0.5 * h))
        k3 = a @ (x + 0.5 * h * k2) + b * np.sin(2.0 * (s + 0.5 * h))
        k4 = a @ (x + h * k3) + b * np.sin(2.0 * (s + h))
        xs.append(x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    return np.stack(xs)


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
