"""Pure-Python RK4 stepping kernels.

Reference implementation of the hot inner loops; `obsmhe._kernels` is the
compiled twin with identical signatures and semantics. Stage input values
are precomputed per step (u0 at the step start, um at the midpoint, u1 at
the step end, all taken from the piece active on the open step), so the
kernels never evaluate input signals themselves.

Process-noise arrays are sample-and-hold: one value per step, constant
across the four stages.

`rk4_flow` also steps a block of states: with x0 of shape (B, n_x), `f`
takes the stacked rows and one input row shared by all of them and
returns (B, n_x), and each process-noise row is broadcast over the rows.
Every operation between the f calls is elementwise, so row b of the
result equals, bit for bit, the flow of x0[b] alone when f's rows equal
its per-row results (`ode_core.flow_rows` supplies such an f). The
compiled twin steps one state only.

There is no sensitivity kernel: `ode_core.rk4_flow_sens` computes
process-noise sensitivities as `rk4_flow` on the augmented state
[x; vec Z], with f_aug = (f(x, u), dfdx(x, u) @ Z) and per-step forcing
[w_i; vec F_i].
"""

import numpy as np

BACKEND = "python"


def rk4_flow(f, x0, h, u0, um, u1, w=None):
    """Integrate x' = f(x, u) + w over n steps of size h.

    x0 is one state (n_x,) or a block of stacked states (B, n_x). Returns
    the states at all n+1 nodes, (n+1,) + x0.shape, with states[0] == x0
    exactly.
    """
    n = u0.shape[0]
    xs = np.empty((n + 1,) + x0.shape)
    xs[0] = x0
    x = np.array(x0, dtype=float)
    for i in range(n):
        if w is None:
            k1 = f(x, u0[i])
            k2 = f(x + (0.5 * h) * k1, um[i])
            k3 = f(x + (0.5 * h) * k2, um[i])
            k4 = f(x + h * k3, u1[i])
        else:
            wi = w[i]
            k1 = f(x, u0[i]) + wi
            k2 = f(x + (0.5 * h) * k1, um[i]) + wi
            k3 = f(x + (0.5 * h) * k2, um[i]) + wi
            k4 = f(x + h * k3, u1[i]) + wi
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        xs[i + 1] = x
    return xs


def rk4_flow_stm(f, dfdx, x0, h, u0, um, u1):
    """Co-integrate the flow and its state-transition matrix.

    P' = dfdx(x, u) @ P with P(0) = I, on the same RK4 stages as the state.
    Returns (states, stms) with shapes (n+1, nx) and (n+1, nx, nx).
    """
    n = u0.shape[0]
    nx = x0.shape[0]
    xs = np.empty((n + 1, nx))
    ps = np.empty((n + 1, nx, nx))
    xs[0] = x0
    ps[0] = np.eye(nx)
    x = np.array(x0, dtype=float)
    p = np.eye(nx)
    for i in range(n):
        k1 = f(x, u0[i])
        q1 = dfdx(x, u0[i]) @ p
        x2 = x + (0.5 * h) * k1
        p2 = p + (0.5 * h) * q1
        k2 = f(x2, um[i])
        q2 = dfdx(x2, um[i]) @ p2
        x3 = x + (0.5 * h) * k2
        p3 = p + (0.5 * h) * q2
        k3 = f(x3, um[i])
        q3 = dfdx(x3, um[i]) @ p3
        x4 = x + h * k3
        p4 = p + h * q3
        k4 = f(x4, u1[i])
        q4 = dfdx(x4, u1[i]) @ p4
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        p = p + (h / 6.0) * (q1 + 2.0 * (q2 + q3) + q4)
        xs[i + 1] = x
        ps[i + 1] = p
    return xs, ps
