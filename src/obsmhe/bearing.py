"""Planar single-integrator bearing-only localization test system.

A vehicle with dynamics x' = u measures only the unit bearing vector
toward a fixed landmark l: h(x) = (l - x) / ||l - x||. Range is
unobservable from a single bearing, so whether a window is informative
depends entirely on how the input bends the trajectory. Three stock
inputs cover the interesting regimes:

* ``u_cst``  -- drive straight at the landmark: the bearing never moves
  and every window Grammian is singular.
* ``u_circ`` -- circle the landmark at constant radius: the Grammian has
  closed-form eigenvalues, uniformly positive for any horizon.
* ``u_spi``  -- spiral outward: eigenvalues stay positive per window but
  decay with the growing range, so the uniform lower bound dies off.

The closed forms make this system the standard oracle for validating the
Grammian and certificate machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ode_core import Array, ControlSystem, InputSignal

_MIN_RANGE = 1e-9


def bearing_system(landmark) -> ControlSystem:
    """ControlSystem for x' = u, y = (l - x)/||l - x|| in the plane."""
    l = np.asarray(landmark, dtype=float)
    if l.shape != (2,):
        raise ValueError("landmark must be a 2-vector")

    def f(x: Array, u: Array) -> Array:
        return u

    def f_rows(xs: Array, u: Array) -> Array:
        out = np.empty(xs.shape)
        out[:] = u
        return out

    def df_dx(x: Array, u: Array = None) -> Array:
        return np.zeros((2, 2))

    def df_dx_rows(xs: Array, u: Array = None) -> Array:
        return np.zeros((xs.shape[0], 2, 2))

    def h(x: Array, u: Array = None) -> Array:
        e = l - x
        return e / np.linalg.norm(e)

    def dh_dx(x: Array, u: Array = None) -> Array:
        e = x - l
        r = np.linalg.norm(e)
        # (1/r^3) [[-e2^2, e1 e2], [e1 e2, -e1^2]]
        return np.array([[-e[1] ** 2, e[0] * e[1]],
                         [e[0] * e[1], -e[0] ** 2]]) / r ** 3

    # The row forms repeat h and dh_dx bit for bit. np.linalg.norm(e) is a
    # BLAS dot, which a stacked matmul of each row with itself reproduces
    # and np.linalg.norm(E, axis=-1) does not. A float64 scalar ** k is
    # libm pow, which Python floats reproduce and array powers do not.
    def ranges(es: Array) -> Array:
        return np.sqrt(np.matmul(es[:, None, :], es[:, :, None])[:, 0, 0])

    def h_rows(xs: Array, u: Array = None) -> Array:
        es = l - xs
        return es / ranges(es)[:, None]

    def dh_dx_rows(xs: Array, u: Array = None) -> Array:
        es = xs - l
        out = np.empty((es.shape[0], 2, 2))
        out[:, 0, 0] = [-a ** 2 for a in es[:, 1].tolist()]
        out[:, 0, 1] = out[:, 1, 0] = es[:, 0] * es[:, 1]
        out[:, 1, 1] = [-a ** 2 for a in es[:, 0].tolist()]
        out /= np.array([r ** 3 for r in ranges(es).tolist()])[:, None, None]
        return out

    # One range formula for a state and for stacked states, so the row
    # guard gives each row the per-row verdict, bit for bit.
    def guard_rows(xs: Array) -> Array:
        return np.linalg.norm(xs - l, axis=-1) >= _MIN_RANGE

    def guard(x: Array) -> bool:
        return bool(guard_rows(x))

    return ControlSystem(n_x=2, n_u=2, n_y=2, f=f, h=h, df_dx=df_dx,
                         dh_dx=dh_dx, domain_guard=guard, f_rows=f_rows,
                         domain_guard_rows=guard_rows, df_dx_rows=df_dx_rows,
                         h_rows=h_rows, dh_dx_rows=dh_dx_rows)


@dataclass(frozen=True)
class BearingScenario:
    """Landmark, start state and the derived polar coordinates (r0, psi0)."""

    landmark: Array
    x0: Array

    @property
    def r0(self) -> float:
        return float(np.linalg.norm(self.landmark - self.x0))

    @property
    def psi0(self) -> float:
        """Polar angle of x0 - l, so x0 = l + r0*(cos(psi0), sin(psi0))."""
        d = self.x0 - self.landmark
        return float(np.arctan2(d[1], d[0]))


def u_cst(landmark, x0, sigma: float = 1.0) -> InputSignal:
    """Constant input sigma * (l - x0): a straight run at the landmark.

    The bearing is frozen, so this is the canonical non-persistent input.
    """
    l = np.asarray(landmark, dtype=float)
    value = sigma * (l - np.asarray(x0, dtype=float))
    return InputSignal.constant(value)


def u_circ(landmark, x0, omega: float) -> InputSignal:
    """Input that circles the landmark at the initial radius r0.

    The trajectory is x(s) = l - r0*(sin(omega*s + psi0), cos(omega*s + psi0)).
    """
    sc = BearingScenario(np.asarray(landmark, dtype=float),
                         np.asarray(x0, dtype=float))
    r0, psi0 = sc.r0, sc.psi0
    w = float(omega)

    def fn(s: Array) -> Array:
        a = w * s + psi0
        return w * r0 * np.hstack([-np.sin(a), np.cos(a)])

    return InputSignal.from_callable(fn, bound=abs(w) * r0)


def u_spi(landmark, x0, omega: float, alpha: float) -> InputSignal:
    """Input that spirals outward: radius r0*exp(alpha*s), angular rate omega.

    The trajectory is x(s) = l - r0*e^{alpha s}*(sin(omega*s + psi0),
    cos(omega*s + psi0)). The speed grows without bound, so no input
    bound is attached; pair it with a finite scan horizon.
    """
    sc = BearingScenario(np.asarray(landmark, dtype=float),
                         np.asarray(x0, dtype=float))
    r0, psi0 = sc.r0, sc.psi0
    w, a = float(omega), float(alpha)

    def fn(s: Array) -> Array:
        ang = w * s + psi0
        sin, cos = np.sin(ang), np.cos(ang)
        return w * r0 * np.exp(a * s) * np.hstack([-sin + (a / w) * cos,
                                                   cos + (a / w) * sin])

    return InputSignal.from_callable(fn)


def circ_eigs(r0: float, omega: float, T: float) -> tuple[float, float]:
    """Closed-form Grammian eigenvalues (min, max) for the circular input.

    lambda_pm = (1 / (2 r0^2)) * (T -+ |sin(omega T)| / omega),
    independent of the window position t.
    """
    s = abs(np.sin(omega * T)) / omega
    lo = (T - s) / (2.0 * r0 ** 2)
    hi = (T + s) / (2.0 * r0 ** 2)
    return float(lo), float(hi)


def spi_eigs(r0: float, omega: float, alpha: float, T: float,
             t: float) -> tuple[float, float]:
    """Closed-form Grammian eigenvalues (min, max) for the spiral input
    on the window [t-T, t].

    lambda_pm = (e^{2 T alpha} - 1 -+ b) / (4 alpha r(t)^2) with
    r(t) = r0 e^{alpha t} and
    b = (alpha / sqrt(alpha^2 + omega^2)) *
        sqrt(e^{4 T alpha} - 2 e^{2 T alpha} cos(2 T omega) + 1).

    The r(t) scaling is pinned by the trace identity
    tr C = (e^{2 T alpha} - 1) / (2 alpha r(t)^2), which follows from
    integrating tr(H^T H) = 1/r(s)^2 over the window.
    """
    r = r0 * np.exp(alpha * t)
    e2 = np.exp(2.0 * T * alpha)
    b = (alpha / np.sqrt(alpha ** 2 + omega ** 2)) * np.sqrt(
        e2 ** 2 - 2.0 * e2 * np.cos(2.0 * T * omega) + 1.0)
    denom = 4.0 * alpha * r ** 2
    return float((e2 - 1.0 - b) / denom), float((e2 - 1.0 + b) / denom)


def spi_positivity_threshold(omega: float, alpha: float) -> float:
    """Smallest horizon for which the spiral's minimum eigenvalue is positive.

    T* = (1 / (2 alpha)) * log((c + alpha) / (c - alpha)),
    c = sqrt(alpha^2 + omega^2); lambda_- > 0 exactly when T > T*.
    """
    c = np.sqrt(alpha ** 2 + omega ** 2)
    return float(np.log((c + alpha) / (c - alpha)) / (2.0 * alpha))


# Stock scenarios used by the command-line interface and the test suite.
# All three share landmark (0, 0) and start (1, 0), i.e. r0 = 1.
PRESETS = {
    "circ-default": {
        "landmark": (0.0, 0.0), "x0": (1.0, 0.0),
        "input": "circ", "omega": 1.0,
    },
    "cst-default": {
        "landmark": (0.0, 0.0), "x0": (1.0, 0.0),
        "input": "cst", "sigma": 1.0,
    },
    "spi-default": {
        "landmark": (0.0, 0.0), "x0": (1.0, 0.0),
        "input": "spi", "omega": 1.0, "alpha": 0.3, "t_max": 20.0,
    },
}


# Input laws by kind: the law, called as law(landmark, x0, **parameters),
# and the names of the scenario parameters it takes.
INPUT_LAWS = {
    "circ": (u_circ, ("omega",)),
    "cst": (u_cst, ("sigma",)),
    "spi": (u_spi, ("omega", "alpha")),
}


def scenario_from_params(p: dict) -> tuple[ControlSystem, Array, InputSignal]:
    """(system, x0, input) from preset-style parameters: landmark, x0, the
    input kind and those parameters of its law that p gives."""
    landmark = np.asarray(p["landmark"], dtype=float)
    x0 = np.asarray(p["x0"], dtype=float)
    law, names = INPUT_LAWS[p["input"]]
    return bearing_system(landmark), x0, law(landmark, x0,
                                              **{k: p[k] for k in names if k in p})


def preset_scenario(name: str) -> tuple[ControlSystem, BearingScenario, InputSignal, dict]:
    """Instantiate a stock scenario: (system, scenario, input, parameters)."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    p = dict(PRESETS[name])
    sys, x0, u = scenario_from_params(p)
    return sys, BearingScenario(np.asarray(p["landmark"], dtype=float), x0), u, p
