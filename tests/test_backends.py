"""Compiled extension vs pure-Python kernel agreement.

Both backends implement the same fixed-step RK4 recurrences, so on
identical inputs the results should agree to the last few ulps (the C
code may fuse operations differently, hence a tiny tolerance instead of
bit equality).
"""

import importlib

import numpy as np
import pytest

import obsmhe
from obsmhe import _kernels_py

compiled = pytest.importorskip("obsmhe._kernels",
                               reason="compiled extension not built")


def _nonlinear():
    def f(x, u):
        return np.array([-x[0] ** 3 + u[0], x[0] - 0.5 * x[1] + u[1]])

    def dfdx(x, u):
        return np.array([[-3.0 * x[0] ** 2, 0.0], [1.0, -0.5]])

    return f, dfdx


def _stage_inputs(n, h, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n + 1, 2))

    def at(s):
        return base[min(int(round(s / h)), n)]

    u0 = np.stack([at(i * h) for i in range(n)])
    um = np.stack([at((i + 0.5) * h) for i in range(n)])
    u1 = np.stack([at((i + 1) * h) for i in range(n)])
    return u0, um, u1


def test_backend_reports_compiled():
    assert compiled.BACKEND == "compiled"
    assert _kernels_py.BACKEND == "python"


def test_rk4_flow_agreement():
    f, _ = _nonlinear()
    n, h = 200, 0.01
    u0, um, u1 = _stage_inputs(n, h)
    x0 = np.array([0.4, -0.2])
    a = compiled.rk4_flow(f, x0, h, u0, um, u1)
    b = _kernels_py.rk4_flow(f, x0, h, u0, um, u1)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_rk4_flow_agreement_with_process_noise():
    f, _ = _nonlinear()
    n, h = 150, 0.01
    u0, um, u1 = _stage_inputs(n, h, seed=1)
    w = 0.05 * np.random.default_rng(2).standard_normal((n, 2))
    x0 = np.array([0.1, 0.3])
    a = compiled.rk4_flow(f, x0, h, u0, um, u1, w)
    b = _kernels_py.rk4_flow(f, x0, h, u0, um, u1, w)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


def test_rk4_flow_stm_agreement():
    f, dfdx = _nonlinear()
    n, h = 120, 0.01
    u0, um, u1 = _stage_inputs(n, h, seed=3)
    x0 = np.array([-0.3, 0.2])
    xa, pa = compiled.rk4_flow_stm(f, dfdx, x0, h, u0, um, u1)
    xb, pb = _kernels_py.rk4_flow_stm(f, dfdx, x0, h, u0, um, u1)
    np.testing.assert_allclose(xa, xb, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pa, pb, rtol=0, atol=1e-12)


def test_force_python_env_selects_fallback(tmp_path):
    import subprocess
    import sys

    src = ("import obsmhe, sys; "
           "sys.exit(0 if obsmhe.BACKEND == 'python' else 1)")
    res = subprocess.run([sys.executable, "-c", src],
                         env={"OBSMHE_FORCE_PYTHON": "1", "PATH": "/usr/bin"},
                         capture_output=True)
    assert res.returncode == 0, res.stderr.decode()


def test_active_backend_is_exported():
    assert obsmhe.BACKEND in ("compiled", "python")
