# Compiled twin of obsmhe._kernels_py. Same signatures, same stepping
# arithmetic; the state/STM update algebra runs in C loops, only the user
# callbacks f(x, u) and dfdx(x, u) go through Python.

import numpy as np
cimport numpy as cnp

cnp.import_array()

BACKEND = "compiled"


cdef inline cnp.ndarray _vec(object obj, Py_ssize_t nx):
    # Always copy: callbacks may return views of their own inputs (or a
    # reused buffer), and the stage vectors are mutated in place below.
    cdef cnp.ndarray a = np.array(obj, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != nx:
        raise ValueError("callback returned wrong shape")
    return a


def rk4_flow(f, cnp.ndarray[cnp.float64_t, ndim=1] x0, double h,
             cnp.ndarray[cnp.float64_t, ndim=2] u0,
             cnp.ndarray[cnp.float64_t, ndim=2] um,
             cnp.ndarray[cnp.float64_t, ndim=2] u1,
             w=None):
    cdef Py_ssize_t n = u0.shape[0]
    cdef Py_ssize_t nx = x0.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=2] xs = np.empty((n + 1, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=2] wv
    cdef cnp.ndarray[cnp.float64_t, ndim=1] x = np.array(x0, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] stage = np.empty(nx)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] k1, k2, k3, k4
    cdef Py_ssize_t i, j
    cdef bint has_w = w is not None
    if has_w:
        wv = np.ascontiguousarray(w, dtype=np.float64)
    for j in range(nx):
        xs[0, j] = x0[j]
    for i in range(n):
        k1 = _vec(f(x, u0[i]), nx)
        if has_w:
            for j in range(nx):
                k1[j] += wv[i, j]
        for j in range(nx):
            stage[j] = x[j] + 0.5 * h * k1[j]
        k2 = _vec(f(stage, um[i]), nx)
        if has_w:
            for j in range(nx):
                k2[j] += wv[i, j]
        for j in range(nx):
            stage[j] = x[j] + 0.5 * h * k2[j]
        k3 = _vec(f(stage, um[i]), nx)
        if has_w:
            for j in range(nx):
                k3[j] += wv[i, j]
        for j in range(nx):
            stage[j] = x[j] + h * k3[j]
        k4 = _vec(f(stage, u1[i]), nx)
        if has_w:
            for j in range(nx):
                k4[j] += wv[i, j]
        for j in range(nx):
            x[j] = x[j] + (h / 6.0) * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j])
            xs[i + 1, j] = x[j]
    return xs


def rk4_flow_stm(f, dfdx, cnp.ndarray[cnp.float64_t, ndim=1] x0, double h,
                 cnp.ndarray[cnp.float64_t, ndim=2] u0,
                 cnp.ndarray[cnp.float64_t, ndim=2] um,
                 cnp.ndarray[cnp.float64_t, ndim=2] u1):
    cdef Py_ssize_t n = u0.shape[0]
    cdef Py_ssize_t nx = x0.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=2] xs = np.empty((n + 1, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=3] ps = np.empty((n + 1, nx, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] x = np.array(x0, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] p = np.eye(nx)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] stage = np.empty(nx)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] pst = np.empty((nx, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] k1, k2, k3, k4
    cdef cnp.ndarray[cnp.float64_t, ndim=2] a
    cdef cnp.ndarray[cnp.float64_t, ndim=2] q1 = np.empty((nx, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=2] q2 = np.empty((nx, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=2] q3 = np.empty((nx, nx))
    cdef cnp.ndarray[cnp.float64_t, ndim=2] q4 = np.empty((nx, nx))
    cdef Py_ssize_t i, j, k, m
    cdef double acc
    for j in range(nx):
        xs[0, j] = x0[j]
        for k in range(nx):
            ps[0, j, k] = 1.0 if j == k else 0.0
    for i in range(n):
        k1 = _vec(f(x, u0[i]), nx)
        a = np.ascontiguousarray(dfdx(x, u0[i]), dtype=np.float64)
        for j in range(nx):
            for k in range(nx):
                acc = 0.0
                for m in range(nx):
                    acc += a[j, m] * p[m, k]
                q1[j, k] = acc
        for j in range(nx):
            stage[j] = x[j] + 0.5 * h * k1[j]
            for k in range(nx):
                pst[j, k] = p[j, k] + 0.5 * h * q1[j, k]
        k2 = _vec(f(stage, um[i]), nx)
        a = np.ascontiguousarray(dfdx(stage, um[i]), dtype=np.float64)
        for j in range(nx):
            for k in range(nx):
                acc = 0.0
                for m in range(nx):
                    acc += a[j, m] * pst[m, k]
                q2[j, k] = acc
        for j in range(nx):
            stage[j] = x[j] + 0.5 * h * k2[j]
            for k in range(nx):
                pst[j, k] = p[j, k] + 0.5 * h * q2[j, k]
        k3 = _vec(f(stage, um[i]), nx)
        a = np.ascontiguousarray(dfdx(stage, um[i]), dtype=np.float64)
        for j in range(nx):
            for k in range(nx):
                acc = 0.0
                for m in range(nx):
                    acc += a[j, m] * pst[m, k]
                q3[j, k] = acc
        for j in range(nx):
            stage[j] = x[j] + h * k3[j]
            for k in range(nx):
                pst[j, k] = p[j, k] + h * q3[j, k]
        k4 = _vec(f(stage, u1[i]), nx)
        a = np.ascontiguousarray(dfdx(stage, u1[i]), dtype=np.float64)
        for j in range(nx):
            for k in range(nx):
                acc = 0.0
                for m in range(nx):
                    acc += a[j, m] * pst[m, k]
                q4[j, k] = acc
        for j in range(nx):
            x[j] = x[j] + (h / 6.0) * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j])
            xs[i + 1, j] = x[j]
            for k in range(nx):
                p[j, k] = p[j, k] + (h / 6.0) * (q1[j, k] + 2.0 * (q2[j, k] + q3[j, k]) + q4[j, k])
                ps[i + 1, j, k] = p[j, k]
    return xs, ps
