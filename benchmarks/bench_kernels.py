"""Throughput comparison of the compiled and pure-Python RK4 kernels.

Runs the flow and STM kernels of each backend on the 2D bearing system,
and `ode_core.rk4_flow_sens` (the backend's `rk4_flow` on the augmented
state [x; vec Z]) with k = 1 and k = n_x noise directions, and reports
steps/second per backend plus the speedup. It also times the pure-Python
`rk4_flow` on one state (B = 1, per-row f) and on a block of B = 20
stacked states (the system's f_rows), as in `ode_core.flow_rows`, and
reports row-steps/second for both.

    python3 benchmarks/bench_kernels.py [--steps 2000] [--repeats 5]
"""

import argparse
import time

import numpy as np

from obsmhe import BACKEND, _kernels_py, ode_core
from obsmhe.bearing import bearing_system, u_circ

try:
    from obsmhe import _kernels as _kernels_c
except ImportError:
    _kernels_c = None


def stage_inputs(u, h, n):
    return u.stage_values(0.0, h, n)


def bench(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    landmark = np.zeros(2)
    x0 = np.array([1.0, 0.0])
    sys_ = bearing_system(landmark)
    u = u_circ(landmark, x0, 1.0)
    n = args.steps
    h = 2.0 * np.pi / n  # one full revolution
    u0, um, u1 = stage_inputs(u, h, n)
    w = 1e-3 * np.random.default_rng(0).standard_normal((n, 2))
    nx = sys_.n_x
    directions = {1: np.ones((n, nx, 1)), nx: np.tile(np.eye(nx), (n, 1, 1))}
    starts = x0 + 0.05 * np.random.default_rng(1).standard_normal((20, nx))
    blocks = {1: (sys_.f, x0), 20: (sys_.f_rows, starts)}

    backends = [("python", _kernels_py)]
    if _kernels_c is not None:
        backends.insert(0, ("compiled", _kernels_c))

    jobs = {
        "rk4_flow": lambda k: k.rk4_flow(sys_.f, x0, h, u0, um, u1),
        "rk4_flow+w": lambda k: k.rk4_flow(sys_.f, x0, h, u0, um, u1, w),
        "rk4_flow_stm": lambda k: k.rk4_flow_stm(sys_.f, sys_.df_dx, x0, h,
                                                 u0, um, u1),
    }
    # The sensitivity flow runs on whichever backend ode_core imported.
    sens = {f"rk4_flow_sens k={k}": lambda dw=dw: ode_core.rk4_flow_sens(
        sys_.f, sys_.df_dx, x0, h, u0, um, u1, w, dw) for k, dw in directions.items()}

    print(f"{n} RK4 steps, best of {args.repeats} runs\n")
    print(f"{'kernel':<20}" + "".join(f"{name + ' (ksteps/s)':>22}"
                                      for name, _ in backends) + f"{'speedup':>10}")
    for label, job in jobs.items():
        rates = []
        for _, mod in backends:
            rates.append(n / bench(lambda m=mod: job(m), args.repeats) / 1e3)
        speedup = rates[0] / rates[-1] if len(rates) > 1 else 1.0
        print(f"{label:<20}" + "".join(f"{r:>22.1f}" for r in rates)
              + f"{speedup:>9.1f}x")
    print(f"\n{'augmented':<20}{BACKEND + ' (ksteps/s)':>22}")
    for label, job in sens.items():
        print(f"{label:<20}{n / bench(job, args.repeats) / 1e3:>22.1f}")
    print(f"\n{'row blocks':<20}{'python (krow-steps/s)':>22}")
    for b, (f, xb) in blocks.items():
        t = bench(lambda: _kernels_py.rk4_flow(f, xb, h, u0, um, u1), args.repeats)
        print(f"{'rk4_flow B=' + str(b):<20}{b * n / t / 1e3:>22.1f}")


if __name__ == "__main__":
    main()
