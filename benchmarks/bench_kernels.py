"""Throughput of the RK4 loop and of the tangent flows built on it.

Times, on the 2D bearing system over one revolution of the circle input:
`ode_core.rk4_flow` with and without process noise w;
`ode_core.rk4_flow_stm`, which is `rk4_flow` on the augmented state
[x; vec Phi] with Phi(0) = I; `ode_core.rk4_flow_sens` (augmented, Z(0) = 0)
with k = 1 and k = n_x noise directions; `rk4_flow` on one state
(B = 1, per-row f) and on a block of B = 20 stacked states (the system's
f_rows), as in a one-window `ode_core.flow_windows`; `rk4_flow_stm` on
row blocks of B = 1, 2 n_x (the difference points of one FD Hessian) and
21 (the block of one uniform-audit ball point), as in a one-window
`ode_core.flow_and_stm_windows`; and
`rk4_flow_sens` on B = 3 noise draws with per-row forcing, as in
`ode_core.perturbed_flow_and_sensitivities_rows`. Reports thousands of
steps per second, counting one step of a B-row block as B steps.

Then times the outputs h and output Jacobians dh_dx of a (401, 21) block
of states, 401 nodes by the 21 rows of one uniform-audit ball point,
through `ode_core.outputs_rows` and `ode_core.output_jacobians_rows`:
once with the system's `h_rows` and `dh_dx_rows` (one call on the whole
block) and once with the per-row fallback (one `h` or `dh_dx` call per
node and row). Reports thousands of rows per second.

Then times input staging for the circle and spiral inputs on the run
grid [0, 6] at h = 0.0025: one staging of the run grid, from which every
span is sliced (2N + 1 sampled times, one evaluator call per sample
set), against staging each span on its own with three one-time
evaluator calls per step, for the reference span [0, 6] and the windows
[t - 1, t], t = 1 .. 6. Reports the sampled times and the milliseconds
of each.

Then times the two window blocks of a Grammian scan for the circle and
spiral inputs on the run grid [0, 6] at h = 0.0025, windows [t - 1, t],
t = 1 .. 6: the six window Grammians from one tangent block with
per-row inputs (`cost.window_grammians`, one `cost.window_tangents`
block) against one `cost.gauss_newton_term`, its one-window case, per
window, and the ball samples of the boundedness check, 20 a window,
as one 120-row `ode_core.flow_windows` block against six one-window
blocks of 20 rows. Reports the milliseconds of each and thousands of
steps per second, counting one step of a B-row block as B steps.

Last, times a single trajectory two ways each, on the circle input and
the run grid [0, 6] at h = 0.0025: the [0, 6] flow as `ode_core.flow`
(the per-row f, the form of reference flows) against the same flow as a
one-row block (`ode_core.flow_windows`, the system's f_rows, the form of
Newton candidates); and the outputs h and output Jacobians dh_dx of the
401 nodes of the window [1, 2], a per-node loop of per-row `h` or
`dh_dx` calls written here against the one-row block form the library
uses (`ode_core.outputs_rows`, `ode_core.output_jacobians_rows`: one
`h_rows` or `dh_dx_rows` call with one input row per node). Reports the
milliseconds of each.

Then times `mhe_solver.audit_nonuniform_stability` on the spiral input
from x0 = (1, 0), with T = 2, nu = 1e-3 and windows ending at t = 3, 4,
..., 8 of the run grid [0, 8] at h = 0.0025, as in the non-uniform
audits of an obsbench `audit` round. Reports the milliseconds of each
call and the steps and row-steps of its tangent flows (every
`ode_core._rk4_tangents` call, a B-row step counting as B row-steps).

    python3 benchmarks/bench_kernels.py [--steps 2000] [--repeats 5]
"""

import argparse
import dataclasses
import time

import numpy as np

from obsmhe import InputSignal, TimeGrid, audit_nonuniform_stability, ode_core
from obsmhe.bearing import bearing_system, u_circ, u_spi
from obsmhe.cost import gauss_newton_term, window_grammians
from obsmhe.grammian import ball_samples


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
    u0, um, u1 = u.stage_values(0.0, h, n)
    rng = np.random.default_rng(0)
    w = 1e-3 * rng.standard_normal((n, 2))
    w_rows = 1e-3 * rng.standard_normal((n, 3, 2))
    nx = sys_.n_x
    starts = x0 + 0.05 * np.random.default_rng(1).standard_normal((21, nx))
    eye_dw = np.tile(np.eye(nx), (n, 1, 1))

    # label -> (rows per step, job)
    jobs = {
        "rk4_flow": (1, lambda: ode_core.rk4_flow(sys_.f, x0, h, u0, um, u1)),
        "rk4_flow+w": (1, lambda: ode_core.rk4_flow(sys_.f, x0, h, u0, um, u1, w)),
        "rk4_flow_stm": (1, lambda: ode_core.rk4_flow_stm(sys_.f, sys_.df_dx, x0,
                                                          h, u0, um, u1)),
    }
    for k, dw in ((1, np.ones((n, nx, 1))), (nx, eye_dw)):
        jobs[f"rk4_flow_sens k={k}"] = (1, lambda dw=dw: ode_core.rk4_flow_sens(
            sys_.f, sys_.df_dx, x0, h, u0, um, u1, w, dw))
    for b, (f, xb) in ((1, (sys_.f, x0)), (20, (sys_.f_rows, starts[:20]))):
        jobs[f"rk4_flow B={b}"] = (b, lambda f=f, xb=xb: ode_core.rk4_flow(
            f, xb, h, u0, um, u1))
    for b in (1, 2 * nx, 21):
        jobs[f"rk4_flow_stm B={b}"] = (b, lambda b=b: ode_core.rk4_flow_stm(
            sys_.f_rows, sys_.df_dx_rows, starts[:b], h, u0, um, u1))
    jobs[f"rk4_flow_sens B=3 k={nx}"] = (3, lambda: ode_core.rk4_flow_sens(
        sys_.f_rows, sys_.df_dx_rows, x0, h, u0, um, u1, w_rows, eye_dw))

    print(f"{n} RK4 steps, best of {args.repeats} runs\n")
    print(f"{'kernel':<24}{'ksteps/s':>14}")
    for label, (rows, job) in jobs.items():
        print(f"{label:<24}{rows * n / bench(job, args.repeats) / 1e3:>14.1f}")

    nodes = 401
    block = x0 + 0.05 * rng.standard_normal((nodes, 21, nx))
    us = u.at_nodes(ode_core.TimeGrid(0.0, 1.0, nodes - 1))
    per_row = dataclasses.replace(sys_, h_rows=None, dh_dx_rows=None)
    print(f"\n({nodes}, 21) block of states, best of {args.repeats} runs\n")
    print(f"{'outputs':<24}{'krows/s':>14}")
    for label, system in (("row callbacks", sys_), ("per-row fallback", per_row)):
        for name, fn in (("h", ode_core.outputs_rows),
                         ("dh_dx", ode_core.output_jacobians_rows)):
            t = bench(lambda: fn(system, block, us), args.repeats)
            print(f"{name + ' ' + label:<24}{block.shape[0] * block.shape[1] / t / 1e3:>14.1f}")

    bench_staging(args.repeats)
    bench_windows(args.repeats)
    bench_single(args.repeats)
    bench_nonuniform_audit(args.repeats)


def _stage_per_step(fn, t0, h, n):
    """A span staged on its own: start, midpoint and end of every step,
    one time per evaluator call."""
    for i in range(n):
        a = t0 + i * h
        for s in (a, a + 0.5 * h, a + h):
            fn(np.array([[s]]))


def bench_staging(repeats):
    landmark, x0 = np.zeros(2), np.array([1.0, 0.0])
    grid = ode_core.TimeGrid.with_step(0.0, 6.0, 0.0025)
    spans = [grid] + [grid.subgrid(t - 1.0, t) for t in range(1, 7)]
    print(f"\ninput staging on [0, 6], h = {grid.h}, best of {repeats} runs\n")
    print(f"{'input':<8}{'staging':<22}{'times':>8}{'ms':>10}")
    for name, u in (("circ", u_circ(landmark, x0, 1.0)),
                    ("spi", u_spi(landmark, x0, 1.0, 0.3))):
        times = []
        fn = u.pieces[0][1]

        def counted(s):
            times.extend(s.ravel().tolist())
            return fn(s)

        def run_grid():
            # A new evaluator each run, so the memo does not serve it.
            v = InputSignal.from_callable(lambda s: counted(s), bound=u.bound)
            v.stage_values(grid.t_start, grid.h, grid.n_steps, grid)

        def per_window():
            for span in spans:
                _stage_per_step(counted, span.t_start, span.h, span.n_steps)

        for label, job in (("run grid, sliced", run_grid),
                           ("per span (3 a step)", per_window)):
            times.clear()
            job()
            sampled = len(times)
            ms = bench(job, repeats) * 1e3
            print(f"{name:<8}{label:<22}{sampled:>8}{ms:>10.2f}")


def bench_windows(repeats):
    landmark, x0 = np.zeros(2), np.array([1.0, 0.0])
    sys_ = bearing_system(landmark)
    grid = ode_core.TimeGrid.with_step(0.0, 6.0, 0.0025)
    ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    wins = [grid.subgrid(t - 1.0, t) for t in ends]
    n = wins[0].n_steps
    print(f"\nwindows [t - 1, t], t = 1 .. 6, of [0, 6] at h = {grid.h}, "
          f"best of {repeats} runs\n")
    print(f"{'input':<8}{'work':<34}{'ms':>10}{'ksteps/s':>12}")
    for name, u in (("circ", u_circ(landmark, x0, 1.0)),
                    ("spi", u_spi(landmark, x0, 1.0, 0.3))):
        xs = ode_core.flow(sys_, 0.0, 6.0, x0, u, grid)
        centers = xs[[w.offset for w in wins]]
        rng = np.random.default_rng(0)
        points = np.stack([ball_samples(rng, c, 0.02, 16) for c in centers])
        rows = points.shape[0] * points.shape[1]
        jobs = (
            ("6 Grammians, one tangent block", len(wins),
             lambda: window_grammians(sys_, wins, centers, u)),
            ("6 Grammians, one per window", len(wins),
             lambda: [gauss_newton_term(sys_, w.t_start, w.t_end, c, u, grid)
                      for w, c in zip(wins, centers)]),
            (f"ball, one {rows}-row block", rows,
             lambda: ode_core.flow_windows(sys_, wins, points, u)),
            (f"ball, 6 blocks of {points.shape[1]} rows", rows,
             lambda: [ode_core.flow_windows(sys_, [w], p[None], u)
                      for w, p in zip(wins, points)]),
        )
        for label, b, job in jobs:
            t = bench(job, repeats)
            print(f"{name:<8}{label:<34}{t * 1e3:>10.2f}{b * n / t / 1e3:>12.1f}")


def bench_single(repeats):
    landmark, x0 = np.zeros(2), np.array([1.0, 0.0])
    sys_ = bearing_system(landmark)
    u = u_circ(landmark, x0, 1.0)
    grid = ode_core.TimeGrid.with_step(0.0, 6.0, 0.0025)
    win = grid.subgrid(1.0, 2.0)
    xs = ode_core.flow(sys_, 1.0, 2.0, x0, u, grid)
    us = u.at_nodes(win)
    print(f"\none circle trajectory at h = {grid.h}, best of {repeats} runs\n")
    print(f"{'work':<50}{'ms':>10}")
    jobs = (
        ("[0, 6] flow, flow", lambda: ode_core.flow(sys_, 0.0, 6.0, x0, u, grid)),
        ("[0, 6] flow, one-row block",
         lambda: ode_core.flow_windows(sys_, [grid], x0[None, None], u)),
        (f"h at {len(xs)} nodes, one call per node",
         lambda: np.stack([sys_.h(x, v) for x, v in zip(xs, us)])),
        (f"h at {len(xs)} nodes, one-row outputs_rows",
         lambda: ode_core.outputs_rows(sys_, xs[:, None], us)),
        (f"dh_dx at {len(xs)} nodes, one call per node",
         lambda: np.stack([sys_.dh_dx(x, v) for x, v in zip(xs, us)])),
        (f"dh_dx at {len(xs)} nodes, one-row output_jacobians_rows",
         lambda: ode_core.output_jacobians_rows(sys_, xs[:, None], us)),
    )
    for label, job in jobs:
        print(f"{label:<50}{bench(job, repeats) * 1e3:>10.2f}")


def bench_nonuniform_audit(repeats):
    landmark, x0 = np.zeros(2), np.array([1.0, 0.0])
    sys_ = bearing_system(landmark)
    u = u_spi(landmark, x0, 1.0, 0.3)
    grid = TimeGrid.with_step(0.0, 8.0, 0.0025)
    tangents = ode_core._rk4_tangents
    steps = []

    def counted(f, dfdx, x0, z0, h, u0, *rest):
        steps.append((len(u0), len(u0) * int(np.prod(x0.shape[:-1]))))
        return tangents(f, dfdx, x0, z0, h, u0, *rest)

    print(f"\nnon-uniform audit, spiral, T = 2, h = {grid.h}, best of {repeats} runs\n")
    print(f"{'t':<6}{'ms':>10}{'tangent steps':>16}{'row-steps':>12}")
    for t in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        def job():
            return audit_nonuniform_stability(sys_, x0, u, t, 2.0, 1e-3, grid, seed=1)
        ode_core._rk4_tangents = counted
        try:
            steps.clear()
            job()
            n, rows = map(sum, zip(*steps))
        finally:
            ode_core._rk4_tangents = tangents
        print(f"{t:<6}{bench(job, repeats) * 1e3:>10.2f}{n:>16}{rows:>12}")


if __name__ == "__main__":
    main()
