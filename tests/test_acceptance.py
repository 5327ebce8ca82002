"""Release acceptance suite.

Nine end-to-end checks against closed-form oracles and scaling laws, each
with a wall-clock budget and a single PASS line printed on success (run
with `pytest -s` or check the captured output).
"""

import json
import time

import numpy as np
import pytest

from obsmhe import (
    NoiseSignals, SampledSignal, SolverOptions, TimeGrid, ZERO_NOISE,
    bearing, cli, flow, audit_nonuniform_stability, audit_uniform_stability,
    cum_output_error, grad_cum_error, grad_perturbed_cost,
    grad_sensitivity_v, grad_sensitivity_w,
    multistart_uniqueness, observability_grammian, perturbed_cost,
    rolling_estimate, solve_mhe, solve_pmhe,
    certify_weak_persistence)
from obsmhe.grammian import Verdict
from obsmhe.cost import (WindowProblem, fd_gradient, gauss_newton_term,
                         perturbed_reference)

H = 0.0025  # default integration step


class budget:
    """Context manager asserting a wall-clock budget and printing PASS."""

    def __init__(self, n, name, seconds):
        self.n, self.name, self.seconds = n, name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"ACCEPTANCE {self.n} ({self.name}): FAIL")
            return False
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"criterion {self.n} exceeded budget: {elapsed:.1f}s "
            f">= {self.seconds}s")
        print(f"ACCEPTANCE {self.n} ({self.name}): PASS ({elapsed:.1f}s)")
        return False


def _circ_setup(r0, omega):
    landmark = np.zeros(2)
    x0 = np.array([r0, 0.0])
    return bearing.bearing_system(landmark), x0, bearing.u_circ(
        landmark, x0, omega)


def test_acceptance_1_circular_grammian_oracle():
    with budget(1, "circular Grammian oracle", 10.0):
        for r0 in (0.5, 1.0, 2.0):
            for omega in (0.5, 1.0, 2.0):
                sys_, x0, u = _circ_setup(r0, omega)
                for T in (0.5, 1.0, 2.0):
                    lo, hi = bearing.circ_eigs(r0, omega, T)
                    t_max = T + 3.0
                    grid = TimeGrid.with_step(0.0, t_max, H)
                    xs = flow(sys_, 0.0, t_max, x0, u, grid)
                    for t in (T, T + 1.0, T + 3.0):
                        c = xs[grid.index_of(t - T)]
                        rep = observability_grammian(sys_, t, T, c, u, grid)
                        assert rep.min_eig == pytest.approx(lo, rel=1e-6)
                        assert rep.max_eig == pytest.approx(hi, rel=1e-6)


def test_acceptance_2_spiral_grammian_oracle(spi, x0):
    with budget(2, "spiral Grammian oracle", 10.0):
        sys_, u = spi
        T, alpha = 2.0, 0.3
        grid = TimeGrid.with_step(0.0, 6.0, H)
        xs = flow(sys_, 0.0, 6.0, x0, u, grid)
        max_eigs = {}
        for t in (2.0, 4.0, 6.0):
            lo, hi = bearing.spi_eigs(1.0, 1.0, alpha, T, t)
            rep = observability_grammian(sys_, t, T, xs[grid.index_of(t - T)],
                                         u, grid)
            assert rep.min_eig == pytest.approx(lo, rel=1e-5)
            assert rep.max_eig == pytest.approx(hi, rel=1e-5)
            max_eigs[t] = rep.max_eig
        # ||C|| -> 0 along the spiral: lambda_+ decays like e^{-2 alpha dt}
        for t1, t2 in ((2.0, 4.0), (4.0, 6.0)):
            ratio = max_eigs[t2] / max_eigs[t1]
            assert ratio == pytest.approx(np.exp(-2 * alpha * (t2 - t1)),
                                          rel=1e-4)


def test_acceptance_3_non_persistence_witness(cst, x0):
    with budget(3, "non-persistence witness", 5.0):
        sys_, u = cst
        T = 0.5
        grid = TimeGrid.with_step(0.0, 0.9, H)
        # displacement 0.1*r0 along the motion direction (toward the landmark);
        # the window [0.2, 0.7] keeps the displaced flow clear of the landmark
        xi_ref = flow(sys_, 0.0, 0.7 - T, x0, u, grid)[-1]
        disp = 0.1 * np.array([-1.0, 0.0])
        err = cum_output_error(sys_, 0.7 - T, 0.7, xi_ref, xi_ref + disp, u,
                               grid)
        assert err.value <= 1e-12
        rep = observability_grammian(sys_, 0.7, T, xi_ref, u, grid)
        assert rep.min_eig <= 1e-9 * rep.max_eig
        cert = certify_weak_persistence(sys_, x0, u, T, [0.5, 0.7, 0.9], H,
                                        witness_step=0.1)
        assert cert.verdict is Verdict.NOT_WEAKLY_PERSISTENT


def test_acceptance_4_hessian_grammian_identity(circ, x0, grid6):
    with budget(4, "Hessian-Grammian identity", 5.0):
        sys_, u = circ
        t, T = 2.0, 1.0
        win = grid6.subgrid(t - T, t)
        xi = flow(sys_, 0.0, t - T, x0, u, grid6)[-1]
        _, ref_out = perturbed_reference(sys_, t, T, x0, u, ZERO_NOISE, grid6)
        problem = WindowProblem(sys_, u, win, ref_out)
        hess = problem.hess_fd(xi)
        twoc = 2.0 * gauss_newton_term(sys_, t - T, t, xi, u, grid6)
        assert float(np.max(np.abs(hess - twoc))) <= 1e-5


def test_acceptance_5_derivative_consistency(circ, x0, grid6):
    with budget(5, "derivative consistency", 30.0):
        sys_, u = circ
        rng = np.random.default_rng(42)
        t, T = 2.0, 1.0
        xi_ref = flow(sys_, 0.0, t - T, x0, u, grid6)[-1]
        eta = NoiseSignals(
            v=SampledSignal.constant(np.repeat([5e-3], 2, axis=-1), t - T, t, H),
            w=SampledSignal.constant(np.array([1e-3, -2e-3]), 0.0, t, H))

        for _ in range(20):
            xi = xi_ref + 0.05 * rng.standard_normal(2)
            g = grad_cum_error(sys_, t - T, t, xi_ref, xi, u, grid6)
            g_fd = fd_gradient(
                lambda z: cum_output_error(sys_, t - T, t, xi_ref, z, u,
                                           grid6).value, xi)
            np.testing.assert_allclose(g, g_fd, atol=1e-6, rtol=1e-6)

            gp = grad_perturbed_cost(sys_, t, T, x0, xi, u, eta, grid6)
            gp_fd = fd_gradient(
                lambda z: perturbed_cost(sys_, t, T, x0, z, u, eta,
                                         grid6).value, xi)
            np.testing.assert_allclose(gp, gp_fd, atol=1e-6, rtol=1e-6)

        # noise-direction sensitivities vs two-point difference oracles
        s = 1e-4
        for _ in range(5):
            xi = xi_ref + 0.05 * rng.standard_normal(2)
            dv_dir = np.repeat(rng.standard_normal(1), 2, axis=-1)
            dv = SampledSignal.constant(dv_dir, t - T, t, H)
            sens = grad_sensitivity_v(sys_, t, T, xi, u, grid6, dv)
            gp = grad_perturbed_cost(
                sys_, t, T, x0, xi, u,
                NoiseSignals(v=SampledSignal.constant(s * dv_dir, t - T, t, H)),
                grid6)
            gm = grad_perturbed_cost(
                sys_, t, T, x0, xi, u,
                NoiseSignals(v=SampledSignal.constant(-s * dv_dir, t - T, t, H)),
                grid6)
            np.testing.assert_allclose(sens, (gp - gm) / (2 * s), atol=1e-5)

            dw_dir = rng.standard_normal(2)
            dw = SampledSignal.constant(dw_dir, 0.0, t, H)
            sens = grad_sensitivity_w(sys_, t, T, x0, xi, u, ZERO_NOISE,
                                      grid6, dw)
            gp = grad_perturbed_cost(
                sys_, t, T, x0, xi, u,
                NoiseSignals(w=SampledSignal.constant(s * dw_dir, 0.0, t, H)),
                grid6)
            gm = grad_perturbed_cost(
                sys_, t, T, x0, xi, u,
                NoiseSignals(w=SampledSignal.constant(-s * dw_dir, 0.0, t, H)),
                grid6)
            np.testing.assert_allclose(sens, (gp - gm) / (2 * s), atol=1e-5)


def test_acceptance_6_noiseless_mhe_recovery(circ, x0):
    with budget(6, "noiseless MHE recovery", 60.0):
        sys_, u = circ
        T = 1.0
        grid = TimeGrid.with_step(0.0, 10.0, H)
        opts = SolverOptions(ball_radius=0.1)
        rng = np.random.default_rng(7)
        xs = flow(sys_, 0.0, 10.0, x0, u, grid)
        for t in np.linspace(1.0, 10.0, 10):
            xi_ref = xs[grid.index_of(t - T)]
            off = rng.uniform(-1, 1, size=2)
            off *= 0.05 * rng.uniform() / np.linalg.norm(off)
            sol = solve_mhe(sys_, x0, u, float(t), T, opts, grid,
                            x_init=xi_ref + off)
            assert sol.converged
            assert sol.error_to_reference < 1e-7
        rep = multistart_uniqueness(sys_, x0, u, 2.0, T, R=0.1, n_starts=25,
                                    seed=11, opts=opts, grid=grid)
        assert rep.unique and len(rep.solutions) == 25


def test_acceptance_7_perturbed_mhe_stability(circ, x0, grid6):
    with budget(7, "perturbed-MHE stability", 120.0):
        sys_, u = circ
        T = 1.0
        nus = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
        opts = SolverOptions(ball_radius=0.1)
        t_list = (2.0, 4.0, 6.0)
        max_err = {}
        checked_bound = False
        for nu in nus:
            audit = audit_uniform_stability(
                sys_, x0, u, T, [1, 2, 3, 4, 5, 6], R=0.02, nu=nu, alpha=0.6,
                grid_step=H, raise_on_failure=False)
            bound = audit.bound_factor * nu
            errs = []
            for seed in range(5):
                rng = np.random.default_rng(seed)
                v = SampledSignal.seeded_uniform(rng, 0.0, H, grid6.n_steps, 1, nu)
                v = SampledSignal(v.t0, v.h, np.repeat(v.values, 2, axis=-1))
                for t in t_list:
                    sol = solve_pmhe(sys_, x0, u, t, T, NoiseSignals(v=v),
                                     opts, grid6)
                    errs.append(sol.error_to_reference)
            max_err[nu] = max(errs)
            if all(audit.conditions_ok):
                checked_bound = True
                assert max(errs) <= bound
        assert checked_bound  # margins must hold for at least one noise level
        slope = np.polyfit(np.log(nus), np.log([max_err[n] for n in nus]), 1)[0]
        assert 0.8 <= slope <= 1.2


def test_acceptance_8_time_uniformity_contrast(circ, spi, x0):
    with budget(8, "time-uniformity contrast", 120.0):
        sys_c, u_c = circ
        T, nu = 1.0, 1e-3
        grid = TimeGrid.with_step(0.0, 21.0, H)
        v = SampledSignal.constant(np.repeat([nu], 2, axis=-1), 0.0, 21.0, H)
        results = rolling_estimate(sys_c, x0, u_c, np.arange(1.0, 22.0, 2.0),
                                   T, NoiseSignals(v=v),
                                   SolverOptions(ball_radius=0.1), grid)
        errs = [r.solution.error_to_reference for r in results]
        assert all(r.failure is None for r in results)
        assert max(errs) / min(errs) <= 3.0

        sys_s, u_s = spi
        grid_s = TimeGrid.with_step(0.0, 10.0, H)
        kts = [audit_nonuniform_stability(sys_s, x0, u_s, t, 2.0, nu,
                                          grid_s).K_t
               for t in (2.0, 4.0, 6.0, 8.0, 10.0)]
        assert all(b > a for a, b in zip(kts, kts[1:]))


def test_acceptance_9_determinism(tmp_path):
    with budget(9, "determinism", 120.0):
        jobs = {
            "grammian-scan": (
                {"system": "circ-default", "grid_step": 0.005,
                 "t_grid": {"start": 1.0, "stop": 4.0, "count": 4}},
                ("scan.csv", "certificate.json")),
            "mhe-run": (
                {"system": "circ-default", "grid_step": 0.005,
                 "t_grid": {"start": 1.0, "stop": 3.0, "count": 3},
                 "noise": {"family": "seeded-uniform", "amplitude": 1e-3}},
                ("windows.csv", "mhe_report.json")),
            "stability-audit": (
                {"system": "circ-default", "grid_step": 0.005,
                 "t_grid": {"start": 2.0, "stop": 4.0, "count": 2},
                 "audit": {"t_subsample": 1}},
                ("audit.json",)),
        }
        for cmd, (cfg, artifacts) in jobs.items():
            cfg_path = tmp_path / f"{cmd}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            outputs = []
            for run, threads in (("a", 1), ("b", 4), ("c", 4)):
                out = tmp_path / cmd / run
                code = cli.main([cmd, "--config", str(cfg_path),
                                 "--out", str(out),
                                 "--threads", str(threads)])
                assert code == 0, cmd
                outputs.append(out)
            for name in artifacts:
                blobs = [(o / name).read_bytes() for o in outputs]
                assert blobs[0] == blobs[1] == blobs[2], (cmd, name)
