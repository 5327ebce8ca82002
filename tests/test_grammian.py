"""Eigensolver, Grammian reports, and persistence certificates."""

import re

import numpy as np
import pytest

from obsmhe import (CertificationInconclusive, ControlSystem, EigFailure, GridMismatch,
                    InputSignal, TimeGrid, Unbounded, Verdict,
                    certify_weak_persistence, certify_weak_regular_persistence,
                    check_regular_boundedness, jacobi_eigh,
                    observability_grammian, bearing, flow, gauss_newton_term)
from obsmhe.cost import window_grammian, window_grammians
from obsmhe.grammian import ball_samples
from conftest import (assert_bits_equal, candidate_terms_per_node, oracle_grammian,
                      oracle_stms)


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 8):
        m = rng.standard_normal((n, n))
        a = 0.5 * (m + m.T)
        vals, vecs = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(vals, ref, atol=1e-12)
        # residual check: A V = V diag(vals)
        np.testing.assert_allclose(a @ vecs, vecs @ np.diag(vals), atol=1e-12)


def test_jacobi_diagonal_is_exact():
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(vals, [-1.0, 2.0, 3.0])
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=0)


@pytest.mark.parametrize("a", [
    [[1.0, 2.0], [0.0, 1.0]],
    [[1.0, 1e-17], [0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    np.ones((2, 3)),
    np.ones(3),
])
def test_jacobi_rejects_what_it_cannot_decompose(a):
    # Not square, not finite or not exactly symmetric: an EigFailure, not
    # the eigenvalues of some other matrix or a NaN eigenvalue.
    with pytest.raises(EigFailure):
        jacobi_eigh(a)


def test_grammian_report_is_symmetric_psd(circ, grid2, x0):
    sys_, u = circ
    rep = observability_grammian(sys_, 2.0, 1.0,
                                 flow(sys_, 0.0, 1.0, x0, u, grid2)[-1],
                                 u, grid2)
    np.testing.assert_allclose(rep.matrix, rep.matrix.T, atol=0)
    assert rep.min_eig > 0
    assert rep.min_eig <= rep.max_eig
    assert rep.eigenvalues[0] == rep.min_eig


def test_circ_certificate_positive(circ, x0):
    sys_, u = circ
    cert = certify_weak_regular_persistence(
        sys_, x0, u, T=1.0, t_grid=[1.0, 2.0, 3.0], grid_step=0.005,
        mu_threshold=1e-3)
    assert cert.verdict is Verdict.WEAKLY_REGULARLY_PERSISTENT_SAMPLED
    lo, _ = bearing.circ_eigs(1.0, 1.0, 1.0)
    assert cert.mu_hat == pytest.approx(2.0 * lo, rel=1e-6)


def test_cst_certificate_negative_with_witness(cst, x0):
    sys_, u = cst
    cert = certify_weak_persistence(sys_, x0, u, T=0.5, t_grid=[0.5],
                                    grid_step=0.0025)
    assert cert.verdict is Verdict.NOT_WEAKLY_PERSISTENT
    assert cert.evidence.witness_cost <= 1e-12
    # the flat direction is the line of sight l - x0
    d = np.abs(cert.evidence.witness_direction)
    np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-6)


def test_singular_without_flat_cost_is_inconclusive():
    # 1-D system with h = x^2: the Grammian at x = 0 is exactly singular,
    # but the cost at a small displacement is quartic, not flat.
    sys_ = ControlSystem(
        n_x=1, n_u=1, n_y=1,
        f=lambda x, u: np.zeros(1),
        h=lambda x, u=None: x ** 2,
        df_dx=lambda x, u=None: np.zeros((1, 1)),
        dh_dx=lambda x, u=None: np.array([[2.0 * x[0]]]),
    )
    u = InputSignal.constant([0.0])
    with pytest.raises(CertificationInconclusive):
        certify_weak_persistence(sys_, np.zeros(1), u, T=1.0, t_grid=[1.0],
                                 grid_step=0.01, witness_step=0.1)


def test_regular_verdict_downgrades_below_threshold(spi, x0):
    sys_, u = spi
    cert = certify_weak_regular_persistence(
        sys_, x0, u, T=2.0, t_grid=[2.0, 10.0, 20.0], grid_step=0.005,
        mu_threshold=1e-3)
    assert cert.verdict is Verdict.WEAKLY_PERSISTENT_SAMPLED
    assert cert.mu_hat < 1e-3
    # min eigenvalue decays once the spiral moves outward
    assert cert.min_eigs[0] > cert.min_eigs[1] > cert.min_eigs[2]


def test_bound050_report_and_determinism(circ, x0):
    sys_, u = circ
    r1 = check_regular_boundedness(sys_, x0, u, T=1.0, R=0.1,
                                   t_grid=[1.0, 2.0], n_ball_samples=8,
                                   seed=4, grid_step=0.005)
    r2 = check_regular_boundedness(sys_, x0, u, T=1.0, R=0.1,
                                   t_grid=[1.0, 2.0], n_ball_samples=8,
                                   seed=4, grid_step=0.005)
    assert r1.L_hat == r2.L_hat
    assert r1.L_hat <= 1.0 + 0.1 + 1e-9  # ||l|| + ||xi - l||
    assert not r1.growing


def test_boundedness_overflow_guard(circ, x0):
    sys_, u = circ
    with pytest.raises(Unbounded):
        check_regular_boundedness(sys_, x0, u, T=1.0, R=0.1, t_grid=[1.0],
                                  n_ball_samples=4, seed=0, grid_step=0.005,
                                  overflow_guard=0.5)


def test_boundedness_raises_for_the_first_window_over_the_guard(spi, x0):
    # The spiral's trajectory norms grow with t, so a guard between the
    # first two windows' sups is exceeded by both later windows; the error
    # names the sup of the first of them in window order.
    sys_, u = spi
    args = (1.0, 0.1, [3.0, 1.0, 2.0], 4, 5, 0.005)
    sups = check_regular_boundedness(sys_, x0, u, *args).per_window_sup
    assert sups[0] < sups[1] < sups[2]
    for guard, k in ((0.5 * (sups[0] + sups[1]), 1), (0.5 * sups[0], 0)):
        with pytest.raises(Unbounded, match=re.escape(f"norm {sups[k]:.3e} exceeds")):
            check_regular_boundedness(sys_, x0, u, *args, overflow_guard=guard)


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
def test_window_grammians_equal_the_per_node_oracle(system, request, x0):
    # Windows of one length at unordered, overlapping offsets: one tangent
    # block, and the Grammians come back in window order, each equal to
    # the Grammian of the single-trajectory, per-node terms. Windows of
    # two lengths are not one block.
    sys_, u = request.getfixturevalue(system)
    grid = TimeGrid.with_step(0.0, 3.0, 0.01)
    wins = [grid.subgrid(a, b) for a, b in [(1.5, 2.5), (0.5, 1.5), (2.0, 3.0), (0.2, 1.2)]]
    centers = x0 + 0.1 * np.random.default_rng(5).standard_normal((len(wins), 2))
    got = window_grammians(sys_, wins, centers, u)
    for win, center, c in zip(wins, centers, got):
        _, hs, phis = candidate_terms_per_node(sys_, win, center, u)
        assert_bits_equal(c, window_grammian(win, hs, phis))
    with pytest.raises(GridMismatch):
        window_grammians(sys_, [grid.subgrid(0.5, 1.5), grid.subgrid(1.0, 2.5)],
                         centers[:2], u)


def test_window_grammians_equal_the_closed_form_grammian(linear_oracle):
    # On x' = Ax + Bu, y = Cx every window of n steps has the Grammian
    # M = sum w_n Phi_n^T C^T C Phi_n, Phi_n = R(hA)^n, whatever its start.
    sys_, u = linear_oracle
    grid = TimeGrid.with_step(0.0, 4.0, 0.0025)
    want = oracle_grammian(grid.h, 400)
    assert not np.allclose(oracle_stms(grid.h, 400)[-1], np.eye(2))
    wins = [grid.subgrid(t - 1.0, t) for t in (2.0, 3.0, 4.0, 1.0)]
    centers = np.array([[1.0, 0.0], [0.3, -2.0], [-1.0, 5.0], [0.0, 0.0]])
    got = window_grammians(sys_, wins, centers, u)
    got.append(gauss_newton_term(sys_, 3.0, 4.0, centers[0], u, grid))
    got.append(observability_grammian(sys_, 4.0, 1.0, centers[1], u, grid).matrix)
    for c in got:
        np.testing.assert_allclose(c, want, rtol=1e-12, atol=0.0)


def test_ball_samples_stay_in_ball_and_cover_axes():
    rng = np.random.default_rng(9)
    center = np.array([1.0, -2.0, 0.5])
    pts = ball_samples(rng, center, 0.3, 10)
    assert pts.shape == (10 + 6, 3)
    d = np.linalg.norm(pts - center, axis=1)
    assert np.all(d <= 0.3 + 1e-12)
    np.testing.assert_allclose(np.sort(d[-6:]), np.full(6, 0.3), atol=1e-15)


def _per_row_boundedness(sys_, x0, u, T, R, t_grid, n, seed, grid_step):
    """Per-window sups of one `flow` per ball sample, with the same draws."""
    full = TimeGrid.with_step(0.0, max(t_grid), grid_step)
    xs = flow(sys_, 0.0, full.t_end, x0, u, full)
    rng = np.random.default_rng(seed)
    sups = []
    for t in sorted(t_grid):
        sup = 0.0
        for xi in ball_samples(rng, xs[full.index_of(t - T)], R, n):
            traj = flow(sys_, t - T, t, xi, u, full)
            sup = max(sup, float(np.max(np.linalg.norm(traj, axis=1))))
        sups.append(sup)
    return sups


@pytest.mark.parametrize("system", ["circ", "nonlinear"])
@pytest.mark.parametrize("n", [1, 6])
def test_boundedness_batch_equals_per_row_flows(system, n, request, x0):
    sys_, u = request.getfixturevalue(system)
    args = (1.0, 0.2, [2.0, 1.0, 3.0], n, 11, 0.005)
    rep = check_regular_boundedness(sys_, x0, u, *args)
    want = _per_row_boundedness(sys_, x0, u, *args)
    assert_bits_equal(rep.per_window_sup, want)
    assert_bits_equal(rep.L_hat, max(want))


@pytest.mark.parametrize("n", [0, -5])
def test_ball_sample_count_below_one_rejected(circ, x0, n):
    sys_, u = circ
    with pytest.raises(ValueError, match="n_ball_samples"):
        check_regular_boundedness(sys_, x0, u, T=1.0, R=0.1, t_grid=[1.0],
                                  n_ball_samples=n, seed=0, grid_step=0.005)
    with pytest.raises(ValueError, match="n_ball_samples"):
        certify_weak_regular_persistence(sys_, x0, u, T=1.0, t_grid=[1.0],
                                         grid_step=0.005, n_ball_samples=n)
    assert ball_samples(np.random.default_rng(0), x0, 0.1, 0).shape == (4, 2)
