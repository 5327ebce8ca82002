"""Bearing-only scenario: geometry, inputs, and closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsmhe import DomainViolation, TimeGrid, check_jacobians, flow, bearing


def test_output_is_unit_bearing(circ):
    sys_, _ = circ
    x = np.array([0.6, -0.8])
    y = sys_.h(x)
    assert np.linalg.norm(y) == pytest.approx(1.0)
    np.testing.assert_allclose(y, -x / np.linalg.norm(x), atol=1e-15)


def test_jacobians_consistent(circ):
    sys_, u = circ
    pts = [(np.array([1.1, 0.3]), u.at(0.0)),
           (np.array([-0.7, 0.4]), u.at(2.0))]
    check_jacobians(sys_, pts)


def test_guard_rejects_landmark_vicinity(circ):
    sys_, _ = circ
    assert not sys_.guard_ok(np.array([0.0, 0.0]))
    assert sys_.guard_ok(np.array([1e-3, 0.0]))


def test_scenario_polar_coordinates():
    sc = bearing.BearingScenario(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert sc.r0 == pytest.approx(1.0)
    assert sc.psi0 == pytest.approx(0.0)
    sc2 = bearing.BearingScenario(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
    assert sc2.r0 == pytest.approx(2.0)
    assert sc2.psi0 == pytest.approx(np.pi / 2)


def test_circ_trajectory_stays_on_circle(circ, x0):
    sys_, u = circ
    g = TimeGrid.with_step(0.0, 2 * np.pi, np.pi / 2000)
    xs = flow(sys_, 0.0, g.t_end, x0, u, g)
    radii = np.linalg.norm(xs, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-10)
    np.testing.assert_allclose(xs[-1], x0, atol=1e-10)  # closed orbit


def test_cst_runs_straight_at_landmark(cst, x0):
    sys_, u = cst
    g = TimeGrid.with_step(0.0, 0.5, 0.005)
    xs = flow(sys_, 0.0, 0.5, x0, u, g)
    np.testing.assert_allclose(xs[-1], [0.5, 0.0], atol=1e-12)
    # bearing is frozen along the run
    ys = np.stack([sys_.h(x) for x in xs])
    np.testing.assert_allclose(ys, np.tile([-1.0, 0.0], (len(xs), 1)),
                               atol=1e-12)


def test_spi_radius_grows_exponentially(spi, x0):
    sys_, u = spi
    g = TimeGrid.with_step(0.0, 4.0, 0.002)
    xs = flow(sys_, 0.0, 4.0, x0, u, g)
    radii = np.linalg.norm(xs, axis=1)
    np.testing.assert_allclose(radii, np.exp(0.3 * g.nodes), rtol=1e-8)


def test_circ_eigs_formula_basics():
    lo, hi = bearing.circ_eigs(1.0, 1.0, np.pi)  # sin(wT) = 0: equal eigs
    assert lo == pytest.approx(hi)
    lo, hi = bearing.circ_eigs(2.0, 1.0, 1.0)
    assert lo == pytest.approx((1.0 - np.sin(1.0)) / 8.0)
    assert hi == pytest.approx((1.0 + np.sin(1.0)) / 8.0)


def test_spi_eigs_trace_identity():
    # sum of eigenvalues must equal (e^{2Ta} - 1) / (2a r(t)^2)
    for t in (2.0, 5.0):
        lo, hi = bearing.spi_eigs(1.0, 1.0, 0.3, 2.0, t)
        trace = (np.exp(2 * 2.0 * 0.3) - 1.0) / (2 * 0.3 * np.exp(0.3 * t) ** 2)
        assert lo + hi == pytest.approx(trace, rel=1e-12)


def test_spi_positivity_threshold():
    # T* satisfies e^{2 T* a} (c - a) = c + a, and it is the worst-case
    # horizon: for T >= T* the minimum eigenvalue is positive even when the
    # oscillatory term in b is maximal (cos(2 T w) = -1).
    om, al = 1.0, 0.3
    c = np.sqrt(al ** 2 + om ** 2)
    tstar = bearing.spi_positivity_threshold(om, al)
    assert np.exp(2 * tstar * al) * (c - al) == pytest.approx(c + al, rel=1e-12)
    for f in (1.0, 1.5, 3.0):
        T = tstar * f
        e2 = np.exp(2 * T * al)
        worst = (e2 - 1.0) - (al / c) * (e2 + 1.0)
        assert worst >= -1e-12
        assert bearing.spi_eigs(1.0, om, al, T, T)[0] > 0


def test_spi_numeric_matches_oracle(spi, x0):
    sys_, u = spi
    T, t = 2.0, 4.0
    g = TimeGrid.with_step(0.0, t, 0.0025)
    from obsmhe import observability_grammian
    center = flow(sys_, 0.0, t - T, x0, u, g)[-1]
    rep = observability_grammian(sys_, t, T, center, u, g)
    lo, hi = bearing.spi_eigs(1.0, 1.0, 0.3, T, t)
    assert rep.min_eig == pytest.approx(lo, rel=1e-6)
    assert rep.max_eig == pytest.approx(hi, rel=1e-6)


def test_preset_scenario_rejects_unknown():
    with pytest.raises(KeyError):
        bearing.preset_scenario("nope")


def test_u_circ_bound_enforced():
    u = bearing.u_circ(np.zeros(2), np.array([1.0, 0.0]), omega=2.0)
    assert np.linalg.norm(u.at(0.7)) <= 2.0 + 1e-12


def test_row_callbacks_equal_per_row_callbacks(circ):
    # Stacked rows, also a strided view as the augmented flows pass them,
    # give each row's per-row result bit for bit.
    sys_, u = circ
    rng = np.random.default_rng(53)
    aug = rng.standard_normal((7, 6))
    ui = u.at(0.3)
    for xs in (rng.standard_normal((5, 2)), aug[:, :2]):
        f_rows, jac_rows = sys_.f_rows(xs, ui), sys_.df_dx_rows(xs, ui)
        y_rows, hjac_rows = sys_.h_rows(xs, ui), sys_.dh_dx_rows(xs, ui)
        assert f_rows.shape == xs.shape and jac_rows.shape == (len(xs), 2, 2)
        assert y_rows.shape == xs.shape and hjac_rows.shape == (len(xs), 2, 2)
        for x, fr, jr, yr, hr in zip(xs, f_rows, jac_rows, y_rows, hjac_rows):
            assert np.asarray(sys_.f(x, ui)).tobytes() == fr.tobytes()
            assert sys_.df_dx(x, ui).tobytes() == jr.tobytes()
            assert sys_.h(x, ui).tobytes() == yr.tobytes()
            assert sys_.dh_dx(x, ui).tobytes() == hr.tobytes()


@settings(max_examples=200, deadline=None)
@given(landmark=st.tuples(*[st.floats(-100.0, 100.0)] * 2),
       log_ranges=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_output_rows_equal_per_row_outputs(landmark, log_ranges, angle):
    # h_rows and dh_dx_rows repeat h and dh_dx bit for bit at ranges from
    # 1e-4 to 1e4, also on a strided view of the states.
    sys_ = bearing.bearing_system(landmark)
    n = len(log_ranges)
    angles = angle + np.arange(n)
    xs = np.asarray(landmark) + (10.0 ** np.asarray(log_ranges))[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=-1)
    aug = np.zeros((n, 6))
    aug[:, :2] = xs
    for rows in (xs, aug[:, :2]):
        ys, hs = sys_.h_rows(rows, None), sys_.dh_dx_rows(rows, None)
        for x, y, hx in zip(rows, ys, hs):
            assert sys_.h(x).tobytes() == y.tobytes()
            assert sys_.dh_dx(x).tobytes() == hx.tobytes()
