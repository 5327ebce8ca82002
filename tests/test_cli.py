"""End-to-end tests of the `obsmhe` command-line interface.

Each test writes a JSON config into a temp dir, invokes cli.main() in
process, and checks the exit code plus the emitted artifacts.
"""

import csv
import json
import math

import numpy as np
import pytest

from obsmhe import (ConfigError, ControlSystem, InputSignal, SampledSignal, cli,
                    cost, ode_core)
from conftest import count_calls


def run(tmp_path, command, config, extra=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    argv += extra or []
    return cli.main(argv), out


def test_simulate_header_and_closed_orbit(tmp_path):
    code, out = run(tmp_path, "simulate",
                    {"system": "circ-default",
                     "t_grid": {"start": 0.0, "stop": 2 * np.pi, "count": 2},
                     "grid_step": 2 * np.pi / 4096})
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1,u2,y1,y2"
    first = [float(v) for v in lines[1].split(",")[1:3]]
    last = [float(v) for v in lines[-1].split(",")[1:3]]
    np.testing.assert_allclose(last, first, atol=1e-10)


def test_grammian_scan_positive_certificate(tmp_path):
    code, out = run(tmp_path, "grammian-scan", {"system": "circ-default"})
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "WeaklyRegularlyPersistentSampled"
    assert cert["mu_hat"] == pytest.approx(0.1585290151891697, rel=1e-9)
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "t,min_eig,max_eig"
    assert len(lines) == 7  # header + six windows


def test_grammian_scan_negative_certificate(tmp_path):
    code, out = run(tmp_path, "grammian-scan",
                    {"system": "cst-default", "T": 0.5,
                     "t_grid": {"start": 0.5, "stop": 0.9, "count": 3}})
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "NotWeaklyPersistent"
    assert cert["evidence"]["witness_direction"] is not None


def test_mhe_run_zero_noise_is_exact(tmp_path):
    code, out = run(tmp_path, "mhe-run",
                    {"system": "circ-default",
                     "t_grid": {"start": 1.0, "stop": 3.0, "count": 3}})
    assert code == 0
    lines = (out / "windows.csv").read_text().splitlines()
    assert lines[0] == "t,error,grad_norm,iters,converged,status"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) < 1e-8
        assert cells[4] == "true" and cells[5] == "ok"
    rep = json.loads((out / "mhe_report.json").read_text())
    assert rep["n_failed"] == 0 and rep["max_error"] < 1e-8


def test_mhe_run_exit_1_when_windows_fail(tmp_path):
    code, out = run(tmp_path, "mhe-run",
                    {"system": "circ-default",
                     "t_grid": {"start": 1.0, "stop": 2.0, "count": 2},
                     "noise": {"family": "constant", "amplitude": 1e-3},
                     "solver": {"max_iters": 0}})
    assert code == 1
    rep = json.loads((out / "mhe_report.json").read_text())
    assert rep["n_failed"] == 2
    with open(out / "windows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:  # the full reason, commas included, in one cell
        assert row["status"].startswith(
            "MaxItersExceeded: no convergence in 0 iterations")
        assert "tol=" in row["status"]


def test_mhe_run_records_windows_past_the_landmark(tmp_path):
    # cst runs into its landmark at t = 1: the windows that end there or
    # later fail on their reference, the earlier ones solve, and both
    # artifacts are written.
    code, out = run(tmp_path, "mhe-run",
                    {"system": "cst-default", "T": 0.5,
                     "t_grid": {"start": 0.5, "stop": 1.5, "count": 5}})
    assert code == 1
    with open(out / "windows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["t"] for row in rows] == ["0.5", "0.75", "1.0", "1.25", "1.5"]
    assert [row["status"] for row in rows] == ["ok"] * 2 + [
        "DomainViolation: domain guard failed during perturbed_flow"] * 3
    rep = json.loads((out / "mhe_report.json").read_text())
    assert (rep["n_windows"], rep["n_failed"]) == (5, 3)


def test_mhe_run_repeated_window_end_exit_0(tmp_path):
    code, out = run(tmp_path, "mhe-run",
                    {"system": "circ-default",
                     "t_grid": {"start": 2.0, "stop": 2.0, "count": 2}})
    assert code == 0
    with open(out / "windows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["t"], row["status"]) for row in rows] == [("2.0", "ok")] * 2


def test_stability_audit_passes_on_circle(tmp_path):
    code, out = run(tmp_path, "stability-audit",
                    {"system": "circ-default",
                     "t_grid": {"start": 1.0, "stop": 6.0, "count": 6}})
    assert code == 0
    rep = json.loads((out / "audit.json").read_text())
    assert rep["conditions_ok"] == [True, True]
    assert rep["mu_hat"] == pytest.approx(0.1585290151891697, rel=1e-9)
    assert rep["predicted_bound"] == pytest.approx(
        rep["bound_factor"] * rep["config"]["audit"]["nu"])


def test_stability_audit_exit_3_when_margins_fail(tmp_path):
    code, out = run(tmp_path, "stability-audit",
                    {"system": "circ-default",
                     "t_grid": {"start": 2.0, "stop": 4.0, "count": 2},
                     "audit": {"alpha": 0.999, "t_subsample": 1}})
    assert code == 3
    rep = json.loads((out / "audit.json").read_text())
    assert rep["conditions_ok"] != [True, True]


def test_stability_audit_singular_window_exit_3(tmp_path):
    code, out = run(tmp_path, "stability-audit",
                    {"system": "cst-default", "T": 0.5,
                     "t_grid": {"start": 0.5, "stop": 0.9, "count": 2},
                     "grid_step": 0.005})
    assert code == 3
    rep = json.loads((out / "audit.json").read_text())
    assert rep["error"] == "SingularWindow"


def test_unknown_preset_exit_2(tmp_path):
    code, _ = run(tmp_path, "grammian-scan", {"system": "no-such-preset"})
    assert code == 2


def test_bad_t_grid_exit_2(tmp_path):
    code, _ = run(tmp_path, "grammian-scan",
                  {"system": "circ-default",
                   "t_grid": {"start": 3.0, "stop": 1.0, "count": 2}})
    assert code == 2


def _assert_config_error(tmp_path, capsys, command, cfg, field):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert f"(field: {field})" in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("command", ["simulate", "grammian-scan", "mhe-run",
                                     "stability-audit"])
def test_grid_step_that_does_not_divide_the_run_exit_2(tmp_path, capsys, command):
    # 0.7 does not divide [0, 6]; before, each verb exited 1 with GridMismatch.
    _assert_config_error(tmp_path, capsys, command,
                         {"system": "circ-default", "grid_step": 0.7}, "grid_step")


@pytest.mark.parametrize("command", ["grammian-scan", "mhe-run", "stability-audit"])
def test_window_ends_off_the_grid_exit_2(tmp_path, capsys, command):
    # 1, 2.667, 4.333, 6: the inner ends are not nodes of the 0.0025 grid;
    # before, mhe-run wrote a failed row per window and the others exited 1.
    _assert_config_error(tmp_path, capsys, command,
                         {"system": "circ-default",
                          "t_grid": {"start": 1.0, "stop": 6.0, "count": 4}}, "t_grid")


@pytest.mark.parametrize("command", ["grammian-scan", "mhe-run", "stability-audit"])
def test_window_starts_off_the_grid_exit_2(tmp_path, capsys, command):
    # Every window start t - 0.3333 falls between nodes.
    _assert_config_error(tmp_path, capsys, command,
                         {"system": "circ-default", "T": 0.3333}, "T")


@pytest.mark.parametrize("command", ["grammian-scan", "mhe-run", "stability-audit"])
@pytest.mark.parametrize("T, n", [(0.0025, 1), (0.0075, 3)])
def test_odd_step_windows_exit_2(tmp_path, capsys, command, T, n):
    # A window of an odd number of 0.0025 steps is no Simpson window;
    # before, grammian-scan and stability-audit exited 1 with GridMismatch
    # and mhe-run wrote a failed row.
    code, out = run(tmp_path, command,
                    {"system": "circ-default", "T": T,
                     "t_grid": {"start": 1.0, "stop": 1.0, "count": 1}})
    assert code == 2
    assert f"got {n} at t=1.0, T={T} (field: T)" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_input_law_parameters_come_from_the_law_table(tmp_path, capsys):
    # A law's parameters are those `bearing.INPUT_LAWS` names: cst without a
    # sigma takes u_cst's default of 1, and circ without an omega is a
    # config error naming it.
    cfg = cli.normalize_config({"system": {"preset": "circ-default", "input": "cst"}})
    assert "sigma" not in cfg["system"]
    _, x0, u = cli.build_scenario(cfg)
    np.testing.assert_array_equal(u.at(0.0), -x0)
    _assert_config_error(tmp_path, capsys, "simulate",
                         {"system": {"preset": "cst-default", "input": "circ"}},
                         "system.omega")


def test_missing_config_file_exit_2(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)])
    assert code == 2


def test_reruns_and_threads_are_byte_identical(tmp_path):
    cfg = {"system": "circ-default",
           "t_grid": {"start": 1.0, "stop": 4.0, "count": 4},
           "grid_step": 0.005}
    code1, out1 = run(tmp_path / "a", "grammian-scan", cfg)
    code2, out2 = run(tmp_path / "b", "grammian-scan", cfg,
                      extra=["--threads", "4"])
    assert code1 == code2 == 0
    for name in ("scan.csv", "certificate.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seeded_uniform_noise_draws_v_then_w():
    # One generator seeded from the config draws v, then w, on [0, t_max].
    cfg = cli.normalize_config({"system": "circ-default", "noise": {
        "family": "seeded-uniform", "amplitude": 1e-3, "seed": 5, "apply_to": "both"}})
    sys_, _, _ = cli.build_scenario(cfg)
    eta = cli.build_noise(cfg, sys_, 2.0, 0.01)
    ref = np.random.default_rng(5)
    for signal in (eta.v, eta.w):
        want = SampledSignal.seeded_uniform(ref, 0.0, 0.01, 200, 2, 1e-3)
        assert (signal.t0, signal.h) == (want.t0, want.h)
        assert signal.values.tobytes() == want.values.tobytes()


def test_seed_override_changes_noise(tmp_path):
    cfg = {"system": "circ-default",
           "t_grid": {"start": 1.0, "stop": 1.0, "count": 1},
           "grid_step": 0.005,
           "noise": {"family": "seeded-uniform", "amplitude": 1e-3}}
    _, out0 = run(tmp_path / "s0", "mhe-run", cfg)
    _, out0b = run(tmp_path / "s0b", "mhe-run", cfg, extra=["--seed", "0"])
    _, out9 = run(tmp_path / "s9", "mhe-run", cfg, extra=["--seed", "9"])
    base = (out0 / "windows.csv").read_bytes()
    assert base == (out0b / "windows.csv").read_bytes()
    assert base != (out9 / "windows.csv").read_bytes()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_negative_seed_override_exit_2(tmp_path, capsys, seed):
    # The override meets the config's rule for seeds; before, -1 reached
    # the noise generator and exited 1 as an internal error.
    code, out = run(tmp_path, "grammian-scan",
                    {"system": "circ-default",
                     "t_grid": {"start": 1.0, "stop": 1.0, "count": 1}},
                    extra=["--seed", seed])
    assert code == 2
    assert "(field: --seed)" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_normalize_config_is_idempotent():
    cfg = cli.normalize_config({"system": "spi-default"})
    assert cli.normalize_config(cfg) == cfg
    assert cfg["system"]["omega"] == 1.0 and cfg["system"]["alpha"] == 0.3
    assert cfg["audit"]["mu_threshold"] == 1e-3


def test_normalize_config_rejects_bad_noise_family():
    from obsmhe import ConfigError
    with pytest.raises(ConfigError):
        cli.normalize_config({"system": "circ-default",
                              "noise": {"family": "pink"}})


@pytest.mark.parametrize("family, key, value", [
    ("constant", "direction", [0, 0]),
    ("sinusoid", "direction", [0.0, -0.0]),
    ("constant", "direction", [1, 0, 0]),
    ("constant", "direction", [1]),
    ("constant", "direction", []),
    ("constant", "direction", "x"),
    ("constant", "direction", 1.0),
    ("constant", "direction", [1, "0"]),
    ("constant", "direction", [1, math.inf]),
    ("constant", "direction", [1e308, 1e308]),
    ("sinusoid", "frequency", "fast"),
    ("sinusoid", "frequency", math.nan),
    ("sinusoid", "frequency", None),
    ("sinusoid", "phase", True),
    ("sinusoid", "phase", -math.inf),
])
def test_bad_noise_shape_fields_exit_2(tmp_path, capsys, family, key, value):
    # Before, these gave NaN noise (EigFailure), DimensionMismatch or an
    # internal ValueError, each exit 1.
    cfg = {"system": "circ-default", "grid_step": 0.005,
           "t_grid": {"start": 1.0, "stop": 1.0, "count": 1},
           "noise": {"family": family, "amplitude": 1e-3, "apply_to": "both",
                     key: value}}
    code, out = run(tmp_path, "mhe-run", cfg)
    assert code == 2
    assert f"(field: noise.{key})" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_noise_direction_has_the_width_of_each_channel_it_applies_to():
    # A registered system with n_y = 1 and n_x = 2: a 1-vector direction
    # fits v alone, a 2-vector w alone.
    sys_ = ControlSystem(n_x=2, n_u=1, n_y=1, f=lambda x, u: -x, h=lambda x, u: x[:1],
                         df_dx=lambda x, u: -np.eye(2), dh_dx=lambda x, u: np.eye(1, 2))
    for direction, fits in (([2.0], ("v",)), ([3.0, 4.0], ("w",))):
        for apply_to in ("v", "w", "both"):
            cfg = cli.normalize_config({"system": "circ-default", "noise": {
                "family": "constant", "amplitude": 0.5, "direction": direction,
                "apply_to": apply_to}})
            if apply_to in fits:
                eta = cli.build_noise(cfg, sys_, 1.0, 0.5)
                got = eta.v if apply_to == "v" else eta.w
                np.testing.assert_allclose(got.values[0], 0.5 * np.array(direction)
                                           / np.linalg.norm(direction))
            else:
                with pytest.raises(ConfigError) as info:
                    cli.build_noise(cfg, sys_, 1.0, 0.5)
                assert info.value.field == "noise.direction"


def test_absent_noise_shape_fields_stay_absent():
    # Every JSON artifact embeds the expanded config, so no default is
    # added for them; given ones are kept as they are.
    nz = cli.normalize_config({"system": "circ-default"})["noise"]
    assert not {"direction", "frequency", "phase"} & set(nz)
    given = {"family": "sinusoid", "amplitude": 1e-3, "direction": [1, 2],
             "frequency": 0.5, "phase": 0}
    nz = cli.normalize_config({"system": "circ-default", "noise": given})["noise"]
    assert {k: nz[k] for k in given} == given


@pytest.mark.parametrize("noise", [{}, {"family": "constant", "amplitude": 0.001}])
def test_unknown_hessian_mode_exit_2(tmp_path, noise):
    cfg = {"system": "circ-default", "solver": {"hessian_mode": "newton"},
           "noise": noise}
    with pytest.raises(ConfigError) as info:
        cli.normalize_config(cfg)
    assert info.value.field == "solver.hessian_mode"
    code, out = run(tmp_path, "mhe-run", cfg)
    assert code == 2
    assert not (out / "mhe_report.json").exists()


@pytest.mark.parametrize("field", ["n_xi_samples", "n_eta_samples", "t_subsample"])
def test_audit_sample_counts_below_one_exit_2(tmp_path, field):
    cfg = {"system": "circ-default", "audit": {field: 0}}
    with pytest.raises(ConfigError) as info:
        cli.normalize_config(cfg)
    assert info.value.field == f"audit.{field}"
    code, _ = run(tmp_path, "stability-audit", cfg)
    assert code == 2


@pytest.mark.parametrize("count", [0, -5])
def test_ball_sample_count_below_one_exit_2(tmp_path, count):
    cfg = {"system": "circ-default", "audit": {"n_ball_samples": count}}
    with pytest.raises(ConfigError) as info:
        cli.normalize_config(cfg)
    assert info.value.field == "audit.n_ball_samples"
    code, out = run(tmp_path, "grammian-scan", cfg)
    assert code == 2
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("command, field, value", [
    ("grammian-scan", "R", 0),
    ("grammian-scan", "R", -1),
    ("stability-audit", "R", 0),
    ("stability-audit", "R", -1),
    ("stability-audit", "nu", -1e-4),
    ("grammian-scan", "mu_threshold", -1e-3),
    ("grammian-scan", "witness_step", 0),
    ("grammian-scan", "witness_step", -0.01),
    ("grammian-scan", "n_ball_samples", 2.5),
    ("stability-audit", "n_xi_samples", 1.5),
    ("stability-audit", "n_eta_samples", 2.5),
    ("stability-audit", "t_subsample", 2.5),
    ("stability-audit", "seed", -1),
    ("grammian-scan", "singular_tol", -1),
    ("mhe-run", "T", True),
    ("mhe-run", "T", math.inf),
    ("mhe-run", "t_grid.start", "a"),
    ("mhe-run", "t_grid.count", 2.5),
    ("mhe-run", "noise.amplitude", "x"),
    ("mhe-run", "noise.seed", 1.5),
    ("mhe-run", "solver.ball_radius", -1),
    ("mhe-run", "solver.grad_tol", -1),
    ("mhe-run", "solver.max_iters", 2.5),
])
def test_invalid_audit_value_exit_2(tmp_path, capsys, command, field, value):
    # Out-of-range values are config errors naming the field, not internal
    # errors, failed margins, failed windows or silently truncated counts.
    # Audit fields are named by their key alone, others by their path.
    path = f"audit.{field}" if f"audit.{field}" in cli._SCHEMA else field
    *sections, key = path.split(".")
    cfg = {"system": "circ-default"}
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    with pytest.raises(ConfigError) as info:
        cli.normalize_config(cfg)
    assert info.value.field == path
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert f"(field: {path})" in capsys.readouterr().err
    assert not any(out.glob("*.json"))


@pytest.mark.parametrize("preset, field, value", [
    ("circ-default", "omega", "abc"),
    ("circ-default", "omega", 1e400),
    ("circ-default", "omega", None),
    ("spi-default", "omega", 0),
    ("spi-default", "alpha", True),
    ("cst-default", "sigma", True),
    ("circ-default", "x0", [1]),
    ("circ-default", "x0", [1, None]),
    ("circ-default", "x0", [1, math.inf]),
    ("circ-default", "x0", 1.0),
    ("circ-default", "landmark", [0, 0, 0]),
    ("circ-default", "landmark", [0, "0"]),
])
def test_invalid_system_value_exit_2(tmp_path, capsys, preset, field, value):
    # A preset's start, landmark and input-law parameters are config errors
    # naming the field, not internal errors or runs on coerced values.
    cfg = {"system": {"preset": preset, field: value}}
    with pytest.raises(ConfigError) as info:
        cli.normalize_config(cfg)
    assert info.value.field == f"system.{field}"
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert f"(field: system.{field})" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_grammian_scan_integrates_the_reference_once(tmp_path, monkeypatch):
    # The scan and the boundedness check share one [0, 6] reference flow.
    calls = count_calls(monkeypatch, ode_core.flow)
    code, _ = run(tmp_path, "grammian-scan", {"system": "circ-default"})
    assert code == 0
    assert [c[1:3] for c in calls if c[1:3] == (0.0, 6.0)] == [(0.0, 6.0)]


def test_stability_audit_integrates_shared_trajectories_once(tmp_path, monkeypatch):
    # The benchmark's circle audit: one window, 2 noise draws x 2 ball
    # points. The candidate flows do not depend on the noise draw, so each
    # ball point xi takes one block of 21 rows for both draws: the 16
    # difference points of the Hessians at xi +- delta e_j, the 4 of the
    # Hessian at xi shared by all output-noise shifts, and xi itself for
    # every noise gradient. The scan adds one STM block holding every
    # window, before them, and no window flows its STM alone. Both noise
    # draws' references come from one augmented block of 2 rows with their
    # noise sensitivities, with no separate perturbed flow.
    calls = count_calls(monkeypatch, ode_core.flow_and_stm)
    blocks = count_calls(monkeypatch, ode_core.flow_and_stm_windows)
    refs = count_calls(monkeypatch, ode_core.perturbed_flow_and_sensitivities_rows)
    perturbed = count_calls(monkeypatch, ode_core.perturbed_flow)
    code, _ = run(tmp_path, "stability-audit",
                  {"system": "circ-default",
                   "audit": {"R": 0.02, "nu": 1e-4, "alpha": 0.6, "t_subsample": 1}})
    assert code == 0
    assert calls == []
    # flow_and_stm_windows(sys, wins, xis, u)
    assert [(len(args[1]), args[2].shape) for args in blocks] == \
        [(6, (6, 1, 2)), (1, (1, 21, 2)), (1, (1, 21, 2))]
    # perturbed_flow_and_sensitivities_rows(sys, t_end, xi, u, ws, dws, grid)
    assert [len(args[4]) for args in refs] == [2]
    assert perturbed == []


def test_grammian_scan_computes_each_window_grammian_once(tmp_path, monkeypatch):
    # One STM block holds the six windows [t - 1, t], t = 1 .. 6, one row
    # each; no window flows its STM or takes its Grammian alone.
    scans = count_calls(monkeypatch, ode_core.flow_and_stm_windows)
    singles = count_calls(monkeypatch, ode_core.flow_and_stm)
    grammians = count_calls(monkeypatch, cost.gauss_newton_term)
    code, _ = run(tmp_path, "grammian-scan", {"system": "circ-default"})
    assert code == 0
    assert [[(w.offset, w.n_steps) for w in args[1]] for args in scans] == \
        [[(400 * k, 400) for k in range(6)]]  # one block, window ends 1 .. 6
    assert [args[2].shape for args in scans] == [(6, 1, 2)]
    assert singles == [] and grammians == []


def test_grammian_scan_inconclusive_still_writes_scan(tmp_path, capsys):
    # Every window is "singular" under this tolerance, and the circle's
    # witness cost is far from flat: no verdict is supported.
    code, out = run(tmp_path, "grammian-scan",
                    {"system": "circ-default", "audit": {"singular_tol": 1.0}})
    assert code == 1
    assert "CertificationInconclusive" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "t,min_eig,max_eig"
    assert [float(line.split(",")[0]) for line in lines[1:]] == \
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def _oscillator(params):
    """x' = J x + (0, u) with J a rotation, y = x1: Phi(s) = exp(J s) != I."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([0.0, 1.0])
    sys_ = ControlSystem(
        n_x=2, n_u=1, n_y=1,
        f=lambda x, u: j @ x + b * u[0],
        h=lambda x, u=None: x[:1],
        df_dx=lambda x, u=None: j,
        dh_dx=lambda x, u=None: np.array([[1.0, 0.0]]))
    u = InputSignal.from_callable(lambda s: np.sin(2.0 * s), bound=1.0)
    return sys_, np.array([1.0, 0.0]), u


def test_registered_oscillator_scan_matches_closed_form(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SYSTEM_FACTORIES", {})
    cli.register_system("oscillator", _oscillator)
    code, out = run(tmp_path, "grammian-scan", {"system": {"name": "oscillator"}})
    assert code == 0
    T = 1.0
    lo, hi = (T - abs(np.sin(T))) / 2.0, (T + abs(np.sin(T))) / 2.0
    rows = [[float(c) for c in line.split(",")]
            for line in (out / "scan.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    for _, min_eig, max_eig in rows:
        assert min_eig == pytest.approx(lo, rel=1e-9)
        assert max_eig == pytest.approx(hi, rel=1e-9)
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "WeaklyRegularlyPersistentSampled"


def test_registered_system_with_misshaped_input_is_a_named_error(tmp_path, monkeypatch,
                                                                  capsys):
    # An evaluator written for one time at a time returns (1, m, 1) for a
    # column of m times: a DimensionMismatch, not an internal error.
    def scalar_style(params):
        sys_, x0, _ = _oscillator(params)
        return sys_, x0, InputSignal.from_callable(lambda s: np.array([np.sin(2.0 * s)]))

    monkeypatch.setattr(cli, "SYSTEM_FACTORIES", {})
    cli.register_system("oscillator", scalar_style)
    code, _ = run(tmp_path, "simulate", {"system": {"name": "oscillator"}})
    assert code == 1
    err = capsys.readouterr().err
    assert "error: DimensionMismatch" in err and "internal error" not in err
