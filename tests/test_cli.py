"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` in-process so exit codes, stdout
lines and written artifacts are all visible to assertions.
"""

import json
import math
import os
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from giantqed import cli
from giantqed.analytic import exact_solution
from giantqed.bic import bic_state, overlap_with_initial
from giantqed.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_angle
from giantqed.dde import integrate
from giantqed.field import fdd
from giantqed.model import ConfigError, InitialState, SystemConfig


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("GIANTQED_"):
            monkeypatch.delenv(key)


def _data_rows(path) -> tuple[list[str], list[list[float]]]:
    """Header fields and float data rows of a CSV the CLI wrote."""
    header, *rows = [line for line in Path(path).read_text().splitlines()
                     if not line.startswith("#")]
    return header.split(","), [[float(v) for v in row.split(",")]
                               for row in rows]


def _line_value(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError(f"no line starting with {prefix!r} in:\n{out}")


def test_parse_angle():
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("0.5pi") == 0.5 * math.pi
    assert parse_angle(" 0.5 * pi ") == 0.5 * math.pi
    assert parse_angle("3.25") == 3.25
    with pytest.raises(ConfigError):
        parse_angle("two pi")


def test_simulate_both_engines_agree(tmp_path, capsys):
    rc = main(["simulate", "--engine", "both", "--topology", "braided",
               "--eta", "0.15", "--phi", "0.4pi", "--state", "antisymmetric",
               "--t-max", "2", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "trajectory_analytic.csv").exists()
    assert (tmp_path / "simulate_manifest.txt").exists()
    diff = float(_line_value(out, "max_abs_diff = "))
    assert diff < 1e-6


def test_simulate_dicke_limit_rate(tmp_path, capsys):
    """eta = 0 collapses to the instantaneous model: the symmetric state
    decays at exactly 4 * N * gamma / 2 = 8 gamma for four legs."""
    rc = main(["simulate", "--eta", "0", "--phi", "0", "--state", "symmetric",
               "--t-max", "3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rate = float(_line_value(capsys.readouterr().out, "fit_rate = "))
    assert rate == pytest.approx(8.0, abs=1e-6)


def test_simulate_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.ini")])
    assert rc == EXIT_USAGE
    assert "config file not found" in capsys.readouterr().err


def test_geometry_parameterizations_are_exclusive(tmp_path, capsys):
    rc = main(["simulate", "--eta", "0.2", "--omega0", "31.4",
               "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "not a mix" in capsys.readouterr().err


def test_unknown_ini_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\netta = 0.2\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert "unknown key 'etta'" in capsys.readouterr().err


def test_layering_file_env_flags(tmp_path, capsys, monkeypatch):
    """Config file < environment < flags, each layer visible in the manifest."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\ntopology = braided\neta = 0.25\nphi = pi\n"
                   f"[run]\nout = {tmp_path}\n")
    monkeypatch.setenv("GIANTQED_PHI", "3pi")
    rc = main(["simulate", "--config", str(cfg), "--topology", "separate",
               "--t-max", "1"])
    assert rc == EXIT_OK
    manifest = (tmp_path / "simulate_manifest.txt").read_text()
    assert "topology = separate" in manifest          # flag beat the file
    assert float(_line_value(manifest, "phi = ")) == pytest.approx(
        3 * math.pi, rel=1e-12)                       # env beat the file
    assert float(_line_value(manifest, "eta = ")) == pytest.approx(0.25)


def test_reruns_are_byte_identical(tmp_path):
    argv = ["simulate", "--topology", "separate", "--eta", "0.2",
            "--phi", "2pi", "--state", "antisymmetric", "--t-max", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert (a / "trajectory.csv").read_bytes() == \
        (b / "trajectory.csv").read_bytes()


def test_decay_rates_scan(tmp_path, capsys):
    rc = main(["decay-rates", "--topology", "braided",
               "--scan", "0.9:1.1:0.05", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    body = [line for line in
            (tmp_path / "decay_rates.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert body[0].startswith("omega0_dx_over_pi,")
    assert len(body) == 1 + 5
    x_peak = float(_line_value(out, "peak: x = ").split(",")[0])
    assert 0.9 <= x_peak <= 1.1
    assert (tmp_path / "decay_rates_manifest.txt").exists()


def test_decay_rates_v_g_scales_the_delay(tmp_path):
    """x = omega0*dx/pi with dx = v_g*delay: at v_g = 2 the scan over
    0.01:6.0:0.01 has the delays of the v_g = 1 scan over 0.005:3.0:0.005
    and the same rates bit for bit, and both manifests the same delay."""
    def scan(out, *flags):
        assert main(["decay-rates", "--topology", "braided", *flags,
                     "--out", str(out)]) == EXIT_OK
        rows = [line.split(",", 1) for line in
                (out / "decay_rates.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        manifest = (out / "decay_rates_manifest.txt").read_text()
        header = [line for line in (out / "decay_rates.csv").read_text()
                  .splitlines() if line.startswith("#")]
        return ([float(x) for x, _ in rows], [rest for _, rest in rows],
                _line_value(manifest, "delay = "), header)

    x1, rates1, delay1, head1 = scan(tmp_path / "v1",
                                     "--scan", "0.005:3.0:0.005")
    x2, rates2, delay2, head2 = scan(tmp_path / "v2", "--v-g", "2",
                                     "--scan", "0.01:6.0:0.01")
    assert x2 == [2.0 * x for x in x1]
    assert rates2 == rates1
    assert delay2 == delay1
    # the CSV alone fixes each point's delay pi*x/(omega0*v_g)
    assert [line for line in head1 if line not in head2] == ["# v_g = 1.0"]
    assert [line for line in head2 if line not in head1] == ["# v_g = 2.0"]


def test_decay_rates_bad_scan_spec(tmp_path, capsys):
    rc = main(["decay-rates", "--scan", "1:2", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "start:stop:step" in capsys.readouterr().err


def test_bic_report_when_bound_state_exists(tmp_path, capsys):
    rc = main(["bic", "--topology", "braided", "--eta", "0.2",
               "--phi", "2pi", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "BIC exists" in out
    report = json.loads((tmp_path / "bic_report.ndjson").read_text())
    assert report["exists"] is True
    assert report["atomic_weight"] == pytest.approx(1 / 1.2, rel=1e-12)
    assert report["field_weight"] == pytest.approx(0.2 / 1.2, rel=1e-12)
    assert report["field_norm"] == pytest.approx(
        report["field_weight"], abs=1e-14)
    assert report["overlap_symmetric"] == pytest.approx(0.0, abs=1e-15)
    assert (tmp_path / "bic_profile.csv").exists()


def test_bic_report_when_none_exists(tmp_path, capsys):
    rc = main(["bic", "--topology", "braided", "--eta", "0.2",
               "--phi", "3pi", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert "NoBic" in capsys.readouterr().out
    report = json.loads((tmp_path / "bic_report.ndjson").read_text())
    assert report["exists"] is False
    assert not (tmp_path / "bic_profile.csv").exists()


def test_fdd_map_and_trapping_metric(tmp_path, capsys):
    rc = main(["fdd", "--topology", "separate", "--eta", "0.2",
               "--phi", "2pi", "--state", "antisymmetric", "--t-max", "6",
               "--nx", "81", "--nt", "13", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    metric = float(_line_value(capsys.readouterr().out,
                               "interior_trapping = "))
    # dark configuration: the interior still holds a share of the
    # excitation as trapped field
    assert metric > 0.01
    body = [line for line in (tmp_path / "fdd.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(body) == 1 + 81 * 13


def test_wide_fdd_resolves_the_interior(tmp_path, capsys):
    """At eta = 1e4 the legs are 1e4 apart and the packets emitted by t = 1
    are one unit wide; the interior grid steps v_g*h, the run's own
    resolution.  Before any delay has passed each of the 8 half-packets (4
    legs, 2 directions) carries an equal share of the emitted 1 - pop(1) =
    1 - exp(-2), and the outer legs' outward ones leave the interior: 3/4
    of it is inside."""
    assert main(["fdd", "--eta", "1e4", "--phi", "2pi", "--state",
                 "antisymmetric", "--t-max", "1", "--nx", "11", "--nt", "5",
                 "--out", str(tmp_path)]) == EXIT_OK
    metric = float(_line_value(capsys.readouterr().out,
                               "interior_trapping = "))
    assert metric == pytest.approx(0.75 * (1.0 - math.exp(-2.0)), rel=0.02)


def test_wide_fdd_evaluates_only_the_interior_near_the_legs(tmp_path, capsys):
    """The same run's interior grid has 1.5 million points, but by t = 1
    field has reached only those within v_g*t = 1 of a leg: the rest are
    neither formed nor evaluated, so the run peaks far below the 134 MB
    that evaluating all of them took (and the 13.7 MB that forming them
    took), and the printed value is the full grid's to 1e-12."""
    tracemalloc.start()
    try:
        assert main(["fdd", "--eta", "1e4", "--phi", "2pi", "--state",
                     "antisymmetric", "--t-max", "1", "--nx", "11", "--nt",
                     "5", "--out", str(tmp_path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    metric = float(_line_value(capsys.readouterr().out,
                               "interior_trapping = "))
    assert metric == pytest.approx(0.6410850023421935, rel=1e-12)


def test_late_fdd_reports_the_trapped_interior(tmp_path, capsys):
    """The README late map's x step (0.34) is wider than the leg spacing
    (0.2); the interior is integrated on its own grid, where the trapped
    standing wave is.  By t = 40 the transient has left, and what stays
    between the legs is the BIC's field share of the initial state."""
    assert main(["fdd", "--topology", "braided", "--eta", "0.2", "--phi",
                 "2pi", "--state", "antisymmetric", "--t-max", "40",
                 "--nx", "241", "--nt", "61", "--out", str(tmp_path)]) == EXIT_OK
    metric = float(_line_value(capsys.readouterr().out,
                               "interior_trapping = "))
    bic = bic_state(SystemConfig.from_phase("braided", eta=0.2,
                                            phi=2 * math.pi))
    trapped = overlap_with_initial(bic, InitialState.antisymmetric())
    assert metric == pytest.approx(trapped * bic.field_weight, rel=1e-6)


def test_simulate_refuses_an_ill_conditioned_series(tmp_path, capsys):
    """Braided antisymmetric at phi = 2pi, t = 40: the branches have
    cancelled away their digits, but the local form answers (max_abs_diff
    4.5e-13 against the integrator's K = 100 run).  At eta = 20 over 100
    delays the local rows themselves cancel, and the series is refused with
    exit 3 instead of being written."""
    rc = main(["simulate", "--topology", "braided", "--eta", "0.2", "--phi",
               "2pi", "--state", "antisymmetric", "--engine", "both",
               "--t-max", "40", "--out", str(tmp_path / "late")])
    assert rc == EXIT_OK
    assert float(_line_value(capsys.readouterr().out,
                             "max_abs_diff = ")) < 1e-6
    rc = main(["simulate", "--topology", "braided", "--eta", "20", "--phi",
               "0.5pi", "--state", "antisymmetric", "--engine", "analytic",
               "--t-max", "2000", "--out", str(tmp_path / "long")])
    assert rc == EXIT_NUMERICAL
    assert "rounding bound" in capsys.readouterr().err
    assert not (tmp_path / "long" / "trajectory_analytic.csv").exists()


@pytest.mark.parametrize("t_max", ["0.9995", "7.9999"])
def test_simulate_analytic_rows_are_their_own_times(tmp_path, t_max):
    """Every trajectory_analytic.csv row holds the series at its own t, the
    last one included, although the integrator's last node lies past
    t_max, on the horizon of a series built to t_max."""
    assert main(["simulate", "--topology", "separate", "--eta", "0.2",
                 "--engine", "both", "--t-max", t_max,
                 "--out", str(tmp_path)]) == EXIT_OK
    _, rows = _data_rows(tmp_path / "trajectory_analytic.csv")
    t, re_a, im_a, re_b, im_b = np.array(rows).T[:5]
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=0.0)
    sol = exact_solution(cfg, InitialState.symmetric(),
                         t_max=t[-1] + cfg.delay)
    c_a, c_b = sol.atomic(t)
    assert np.max(np.abs(re_a + 1j * im_a - c_a)) < 1e-15
    assert np.max(np.abs(re_b + 1j * im_b - c_b)) < 1e-15


def test_late_fdd_map_matches_trajectory_fed_map(tmp_path):
    """At t = 40/gamma the braided dark state's branch series has lost its
    digits (its map peaked at ~4.6e3); the command must match a map built
    from an integrator run instead."""
    assert main(["fdd", "--topology", "braided", "--eta", "0.2", "--phi",
                 "2pi", "--state", "antisymmetric", "--t-max", "40",
                 "--nx", "241", "--nt", "61", "--out", str(tmp_path)]) == EXIT_OK
    rows = [line for line in (tmp_path / "fdd.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    peak = max(float(row.split(",")[2]) for row in rows)
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    traj = integrate(cfg, InitialState.antisymmetric(), 40.0 + cfg.delay)
    span = 1.5 * cfg.spacing + cfg.v_g * 40.0
    ref = fdd(traj, cfg, -1, np.linspace(-span, span, 241),
              np.linspace(0.0, 40.0, 61)).intensity.max()
    assert peak == pytest.approx(ref, rel=1e-3)


def test_detect_window_ending_an_ulp_past_the_run(tmp_path):
    """At eta = 1.3, K = 150 the run's last node sits 1.4e-14 short of
    t_max = 81.9; the record's last time reads that node instead of
    failing."""
    assert main(["detect", "--eta", "1.3", "--phi", "0", "--t-max", "81.9",
                 "--steps-per-delay", "150", "--n-points", "50",
                 "--out", str(tmp_path)]) == EXIT_OK


def test_value_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    """Exit 3 means the numerics failed; any other ValueError is a defect
    and propagates instead of posing as one."""
    def broken(args, params):
        raise ValueError("defect")
    monkeypatch.setattr(cli, "cmd_bic", broken)
    with pytest.raises(ValueError, match="defect"):
        main(["bic", "--out", str(tmp_path)])


def test_detect_switch_flags_must_pair(tmp_path, capsys):
    rc = main(["detect", "--eta", "0.2", "--phi", "2pi",
               "--switch-at", "5", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "--phi-after" in capsys.readouterr().err


def test_detect_with_drive_switch(tmp_path, capsys):
    rc = main(["detect", "--topology", "separate", "--eta", "0.2",
               "--phi", "2pi", "--state", "antisymmetric",
               "--t-max", "12", "--switch-at", "6", "--phi-after", "2.5pi",
               "--n-points", "801", "--steps-per-delay", "50",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    released = float(_line_value(out, "released_both_directions = "))
    quiet = float(_line_value(out, "pre_switch_max_intensity = "))
    assert released > 1e-3            # the stored excitation leaks out
    assert quiet < 1e-6               # ... and nothing leaked before
    assert (tmp_path / "detector.csv").exists()


INVALID_VALUES = (
    (["decay-rates", "--gamma", "nan"], {}, "--gamma"),
    (["decay-rates", "--gamma", "-1"], {}, "gamma"),
    (["decay-rates"], {"GIANTQED_GAMMA": "abc"}, "--gamma"),
    (["decay-rates", "--omega0", "nan"], {}, "--omega0"),
    (["decay-rates", "--omega0", "0"], {}, "--omega0"),
    # eta = pi*3/1e-300 would overflow exp(-s n delay); trips before the scan
    (["decay-rates", "--omega0", "1e-300"], {}, "--omega0"),
    (["decay-rates", "--v-g", "0"], {}, "--v-g"),
    # the delay pi*x/(omega0*v_g) overflows, and omega0*v_g overflows
    (["decay-rates", "--v-g", "1e-320"], {}, "--v-g"),
    (["decay-rates", "--v-g", "1e300", "--omega0", "1e300"], {}, "--v-g"),
    (["detect", "--eta", "0.2", "--phi", "2pi", "--t-max", "4",
      "--switch-at", "2", "--phi-after", "nan"], {}, "--phi-after"),
    (["simulate", "--eta", "nan"], {}, "--eta"),
    (["simulate", "--eta", "-0.2"], {}, "eta"),
    (["simulate", "--gamma", "0"], {}, "gamma"),
    (["simulate", "--omega0", "1", "--dx", "1", "--v-g", "0"], {}, "--v-g"),
    (["simulate", "--omega0", "1", "--dx", "-1"], {}, "--dx"),
    # the default K = 100 is below the 50*eta floor
    (["simulate", "--eta", "5", "--phi", "0"], {}, "eta = "),
    (["decay-rates", "--scan", "0.1:inf:0.1"], {}, "--scan"),
    # (stop - start)/step overflows to inf: past the scan point budget
    (["decay-rates", "--scan", "0.1:1e308:1e-308"], {}, "--scan"),
    (["decay-rates", "--scan", "0.1:3:1e-5"], {}, "--scan"),
    # a step that does not divide stop - start (2.25 and 0.5 intervals)
    (["decay-rates", "--scan", "0.1:1.0:0.4"], {}, "--scan"),
    (["decay-rates", "--scan", "0.1:0.3:0.4"], {}, "--scan"),
    (["detect", "--n-points", "2000000"], {}, "--n-points"),
    # 10 001 branches of the exact series, past its budget
    (["simulate", "--engine", "analytic", "--eta", "1e-3", "--phi", "0"], {},
     "--t-max"),
    # 1e10 samples of the exact series, past the node budget
    (["simulate", "--engine", "analytic", "--steps-per-delay", "1000000000"],
     {}, "--steps-per-delay"),
    # the step delay/K of a subnormal delay underflows to 0
    (["simulate", "--omega0", "31.4", "--dx", "5e-324"], {}, "--t-max"),
    # the leg spacing v_g*delay underflows to 0
    (["bic", "--v-g", "5e-324"], {}, "v_g"),
    # the map's largest value gamma*pi*(4N)^2/v_g^2 overflows, or v_g^2 does
    (["fdd", "--v-g", "1e-300"], {}, "v_g"),
    (["fdd", "--v-g", "1e200"], {}, "v_g"),
    # the record's largest |amplitude|^2 16 N^2 gamma/v_g overflows
    (["detect", "--v-g", "1e-310"], {}, "v_g"),
    # the layered flags parse like their INI and environment values
    (["simulate", "--eta", "abc"], {}, "--eta"),
    (["bic"], {"GIANTQED_TOPOLOGY": "ring"}, "topology"),
    (["decay-rates"], {"GIANTQED_TOPOLOGY": "ring"}, "topology"),
    # an INI file (the --config value is its text) without a section
    # header, one with a line that is no key, one with a '%' in a value
    # (plain text, not interpolated) and one with an unknown section
    (["simulate", "--config", "eta = 0.2"], {}, "cannot parse config file"),
    (["simulate", "--config", "[system]\neta = 0.2\nfoo"], {},
     "run.ini, line 3"),
    (["simulate", "--config", "[system]\neta = 50%"], {}, "--eta"),
    (["simulate", "--config", "[sytem]"], {}, "[sytem]"),
    (["simulate", "--omega0", "1"], {}, "--dx"),
    (["simulate", "--state", "up"], {}, "state"),
    (["simulate", "--engine", "rk4"], {}, "engine"),
    # the commands that need a finite leg spacing
    (["fdd", "--eta", "0"], {}, "eta"),
    (["bic", "--eta", "0"], {}, "eta"),
    (["detect", "--eta", "0"], {}, "eta"),
    (["detect", "--eta", "0.2", "--phi", "2pi", "--t-max", "4",
      "--switch-at", "4", "--phi-after", "2pi"], {}, "--switch-at"),
    # K = 5e7 steps per delay: the interior grid's 1.5e8 points
    (["fdd", "--eta", "1e6", "--phi", "2pi"], {}, "--eta"),
)


@pytest.mark.parametrize(
    "argv, env, flag", INVALID_VALUES,
    ids=[" ".join([*(f"{k}={v}" for k, v in env.items()), *argv])
         for argv, env, _ in INVALID_VALUES])
def test_invalid_values_exit_2_and_name_the_flag(tmp_path, capsys,
                                                 monkeypatch, argv, env, flag):
    """Each refusal is one line that names its flag or key, and writes
    nothing, not even a staging directory.  A --config value is the text
    of an INI file."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        (tmp_path / "run.ini").write_text(argv[i])
        argv[i] = str(tmp_path / "run.ini")
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] in ([], ["run.ini"])


NON_POSITIVE = (
    (["simulate", "--steps-per-delay", "0"], "--steps-per-delay"),
    (["simulate", "--t-max", "0"], "--t-max"),
    (["fdd", "--nx", "0"], "--nx"),
    (["fdd", "--x-span", "nan"], "--x-span"),
    (["detect", "--n-points", "0"], "--n-points"),
    (["detect", "--n-points", "1", "--t-max", "2"], "--n-points"),
    (["detect", "--x0", "-1"], "--x0"),
    # an int past the float range
    (["simulate", "--steps-per-delay", "1" + "0" * 400], "--steps-per-delay"),
)


@pytest.mark.parametrize("argv, flag", NON_POSITIVE,
                         ids=[" ".join(argv) for argv, _ in NON_POSITIVE])
def test_non_positive_counts_and_lengths_exit_2(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "detect", "fdd"])
def test_runs_past_the_node_budget_exit_2(tmp_path, capsys, command):
    """1e12/gamma at the default eta and K needs far more than the 1e7-node
    budget; the run stops before its store is allocated."""
    assert main([command, "--t-max", "1e12", "--out", str(tmp_path)]) == \
        EXIT_USAGE
    err = capsys.readouterr().err
    assert "--t-max" in err
    if command == "fdd":
        # fdd sets its steps per delay from eta and has no such flag
        assert "--eta" in err and "--steps-per-delay" not in err
    else:
        assert "--steps-per-delay" in err


def test_fdd_map_past_the_cell_budget_exits_2(tmp_path, capsys):
    """A 1e6 x 1e6 map is 8e12 cells; the check runs before any grid,
    trajectory or output directory exists."""
    out = tmp_path / "out"
    assert main(["fdd", "--nx", "1000000", "--nt", "1000000",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--nx" in err and "--nt" in err
    assert not out.exists()


#: Runs whose arithmetic leaves the float range: an invalid inf * 0 in the
#: integrator, an overflowing matmul, and v_g^2 = 0 under fdd's intensity.
FLOATING_POINT_FAILURES = (
    ["simulate", "--gamma", "1e-300"],
    ["simulate", "--gamma", "1e300"],
)


@pytest.mark.parametrize("argv", FLOATING_POINT_FAILURES, ids=" ".join)
def test_floating_point_failures_exit_3(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {argv[0]}: ")
    assert err.count("\n") == 1
    for path in tmp_path.glob("*.csv"):
        assert np.isfinite(_data_rows(path)[1]).all(), path.name


def test_detect_switch_before_the_first_detector_time(tmp_path, capsys):
    """No detector time falls in [t_s/2, t_s] for a switch at 1e-300; the
    pre-switch maximum over that empty window reads 0."""
    assert main(["detect", "--eta", "0.2", "--phi", "2pi", "--t-max", "2",
                 "--n-points", "21", "--steps-per-delay", "20",
                 "--switch-at", "1e-300", "--phi-after", "2.5pi",
                 "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert float(_line_value(out, "pre_switch_max_intensity = ")) == 0.0


class _Axes:
    """Records the curves handed to ``plot``; every other call is a no-op."""

    def __init__(self):
        self.curves = []

    def plot(self, x, y, **kwargs):
        self.curves.append((np.asarray(x), np.asarray(y)))

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


@pytest.mark.parametrize("engine, csv", [("dde", "trajectory.csv"),
                                         ("analytic", "trajectory_analytic.csv")])
def test_simulate_svg_plots_the_written_population(tmp_path, monkeypatch,
                                                   engine, csv):
    """A stand-in matplotlib records what ``--svg`` draws: the times and
    the excited population of the CSV the run wrote, for either engine."""
    ax = _Axes()
    fig = types.SimpleNamespace(
        savefig=lambda path, **kwargs: Path(path).write_text("<svg/>"))
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda *args, **kwargs: (fig, ax)
    pyplot.close = lambda figure: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    assert main(["simulate", "--engine", engine, "--eta", "0.2", "--phi",
                 "0.5pi", "--t-max", "2", "--svg",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "trajectory.svg").exists()
    fields, rows = _data_rows(tmp_path / csv)
    rows = np.array(rows)
    (t, population), = ax.curves
    assert t.tolist() == rows[:, fields.index("t")].tolist()
    np.testing.assert_allclose(
        population, rows[:, fields.index("pop_a")]
        + rows[:, fields.index("pop_b")], rtol=1e-15, atol=0)


SVG_COMMANDS = (
    ["simulate", "--engine", "dde", "--t-max", "2", "--svg"],
    ["simulate", "--engine", "analytic", "--t-max", "2", "--svg"],
    ["fdd", "--t-max", "2", "--nx", "41", "--nt", "11", "--svg"],
)


@pytest.mark.parametrize("argv", SVG_COMMANDS, ids=" ".join)
def test_svg_paths_with_matplotlib(tmp_path, argv):
    pytest.importorskip("matplotlib")
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    (svg,) = tmp_path.glob("*.svg")
    assert "<svg" in svg.read_text()


@pytest.mark.parametrize("argv, rc", [
    (["simulate", "--topology", "braided", "--eta", "20", "--phi", "0.5pi",
      "--state", "antisymmetric", "--engine", "both", "--t-max", "2000",
      "--steps-per-delay", "1000"], EXIT_NUMERICAL),
    (["fdd", "--v-g", "1e-300"], EXIT_USAGE),
    (["fdd", "--t-max", "2", "--nx", "41", "--nt", "11", "--svg"], EXIT_USAGE),
], ids=["simulate-series-refused", "fdd-tiny-v-g", "fdd-svg-no-matplotlib"])
def test_failed_run_writes_nothing(tmp_path, monkeypatch, argv, rc):
    """A run that exits 2 or 3 leaves no --out directory: the integrator's
    trajectory of a refused series, the map of a failed fdd and the CSV of
    an fdd whose --svg cannot be drawn are not written."""
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == rc
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_unusable_out_exits_2_before_computing(tmp_path, capsys, monkeypatch,
                                               below):
    """An --out that is an existing file, or lies under one, is refused
    before the command runs, and the file is left as it was."""
    def never(args, params):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_bic", never)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    assert main(["bic", "--out", str(blocker / below)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--out" in captured.err and captured.out == ""
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "old-out"])
def test_failed_write_leaves_nothing(tmp_path, capsys, monkeypatch, existing):
    """A writer that writes and then fails (a full disk) makes the run exit
    2 naming --out: an --out that did not exist is still absent, one that
    did keeps only its old file, and no staging directory is left."""
    from giantqed.bic import FieldProfile

    def full_disk(self, path):
        Path(path).write_text("partial\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(FieldProfile, "to_csv", full_disk)
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "old.txt").write_text("keep\n")
    assert main(["bic", "--topology", "braided", "--eta", "0.2", "--phi",
                 "2pi", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--out" in captured.err and "No space left" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])
    if existing:
        assert [p.name for p in out.iterdir()] == ["old.txt"]
        assert (out / "old.txt").read_text() == "keep\n"


def test_directory_at_a_target_name_leaves_nothing(tmp_path, capsys):
    """A directory in --out where the run's manifest goes makes the run
    exit 2 naming --out before any file is renamed: --out keeps only that
    directory, and no staging directory is left."""
    out = tmp_path / "out"
    (out / "bic_manifest.txt").mkdir(parents=True)
    assert main(["bic", "--topology", "braided", "--eta", "0.2", "--phi",
                 "2pi", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--out" in captured.err and "bic_manifest.txt" in captured.err
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == ["bic_manifest.txt"]
    assert not any((out / "bic_manifest.txt").iterdir())


def test_small_accepted_v_g_runs(tmp_path):
    """Just inside the v_g range checks: the fdd map's largest value
    gamma*pi*(4N)^2/v_g^2 and the record's 16 N^2 gamma/v_g stay finite."""
    assert main(["fdd", "--v-g", "1e-150", "--t-max", "1", "--nx", "11",
                 "--nt", "5", "--out", str(tmp_path / "fdd")]) == EXIT_OK
    assert main(["detect", "--v-g", "1e-300", "--t-max", "2", "--n-points",
                 "11", "--out", str(tmp_path / "detect")]) == EXIT_OK


#: Small runs of each command and the numeric flags the fuzz varies in
#: each; "--scan" varies one of start, stop and step.
FUZZ_RUNS = {
    "simulate": (["simulate", "--topology", "braided", "--eta", "0.2",
                  "--phi", "0.5pi", "--state", "antisymmetric", "--engine",
                  "both", "--t-max", "1", "--steps-per-delay", "20"],
                 ("--gamma", "--v-g", "--eta", "--phi", "--t-max",
                  "--steps-per-delay")),
    "simulate-physical": (["simulate", "--omega0", "31.4", "--dx", "0.2",
                           "--t-max", "1", "--steps-per-delay", "20"],
                          ("--omega0", "--dx", "--v-g")),
    "decay-rates": (["decay-rates", "--topology", "braided",
                     "--scan", "0.5:1.5:0.25"],
                    ("--gamma", "--v-g", "--omega0", "--scan")),
    "fdd": (["fdd", "--eta", "0.2", "--phi", "2pi", "--state",
             "antisymmetric", "--t-max", "1", "--nx", "11", "--nt", "5"],
            ("--gamma", "--v-g", "--eta", "--phi", "--t-max", "--nx", "--nt",
             "--x-span")),
    "bic": (["bic", "--topology", "braided", "--eta", "0.2", "--phi", "2pi"],
            ("--gamma", "--v-g", "--eta", "--phi")),
    "detect": (["detect", "--eta", "0.2", "--phi", "2pi", "--state",
                "antisymmetric", "--t-max", "2", "--n-points", "21",
                "--steps-per-delay", "20", "--switch-at", "1",
                "--phi-after", "2.5pi"],
               ("--gamma", "--v-g", "--eta", "--phi", "--x0", "--t-max",
                "--switch-at", "--phi-after", "--n-points",
                "--steps-per-delay")),
}

#: nan, inf, negative, zero, tiny, huge and garbage.  Each huge value
#: either trips a check before anything is allocated (run lengths, counts,
#: eta, the scan range, a scan step longer than the range) or leaves the
#: work unchanged (gamma, v_g, phases, x0, x-span).
FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "5e-324", "1e300",
               "1" + "0" * 400, "abc", "", "1e")


@st.composite
def _fuzzed_argv(draw):
    argv, flags = FUZZ_RUNS[draw(st.sampled_from(sorted(FUZZ_RUNS)))]
    argv = list(argv)
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1,
                              max_size=2, unique=True)):
        value = draw(st.sampled_from(FUZZ_VALUES))
        if flag == "--scan":
            parts = argv[argv.index(flag) + 1].split(":")
            parts[draw(st.integers(0, 2))] = value
            value = ":".join(parts)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_fuzzed_argv())
def test_fuzzed_flags_exit_cleanly(argv):
    """Every run exits 0, 2 or 3 without a traceback, every CSV an exit-0
    run writes is finite, and any other run writes nothing."""
    with tempfile.TemporaryDirectory() as out:
        try:
            rc = main(argv + ["--out", out])
        except SystemExit as exc:               # argparse's usage errors
            rc = exc.code
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL)
        if rc == EXIT_OK:
            for path in Path(out).glob("*.csv"):
                assert np.isfinite(_data_rows(path)[1]).all(), path.name
        else:
            assert not os.listdir(out)


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("giantqed ")


README_COMMANDS = (
    ["simulate", "--topology", "braided", "--eta", "0.15", "--phi", "0.5pi",
     "--state", "antisymmetric", "--engine", "both", "--t-max", "8"],
    ["decay-rates", "--topology", "braided", "--omega0", "50",
     "--scan", "0.005:3.0:0.005"],
    ["fdd", "--topology", "separate", "--eta", "0.2", "--phi", "2pi",
     "--state", "antisymmetric", "--t-max", "8"],
    ["bic", "--topology", "braided", "--eta", "0.2", "--phi", "2pi"],
    ["detect", "--topology", "separate", "--eta", "0.2", "--phi", "2pi",
     "--state", "antisymmetric", "--t-max", "85", "--switch-at", "20",
     "--phi-after", "2.5pi"],
)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_readme_csv_rows_are_numeric(tmp_path, argv):
    """Every data row of every CSV a README command writes parses as
    floats, one per header field."""
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        fields, rows = _data_rows(path)
        assert rows, path.name
        for row in rows:
            assert len(row) == len(fields), (path.name, row)
