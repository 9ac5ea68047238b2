"""Batch runner end-to-end: schemas, exit codes, artifacts, determinism."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgk import PhasePoint, RashbaScenario, ZeemanScenario, cli, curvature_m_space
from sgk.cli import fmt_float, main

from helpers import point_kernel


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(tmp_path, capsys, command, config, out="out", extra=()):
    cfg = write_config(tmp_path, config, name=f"{out}.json")
    out_dir = tmp_path / out
    code = main([command, "--config", cfg, "--out", str(out_dir), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out_dir


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


TRAJ_HEADER = ["t", "p1", "p2", "p3", "r1", "r2", "r3", "band", "energy",
               "epsilon", "berry_phase", "dynamic_phase"]


# -- emission -----------------------------------------------------------------


def test_fmt_float_round_trip_and_zero_fold():
    assert fmt_float(-0.0) == "0"
    assert fmt_float(0.0) == "0"
    assert fmt_float(float("nan")) == "nan"
    for x in (1.0 / 3.0, -2.5e300, 7e-17, np.pi, -1.0):
        assert float(fmt_float(x)) == x


# -- schema handling ----------------------------------------------------------


def test_every_violation_is_listed(tmp_path, capsys):
    config = {
        "scenario": {"kind": "hall"},
        "initial": {"p": [0.0, 0.0, 0.0]},
        "integrator": {"step": -1.0},
        "extra": 1,
    }
    code, out, err, _ = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 2
    for needle in ("config.scenario.kind", "config.initial.r",
                   "config.integrator.step", "config.extra"):
        assert needle in err, needle
    # stderr also carries one structured record
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "SchemaError"


def test_unknown_scenario_name(tmp_path, capsys):
    config = {"scenario": {"kind": "skyrmion"},
              "initial": {"p": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0]}}
    code, _, err, _ = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 2
    assert "config.scenario.kind" in err


def test_negative_step(tmp_path, capsys):
    config = {"scenario": {"kind": "rashba"},
              "initial": {"p": [0.1, 0.0], "r": [0.0, 0.0]},
              "integrator": {"step": -0.001}}
    code, _, err, _ = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 2
    assert "config.integrator.step" in err
    assert "must be positive" in err


def test_scenario_specific_keys_are_rejected(tmp_path, capsys):
    # rashba builds its own EM fields
    config = {"scenario": {"kind": "rashba"},
              "initial": {"p": [0.1, 0.0], "r": [0.0, 0.0]},
              "em": {"E": [0.0, 0.0, 0.0]}}
    code, _, err, _ = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 2 and "config.em" in err
    # band selects spin states, helicity selects polarization; not mixable
    config = {"scenario": {"kind": "optical", "index": {"kind": "uniform"}},
              "initial": {"p": [0.0, 0.0, 1.0], "r": [0.0, 0.0, 0.0]},
              "band": 1}
    code, _, err, _ = run_cli(tmp_path, capsys, "run-scenario", config, out="o2")
    assert code == 2 and "config.band" in err
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "uniform", "value": [0, 0, 1]}},
              "initial": {"p": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0]},
              "helicity": 1}
    code, _, err, _ = run_cli(tmp_path, capsys, "run-scenario", config, out="o3")
    assert code == 2 and "config.helicity" in err


def test_config_file_errors(tmp_path, capsys):
    code = main(["run-scenario", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run-scenario", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and "not valid JSON" in err


def test_flag_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, {}, name="empty.json")
    code = main(["verify", "--config", cfg, "--threads", "0"])
    err = capsys.readouterr().err
    assert code == 2 and "--threads" in err
    code = main(["verify", "--config", cfg, "--seed", "-4"])
    err = capsys.readouterr().err
    assert code == 2 and "--seed" in err


# -- run-scenario -------------------------------------------------------------


def test_minimal_run_scenario_fills_defaults(tmp_path, capsys):
    # only scenario and initial are given; band, integrator and em defaults
    # must fill in (band 1, rk4, step 1e-3, t_end 1.0, no external fields)
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "uniform", "value": [0, 0, 1]}},
              "initial": {"p": [0.1, 0.0, 0.0], "r": [0.0, 0.0, 0.0]}}
    code, out, _, out_dir = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 0
    summary = json.loads(out.strip())
    assert summary["format"] == "sgk.run.v1"
    assert summary["status"] == "completed"
    assert summary["steps"] == 1000
    # uniform field: no force, energy p^2/2 + chi |B|, epsilon identically 0
    assert summary["final_energy"] == pytest.approx(1.005, abs=1e-12)
    assert summary["final_epsilon"] == 0.0
    fmt, header, rows = read_csv(out_dir / "trajectory.csv")
    assert fmt == "# format=sgk.trajectory.v1"
    assert header == TRAJ_HEADER
    assert len(rows) == 1001
    first, last = rows[0], rows[-1]
    assert float(first[0]) == 0.0
    assert float(last[0]) == pytest.approx(1.0, abs=1e-12)
    assert last[7] == "1"
    # free drift along x; the constant frame accumulates no geometric phase
    assert float(last[4]) == pytest.approx(0.1, abs=1e-12)
    assert float(last[10]) == pytest.approx(0.0, abs=1e-9)
    assert float(last[11]) == pytest.approx(-0.995, abs=1e-9)


@pytest.mark.parametrize("bz, spin_force", [(1e103, True), (1e154, False)])
def test_huge_uniform_field_runs_force_free(tmp_path, capsys, bz, spin_force):
    # |H1|^3 overflows a float past 5.6e102 and the gap^2 past 6.7e153; a
    # uniform field still has F = 0, so p stays put and r drifts at p
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "uniform", "value": [0, 0, bz]}},
              "initial": {"p": [0.1, 0.0, 0.0], "r": [0.0, 0.0, 0.0]}, "band": 0,
              "integrator": {"step": 0.01, "t_end": 0.1, "spin_force": spin_force}}
    code, out, _, out_dir = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 0
    summary = json.loads(out.strip())
    assert summary["status"] == "completed" and summary["final_epsilon"] == 0.0
    _, _, rows = read_csv(out_dir / "trajectory.csv")
    assert len(rows) == 11
    for row in rows:
        assert [float(x) for x in row[1:4]] == [0.1, 0.0, 0.0]
        assert float(row[4]) == pytest.approx(0.1 * float(row[0]), abs=1e-15)
    m = PhasePoint((0.1, 0.0, 0.0), np.zeros(3), 0.0)
    F = point_kernel(ZeemanScenario(b_field=(0.0, 0.0, bz)).model(), 0, m).F
    assert np.array_equal(F, np.zeros((7, 7)))


def test_homogeneous_index_ray_is_straight(tmp_path, capsys):
    config = {"scenario": {"kind": "optical",
                           "index": {"kind": "uniform", "n0": 1.2},
                           "k0": 80.0},
              "initial": {"p": [0.0, 0.0, 1.2], "r": [0.0, 0.0, 0.0]},
              "helicity": 1,
              "integrator": {"step": 0.01, "t_end": 0.5}}
    code, out, _, out_dir = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 0
    summary = json.loads(out.strip())
    assert summary["status"] == "completed"
    assert summary["steps"] == 50
    assert summary["constraint_drift"] == 0.0
    fmt, header, rows = read_csv(out_dir / "trajectory.csv")
    assert fmt == "# format=sgk.trajectory.v1"
    assert header == TRAJ_HEADER
    assert len(rows) == 51
    for row in rows:
        assert [row[1], row[2], row[3]] == ["0", "0", "1.2"]  # p constant
        assert row[4] == "0" and row[5] == "0"                # no bending
        assert row[8] == "0"                                  # on shell
    assert float(rows[-1][6]) == pytest.approx(0.6, abs=1e-12)


def test_degenerate_start_exits_3(tmp_path, capsys):
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "uniform", "value": [0, 0, 0]}},
              "initial": {"p": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0]}}
    code, _, err, _ = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 3
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "DegeneracyError"
    assert "integration step 0" in rec["message"]


def test_breach_exits_4(tmp_path, capsys):
    # the ramp rate at t = 0 puts epsilon = 1.25 above the default bound
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "linear", "f0": [0, 0, 1],
                                       "gt": [0, 0, 5]}},
              "initial": {"p": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0]},
              "integrator": {"t_end": 0.5}}
    code, out, err, out_dir = run_cli(tmp_path, capsys, "run-scenario", config)
    assert code == 4
    summary = json.loads(out.strip())
    assert summary["status"] == "adiabaticity_breach"
    assert summary["steps"] == 0
    assert summary["final_epsilon"] == pytest.approx(1.25, abs=1e-9)
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "AdiabaticityBreach"
    _, _, rows = read_csv(out_dir / "trajectory.csv")
    assert len(rows) == 1


OPTICAL_RUN = {"scenario": {"kind": "optical", "k0": 50.0,
                            "index": {"kind": "linear", "n0": 1.2, "alpha": 0.1}},
               "initial": {"p": [1.2, 0.0, 0.0], "r": [0.0, 0.0, 0.0]},
               "integrator": {"step": 0.001, "t_end": 1.0, "max_steps": 10}}


def test_optical_run_reports_max_steps(tmp_path, capsys):
    # the budget stops the ray at s = 0.01, far short of t_end; like a model
    # run, the status says so and the exit code stays 0
    code, out, _, out_dir = run_cli(tmp_path, capsys, "run-scenario", OPTICAL_RUN)
    assert code == 0
    summary = json.loads(out.strip())
    assert summary["status"] == "max_steps" and summary["steps"] == 10
    _, _, rows = read_csv(out_dir / "trajectory.csv")
    assert len(rows) == 11 and float(rows[-1][0]) == pytest.approx(0.01, abs=1e-15)
    config = copy.deepcopy(OPTICAL_RUN)
    config["integrator"]["max_steps"] = 1000
    code, out, _, _ = run_cli(tmp_path, capsys, "run-scenario", config, out="full")
    summary = json.loads(out.strip())
    assert code == 0 and summary["status"] == "completed" and summary["steps"] == 1000


# -- chern-charge -------------------------------------------------------------


def test_chern_charge_monopole(tmp_path, capsys):
    config = {"source": {"kind": "monopole", "S": 0.5},
              "radius": 1.0, "nodes": [16, 32]}
    code, out, _, out_dir = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["format"] == "sgk.chern.v1"
    assert rec["charge"] == pytest.approx(-1.0, abs=1e-9)
    saved = (out_dir / "chern.jsonl").read_text()
    assert saved == out
    # identical configs produce byte-identical artifacts
    code2, out2, _, out_dir2 = run_cli(tmp_path, capsys, "chern-charge",
                                       config, out="rerun")
    assert code2 == 0
    assert (out_dir2 / "chern.jsonl").read_bytes() == \
        (out_dir / "chern.jsonl").read_bytes()


def test_chern_charge_monopole_past_the_cube_overflow(tmp_path, capsys):
    # |H1|^3 overflows on a sphere of radius 1e103; the flux over 2 pi is
    # still -2S
    config = {"source": {"kind": "monopole", "S": 0.5}, "radius": 1e103}
    code, out, _, _ = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 0
    assert json.loads(out)["charge"] == pytest.approx(-1.0, abs=1e-9)


def test_chern_charge_zeeman_source(tmp_path, capsys):
    config = {"source": {"kind": "zeeman", "chi": 0.9, "band": 1},
              "radius": 1.0, "nodes": [8, 16]}
    code, out, _, _ = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["source"] == "zeeman"
    assert rec["charge"] == pytest.approx(-1.0, abs=1e-12)


def test_chern_charge_zeeman_off_centre(tmp_path, capsys):
    # both spheres enclose the source; the link-variable charge is an
    # integer to roundoff, so the two-sphere check cannot misfire
    config = {"source": {"kind": "zeeman", "chi": 1.0, "band": 0},
              "center": [0.5, 0.0, 0.0], "radius": 1.0, "nodes": [8, 16]}
    code, out, _, _ = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 0
    assert json.loads(out.strip())["charge"] == pytest.approx(1.0, abs=1e-12)


def test_chern_charge_source_near_the_mesh_exits_3(tmp_path, capsys):
    # the source 0.01 inside the sphere, near the centre of an equatorial face
    th, ph = 7.0 * np.pi / 16.0, np.pi / 16.0
    center = -0.99 * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                               np.cos(th)])
    config = {"source": {"kind": "zeeman", "chi": 1.0, "band": 0},
              "center": center.tolist(), "radius": 1.0, "nodes": [8, 16]}
    code, out, err, _ = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 3 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "QuadratureError"
    assert rec["message"].startswith("largest face flux 2.740 rad")


def test_chern_charge_bad_spin(tmp_path, capsys):
    config = {"source": {"kind": "monopole", "S": 0.3}}
    code, _, err, _ = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 2
    assert "half-integer" in err


# -- curvature-map ------------------------------------------------------------


def test_curvature_map_matches_closed_form(tmp_path, capsys):
    scn = RashbaScenario(b_z=1.3, chi=0.9, rho=0.8)
    config = {"scenario": {"kind": "rashba", "b_z": 1.3, "chi": 0.9,
                           "rho": 0.8},
              "grid": {"axis_a": "p1", "axis_b": "p2",
                       "a": [-0.2, 0.2, 3], "b": [-0.2, 0.2, 3]},
              "method": "split"}
    code, out, _, out_dir = run_cli(tmp_path, capsys, "curvature-map", config)
    assert code == 0
    assert json.loads(out.strip())["points"] == 9
    fmt, header, rows = read_csv(out_dir / "curvature_map.csv")
    assert fmt == "# format=sgk.curvature_map.v1"
    assert header[:2] == ["p1", "p2"]
    assert len(header) == 2 + 2 * 10 and len(rows) == 9
    cpp = header.index("F0_p1_p2")
    model = scn.model()
    for row in rows:
        p = np.array([float(row[0]), float(row[1])])
        want = curvature_m_space(model, PhasePoint(p, np.zeros(2), 0.0))
        assert float(row[cpp]) == pytest.approx(want.F[0, 0, 1], rel=1e-12)
        base = scn.chi * scn.rho**2 * scn.b_z / scn.coupling_norm(p) ** 3
        assert float(row[cpp]) == pytest.approx(0.5 * base, rel=1e-9)
        # the coupling has no position or time dependence
        assert row[header.index("F0_r1_r2")] == "0"
        assert row[header.index("F1_p1_t")] == "0"


def test_curvature_map_validation(tmp_path, capsys):
    config = {"scenario": {"kind": "optical", "index": {"kind": "uniform"}},
              "grid": {"axis_a": "p1", "axis_b": "p2",
                       "a": [0, 1, 2], "b": [0, 1, 2]}}
    code, _, err, _ = run_cli(tmp_path, capsys, "curvature-map", config)
    assert code == 2 and "two-band scenario" in err
    config = {"scenario": {"kind": "rashba"},
              "grid": {"axis_a": "p1", "axis_b": "p1",
                       "a": [0, 1, 2], "b": [0, 1, 2]}}
    code, _, err, _ = run_cli(tmp_path, capsys, "curvature-map", config,
                              out="o2")
    assert code == 2 and "must differ from axis_a" in err


# -- ensemble -----------------------------------------------------------------


ENSEMBLE_CONFIG = {
    "scenario": {"kind": "rashba", "b_z": 2.0, "e_inplane": [0.005, 0.0],
                 "hbar": 1e-4},
    "ensemble": {"count": 4, "p_center": [0.1, 0.0], "r_center": [0.0, 0.0],
                 "p_spread": [0.02, 0.0]},
    "integrator": {"step": 1e-3, "t_end": 0.02, "record_connection": False},
    "fractions": [0.5, 0.5],
    "seed": 17,
}


def test_ensemble_byte_identical_across_threads(tmp_path, capsys):
    blobs = {}
    outputs = {}
    for threads in (1, 2, 4):
        code, out, _, out_dir = run_cli(tmp_path, capsys, "ensemble",
                                        ENSEMBLE_CONFIG, out=f"t{threads}",
                                        extra=("--threads", str(threads)))
        assert code == 0
        blobs[threads] = (out_dir / "ensemble.jsonl").read_bytes()
        outputs[threads] = out
    code, out, _, out_dir = run_cli(tmp_path, capsys, "ensemble",
                                    ENSEMBLE_CONFIG, out="rerun",
                                    extra=("--threads", "2"))
    assert code == 0
    blobs["rerun"] = (out_dir / "ensemble.jsonl").read_bytes()
    outputs["rerun"] = out
    assert len(set(blobs.values())) == 1
    assert len(set(outputs.values())) == 1
    rec = json.loads(outputs[1])
    assert rec["format"] == "sgk.ensemble.v1"
    assert rec["seed"] == 17
    assert rec["count"] == 4
    assert rec["failures"] == 0
    assert rec["spin_current"] != 0.0
    # equal fractions average away the band-odd part, leaving the common
    # Lorentz response that both bands share
    assert rec["polarization_current"] == pytest.approx(
        0.5 * (rec["band_vel"][0] + rec["band_vel"][1]), rel=1e-12)
    assert rec["spin_current"] == pytest.approx(
        0.5 * (rec["band_vel"][0] - rec["band_vel"][1]), rel=1e-12)


def test_ensemble_seed_flag_overrides_config(tmp_path, capsys):
    code, out, _, _ = run_cli(tmp_path, capsys, "ensemble", ENSEMBLE_CONFIG,
                              extra=("--seed", "5"))
    assert code == 0
    rec = json.loads(out)
    assert rec["seed"] == 5
    code, out17, _, _ = run_cli(tmp_path, capsys, "ensemble", ENSEMBLE_CONFIG,
                                out="cfgseed")
    assert code == 0
    assert json.loads(out17)["seed"] == 17
    assert out != out17


def test_ensemble_axis_required_outside_rashba(tmp_path, capsys):
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "uniform", "value": [0, 0, 1]}},
              "ensemble": {"count": 2, "p_center": [0.1, 0.0, 0.0],
                           "r_center": [0.0, 0.0, 0.0]}}
    code, _, err, _ = run_cli(tmp_path, capsys, "ensemble", config)
    assert code == 2
    assert "config.transverse_axis" in err


def test_ensemble_axis_with_an_overflowing_norm(tmp_path, capsys):
    # |(0, 1e200, 1e200)| overflows; the axis still points along (0, 1, 1)
    outs = []
    for axis in ([0.0, 1e200, 1e200], [0.0, 1.0, 1.0]):
        code, out, _, _ = run_cli(tmp_path, capsys, "ensemble",
                                  {**ENSEMBLE_CONFIG, "transverse_axis": axis}, out=str(axis[1]))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["band_disp"][0] != 0.0


def test_optical_ensemble_honours_max_steps(tmp_path, capsys):
    # every ray stops at s = 0.01 of t_end 1.0, so every ray fails
    config = {"scenario": OPTICAL_RUN["scenario"],
              "ensemble": {"count": 2, "p_center": [1.0, 0.0, 0.0],
                           "r_center": [0.0, 0.0, 0.0],
                           "p_spread": [0.0, 0.1, 0.0]},
              "integrator": OPTICAL_RUN["integrator"],
              "transverse_axis": [0.0, 1.0, 0.0]}
    code, out, err, _ = run_cli(tmp_path, capsys, "ensemble", config)
    assert code == 3 and out == ""
    rec = json.loads(err.splitlines()[-1])
    assert rec["error"] == "EnsembleError"
    assert rec["message"].startswith("4/4 trajectories failed")
    assert "ray ended with status 'max_steps'" in rec["message"]
    config["integrator"] = {**config["integrator"], "max_steps": 1000}
    code, out, _, _ = run_cli(tmp_path, capsys, "ensemble", config, out="full")
    assert code == 0 and json.loads(out)["failures"] == 0


@pytest.mark.parametrize("command, config, needle", [
    ("run-scenario",
     {"scenario": {"kind": "zeeman",
                   "b_field": {"kind": "uniform", "value": [0, 0, 1]}},
      "initial": {"p": [0.1, 0.0, 0.0], "r": [0.0, 0.0, 0.0], "t": 2.0},
      "integrator": {"t_end": 1.0}},
     "config.initial.t"),
    ("run-scenario",
     {"scenario": {"kind": "optical", "index": {"kind": "uniform"}},
      "initial": {"p": [0.0, 0.0, 1.0], "r": [0.0, 0.0, 0.0]},
      "integrator": {"t_end": 0.0}},
     "config.integrator.t_end"),
    ("ensemble",
     {**ENSEMBLE_CONFIG,
      "ensemble": {**ENSEMBLE_CONFIG["ensemble"], "t0": 0.02}},
     "t0 must be less than"),
    ("ensemble",
     {**ENSEMBLE_CONFIG,
      "ensemble": {**ENSEMBLE_CONFIG["ensemble"], "count": 5,
                   "p_spread": [0.02, 0.02], "sampler": "grid"}},
     "perfect power"),
], ids=["run-t0-past-t_end", "optical-t_end-zero", "ensemble-t0-past-t_end",
        "ensemble-grid-count"])
def test_time_and_grid_config_mistakes_exit_2(tmp_path, capsys, command,
                                              config, needle):
    code, _, err, _ = run_cli(tmp_path, capsys, command, config)
    assert code == 2
    assert needle in err
    assert json.loads(err.splitlines()[-1])["error"] == "SchemaError"


# -- verify -------------------------------------------------------------------


def test_verify_battery(tmp_path, capsys):
    code, out, _, out_dir = run_cli(tmp_path, capsys, "verify", {})
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 8
    for line in lines:
        rec = json.loads(line)
        assert rec["format"] == "sgk.verify.v1"
        assert rec["passed"] is True
    assert (out_dir / "verify.jsonl").read_text() == out


def test_verify_rejects_unknown_keys(tmp_path, capsys):
    code, _, err, _ = run_cli(tmp_path, capsys, "verify", {"fast": True})
    assert code == 2
    assert "config.fast" in err


# -- key tables ---------------------------------------------------------------


BIG = 10 ** 400  # an integer literal beyond double range


@pytest.mark.parametrize("command, config, needle", [
    ("run-scenario",
     {"scenario": {"kind": "rashba"}, "initial": {"p": [0.1, 0.0], "r": [0, 0]},
      "integrator": {"step": BIG}},
     "config.integrator.step: must be finite"),
    ("run-scenario",
     {"scenario": {"kind": "rashba"}, "initial": {"p": [BIG, 0.0], "r": [0, 0]}},
     "config.initial.p: must be finite"),
    ("run-scenario",
     {"scenario": {"kind": "zeeman",
                   "b_field": {"kind": "linear", "f0": [0, 0, 1],
                               "G": [[0, 0, 0], [0, -BIG, 0], [0, 0, 0]]}},
      "initial": {"p": [0, 0, 0], "r": [0, 0, 0]}},
     "config.scenario.b_field.G: must be finite"),
    ("chern-charge", {"source": {"kind": "monopole", "S": 1}, "nodes": [BIG, 8]},
     "config.nodes[0]: must be finite"),
    ("ensemble", {**ENSEMBLE_CONFIG, "seed": BIG}, "config.seed: must be finite"),
], ids=["scalar", "vector", "matrix", "integer-in-list", "integer"])
def test_number_beyond_double_range_exits_2(tmp_path, capsys, command, config,
                                            needle):
    code, _, err, _ = run_cli(tmp_path, capsys, command, config)
    assert code == 2
    assert needle in err
    assert json.loads(err.splitlines()[-1])["error"] == "SchemaError"


MAP_CONFIG = {"scenario": {"kind": "rashba"},
              "grid": {"axis_a": "p1", "axis_b": "p2",
                       "a": [0, 1, 2], "b": [0, 1, 2]}}


def with_key(config, section, key, value):
    return {**config, section: {**config[section], key: value}}


@pytest.mark.parametrize("command, config, needle", [
    ("ensemble", with_key(ENSEMBLE_CONFIG, "ensemble", "count", 2**64),
     "config.ensemble.count: must be at most 1048576"),
    ("chern-charge", {"source": {"kind": "monopole", "S": 1}, "nodes": [2**64, 8]},
     "config.nodes[0]: must be at most 1024"),
    ("curvature-map", with_key(MAP_CONFIG, "grid", "a", [0, 1, 2**64]),
     "config.grid.a[2]: must be at most 1024"),
    # one past each cap; the stray key makes these configs invalid in any
    # case, so a check that lets the size through cannot start a huge run
    ("ensemble", {**with_key(ENSEMBLE_CONFIG, "ensemble", "count", 2**20 + 1),
                  "stray": 1},
     "config.ensemble.count: must be at most 1048576"),
    ("chern-charge", {"source": {"kind": "monopole", "S": 1},
                      "nodes": [8, 2**10 + 1], "stray": 1},
     "config.nodes[1]: must be at most 1024"),
    ("curvature-map", {**with_key(MAP_CONFIG, "grid", "b", [0, 1, 2**10 + 1]),
                       "stray": 1},
     "config.grid.b[2]: must be at most 1024"),
], ids=["count", "nodes", "grid", "count-cap", "nodes-cap", "grid-cap"])
def test_integer_sizes_are_capped(tmp_path, capsys, command, config, needle):
    code, _, err, _ = run_cli(tmp_path, capsys, command, config)
    assert code == 2
    assert needle in err
    assert json.loads(err.splitlines()[-1])["error"] == "SchemaError"


@pytest.mark.parametrize("command, config, needle", [
    ("run-scenario",
     {"scenario": {"kind": "rashba"}, "initial": {"p": [0.1, 0.0], "r": [0, 0]},
      "integrator": {"method": "rkf45"}},
     "config.integrator.tolerance: rkf45 requires a positive tolerance"),
    ("run-scenario",
     {"scenario": {"kind": "optical",
                   "index": {"kind": "linear", "axis": [0, 0, 0]}},
      "initial": {"p": [0.0, 0.0, 1.0], "r": [0, 0, 0]}},
     "config.scenario.index: axis must be nonzero"),
    ("ensemble",
     {**ENSEMBLE_CONFIG,
      "scenario": {**ENSEMBLE_CONFIG["scenario"], "e_inplane": [0, 0]}},
     "config.transverse_axis: missing required key"),
], ids=["rkf45-without-tolerance", "zero-index-axis", "rashba-without-field"])
def test_constructor_rejections_exit_2(tmp_path, capsys, command, config,
                                       needle):
    # each of these used to escape as a bare ValueError and exit 5
    code, _, err, _ = run_cli(tmp_path, capsys, command, config)
    assert code == 2
    assert needle in err
    assert json.loads(err.splitlines()[-1])["error"] == "SchemaError"


# Each kind's own keys, written out independently of the CLI's tables: a key
# that only a sibling kind takes must be rejected, never silently ignored.
KIND_KEYS = {
    "scenario": {
        "zeeman": {"b_field", "chi", "m_star", "hbar", "d"},
        "spin_orbit": {"e_field", "b_field", "chi", "rho", "m_star", "hbar"},
        "rashba": {"chi", "rho", "m_star", "hbar", "b_z", "e_inplane",
                   "e_charge", "c_light"},
        "optical": {"index", "k0"},
    },
    "field": {
        "uniform": {"value"},
        "linear": {"f0", "G", "gt"},
        "poly": {"f0", "G", "gt", "Q", "C", "qtt"},
        "rotating": {"magnitude", "polar_angle", "omega", "phi0"},
    },
    "index": {"uniform": {"n0"}, "linear": {"n0", "alpha", "axis"}},
    "source": {"monopole": {"S"}, "zeeman": {"chi", "band"}},
}
UNIFORM_B = {"kind": "uniform", "value": [0, 0, 1]}
SHORT_RUN = {"step": 0.1, "t_end": 0.3}
KIND_EXAMPLES = {
    "scenario": {
        "zeeman": {"kind": "zeeman", "b_field": UNIFORM_B},
        "spin_orbit": {"kind": "spin_orbit", "b_field": UNIFORM_B,
                       "e_field": {"kind": "uniform", "value": [0.3, 0, 0]}},
        "rashba": {"kind": "rashba"},
        "optical": {"kind": "optical", "index": {"kind": "uniform"}},
    },
    "field": {
        "uniform": UNIFORM_B,
        "linear": {"kind": "linear", "f0": [0, 0, 1]},
        "poly": {"kind": "poly", "f0": [0, 0, 1]},
        "rotating": {"kind": "rotating", "magnitude": 1, "polar_angle": 0.5,
                     "omega": 0.3},
    },
    "index": {"uniform": {"kind": "uniform"}, "linear": {"kind": "linear"}},
    "source": {"monopole": {"kind": "monopole", "S": 0.5},
               "zeeman": {"kind": "zeeman"}},
}


def _sibling_cases():
    for section, kinds in KIND_KEYS.items():
        for kind, own in kinds.items():
            siblings = set().union(*kinds.values()) - own
            for key in sorted(siblings):
                yield pytest.param(section, kind, key,
                                   id=f"{section}-{kind}-{key}")


def _config_with(section, obj):
    """(command, config, path) that puts obj at the section's place."""
    if section == "source":
        return "chern-charge", {"source": obj, "nodes": [4, 4]}, "config.source"
    if section == "index":
        scenario = {"kind": "optical", "index": obj}
        path = "config.scenario.index"
    elif section == "field":
        scenario = {"kind": "zeeman", "b_field": obj}
        path = "config.scenario.b_field"
    else:
        scenario, path = obj, "config.scenario"
    p = {"rashba": [0.1, 0.0], "optical": [0.0, 0.0, 1.0]}.get(
        scenario["kind"], [0.1, 0.0, 0.0])
    return "run-scenario", {"scenario": scenario, "integrator": SHORT_RUN,
                            "initial": {"p": p, "r": [0.0] * len(p)}}, path


@pytest.mark.parametrize("section, kind, key", list(_sibling_cases()))
def test_sibling_kind_key_is_rejected(tmp_path, capsys, section, kind, key):
    obj = {**KIND_EXAMPLES[section][kind], key: 1.0}
    command, config, path = _config_with(section, obj)
    code, _, err, _ = run_cli(tmp_path, capsys, command, config)
    assert code == 2
    assert f"{path}.{key}: unknown key for {kind} {section}" in err


def test_kind_examples_are_valid(tmp_path, capsys):
    # the sibling test above starts from these; each must run as given
    for section, examples in KIND_EXAMPLES.items():
        for kind, obj in examples.items():
            command, config, _ = _config_with(section, obj)
            code, _, err, _ = run_cli(tmp_path, capsys, command, config,
                                      out=f"{section}-{kind}")
            assert code == 0, (section, kind, err)


# -- config fuzz --------------------------------------------------------------


# Small valid configs; each runs a few steps, points or nodes.
FUZZ_BASES = [
    ("run-scenario", {
        "scenario": {"kind": "zeeman", "chi": 0.9,
                     "b_field": {"kind": "poly", "f0": [0.1, 0.2, 1.0],
                                 "G": [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0]]}},
        "initial": {"p": [0.1, 0.0, 0.0], "r": [0.0, 0.1, 0.0]},
        "integrator": {"step": 0.1, "t_end": 0.3, "max_steps": 5},
        "em": {"E": [0.1, 0.0, 0.0]}, "band": 0}),
    ("run-scenario", {
        "scenario": {"kind": "spin_orbit",
                     "e_field": {"kind": "linear", "f0": [0.3, 0.1, 0.0]},
                     "b_field": {"kind": "rotating", "magnitude": 1.0,
                                 "polar_angle": 0.5, "omega": 0.3}},
        "initial": {"p": [0.1, 0.2, 0.0], "r": [0.0, 0.0, 0.0]},
        "integrator": {"method": "rkf45", "tolerance": 1e-4, "step": 0.1,
                       "t_end": 0.3, "max_steps": 5}}),
    ("run-scenario", {
        "scenario": {"kind": "rashba", "e_inplane": [0.1, 0.0]},
        "initial": {"p": [0.2, 0.1], "r": [0.0, 0.0]},
        "integrator": {"step": 0.1, "t_end": 0.3, "max_steps": 5}}),
    ("run-scenario", {
        "scenario": {"kind": "optical", "k0": 50.0,
                     "index": {"kind": "linear", "alpha": 0.05}},
        "initial": {"p": [0.0, 0.0, 1.0], "r": [0.0, 0.0, 0.0]},
        "helicity": -1,
        "integrator": {"step": 0.1, "t_end": 0.3, "max_steps": 5}}),
    ("curvature-map", {
        "scenario": {"kind": "rashba"},
        "grid": {"axis_a": "p1", "axis_b": "r2", "a": [0.1, 0.2, 2],
                 "b": [0.0, 0.1, 1]},
        "base": {"p": [0.0, 0.1]}, "method": "split"}),
    ("curvature-map", {
        "scenario": {"kind": "zeeman",
                     "b_field": {"kind": "uniform", "value": [0.2, 0.0, 1.0]}},
        "grid": {"axis_a": "p1", "axis_b": "t", "a": [0.1, 0.2, 2],
                 "b": [0.0, 0.1, 1]},
        "richardson": False}),
    ("chern-charge", {"source": {"kind": "monopole", "S": 0.5},
                      "center": [0.1, 0.0, 0.0], "nodes": [4, 4]}),
    ("ensemble", {
        "scenario": {"kind": "rashba", "e_inplane": [0.1, 0.0]},
        "ensemble": {"count": 2, "p_center": [0.2, 0.0],
                     "r_center": [0.0, 0.0], "p_spread": [0.05, 0.0]},
        "integrator": {"step": 0.1, "t_end": 0.3, "max_steps": 5,
                       "record_connection": False},
        "fractions": [0.5, 0.5]}),
    ("ensemble", {
        "scenario": {"kind": "zeeman", "d": 2,
                     "b_field": {"kind": "uniform", "value": [0.0, 0.0, 1.0]}},
        "ensemble": {"count": 4, "p_center": [0.1, 0.0],
                     "r_center": [0.0, 0.0], "r_spread": [0.1, 0.1],
                     "sampler": "grid"},
        "integrator": {"step": 0.1, "t_end": 0.2, "max_steps": 5},
        "transverse_axis": [0.0, 1.0, 0.0], "seed": 3}),
]
TOP_KEYS = {"run-scenario": cli._RUN_KEYS, "curvature-map": cli._MAP_KEYS,
            "chern-charge": cli._CHERN_KEYS, "ensemble": cli._ENSEMBLE_KEYS}
SECTION_KEYS = {"initial": cli._INITIAL_KEYS,
                "integrator": cli._INTEGRATOR_KEYS, "em": cli._EM_KEYS,
                "grid": cli._GRID_KEYS, "base": cli._BASE_KEYS,
                "ensemble": cli._BOX_KEYS}
KINDED = {"scenario": cli._SCENARIOS, "b_field": cli._FIELDS,
          "e_field": cli._FIELDS, "index": cli._INDICES,
          "source": cli._SOURCES}
ALL_KEYS = sorted(
    {"kind", "stray"}
    | {key for table in [*TOP_KEYS.values(), *SECTION_KEYS.values()]
       for key in table}
    | {key for kinds in KINDED.values() for _, table in kinds.values()
       for key in table})
JUNK = ["x", True, None, [], {}, [1.0, 2.0]]
# out of range, non-finite or beyond double range
BAD_NUMBERS = [BIG, -BIG, float("nan"), float("inf"), -1, 0, -0.5]
# the sizes with an upper bound, and a value above every bound
SIZES = {("ensemble", "count"), ("nodes", 0), ("nodes", 1), ("grid", "a", 2),
         ("grid", "b", 2)}
OVERSIZE = 2**64
# values for the keys a kind switch must supply
REQUIRED_EXAMPLES = {
    "b_field": {"kind": "uniform", "value": [0.0, 0.3, 1.0]},
    "e_field": {"kind": "uniform", "value": [0.2, 0.0, 0.0]},
    "index": {"kind": "uniform"}, "value": [0.0, 0.3, 1.0],
    "f0": [0.0, 0.3, 1.0], "magnitude": 1.0, "polar_angle": 0.4,
    "omega": 0.2, "S": -1,
}


def _table(command, path, node):
    """The key table of the section at path (a tuple of keys), if any."""
    if not path:
        return TOP_KEYS[command]
    name = path[-1]
    if name in KINDED:
        kind = node.get("kind")
        hit = KINDED[name].get(kind) if isinstance(kind, str) else None
        return None if hit is None else {"kind": None, **hit[1]}
    return SECTION_KEYS.get(name)


def _sections(node, path=()):
    """Every object in the config with its path."""
    if isinstance(node, dict):
        yield path, node
        for key, val in node.items():
            yield from _sections(val, path + (key,))


def _leaves(node, path=()):
    """Every non-object value and list item with its path."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, path + (key,))
    else:
        yield path, node
        if isinstance(node, list):
            for i, val in enumerate(node):
                yield from _leaves(val, path + (i,))


def _numbers(config):
    return [path for path, val in _leaves(config)
            if isinstance(val, (int, float)) and not isinstance(val, bool)]


def _set(config, path, value):
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def fuzz_configs(draw):
    command, base = draw(st.sampled_from(FUZZ_BASES))
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["number", "junk", "drop", "default",
                                   "kind", "size"]))
        sizes = [path for path in _numbers(config) if path in SIZES]
        if op == "size" and sizes:
            _set(config, draw(st.sampled_from(sizes)), OVERSIZE)
            continue
        if op == "number" and _numbers(config):
            path = draw(st.sampled_from(_numbers(config)))
            _set(config, path, draw(st.sampled_from(BAD_NUMBERS)))
            continue
        if op in ("number", "junk"):
            path, _ = draw(st.sampled_from(list(_leaves(config))))
            _set(config, path, copy.deepcopy(draw(st.sampled_from(JUNK))))
            continue
        path, node = draw(st.sampled_from(list(_sections(config))))
        table = _table(command, path, node)
        # integrator and max_steps stay, so every run takes a few steps
        keep = {"integrator", "max_steps"}
        if op == "drop" and set(node) - keep:
            del node[draw(st.sampled_from(sorted(set(node) - keep)))]
        elif op == "default" and table and set(table) - set(node):
            # a table default is a valid config value for its key
            key = draw(st.sampled_from(sorted(set(table) - set(node))))
            if table[key] is not None and table[key][1] not in (
                    None, cli._REQUIRED):
                node[key] = copy.deepcopy(table[key][1])
        elif op == "kind" and path and path[-1] in KINDED:
            kind = draw(st.sampled_from(sorted(KINDED[path[-1]])))
            keys = KINDED[path[-1]][kind][1]
            new = {"kind": kind}
            for key, (_, default) in keys.items():
                if key in node:
                    new[key] = node[key]
                elif default is cli._REQUIRED:
                    new[key] = copy.deepcopy(REQUIRED_EXAMPLES[key])
            _set(config, path, new)
    stray = None
    if draw(st.booleans()):
        path, node = draw(st.sampled_from(list(_sections(config))))
        table = _table(command, path, node) or {}
        key = draw(st.sampled_from([k for k in ALL_KEYS if k not in table]))
        value = draw(st.sampled_from([1.0, "x", [0.0, 1.0]]))
        node[key] = copy.deepcopy(value)
        stray = ".".join(("config",) + path + (key,))
    oversize = any(path in SIZES and val == OVERSIZE
                   for path, val in _leaves(config))
    return command, config, stray or oversize


@pytest.mark.filterwarnings("ignore::UserWarning")  # marginal physics is fine
@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzz_configs())
def test_fuzzed_configs_exit_with_a_documented_code(case):
    command, config, must_fail = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", tmp])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), lines
    if code:
        record = json.loads(lines[-1])
        assert set(record) == {"error", "message"}
        assert not any(ln.startswith("{") for ln in lines[:-1]), lines
    if must_fail:  # a stray key or a size above its bound
        assert code == 2, (must_fail, lines)
