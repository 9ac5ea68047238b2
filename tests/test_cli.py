"""Batch runner end-to-end: schemas, exit codes, artifacts, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from sgk import PhasePoint, RashbaScenario, curvature_m_space
from sgk.cli import fmt_float, main


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


def test_chern_charge_zeeman_source(tmp_path, capsys):
    config = {"source": {"kind": "zeeman", "chi": 0.9, "band": 1},
              "radius": 1.0, "nodes": [8, 16]}
    code, out, _, _ = run_cli(tmp_path, capsys, "chern-charge", config)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["source"] == "zeeman"
    assert rec["charge"] == pytest.approx(-1.0, abs=1e-6)


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
