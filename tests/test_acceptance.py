"""Release gate: the full acceptance battery, one verdict line per criterion.

Run `pytest tests/test_acceptance.py -s` to read the scorecard. Every
expected value is a closed form or an independent numeric route (plaquette
loops, quadrature fluxes, contour integrals); nothing is read back from the
code under test. Where `sgk verify` checks the same identity, the criterion
calls that `sgk.verify` check at its own sizes, reads the check's worst
case and adds only what the battery does not cover.
"""

import itertools
import json

import numpy as np

from sgk import (
    OpticalScenario,
    PhasePoint,
    RashbaScenario,
    SpinOrbitScenario,
    UniformField,
    UniformIndex,
    adiabatic_curvature_numeric,
    curvature_m_space,
    magnus_ray_pair,
    ray_splitting,
    regauge,
    velocity_field,
    wrap_angle,
)
from sgk.cli import main
from sgk.verify import (
    check_adiabaticity,
    check_exact_flatness,
    check_loop_phase,
    check_magnus_splitting,
    check_maxwell_identities,
    check_monopole_charge,
    check_plaquette_vs_split,
    check_rashba_drift,
    check_time_only_field,
    circle,
    hedgehog_connection,
    loop_phase,
    time_only_model,
)

from helpers import curvature_of_abelian_field, pp_pseudovector


def verdict(num, name, ok, detail):
    line = "[criterion {:02d}] {} {}: {}".format(
        num, "PASS" if ok else "FAIL", name, detail)
    print(line)
    assert ok, line


def off(rec, relative=False):
    """A battery record's worst |value - expected|, relative if asked."""
    gap = abs(rec["value"] - rec["expected"])
    return gap / abs(rec["expected"]) if relative else gap


def test_exact_connection_curvature_is_flat():
    axis = np.linspace(-0.3, 0.3, 5)
    worst = off(check_exact_flatness(points=itertools.product(axis, repeat=3),
                                     step=1e-4))
    verdict(1, "exact connection flatness", worst < 1e-6,
            "max curvature norm {:.3e} over 5x5x5 r-grid (tol 1e-6)"
            .format(worst))


def test_plaquette_curvature_matches_split_form():
    worst = off(check_plaquette_vs_split(
        cases=(("zeeman", 23), ("spin-orbit", 24)), points=100))
    verdict(2, "plaquette vs split-form curvature", worst < 1e-5,
            "worst relative deviation {:.3e} over 2x100 gapped points "
            "(tol 1e-5)".format(worst))


def test_monopole_charge_is_quantized():
    # one check per (S, radius) case, so each charge is computed once and
    # serves both the quantization and the radius comparison
    worst_q = worst_radius = 0.0
    for S in (-1.0, -0.5, 0.5, 1.0):
        recs = [check_monopole_charge(spins=(S,), radii=(radius,))
                for radius in (0.5, 1.0)]
        worst_q = max([worst_q] + [off(rec) for rec in recs])
        worst_radius = max(worst_radius, abs(recs[0]["value"] - recs[1]["value"])
                           / abs(2.0 * S))
    ok = worst_q < 1e-6 and worst_radius < 1e-8
    verdict(3, "monopole charge quantization", ok,
            "worst |q + 2S| {:.3e} (tol 1e-6), radius mismatch {:.3e} "
            "(tol 1e-8 rel)".format(worst_q, worst_radius))


def test_loop_phase_equals_solid_angle():
    # off the equator, where the single-point gauge has its branch cut, the
    # connection line integral must give the solid angle
    worst = off(check_loop_phase(thetas=(np.pi / 6.0, np.pi / 3.0),
                                 bands=(0, 1)))
    conn = hedgehog_connection()
    for theta in (np.pi / 6.0, np.pi / 3.0, np.pi / 2.0):
        for band, sign in ((0, 1.0), (1, -1.0)):
            # holonomy route: defined at every angle, including the equator;
            # phases are points on the circle, so compare mod 2 pi
            got = loop_phase(conn, circle(theta), band, holonomy=True)
            want = sign * np.pi * (1.0 - np.cos(theta))
            worst = max(worst, abs(wrap_angle(got - want)))
    verdict(4, "solid-angle loop phase", worst < 1e-6,
            "worst deviation from -+pi(1 - cos theta) {:.3e} over 3 angles "
            "x 2 bands, both loop routes (tol 1e-6)".format(worst))


def test_regauge_is_invisible_to_observables():
    field = hedgehog_connection()
    k1 = np.array([0.7, -0.4, 0.9])
    k2 = np.array([-0.3, 0.8, 0.5])
    phase = lambda v: np.array(
        [0.11 * np.sin(v @ k1) + 0.07 * np.cos(v @ k2),
         0.09 * np.cos(v @ k1) - 0.13 * np.sin(v @ k2)])
    # matching the regauge step to the curvature step makes the mixed second
    # differences of the added gradient reuse identical field evaluations,
    # so the curl of the shift cancels to roundoff instead of FD truncation
    changed = regauge(field, phase, step=1e-4)
    worst_curv = 0.0
    for x in ((0.3, -0.2, 0.9), (-0.5, 0.1, 0.8), (0.4, 0.5, 0.6)):
        f0 = curvature_of_abelian_field(field, np.asarray(x), step=1e-4)
        f1 = curvature_of_abelian_field(changed, np.asarray(x), step=1e-4)
        worst_curv = max(worst_curv, float(np.max(np.abs(f1 - f0))))
    path = circle(np.pi / 3.0)
    worst_loop = 0.0
    for band in (0, 1):
        delta = loop_phase(changed, path, band) - loop_phase(field, path, band)
        worst_loop = max(worst_loop, abs(wrap_angle(delta)))
    ok = worst_curv < 1e-8 and worst_loop < 1e-8
    verdict(5, "regauge invariance", ok,
            "curvature change {:.3e}, loop phase change {:.3e} (tol 1e-8)"
            .format(worst_curv, worst_loop))


def test_null_cases_vanish():
    # purely time-dependent field: every curvature block must vanish
    times = (0.0, 0.4, 1.1)
    worst_a = off(check_time_only_field(r=(0.0, 0.0, 0.2), times=times))
    zmodel = time_only_model()
    for t in times:
        m = PhasePoint((0.1, 0.0, 0.2), (0.0, 0.0, 0.2), t)
        # plaquette holonomy of a flat field is exactly contractible, so the
        # only residue is roundoff ~eps/h^2; step 1e-3 keeps that tiny
        worst_a = max(worst_a, float(np.max(np.abs(
            adiabatic_curvature_numeric(zmodel, m, step=1e-3).F))))
    # constant crossed fields: the momentum block must vanish away from p = 0
    soc = SpinOrbitScenario(e_field=UniformField((0.9, 0.0, 0.0)),
                            b_field=UniformField((0.0, 0.0, 1.2)),
                            chi=0.7, rho=0.3)
    smodel = soc.model()
    worst_b = 0.0
    for p in ((0.3, -0.2, 0.1), (0.0, 0.5, 0.0), (-0.4, 0.1, 0.6)):
        m = PhasePoint(p, (0.0, 0.0, 0.0), 0.0)
        worst_b = max(worst_b, float(np.max(np.abs(
            curvature_m_space(smodel, m).f_pp()))))
        worst_b = max(worst_b,
                      float(np.max(np.abs(pp_pseudovector(soc, m)))))
        worst_b = max(worst_b, float(np.max(np.abs(
            adiabatic_curvature_numeric(smodel, m, step=1e-3).f_pp()))))
    ok = worst_a < 1e-10 and worst_b < 1e-10
    verdict(6, "null-case curvature", ok,
            "time-only max |F| {:.3e}, crossed-field max |F_pp| {:.3e} "
            "(tol 1e-10)".format(worst_a, worst_b))


def test_rashba_drift_pointwise_and_hbar_order():
    scn = RashbaScenario(b_z=2.0, e_inplane=(0.005, 0.0), hbar=1e-4)
    momenta = ((0.05, 0.0), (0.1, 0.0), (0.2, 0.0))
    # one check per (p, band) case: its value is the transverse velocity,
    # so the same evaluations also show the two bands drift opposite ways
    worst_rel, opposed = 0.0, True
    for p in momenta:
        recs = [check_rashba_drift(scn, momenta=(p,), bands=(band,))
                for band in (0, 1)]
        worst_rel = max([worst_rel] + [off(rec, relative=True) for rec in recs])
        opposed = opposed and recs[0]["value"] == -recs[1]["value"]

    def reduced_gap(hbar):
        s = RashbaScenario(hbar=hbar)
        smodel = s.model()
        m = PhasePoint((0.5, 0.0), (0.0, 0.0), 0.0)
        worst = 0.0
        for band in (0, 1):
            full = velocity_field(smodel, band, m, s.em(), warn=False)
            red = velocity_field(smodel, band, m, s.em(), warn=False, mode="reduced")
            worst = max(worst, float(np.max(np.abs(
                np.concatenate(full) - np.concatenate(red)))))
        return worst

    # the reduced substitution drops an O(hbar^2) term, so halving hbar
    # must shrink the full-vs-reduced gap by ~4x
    ratio = reduced_gap(1e-3) / reduced_gap(5e-4)
    ok = worst_rel < 1e-4 and opposed and 3.4 < ratio < 4.6
    verdict(7, "transverse drift", ok,
            "pointwise rel err {:.3e} (tol 1e-4), bands opposed {}, "
            "hbar-halving ratio {:.3f} (want ~4)"
            .format(worst_rel, opposed, ratio))


def test_ray_splitting_matches_contour_oracle():
    rec = check_magnus_splitting()
    rel, drift = off(rec, relative=True), rec["constraint_drift"]
    flat = OpticalScenario(index=UniformIndex(1.2), k0=50.0)
    fplus, fminus = magnus_ray_pair(flat, flat.launch_momentum((1.0, 0.0, 0.0)),
                                    (0.0, 0.0, 0.0), s_end=1.0, step=1e-2)
    flat_split = ray_splitting(fplus, fminus, (0.0, 0.0, 1.0))
    ok = rel < 1e-4 and drift < 1e-6 and flat_split == 0.0
    verdict(8, "optical ray splitting", ok,
            "splitting rel err {:.3e} (tol 1e-4), constraint drift {:.3e} "
            "(tol 1e-6), homogeneous split {:g}"
            .format(rel, drift, flat_split))


def test_monopole_curvature_field_identities():
    rng = np.random.Generator(np.random.Philox(31))
    pts = []
    for radius in (0.5, 0.8, 1.3, 2.0):
        for _ in range(6):
            v = rng.normal(size=3)
            pts.append(radius * v / float(np.linalg.norm(v)))
    worst = off(check_maxwell_identities(points=pts, spins=(0.5, -1.0),
                                         step=1e-4))
    verdict(9, "field identities", worst < 1e-6,
            "worst divergence/cyclic residual {:.3e} on the 0.5..2 coupling "
            "shell (tol 1e-6)".format(worst))


def test_adiabaticity_monitor_and_abort(tmp_path, capsys):
    worst = off(check_adiabaticity(times=(0.0, 0.3, 0.7)))
    # a fast ramp breaches the bound at t = 0 and must abort with code 4
    config = {"scenario": {"kind": "zeeman",
                           "b_field": {"kind": "linear", "f0": [0, 0, 1],
                                       "gt": [0, 0, 5]}},
              "initial": {"p": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0]},
              "integrator": {"t_end": 0.5}}
    cfg = tmp_path / "breach.json"
    cfg.write_text(json.dumps(config))
    code = main(["run-scenario", "--config", str(cfg),
                 "--out", str(tmp_path / "breach")])
    capsys.readouterr()
    ok = worst < 1e-8 and code == 4
    verdict(10, "adiabaticity monitor", ok,
            "worst |epsilon - ramp closed form| {:.3e} (tol 1e-8), "
            "breach exit code {} (want 4)".format(worst, code))


def test_outputs_byte_identical_across_threads(tmp_path, capsys):
    def run(command, config, out, extra=()):
        cfg = tmp_path / (out + ".json")
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / out
        code = main([command, "--config", str(cfg), "--out", str(out_dir),
                     *extra])
        capsys.readouterr()
        return code, out_dir

    ens_cfg = {
        "scenario": {"kind": "rashba", "b_z": 2.0, "e_inplane": [0.005, 0.0],
                     "hbar": 1e-4},
        "ensemble": {"count": 4, "p_center": [0.1, 0.0],
                     "r_center": [0.0, 0.0], "p_spread": [0.02, 0.0]},
        "integrator": {"step": 1e-3, "t_end": 0.02,
                       "record_connection": False},
        "seed": 17,
    }
    codes = []
    blobs = set()
    for tag, threads in (("t1", 1), ("t2", 2), ("t4", 4), ("again", 2)):
        code, out_dir = run("ensemble", ens_cfg, tag,
                            ("--threads", str(threads)))
        codes.append(code)
        path = out_dir / "ensemble.jsonl"
        blobs.add(path.read_bytes() if path.exists() else tag.encode())

    traj_cfg = {"scenario": {"kind": "zeeman",
                             "b_field": {"kind": "uniform",
                                         "value": [0, 0, 1]}},
                "initial": {"p": [0.1, 0.0, 0.0], "r": [0.0, 0.0, 0.0]},
                "integrator": {"step": 1e-3, "t_end": 0.05}}
    csvs = set()
    for tag in ("run-a", "run-b"):
        code, out_dir = run("run-scenario", traj_cfg, tag)
        codes.append(code)
        path = out_dir / "trajectory.csv"
        csvs.add(path.read_bytes() if path.exists() else tag.encode())

    ok = all(c == 0 for c in codes) and len(blobs) == 1 and len(csvs) == 1
    verdict(11, "reproducibility", ok,
            "exit codes {}, {} distinct ensemble blobs over threads 1/2/4 + "
            "rerun, {} distinct trajectory blobs over 2 runs"
            .format(codes, len(blobs), len(csvs)))
