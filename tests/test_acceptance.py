"""Release gate: the full acceptance battery, one verdict line per criterion.

Run `pytest tests/test_acceptance.py -s` to read the scorecard. Every
expected value is a closed form or an independent numeric route (plaquette
loops, quadrature fluxes, contour integrals); nothing is read back from the
code under test.
"""

import json

import numpy as np

from sgk import (
    AdiabaticConnectionField,
    ExternalEMField,
    LinearField,
    LinearIndex,
    OpticalScenario,
    PhasePoint,
    PolyField,
    RashbaScenario,
    SpinOrbitScenario,
    UniformField,
    UniformIndex,
    ZeemanScenario,
    adiabatic_curvature_numeric,
    adiabaticity_epsilon,
    chern_charge,
    curvature_m_space,
    diagonalize,
    displacement_contour,
    exact_connection_field,
    magnus_ray_pair,
    maxwell_residuals,
    monopole_curvature,
    monopole_field,
    nonabelian_curvature,
    phase_line_integral,
    ray_splitting,
    regauge,
    velocity_field,
    wrap_angle,
)
from sgk.cli import main

from helpers import curvature_of_abelian_field, pp_pseudovector


def verdict(num, name, ok, detail):
    line = "[criterion {:02d}] {} {}: {}".format(
        num, "PASS" if ok else "FAIL", name, detail)
    print(line)
    assert ok, line


def circle(theta, count):
    phis = np.linspace(0.0, 2.0 * np.pi, count)
    return np.stack([np.sin(theta) * np.cos(phis),
                     np.sin(theta) * np.sin(phis),
                     np.full_like(phis, np.cos(theta))], axis=1)


def loop_phase(field, path, band):
    # chord trapezoid has an even error expansion; one Richardson pass over
    # the halved node set lifts it from second to fourth order
    fine = phase_line_integral(field, path, band=band).value
    coarse = phase_line_integral(field, path[::2], band=band).value
    return (4.0 * fine - coarse) / 3.0


def test_exact_connection_curvature_is_flat():
    scn = ZeemanScenario(b_field=PolyField.random(11, offset=(0.2, -0.3, 1.1)))
    conn = exact_connection_field(scn.model())
    axis = np.linspace(-0.3, 0.3, 5)
    worst = 0.0
    for rx in axis:
        for ry in axis:
            for rz in axis:
                m = PhasePoint((0.1, 0.0, 0.0), (rx, ry, rz), 0.1)
                worst = max(worst,
                            nonabelian_curvature(conn, m, step=1e-4).max_norm())
    verdict(1, "exact connection flatness", worst < 1e-6,
            "max curvature norm {:.3e} over 5x5x5 r-grid (tol 1e-6)"
            .format(worst))


def test_plaquette_curvature_matches_split_form():
    cases = (
        (23, ZeemanScenario(b_field=PolyField.random(11,
                                                     offset=(0.2, -0.3, 1.1)))),
        (24, SpinOrbitScenario(
            e_field=PolyField.random(21, offset=(0.9, 0.1, 0.4)),
            b_field=PolyField.random(22, offset=(0.2, 1.0, -0.3)))),
    )
    worst = 0.0
    for seed, scn in cases:
        model = scn.model()
        rng = np.random.Generator(np.random.Philox(seed))
        checked = 0
        while checked < 100:
            m = PhasePoint(rng.uniform(-0.6, 0.6, 3),
                           rng.uniform(-0.4, 0.4, 3),
                           float(rng.uniform(-0.2, 0.2)))
            if diagonalize(model, m).gap < 0.1:
                continue
            ana = curvature_m_space(model, m)
            num = adiabatic_curvature_numeric(model, m)
            scale = max(float(np.max(np.abs(ana.F))), 1e-3)
            worst = max(worst, float(np.max(np.abs(num.F - ana.F))) / scale)
            checked += 1
    verdict(2, "plaquette vs split-form curvature", worst < 1e-5,
            "worst relative deviation {:.3e} over 2x100 gapped points "
            "(tol 1e-5)".format(worst))


def test_monopole_charge_is_quantized():
    worst_q = 0.0
    worst_radius = 0.0
    for S in (-1.0, -0.5, 0.5, 1.0):
        field = monopole_field(S=S)
        q = {radius: chern_charge(field, center=(0.0, 0.0, 0.0), radius=radius)
             for radius in (0.5, 1.0)}
        worst_q = max(worst_q, *(abs(qv + 2.0 * S) for qv in q.values()))
        worst_radius = max(worst_radius, abs(q[0.5] - q[1.0]) / abs(2.0 * S))
    ok = worst_q < 1e-6 and worst_radius < 1e-8
    verdict(3, "monopole charge quantization", ok,
            "worst |q + 2S| {:.3e} (tol 1e-6), radius mismatch {:.3e} "
            "(tol 1e-8 rel)".format(worst_q, worst_radius))


def test_loop_phase_equals_solid_angle():
    model = ZeemanScenario.hedgehog().model()
    base = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
    conn = AdiabaticConnectionField(model, base, axes=(3, 4, 5))
    worst = 0.0
    for theta in (np.pi / 6.0, np.pi / 3.0, np.pi / 2.0):
        path = circle(theta, 1441)
        for band, sign in ((0, 1.0), (1, -1.0)):
            # holonomy route: defined at every angle, including the equator,
            # where the single-point gauge has its branch cut; phases are
            # points on the circle, so compare mod 2 pi
            fine = conn.loop_phase(path, band)
            coarse = conn.loop_phase(path[::2], band)
            got = (4.0 * fine - coarse) / 3.0
            want = sign * np.pi * (1.0 - np.cos(theta))
            worst = max(worst, abs(wrap_angle(got - want)))
            if theta < np.pi / 2.0:
                # off the cut the connection line integral must agree too
                worst = max(worst, abs(loop_phase(conn, path, band) - want))
    verdict(4, "solid-angle loop phase", worst < 1e-6,
            "worst deviation from -+pi(1 - cos theta) {:.3e} over 3 angles "
            "x 2 bands, both loop routes (tol 1e-6)".format(worst))


def test_regauge_is_invisible_to_observables():
    scn = ZeemanScenario.hedgehog()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    field = AdiabaticConnectionField(scn.model(), base, axes=(3, 4, 5))
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
    path = circle(np.pi / 3.0, 1441)
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
    zee = ZeemanScenario(b_field=LinearField(f0=(0.0, 0.0, 1.0),
                                             gt=(0.3, 0.2, 0.4)))
    zmodel = zee.model()
    worst_a = 0.0
    for t in (0.0, 0.4, 1.1):
        m = PhasePoint((0.1, 0.0, 0.2), (0.0, 0.0, 0.2), t)
        worst_a = max(worst_a,
                      float(np.max(np.abs(curvature_m_space(zmodel, m).F))))
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
    model = scn.model()
    em = ExternalEMField.uniform(E=scn.e_vector(), B=(0.0, 0.0, 0.0))
    worst_rel = 0.0
    opposed = True
    for px in (0.05, 0.1, 0.2):
        m = PhasePoint((px, 0.0), (0.0, 0.0), 0.0)
        vy = []
        for band in (0, 1):
            _, rdot = velocity_field(model, band, m, em, warn=False)
            want = float(scn.drift(band, m.p)[1])
            worst_rel = max(worst_rel,
                            abs(float(rdot[1]) - want) / abs(want))
            vy.append(float(rdot[1]))
        opposed = opposed and vy[0] == -vy[1]

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
    scn = OpticalScenario(index=LinearIndex(n0=1.2, alpha=0.1, axis=(0, 1, 0)),
                          k0=50.0)
    p0 = scn.launch_momentum((1.0, 0.0, 0.0))
    plus, minus = magnus_ray_pair(scn, p0, (0.0, 0.0, 0.0),
                                  s_end=1.0, step=1e-3)
    split = ray_splitting(plus, minus, (0.0, 0.0, 1.0))
    want = 2.0 * float(displacement_contour(plus.p, monopole_field(S=+1.0),
                                            hbar=1.0 / scn.k0)[2])
    rel = abs(split - want) / abs(want)
    drift = max(plus.constraint_drift, minus.constraint_drift)
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
    worst = 0.0
    for S in (0.5, -1.0):
        res = maxwell_residuals(lambda x: monopole_curvature(x, S=S), pts,
                                step=1e-4)
        worst = max(worst, res.max_divergence, res.max_cyclic)
    verdict(9, "field identities", worst < 1e-6,
            "worst divergence/cyclic residual {:.3e} on the 0.5..2 coupling "
            "shell (tol 1e-6)".format(worst))


def test_adiabaticity_monitor_and_abort(tmp_path, capsys):
    B0, beta, chi = 1.0, 0.05, 1.0
    scn = ZeemanScenario(b_field=LinearField(f0=(0.0, 0.0, B0),
                                             gt=(0.0, 0.0, beta)), chi=chi)
    model = scn.model()
    worst = 0.0
    for t in (0.0, 0.3, 0.7):
        m = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), t)
        eps = adiabaticity_epsilon(model, 1, m)
        want = beta / (4.0 * chi * (B0 + beta * t) ** 2)
        worst = max(worst, abs(float(eps) - want))
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
