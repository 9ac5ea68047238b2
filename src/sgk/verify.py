"""Self-check battery behind the `verify` command.

Each check exercises one pillar of the pipeline against an independent
closed form and reports (value, expected, tolerance). The battery is a
fast subset of the full test suite, meant for installed-environment
sanity, not a replacement for it.
"""

from __future__ import annotations

import numpy as np

from .dynamics import adiabaticity_epsilon, displacement_contour, velocity_field
from .fields import LinearField, LinearIndex, PolyField
from .gauge import (AdiabaticConnectionField, adiabatic_curvature_numeric,
                    chern_charge, curvature_m_space, exact_connection_field,
                    maxwell_residuals, monopole_curvature, monopole_field,
                    nonabelian_curvature, phase_line_integral)
from .phase_space import PhasePoint
from .scenarios import (OpticalScenario, RashbaScenario, SpinOrbitScenario,
                        ZeemanScenario, magnus_ray_pair, ray_splitting)
from .spectral import diagonalize


def _check(name, value, expected, tol):
    return {
        "check": name,
        "value": float(value),
        "expected": float(expected),
        "tolerance": float(tol),
        "passed": bool(abs(float(value) - float(expected)) <= float(tol)),
    }


def check_exact_flatness():
    scn = ZeemanScenario(b_field=PolyField.random(11, offset=(0.2, -0.3, 1.1)))
    model = scn.model()
    conn = exact_connection_field(model)
    worst = 0.0
    for r in ((0.05, -0.1, 0.2), (-0.15, 0.1, -0.05)):
        m = PhasePoint((0.1, 0.0, 0.0), r, 0.1)
        worst = max(worst, nonabelian_curvature(conn, m).max_norm())
    return _check("exact-connection-flatness", worst, 0.0, 1e-6)


def check_plaquette_vs_split():
    scn = SpinOrbitScenario(e_field=PolyField.random(21, offset=(0.9, 0.1, 0.4)),
                            b_field=PolyField.random(22, offset=(0.2, 1.0, -0.3)))
    model = scn.model()
    rng = np.random.Generator(np.random.Philox(23))
    worst = 0.0
    checked = 0
    while checked < 5:
        p = rng.uniform(-0.6, 0.6, 3)
        r = rng.uniform(-0.4, 0.4, 3)
        m = PhasePoint(p, r, float(rng.uniform(-0.2, 0.2)))
        if diagonalize(model, m).gap < 0.1:
            continue
        ana = curvature_m_space(model, m)
        num = adiabatic_curvature_numeric(model, m)
        scale = max(np.max(np.abs(ana.F)), 1e-3)
        worst = max(worst, float(np.max(np.abs(num.F - ana.F))) / scale)
        checked += 1
    return _check("plaquette-vs-split-form", worst, 0.0, 1e-5)


def check_monopole_charge():
    q = chern_charge(monopole_field(S=+0.5), center=(0.0, 0.0, 0.0), radius=1.0)
    return _check("monopole-topological-charge", q, -1.0, 1e-6)


def check_loop_phase():
    model = ZeemanScenario.hedgehog().model()
    theta = np.pi / 3.0
    base = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
    conn = AdiabaticConnectionField(model, base, axes=(3, 4, 5))
    phis = np.linspace(0.0, 2.0 * np.pi, 1441)
    path = np.stack([np.sin(theta) * np.cos(phis),
                     np.sin(theta) * np.sin(phis),
                     np.full_like(phis, np.cos(theta))], axis=1)
    # chord trapezoid is O(h^2) with an even error expansion; one
    # Richardson pass over the halved path lifts it to O(h^4)
    fine = phase_line_integral(conn, path, band=1).value
    coarse = phase_line_integral(conn, path[::2], band=1).value
    phase = (4.0 * fine - coarse) / 3.0
    return _check("solid-angle-loop-phase", phase,
                  -np.pi * (1.0 - np.cos(theta)), 1e-6)


def check_time_only_field():
    scn = ZeemanScenario(b_field=LinearField(f0=(0.0, 0.0, 1.0),
                                             gt=(0.3, 0.2, 0.4)))
    model = scn.model()
    m = PhasePoint((0.1, 0.0, 0.2), (0.0, 0.0, 0.0), 0.3)
    residual = float(np.max(np.abs(curvature_m_space(model, m).F)))
    return _check("time-only-field-null", residual, 0.0, 1e-10)


def check_rashba_drift():
    scn = RashbaScenario(hbar=1e-4)
    model = scn.model()
    m = PhasePoint((0.5, 0.0), (0.0, 0.0), 0.0)
    _, rdot = velocity_field(model, 1, m, scn.em(), warn=False)
    drift = scn.drift(1, m.p)
    got = float(rdot[1])
    want = float(m.p[1] / scn.m_star + drift[1])
    return _check("rashba-transverse-drift", got, want,
                  1e-4 * max(abs(want), 1e-12))


def check_magnus_splitting():
    scn = OpticalScenario(index=LinearIndex(n0=1.2, alpha=0.1, axis=(0, 1, 0)),
                          k0=50.0)
    p0 = scn.launch_momentum((1.0, 0.0, 0.0))
    plus, minus = magnus_ray_pair(scn, p0, (0.0, 0.0, 0.0), s_end=1.0, step=1e-3)
    split = ray_splitting(plus, minus, (0.0, 0.0, 1.0))
    contour = displacement_contour(plus.p, monopole_field(S=+1.0),
                                   hbar=1.0 / scn.k0)
    want = 2.0 * float(contour[2])
    out = _check("optical-ray-splitting", split, want,
                 1e-4 * max(abs(want), 1e-12))
    out["constraint_drift"] = float(max(plus.constraint_drift,
                                        minus.constraint_drift))
    out["passed"] = out["passed"] and out["constraint_drift"] < 1e-6
    return out


def check_maxwell_identities():
    pts = [(0.5, 0.0, 0.0), (0.0, 1.1, 0.9), (0.7, -0.7, 0.7), (0.0, 0.0, -2.0)]
    res = maxwell_residuals(lambda x: monopole_curvature(x, S=0.5), pts)
    worst = max(res.max_divergence, res.max_cyclic)
    return _check("maxwell-identity-residuals", worst, 0.0, 1e-6)


def check_adiabaticity():
    B0, beta, chi = 1.0, 0.05, 1.0
    scn = ZeemanScenario(b_field=LinearField(f0=(0.0, 0.0, B0),
                                             gt=(0.0, 0.0, beta)), chi=chi)
    model = scn.model()
    t = 0.4
    m = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), t)
    eps = adiabaticity_epsilon(model, 1, m)
    want = beta / (4.0 * chi * (B0 + beta * t) ** 2)
    return _check("adiabaticity-parameter", eps, want, 1e-8)


BATTERY = (
    check_exact_flatness,
    check_plaquette_vs_split,
    check_monopole_charge,
    check_loop_phase,
    check_time_only_field,
    check_rashba_drift,
    check_magnus_splitting,
    check_maxwell_identities,
    check_adiabaticity,
)


def run_battery():
    """Run every check; returns the list of result records."""
    return [fn() for fn in BATTERY]
