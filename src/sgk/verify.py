"""Self-check battery behind the `verify` command.

Each check exercises one pillar of the pipeline against an independent
closed form and reports (value, expected, tolerance) at its worst case.
Its sizes (points, seeds, step, scenario) are arguments: the defaults are the quick sizes `sgk verify` runs, and the acceptance
criteria in `tests/test_acceptance.py` call the same functions at their
full sizes.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ExternalEMField, adiabaticity_epsilon, displacement_contour, velocity_field
from .fields import LinearIndex, PolyField
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


def _worst(name, cases, tol, relative=False):
    """`_check` of the (value, expected) case furthest from agreement; with
    `relative` the deviation and the tolerance scale with |expected|."""
    def scale(expected):
        return max(abs(expected), 1e-12) if relative else 1.0
    value, expected = max(cases, key=lambda c: abs(c[0] - c[1]) / scale(c[1]))
    return _check(name, value, expected, tol * scale(expected))


# the random polynomial-field scenarios the curvature checks sample
POLY_SCENARIOS = {
    "zeeman": lambda: ZeemanScenario(
        b_field=PolyField.random(11, offset=(0.2, -0.3, 1.1))),
    "spin-orbit": lambda: SpinOrbitScenario(
        e_field=PolyField.random(21, offset=(0.9, 0.1, 0.4)),
        b_field=PolyField.random(22, offset=(0.2, 1.0, -0.3))),
}


def time_only_model():
    """Zeeman model of a field that varies in t alone: its curvature vanishes."""
    return ZeemanScenario(b_field=PolyField(f0=(0.0, 0.0, 1.0),
                                            gt=(0.3, 0.2, 0.4))).model()


def hedgehog_connection():
    """The hedgehog's adiabatic connection over r, gauge based at r = e_z."""
    base = PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
    return AdiabaticConnectionField(ZeemanScenario.hedgehog().model(), base,
                                    axes=(3, 4, 5))


def circle(theta):
    """1441 nodes of the closed latitude circle at polar angle theta."""
    phis = np.linspace(0.0, 2.0 * np.pi, 1441)
    return np.stack([np.sin(theta) * np.cos(phis),
                     np.sin(theta) * np.sin(phis),
                     np.full_like(phis, np.cos(theta))], axis=1)


def loop_phase(field, path, band, holonomy=False):
    """The phase around a closed path: the connection's line integral, or
    with `holonomy` the field's Wilson-loop phase."""
    def route(nodes):
        if holonomy:
            return field.loop_phase(nodes, band)
        return phase_line_integral(field, nodes, band=band).value
    # both routes are O(h^2) with an even error expansion; one Richardson
    # pass over the halved path lifts them to O(h^4)
    return (4.0 * route(path) - route(path[::2])) / 3.0


def check_exact_flatness(points=((0.05, -0.1, 0.2), (-0.15, 0.1, -0.05)),
                         step=None):
    conn = exact_connection_field(POLY_SCENARIOS["zeeman"]().model())
    worst = 0.0
    for r in points:
        m = PhasePoint((0.1, 0.0, 0.0), r, 0.1)
        worst = max(worst, nonabelian_curvature(conn, m, step=step).max_norm())
    return _check("exact-connection-flatness", worst, 0.0, 1e-6)


def check_plaquette_vs_split(cases=(("spin-orbit", 23),), points=5):
    """`points` gapped points of each (scenario, Philox seed) case."""
    worst = 0.0
    for kind, seed in cases:
        model = POLY_SCENARIOS[kind]().model()
        rng = np.random.Generator(np.random.Philox(seed))
        checked = 0
        while checked < points:
            m = PhasePoint(rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.4, 0.4, 3),
                           float(rng.uniform(-0.2, 0.2)))
            if diagonalize(model, m).gap < 0.1:
                continue
            ana = curvature_m_space(model, m)
            num = adiabatic_curvature_numeric(model, m)
            scale = max(float(np.max(np.abs(ana.F))), 1e-3)
            worst = max(worst, float(np.max(np.abs(num.F - ana.F))) / scale)
            checked += 1
    return _check("plaquette-vs-split-form", worst, 0.0, 1e-5)


def check_monopole_charge(spins=(0.5,), radii=(1.0,)):
    cases = [(chern_charge(monopole_field(S=S), center=(0.0, 0.0, 0.0), radius=radius),
              -2.0 * S) for S in spins for radius in radii]
    return _worst("monopole-topological-charge", cases, 1e-6)


def check_loop_phase(thetas=(np.pi / 3.0,), bands=(1,)):
    """Line-integral phase of each band around latitude circles: the solid
    angle, signed by the band's monopole charge."""
    conn = hedgehog_connection()
    cases = [(loop_phase(conn, circle(theta), band),
              (1.0 - 2.0 * band) * np.pi * (1.0 - np.cos(theta)))
             for theta in thetas for band in bands]
    return _worst("solid-angle-loop-phase", cases, 1e-6)


def check_time_only_field(r=(0.0, 0.0, 0.0), times=(0.3,)):
    model = time_only_model()
    residual = max(float(np.max(np.abs(curvature_m_space(
        model, PhasePoint((0.1, 0.0, 0.2), r, t)).F))) for t in times)
    return _check("time-only-field-null", residual, 0.0, 1e-10)


def check_rashba_drift(scn=RashbaScenario(hbar=1e-4), momenta=((0.5, 0.0),),
                       bands=(1,)):
    """Transverse velocity under the in-plane E alone against p_y/m* plus
    the closed-form drift (which has no Lorentz term)."""
    model = scn.model()
    em = ExternalEMField.uniform(E=scn.e_vector(), B=(0.0, 0.0, 0.0))
    cases = []
    for p in momenta:
        m = PhasePoint(p, (0.0, 0.0), 0.0)
        for band in bands:
            _, rdot = velocity_field(model, band, m, em, warn=False)
            cases.append((float(rdot[1]),
                          float(m.p[1] / scn.m_star + scn.drift(band, m.p)[1])))
    return _worst("rashba-transverse-drift", cases, 1e-4, relative=True)


def check_magnus_splitting():
    scn = OpticalScenario(index=LinearIndex(n0=1.2, alpha=0.1, axis=(0, 1, 0)),
                          k0=50.0)
    p0 = scn.launch_momentum((1.0, 0.0, 0.0))
    plus, minus = magnus_ray_pair(scn, p0, (0.0, 0.0, 0.0), s_end=1.0, step=1e-3)
    split = ray_splitting(plus, minus, (0.0, 0.0, 1.0))
    contour = displacement_contour(plus.p, monopole_field(S=+1.0),
                                   hbar=1.0 / scn.k0)
    out = _worst("optical-ray-splitting", [(split, 2.0 * float(contour[2]))],
                 1e-4, relative=True)
    out["constraint_drift"] = float(max(plus.constraint_drift,
                                        minus.constraint_drift))
    out["passed"] = out["passed"] and out["constraint_drift"] < 1e-6
    return out


def check_maxwell_identities(points=((0.5, 0.0, 0.0), (0.0, 1.1, 0.9),
                                     (0.7, -0.7, 0.7), (0.0, 0.0, -2.0)),
                             spins=(0.5,), step=None):
    worst = 0.0
    for S in spins:
        res = maxwell_residuals(lambda x: monopole_curvature(x, S=S), points,
                                step=step)
        worst = max(worst, res.max_divergence, res.max_cyclic)
    return _check("maxwell-identity-residuals", worst, 0.0, 1e-6)


def check_adiabaticity(times=(0.4,)):
    """epsilon of a linear ramp B0 + beta t against beta / (4 chi B^2)."""
    B0, beta, chi = 1.0, 0.05, 1.0
    model = ZeemanScenario(b_field=PolyField(f0=(0.0, 0.0, B0),
                                             gt=(0.0, 0.0, beta)), chi=chi).model()
    cases = []
    for t in times:
        eps = adiabaticity_epsilon(model, 1, PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), t))
        cases.append((float(eps), beta / (4.0 * chi * (B0 + beta * t) ** 2)))
    return _worst("adiabaticity-parameter", cases, 1e-8)


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
