"""Closed-form scenario laws against the generic numerical pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from sgk import (
    ConstraintDriftWarning,
    IntegratorConfig,
    LinearIndex,
    OpticalScenario,
    PAULI,
    PhasePoint,
    PolyField,
    RashbaScenario,
    SingularityError,
    SpinOrbitScenario,
    StepError,
    UniformIndex,
    ZeemanScenario,
    adiabatic_curvature_numeric,
    band_sign,
    curvature_m_space,
    diagonalize,
    magnus_ray,
    magnus_ray_pair,
    monopole_pseudovector,
    phase_line_integral,
    pseudo_to_tensor,
    ray_splitting,
    tensor_to_pseudo,
    velocity_field,
)

from helpers import curvature_of_abelian_field, pp_pseudovector, zeeman_connection

B_GEN = np.array([0.4, -0.3, 0.8])


# -- band frames --------------------------------------------------------------


def test_band_sign():
    assert band_sign(1) == 1.0
    assert band_sign(0) == -1.0
    with pytest.raises(ValueError):
        band_sign(2)


def test_hedgehog_bands_are_the_spin_projectors():
    # B(r) = r: band 1 (S = +1/2) projects onto (1 + sigma.b)/2 and band 0
    # onto (1 - sigma.b)/2, with b the unit field
    scn = ZeemanScenario.hedgehog()
    frame = diagonalize(scn.model(), PhasePoint(np.zeros(3), B_GEN, 0.0))
    sb = np.einsum("k,kij->ij", B_GEN / np.linalg.norm(B_GEN), PAULI)
    for band in (0, 1):
        u = frame.U[:, band]
        want = 0.5 * (np.eye(2) + band_sign(band) * sb)
        assert np.allclose(np.outer(u, u.conj()), want, rtol=0.0, atol=1e-12)


# -- closed-form connection and curvature -------------------------------------


def test_connection_is_zero_on_the_patch_axis():
    # field along +z: the north-patch connection vanishes there
    assert np.allclose(zeeman_connection((0.0, 0.0, 2.0), 1, "north"), 0.0)


def test_connection_patches_are_monopole_potentials():
    for band in (0, 1):
        for patch in ("north", "south"):
            field = lambda b: zeeman_connection(b, band, patch)
            F = curvature_of_abelian_field(field, B_GEN, step=1e-6)
            want = pseudo_to_tensor(monopole_pseudovector(B_GEN, 0.5 * band_sign(band)))
            assert np.allclose(F, want, atol=1e-6)


def test_curvature_pseudovector_at_pole():
    # on the hedgehog B(r) = r the r block is the field-space monopole -S b/|b|^3
    m = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    ct = ZeemanScenario.hedgehog().curvature_blocks(m)
    assert np.allclose(tensor_to_pseudo(ct.f_rr(1)), [0, 0, -0.5])
    assert np.allclose(tensor_to_pseudo(ct.f_rr(0)), [0, 0, +0.5])


def circle(theta, n=1441):
    phis = np.linspace(0.0, 2.0 * np.pi, n)
    return np.stack([np.sin(theta) * np.cos(phis),
                     np.sin(theta) * np.sin(phis),
                     np.full_like(phis, np.cos(theta))], axis=1)


def loop_value(field, path):
    # chord trapezoid is O(h^2) with an even error expansion; one Richardson
    # pass over the halved path lifts it to O(h^4)
    fine = phase_line_integral(field, path).value
    coarse = phase_line_integral(field, path[::2]).value
    return (4.0 * fine - coarse) / 3.0


def test_patch_loop_phases_differ_by_full_winding():
    theta = np.pi / 3.0
    path = circle(theta)
    north = loop_value(lambda b: zeeman_connection(b, 1, "north"), path)
    south = loop_value(lambda b: zeeman_connection(b, 1, "south"), path)
    assert north == pytest.approx(-np.pi * (1 - np.cos(theta)), abs=1e-6)
    assert south == pytest.approx(+np.pi * (1 + np.cos(theta)), abs=1e-6)
    # raw values differ by the 2 pi winding of the transition function
    assert south - north == pytest.approx(2.0 * np.pi, abs=1e-6)


def test_zeeman_blocks_match_plaquette():
    scn = ZeemanScenario(b_field=PolyField.random(31, offset=(0.2, -0.3, 1.1)),
                         chi=0.8)
    m = PhasePoint((0.05, -0.1, 0.2), (0.15, 0.1, -0.2), 0.1)
    ana = scn.curvature_blocks(m)
    num = adiabatic_curvature_numeric(scn.model(), m, step=1e-3)
    scale = max(ana.max_abs(), 1.0)
    assert np.max(np.abs(ana.F - num.F)) / scale < 1e-6
    # momentum blocks vanish identically for a p-independent coupling
    assert np.all(ana.f_pp() == 0.0)
    assert np.all(ana.f_pr() == 0.0)
    assert np.all(ana.f_pt() == 0.0)


# -- spin-orbit ----------------------------------------------------------------


def so_scenario(**kw):
    return SpinOrbitScenario(
        e_field=PolyField.random(41, offset=(0.5, 0.1, -0.2)),
        b_field=PolyField.random(42, offset=(0.1, 0.9, 0.3)), **kw)


def test_spin_orbit_blocks_match_split_curvature():
    scn = so_scenario(chi=0.9, rho=0.4)
    m = PhasePoint((0.3, -0.2, 0.1), (0.1, 0.2, -0.1), 0.05)
    ana = scn.curvature_blocks(m)
    ref = curvature_m_space(scn.model(), m)
    assert np.max(np.abs(ana.F - ref.F)) < 1e-9
    num = adiabatic_curvature_numeric(scn.model(), m, step=1e-3)
    scale = max(ana.max_abs(), 1.0)
    assert np.max(np.abs(ana.F - num.F)) / scale < 1e-6


def test_uniform_field_momentum_block():
    # uniform static E, B: f = -S chi rho^2 (B.E) E / |H1|^3 at p = 0
    chi, rho = 0.7, 0.3
    B0, E0 = 1.2, 0.9
    scn = SpinOrbitScenario(e_field=(0.0, 0.0, E0), b_field=(0.0, 0.0, B0),
                            chi=chi, rho=rho)
    m = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    f = pp_pseudovector(scn, m)
    want_up = -(rho**2 * E0**2) / (2.0 * chi**2 * B0**2)
    assert np.allclose(f[1], [0.0, 0.0, want_up], atol=1e-14)
    assert np.allclose(f[0], -f[1], atol=1e-15)
    # cross-check against the gauge-invariant plaquette on the model
    num = adiabatic_curvature_numeric(scn.model(), m, step=1e-3)
    want_tensor = pseudo_to_tensor(f[1])
    assert np.allclose(num.f_pp(1), want_tensor, atol=1e-6)


def test_orthogonal_fields_kill_momentum_block():
    scn = SpinOrbitScenario(e_field=(0.9, 0.0, 0.0), b_field=(0.0, 0.0, 1.2),
                            chi=0.7, rho=0.3)
    m = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    assert np.allclose(pp_pseudovector(scn, m), 0.0, atol=1e-15)
    num = adiabatic_curvature_numeric(scn.model(), m, step=1e-3)
    assert np.max(np.abs(num.f_pp())) < 1e-6


def test_spin_orbit_singular_coupling():
    scn = SpinOrbitScenario(e_field=(1.0, 0.0, 0.0), b_field=np.zeros(3))
    m = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(SingularityError):
        scn.curvature_blocks(m)


# -- Rashba --------------------------------------------------------------------


def test_rashba_motion_matches_generic_velocity_solve():
    scn = RashbaScenario(b_z=1.3, e_inplane=(0.7, -0.2), chi=0.9, rho=0.8,
                         hbar=0.05)
    model = scn.model()
    em = scn.em()
    for band in (0, 1):
        for p in ((0.4, -0.1), (0.1, 0.3)):
            m = PhasePoint(p, (0.0, 0.0), 0.0)
            v_p, v_r = velocity_field(model, band, m, em)
            pdot, rdot = scn.motion(band, p)
            assert np.allclose(v_p, pdot, atol=1e-7)
            assert np.allclose(v_r, rdot, atol=1e-7)


def test_rashba_drift_formula_and_band_oddness():
    scn = RashbaScenario(b_z=2.0, e_inplane=(0.5, 0.0), chi=1.1, rho=0.7,
                         hbar=0.02)
    p = (0.3, 0.1)
    nb = scn.coupling_norm(p)
    coeff = 0.02 * 1.1 * 0.7**2 * 2.0 / (2.0 * nb**3)
    up = scn.drift(1, p)
    assert np.allclose(up, coeff * np.cross([0.5, 0.0, 0.0], [0, 0, 1]))
    assert np.array_equal(scn.drift(0, p), -up)
    # drift is transverse: orthogonal to the driving field
    assert abs(up @ scn.e_vector()) < 1e-18


def test_rashba_closed_forms_past_the_cube_overflow():
    # |H1|^3 overflows past 5.6e102; there drift and motion divide by |H1|
    # three times, below they keep their bits
    scn = RashbaScenario(b_z=2.0, e_inplane=(0.5, 0.0), chi=1.1, rho=0.7, hbar=0.02)
    p = (0.3, 0.1)
    nb = scn.coupling_norm(p)
    coeff = 0.02 * 1.0 * 1.1 * 0.7**2 * 2.0 / (2.0 * nb**3)
    assert np.array_equal(scn.drift(1, p), coeff * np.cross(scn.e_vector(), [0.0, 0.0, 1.0]))
    big = RashbaScenario(b_z=1e103, e_inplane=(0.5, 0.0))  # |H1| = 1e103
    assert np.allclose(big.drift(1, p), [0.0, -0.25e-206, 0.0], rtol=1e-14, atol=0.0)
    for band in (0, 1):
        for mode in ("full", "reduced"):
            assert all(np.isfinite(v).all() for v in big.motion(band, p, mode))


def test_rashba_zero_coupling_is_singular():
    scn = RashbaScenario(b_z=0.0)
    with pytest.raises(SingularityError):
        scn.drift(1, (0.0, 0.0))
    with pytest.raises(SingularityError):
        scn.motion(1, (0.0, 0.0))


def test_rashba_rho_zero_reduces_to_lorentz():
    scn = RashbaScenario(b_z=1.0, e_inplane=(0.4, 0.1), rho=0.0)
    p = np.array([0.3, -0.2])
    pdot, rdot = scn.motion(1, p)
    assert np.allclose(rdot, p)
    # pdot = e(E + rdot x B e_z) in the plane
    v3 = np.array([rdot[0], rdot[1], 0.0])
    want = np.array([0.4, 0.1, 0.0]) + np.cross(v3, [0.0, 0.0, 1.0])
    assert np.allclose(pdot, want[:2], atol=1e-13)


def test_rashba_closed_form_reduction_orders():
    # the leading-order closed form p/m + drift omits the band energy-slope
    # term and the Lorentz bending of the gauge force, both first order in
    # hbar, so its gap to the exact solve shrinks linearly ...
    scn = RashbaScenario(b_z=1.0, e_inplane=(1.0, 0.0))
    p = (0.5, 0.0)

    def disc_closed(hb):
        s = replace(scn, hbar=hb)
        full = np.concatenate(s.motion(1, p, mode="full"))
        red = np.concatenate(s.motion(1, p, mode="reduced"))
        return np.linalg.norm(full - red)

    ratio = disc_closed(1e-3) / disc_closed(5e-4)
    assert 1.8 < ratio < 2.2

    # ... while the generic solver's reduced substitution keeps those terms
    # and only misses the self-consistency of the gauge force, a second
    # order defect
    def disc_pipeline(hb):
        s = replace(scn, hbar=hb)
        m = PhasePoint(p, (0.0, 0.0), 0.0)
        exact = np.concatenate(velocity_field(s.model(), 1, m, s.em(), mode="exact"))
        red = np.concatenate(velocity_field(s.model(), 1, m, s.em(), mode="reduced"))
        return np.linalg.norm(exact - red)

    ratio = disc_pipeline(1e-3) / disc_pipeline(5e-4)
    assert 3.5 < ratio < 4.5


def test_rashba_motion_rejects_unknown_mode():
    with pytest.raises(ValueError):
        RashbaScenario().motion(1, (0.1, 0.0), mode="hybrid")


def test_rashba_transverse_axis():
    scn = RashbaScenario(e_inplane=(0.7, 0.0))
    assert np.allclose(scn.transverse_axis(), [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        RashbaScenario(e_inplane=(0.0, 0.0)).transverse_axis()


def test_rashba_em_fields():
    scn = RashbaScenario(b_z=1.7, e_inplane=(0.3, -0.4))
    em = scn.em()
    assert np.allclose(em.e_field.value(np.zeros(3), 0.0), [0.3, -0.4, 0.0])
    assert np.allclose(em.b_field.value(np.zeros(3), 0.0), [0.0, 0.0, 1.7])


# -- ray optics ------------------------------------------------------------------


def test_homogeneous_index_gives_straight_rays():
    scn = OpticalScenario(index=UniformIndex(n0=1.5), k0=80.0)
    p0 = scn.launch_momentum((1.0, 0.0, 0.0))
    assert np.allclose(p0, [1.5, 0.0, 0.0])
    plus, minus = magnus_ray_pair(scn, p0, np.zeros(3), s_end=1.0, step=1e-2)
    assert np.allclose(plus.final_r, [1.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose(plus.final_r, minus.final_r, atol=1e-15)
    assert ray_splitting(plus, minus, (0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
    assert plus.constraint_drift < 1e-12


def test_ray_whole_number_of_steps_leaves_no_sliver():
    # 100 steps of s_end/100 sum to just under s_end; the last step must
    # absorb the shortfall instead of adding a 101st step of about 1e-14
    scn = OpticalScenario(index=UniformIndex(n0=1.5), k0=80.0)
    s_end = 2.0 * np.pi / 1.7
    ray = magnus_ray(scn, scn.launch_momentum((1.0, 0.0, 0.0)), np.zeros(3), +1,
                     s_end=s_end, step=s_end / 100)
    assert ray.s.shape == (101,)
    assert ray.s[-1] == s_end


def test_photon_curvature_is_unit_monopole():
    scn = OpticalScenario(index=UniformIndex(n0=1.0))
    assert np.allclose(scn.curvature((0.0, 0.0, 2.0), +1), [0, 0, -0.25])
    assert np.allclose(scn.curvature((0.0, 0.0, 2.0), -1), [0, 0, +0.25])
    with pytest.raises(ValueError):
        scn.curvature((0.0, 0.0, 2.0), 0)


def test_graded_index_splits_helicities_transversely():
    # index falls along y: the ray bends in the xy plane and the two
    # helicities separate along z by about 2 alpha s / (k0 n0^2)
    n0, alpha, k0 = 1.5, 0.05, 50.0
    scn = OpticalScenario(index=LinearIndex(n0=n0, alpha=alpha, axis=(0, 1, 0)),
                          k0=k0)
    p0 = scn.launch_momentum((1.0, 0.0, 0.0))
    plus, minus = magnus_ray_pair(scn, p0, np.zeros(3), s_end=1.0, step=1e-3)
    assert plus.constraint_drift < 1e-8
    assert plus.final_r[1] < 0  # bends toward falling index
    split = ray_splitting(plus, minus, (0.0, 0.0, 1.0))
    assert split == pytest.approx(2.0 * alpha / (k0 * n0**2), rel=1e-2)
    # the shift itself is helicity-odd
    assert plus.final_r[2] == pytest.approx(-minus.final_r[2], abs=1e-15)
    # axis normalization does not change the projection
    assert ray_splitting(plus, minus, (0.0, 0.0, 2.0)) == pytest.approx(split)


def test_ray_constraint_drift_warns_off_shell():
    scn = OpticalScenario(index=UniformIndex(n0=1.5))
    with pytest.warns(ConstraintDriftWarning):
        magnus_ray(scn, (2.0, 0.0, 0.0), np.zeros(3), +1, s_end=0.01, step=1e-3)


def test_ray_validations():
    scn = OpticalScenario(index=UniformIndex(n0=1.5))
    with pytest.raises(ValueError):
        OpticalScenario(index=UniformIndex(), k0=0.0)
    with pytest.raises(ValueError):
        magnus_ray(scn, (1.5, 0, 0), np.zeros(3), 2)
    with pytest.raises(StepError):
        magnus_ray(scn, (1.5, 0, 0), np.zeros(3), 1, step=0.0)
    with pytest.raises(ValueError):
        magnus_ray(scn, (1.5, 0, 0), np.zeros(3), 1, s_end=-1.0)
    with pytest.raises(SingularityError):
        magnus_ray(scn, (0.0, 0.0, 0.0), np.zeros(3), 1, s_end=0.01)
    for max_steps in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="max_steps"):
            magnus_ray(scn, (1.5, 0, 0), np.zeros(3), 1, s_end=0.01, max_steps=max_steps)


def test_ray_length_must_be_finite():
    # a non-finite length never ends the ray: it would run the whole step budget
    scn = OpticalScenario(index=UniformIndex(n0=1.5))
    for s_end in (np.nan, np.inf):
        with pytest.raises(ValueError, match="s_end"):
            magnus_ray(scn, (1.5, 0, 0), np.zeros(3), 1, s_end=s_end, max_steps=5)
