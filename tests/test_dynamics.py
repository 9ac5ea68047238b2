"""Semiclassical equations of motion: velocities, phases, adiabaticity."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sgk.gauge
from sgk import (
    AdiabaticConnectionField,
    DegeneracyError,
    ExternalEMField,
    HamiltonianModel,
    IntegratorConfig,
    NumericalError,
    PhasePoint,
    PolyField,
    RashbaScenario,
    RotatingField,
    SingularityError,
    SingularSystemError,
    SpinForceWarning,
    SpinOrbitScenario,
    StepError,
    VectorField,
    ZeemanScenario,
    adiabatic_curvature_numeric,
    adiabaticity_epsilon,
    band_gradients,
    curvature_m_space,
    default_step,
    diagonalize,
    displacement_contour,
    effective_em_fields,
    exact_connection,
    integrate,
    phase_line_integral,
    velocity_field,
)
from sgk.dynamics import _integrate_rows, _point_kernel, _velocity
from sgk.fields import CallableField
from sgk.phase_space import _axis_stencil

from helpers import generic_copy, hermitian_model, point_kernel, shifted, zeeman_connection


def uniform_zeeman(b=(0.0, 0.0, 1.0), **kw):
    return ZeemanScenario(b_field=np.asarray(b, dtype=float), **kw)


def linear_zeeman():
    # spatially varying coupling, time independent: canonical flow conserves E
    G = np.array([[0.2, 0.0, 0.1], [0.0, -0.15, 0.0], [0.05, 0.0, 0.25]])
    return ZeemanScenario(b_field=PolyField(f0=(0.1, -0.2, 1.1), G=G))


M1 = PhasePoint((0.3, -0.1, 0.2), (0.4, 0.2, -0.3), 0.0)


# -- config validation --------------------------------------------------------


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(StepError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rkf45")  # tolerance missing
    with pytest.raises(ValueError):
        IntegratorConfig(epsilon_abort=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(epsilon_abort=1.5)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(mode="midway")
    # values the CLI refuses: a non-finite t_end would run the whole step
    # budget, and a zero delta_p gives a NaN epsilon
    for bad in ({"t_end": np.nan}, {"t_end": np.inf}, {"t_end": -np.inf},
                {"max_steps": 2.5}, {"max_steps": 2.0}, {"max_steps": True},
                {"delta_p": 0.0}, {"delta_p": -0.5}, {"delta_p": np.nan},
                {"delta_p": np.inf}):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)
    assert IntegratorConfig(max_steps=np.int64(3), delta_p=0.5).max_steps == 3


# -- velocity field ------------------------------------------------------------


def test_lorentz_force_sign():
    scn = uniform_zeeman()
    em = ExternalEMField.uniform(E=(0.2, -0.1, 0.4), B=(0.0, 0.3, 0.9))
    v_p, v_r = velocity_field(scn.model(), 0, M1, em)
    # uniform coupling: no gauge force, rdot = p/m and pdot = e(E + rdot x B)
    assert np.allclose(v_r, M1.p)
    expect = em.e_field.value(M1.r, M1.t) + np.cross(M1.p, (0.0, 0.3, 0.9))
    assert np.allclose(v_p, expect, atol=1e-12)


def test_band_gradients_split_vs_dense():
    from sgk import Constants, HamiltonianModel, PAULI

    scn = linear_zeeman()
    split = scn.model()

    def dense(m):
        b = scn.b_field.value(m.r, m.t)
        return 0.5 * float(m.p @ m.p) * np.eye(2) + np.einsum(
            "k,kij->ij", b, PAULI)

    generic = HamiltonianModel(n=2, evaluate_raw=dense, constants=Constants())
    for band in (0, 1):
        E_s, g_s = band_gradients(split, band, M1)
        E_g, g_g = band_gradients(generic, band, M1)
        assert E_s == pytest.approx(E_g, abs=1e-9)
        assert np.allclose(g_s, g_g, atol=1e-6)


def test_band_gradients_degeneracy_guard():
    scn = ZeemanScenario.hedgehog()
    origin = PhasePoint((0.1, 0.0, 0.0), (0.0, 0.0, 1e-13), 0.0)
    with pytest.raises(DegeneracyError):
        band_gradients(scn.model(), 0, origin)


def test_spin_forces_are_band_opposite():
    scn = ZeemanScenario.hedgehog()
    mdot = np.array([0.1, -0.2, 0.3, 0.5, 0.0, -0.4, 1.0])
    m = PhasePoint((0.2, 0.1, 0.0), (0.3, -0.2, 0.8), 0.0)
    F0, F1 = (point_kernel(scn.model(), band, m).F for band in (0, 1))
    # traceless coupling: the bands' curvatures, and so their gauge forces
    # hbar F_rm . mdot and -hbar F_pm . mdot, are exact negatives
    assert np.array_equal(F0, -F1)
    assert np.linalg.norm(F0[3:6] @ mdot) > 0


def test_kernel_curvature_matches_closed_form():
    # the kernel's own curvature is the closed form
    scn = linear_zeeman()
    model = scn.model()
    m = PhasePoint((0.1, 0.0, -0.2), (0.2, 0.3, 0.1), 0.0)
    F = curvature_m_space(model, m).F
    for band in (0, 1):
        assert np.allclose(point_kernel(model, band, m).F, F[band], atol=1e-14)


def crafted_velocity(model, F, warn=True):
    """The velocity solve at M1 with the band-0 gradient and a given F (7, 7)."""
    X = M1.as_vector()[None]
    g = _point_kernel(model, np.array([0]), X, spin_force=False).grad
    return _velocity(model, X, g, F[None], None, "exact", warn)[0][0]


def test_velocity_singular_system_is_reported():
    F = np.zeros((7, 7))
    F[0, 3] = F[1, 4] = F[2, 5] = -1.0  # F_pr = -I/hbar
    with pytest.raises(SingularSystemError):
        crafted_velocity(uniform_zeeman().model(), F)


def test_near_singular_velocity_system_is_reported():
    # F_{p1 r1} = -(1 - delta)/hbar leaves M = diag(delta, 1, 1, delta, 1, 1):
    # solvable, but conditioned 1/delta, so only delta = 1e-13 is refused
    model = uniform_zeeman().model()

    def curvature(delta):
        F = np.zeros((7, 7))
        F[0, 3] = -(1.0 - delta)
        return F

    with pytest.raises(SingularSystemError,
                       match=r"velocity system is singular \(condition number \d\.\d{3}e\+1[23]\)"):
        crafted_velocity(model, curvature(1e-13))
    assert np.all(np.isfinite(crafted_velocity(model, curvature(1e-6), warn=False)))


def cut_field(scale=0.0):
    # B = (0.3 + scale r2, -0.2, 1 + scale r1) up to the plane r3 = 0.05 and
    # NaN past it, as a bare callable: the model differences H1 on a stencil
    # of half-width 1e-4 about each point
    return CallableField(lambda r, t: np.array([0.3 + scale * r[1], -0.2, 1.0 + scale * r[0]])
                         if r[2] <= 0.05 else np.full(3, np.nan))


@pytest.mark.parametrize("mode", ["exact", "reduced"])
def test_a_stencil_that_leaves_the_field_is_a_numerical_error(mode):
    # the centre r3 = 0.05 - 5e-5 is finite, but its stencil crosses the
    # plane: exact mode reported a singular system (condition number nan)
    # and reduced mode returned NaN velocities
    model = ZeemanScenario(b_field=cut_field()).model()
    m = PhasePoint((0.0, 0.0, 0.5), (0.0, 0.0, 0.05 - 5e-5))
    with pytest.raises(NumericalError, match="^band energy gradient is not finite$"):
        velocity_field(model, 0, m, mode=mode)
    # an ensemble row there fails at its launch, and the row beside it completes
    Y = np.array([np.r_[m.p, m.r], np.r_[-m.p, 0.0, 0.0, 0.0]])
    run = _integrate_rows(model, np.array([0, 1]), Y, 0.0,
                          IntegratorConfig(step=0.01, t_end=0.05, mode=mode))
    assert run.status == ["failed", "completed"]
    assert str(run.errors[0]) == "integration step 0: band energy gradient is not finite"


def test_the_first_row_with_a_non_finite_output_names_it():
    # at r = 0 the gradient is finite but J_r1 x J_r2 overflows the
    # curvature; at r3 = 0.05 - 5e-5 the stencil leaves the field
    model = ZeemanScenario(b_field=cut_field(1e200)).model()
    inside, edge = np.zeros(7), np.r_[0.0, 0.0, 0.5, 0.0, 0.0, 0.05 - 5e-5, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(_point_kernel(model, np.array([0]), inside[None], False).grad).all()
        for X, name in (([inside, edge], "curvature"), ([edge, inside], "energy gradient")):
            with pytest.raises(NumericalError, match=f"^band {name} is not finite$"):
                _point_kernel(model, np.array([0, 1]), np.array(X))


def test_integrate_attaches_step_index_to_errors():
    def failing(exc):
        def h1(m):
            raise exc
        return HamiltonianModel.from_split(h0=lambda m: 0.0, h1=h1)

    cfg = IntegratorConfig(step=1e-2, t_end=0.1)
    with pytest.raises(SingularityError, match="integration step 0") as info:
        integrate(failing(SingularityError("synthetic failure")), 0, M1, cfg)
    assert str(info.value) == "integration step 0: synthetic failure"

    with pytest.raises(ArithmeticError) as info:
        integrate(failing(ArithmeticError(34, "Numerical result out of range")), 0, M1, cfg)
    assert str(info.value) == (
        "integration step 0: 34, Numerical result out of range")


def test_divergence_is_a_numerical_error_at_its_step():
    flat = HamiltonianModel.from_split(
        h0=lambda m: 0.0, h1=lambda m: np.array([0.0, 0.0, 1.0]))
    cfg = IntegratorConfig(step=1.0, t_end=2.0, record_connection=False)
    # a force that turns infinite after t = 0.5 leaves a non-finite state
    # at the end of the step that crosses it
    kick = ExternalEMField(
        e_field=lambda r, t: (np.inf if t > 0.5 else 0.0, 0.0, 0.0))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalError, match="integration step 1: "
                           "phase-space state is no longer finite"):
            integrate(flat, 0, M1, cfg, em=kick)
    # with numpy set to raise, the overflow of a huge force is an error too
    huge = ExternalEMField.uniform(E=(1e308, 0.0, 0.0))
    with np.errstate(over="raise"):
        with pytest.raises(NumericalError, match="integration step 0: overflow"):
            integrate(flat, 0, M1, cfg, em=huge)


def test_non_finite_band_energy_is_a_numerical_error():
    # the force pushes r1 up until exp(10 r1) overflows: H0 is -inf with a
    # gap of 2, which is not a degeneracy
    model = HamiltonianModel.from_split(
        h0=lambda m: 0.5 * float(m.p @ m.p) - np.exp(10.0 * m.r[0]),
        h1=lambda m: np.array([0.0, 0.0, 1.0]))
    cfg = IntegratorConfig(step=0.5, t_end=2.0, record_connection=False)
    start = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="integration step 1: "
                           "band energy is not finite"):
            integrate(model, 0, start, cfg)


def test_overflowing_step_scale_is_a_numerical_error():
    # a finite state beyond about 1e154 overflows |m|, so no default
    # finite-difference step exists
    flat = HamiltonianModel.from_split(
        h0=lambda m: 0.0, h1=lambda m: np.array([0.0, 0.0, 1.0]))
    cfg = IntegratorConfig(step=1.0, t_end=2.0, record_connection=False)
    huge = ExternalEMField.uniform(E=(1e308, 0.0, 0.0))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="integration step 1: "
                           "coordinate norm overflows to inf"):
            integrate(flat, 0, M1, cfg, em=huge)
        with pytest.raises(NumericalError, match="overflows"):
            PhasePoint((1e200, 0.0, 0.0), np.zeros(3), 0.0).scale()
        with pytest.raises(NumericalError, match="overflows"):
            default_step(np.array([1e200, 0.0]))
    # finite scales keep their value
    assert PhasePoint((3.0, 4.0, 0.0), np.zeros(3), 0.0).scale() == 5.0
    assert default_step(np.array([0.3, 0.4])) == 1e-4


# -- canonical flow -------------------------------------------------------------


def test_free_drift_is_exact():
    scn = uniform_zeeman()
    cfg = IntegratorConfig(step=1e-2, t_end=1.0, record_connection=False)
    traj = integrate(scn.model(), 0, M1, cfg)
    assert traj.status == "completed"
    assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(traj.p[-1], M1.p, atol=1e-14)
    assert np.allclose(traj.r[-1], np.asarray(M1.r) + np.asarray(M1.p), atol=1e-12)


def test_canonical_flow_conserves_energy():
    scn = linear_zeeman()
    cfg = IntegratorConfig(step=1e-3, t_end=1.0, spin_force=False,
                           record_connection=False)
    traj = integrate(scn.model(), 0, M1, cfg)
    assert traj.status == "completed"
    energies = traj.energy
    assert np.max(np.abs(energies - energies[0])) < 1e-8


# the hedgehog core is strong by design, so the spin force is not small here
@pytest.mark.filterwarnings("ignore::sgk.SpinForceWarning")
def test_rk4_global_error_scales_fourth_order():
    # hedgehog core curvature plus Lorentz bending: rhs genuinely nonlinear,
    # so halving the step must shrink the global error about 16-fold
    scn = ZeemanScenario.hedgehog()
    em = ExternalEMField.uniform(E=(0.1, 0.0, 0.0), B=(0.0, 0.0, 0.8))
    start = PhasePoint((0.4, 0.1, -0.2), (0.6, 0.2, 0.8), 0.0)

    def run(step):
        cfg = IntegratorConfig(step=step, t_end=1.0, record_connection=False)
        traj = integrate(scn.model(), 1, start, cfg, em=em)
        return np.concatenate([traj.p[-1], traj.r[-1]])

    ref = run(1.0 / 800)
    err_h = np.linalg.norm(run(1.0 / 25) - ref)
    err_h2 = np.linalg.norm(run(1.0 / 50) - ref)
    assert err_h > 1e-11  # stays clear of the roundoff floor
    assert 12.0 < err_h / err_h2 < 20.0


def test_whole_number_of_steps_leaves_no_sliver():
    # 100 steps of t_end/100 sum to just under t_end; the last step must
    # absorb the shortfall instead of adding a 101st step of about 1e-14
    t_end = 2.0 * np.pi / 1.7
    cfg = IntegratorConfig(step=t_end / 100, t_end=t_end,
                           record_connection=False)
    traj = integrate(uniform_zeeman().model(), 0, M1, cfg)
    assert traj.status == "completed"
    assert len(traj.t) == 101
    assert traj.t[-1] == t_end


def test_the_record_has_one_row_per_state():
    # row 0 is the initial point with its bits, a t of -0.0 included; the
    # rows after it are the RK loop's accepted states at t0 + s
    start = PhasePoint(M1.p, M1.r, -0.0)
    traj = integrate(linear_zeeman().model(), 1, start, IntegratorConfig(step=0.1, t_end=0.35))
    assert traj.status == "completed" and traj.band == 1 and traj.hbar == 1.0
    assert np.signbit(traj.t[0]) and traj.t.tolist()[1:] == pytest.approx([0.1, 0.2, 0.3, 0.35])
    assert np.hstack([traj.p[0], traj.r[0]]).tobytes() == np.hstack([start.p, start.r]).tobytes()
    shapes = {k: getattr(traj, k).shape for k in ("p", "r", "v", "a", "energy", "berry_phase")}
    assert shapes == {"p": (5, 3), "r": (5, 3), "v": (5, 6), "a": (5, 7), "energy": (5,),
                      "berry_phase": (5,)}


def test_rkf45_matches_rk4():
    scn = linear_zeeman()
    fine = IntegratorConfig(step=5e-4, t_end=0.5, record_connection=False)
    adaptive = IntegratorConfig(method="rkf45", step=1e-2, tolerance=1e-10,
                                t_end=0.5, record_connection=False)
    a = integrate(scn.model(), 1, M1, fine)
    b = integrate(scn.model(), 1, M1, adaptive)
    assert b.t[-1] == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(a.p[-1], b.p[-1], atol=1e-8)
    assert np.allclose(a.r[-1], b.r[-1], atol=1e-8)
    # the controller should take far fewer accepted steps than fixed fine rk4
    assert len(b.t) < 200


# -- Liouville's theorem ------------------------------------------------------------


def phase_space_density(model, band, x, em):
    """D = sqrt(det M) at the row x = (p, r, t), M the exact velocity system
    [[I - hbar F_rp, -hbar F_rr - (e/c) XB], [hbar F_pp, I + hbar F_pr]]
    with XB v = v x B, built here from the kernel's curvature and the field."""
    d = (len(x) - 1) // 2
    F = _point_kernel(model, np.array([band]), x[None]).F[0][:2 * d, :2 * d]
    cst = model.constants
    XB = np.cross(np.eye(3), em.b_field.value(x[d:2 * d], x[-1])).T[:d, :d]
    M = np.eye(2 * d) + cst.hbar * np.concatenate([-F[d:], F[:d]])
    M[:d, d:] -= (cst.e / cst.c) * XB
    return np.sqrt(np.linalg.det(M))


def liouville_case(kind):
    if kind in ("spin-orbit", "generic"):  # F_pp and F_pr too, so D moves along the flow
        scn = SpinOrbitScenario(e_field=PolyField.random(3, (0.3, -0.2, 0.1)),
                                b_field=PolyField.random(4, (0.2, 0.5, 0.9)), hbar=0.3, rho=0.8)
        if kind == "generic":  # its sum over states costs ~10x per step: a quarter of the run
            return generic_copy(scn.model()), ExternalEMField(), 0.25
        return scn.model(), ExternalEMField(), 1.0
    # Zeeman: F_rr and F_rt only, so D = 1 and the Lorentz and gauge forces,
    # both time dependent, must leave the flow free of divergence
    rng = np.random.default_rng(7)
    em = ExternalEMField(
        e_field=PolyField((0.2, -0.1, 0.3), G=rng.uniform(-0.2, 0.2, (3, 3)),
                          gt=(0.1, 0.2, -0.1)),
        b_field=PolyField((0.3, 0.4, -0.5), G=rng.uniform(-0.2, 0.2, (3, 3)),
                          gt=(-0.2, 0.1, 0.15)))
    return ZeemanScenario(b_field=PolyField.random(5, (0.3, -0.4, 1.2)), hbar=0.3).model(), em, 1.0


@pytest.mark.parametrize("band", [0, 1])
@pytest.mark.parametrize("kind", ["spin-orbit", "zeeman-em", "generic"])
def test_exact_flow_conserves_the_phase_space_density(kind, band):
    # Liouville: d_t D + div(D v) = 0 with D = sqrt(det M), so the flow map's
    # Jacobian has det(dy_T/dy_0) = D(0)/D(T). The Jacobian is the central
    # difference of 2(2d) rows at +-delta about the centre, all rows of one
    # rk4 loop. The residual is bounded by RK4's global O(h^4), the O(delta^2)
    # truncation and roundoff/delta, each with a unit constant: 6.3e-6, where
    # at most 2.2e-8 is seen, and det M in place of its root, or a flipped
    # F_pm block, gives 3e-3 to 1e-2 for spin-orbit and 2e-3 to 3e-3 for its
    # generic copy. Reduced mode drops O(hbar^2) terms of the velocities and
    # is not expected to conserve D.
    model, em, t_end = liouville_case(kind)
    h, delta = 0.05, 1e-4
    y0 = np.array([0.3, -0.2, 0.1, 0.05, 0.1, -0.1])
    n = len(y0)
    Y = np.vstack([y0, y0 + delta * np.eye(n), y0 - delta * np.eye(n)])
    run = _integrate_rows(model, np.full(len(Y), band), Y, 0.0,
                          IntegratorConfig(step=h, t_end=t_end), em)
    assert set(run.status) == {"completed"}
    jacobian = (run.y[1:n + 1] - run.y[n + 1:]).T / (2.0 * delta)
    ratio = (phase_space_density(model, band, np.append(run.y[0], t_end), em)
             / phase_space_density(model, band, np.append(y0, 0.0), em))
    bound = h ** 4 + delta ** 2 + np.finfo(float).eps / delta
    assert abs(np.linalg.det(jacobian) * ratio - 1.0) < bound


# -- phases ---------------------------------------------------------------------


def rotating_setup(theta=np.pi / 3.0, omega=0.8, b=1.0):
    field = RotatingField(magnitude=b, polar_angle=theta, omega=omega)
    scn = ZeemanScenario(b_field=field)
    return scn, 2.0 * np.pi / omega


def test_phase_decomposition_on_a_coupling_loop():
    # coupling precesses once around the cone; the eigenstate returns to
    # itself, picking up -2 pi S (1 - cos theta) of geometric phase while
    # the dynamic phase follows (p.rdot - E)/hbar
    theta, omega, b = np.pi / 3.0, 0.8, 1.0
    scn, T = rotating_setup(theta, omega, b)
    p0 = np.array([0.3, 0.0, 0.0])
    start = PhasePoint(p0, np.zeros(3), 0.0)
    cfg = IntegratorConfig(step=T / 250.0, t_end=T)
    traj = integrate(scn.model(), 1, start, cfg)
    assert traj.status == "completed"

    # the connection is differenced with step ~1e-4 scale(m), so the
    # accumulated phase carries an O(1e-8) truncation bias
    berry = traj.berry_phase[-1]
    assert berry == pytest.approx(-np.pi * (1.0 - np.cos(theta)), abs=1e-6)

    # dynamic phase: the rate (p.rdot - E)/hbar is constant on this loop
    E_up = 0.5 * float(p0 @ p0) + b
    dyn = traj.dynamic_phase[-1]
    assert dyn == pytest.approx(T * (float(p0 @ p0) - E_up), abs=1e-8)

    # the same loop phase from the line integral over the time axis
    field = AdiabaticConnectionField(scn.model(), start, axes=(6,))
    loop = phase_line_integral(field, np.array([[0.0], [T]]), band=1)
    assert loop.value == pytest.approx(berry, abs=1e-6)


def test_phase_is_band_antisymmetric_on_the_loop():
    scn, T = rotating_setup()
    start = PhasePoint((0.3, 0.0, 0.0), np.zeros(3), 0.0)
    cfg = IntegratorConfig(step=T / 250.0, t_end=T)
    up = integrate(scn.model(), 1, start, cfg).berry_phase[-1]
    dn = integrate(scn.model(), 0, start, cfg).berry_phase[-1]
    assert up == pytest.approx(-dn, abs=1e-7)


def test_generalized_coordinates_identity():
    scn = ZeemanScenario.hedgehog()
    start = PhasePoint((0.2, 0.0, 0.1), (0.3, -0.2, 0.9), 0.0)
    cfg = IntegratorConfig(step=1e-2, t_end=0.1)
    traj = integrate(scn.model(), 1, start, cfg)
    hb = scn.model().constants.hbar
    P, R = traj.generalized()
    assert np.array_equal(P, traj.p + hb * traj.a[:, 3:6])
    assert np.array_equal(R, traj.r - hb * traj.a[:, :3])


def test_generalized_requires_connection_recording():
    scn = uniform_zeeman()
    cfg = IntegratorConfig(step=1e-2, t_end=0.05, record_connection=False)
    traj = integrate(scn.model(), 0, M1, cfg)
    assert traj.a is None
    assert traj.berry_phase[-1] == 0.0
    with pytest.raises(ValueError):
        traj.generalized()


# -- adiabaticity ----------------------------------------------------------------


def test_epsilon_of_linear_ramp():
    # B(t) = B0 + beta t along z: epsilon = beta / (4 chi B(t)^2), hbar-free
    chi, B0, beta = 0.8, 1.0, 1.2
    scn = ZeemanScenario(
        b_field=PolyField(f0=(0.0, 0.0, B0), gt=(0.0, 0.0, beta)), chi=chi)
    for t in (0.0, 0.3, 0.7):
        m = PhasePoint(np.zeros(3), np.zeros(3), t)
        eps = adiabaticity_epsilon(scn.model(), 0, m)
        B = B0 + beta * t
        assert eps == pytest.approx(beta / (4.0 * chi * B * B), rel=1e-9)
    # epsilon does not depend on hbar here: the gap and the rate both scale
    scn2 = ZeemanScenario(
        b_field=PolyField(f0=(0.0, 0.0, B0), gt=(0.0, 0.0, beta)), chi=chi,
        hbar=1e-3)
    m = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    assert adiabaticity_epsilon(scn2.model(), 0, m) == pytest.approx(
        beta / (4.0 * chi * B0 * B0), rel=1e-9)


def test_fast_ramp_breaches_immediately():
    scn = ZeemanScenario(
        b_field=PolyField(f0=(0.0, 0.0, 1.0), gt=(0.0, 0.0, 5.0)))
    cfg = IntegratorConfig(step=1e-3, t_end=1.0)
    start = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    traj = integrate(scn.model(), 0, start, cfg)
    assert traj.status == "adiabaticity_breach"
    assert traj.breached
    assert len(traj.t) == 1
    assert traj.epsilon[-1] == pytest.approx(1.25, rel=1e-9)


def test_slow_ramp_completes_below_threshold():
    scn = ZeemanScenario(
        b_field=PolyField(f0=(0.0, 0.0, 1.0), gt=(0.0, 0.0, 0.4)))
    cfg = IntegratorConfig(step=1e-2, t_end=1.0, epsilon_abort=0.5)
    start = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    traj = integrate(scn.model(), 0, start, cfg)
    assert traj.status == "completed"
    assert traj.epsilon.max() < 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scn", [uniform_zeeman(), linear_zeeman()], ids=["uniform", "linear"])
@pytest.mark.parametrize("p1", [1e-160, 1e-155])
def test_epsilon_stays_finite_near_rest(scn, p1):
    # delta_p = gap / |grad_p E| is above 1e154 here, so delta_p^2 overflows;
    # the momentum term, |grad_r E| |grad_p E| / gap^2, is below 1e-150
    model, m = scn.model(), PhasePoint((p1, 0.0, 0.0), (0.1, 0.0, 0.0), 0.0)
    assert 0.0 <= adiabaticity_epsilon(model, 0, m) < 1e-150
    traj = integrate(model, 0, m, IntegratorConfig(step=0.01, t_end=0.05))
    assert traj.status == "completed"
    assert np.isfinite(traj.epsilon).all()


@pytest.mark.filterwarnings("error")
def test_epsilon_divides_by_an_overflowing_gap_twice():
    # the gap 2e154 squares past the largest float; epsilon there is
    # (|dE/dt| / gap) / gap, with dE/dt = -1e150 on band 0
    scn = ZeemanScenario(b_field=PolyField(f0=(0.0, 0.0, 1e154), gt=(0.0, 0.0, 1e150)))
    m = PhasePoint((0.1, 0.0, 0.0), np.zeros(3), 0.0)
    assert adiabaticity_epsilon(scn.model(), 0, m) == pytest.approx(
        1e150 / 2e154 / 2e154, rel=1e-15)


def test_spin_force_warning_fires_once_per_trajectory():
    # close to the hedgehog core the gauge force rivals the band force
    scn = ZeemanScenario.hedgehog()
    start = PhasePoint((0.4, 0.0, 0.0), (0.0, 0.0, 0.35), 0.0)
    cfg = IntegratorConfig(step=1e-3, t_end=0.02, record_connection=False)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        integrate(scn.model(), 1, start, cfg)
    hits = [w for w in rec if issubclass(w.category, SpinForceWarning)]
    assert len(hits) == 1


def test_spin_force_ratio_keeps_the_bits_of_linalg_norm():
    # the ratio decides where SpinForceWarning fires; a row's norms must
    # round like np.linalg.norm of that row, which sqrt(sum(x * x)) does not
    model = ZeemanScenario(b_field=PolyField.random(7, (0.2, -0.1, 0.6))).model()
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.uniform(-1.0, 1.0, (64, 6)), rng.uniform(0.0, 1.0, (64, 1))], axis=1)
    bands = rng.integers(0, 2, 64)
    em = ExternalEMField.uniform(E=(0.3, -0.2, 0.1), B=(0.1, 0.4, -0.3))
    k = _point_kernel(model, bands, X)
    v, ratio = _velocity(model, X, k.grad, k.F, em, "exact", True)
    cst = model.constants
    for i in range(len(X)):
        mdot, F, g = np.append(v[i], 1.0), k.F[i], k.grad[i]
        gauge = max(np.linalg.norm(F[3:6] @ mdot), np.linalg.norm(F[:3] @ mdot))
        rhs_p0 = -g[3:6] + cst.e * em.e_field.value(X[i, 3:6], X[i, 6])
        base = max(np.linalg.norm(rhs_p0), np.linalg.norm(g[:3]), 1e-300)
        assert ratio[i] == cst.hbar * gauge / base


@pytest.mark.parametrize("mode", ["exact", "reduced"])
@pytest.mark.parametrize("with_ratio", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_velocity_without_fields_has_the_bits_of_zero_fields(mode, with_ratio, d):
    # em=None evaluates no field, yet must round like zero fields: e 0.0 turns
    # -grad_r E = -0.0 into +0.0, and a zero B puts -0.0 into the Lorentz matrix
    model = (ZeemanScenario(b_field=PolyField.random(7, (0.2, -0.1, 0.6))) if d == 3
             else RashbaScenario(b_z=0.7)).model()
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.uniform(-1.0, 1.0, (6, 2 * d)), rng.uniform(0.0, 1.0, (6, 1))], axis=1)
    k = _point_kernel(model, rng.integers(0, 2, 6), X)
    g = k.grad.copy()
    g[0, :2 * d] = 0.0
    g[1, :2 * d] = -0.0
    g[2, d:2 * d] = [(-1.0) ** i * 0.0 for i in range(d)]
    for F in (k.F, None):
        want = _velocity(model, X, g, F, ExternalEMField.uniform(), mode, with_ratio)
        got = _velocity(model, X, g, F, None, mode, with_ratio)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_spin_force_warning_fires_where_a_benign_start_turns_marginal():
    # an upper-band state falls toward the hedgehog core: the spin force is
    # about 0.13 of the band force at the start and passes 0.5 near t = 1.35
    # for about a hundred accepted steps; only the first of them warns
    scn = ZeemanScenario.hedgehog()
    start = PhasePoint((0.0, 0.6, 0.0), (1.5, 0.0, 0.1), 0.0)

    def warnings_until(t_end):
        cfg = IntegratorConfig(step=0.02, t_end=t_end, record_connection=False)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            traj = integrate(scn.model(), 1, start, cfg)
        assert traj.status == "completed"
        return [w for w in rec if issubclass(w.category, SpinForceWarning)]

    assert warnings_until(1.0) == []
    hits = warnings_until(3.0)
    assert len(hits) == 1
    assert hits[0].filename == __file__  # attributed to the integrate call


# -- point kernel ------------------------------------------------------------------


def kernel_case(kind, seed):
    """A random split-form scenario with exact derivatives and a point to probe."""
    rng = np.random.default_rng(seed)
    chi = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
    offset = rng.uniform(-1.0, 1.0, 3)
    if kind == "rashba":
        scn = RashbaScenario(b_z=float(rng.uniform(0.3, 1.5)), chi=chi,
                             rho=float(rng.uniform(0.5, 1.0)),
                             hbar=float(rng.uniform(0.05, 1.0)))
        return scn.model(), PhasePoint(rng.uniform(-0.5, 0.5, 2),
                                       rng.uniform(-0.5, 0.5, 2), 0.0)
    m = PhasePoint(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3),
                   float(rng.uniform(-0.5, 0.5)))
    if kind == "poly":
        field = PolyField.random(seed, offset)
    elif kind == "linear":
        field = PolyField(f0=offset, G=0.3 * rng.uniform(-1, 1, (3, 3)),
                          gt=0.3 * rng.uniform(-1, 1, 3))
    elif kind == "rotating":
        field = RotatingField(magnitude=float(rng.uniform(0.5, 1.5)),
                              polar_angle=float(rng.uniform(0.1, 3.0)),
                              omega=float(rng.uniform(-2.0, 2.0)),
                              phi0=float(rng.uniform(0.0, 6.0)))
    else:
        e_field = PolyField(f0=rng.uniform(-1, 1, 3),
                            G=0.3 * rng.uniform(-1, 1, (3, 3)),
                              gt=0.3 * rng.uniform(-1, 1, 3))
        return SpinOrbitScenario(e_field=e_field,
                                 b_field=PolyField.random(seed, offset), chi=chi,
                                 rho=float(rng.uniform(0.3, 1.0))).model(), m
    return ZeemanScenario(b_field=field, chi=chi).model(), m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["poly", "linear", "rotating", "spin_orbit", "rashba"]),
       seed=st.integers(0, 2**32 - 1), band=st.integers(0, 1))
def test_point_kernel_matches_finite_difference_oracles(kind, seed, band):
    model, m = kernel_case(kind, seed)
    b = model.split.h1_vector(m)
    nb = float(np.linalg.norm(b))
    # away from degeneracies, and from b_z = 0, where the frames' gauge
    # switches patch inside the differencing stencil
    assume(nb > 0.3 and abs(b[2]) > 1e-2 * nb)
    k = point_kernel(model, band, m, connection=True)
    E, g = band_gradients(model, band, m)
    assert k.energy == pytest.approx(E, abs=1e-12)
    assert k.gap == pytest.approx(2 * model.constants.hbar * nb, rel=1e-14)
    assert np.allclose(k.grad, g, rtol=0.0, atol=1e-6 * max(1.0, np.max(np.abs(g))))
    F_fd = curvature_m_space(model, m).F[band]
    F_pl = adiabatic_curvature_numeric(model, m).F[band]
    f_scale = max(1.0, float(np.max(np.abs(F_fd))))
    assert np.allclose(k.F, F_fd, rtol=0.0, atol=1e-6 * f_scale)
    assert np.allclose(k.F, F_pl, rtol=0.0, atol=1e-5 * f_scale)
    A = exact_connection(model, m).diagonal().components[:, band]
    assert np.allclose(k.a_diag, A, rtol=0.0, atol=1e-6 * max(1.0, np.max(np.abs(A))))


def test_point_kernel_tie_rule_at_bz_zero():
    # at b_z = 0 exactly, component 0 wins the largest-component tie: the
    # upper band takes the north patch and the lower band the south patch
    G = np.array([[0.2, 0.0, 0.1], [0.3, -0.15, 0.0], [0.05, 0.4, 0.25]])
    scn = ZeemanScenario(b_field=PolyField(f0=(0.6, -0.8, 0.0), G=G))
    model = scn.model()
    m = PhasePoint((0.1, 0.2, 0.3), np.zeros(3), 0.0)
    b, J = scn.jacobian(m)
    assert b[2] == 0.0
    for band, patch in ((1, "north"), (0, "south")):
        A = point_kernel(model, band, m, spin_force=False, connection=True).a_diag
        assert np.allclose(A, zeeman_connection(b, band, patch) @ J,
                           rtol=0.0, atol=1e-15)


def test_fields_without_derivatives_keep_the_difference_path():
    class ValueOnly(VectorField):
        def value(self, r, t):
            return np.array([0.1, 0.2, 1.0]) + 0.1 * np.asarray(r)

    cfg = IntegratorConfig(step=0.01, t_end=0.02)
    for field in (ValueOnly(), lambda r, t: np.array([0.1, 0.2, 1.0]) + 0.1 * r):
        model = ZeemanScenario(b_field=field).model()
        assert model.split.jacobian_rows is None
        assert integrate(model, 0, M1, cfg).status == "completed"
    assert ZeemanScenario(b_field=(0.1, 0.2, 1.0)).model().split.jacobian_rows is not None


EPS = np.finfo(float).eps


def dH_scales(model, m):
    """(|H|, L, K, gap) at m: the largest |H_ij| on the stencil, the largest
    spectral norms of dH/dm_k and d2H/dm_k2 (central differences at the
    default step) and the smallest gap."""
    h = default_step(m)
    H = model.evaluate_stack(_axis_stencil(m.as_vector(), h, range(m.n_axes)))
    norm = lambda Y: float(np.linalg.norm(Y, ord=2, axis=(1, 2)).max())
    return (float(np.abs(H).max()), norm((H[1::2] - H[2::2]) / (2 * h)),
            norm((H[1::2] - 2 * H[0] + H[2::2]) / h**2), diagonalize(model, m).gap)


def kernel_roundoff(model, m):
    """Error bounds of the generic kernel at m for a model at most quadratic
    in m, whose central differences of H are exact: dH/dm then carries only
    the roundoff delta = 4 n eps |H| / h of the stencil. E and the gap are
    within 8 eps |H|, grad E within delta, each c_m within delta/g, so A
    within sqrt(n) delta/g (|U_kb| >= 1/sqrt(n)), and F within 4 L delta/g^2."""
    Hmax, L, _, g = dH_scales(model, m)
    delta = 4 * model.n * EPS * Hmax / default_step(m)
    return dict(energy=8 * EPS * Hmax, grad=delta, gap=8 * EPS * Hmax,
                a_diag=np.sqrt(model.n) * delta / g, F=4 * L * delta / g**2)


def test_generic_point_takes_one_eigensolve(monkeypatch):
    # N generic rows take one eigensolve of their N centre matrices and
    # N(2D + 1) evaluated rows, never the plaquette, and a copy of a split
    # model gives the split kernel's closed form to roundoff
    model = linear_zeeman().model()
    generic = generic_copy(model)
    points = [M1, shifted(M1, 4, 0.3), shifted(M1, 6, -0.2), shifted(M1, 0, 0.5)]
    X, bands = np.array([m.as_vector() for m in points]), np.array([0, 1, 1, 0])

    calls, evaluated = [], []
    eigh, evaluate_stack = np.linalg.eigh, HamiltonianModel.evaluate_stack

    def counting_eigh(H):
        calls.append(H.shape)
        return eigh(H)

    def counting_stack(self, Y):
        evaluated.append(len(Y))
        return evaluate_stack(self, Y)

    def plaquette(*args, **kwargs):
        raise AssertionError("the generic kernel called the plaquette")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(HamiltonianModel, "evaluate_stack", counting_stack)
    monkeypatch.setattr(sgk.gauge, "adiabatic_curvature_numeric", plaquette)
    for N in (1, 4):
        calls.clear()
        evaluated.clear()
        got = _point_kernel(generic, bands[:N], X[:N], connection=True)
        assert calls == [(N, 2, 2)]
        assert sum(evaluated) == N * (2 * 7 + 1)
    monkeypatch.undo()

    want = _point_kernel(model, bands, X, connection=True)
    for i, m in enumerate(points):
        for key, tol in kernel_roundoff(model, m).items():
            assert np.abs(getattr(got, key)[i] - getattr(want, key)[i]).max() <= tol, key


@pytest.mark.parametrize("kind", ["zeeman", "rashba"])
def test_generic_copies_integrate_like_the_split_model(kind):
    # both bands, both modes, with em fields: only the roundoff delta of the
    # generic kernel's dH separates the runs. Over T = 0.1, with O(1) gaps,
    # speeds and Lipschitz constants, it moves the state, E, epsilon and the
    # phases by well under delta
    rng = np.random.default_rng(5)
    if kind == "rashba":
        scn = RashbaScenario(b_z=1.2, e_inplane=(0.2, -0.1), rho=0.8)
        em, m = scn.em(), PhasePoint((0.3, -0.2), (0.1, 0.4), 0.0)
    else:
        scn = ZeemanScenario(b_field=PolyField.random(5, rng.uniform(-0.5, 0.5, 3)))
        em = ExternalEMField.uniform(E=(0.2, -0.1, 0.3), B=(0.1, 0.4, -0.3))
        m = M1
    model = scn.model()
    delta = kernel_roundoff(model, m)["grad"]
    for mode in ("exact", "reduced"):
        config = IntegratorConfig(step=0.01, t_end=0.1, mode=mode)
        for band in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SpinForceWarning)
                want = integrate(model, band, m, config, em=em)
                got = integrate(generic_copy(model), band, m, config, em=em)
            assert got.status == want.status == "completed"
            assert len(got.t) == len(want.t) == 11
            final = [np.hstack([traj.p[-1], traj.r[-1]]) for traj in (got, want)]
            assert np.abs(final[0] - final[1]).max() <= delta
            for key in ("energy", "epsilon", "berry_phase", "dynamic_phase"):
                assert abs(getattr(got, key)[-1] - getattr(want, key)[-1]) <= delta, key


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (3, 2), (4, 3)])
def test_generic_kernel_matches_the_oracles_beyond_two_bands(n, seed):
    # the oracles difference eigenvalues and frames at step h: band_gradients
    # and exact_connection leave h^2/6 times a third derivative, at most
    # 6 (L^3/g^2 + L K/g) for E and 6 (L/g)^3 for the frames, plus their
    # roundoff eps|H|/h and eps|H|/(g h); the Richardson plaquette leaves
    # loop-angle roundoff 8 eps|H|/g over h^2, with weight 17/3
    model = hermitian_model(seed, n)
    rng = np.random.default_rng(seed)
    m = PhasePoint(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3),
                   float(rng.uniform(-0.5, 0.5)))
    Hmax, L, K, g = dH_scales(model, m)
    h = default_step(m)
    U = diagonalize(model, m).U
    top = -np.sort(-np.abs(U), axis=0)[:2]
    assert (top[1] < 0.99 * top[0]).all()  # no tie of the largest components
    own = kernel_roundoff(model, m)
    F_pl = adiabatic_curvature_numeric(model, m).F
    A_fd = exact_connection(model, m).diagonal().components
    for band in range(n):
        k = point_kernel(model, band, m, connection=True)
        E, grad = band_gradients(model, band, m)
        assert abs(k.energy - E) <= own["energy"]
        assert np.abs(k.grad - grad).max() <= (
            own["grad"] + h**2 * (L**3 / g**2 + L * K / g) + EPS * Hmax / h)
        assert np.abs(k.F - F_pl[band]).max() <= own["F"] + 17 / 3 * 8 * EPS * Hmax / g / h**2
        assert np.abs(k.a_diag - A_fd[:, band]).max() <= (
            own["a_diag"] + h**2 * (L / g)**3 + EPS * Hmax / (g * h))


# -- contour displacement ---------------------------------------------------------


def test_displacement_contour_basics():
    # constant curvature: closed contours displace nothing, open ones
    # displace by f x (p_end - p_start)
    f = np.array([0.0, 0.0, 0.7])
    const = lambda p: f
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]],
                      dtype=float)
    assert np.allclose(displacement_contour(square, const), 0.0, atol=1e-15)
    seg = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(displacement_contour(seg, const, hbar=2.0),
                       2.0 * np.cross(f, [1.0, 0.0, 0.0]))


def test_displacement_contour_band_stack():
    stack = lambda p: np.array([[0.0, 0.0, +1.0], [0.0, 0.0, -1.0]])
    seg = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    d0 = displacement_contour(seg, stack, band=0)
    d1 = displacement_contour(seg, stack, band=1)
    assert np.allclose(d0, -d1)
    with pytest.raises(ValueError):
        displacement_contour(seg, stack)
    with pytest.raises(ValueError):
        displacement_contour(seg[:1], stack, band=0)


# -- effective fields --------------------------------------------------------------


def test_effective_fields_of_hedgehog():
    # B(r) = r: the gauge force mimics a monopole B_spin = -(hbar c/e) S r/|r|^3
    fields = effective_em_fields(lambda r, t: r, r=np.array([0.0, 0.0, 1.0]))
    assert np.allclose(fields.b_spin[1], [0.0, 0.0, -0.5], atol=1e-9)
    assert np.allclose(fields.b_spin[0], [0.0, 0.0, +0.5], atol=1e-9)
    assert np.allclose(fields.b_eff, np.array([[0, 0, 1]]) + fields.b_spin)
    assert np.allclose(fields.e_spin, 0.0, atol=1e-12)


def test_effective_fields_time_ramp_gives_electric_part():
    # B(r, t) = r + a t z-hat at r=(0,1,1): F_rt = -S b.(e_i x a z)/|b|^3
    a = 0.4
    bf = PolyField(f0=np.zeros(3), G=np.eye(3), gt=(0.0, 0.0, a))
    fields = effective_em_fields(bf, r=np.array([0.0, 1.0, 1.0]), t=0.0)
    want = 0.5 * a / (2.0 * np.sqrt(2.0))
    assert np.allclose(fields.e_spin[1], [+want, 0.0, 0.0], atol=1e-9)
    assert np.allclose(fields.e_spin[0], [-want, 0.0, 0.0], atol=1e-9)


def test_effective_fields_singular_at_zero():
    with pytest.raises(SingularityError):
        effective_em_fields(lambda r, t: r, r=np.zeros(3))
