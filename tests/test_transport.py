"""Band-paired ensembles: sampling, observables, determinism, failure paths."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgk.dynamics
from sgk import (
    ConstraintDriftWarning,
    EnsembleError,
    EnsembleSpec,
    ExternalEMField,
    HamiltonianModel,
    IndexField,
    IntegratorConfig,
    LinearIndex,
    OpticalScenario,
    PhasePoint,
    PolyField,
    RashbaScenario,
    SgkError,
    TransportReport,
    UniformIndex,
    ZeemanScenario,
    displacement_contour,
    draw_samples,
    integrate,
    magnus_ray,
    polarization_current,
    run_ensemble,
)
from sgk.cli import main
from sgk.dynamics import _integrate_rows
from sgk.fields import CallableField
from sgk.transport import _batch

from helpers import generic_copy, hermitian_model, plane_cut_spec

EY = np.array([0.0, 1.0, 0.0])


def rashba_spec(scn, *, count, seed, t_end, step=1e-3, em=None,
                p_center=(0.1, 0.0), p_spread=(0.02, 0.0)):
    # phases are not needed for transport observables, so skip recording
    config = IntegratorConfig(step=step, t_end=t_end, record_connection=False)
    return EnsembleSpec(count=count, config=config,
                        p_center=np.asarray(p_center, dtype=float),
                        r_center=np.zeros(2),
                        p_spread=np.asarray(p_spread, dtype=float),
                        seed=seed, model=scn.model(),
                        em=scn.em() if em is None else em,
                        transverse_axis=scn.transverse_axis())


# -- sampling -----------------------------------------------------------------


def test_draw_samples_random_shape_bounds_determinism():
    scn = RashbaScenario()
    spec = EnsembleSpec(count=40, config=IntegratorConfig(),
                        p_center=np.array([0.3, -0.1]),
                        r_center=np.array([0.0, 0.5]),
                        p_spread=np.array([0.05, 0.0]),
                        r_spread=np.array([0.2, 0.1]),
                        seed=11, model=scn.model())
    a = draw_samples(spec)
    assert a.shape == (40, 2, 2)
    assert np.array_equal(a, draw_samples(spec))
    assert np.all(np.abs(a[:, 0, 0] - 0.3) <= 0.05)
    assert np.all(np.abs(a[:, 1, 0]) <= 0.2)
    assert np.all(np.abs(a[:, 1, 1] - 0.5) <= 0.1)
    # a zero spread pins its coordinate exactly, not just approximately
    assert np.all(a[:, 0, 1] == -0.1)
    assert not np.array_equal(a, draw_samples(replace(spec, seed=12)))


def test_draw_samples_grid_covers_the_box():
    scn = RashbaScenario()
    spec = EnsembleSpec(count=9, config=IntegratorConfig(),
                        p_center=np.zeros(2), r_center=np.zeros(2),
                        p_spread=np.array([0.1, 0.1]),
                        sampler="grid", model=scn.model())
    pts = draw_samples(spec)
    assert pts.shape == (9, 2, 2)
    assert np.allclose(np.unique(pts[:, 0, 0]), [-0.1, 0.0, 0.1])
    assert np.allclose(np.unique(pts[:, 0, 1]), [-0.1, 0.0, 0.1])
    assert np.all(pts[:, 1, :] == 0.0)
    # degenerate box collapses onto the center
    assert np.all(draw_samples(replace(spec, p_spread=np.zeros(2))) == 0.0)


def test_grid_sampler_needs_a_full_grid():
    scn = ZeemanScenario.hedgehog()
    spec = EnsembleSpec(count=5**5, config=IntegratorConfig(),
                        p_center=np.array([0.3, 0.0, 0.0]),
                        r_center=np.array([0.0, 0.0, 1.0]),
                        p_spread=np.full(3, 0.1),
                        r_spread=np.array([0.1, 0.1, 0.0]),
                        sampler="grid", model=scn.model())
    pts = draw_samples(spec).reshape(-1, 6)
    # five points per active axis, the full lattice centred on the box
    for axis in range(5):
        assert np.unique(pts[:, axis]).size == 5
    assert np.allclose(pts.mean(axis=0), [0.3, 0.0, 0.0, 0.0, 0.0, 1.0])
    # 32 points cannot fill a grid on 4 axes
    with pytest.raises(ValueError, match="perfect power"):
        replace(spec, count=32, r_spread=np.array([0.1, 0.0, 0.0]))


def test_spec_validation():
    scn = RashbaScenario()
    config = IntegratorConfig()
    ok = dict(config=config, p_center=np.zeros(2), r_center=np.zeros(2),
              model=scn.model())
    with pytest.raises(ValueError, match="count"):
        EnsembleSpec(count=0, **ok)
    with pytest.raises(ValueError, match="exactly one"):
        EnsembleSpec(count=1, config=config, p_center=np.zeros(2),
                     r_center=np.zeros(2))
    with pytest.raises(ValueError, match="exactly one"):
        EnsembleSpec(count=1, config=config, p_center=np.zeros(3),
                     r_center=np.zeros(3), model=scn.model(),
                     optical=OpticalScenario(UniformIndex()))
    with pytest.raises(ValueError, match="sampler"):
        EnsembleSpec(count=1, sampler="sobol", **ok)
    with pytest.raises(ValueError, match="equal-length"):
        EnsembleSpec(count=1, config=config, p_center=np.zeros(2),
                     r_center=np.zeros(3), model=scn.model())
    with pytest.raises(ValueError, match="spread"):
        EnsembleSpec(count=1, p_spread=np.array([-0.1, 0.0]), **ok)
    with pytest.raises(ValueError, match="spread"):
        EnsembleSpec(count=1, r_spread=np.array([0.1]), **ok)
    with pytest.raises(ValueError, match="transverse_axis"):
        EnsembleSpec(count=1, transverse_axis=np.zeros(3), **ok)
    spec = EnsembleSpec(count=1, transverse_axis=(0.0, 2.0, 0.0), **ok)
    assert np.allclose(spec.transverse_axis, EY)
    # entries whose 2-norm over- or underflows keep their direction; ordinary ones their bits
    for big in (1e200, 1e-200):
        spec = EnsembleSpec(count=1, transverse_axis=(big, -big, 0.0), **ok)
        assert np.array_equal(spec.transverse_axis, np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0))
    ax = np.array([0.3, -0.4, 1.2])
    assert np.array_equal(EnsembleSpec(count=1, transverse_axis=ax, **ok).transverse_axis,
                          ax / np.linalg.norm(ax))


def test_spec_refuses_non_finite_box_values():
    # each of these used to pass, then fail every row of the run
    ok = dict(count=1, config=IntegratorConfig(), p_center=np.zeros(2), r_center=np.zeros(2),
              model=RashbaScenario().model())
    for name, value in [("t0", np.nan), ("t0", -np.inf), ("p_center", [np.nan, 0.0]),
                        ("r_center", [0.0, np.inf]), ("p_spread", [np.nan, 0.0]),
                        ("r_spread", [np.inf, 0.0]), ("transverse_axis", [np.nan, 1.0, 0.0])]:
        with pytest.raises(ValueError, match=rf"^{name} must be (a )?finite"):
            EnsembleSpec(**{**ok, name: value})


def test_spec_count_must_be_an_integer():
    # a fractional count used to pass validation and fail in draw_samples
    ok = dict(config=IntegratorConfig(), p_center=np.zeros(2), r_center=np.zeros(2),
              model=RashbaScenario().model())
    for count in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="count"):
            EnsembleSpec(count=count, **ok)
    assert draw_samples(EnsembleSpec(count=np.int64(2), **ok)).shape == (2, 2, 2)


# -- observables --------------------------------------------------------------


def test_curvature_free_ensemble_null_observables():
    # rho = 0 removes the gauge structure entirely; both bands then follow
    # the same Lorentz dynamics and every band difference cancels even
    # though the transverse motion itself is large
    scn = RashbaScenario(b_z=1.3, e_inplane=(0.4, 0.0), rho=0.0, hbar=0.05)
    spec = rashba_spec(scn, count=5, seed=7, t_end=0.3, step=5e-3,
                       p_center=(0.2, 0.1), p_spread=(0.05, 0.05))
    report = run_ensemble(spec)
    assert report.failures == ()
    assert report.count == 5
    assert report.duration == pytest.approx(0.3)
    assert abs(report.band_vel[0]) > 1e-3
    assert abs(report.spin_current) < 1e-14
    assert abs(report.splitting) < 1e-14


def test_rashba_drift_matches_pointwise():
    # external B is dropped so pdot stays along x and p_y = 0 holds exactly;
    # each sample's launch velocity is then the pure transverse drift at its
    # own momentum, checked sample by sample rather than as an aggregate
    scn = RashbaScenario(b_z=2.0, e_inplane=(0.005, 0.0), hbar=1e-4)
    em = ExternalEMField.uniform(E=scn.e_vector(), B=(0.0, 0.0, 0.0))
    spec = rashba_spec(scn, count=6, seed=3, t_end=0.05, em=em)
    report = run_ensemble(spec)
    assert report.failures == ()
    for i in range(spec.count):
        p0 = report.samples[i, 0]
        drift_y = float(scn.drift(0, p0) @ EY)
        assert report.v0_samples[i, 0] == pytest.approx(drift_y, rel=1e-10)
        # per-sample transverse velocity difference is twice the drift
        diff = report.v0_samples[i, 0] - report.v0_samples[i, 1]
        assert diff == pytest.approx(2.0 * drift_y, rel=1e-10)
    # the gauge response is exactly band-odd on the p_y = 0 axis
    assert np.array_equal(report.v0_samples[:, 0], -report.v0_samples[:, 1])
    # equal occupation of exactly opposite bands carries no net current
    assert polarization_current(report, (0.5, 0.5)) == 0.0


def test_coupling_flip_flips_spin_current_sign():
    # launches sit on the p_y = 0 axis, so flipping the normal field mirrors
    # the dynamics in y; only the sign of the spin current is asserted
    reports = {}
    for bz in (+1.5, -1.5):
        scn = RashbaScenario(b_z=bz, e_inplane=(0.3, 0.0), chi=0.9, rho=0.8,
                             hbar=0.05)
        spec = rashba_spec(scn, count=4, seed=5, t_end=0.2, step=2e-3,
                           p_center=(0.3, 0.0), p_spread=(0.05, 0.0))
        reports[bz] = run_ensemble(spec)
    plus, minus = reports[+1.5].spin_current, reports[-1.5].spin_current
    assert plus != 0.0
    assert np.sign(minus) == -np.sign(plus)


def test_report_bitwise_identical_across_reruns():
    scn = RashbaScenario(b_z=2.0, e_inplane=(0.005, 0.0), hbar=1e-4)
    em = ExternalEMField.uniform(E=scn.e_vector(), B=(0.0, 0.0, 0.0))

    def run():
        spec = rashba_spec(scn, count=4, seed=17, t_end=0.02, em=em)
        return run_ensemble(spec)

    ref = run()
    arrays = ("samples", "disp_samples", "v0_samples", "band_disp",
              "band_vel", "band_v0", "sem_disp", "sem_vel")
    for _ in range(2):
        rep = run()
        for name in arrays:
            assert np.array_equal(getattr(rep, name), getattr(ref, name)), name
        assert rep.spin_current == ref.spin_current
        assert rep.splitting == ref.splitting


# -- optical ensembles --------------------------------------------------------


def test_magnus_ensemble_splitting_matches_contour_oracle():
    scn = OpticalScenario(LinearIndex(n0=1.5, alpha=0.05, axis=(1.0, 0.0, 0.0)),
                          k0=50.0)
    config = IntegratorConfig(step=5e-3, t_end=2.0)
    spec = EnsembleSpec(count=6, config=config,
                        p_center=scn.launch_momentum((0.0, 0.0, 1.0)),
                        r_center=np.zeros(3),
                        p_spread=np.array([0.03, 0.0, 0.0]),
                        seed=9, optical=scn, transverse_axis=EY)
    report = run_ensemble(spec)
    assert report.failures == ()
    # anomalous-displacement contour along the center ray's momentum path;
    # helicity -1 fills the band-0 slot, so the splitting is twice its shift
    center = magnus_ray(scn, spec.p_center, np.zeros(3), -1,
                        s_end=config.t_end, step=config.step)
    oracle = displacement_contour(center.p, lambda p: scn.curvature(p, -1),
                                  hbar=1.0 / scn.k0)
    predicted = 2.0 * float(oracle @ EY)
    assert abs(predicted) > 1e-4
    diffs = report.disp_samples[:, 0] - report.disp_samples[:, 1]
    se_diff = float(np.std(diffs, ddof=1)) / np.sqrt(spec.count)
    assert se_diff > 0.0
    assert abs(report.splitting - predicted) <= 2.0 * se_diff


def optical_spec(t0=0.0):
    scn = OpticalScenario(LinearIndex(n0=1.5, alpha=0.05, axis=(1.0, 0.0, 0.0)), k0=50.0)
    return EnsembleSpec(count=4, config=IntegratorConfig(step=1e-2, t_end=1.0), t0=t0,
                        p_center=np.array([0.2, 0.1, 1.0]), r_center=np.zeros(3),
                        p_spread=np.array([0.1, 0.1, 0.0]), r_spread=np.array([0.2, 0.2, 0.2]),
                        seed=4, optical=scn, transverse_axis=EY)


def test_optical_rays_start_at_t0():
    # a ray runs from t0 to t_end, as a trajectory does, and its mean
    # velocity is its displacement over that duration
    spec = optical_spec(t0=0.5)
    report = run_ensemble(spec)
    assert report.failures == () and report.duration == 0.5
    for band in (0, 1):
        assert report.band_vel[band] == pytest.approx(
            np.mean(report.disp_samples[:, band] / report.duration), rel=1e-14)
    p0, r0 = report.samples[0]
    p0 = p0 * np.sqrt(spec.optical.index.n2(r0)) / np.linalg.norm(p0)
    ray = magnus_ray(spec.optical, p0, r0, +1, s_end=0.5, step=spec.config.step)
    assert report.disp_samples[0, 1] == float((ray.final_r - r0) @ EY)


def test_optical_v0_is_the_launch_velocity():
    # rdot = p - S k0^{-1} (p x grad n^2/2)/|p|^3 at the launch point, with
    # |p| = n(r0) and S = -1 for band 0, +1 for band 1
    spec = optical_spec()
    scn = spec.optical
    report = run_ensemble(spec)
    for i, (p0, r0) in enumerate(report.samples):
        p = p0 * np.sqrt(scn.index.n2(r0)) / np.linalg.norm(p0)
        for band, S in ((0, -1.0), (1, +1.0)):
            rdot = p - S / scn.k0 * np.cross(p, 0.5 * scn.index.grad_n2(r0)) \
                / np.linalg.norm(p) ** 3
            assert report.v0_samples[i, band] == pytest.approx(float(rdot @ EY),
                                                               rel=1e-14, abs=1e-16)


class QuadraticIndex(IndexField):
    """n^2 = 2.25 - 3 r_y^2: a ray path that RK4 does not follow exactly."""

    def n2(self, r):
        return 2.25 - 3.0 * float(r[1]) ** 2

    def grad_n2(self, r):
        return np.array([0.0, -6.0 * float(r[1]), 0.0])


def test_optical_ensemble_warns_on_constraint_drift():
    # rays start on the shell; coarse steps in a curved index leave it by
    # about 1.5e-2, past the 1e-6 bound a directly traced ray also keeps
    spec = EnsembleSpec(count=2, config=IntegratorConfig(step=0.5, t_end=3.0),
                        p_center=np.array([1.0, 0.5, 0.0]), r_center=np.array([0.0, 0.3, 0.0]),
                        p_spread=np.array([0.0, 0.3, 0.3]),
                        optical=OpticalScenario(QuadraticIndex(), k0=50.0))
    with pytest.warns(ConstraintDriftWarning, match="dispersion constraint drifted"):
        run_ensemble(spec)


def test_optical_zero_direction_is_a_failure():
    scn = OpticalScenario(UniformIndex(n0=1.2), k0=80.0)
    spec = EnsembleSpec(count=1, config=IntegratorConfig(step=1e-2, t_end=0.5),
                        p_center=np.zeros(3), r_center=np.zeros(3),
                        optical=scn, transverse_axis=EY)
    with pytest.raises(EnsembleError, match="ray direction is zero"):
        run_ensemble(spec)


def test_zero_direction_rays_stay_out_of_the_batch(monkeypatch):
    # the grid's middle sample has p = 0: its two rays fail without being
    # integrated, and no step of the others is redone one row at a time
    spec = EnsembleSpec(count=11, config=IntegratorConfig(step=1e-2, t_end=0.05),
                        p_center=np.zeros(3), r_center=np.zeros(3),
                        p_spread=np.array([0.5, 0.0, 0.0]), sampler="grid",
                        optical=OpticalScenario(UniformIndex(n0=1.2), k0=80.0),
                        transverse_axis=EY)
    assert np.flatnonzero(~draw_samples(spec)[:, 0].any(axis=1)).tolist() == [5]
    rows = count_kernel_rows(monkeypatch)
    report = run_ensemble(spec)
    # one launch evaluation and four stages per step, each over the 20 aimed rays
    assert rows == [20] * (1 + 4 * 5)
    assert report.failures == tuple((5, band, "EnsembleError: sampled ray direction is zero")
                                    for band in (0, 1))
    assert np.isnan(report.disp_samples[5]).all() and not np.isnan(np.delete(
        report.disp_samples, 5, axis=0)).any()


def test_rays_outside_the_medium_stay_out_of_the_batch(monkeypatch):
    # n^2 = 1 - 0.2 r_y is -0.2 at the grid's last sample: its two rays fail
    # without being integrated or taking a square root of n^2 < 0
    spec = EnsembleSpec(count=11, config=IntegratorConfig(step=1e-2, t_end=0.05),
                        p_center=np.array([1.0, 0.0, 0.0]), r_center=np.zeros(3),
                        r_spread=np.array([0.0, 6.0, 0.0]), sampler="grid",
                        optical=OpticalScenario(LinearIndex(n0=1.0, alpha=0.1), k0=80.0),
                        transverse_axis=EY)
    rows = count_kernel_rows(monkeypatch)
    report = run_ensemble(spec)
    assert rows == [20] * (1 + 4 * 5)
    assert report.failures == tuple(
        (10, band, "EnsembleError: launch point is outside the medium: n^2 <= 0")
        for band in (0, 1))
    assert not np.isnan(report.disp_samples[:10]).any()


# -- failure handling ---------------------------------------------------------


def degenerate_line_spec(count):
    # coupling B(r) = r: the grid sample at r = 0 sits exactly on the band
    # crossing and must fail, everything else is well gapped
    scn = ZeemanScenario.hedgehog(chi=1.0)
    config = IntegratorConfig(step=1e-2, t_end=0.05, record_connection=False)
    return EnsembleSpec(count=count, config=config,
                        p_center=np.zeros(3),
                        r_center=np.array([0.0, 0.0, 1.5]),
                        r_spread=np.array([0.0, 0.0, 1.5]),
                        sampler="grid", model=scn.model(),
                        transverse_axis=np.array([1.0, 0.0, 0.0]))


def test_failures_below_limit_are_collected():
    report = run_ensemble(degenerate_line_spec(11))  # 2 of 22 fail
    assert len(report.failures) == 2
    assert {(i, b) for i, b, _ in report.failures} == {(0, 0), (0, 1)}
    assert all("DegeneracyError" in msg for _, _, msg in report.failures)
    assert np.all(np.isnan(report.disp_samples[0]))
    assert np.all(np.isfinite(report.disp_samples[1:]))
    assert np.all(np.isfinite(report.band_disp))


def test_diverging_sample_counts_as_a_failure():
    # V(r) = -exp(10 r1): the sample launched at r1 = 0 overflows within
    # its single step, the ten launched at r1 <= -0.4 barely move
    model = HamiltonianModel.from_split(
        h0=lambda m: 0.5 * float(m.p @ m.p) - math.exp(10.0 * m.r[0]),
        h1=lambda m: np.array([0.0, 0.0, 1.0]))
    config = IntegratorConfig(step=0.5, t_end=0.5, record_connection=False)
    spec = EnsembleSpec(count=11, config=config, p_center=np.zeros(3),
                        r_center=np.array([-2.0, 0.0, 0.0]),
                        r_spread=np.array([2.0, 0.0, 0.0]),
                        sampler="grid", model=model,
                        transverse_axis=np.array([1.0, 0.0, 0.0]))
    report = run_ensemble(spec)
    assert [(i, b) for i, b, _ in report.failures] == [(10, 0), (10, 1)]
    assert all(msg.startswith("NumericalError: integration step 1")
               for _, _, msg in report.failures)
    assert np.all(np.isfinite(report.disp_samples[:10]))


def test_failure_fraction_limit():
    with pytest.raises(EnsembleError, match="trajectories failed"):
        run_ensemble(degenerate_line_spec(5))  # 2 of 10 fail


# -- lockstep batches ------------------------------------------------------------


def lockstep_case(kind, seed, count, epsilon_abort):
    """A Zeeman poly or Rashba ensemble spec: with exact row derivatives, or
    with a CallableField coupling (differenced); or a generic model: the
    Zeeman poly one with its split form removed, or a three-band Hermitian
    one; or an optical one, whose rays ignore epsilon but some of whose
    rays, at a small k0, fail on the spin force. An rkf45 kind is the Zeeman
    poly or Rashba spec integrated by rkf45, from a first trial step of half
    the run; its tolerance is left for the caller to choose."""
    if kind.endswith("-rkf45"):
        spec = lockstep_case(kind[:-len("-rkf45")], seed, count, epsilon_abort)
        return replace(spec, config=IntegratorConfig(method="rkf45", tolerance=1.0, step=0.15,
                                                     t_end=0.3, epsilon_abort=epsilon_abort))
    rng = np.random.default_rng(seed)
    config = IntegratorConfig(step=0.02, t_end=0.15, epsilon_abort=epsilon_abort)
    if kind == "zeeman-cut":  # the rows with p3 above about 0.13 fail, each at its own step
        return plane_cut_spec(count, seed, 0.02, (0.2, 0.3), config)
    if kind == "optical":
        index = LinearIndex(n0=float(rng.uniform(1.2, 2.0)), alpha=float(rng.uniform(0.1, 0.3)),
                            axis=rng.normal(size=3))
        return EnsembleSpec(count=count, config=config, p_center=rng.uniform(-1.0, 1.0, 3),
                            r_center=np.zeros(3), p_spread=np.full(3, 0.5),
                            r_spread=np.full(3, 0.8), seed=seed,
                            optical=OpticalScenario(index, k0=float(rng.uniform(0.02, 0.2))))
    if kind == "rashba":
        scn = RashbaScenario(b_z=float(rng.uniform(0.3, 2.0)),
                             e_inplane=tuple(rng.uniform(-0.3, 0.3, 2)),
                             rho=float(rng.uniform(0.5, 1.0)))
        return EnsembleSpec(count=count, config=config, p_center=rng.uniform(-0.5, 0.5, 2),
                            r_center=np.zeros(2), p_spread=np.full(2, 0.4),
                            r_spread=np.full(2, 0.5), seed=seed, model=scn.model(),
                            em=scn.em(), transverse_axis=scn.transverse_axis())
    b_field = PolyField.random(seed, rng.uniform(-0.5, 0.5, 3))
    if kind == "zeeman-callable":
        b_field = CallableField(b_field.value)
    model = ZeemanScenario(b_field=b_field).model()
    if kind == "zeeman-generic":
        model = generic_copy(model)
    elif kind == "hermitian-3":
        model = hermitian_model(seed, 3)
    em = ExternalEMField.uniform(E=rng.uniform(-0.3, 0.3, 3), B=rng.uniform(-0.5, 0.5, 3))
    return EnsembleSpec(count=count, config=config, p_center=np.zeros(3),
                        r_center=np.zeros(3), p_spread=np.full(3, 0.5),
                        r_spread=np.full(3, 0.8), seed=seed, model=model, em=em)


def batch_rows(spec):
    """(bands, Y) of an ensemble's rows, sample-major, band 0 first."""
    samples = draw_samples(spec)
    return (np.tile([0, 1], spec.count),
            np.repeat(samples.reshape(spec.count, -1), 2, axis=0))


def row_outcome(run, i):
    """A row's status, error text, final state and launch velocity, and the
    clock, state and phases it recorded at each step, as bytes."""
    err = run.errors[i]
    steps = [np.concatenate([[new["s"][k]], new["y"][k], [berry[k], dynamic[k]]]).tobytes()
             for rows, new, berry, dynamic in run.states for k in np.flatnonzero(rows == i)]
    return (run.status[i], None if err is None else f"{type(err).__name__}: {err}",
            run.y[i].tobytes(), run.v0[i].tobytes(), steps)


def mixing_tolerance(model, bands, Y, config, em):
    """The largest tolerance, on a quarter-decade ladder, at which some rows
    accept their first rkf45 trial and others reject it; None where fewer
    than two rows reach a trial."""
    for tol in 10.0 ** -np.arange(4.0, 12.0, 0.25):
        run = _integrate_rows(model, bands, Y, 0.0, replace(config, tolerance=tol, max_steps=1), em)
        moved = (run.y != Y).any(axis=1)
        rejected = (np.array(run.status) == "max_steps") & ~moved
        if moved.sum() + rejected.sum() < 2:
            return None
        if moved.any() and rejected.any():
            return tol
    raise AssertionError("no tolerance splits the rows' first trial")


@pytest.mark.parametrize("kind", ["zeeman", "rashba", "zeeman-callable", "zeeman-generic",
                                  "hermitian-3", "optical", "zeeman-rkf45", "rashba-rkf45",
                                  "zeeman-cut"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       epsilon_abort=st.sampled_from([1.0, 0.05]), data=st.data())
def test_row_bits_do_not_depend_on_the_batch(kind, seed, epsilon_abort, data):
    # a low epsilon bound makes rows breach, and strong spin forces make
    # rows fail with a SpinForceWarning, which the suite turns into an error;
    # each row's recorded clock, states and phases are compared too
    spec = lockstep_case(kind, seed, 4, epsilon_abort)
    model, config, em, bands, Y = _batch(spec, draw_samples(spec))
    tol = None
    if config.method == "rkf45":  # some rows reject a trial that others accept
        tol = mixing_tolerance(model, bands, Y, config, em)
        spec = replace(spec, config=replace(config, tolerance=tol or 1e-7))
        config = spec.config
    run = lambda rows: _integrate_rows(model, bands[rows], Y[rows], spec.t0, config, em,
                                       record=True)
    trials, step = [], sgk.dynamics._rkf45_step

    def recording(*args):
        out = step(*args)
        trials.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgk.dynamics, "_rkf45_step", recording)
        full = run(np.arange(len(Y)))
    assert tol is None or any(ok.any() and not ok.all() for ok in trials)
    want = [row_outcome(full, i) for i in range(len(Y))]
    assert kind != "zeeman-cut" or "failed" in full.status  # parts that bisection reassembles
    order = data.draw(st.permutations(range(len(Y))))
    shuffled = run(np.array(order))
    assert [row_outcome(shuffled, k) for k in range(len(Y))] == [want[i] for i in order]
    sub = data.draw(st.lists(st.integers(0, len(Y) - 1), min_size=1, max_size=len(Y),
                             unique=True))
    part = run(np.array(sub))
    assert [row_outcome(part, k) for k in range(len(sub))] == [want[i] for i in sub]
    d = spec.d
    for i, (band, y) in enumerate(zip(bands, Y)):
        try:
            if spec.optical is not None:
                ray = magnus_ray(spec.optical, y[:d], y[d:], 2 * band - 1,
                                 s_end=config.t_end - spec.t0, step=config.step)
            else:
                traj = integrate(spec.model, band, PhasePoint(y[:d], y[d:], spec.t0),
                                 spec.config, em=spec.em)
        except Exception as exc:  # a SpinForceWarning too, as warnings are errors here
            assert want[i][:2] == ("failed", f"{type(exc).__name__}: {exc}")
            continue
        if spec.optical is not None:  # a ray alone records no launch velocity or phases
            final = np.concatenate([ray.p[-1], ray.r[-1]])
            assert want[i][:3] == (ray.status, None, final.tobytes())
            assert [b[:8 * (1 + 2 * d)] for b in want[i][4]] == [
                np.concatenate([[s], p, r]).tobytes() for s, p, r in zip(ray.s, ray.p, ray.r)]
            continue
        v0 = np.concatenate([traj.states[0].v_p, traj.states[0].v_r])
        final = np.concatenate([traj.final.m.p, traj.final.m.r])
        steps = [np.concatenate([[st.m.t], st.m.p, st.m.r, [st.berry_phase, st.dynamic_phase]])
                 .tobytes() for st in traj.states]
        assert want[i] == (traj.status, None, final.tobytes(), v0.tobytes(), steps)


def hedgehog_line_spec(count):
    # B(r) = r on a grid along z with spacing 0.2: the sample at r = 0 sits
    # on the band crossing, the one at z = 0.2 breaches epsilon (about 2.5
    # by t = 0.2) and the others, from z = 0.4 on, stay below 1
    c = 0.1 * (count - 1)
    return EnsembleSpec(count=count, config=IntegratorConfig(step=0.02, t_end=0.2),
                        p_center=np.array([0.4, 0.0, 0.0]),
                        r_center=np.array([0.0, 0.0, c]), r_spread=np.array([0.0, 0.0, c]),
                        sampler="grid", model=ZeemanScenario.hedgehog().model(),
                        transverse_axis=EY)


# the spin force near the hedgehog core is not small, by design
@pytest.mark.filterwarnings("ignore::sgk.SpinForceWarning")
def test_lockstep_failures_are_isolated():
    spec = hedgehog_line_spec(21)  # 4 of 42 trajectories fail
    report = run_ensemble(spec)
    bands, Y = batch_rows(spec)
    want = []
    for i, (band, y) in enumerate(zip(bands, Y)):
        try:
            traj = integrate(spec.model, band, PhasePoint(y[:3], y[3:], 0.0), spec.config)
        except SgkError as exc:
            want.append((i // 2, band, f"{type(exc).__name__}: {exc}"))
            continue
        if traj.status != "completed":
            want.append((i // 2, band, "EnsembleError: trajectory ended with status "
                         f"{traj.status!r}"))
        else:
            disp = float(traj.final.m.r @ EY - y[3:] @ EY)
            assert report.disp_samples[i // 2, band] == disp
            assert report.v0_samples[i // 2, band] == float(traj.states[0].v_r @ EY)
    assert report.failures == tuple(want)
    assert [(i, b) for i, b, _ in want] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert "DegeneracyError" in want[0][2] and "adiabaticity_breach" in want[2][2]
    # the good rows keep their bits without the bad samples in the batch
    good = np.arange(4, len(Y))
    full = _integrate_rows(spec.model, bands, Y, 0.0, spec.config)
    alone = _integrate_rows(spec.model, bands[good], Y[good], 0.0, spec.config)
    assert [row_outcome(full, i) for i in good] == [row_outcome(alone, k)
                                                    for k in range(len(good))]
    with pytest.raises(EnsembleError, match="4/22 trajectories failed"):
        run_ensemble(hedgehog_line_spec(11))


def count_kernel_rows(monkeypatch):
    rows = []
    kernel = sgk.dynamics._point_kernel

    def counting(model, bands, X, *args, **kwargs):
        rows.append(len(X))
        return kernel(model, bands, X, *args, **kwargs)

    monkeypatch.setattr(sgk.dynamics, "_point_kernel", counting)
    return rows


def test_failing_rows_cost_log_n_trials_each(monkeypatch):
    # F of N rows cross the plane r3 = 0.02, each at a step of its own. An
    # rk4 trial makes at most 5 kernel calls (4 stages and the accepted
    # state; the launch makes 1), so S steps of trials over all running
    # rows make at most 5 (S + 1). A trial that raises is redone on its
    # halves: at each of the ceil(log2 N) levels below the batch, a failing
    # row lies in one raising set, which tries its 2 halves, so F rows add
    # at most 10 F ceil(log2 N) calls. Redoing every row alone instead adds
    # about 5 N calls for each failing row
    config = IntegratorConfig(step=0.02, t_end=1.0)
    spec = plane_cut_spec(64, 0, 0.02, (-0.5, 0.6), config)
    bands, Y = batch_rows(spec)
    calls = count_kernel_rows(monkeypatch)
    run = _integrate_rows(spec.model, bands, Y, 0.0, config)
    steps = [int(str(e).split(":")[0].split()[-1]) for e in run.errors if e is not None]
    F, N, S = len(steps), len(Y), 50
    assert F >= 4 and len(set(steps)) == F and run.status.count("completed") == N - F
    assert len(calls) <= 5 * (S + 1) + 10 * F * math.ceil(math.log2(N)) < 5 * N * F


def test_bench_ensemble_runs_in_lockstep(monkeypatch, tmp_path, capsys):
    # the benchmark's seed-0 ensemble call: 16 Rashba samples, 30 rk4 steps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    inv = workloads.ensemble(0)[0]
    (tmp_path / "config.json").write_text(json.dumps(inv.config))
    rows = count_kernel_rows(monkeypatch)
    assert main([inv.command, "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out"), *inv.args]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    # one launch evaluation and four stages per step, each over all rows:
    # 121 calls of 32 rows, where one trajectory at a time made 3872 calls
    assert rows == [2 * workloads.ENSEMBLE_COUNT] * (1 + 4 * workloads.ENSEMBLE_STEPS)


def test_ensembles_evaluate_no_connection(monkeypatch):
    # an ensemble reports no phases, so it never asks the kernel for the
    # connection, even with record_connection set; integrate still does
    asked = []
    kernel = sgk.dynamics._point_kernel

    def recording(*args, connection=False, **kwargs):
        asked.append(connection)
        return kernel(*args, connection=connection, **kwargs)

    monkeypatch.setattr(sgk.dynamics, "_point_kernel", recording)
    scn = RashbaScenario(b_z=2.0, e_inplane=(0.005, 0.0), hbar=1e-4)
    spec = replace(rashba_spec(scn, count=2, seed=1, t_end=0.01, step=0.005),
                   config=IntegratorConfig(step=0.005, t_end=0.01, record_connection=True))
    run_ensemble(spec)
    assert asked and not any(asked)
    integrate(spec.model, 1, PhasePoint((0.1, 0.0), (0.0, 0.0), 0.0), spec.config, spec.em)
    assert any(asked)


def test_rkf45_ensembles_run_in_lockstep(monkeypatch):
    # every rkf45 row takes its own steps, yet all rows share each kernel call
    scn = ZeemanScenario(b_field=PolyField.random(2, (0.1, -0.2, 1.5)))
    config = IntegratorConfig(method="rkf45", tolerance=1e-6, step=0.02, t_end=0.1)
    spec = EnsembleSpec(count=8, config=config, p_center=np.zeros(3), r_center=np.zeros(3),
                        p_spread=np.full(3, 0.2), r_spread=np.full(3, 0.2), model=scn.model())
    rows = count_kernel_rows(monkeypatch)
    report = run_ensemble(spec)
    assert rows[0] == 2 * spec.count and report.failures == ()
    bands, Y = batch_rows(spec)
    run = _integrate_rows(spec.model, bands, Y, 0.0, config)
    axis = spec.transverse_axis
    for i, (band, y) in enumerate(zip(bands, Y)):
        traj = integrate(spec.model, band, PhasePoint(y[:3], y[3:], 0.0), config)
        assert (traj.status, run.status[i]) == ("completed", "completed")
        assert run.y[i].tobytes() == np.concatenate([traj.final.m.p, traj.final.m.r]).tobytes()
        assert report.disp_samples[i // 2, band] == float((traj.final.m.r - y[3:]) @ axis)
        assert report.v0_samples[i // 2, band] == float(traj.states[0].v_r @ axis)


# -- polarization -------------------------------------------------------------


def toy_report(band_vel):
    z2 = np.zeros(2)
    return TransportReport(count=2, duration=1.0, band_disp=z2,
                           band_vel=np.asarray(band_vel, dtype=float),
                           band_v0=z2, sem_disp=z2, sem_vel=z2,
                           disp_samples=np.zeros((2, 2)),
                           v0_samples=np.zeros((2, 2)),
                           samples=np.zeros((2, 2, 2)), failures=())


def test_polarization_current_examples():
    sym = toy_report([+0.25, -0.25])
    assert polarization_current(sym, (0.5, 0.5)) == 0.0
    assert polarization_current(sym, (1.0, 0.0)) == 0.25
    skew = toy_report([0.4, -0.2])
    # symmetric part plus the fraction imbalance times the half-difference
    want = 0.5 * (0.4 + (-0.2)) + 0.2 * 0.5 * (0.4 - (-0.2))
    assert polarization_current(skew, (0.6, 0.4)) == pytest.approx(want,
                                                                   rel=1e-12)


def test_polarization_current_validation():
    rep = toy_report([0.1, -0.1])
    with pytest.raises(ValueError, match="one entry per band"):
        polarization_current(rep, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="lie in"):
        polarization_current(rep, (1.2, -0.2))
    with pytest.raises(ValueError, match="sum to 1"):
        polarization_current(rep, (0.7, 0.7))
