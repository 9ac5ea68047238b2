"""Band-paired ensembles: sampling, observables, determinism, failure paths."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sgk import (
    EnsembleError,
    EnsembleSpec,
    ExternalEMField,
    HamiltonianModel,
    IntegratorConfig,
    LinearIndex,
    OpticalScenario,
    RashbaScenario,
    TransportReport,
    UniformIndex,
    ZeemanScenario,
    displacement_contour,
    draw_samples,
    magnus_ray,
    polarization_current,
    run_ensemble,
)

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
                        curvature=scn.curvature_provider(),
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


def test_optical_zero_direction_is_a_failure():
    scn = OpticalScenario(UniformIndex(n0=1.2), k0=80.0)
    spec = EnsembleSpec(count=1, config=IntegratorConfig(step=1e-2, t_end=0.5),
                        p_center=np.zeros(3), r_center=np.zeros(3),
                        optical=scn, transverse_axis=EY)
    with pytest.raises(EnsembleError, match="ray direction is zero"):
        run_ensemble(spec)


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
