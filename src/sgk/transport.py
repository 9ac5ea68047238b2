"""Band-paired trajectory ensembles and transport observables.

Both bands are integrated from identical initial conditions, so any
transverse observable difference is purely the gauge-force response. The
sampler draws all initial conditions upfront from a counter-based
generator. rk4 ensembles run every trajectory in lockstep, as the rows
of one batched RK loop; rkf45 ensembles run one trajectory at a time
through the same loop. A row's bits do not depend on its batch, and
results reduce in sample order, so reports are bit-identical for a fixed
seed either way.

Optical ensembles trace helicity ray pairs, as rows of the same loop in
lockstep; helicity -1 fills the band-0 slot and +1 the band-1 slot.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import ExternalEMField, IntegratorConfig, _integrate_rows
from .errors import EnsembleError, SgkError
from .models import HamiltonianModel
from .phase_space import row_norm
from .scenarios import OpticalScenario, _check_drift, _rays

FAILURE_FRACTION_LIMIT = 0.10


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling box, integration config, and declared observable axis.

    Initial conditions are drawn uniformly (sampler='random', counter-based
    RNG) or laid out on a lattice (sampler='grid') inside the box
    center +- spread, identically for both bands; a grid needs count to be
    the k-th power of an integer for k axes of nonzero spread. Exactly one
    of model / optical must be set; optical ensembles resample |p| onto the
    local dispersion shell and take only config.step / config.t_end /
    config.max_steps; a ray runs from t0 to t_end, as a trajectory does. A
    trajectory or ray that stops short of t_end counts as a failure. Every
    box value must be finite (else ValueError naming it), as in a config.
    """

    count: int
    config: IntegratorConfig
    p_center: np.ndarray
    r_center: np.ndarray
    p_spread: np.ndarray = None
    r_spread: np.ndarray = None
    t0: float = 0.0
    seed: int = 0
    sampler: str = "random"
    transverse_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    model: Optional[HamiltonianModel] = None
    optical: Optional[OpticalScenario] = None
    em: Optional[ExternalEMField] = None

    def __post_init__(self):
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral) \
                or self.count < 1:
            raise ValueError(f"count must be an integer of at least 1, got {self.count!r}")
        if (self.model is None) == (self.optical is None):
            raise ValueError("exactly one of model / optical must be set")
        if self.sampler not in ("random", "grid"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        pc = np.asarray(self.p_center, dtype=float)
        rc = np.asarray(self.r_center, dtype=float)
        if pc.shape != rc.shape or pc.ndim != 1:
            raise ValueError("p_center and r_center must be equal-length vectors")
        ps = np.zeros_like(pc) if self.p_spread is None \
            else np.asarray(self.p_spread, dtype=float)
        rs = np.zeros_like(rc) if self.r_spread is None \
            else np.asarray(self.r_spread, dtype=float)
        if ps.shape != pc.shape or rs.shape != rc.shape:
            raise ValueError("spreads must match the center shapes")
        box = dict(t0=self.t0, p_center=pc, r_center=rc, p_spread=ps, r_spread=rs)
        for name, value in box.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if np.any(ps < 0) or np.any(rs < 0):
            raise ValueError("spreads must be nonnegative")
        if self.sampler == "grid":
            _grid_side(self.count, np.count_nonzero(ps) + np.count_nonzero(rs))
        if self.t0 >= self.config.t_end:
            raise ValueError("t0 must be less than the integrator t_end")
        ax = np.asarray(self.transverse_axis, dtype=float)
        if ax.shape != (3,) or not np.isfinite(ax).all() or not ax.any():
            raise ValueError("transverse_axis must be a finite nonzero 3-vector")
        with np.errstate(over="ignore"):  # the 2-norm of entries beyond about 1e+-154
            ax = ax if 0.0 < np.linalg.norm(ax) < np.inf else ax / np.abs(ax).max()
        for name, value in {**box, "transverse_axis": ax / np.linalg.norm(ax)}.items():
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.p_center.shape[0]


def _grid_side(count: int, k: int) -> int:
    """Points per axis of a full k-axis grid with count points."""
    if k == 0:
        return 1
    side = round(count ** (1.0 / k))
    if side ** k != count:
        raise ValueError(f"grid sampler needs count to be a perfect power of "
                         f"the {k} axes with nonzero spread, got {count}")
    return side


def draw_samples(spec: EnsembleSpec) -> np.ndarray:
    """(count, 2, d) initial conditions: [i, 0] = p0, [i, 1] = r0."""
    d = spec.d
    center = np.concatenate([spec.p_center, spec.r_center])
    spread = np.concatenate([spec.p_spread, spec.r_spread])
    if spec.sampler == "random":
        rng = np.random.Generator(np.random.Philox(spec.seed))
        u = rng.uniform(-1.0, 1.0, size=(spec.count, 2 * d))
        pts = center + u * spread
    else:
        active = np.nonzero(spread > 0)[0]
        side = _grid_side(spec.count, active.size)
        grids = [np.linspace(center[a] - spread[a], center[a] + spread[a], side)
                 for a in active]
        pts = np.tile(center, (spec.count, 1))
        if active.size:
            pts[:, active] = np.stack(np.meshgrid(*grids, indexing="ij"),
                                      axis=-1).reshape(-1, active.size)
    return pts.reshape(spec.count, 2, d)


@dataclass(frozen=True)
class TransportReport:
    """Aggregated transverse observables, bands in ascending order.

    Velocities are time-averaged transverse displacements over the run
    duration; v0 arrays hold the instantaneous launch velocities used for
    pointwise drift checks. spin_current = (vel[0] - vel[1]) / 2 and
    splitting = disp[0] - disp[1]. Failed trajectories carry NaN in the
    per-sample arrays and are excluded from the aggregates.
    """

    count: int
    duration: float
    band_disp: np.ndarray
    band_vel: np.ndarray
    band_v0: np.ndarray
    sem_disp: np.ndarray
    sem_vel: np.ndarray
    disp_samples: np.ndarray
    v0_samples: np.ndarray
    samples: np.ndarray
    failures: tuple

    @property
    def spin_current(self) -> float:
        return 0.5 * (self.band_vel[0] - self.band_vel[1])

    @property
    def splitting(self) -> float:
        return self.band_disp[0] - self.band_disp[1]


def _embed3(v: np.ndarray) -> np.ndarray:
    out = np.zeros(3)
    out[:v.shape[0]] = v
    return out


def _batch(spec: EnsembleSpec, samples: np.ndarray):
    """(model, config, em, bands, Y) of the ensemble's rows, sample-major and
    band 0 first. An optical ensemble's rows are rays (scenarios._rays), each
    launch momentum rescaled onto the local shell |p| = n(r0); a zero
    direction stays zero, and so does a launch point where n^2 <= 0."""
    Y = np.repeat(samples.reshape(spec.count, -1), 2, axis=0)
    bands = np.tile([0, 1], spec.count)
    if spec.optical is None:
        return spec.model, spec.config, spec.em, bands, Y
    scn, cfg, norm = spec.optical, spec.config, row_norm(Y[:, :3])
    n2 = np.array([scn.index.n2(r) for r in Y[:, 3:]])
    n0 = np.sqrt(np.where(n2 > 0.0, n2, 0.0))
    Y[:, :3] *= (n0 / np.where(norm > 0.0, norm, 1.0))[:, None]
    return (*_rays(scn, cfg.step, cfg.t_end, cfg.max_steps), None, bands, Y)


def _row_result(spec: EnsembleSpec, run, k: int, r0):
    if run.errors[k] is not None:
        raise run.errors[k]
    if run.status[k] != "completed":
        what = "trajectory" if spec.optical is None else "ray"
        raise EnsembleError(f"{what} ended with status {run.status[k]!r}")
    axis, d = spec.transverse_axis, spec.d
    disp = float((_embed3(run.y[k, d:]) - _embed3(r0)) @ axis)
    return disp, disp / (spec.config.t_end - spec.t0), float(_embed3(run.v0[k, d:]) @ axis)


def run_ensemble(spec: EnsembleSpec) -> TransportReport:
    """Integrate both bands over the sampled initial conditions.

    rk4 and optical ensembles integrate all 2 count trajectories or rays in
    lockstep, as the rows of one RK loop; rkf45 trajectories run one at a
    time. Each keeps the numbers and failure it has alone, and results are
    taken in sample order, band 0 first. A ray sampled with no direction, or
    where n^2 <= 0, is a failure and is not integrated. A ray drifting off
    its dispersion surface by more than 1e-6 raises a ConstraintDriftWarning.
    Raises EnsembleError if more than 10% of trajectories fail; individual
    failures are otherwise collected into the report.
    """
    samples = draw_samples(spec)
    n_tasks = 2 * spec.count
    disp_samples, vel_samples, v0_samples = (np.full((spec.count, 2), np.nan) for _ in range(3))
    failures = []
    model, config, em, bands, Y = _batch(spec, samples)
    # a ray with no launch momentum fails on its own and never enters the batch
    aimed = np.ones(spec.count, dtype=bool) if spec.optical is None else Y[::2, :3].any(axis=1)
    live = np.flatnonzero(np.repeat(aimed, 2))
    run = lambda k: _integrate_rows(model, bands[k], Y[k], spec.t0, config, em)
    if config.method == "rk4":  # all rows in lockstep
        batch = run(live) if live.size else None
        runs = {k: (batch, j) for j, k in enumerate(live)}
    else:  # rkf45 adapts its step to one row at a time
        runs = {k: (run(slice(k, k + 1)), 0) for k in live}
    if spec.optical is not None and live.size:
        _check_drift(runs[live[0]][0], stacklevel=3)
    for i in range(spec.count):
        r0 = samples[i, 1]
        for band in (0, 1):
            try:
                if not aimed[i]:
                    raise EnsembleError("sampled ray direction is zero" if not samples[i, 0].any()
                                        else "launch point is outside the medium: n^2 <= 0")
                res = _row_result(spec, *runs[2 * i + band], r0)
            except SgkError as exc:
                failures.append((i, band, f"{type(exc).__name__}: {exc}"))
                continue
            disp_samples[i, band], vel_samples[i, band], v0_samples[i, band] = res
    if len(failures) > FAILURE_FRACTION_LIMIT * n_tasks:
        head = "; ".join(f"sample {i} band {b}: {msg}"
                         for i, b, msg in failures[:5])
        raise EnsembleError(
            f"{len(failures)}/{n_tasks} trajectories failed: {head}")

    band_disp, band_vel, band_v0 = np.empty(2), np.empty(2), np.empty(2)
    sem_disp, sem_vel = np.zeros(2), np.zeros(2)
    for band in (0, 1):
        ok = ~np.isnan(disp_samples[:, band])
        n = int(np.sum(ok))
        if n == 0:
            raise EnsembleError(f"all trajectories of band {band} failed")
        band_disp[band] = np.mean(disp_samples[ok, band])
        band_vel[band] = np.mean(vel_samples[ok, band])
        band_v0[band] = np.mean(v0_samples[ok, band])
        if n > 1:
            sem_disp[band] = np.std(disp_samples[ok, band], ddof=1) / np.sqrt(n)
            sem_vel[band] = np.std(vel_samples[ok, band], ddof=1) / np.sqrt(n)
    return TransportReport(count=spec.count,
                           duration=spec.config.t_end - spec.t0,
                           band_disp=band_disp, band_vel=band_vel,
                           band_v0=band_v0, sem_disp=sem_disp,
                           sem_vel=sem_vel, disp_samples=disp_samples,
                           v0_samples=v0_samples, samples=samples,
                           failures=tuple(failures))


def polarization_current(report: TransportReport, fractions) -> float:
    """Charge-current proxy: occupation-weighted mean transverse velocity."""
    f = np.asarray(fractions, dtype=float)
    if f.shape != (2,):
        raise ValueError("fractions must have one entry per band")
    if np.any(f < 0) or np.any(f > 1):
        raise ValueError("fractions must lie in [0, 1]")
    if abs(float(np.sum(f)) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    return float(f @ report.band_vel)
