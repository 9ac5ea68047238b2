"""Band-paired trajectory ensembles and transport observables.

Both bands are integrated from identical initial conditions, so any
transverse observable difference is purely the gauge-force response. The
sampler draws all initial conditions upfront from a counter-based
generator. rk4 ensembles run every trajectory in lockstep, as the rows
of one batched RK loop; rkf45 ensembles run one trajectory at a time
through the same loop. A row's bits do not depend on its batch, and
results reduce in sample order, so reports are bit-identical for a fixed
seed either way.

Optical ensembles trace helicity ray pairs instead of band trajectories;
helicity -1 fills the band-0 slot and +1 the band-1 slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import ExternalEMField, IntegratorConfig, _integrate_rows
from .errors import EnsembleError, SgkError
from .models import HamiltonianModel
from .scenarios import OpticalScenario, magnus_ray

FAILURE_FRACTION_LIMIT = 0.10


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling box, integration config, and declared observable axis.

    Initial conditions are drawn uniformly (sampler='random', counter-based
    RNG) or laid out on a lattice (sampler='grid') inside the box
    center +- spread, identically for both bands; a grid needs count to be
    the k-th power of an integer for k axes of nonzero spread. Exactly one
    of model / optical must be set; optical ensembles resample |p| onto the
    local dispersion shell and reuse config.step / config.t_end /
    config.max_steps as the ray step, length and step budget. A trajectory
    or ray that stops short of t_end counts as a failure.
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
    curvature: Optional[Callable] = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
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
        if np.any(ps < 0) or np.any(rs < 0):
            raise ValueError("spreads must be nonnegative")
        if self.sampler == "grid":
            _grid_side(self.count, np.count_nonzero(ps) + np.count_nonzero(rs))
        if self.optical is not None and self.config.t_end <= 0:
            raise ValueError("optical rays need a positive integrator t_end")
        if self.model is not None and self.t0 >= self.config.t_end:
            raise ValueError("t0 must be less than the integrator t_end")
        ax = np.asarray(self.transverse_axis, dtype=float)
        if ax.shape != (3,) or np.linalg.norm(ax) == 0:
            raise ValueError("transverse_axis must be a nonzero 3-vector")
        object.__setattr__(self, "p_center", pc)
        object.__setattr__(self, "r_center", rc)
        object.__setattr__(self, "p_spread", ps)
        object.__setattr__(self, "r_spread", rs)
        object.__setattr__(self, "transverse_axis", ax / np.linalg.norm(ax))

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


def _model_runs(spec: EnsembleSpec, samples: np.ndarray) -> list:
    """(RK loop outcome, row) of each trajectory, sample-major and band 0 first:
    rk4 runs all rows in lockstep, rkf45 adapts its step to one row at a time."""
    Y = np.repeat(samples.reshape(spec.count, -1), 2, axis=0)
    bands = np.tile([0, 1], spec.count)
    run = lambda k: _integrate_rows(spec.model, bands[k], Y[k], spec.t0, spec.config, spec.em,
                                    spec.curvature)
    if spec.config.method == "rk4":
        batch = run(slice(None))
        return [(batch, k) for k in range(len(Y))]
    return [(run(slice(k, k + 1)), 0) for k in range(len(Y))]


def _row_result(spec: EnsembleSpec, run, k: int, r0):
    if run.errors[k] is not None:
        raise run.errors[k]
    if run.status[k] != "completed":
        raise EnsembleError(f"trajectory ended with status {run.status[k]!r}")
    axis, d = spec.transverse_axis, spec.d
    disp = float((_embed3(run.y[k, d:]) - _embed3(r0)) @ axis)
    return disp, disp / (spec.config.t_end - spec.t0), float(_embed3(run.v0[k, d:]) @ axis)


def _run_ray(spec: EnsembleSpec, helicity: int, p0, r0):
    scn = spec.optical
    n0 = np.sqrt(scn.index.n2(np.asarray(r0, dtype=float)))
    p0 = np.asarray(p0, dtype=float)
    norm = np.linalg.norm(p0)
    if norm == 0.0:
        raise EnsembleError("sampled ray direction is zero")
    p0 = p0 * (n0 / norm)
    ray = magnus_ray(scn, p0, r0, helicity, s_end=spec.config.t_end,
                     step=spec.config.step, max_steps=spec.config.max_steps)
    if ray.status != "completed":
        raise EnsembleError(f"ray ended with status {ray.status!r}")
    axis = spec.transverse_axis
    disp = float((ray.final_r - np.asarray(r0, dtype=float)) @ axis)
    duration = spec.config.t_end
    rdot0 = (ray.r[1] - ray.r[0]) / (ray.s[1] - ray.s[0])
    return disp, disp / duration, float(rdot0 @ axis)


def run_ensemble(spec: EnsembleSpec) -> TransportReport:
    """Integrate both bands over the sampled initial conditions.

    rk4 ensembles integrate all 2 count trajectories in lockstep, as the
    rows of one RK loop; rkf45 trajectories and optical rays run one at a
    time. Each trajectory keeps the numbers and failure it has alone, and
    results are taken in sample order, band 0 first. Raises EnsembleError
    if more than 10% of trajectories fail; individual failures are
    otherwise collected into the report.
    """
    samples = draw_samples(spec)
    n_tasks = 2 * spec.count
    disp_samples = np.full((spec.count, 2), np.nan)
    vel_samples = np.full((spec.count, 2), np.nan)
    v0_samples = np.full((spec.count, 2), np.nan)
    failures = []
    runs = _model_runs(spec, samples) if spec.model is not None else None
    for i in range(spec.count):
        p0, r0 = samples[i, 0], samples[i, 1]
        for band in (0, 1):
            try:
                if runs is not None:
                    res = _row_result(spec, *runs[2 * i + band], r0)
                else:
                    res = _run_ray(spec, +1 if band == 1 else -1, p0, r0)
            except SgkError as exc:
                failures.append((i, band, f"{type(exc).__name__}: {exc}"))
                continue
            disp_samples[i, band], vel_samples[i, band], v0_samples[i, band] = res
    if len(failures) > FAILURE_FRACTION_LIMIT * n_tasks:
        head = "; ".join(f"sample {i} band {b}: {msg}"
                         for i, b, msg in failures[:5])
        raise EnsembleError(
            f"{len(failures)}/{n_tasks} trajectories failed: {head}")

    band_disp = np.empty(2)
    band_vel = np.empty(2)
    band_v0 = np.empty(2)
    sem_disp = np.zeros(2)
    sem_vel = np.zeros(2)
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
