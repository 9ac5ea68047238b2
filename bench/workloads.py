"""The benchmark's three workloads: sgk invocations drawn from a seed, and their checks.

Each workload turns the benchmark seed into a fixed list of `sgk`
invocations (one round). Every invocation carries a check that reads the
command's outputs and compares them with the closed forms in oracles.py,
and the units of work it did: accepted integrator steps, trajectories or
curvature-map points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Sizes of one round. A round takes a few seconds on a 2-core machine, so a
# run of tens of seconds holds several rounds and reports their medians.
TRAJ_STEPS = 100          # accepted steps of each run-scenario invocation
TRAJ_STEP = 0.01
ENSEMBLE_COUNT = 16       # samples; each runs both bands
ENSEMBLE_STEPS = 30
ENSEMBLE_STEP = 0.01
ENSEMBLE_THREADS = 2      # sgk's default on a 2-core machine
GRID = 6                  # curvature-map grid is GRID x GRID
CHERN_NODES = [8, 16]
MIN_H1 = 0.4              # geometry: smallest |H1| (half the gap) on the grid
MIN_CURVATURE = 0.05      # geometry: smallest max|F| on the grid

AXES = ("p1", "p2", "p3", "r1", "r2", "r3", "t")


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.residual) and self.residual <= self.tolerance)


@dataclass(frozen=True)
class Invocation:
    """One `sgk <command>` call and how to judge its outputs."""

    label: str
    command: str
    config: dict
    check: Callable      # (out_dir: Path, summary: dict) -> list[Check]
    units: Callable      # (summary: dict) -> {"steps"|"trajectories"|"points": n}
    args: tuple = ()


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, tag]))


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return header, data


def _steps_check(summary, duration, step):
    want = math.ceil(duration / step)
    return [Check("status_completed", 0.0 if summary.get("status") == "completed"
                  else 1.0, 0.0),
            Check("steps", abs(summary.get("steps", -1) - want), 0.0)]


# ---------------------------------------------------------------------------
# trajectory


def trajectory(seed: int) -> list:
    """Zeeman d=3: a static quadratic field, and a rotating one over one period."""
    rng = _rng(seed, 1)
    band_a = int(rng.integers(2))
    chi = float(rng.uniform(0.8, 1.2))
    f0 = _unit(rng) * rng.uniform(1.5, 2.0)
    G = rng.uniform(-0.2, 0.2, (3, 3))
    Q = rng.uniform(-0.1, 0.1, (3, 3, 3))
    p0 = _unit(rng) * rng.uniform(0.3, 0.5)
    r0 = rng.uniform(-0.1, 0.1, 3)
    # half a step short of a whole number of steps: the last step is shortened
    t_end_a = (TRAJ_STEPS - 0.5) * TRAJ_STEP
    cfg_a = {
        "scenario": {"kind": "zeeman", "chi": chi,
                     "b_field": {"kind": "poly", "f0": f0.tolist(),
                                 "G": G.tolist(), "Q": Q.tolist()}},
        "initial": {"p": p0.tolist(), "r": r0.tolist()},
        "integrator": {"step": TRAJ_STEP, "t_end": t_end_a},
        "band": band_a,
    }

    def check_a(out_dir: Path, summary: dict) -> list:
        header, data = _read_csv(out_dir / "trajectory.csv")
        t = data[:, 0]
        p = data[:, 1:4]
        r = data[:, 4:7]
        energy = data[:, header.index("energy")]
        own = oracles.zeeman_energy(p, r, band_a, f0, G, Q, chi, 1.0, 1.0)
        drift = float(np.max(np.abs(own - own[0])))
        speed = float(np.max(np.linalg.norm(np.diff(r, axis=0), axis=1)
                             / np.diff(t)))
        tol = oracles.zeeman_tolerances(
            duration=t_end_a, step=TRAJ_STEP, p=p, r=r, t=t, f0=f0, G=G, Q=Q,
            chi=chi, m_star=1.0, hbar=1.0, path_speed=speed)
        path = oracles.zeeman_path(np.concatenate([p0, r0]), t, band=band_a,
                                   f0=f0, G=G, Q=Q, chi=chi, m_star=1.0,
                                   hbar=1.0)
        scale = float(np.max(np.abs(own)))
        return _steps_check(summary, t_end_a, TRAJ_STEP) + [
            Check("a.final_time", abs(t[-1] - t_end_a), 4 * oracles.EPS * t_end_a),
            Check("a.energy_column", float(np.max(np.abs(energy - own))),
                  64 * oracles.EPS * scale),
            Check("a.energy_drift", drift, tol["energy_drift"]),
            Check("a.path", float(np.max(np.abs(data[:, 1:7] - path))),
                  tol["path"]),
        ]

    band_b = 1 - band_a
    chi_b = float(rng.uniform(0.8, 1.2))
    magnitude = float(rng.uniform(1.0, 1.5))
    theta = float(rng.uniform(0.4, 1.1))
    omega = float(rng.uniform(1.5, 2.5))
    phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
    rb = rng.uniform(-0.5, 0.5, 3)
    period = 2.0 * math.pi / omega
    step_b = period / (TRAJ_STEPS - 0.5)
    cfg_b = {
        "scenario": {"kind": "zeeman", "chi": chi_b,
                     "b_field": {"kind": "rotating", "magnitude": magnitude,
                                 "polar_angle": theta, "omega": omega,
                                 "phi0": phi0}},
        "initial": {"p": [0.0, 0.0, 0.0], "r": rb.tolist()},
        "integrator": {"step": step_b, "t_end": period},
        "band": band_b,
    }

    def check_b(out_dir: Path, summary: dict) -> list:
        header, data = _read_csv(out_dir / "trajectory.csv")
        last = data[-1]
        berry, dynamic = oracles.rotating_phases(band_b, magnitude, theta,
                                                 omega, chi_b, period)
        steps = data.shape[0] - 1
        m_norm = math.sqrt(float(rb @ rb) + period**2)
        return _steps_check(summary, period, step_b) + [
            Check("b.final_time", abs(last[0] - period), 4 * oracles.EPS * period),
            Check("b.berry_phase", abs(last[header.index("berry_phase")] - berry),
                  oracles.berry_tolerance(berry, omega, m_norm, steps)),
            Check("b.dynamic_phase",
                  abs(last[header.index("dynamic_phase")] - dynamic),
                  oracles.dynamic_tolerance(dynamic, steps)),
        ]

    def steps(summary):
        return {"steps": summary["steps"]}

    return [Invocation("run-a", "run-scenario", cfg_a, check_a, steps),
            Invocation("run-b", "run-scenario", cfg_b, check_b, steps)]


# ---------------------------------------------------------------------------
# ensemble


def ensemble(seed: int) -> list:
    """Rashba d=2 ensemble, random sampler seeded from the benchmark seed."""
    rng = _rng(seed, 2)
    sgk_seed = seed % 2**32
    angle = rng.uniform(0.0, 2.0 * math.pi)
    e_mag = rng.uniform(0.05, 0.2)
    params = {
        "b_z": float(rng.uniform(1.5, 2.5)),
        "e_inplane": [float(e_mag * math.cos(angle)),
                      float(e_mag * math.sin(angle))],
        "rho": float(rng.uniform(0.6, 1.0)),
        "chi": 1.0, "m_star": 1.0, "hbar": 1.0, "e_charge": 1.0,
        "c_light": 1.0,
    }
    p_angle = rng.uniform(0.0, 2.0 * math.pi)
    p_center = np.array([math.cos(p_angle), math.sin(p_angle)]) \
        * rng.uniform(0.2, 0.4)
    r_center = rng.uniform(-1.0, 1.0, 2)
    p_spread = np.array([0.1, 0.1])
    r_spread = np.array([0.5, 0.5])
    duration = (ENSEMBLE_STEPS - 0.5) * ENSEMBLE_STEP
    cfg = {
        "scenario": {"kind": "rashba", **params},
        "ensemble": {"count": ENSEMBLE_COUNT, "p_center": p_center.tolist(),
                     "r_center": r_center.tolist(),
                     "p_spread": p_spread.tolist(),
                     "r_spread": r_spread.tolist(), "sampler": "random"},
        "integrator": {"step": ENSEMBLE_STEP, "t_end": duration,
                       "record_connection": False},
    }

    def check(out_dir: Path, summary: dict) -> list:
        rec = json.loads((out_dir / "ensemble.jsonl").read_text())
        # sampler contract: Philox(seed), uniform within centre +- spread
        u = np.random.Generator(np.random.Philox(sgk_seed)).uniform(
            -1.0, 1.0, size=(ENSEMBLE_COUNT, 4))
        pts = np.concatenate([p_center, r_center]) \
            + u * np.concatenate([p_spread, r_spread])
        samples = pts.reshape(ENSEMBLE_COUNT, 2, 2)
        own = oracles.rashba_ensemble(samples, step=ENSEMBLE_STEP,
                                      duration=duration, **params)
        p_max = float(np.max(np.linalg.norm(samples[:, 0], axis=1))) \
            + duration * e_mag
        tol = oracles.rashba_tolerances(
            step=ENSEMBLE_STEP, duration=duration,
            m_norm_max=own["m_norm_max"], p_max=p_max, **params)
        checks = [Check("failures", float(rec["failures"]), 0.0),
                  Check("count", abs(rec["count"] - ENSEMBLE_COUNT), 0.0)]
        for key, bound in tol.items():
            diff = np.max(np.abs(np.asarray(rec[key]) - own[key]))
            checks.append(Check(key, float(diff), bound))
        return checks

    def units(summary):
        trajectories = 2 * summary["count"]
        return {"trajectories": trajectories,
                "steps": trajectories * math.ceil(duration / ENSEMBLE_STEP)}

    return [Invocation("ensemble", "ensemble", cfg, check, units,
                       args=("--seed", str(sgk_seed),
                             "--threads", str(ENSEMBLE_THREADS)))]


# ---------------------------------------------------------------------------
# geometry


def geometry(seed: int) -> list:
    """Plaquette curvature map of spin-orbit coupling, and the hedgehog's charge."""
    rng = _rng(seed, 3)
    half = 0.15
    while True:
        # redraw until the gap is open and the curvature well above the
        # plaquette's roundoff at every grid point
        fields = {
            "chi": float(rng.uniform(0.8, 1.2)),
            "rho": float(rng.uniform(0.5, 0.8)),
            "e0": _unit(rng) * rng.uniform(0.6, 0.9),
            "eg": rng.uniform(-0.3, 0.3, (3, 3)),
            "et": rng.uniform(-0.3, 0.3, 3),
            "b0": _unit(rng) * rng.uniform(0.7, 0.9),
            "bg": rng.uniform(-0.4, 0.4, (3, 3)),
            "bt": rng.uniform(-0.4, 0.4, 3),
        }
        base = np.concatenate([rng.uniform(-0.15, 0.15, 6),
                               rng.uniform(-0.1, 0.1, 1)])
        ia, ib = (int(i) for i in rng.choice(7, size=2, replace=False))
        h1_min, f_min = math.inf, math.inf
        for a in np.linspace(base[ia] - half, base[ia] + half, GRID):
            for b in np.linspace(base[ib] - half, base[ib] + half, GRID):
                vec = base.copy()
                vec[ia], vec[ib] = a, b
                F, h1 = oracles.spin_orbit_curvature(vec, **fields)
                h1_min = min(h1_min, float(np.linalg.norm(h1)))
                f_min = min(f_min, float(np.max(np.abs(F))))
        if h1_min >= MIN_H1 and f_min >= MIN_CURVATURE:
            break
    cfg_map = {
        "scenario": {"kind": "spin_orbit", "chi": fields["chi"],
                     "rho": fields["rho"],
                     "e_field": {"kind": "linear", "f0": fields["e0"].tolist(),
                                 "G": fields["eg"].tolist(),
                                 "gt": fields["et"].tolist()},
                     "b_field": {"kind": "linear", "f0": fields["b0"].tolist(),
                                 "G": fields["bg"].tolist(),
                                 "gt": fields["bt"].tolist()}},
        "grid": {"axis_a": AXES[ia], "axis_b": AXES[ib],
                 "a": [base[ia] - half, base[ia] + half, GRID],
                 "b": [base[ib] - half, base[ib] + half, GRID]},
        "base": {"p": base[:3].tolist(), "r": base[3:6].tolist(),
                 "t": float(base[6])},
    }

    def check_map(out_dir: Path, summary: dict) -> list:
        header, data = _read_csv(out_dir / "curvature_map.csv")
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        rels, tols = [], []
        for row in data:
            vec = base.copy()
            vec[ia], vec[ib] = row[0], row[1]
            F, h1 = oracles.spin_orbit_curvature(vec, **fields)
            ana = np.array([F[band, i, j] for band in (0, 1) for i, j in pairs])
            num = row[2:]
            f_scale = float(np.max(np.abs(ana)))
            rel = float(np.max(np.abs(num - ana))) / max(f_scale, 1e-3)
            nh = float(np.linalg.norm(h1))
            h0 = 0.5 * float(vec[:3] @ vec[:3])
            rels.append(rel)
            tols.append(oracles.plaquette_tolerance(
                f_scale, nh, abs(h0) + nh, float(np.linalg.norm(vec))))
        # report the point whose residual is nearest its own bound (or NaN)
        ratios = np.array(rels) / np.array(tols)
        k = int(np.argmax(np.where(np.isfinite(ratios), ratios, np.inf)))
        return [Check("points", abs(data.shape[0] - GRID * GRID), 0.0),
                Check("curvature_rel", rels[k], tols[k])]

    chi = float(rng.uniform(0.5, 2.0))
    band = int(rng.integers(2))
    radius = float(rng.uniform(0.6, 1.4))
    cfg_chern = {"source": {"kind": "zeeman", "chi": chi, "band": band},
                 "radius": radius, "nodes": CHERN_NODES}

    def check_chern(out_dir: Path, summary: dict) -> list:
        rec = json.loads((out_dir / "chern.jsonl").read_text())
        spin = 0.5 if band == 1 else -0.5
        return [Check("chern_charge", abs(rec["charge"] + 2.0 * spin),
                      oracles.chern_tolerance(radius, chi * 1.5 * radius,
                                              chi * radius))]

    return [Invocation("map", "curvature-map", cfg_map, check_map,
                       lambda summary: {"points": summary["points"]}),
            Invocation("chern", "chern-charge", cfg_chern, check_chern,
                       lambda summary: {})]


# workload -> (invocations for a seed, unit its throughput counts)
WORKLOADS = {"trajectory": (trajectory, "steps"),
             "ensemble": (ensemble, "trajectories"),
             "geometry": (geometry, "points")}
